//! # dmcommon — types shared by both disaggregated-memory backends
//!
//! The paper's two DM implementations (network-attached in [`dmnet`],
//! CXL G-FAM in [`dmcxl`]) expose one API surface (paper Table II):
//! `ralloc`/`rfree`/`create_ref`/`map_ref`, plus `rread`/`rwrite` for the
//! network backend and `load`/`store` semantics for CXL. This crate holds
//! the vocabulary types: DM virtual addresses, the `Ref` token that travels
//! inside RPC messages, page-size constants, copy-mode (the COW-vs-eager
//! ablation switch), the error type, and the [`page_store`] of both.
//!
//! [`dmnet`]: ../dmnet/index.html
//! [`dmcxl`]: ../dmcxl/index.html

#![warn(missing_docs)]

pub mod page_store;
pub mod va_tree;

use std::fmt;

use bytes::Bytes;

/// Page size used by every DM backend (paper §V-A: "the page size is
/// changeable, 4 KB in our case").
pub const PAGE_SIZE: usize = 4096;

/// Identifies one DM server in the pool (network backend) or the G-FAM
/// device (CXL backend uses id 0).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DmServerId(pub u8);

/// Global process id assigned by the DM pool (paper §V-A: "each process has
/// a unique global PID across all compute servers").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GlobalPid(pub u32);

/// A DM virtual address: `(server, global pid, per-process remote VA)`.
///
/// The paper calls the `(pid, va)` pair the *DM virtual address*; we carry
/// the owning server id alongside so the client library can route requests.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RemoteAddr {
    /// DM server that owns the region.
    pub server: DmServerId,
    /// Global PID of the owning process.
    pub pid: GlobalPid,
    /// Per-process remote virtual address (byte-granular).
    pub va: u64,
}

impl RemoteAddr {
    /// Byte offset added to the VA.
    pub fn offset(&self, delta: u64) -> RemoteAddr {
        RemoteAddr {
            va: self.va + delta,
            ..*self
        }
    }
}

impl fmt::Display for RemoteAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dm{}:p{}:{:#x}", self.server.0, self.pid.0, self.va)
    }
}

/// The pass-by-reference token that travels in RPC messages instead of the
/// data (paper §IV-B: "The Ref object is small (several bytes), and is
/// transferred along the RPC chain on behalf of the large data").
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Ref {
    /// Network-backend reference: an opaque key into the owning DM server's
    /// ref map (paper §V-A1 `create_ref`), plus the region length.
    Net {
        /// The DM server holding the shared pages.
        server: DmServerId,
        /// Key into the server's `Ref` map.
        key: u64,
        /// Region length in bytes.
        len: u64,
    },
    /// CXL-backend reference: the shared CXL physical page numbers (paper
    /// §V-B3 `create_ref`: "returns all physical pages' addresses").
    Cxl {
        /// Region length in bytes.
        len: u64,
        /// CXL physical page numbers backing the region, in order.
        pages: Vec<u32>,
    },
}

impl Ref {
    /// Region length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Ref::Net { len, .. } => *len,
            Ref::Cxl { len, .. } => *len,
        }
    }

    /// Whether the referenced region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the encoded token on the wire — what actually moves through
    /// the RPC chain in place of the data.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Ref::Net { .. } => 1 + 1 + 8 + 8,
            Ref::Cxl { pages, .. } => 1 + 8 + 4 + 4 * pages.len(),
        }
    }

    /// Encode the token.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.wire_bytes());
        match self {
            Ref::Net { server, key, len } => {
                out.push(1u8);
                out.push(server.0);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            Ref::Cxl { len, pages } => {
                out.push(2u8);
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
                for p in pages {
                    out.extend_from_slice(&p.to_le_bytes());
                }
            }
        }
        Bytes::from(out)
    }

    /// Decode a token.
    pub fn decode(b: &[u8]) -> Result<Ref, DmError> {
        match b.first() {
            Some(1) => {
                if b.len() < 18 {
                    return Err(DmError::Malformed);
                }
                Ok(Ref::Net {
                    server: DmServerId(b[1]),
                    key: u64::from_le_bytes(b[2..10].try_into().expect("len checked")),
                    len: u64::from_le_bytes(b[10..18].try_into().expect("len checked")),
                })
            }
            Some(2) => {
                if b.len() < 13 {
                    return Err(DmError::Malformed);
                }
                let len = u64::from_le_bytes(b[1..9].try_into().expect("len checked"));
                let n = u32::from_le_bytes(b[9..13].try_into().expect("len checked")) as usize;
                if b.len() < 13 + 4 * n {
                    return Err(DmError::Malformed);
                }
                let pages = (0..n)
                    .map(|i| {
                        u32::from_le_bytes(
                            b[13 + 4 * i..17 + 4 * i].try_into().expect("len checked"),
                        )
                    })
                    .collect();
                Ok(Ref::Cxl { len, pages })
            }
            _ => Err(DmError::Malformed),
        }
    }
}

/// Copy policy for shared regions — the paper's central ablation (Fig. 7):
/// copy-on-write versus unconditional ("eager") copy at `create_ref` time.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CopyMode {
    /// Delay copying until a write hits a shared page, and copy only that
    /// page (the DmRPC design).
    #[default]
    CopyOnWrite,
    /// Copy the whole region when the reference is created (the `-copy`
    /// baselines in Fig. 7).
    Eager,
}

/// Errors shared across DM backends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DmError {
    /// The DM pool has no free pages (or VA space) left.
    OutOfMemory,
    /// The address does not name an allocated region of the calling process.
    InvalidAddress,
    /// The reference key is unknown (already released, or bogus).
    InvalidRef,
    /// Access beyond the end of the allocated region.
    OutOfBounds,
    /// A wire message failed to parse.
    Malformed,
    /// The underlying RPC transport failed.
    Transport,
    /// The front-door window was full: the request was refused before any
    /// work was done on it (DESIGN.md §14). No DM server sends it.
    Busy,
}

impl fmt::Display for DmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DmError::OutOfMemory => "out of disaggregated memory",
            DmError::InvalidAddress => "invalid DM address",
            DmError::InvalidRef => "invalid DM reference",
            DmError::OutOfBounds => "DM access out of bounds",
            DmError::Malformed => "malformed DM message",
            DmError::Transport => "DM transport failure",
            DmError::Busy => "shed by overload control",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DmError {}

/// Result alias for DM operations.
pub type DmResult<T> = Result<T, DmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_addr_offset() {
        let a = RemoteAddr {
            server: DmServerId(0),
            pid: GlobalPid(1),
            va: 0x1000,
        };
        assert_eq!(a.offset(0x10).va, 0x1010);
        assert_eq!(a.offset(0x10).server, a.server);
    }

    #[test]
    fn net_ref_roundtrip_and_small() {
        let r = Ref::Net {
            server: DmServerId(1),
            key: 42,
            len: 1 << 20,
        };
        let enc = r.encode();
        assert_eq!(enc.len(), r.wire_bytes());
        assert_eq!(enc.len(), 18, "a Net ref is a few bytes, not the data");
        assert_eq!(Ref::decode(&enc).unwrap(), r);
    }

    #[test]
    fn cxl_ref_roundtrip() {
        let r = Ref::Cxl {
            len: 3 * 4096,
            pages: vec![7, 8, 1000],
        };
        let enc = r.encode();
        assert_eq!(enc.len(), r.wire_bytes());
        assert_eq!(Ref::decode(&enc).unwrap(), r);
        // Still far smaller than the data it stands for.
        assert!(enc.len() < 3 * 4096 / 100);
    }

    #[test]
    fn ref_len_and_empty() {
        let r = Ref::Net {
            server: DmServerId(0),
            key: 1,
            len: 0,
        };
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(Ref::decode(&[]).is_err());
        assert!(Ref::decode(&[9, 0, 0]).is_err());
        assert!(Ref::decode(&[1, 0]).is_err());
        // CXL ref claiming 5 pages but providing 1.
        let mut bad = vec![2u8];
        bad.extend_from_slice(&(4096u64 * 5).to_le_bytes());
        bad.extend_from_slice(&5u32.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        assert!(Ref::decode(&bad).is_err());
    }

    #[test]
    fn copy_mode_default_is_cow() {
        assert_eq!(CopyMode::default(), CopyMode::CopyOnWrite);
    }

    #[test]
    fn errors_display() {
        assert_eq!(
            DmError::OutOfMemory.to_string(),
            "out of disaggregated memory"
        );
        assert_eq!(DmError::InvalidRef.to_string(), "invalid DM reference");
    }
}
