//! [`DmHandle`]: one interface over both DM backends.
//!
//! The paper's two DM implementations differ only in how data is moved —
//! explicit `rread`/`rwrite` messages for DmRPC-net versus `load`/`store`
//! instructions for DmRPC-CXL (Table II). `DmHandle` erases that difference
//! for the DmRPC layer and the applications.

use std::rc::Rc;

use bytes::Bytes;
use dmcommon::{DmError, DmResult, Ref, RemoteAddr};
use dmcxl::CxlHost;
use dmnet::DmNetClient;

/// A region of DM mapped into this process — what Listing 1's `ralloc`
/// and `map_ref` return — typed by its backend: each variant holds its
/// backend's handle beside the address, so no op can pair one backend's
/// handle with the other's address. Reads and writes are bounds-checked
/// against the region's length; a write to a mapped ref's page copies it
/// first (COW), so the ref itself never changes.
#[derive(Clone)]
pub enum Region {
    /// A DmRPC-net region: `rread` / `rwrite` messages to its server.
    Net {
        /// The client that mapped it.
        dm: Rc<DmNetClient>,
        /// Its start.
        addr: RemoteAddr,
        /// Its length in bytes.
        len: u64,
    },
    /// A DmRPC-CXL region: loads and stores at a VA of this process.
    Cxl {
        /// The host that mapped it.
        dm: Rc<CxlHost>,
        /// Its start.
        va: u64,
        /// Its length in bytes.
        len: u64,
    },
}

/// The backend, address and length; the handle is left out.
impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Region::Net { addr, len, .. } => f
                .debug_struct("Net")
                .field("addr", addr)
                .field("len", len)
                .finish(),
            Region::Cxl { va, len, .. } => f
                .debug_struct("Cxl")
                .field("va", &format_args!("{va:#x}"))
                .field("len", len)
                .finish(),
        }
    }
}

impl Region {
    /// Region length.
    pub fn len(&self) -> u64 {
        match self {
            Region::Net { len, .. } | Region::Cxl { len, .. } => *len,
        }
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn check(&self, off: u64, len: u64) -> DmResult<()> {
        match off.checked_add(len) {
            Some(end) if end <= self.len() => Ok(()),
            _ => Err(DmError::OutOfBounds),
        }
    }

    /// Read `len` bytes at `off` (rread / load).
    pub async fn read(&self, off: u64, len: u64) -> DmResult<Bytes> {
        self.check(off, len)?;
        match self {
            Region::Net { dm, addr, .. } => dm.rread(addr.offset(off), len).await,
            Region::Cxl { dm, va, .. } => dm.load(va + off, len).await,
        }
    }

    /// Write `data` at `off` (rwrite / store).
    pub async fn write(&self, off: u64, data: &Bytes) -> DmResult<()> {
        self.check(off, data.len() as u64)?;
        match self {
            Region::Net { dm, addr, .. } => dm.rwrite(addr.offset(off), data).await,
            Region::Cxl { dm, va, .. } => dm.store(va + off, data).await,
        }
    }

    /// Create a shareable reference over the whole region.
    pub async fn create_ref(&self) -> DmResult<Ref> {
        match self {
            Region::Net { dm, addr, len } => dm.create_ref(*addr, *len).await,
            Region::Cxl { dm, va, len } => dm.create_ref(*va, *len).await,
        }
    }

    /// Unmap the region (rfree / free).
    pub async fn free(self) -> DmResult<()> {
        match self {
            Region::Net { dm, addr, .. } => dm.rfree(addr).await,
            Region::Cxl { dm, va, .. } => dm.free(va),
        }
    }
}

/// Backend-erased handle to disaggregated memory for one process.
#[derive(Clone)]
pub enum DmHandle {
    /// Network-attached DM (DmRPC-net).
    Net(Rc<DmNetClient>),
    /// CXL G-FAM DM (DmRPC-CXL).
    Cxl(Rc<CxlHost>),
}

impl DmHandle {
    /// The network backend's client, if this is a DmRPC-net handle.
    /// Benches read its wire counters and cache statistics; tests use it
    /// to flush the client cache before asserting server-side state.
    pub fn net_client(&self) -> Option<&Rc<DmNetClient>> {
        match self {
            DmHandle::Net(c) => Some(c),
            DmHandle::Cxl(_) => None,
        }
    }

    /// Allocate `len` bytes of DM.
    pub async fn alloc(&self, len: u64) -> DmResult<Region> {
        Ok(match self {
            DmHandle::Net(dm) => Region::Net {
                addr: dm.ralloc(len).await?,
                dm: dm.clone(),
                len,
            },
            DmHandle::Cxl(dm) => Region::Cxl {
                va: dm.alloc(len)?,
                dm: dm.clone(),
                len,
            },
        })
    }

    /// Map a reference into this process's DM address space.
    pub async fn map_ref(&self, r: &Ref) -> DmResult<Region> {
        let len = r.len();
        Ok(match self {
            DmHandle::Net(dm) => Region::Net {
                addr: dm.map_ref(r).await?,
                dm: dm.clone(),
                len,
            },
            DmHandle::Cxl(dm) => Region::Cxl {
                va: dm.map_ref(r).await?,
                dm: dm.clone(),
                len,
            },
        })
    }

    /// Release a reference's pin.
    pub async fn release_ref(&self, r: &Ref) -> DmResult<()> {
        match self {
            DmHandle::Net(c) => c.release_ref(r).await,
            DmHandle::Cxl(h) => h.release_ref(r).await,
        }
    }

    /// Store `data` into DM and return a shareable [`Ref`] in one step
    /// (`PUT_REF` on DmRPC-net, [`CxlHost::put_ref`] on DmRPC-CXL). The
    /// bytes go straight into pages the `Ref` owns and the creator never
    /// maps them: Listing 1's `alloc` + write + `create_ref` + `rfree`
    /// without the mapping that only the `rfree` uses. Neither copies
    /// `data` on the host. Empty `data` is `InvalidAddress`.
    pub async fn put(&self, data: &Bytes) -> DmResult<Ref> {
        match self {
            DmHandle::Net(c) => c.put_ref(data).await,
            DmHandle::Cxl(h) => h.put_ref(data.clone()).await,
        }
    }

    /// Materialize a reference's full contents in one step: `READ_REF` on
    /// DmRPC-net, [`CxlHost::read_ref`] on DmRPC-CXL, twins that read a
    /// whole ref. Neither maps or pins the ref; the caller holds it for the
    /// duration of the read.
    pub async fn get_all(&self, r: &Ref) -> DmResult<Bytes> {
        match self {
            DmHandle::Net(c) => c.read_ref(r).await,
            DmHandle::Cxl(h) => h.read_ref(r).await,
        }
    }
}
