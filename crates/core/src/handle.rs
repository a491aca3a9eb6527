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

/// An address in whichever backend is in use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DmAddr {
    /// Network backend address.
    Net(RemoteAddr),
    /// CXL virtual address of the calling process.
    Cxl(u64),
}

impl DmAddr {
    /// Offset the address by `delta` bytes.
    pub fn offset(&self, delta: u64) -> DmAddr {
        match self {
            DmAddr::Net(a) => DmAddr::Net(a.offset(delta)),
            DmAddr::Cxl(va) => DmAddr::Cxl(va + delta),
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
    pub async fn alloc(&self, len: u64) -> DmResult<DmAddr> {
        match self {
            DmHandle::Net(c) => Ok(DmAddr::Net(c.ralloc(len).await?)),
            DmHandle::Cxl(h) => Ok(DmAddr::Cxl(h.alloc(len)?)),
        }
    }

    /// Free a region.
    pub async fn free(&self, addr: DmAddr) -> DmResult<()> {
        match (self, addr) {
            (DmHandle::Net(c), DmAddr::Net(a)) => c.rfree(a).await,
            (DmHandle::Cxl(h), DmAddr::Cxl(va)) => h.free(va),
            _ => Err(DmError::InvalidAddress),
        }
    }

    /// Write `data` at `addr` (rwrite / store).
    pub async fn write(&self, addr: DmAddr, data: &Bytes) -> DmResult<()> {
        match (self, addr) {
            (DmHandle::Net(c), DmAddr::Net(a)) => c.rwrite(a, data).await,
            (DmHandle::Cxl(h), DmAddr::Cxl(va)) => h.store(va, data).await,
            _ => Err(DmError::InvalidAddress),
        }
    }

    /// Read `len` bytes at `addr` (rread / load).
    pub async fn read(&self, addr: DmAddr, len: u64) -> DmResult<Bytes> {
        match (self, addr) {
            (DmHandle::Net(c), DmAddr::Net(a)) => c.rread(a, len).await,
            (DmHandle::Cxl(h), DmAddr::Cxl(va)) => h.load(va, len).await,
            _ => Err(DmError::InvalidAddress),
        }
    }

    /// Create a shareable reference over `[addr, addr+len)`.
    pub async fn create_ref(&self, addr: DmAddr, len: u64) -> DmResult<Ref> {
        match (self, addr) {
            (DmHandle::Net(c), DmAddr::Net(a)) => c.create_ref(a, len).await,
            (DmHandle::Cxl(h), DmAddr::Cxl(va)) => h.create_ref(va, len).await,
            _ => Err(DmError::InvalidAddress),
        }
    }

    /// Map a reference into this process's DM address space.
    pub async fn map_ref(&self, r: &Ref) -> DmResult<DmAddr> {
        match self {
            DmHandle::Net(c) => Ok(DmAddr::Net(c.map_ref(r).await?)),
            DmHandle::Cxl(h) => Ok(DmAddr::Cxl(h.map_ref(r).await?)),
        }
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
    /// without the mapping that only the `rfree` uses. Empty `data` is
    /// `InvalidAddress`, as an empty `create_ref` is.
    pub async fn put(&self, data: &Bytes) -> DmResult<Ref> {
        match self {
            DmHandle::Net(c) => c.put_ref(data).await,
            DmHandle::Cxl(h) => h.put_ref(data).await,
        }
    }

    /// Materialize a reference's full contents in one step: `READ_REF` on
    /// DmRPC-net, [`CxlHost::read_ref`] on DmRPC-CXL. Neither maps or pins
    /// the ref; the caller holds it for the duration of the read.
    pub async fn get_all(&self, r: &Ref) -> DmResult<Bytes> {
        match self {
            DmHandle::Net(c) => c.read_ref(r, 0, r.len()).await,
            DmHandle::Cxl(h) => h.read_ref(r).await,
        }
    }
}
