//! The coordinator server (paper §V-B1).
//!
//! "There is a coordinator server in the fabric, which is in charge of
//! managing the ownership of all CXL physical pages among all compute
//! servers. It communicates with compute servers using a reliable network
//! protocol." Hosts reserve batches of free pages and return surplus pages
//! when their local FIFO exceeds a high watermark — batching is what makes
//! page-ownership coordination cheap.
//!
//! A return is outside input: any endpoint on the fabric can send one. A
//! returned page the coordinator would grant twice — one past the device,
//! or one already on its free list — is dropped and counted, because the
//! host it went to next would panic initializing its refcount. A page
//! returned while another host still uses it cannot be told apart without
//! reading G-FAM (DESIGN.md §8).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use simcore::Counter;
use simnet::{Addr, Network, NodeId};

use crate::gfam::Ppn;

/// RPC request types used by the ownership protocol.
pub mod req {
    /// Request a batch of free pages: body = `n: u32`.
    pub const REQUEST_PAGES: u8 = 30;
    /// Return a batch of free pages: body = `count: u32, ppn...`.
    pub const RETURN_PAGES: u8 = 31;
}

/// Well-known coordinator port.
pub const COORD_PORT: u16 = 7100;

/// The coordinator service.
pub struct Coordinator {
    /// Pages the coordinator owns, in grant order.
    free: RefCell<VecDeque<Ppn>>,
    /// `is_free[p]`: whether page `p` is on `free`.
    is_free: RefCell<Vec<bool>>,
    rpc: Rc<rpclib::Rpc>,
    returns: Counter,
    rejected: Counter,
}

impl Coordinator {
    /// Start the coordinator on `node`, owning all pages `0..capacity`.
    pub fn start(net: &Network, node: NodeId, capacity_pages: usize) -> Rc<Coordinator> {
        let rpc = rpclib::RpcBuilder::new(net, node, COORD_PORT).build();
        let coord = Rc::new(Coordinator {
            free: RefCell::new((0..capacity_pages as Ppn).collect()),
            is_free: RefCell::new(vec![true; capacity_pages]),
            rpc: rpc.clone(),
            returns: Counter::new(),
            rejected: Counter::new(),
        });
        let c = coord.clone();
        rpc.register(req::REQUEST_PAGES, move |ctx| {
            let c = c.clone();
            async move {
                let n = ctx
                    .payload
                    .into_bytes()
                    .get(..4)
                    .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
                    .unwrap_or(0) as usize;
                let mut free = c.free.borrow_mut();
                let take = n.min(free.len());
                let grant: Vec<Ppn> = free.drain(..take).collect();
                for &p in &grant {
                    c.is_free.borrow_mut()[p as usize] = false;
                }
                encode_pages(&grant)
            }
        });
        let c = coord.clone();
        rpc.register(req::RETURN_PAGES, move |ctx| {
            let c = c.clone();
            async move {
                if let Some(pages) = decode_pages(&ctx.payload.into_bytes()) {
                    let mut free = c.free.borrow_mut();
                    let mut is_free = c.is_free.borrow_mut();
                    for p in pages {
                        match is_free.get_mut(p as usize) {
                            Some(owned) if !*owned => {
                                *owned = true;
                                free.push_back(p);
                            }
                            _ => c.rejected.add(1),
                        }
                    }
                }
                c.returns.add(1);
                Bytes::new()
            }
        });
        coord
    }

    /// Tear down: unregister handlers (breaks the `Rc` cycle).
    pub fn shutdown(&self) {
        self.rpc.shutdown();
    }

    /// The coordinator's RPC address.
    pub fn addr(&self) -> Addr {
        self.rpc.addr()
    }

    /// Free pages currently owned by the coordinator.
    pub fn free_pages(&self) -> usize {
        self.free.borrow().len()
    }

    /// Number of page-return RPCs served.
    pub fn return_rpcs(&self) -> u64 {
        self.returns.get()
    }

    /// Returned pages dropped: past the device, or already free here.
    pub fn rejected_returns(&self) -> u64 {
        self.rejected.get()
    }
}

/// Encode a `REQUEST_PAGES` body.
pub fn encode_request(n: u32) -> Bytes {
    Bytes::from(n.to_le_bytes().to_vec())
}

/// Encode a grant or a `RETURN_PAGES` body: `count: u32, ppn...`.
pub fn encode_pages(pages: &[Ppn]) -> Bytes {
    let mut out = Vec::with_capacity(4 + 4 * pages.len());
    out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
    for p in pages {
        out.extend_from_slice(&p.to_le_bytes());
    }
    Bytes::from(out)
}

/// Decode what [`encode_pages`] encodes; `None` if it runs short.
pub fn decode_pages(body: &Bytes) -> Option<Vec<Ppn>> {
    let n = u32::from_le_bytes(body.get(..4)?.try_into().ok()?) as usize;
    let ppns = body.get(4..4 + 4 * n)?.chunks_exact(4);
    Some(
        ppns.map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_fabric_invariants, CxlFabric, CxlHostConfig};
    use dmcommon::{DmError, PAGE_SIZE};
    use memsim::ModelParams;
    use simcore::Sim;
    use simnet::{FabricConfig, NicConfig};

    #[test]
    fn grant_and_return_roundtrip() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 3);
        let cnode = net.add_node("coord", NicConfig::default());
        let hnode = net.add_node("host", NicConfig::default());
        let (free_after_grant, granted, free_final) = sim.block_on(async move {
            let coord = Coordinator::start(&net, cnode, 100);
            let rpc = rpclib::RpcBuilder::new(&net, hnode, 50).build();
            let resp = rpc
                .call(coord.addr(), req::REQUEST_PAGES, encode_request(10))
                .await
                .unwrap();
            let pages = decode_pages(&resp.into_bytes()).unwrap();
            let after = coord.free_pages();
            rpc.call(coord.addr(), req::RETURN_PAGES, encode_pages(&pages[..4]))
                .await
                .unwrap();
            (after, pages, coord.free_pages())
        });
        assert_eq!(granted.len(), 10);
        assert_eq!(free_after_grant, 90);
        assert_eq!(free_final, 94);
        // Granted pages are unique.
        let mut sorted = granted.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    /// A raw endpoint returns a page past the device and returns a granted
    /// page twice. Neither may reach a host: the whole device is then
    /// faulted in by two hosts, each page granted exactly once.
    #[test]
    fn hostile_returns_are_dropped_not_granted() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 3);
        let cnode = net.add_node("coord", NicConfig::default());
        let raw_node = net.add_node("raw", NicConfig::default());
        let hnode = net.add_node("host", NicConfig::default());
        sim.block_on(async move {
            // One page per grant, no background refill: every fault asks
            // the coordinator for the next page on its free list.
            let cfg = CxlHostConfig {
                request_batch: 1,
                low_watermark: 0,
                ..Default::default()
            };
            let fabric = CxlFabric::new(&net, cnode, 8, ModelParams::new(), cfg);
            let coord = fabric.coordinator().clone();
            let raw = rpclib::RpcBuilder::new(&net, raw_node, 50).build();
            let ret =
                |pages: Vec<Ppn>| raw.call(coord.addr(), req::RETURN_PAGES, encode_pages(&pages));
            ret(vec![u32::MAX]).await.unwrap();
            let grant = raw.call(coord.addr(), req::REQUEST_PAGES, encode_request(1));
            let page = decode_pages(&grant.await.unwrap().into_bytes()).unwrap();
            ret(page.clone()).await.unwrap();
            ret(page).await.unwrap();
            assert_eq!((coord.free_pages(), coord.rejected_returns()), (8, 2));

            let hosts: Vec<_> = (100..102)
                .map(|port| fabric.new_host(rpclib::RpcBuilder::new(&net, hnode, port).build()))
                .collect();
            for h in &hosts {
                let va = h.alloc(4 * PAGE_SIZE as u64).unwrap();
                h.store(va, &[1u8; 4 * PAGE_SIZE]).await.unwrap();
            }
            let va = hosts[0].alloc(PAGE_SIZE as u64).unwrap();
            let ninth = hosts[0].store(va, &[1u8]).await;
            assert_eq!(ninth.unwrap_err(), DmError::OutOfMemory);
            check_fabric_invariants(fabric.gfam(), &coord, &hosts, &[]);
        });
    }

    #[test]
    fn exhaustion_grants_partial_then_zero() {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 3);
        let cnode = net.add_node("coord", NicConfig::default());
        let hnode = net.add_node("host", NicConfig::default());
        sim.block_on(async move {
            let coord = Coordinator::start(&net, cnode, 5);
            let rpc = rpclib::RpcBuilder::new(&net, hnode, 50).build();
            let resp = rpc
                .call(coord.addr(), req::REQUEST_PAGES, encode_request(8))
                .await
                .unwrap();
            assert_eq!(decode_pages(&resp.into_bytes()).unwrap().len(), 5);
            let resp = rpc
                .call(coord.addr(), req::REQUEST_PAGES, encode_request(1))
                .await
                .unwrap();
            assert_eq!(decode_pages(&resp.into_bytes()).unwrap().len(), 0);
        });
    }
}
