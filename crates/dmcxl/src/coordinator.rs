//! The coordinator server (paper §V-B1).
//!
//! "There is a coordinator server in the fabric, which is in charge of
//! managing the ownership of all CXL physical pages among all compute
//! servers. It communicates with compute servers using a reliable network
//! protocol." Hosts reserve batches of free pages and return surplus pages
//! when their local FIFO exceeds a high watermark — batching is what makes
//! page-ownership coordination cheap.

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
    free: RefCell<VecDeque<Ppn>>,
    rpc: Rc<rpclib::Rpc>,
    returns: Counter,
}

impl Coordinator {
    /// Start the coordinator on `node`, owning all pages `0..capacity`.
    pub fn start(net: &Network, node: NodeId, capacity_pages: usize) -> Rc<Coordinator> {
        let rpc = rpclib::RpcBuilder::new(net, node, COORD_PORT).build();
        let coord = Rc::new(Coordinator {
            free: RefCell::new((0..capacity_pages as Ppn).collect()),
            rpc: rpc.clone(),
            returns: Counter::new(),
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
                let mut out = Vec::with_capacity(4 + 4 * take);
                out.extend_from_slice(&(take as u32).to_le_bytes());
                for _ in 0..take {
                    let p = free.pop_front().expect("len checked");
                    out.extend_from_slice(&p.to_le_bytes());
                }
                Bytes::from(out)
            }
        });
        let c = coord.clone();
        rpc.register(req::RETURN_PAGES, move |ctx| {
            let c = c.clone();
            async move {
                if let Some(pages) = decode_pages(&ctx.payload.into_bytes()) {
                    let mut free = c.free.borrow_mut();
                    for p in pages {
                        free.push_back(p);
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

    /// Chaos hook: crash the coordinator. Page-ownership state survives
    /// (fail-stop); hosts' grant/return RPCs time out until
    /// [`Coordinator::restart`].
    pub fn crash(&self) {
        self.rpc.set_offline(true);
    }

    /// Recover from [`Coordinator::crash`].
    pub fn restart(&self) {
        self.rpc.set_offline(false);
    }

    /// Whether the coordinator is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.rpc.is_offline()
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
}

/// Encode a `REQUEST_PAGES` body.
pub fn encode_request(n: u32) -> Bytes {
    Bytes::from(n.to_le_bytes().to_vec())
}

/// Decode a grant response; returns the pages granted.
pub fn decode_grant(body: &Bytes) -> Option<Vec<Ppn>> {
    decode_pages(body)
}

/// Encode a `RETURN_PAGES` body.
pub fn encode_return(pages: &[Ppn]) -> Bytes {
    let mut out = Vec::with_capacity(4 + 4 * pages.len());
    out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
    for p in pages {
        out.extend_from_slice(&p.to_le_bytes());
    }
    Bytes::from(out)
}

fn decode_pages(body: &Bytes) -> Option<Vec<Ppn>> {
    let n = u32::from_le_bytes(body.get(..4)?.try_into().ok()?) as usize;
    if body.len() < 4 + 4 * n {
        return None;
    }
    Some(
        (0..n)
            .map(|i| {
                u32::from_le_bytes(
                    body[4 + 4 * i..8 + 4 * i]
                        .try_into()
                        .expect("bounds checked"),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let pages = decode_grant(&resp.into_bytes()).unwrap();
            let after = coord.free_pages();
            rpc.call(coord.addr(), req::RETURN_PAGES, encode_return(&pages[..4]))
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
            assert_eq!(decode_grant(&resp.into_bytes()).unwrap().len(), 5);
            let resp = rpc
                .call(coord.addr(), req::REQUEST_PAGES, encode_request(1))
                .await
                .unwrap();
            assert_eq!(decode_grant(&resp.into_bytes()).unwrap().len(), 0);
        });
    }
}
