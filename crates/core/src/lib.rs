//! # dmrpc — Disaggregated-Memory-aware Datacenter RPC
//!
//! Reproduction of **"DmRPC: Disaggregated Memory-aware Datacenter RPC for
//! Data-intensive Applications"** (ICDE 2024). DmRPC layers *pass-by-
//! reference* semantics over a datacenter RPC:
//!
//! * large arguments live in **disaggregated memory** and travel through
//!   RPC chains as tiny [`Ref`] tokens ([`Value::ByRef`]), eliminating the
//!   redundant per-hop data movement of pass-by-value RPC;
//! * a page-granularity **copy-on-write** layer in the DM backend keeps
//!   microservices decoupled: logically, every service owns a private copy,
//!   but bytes are only copied when (and where) someone writes;
//! * **size-aware transfer** keeps small arguments inline, so DM management
//!   overhead is never paid where it cannot win.
//!
//! Two DM backends are supported behind [`DmHandle`]: network-attached
//! ([`dmnet`]) and CXL G-FAM ([`dmcxl`]). Without one
//! ([`DmRpc::baseline`]) the same API degrades to the eRPC baseline, which
//! is how the paper's comparisons are run.
//!
//! ## Quick start
//!
//! ```no_run
//! use std::rc::Rc;
//! use bytes::Bytes;
//! use dmrpc::{DmRpc, Value};
//!
//! async fn example(client: Rc<DmRpc>, worker: simnet::Addr) {
//!     // 1 MiB argument: stored in DM once, forwarded as a ~18-byte Ref.
//!     let arg = client.make_value(Bytes::from(vec![7u8; 1 << 20])).await.unwrap();
//!     let reply = client.call(worker, 1, &arg).await.unwrap();
//!     let result = client.fetch(&reply).await.unwrap();
//!     client.release(&arg).await.unwrap();
//!     assert!(!result.is_empty());
//! }
//! ```

#![warn(missing_docs)]

mod handle;
mod value;

pub use dmcommon::{CopyMode, DmError, DmResult, Ref, PAGE_SIZE};
pub use handle::{DmHandle, Region};
pub use value::Value;

use std::rc::Rc;

use bytes::Bytes;
use rpclib::Rpc;
use simnet::Addr;

/// Default pass-by-reference threshold: one page. Arguments of at least
/// this size go to DM; smaller ones ride inline (paper §IV-B).
pub const DEFAULT_THRESHOLD: u64 = PAGE_SIZE as u64;

/// The DmRPC endpoint for one microservice process: an RPC endpoint plus a
/// transfer policy.
pub struct DmRpc {
    rpc: Rc<Rpc>,
    /// Where large arguments go by reference; `None` is the eRPC
    /// pass-by-value baseline.
    dm: Option<DmHandle>,
    threshold: u64,
}

impl DmRpc {
    /// Wrap `rpc` with pass-by-value semantics (the baseline).
    pub fn baseline(rpc: Rc<Rpc>) -> Rc<DmRpc> {
        Rc::new(DmRpc {
            rpc,
            dm: None,
            threshold: u64::MAX,
        })
    }

    /// Wrap `rpc` with DM-backed pass-by-reference for arguments of at
    /// least [`DEFAULT_THRESHOLD`] bytes.
    pub fn new(rpc: Rc<Rpc>, dm: DmHandle) -> Rc<DmRpc> {
        Self::with_threshold(rpc, dm, DEFAULT_THRESHOLD)
    }

    /// Like [`DmRpc::new`] with an explicit size threshold (the size-aware
    /// transfer ablation).
    pub fn with_threshold(rpc: Rc<Rpc>, dm: DmHandle, threshold: u64) -> Rc<DmRpc> {
        Rc::new(DmRpc {
            rpc,
            dm: Some(dm),
            threshold,
        })
    }

    /// The underlying RPC endpoint (handler registration, address).
    pub fn rpc(&self) -> &Rc<Rpc> {
        &self.rpc
    }

    /// This endpoint's address.
    pub fn addr(&self) -> Addr {
        self.rpc.addr()
    }

    /// The DM handle, if pass-by-reference is enabled.
    pub fn dm(&self) -> Option<&DmHandle> {
        self.dm.as_ref()
    }

    /// Turn raw bytes into an RPC argument, automatically choosing inline
    /// vs DM-reference by size (paper §IV-B, Listing 1 lines 2–6).
    ///
    /// The by-reference path publishes through [`DmHandle::put`]: the bytes
    /// land in pages the `Ref` owns, and the creator keeps no mapping,
    /// matching Listing 1's `rfree` after the call.
    pub async fn make_value(&self, data: Bytes) -> DmResult<Value> {
        match &self.dm {
            Some(dm) if data.len() as u64 >= self.threshold => {
                Ok(Value::ByRef(dm.put(&data).await?))
            }
            _ => Ok(Value::Inline(data)),
        }
    }

    /// Materialize an argument's bytes locally: Listing 1's `map_ref` +
    /// `rread` as one read ([`DmHandle::get_all`]) that maps nothing. The
    /// caller holds a `ByRef` value for the duration of the read.
    pub async fn fetch(&self, v: &Value) -> DmResult<Bytes> {
        match v {
            Value::Inline(b) => Ok(b.clone()),
            Value::ByRef(r) => {
                let dm = self.dm().ok_or(DmError::InvalidRef)?;
                dm.get_all(r).await
            }
        }
    }

    /// Map a by-reference argument for fine-grained access: reads and
    /// writes against the process's own (COW-isolated) view. Returns `None`
    /// for inline values (the bytes are already local).
    pub async fn map_value(&self, v: &Value) -> DmResult<Option<Region>> {
        match v {
            Value::Inline(_) => Ok(None),
            Value::ByRef(r) => {
                let dm = self.dm().ok_or(DmError::InvalidRef)?;
                Ok(Some(dm.map_ref(r).await?))
            }
        }
    }

    /// Overwrite the leading `frac` (0.0–1.0) of a shared argument —
    /// exercising COW from the receiver side (the Fig. 8 write-percentage
    /// micro-benchmark). Returns bytes written.
    pub async fn overwrite_fraction(&self, v: &Value, frac: f64) -> DmResult<u64> {
        let n = ((v.len() as f64) * frac.clamp(0.0, 1.0)).round() as u64;
        if n == 0 {
            return Ok(0);
        }
        match self.map_value(v).await? {
            None => Ok(n), // inline: the caller's local buffer, no DM work
            Some(m) => {
                m.write(0, &Bytes::from(vec![0xD7u8; n as usize])).await?;
                m.free().await?;
                Ok(n)
            }
        }
    }

    /// Release a by-reference argument's pin on its DM pages. No-op for
    /// inline values.
    pub async fn release(&self, v: &Value) -> DmResult<()> {
        match v {
            Value::Inline(_) => Ok(()),
            Value::ByRef(r) => {
                let dm = self.dm().ok_or(DmError::InvalidRef)?;
                dm.release_ref(r).await
            }
        }
    }

    /// Release a by-reference argument without waiting for the round trip
    /// (fire-and-forget; the common pattern at the end of a request).
    pub fn release_async(self: &Rc<Self>, v: Value) {
        if let Value::ByRef(_) = &v {
            let me = self.clone();
            // Carry the caller's trace context into the detached task so
            // the release (direct or via the coalescer) stays attributed
            // to the request that dropped the ref.
            let ctx = telemetry::current_ctx();
            simcore::spawn_detached(async move {
                let _ctx = ctx.and_then(telemetry::set_ctx);
                let _ = me.release(&v).await;
            });
        }
    }

    /// Call a remote handler with an argument, returning its result value.
    pub async fn call(&self, dst: Addr, req_type: u8, v: &Value) -> DmResult<Value> {
        let resp = self
            .rpc
            .call(dst, req_type, v.encode())
            .await
            .map_err(|_| DmError::Transport)?;
        Value::decode(&resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcxl::{CxlFabric, CxlHostConfig};
    use dmnet::{start_pool, DmNetClient, DmServerConfig};
    use memsim::ModelParams;
    use rpclib::RpcBuilder;
    use simcore::Sim;
    use simnet::{FabricConfig, Network, NicConfig, NodeId};

    struct Rig {
        sim: Sim,
        net: Network,
        params: ModelParams,
        nodes: Vec<NodeId>,
    }

    fn rig(n: usize) -> Rig {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 21);
        let nodes = (0..n)
            .map(|i| net.add_node(format!("n{i}"), NicConfig::default()))
            .collect();
        Rig {
            sim,
            net,
            params: ModelParams::new(),
            nodes,
        }
    }

    async fn net_endpoint(net: &Network, node: NodeId, port: u16, pool: Vec<Addr>) -> Rc<DmRpc> {
        let rpc = RpcBuilder::new(net, node, port).build();
        let dm = DmNetClient::connect(rpc.clone(), pool).await.unwrap();
        DmRpc::new(rpc, DmHandle::Net(Rc::new(dm)))
    }

    #[test]
    fn size_aware_transfer_chooses_mode() {
        let r = rig(2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (n0, n1) = (r.nodes[0], r.nodes[1]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[n1], &params, DmServerConfig::default());
            let ep = net_endpoint(&net, n0, 100, vec![servers[0].addr()]).await;
            let small = ep.make_value(Bytes::from(vec![1u8; 100])).await.unwrap();
            assert!(!small.is_by_ref(), "sub-page payload stays inline");
            let large = ep.make_value(Bytes::from(vec![1u8; 8192])).await.unwrap();
            assert!(large.is_by_ref(), "multi-page payload goes by reference");
            assert!(large.wire_bytes() < 32);
            assert_eq!(
                ep.fetch(&large).await.unwrap(),
                Bytes::from(vec![1u8; 8192])
            );
            ep.release(&large).await.unwrap();
        });
    }

    #[test]
    fn baseline_never_uses_dm() {
        let r = rig(1);
        let net = r.net.clone();
        let n0 = r.nodes[0];
        r.sim.block_on(async move {
            let ep = DmRpc::baseline(RpcBuilder::new(&net, n0, 100).build());
            let v = ep
                .make_value(Bytes::from(vec![9u8; 1 << 20]))
                .await
                .unwrap();
            assert!(!v.is_by_ref());
            assert_eq!(ep.fetch(&v).await.unwrap().len(), 1 << 20);
            assert!(ep.dm().is_none());
        });
    }

    #[test]
    fn rpc_chain_forwards_ref_and_last_hop_reads_net() {
        let r = rig(4); // client, forwarder, worker, dm
        let (net, params) = (r.net.clone(), r.params.clone());
        let (c, f, w, d) = (r.nodes[0], r.nodes[1], r.nodes[2], r.nodes[3]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[d], &params, DmServerConfig::default());
            let pool = vec![servers[0].addr()];

            // Worker: materializes the argument and sums it.
            let worker = net_endpoint(&net, w, 100, pool.clone()).await;
            let worker_addr = worker.addr();
            {
                let wk = worker.clone();
                worker.rpc().register(1, move |ctx| {
                    let wk = wk.clone();
                    async move {
                        let v = Value::decode(&ctx.payload).unwrap();
                        let data = wk.fetch(&v).await.unwrap();
                        let sum: u64 = data.iter().map(|&b| b as u64).sum();
                        let out = wk
                            .make_value(Bytes::from(sum.to_le_bytes().to_vec()))
                            .await
                            .unwrap();
                        out.encode()
                    }
                });
            }

            // Forwarder: passes the value through without touching it.
            let fwd = net_endpoint(&net, f, 100, pool.clone()).await;
            let fwd_addr = fwd.addr();
            {
                let fw = fwd.clone();
                fwd.rpc().register(1, move |ctx| {
                    let fw = fw.clone();
                    async move {
                        // Forward the encoded value verbatim — pass by ref.
                        let resp = fw.rpc().call(worker_addr, 1, ctx.payload).await.unwrap();
                        resp
                    }
                });
            }

            let client = net_endpoint(&net, c, 100, pool).await;
            let payload = Bytes::from(vec![2u8; 64 * 1024]);
            let v = client.make_value(payload).await.unwrap();
            assert!(v.is_by_ref());
            let reply = client.call(fwd_addr, 1, &v).await.unwrap();
            let sum_bytes = client.fetch(&reply).await.unwrap();
            let sum = u64::from_le_bytes(sum_bytes[..8].try_into().unwrap());
            assert_eq!(sum, 2 * 64 * 1024);
            client.release(&v).await.unwrap();

            // The forwarder never moved the 64 KiB: its NIC saw only
            // control traffic.
            let fwd_bytes = net.node_rx_bytes(f) + net.node_tx_bytes(f);
            assert!(
                fwd_bytes < 2000,
                "forwarder moved {fwd_bytes} bytes; pass-by-ref should be tiny"
            );
        });
    }

    #[test]
    fn cxl_backend_value_roundtrip_and_cow() {
        let r = rig(3); // coord, producer, consumer
        let (net, params) = (r.net.clone(), r.params.clone());
        let (cd, p, c) = (r.nodes[0], r.nodes[1], r.nodes[2]);
        r.sim.block_on(async move {
            let fabric = CxlFabric::new(&net, cd, 4096, params, CxlHostConfig::default());
            let prod_rpc = RpcBuilder::new(&net, p, 100).build();
            let prod = DmRpc::new(prod_rpc.clone(), DmHandle::Cxl(fabric.new_host(prod_rpc)));
            let cons_rpc = RpcBuilder::new(&net, c, 100).build();
            let cons = DmRpc::new(cons_rpc.clone(), DmHandle::Cxl(fabric.new_host(cons_rpc)));

            let data = Bytes::from(
                (0..32 * 1024u32)
                    .map(|i| (i % 241) as u8)
                    .collect::<Vec<_>>(),
            );
            let v = prod.make_value(data.clone()).await.unwrap();
            assert!(v.is_by_ref());

            // Consumer reads through its own mapping.
            assert_eq!(cons.fetch(&v).await.unwrap(), data);

            // Consumer writes 50%: COW; producer's view (via a fresh map of
            // the same ref) still sees the original.
            cons.overwrite_fraction(&v, 0.5).await.unwrap();
            assert_eq!(prod.fetch(&v).await.unwrap(), data);

            prod.release(&v).await.unwrap();
        });
    }

    #[test]
    fn mapped_value_fine_grained_access() {
        let r = rig(2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (n0, n1) = (r.nodes[0], r.nodes[1]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[n1], &params, DmServerConfig::default());
            let ep = net_endpoint(&net, n0, 100, vec![servers[0].addr()]).await;
            let v = ep.make_value(Bytes::from(vec![7u8; 16384])).await.unwrap();
            let m = ep.map_value(&v).await.unwrap().unwrap();
            assert_eq!(m.len(), 16384);
            assert_eq!(&m.read(4096, 4).await.unwrap()[..], &[7, 7, 7, 7]);
            m.write(4096, &Bytes::from_static(&[1, 2])).await.unwrap();
            assert_eq!(&m.read(4095, 4).await.unwrap()[..], &[7, 1, 2, 7]);
            assert!(m.read(16383, 2).await.is_err());
            m.free().await.unwrap();
            // The ref itself is unchanged.
            assert_eq!(ep.fetch(&v).await.unwrap(), Bytes::from(vec![7u8; 16384]));
            ep.release(&v).await.unwrap();
        });
    }

    #[test]
    fn inline_map_value_returns_none() {
        let r = rig(1);
        let net = r.net.clone();
        let n0 = r.nodes[0];
        r.sim.block_on(async move {
            let ep = DmRpc::baseline(RpcBuilder::new(&net, n0, 100).build());
            let v = ep.make_value(Bytes::from_static(b"tiny")).await.unwrap();
            assert!(ep.map_value(&v).await.unwrap().is_none());
            assert_eq!(ep.overwrite_fraction(&v, 1.0).await.unwrap(), 4);
            ep.release(&v).await.unwrap();
        });
    }

    #[test]
    fn threshold_is_configurable() {
        let r = rig(2);
        let (net, params) = (r.net.clone(), r.params.clone());
        let (n0, n1) = (r.nodes[0], r.nodes[1]);
        r.sim.block_on(async move {
            let servers = start_pool(&net, &[n1], &params, DmServerConfig::default());
            let rpc = RpcBuilder::new(&net, n0, 100).build();
            let dm = DmNetClient::connect(rpc.clone(), vec![servers[0].addr()])
                .await
                .unwrap();
            let ep = DmRpc::with_threshold(rpc, DmHandle::Net(Rc::new(dm)), 256);
            let v = ep.make_value(Bytes::from(vec![1u8; 300])).await.unwrap();
            assert!(v.is_by_ref(), "custom threshold moves small objects to DM");
            ep.release(&v).await.unwrap();
        });
    }
}
