//! The caller/callee sharing micro-benchmark (paper §VI-D, Fig. 8; also
//! reused for the Fig. 12a latency sweep).
//!
//! "The caller microservice creates a reference of a large raw data block
//! (32 KB), and then sends the reference to a remote microservice using an
//! RPC call. [...] The remote microservice writes the shared data that the
//! reference points to" — with the write *percentage* swept from 0 to 100.
//!
//! Two families are deployed behind one interface: DmRPC (either backend,
//! COW) and the Ray/Spark distributed object store (put → id → get, two
//! unconditional copies).

use std::rc::Rc;

use bytes::Bytes;
use datastore::{ray_config, spark_config, ObjectId, ObjectStore, StoreConfig};
use dmcommon::{DmError, DmResult};
use dmrpc::DmRpc;
use memsim::NodeMemory;
use rpclib::RpcBuilder;
use simnet::Addr;

use crate::cluster::Cluster;
use crate::codec::{op_value, parse_op_value};

/// Request type for the share op.
pub const SHARE_REQ: u8 = 4;

/// One deployed sharing benchmark (DmRPC flavor).
pub struct ShareBench {
    caller: Rc<DmRpc>,
    callee: Addr,
}

/// Deploy caller + callee on fresh nodes of `cluster`. The callee writes
/// `write_pct`% of the shared block on every request (passed per-request in
/// the header byte).
pub async fn build_sharebench(cluster: &Cluster) -> ShareBench {
    let callee_node = cluster.add_server("callee");
    let callee = cluster.endpoint(&callee_node, 100).await;
    {
        let ep = callee.clone();
        callee.rpc().register(SHARE_REQ, move |ctx| {
            let ep = ep.clone();
            async move {
                let Ok((pct, v)) = parse_op_value(&ctx.payload) else {
                    return Bytes::new();
                };
                let frac = pct as f64 / 100.0;
                let _ = ep.overwrite_fraction(&v, frac).await;
                Bytes::from_static(b"ok")
            }
        });
    }
    let caller_node = cluster.add_server("caller");
    let caller = cluster.endpoint(&caller_node, 100).await;
    ShareBench {
        caller,
        callee: callee.addr(),
    }
}

impl ShareBench {
    /// One request: share a fresh `block`-sized value, callee writes
    /// `write_pct`% of it.
    pub async fn request(&self, block: &Bytes, write_pct: u8) -> DmResult<()> {
        let v = self.caller.make_value(block.clone()).await?;
        self.caller
            .rpc()
            .call(self.callee, SHARE_REQ, op_value(write_pct, &v))
            .await
            .map_err(|_| DmError::Transport)?;
        self.caller.release_async(v);
        Ok(())
    }
}

/// The Ray/Spark flavor of the same benchmark.
pub struct StoreShareBench {
    caller_store: Rc<ObjectStore>,
    callee_store: Rc<ObjectStore>,
    caller_rpc: Rc<rpclib::Rpc>,
    callee_addr: Addr,
    callee_mem: NodeMemory,
}

/// Which store system to deploy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreKind {
    /// Ray / Plasma.
    Ray,
    /// Spark / BlockTransferService.
    Spark,
}

impl StoreKind {
    /// Paper-legend label.
    pub fn label(&self) -> &'static str {
        match self {
            StoreKind::Ray => "Ray",
            StoreKind::Spark => "Spark",
        }
    }

    fn config(&self) -> StoreConfig {
        match self {
            StoreKind::Ray => ray_config(),
            StoreKind::Spark => spark_config(),
        }
    }
}

/// Deploy the store-based benchmark on two fresh nodes of `cluster` (the
/// cluster's transfer kind is ignored; stores replace DM entirely).
pub async fn build_store_sharebench(cluster: &Cluster, kind: StoreKind) -> StoreShareBench {
    let cfg = kind.config();
    let caller_node = cluster.add_server("store-caller");
    let callee_node = cluster.add_server("store-callee");
    let caller_store =
        ObjectStore::start(&cluster.net, caller_node.id, caller_node.mem.clone(), cfg);
    let callee_store =
        ObjectStore::start(&cluster.net, callee_node.id, callee_node.mem.clone(), cfg);

    // Callee app process: receives an ObjectId, gets the object (two
    // copies), then writes pct% of its private heap copy.
    let callee_rpc = RpcBuilder::new(&cluster.net, callee_node.id, 101)
        .cpu(callee_node.cpu.clone())
        .mem(callee_node.mem.clone())
        .build();
    {
        let store = callee_store.clone();
        let mem = callee_node.mem.clone();
        callee_rpc.register(SHARE_REQ, move |ctx| {
            let store = store.clone();
            let mem = mem.clone();
            async move {
                let payload = ctx.payload.into_bytes();
                let pct = payload.first().copied().unwrap_or(0);
                let Ok(id) = ObjectId::decode(payload.get(1..).unwrap_or(&[])) else {
                    return Bytes::new();
                };
                let Ok(data) = store.get(id).await else {
                    return Bytes::new();
                };
                // Write pct% of the private heap copy (plain local memory).
                let n = data.len() * pct as usize / 100;
                if n > 0 {
                    mem.touch(n as u64).await;
                }
                Bytes::from_static(b"ok")
            }
        });
    }
    let caller_rpc = RpcBuilder::new(&cluster.net, caller_node.id, 101)
        .cpu(caller_node.cpu.clone())
        .mem(caller_node.mem.clone())
        .build();
    StoreShareBench {
        caller_store,
        callee_store,
        caller_rpc,
        callee_addr: Addr {
            node: callee_node.id,
            port: 101,
        },
        callee_mem: callee_node.mem.clone(),
    }
}

impl StoreShareBench {
    /// One request through the object store.
    pub async fn request(&self, block: &Bytes, write_pct: u8) -> DmResult<()> {
        let id = self.caller_store.put(block.clone()).await?;
        let mut msg = Vec::with_capacity(23);
        msg.push(write_pct);
        msg.extend_from_slice(&id.encode());
        self.caller_rpc
            .call(self.callee_addr, SHARE_REQ, Bytes::from(msg))
            .await
            .map_err(|_| DmError::Transport)?;
        self.caller_store.delete(id);
        Ok(())
    }

    /// Callee-side store (tests).
    pub fn callee_store(&self) -> &Rc<ObjectStore> {
        &self.callee_store
    }

    /// Callee memory model (tests).
    pub fn callee_mem(&self) -> &NodeMemory {
        &self.callee_mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, SystemKind};
    use crate::workload::measure_once;
    use simcore::Sim;

    #[test]
    fn dmrpc_share_roundtrip_all_backends() {
        for kind in [SystemKind::DmNet, SystemKind::DmCxl] {
            let sim = Sim::new();
            sim.block_on(async move {
                let cluster = Cluster::new(kind, 1, ClusterConfig::default(), 3);
                let app = build_sharebench(&cluster).await;
                let block = Bytes::from(vec![9u8; 32 * 1024]);
                app.request(&block, 0).await.unwrap();
                app.request(&block, 50).await.unwrap();
                app.request(&block, 100).await.unwrap();
            });
        }
    }

    /// A `SHARE_REQ` with nothing in it (or nothing behind the percentage)
    /// is answered empty; the callee used to slice past the end of it.
    #[test]
    fn empty_share_request_is_refused_not_sliced() {
        Sim::new().block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 1, ClusterConfig::default(), 3);
            let app = build_sharebench(&cluster).await;
            for body in [&b""[..], b"\x32"] {
                let body = Bytes::from_static(body);
                let reply = app.caller.rpc().call(app.callee, SHARE_REQ, body).await;
                assert!(reply.expect("answered").is_empty());
            }
            app.request(&Bytes::from(vec![9u8; 32 * 1024]), 50)
                .await
                .expect("still serving");
        });
    }

    #[test]
    fn cow_makes_write_fraction_matter_for_dmrpc() {
        let sim = Sim::new();
        let (t0, t100) = sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 1, ClusterConfig::default(), 3);
            let app = build_sharebench(&cluster).await;
            let block = Bytes::from(vec![9u8; 32 * 1024]);
            // Warm up.
            app.request(&block, 0).await.unwrap();
            let (_, t0) = measure_once(|| app.request(&block, 0)).await;
            let (_, t100) = measure_once(|| app.request(&block, 100)).await;
            (t0, t100)
        });
        assert!(
            t100 > t0,
            "100% writes must cost more than 0% (COW copies): {t0:?} vs {t100:?}"
        );
    }

    #[test]
    fn store_share_roundtrip_and_flat_in_write_pct() {
        let sim = Sim::new();
        let (t0, t100) = sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::Erpc, 0, ClusterConfig::default(), 3);
            let app = build_store_sharebench(&cluster, StoreKind::Ray).await;
            let block = Bytes::from(vec![1u8; 32 * 1024]);
            app.request(&block, 0).await.unwrap();
            let (_, t0) = measure_once(|| app.request(&block, 0)).await;
            let (_, t100) = measure_once(|| app.request(&block, 100)).await;
            (t0, t100)
        });
        // The unconditional two-copy path dominates; the write fraction
        // barely moves the needle (paper: "Ray's and Spark's throughput and
        // latency merely change").
        let ratio = t100.as_nanos() as f64 / t0.as_nanos() as f64;
        assert!(ratio < 1.15, "store latency should be flat, ratio {ratio}");
    }

    #[test]
    fn dmrpc_is_much_faster_than_ray() {
        let sim = Sim::new();
        let (dm, ray) = sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 1, ClusterConfig::default(), 3);
            let dm_app = build_sharebench(&cluster).await;
            let ray_app = build_store_sharebench(&cluster, StoreKind::Ray).await;
            let block = Bytes::from(vec![1u8; 32 * 1024]);
            dm_app.request(&block, 10).await.unwrap();
            ray_app.request(&block, 10).await.unwrap();
            let (_, dm) = measure_once(|| dm_app.request(&block, 10)).await;
            let (_, ray) = measure_once(|| ray_app.request(&block, 10)).await;
            (dm, ray)
        });
        assert!(
            ray.as_nanos() > 5 * dm.as_nanos(),
            "Ray {ray:?} should be far slower than DmRPC-net {dm:?}"
        );
    }

    #[test]
    fn spark_slower_than_ray_in_benchmark() {
        let sim = Sim::new();
        let (ray, spark) = sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::Erpc, 0, ClusterConfig::default(), 3);
            let ray_app = build_store_sharebench(&cluster, StoreKind::Ray).await;
            let spark_app = build_store_sharebench(&cluster, StoreKind::Spark).await;
            let block = Bytes::from(vec![1u8; 32 * 1024]);
            ray_app.request(&block, 10).await.unwrap();
            spark_app.request(&block, 10).await.unwrap();
            let (_, ray) = measure_once(|| ray_app.request(&block, 10)).await;
            let (_, spark) = measure_once(|| spark_app.request(&block, 10)).await;
            (ray, spark)
        });
        assert!(spark > ray, "spark {spark:?} vs ray {ray:?}");
    }
}
