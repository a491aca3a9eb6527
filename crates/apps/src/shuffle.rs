//! All-to-all shuffle — the data-processing workload (Spark-style) that
//! motivates pass-by-reference in the paper's introduction (§I, §III:
//! frameworks like Spark integrate an in-memory store precisely because
//! RPC's pass-by-value cannot carry shuffle partitions efficiently).
//!
//! `M` mappers each produce `R` partitions; every reducer fetches its
//! partition from every mapper (M×R transfers). Under DmRPC a mapper
//! *publishes* each partition once and hands out refs; reducers pull the
//! bytes from DM exactly once each, and the mapper's NIC never re-sends.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::{BufMut, Bytes, BytesMut};
use dmcommon::{DmError, DmResult};
use dmrpc::{DmRpc, Value};
use simcore::SimRng;
use simnet::Addr;

use crate::cluster::{Cluster, ServiceNode};

/// Run map tasks: `[n_partitions u16][bytes_per_partition u32][seed u64]`.
pub const MAP_REQ: u8 = 20;
/// Fetch one partition: `[partition u16]` → `[value]`.
pub const FETCH_PART: u8 = 21;

/// One deployed shuffle: `mappers` map-side servers and `reducers`
/// reduce-side servers.
pub struct ShuffleApp {
    mappers: Vec<Rc<DmRpc>>,
    reducers: Vec<Rc<DmRpc>>,
    mapper_addrs: Vec<Addr>,
    /// Mapper server handles (NIC metrics).
    pub mapper_nodes: Vec<ServiceNode>,
    /// Reducer server handles.
    pub reducer_nodes: Vec<ServiceNode>,
}

/// Deploy `m` mappers and `r` reducers on dedicated servers.
pub async fn build_shuffle(cluster: &Cluster, m: usize, r: usize) -> ShuffleApp {
    let mut mappers = Vec::new();
    let mut mapper_addrs = Vec::new();
    let mut mapper_nodes = Vec::new();
    for i in 0..m {
        let node = cluster.add_server(format!("mapper{i}"));
        let ep = cluster.endpoint(&node, 100).await;
        // Partition store: partition id -> published Value.
        let parts: Rc<RefCell<HashMap<u16, Value>>> = Rc::new(RefCell::new(HashMap::new()));
        {
            // MAP: generate deterministic partition contents and publish.
            let ep2 = ep.clone();
            let parts = parts.clone();
            let node = node.clone();
            ep.rpc().register(MAP_REQ, move |ctx| {
                let ep = ep2.clone();
                let parts = parts.clone();
                let node = node.clone();
                async move {
                    let req = &ctx.payload;
                    let (Some(n), Some(bytes), Some(seed)) = (
                        req.array(0).map(u16::from_le_bytes),
                        req.array(2).map(u32::from_le_bytes),
                        req.array(6).map(u64::from_le_bytes),
                    ) else {
                        return Bytes::new();
                    };
                    let bytes = bytes as usize;
                    // Release any previous round's partitions (in key order:
                    // HashMap drain order would be nondeterministic).
                    let old: Vec<Value> = {
                        let mut p = parts.borrow_mut();
                        let mut keys: Vec<u16> = p.keys().copied().collect();
                        keys.sort_unstable();
                        keys.iter().filter_map(|k| p.remove(k)).collect()
                    };
                    for v in old {
                        ep.release_async(v);
                    }
                    let rng = SimRng::new(seed);
                    for p in 0..n {
                        let mut buf = vec![0u8; bytes];
                        rng.fill_bytes(&mut buf);
                        // Map work: producing the partition streams it once.
                        node.mem.touch(bytes as u64).await;
                        match ep.make_value(Bytes::from(buf)).await {
                            Ok(v) => {
                                parts.borrow_mut().insert(p, v);
                            }
                            Err(_) => return Bytes::new(),
                        }
                    }
                    Bytes::from_static(b"ok")
                }
            });
        }
        {
            // FETCH_PART: hand out the published value (no data touched).
            let parts = parts.clone();
            ep.rpc().register(FETCH_PART, move |ctx| {
                let parts = parts.clone();
                async move {
                    let Some(id) = ctx.payload.array(0).map(u16::from_le_bytes) else {
                        return Value::Inline(Bytes::new()).encode();
                    };
                    match parts.borrow().get(&id) {
                        Some(v) => v.encode(),
                        None => Value::Inline(Bytes::new()).encode(),
                    }
                }
            });
        }
        mapper_addrs.push(ep.addr());
        mappers.push(ep);
        mapper_nodes.push(node);
    }
    let mut reducers = Vec::new();
    let mut reducer_nodes = Vec::new();
    for i in 0..r {
        let node = cluster.add_server(format!("reducer{i}"));
        reducers.push(cluster.endpoint(&node, 100).await);
        reducer_nodes.push(node);
    }
    ShuffleApp {
        mappers,
        reducers,
        mapper_addrs,
        mapper_nodes,
        reducer_nodes,
    }
}

impl ShuffleApp {
    /// Run the map phase: every mapper produces `reducers` partitions of
    /// `bytes` each (contents deterministic in `seed` + mapper index).
    pub async fn map_phase(&self, bytes: usize, seed: u64) -> DmResult<()> {
        let n = self.reducers.len() as u16;
        let mut handles = Vec::new();
        for (mi, m) in self.mappers.iter().enumerate() {
            let mut req = BytesMut::with_capacity(14);
            req.put_u16_le(n);
            req.put_u32_le(bytes as u32);
            req.put_u64_le(seed ^ (mi as u64) << 32);
            let m = m.clone();
            let dst = self.mapper_addrs[mi];
            let req = req.freeze();
            handles.push(simcore::spawn(async move {
                m.rpc().call(dst, MAP_REQ, req).await.is_ok()
            }));
        }
        for h in handles {
            if !h.await {
                return Err(DmError::Transport);
            }
        }
        Ok(())
    }

    /// Run the reduce phase: every reducer fetches its partition from every
    /// mapper and folds it. Returns per-reducer checksums.
    pub async fn reduce_phase(&self) -> DmResult<Vec<u64>> {
        let mut handles = Vec::new();
        for (ri, red) in self.reducers.iter().enumerate() {
            let red = red.clone();
            let mapper_addrs = self.mapper_addrs.clone();
            handles.push(simcore::spawn(async move {
                let mut sum = 0u64;
                for &ma in &mapper_addrs {
                    let mut req = BytesMut::with_capacity(2);
                    req.put_u16_le(ri as u16);
                    let resp = red
                        .rpc()
                        .call(ma, FETCH_PART, req.freeze())
                        .await
                        .map_err(|_| DmError::Transport)?;
                    let v = Value::decode(&resp)?;
                    let data = red.fetch(&v).await?;
                    sum = sum.wrapping_add(data.iter().map(|&b| b as u64).sum::<u64>());
                }
                Ok::<u64, DmError>(sum)
            }));
        }
        let mut out = Vec::new();
        for h in handles {
            out.push(h.await?);
        }
        Ok(out)
    }

    /// Total bytes transmitted by all mapper NICs (shuffle amplification
    /// metric).
    pub fn mapper_tx_bytes(&self, cluster: &Cluster) -> u64 {
        self.mapper_nodes
            .iter()
            .map(|n| cluster.net.node_tx_bytes(n.id))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, SystemKind};
    use simcore::Sim;

    fn run(kind: SystemKind, m: usize, r: usize, bytes: usize) -> (Vec<u64>, u64) {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 61);
            let app = build_shuffle(&cluster, m, r).await;
            app.map_phase(bytes, 7).await.unwrap();
            cluster.net.reset_stats();
            let sums = app.reduce_phase().await.unwrap();
            let tx = app.mapper_tx_bytes(&cluster);
            (sums, tx)
        })
    }

    #[test]
    fn shuffle_checksums_agree_across_systems() {
        let (erpc, _) = run(SystemKind::Erpc, 3, 2, 20_000);
        let (net, _) = run(SystemKind::DmNet, 3, 2, 20_000);
        let (cxl, _) = run(SystemKind::DmCxl, 3, 2, 20_000);
        assert_eq!(erpc, net);
        assert_eq!(erpc, cxl);
        assert_eq!(erpc.len(), 2);
        assert!(erpc.iter().all(|&s| s > 0));
    }

    #[test]
    fn mappers_never_resend_partitions_under_dmrpc() {
        let (_, erpc_tx) = run(SystemKind::Erpc, 4, 4, 32_768);
        let (_, dm_tx) = run(SystemKind::DmNet, 4, 4, 32_768);
        // eRPC: each of 16 partitions crosses the mapper NIC in full.
        assert!(erpc_tx >= 16 * 32_768, "erpc mapper tx {erpc_tx}");
        // DmRPC: only refs leave the mappers during reduce.
        assert!(dm_tx < 64_000, "dm mapper tx {dm_tx}");
    }

    #[test]
    fn repeated_rounds_release_old_partitions() {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 1, ClusterConfig::default(), 61);
            let app = build_shuffle(&cluster, 2, 2).await;
            for round in 0..10u64 {
                app.map_phase(16_384, round).await.unwrap();
                app.reduce_phase().await.unwrap();
            }
            simcore::sleep(std::time::Duration::from_millis(1)).await;
            // Only the final round's 2 mappers x 2 partitions x 4 pages
            // stay pinned.
            let used = cluster.dm_servers[0].with_page_manager(|pm| {
                pm.check_invariants();
                pm.capacity_pages() - pm.free_pages()
            });
            assert!(used <= 16 + 8, "partition leak across rounds: {used} pages");
        });
    }
}
