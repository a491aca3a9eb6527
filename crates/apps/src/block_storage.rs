//! Replicated block storage — the paper's motivating data-intensive RPC
//! workload ("the commodity block storage service uses RPC to transfer
//! large data blocks (tens to hundreds of KBs)", §I, citing \[28\], \[49\]).
//!
//! Topology: `client → primary → {replica 1, replica 2}` with 3-way
//! replication. Under pass-by-value the primary re-transmits every block
//! twice (write amplification on its NIC and memory); under DmRPC the
//! primary forwards the block's `Ref` and each replica pulls the bytes
//! from DM directly.
//!
//! Replicas materialize blocks locally (modeling durable media); the
//! primary serves reads from its in-memory index.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use dmcommon::{DmError, DmResult};
use dmrpc::{DmRpc, Value};
use simnet::Addr;

use crate::cluster::{Cluster, ServiceNode};
use crate::codec::{id_value, parse_id_value};

/// Write a block: `[block_id u64][value]` → ack.
pub const BLK_WRITE: u8 = 10;
/// Read a block: `[block_id u64]` → `[value]`.
pub const BLK_READ: u8 = 11;
/// Internal replication: `[block_id u64][value]` → ack.
pub const BLK_REPLICATE: u8 = 12;

/// A deployed block-storage service.
pub struct BlockStore {
    /// Client endpoint.
    pub client: Rc<DmRpc>,
    /// Primary address.
    pub primary: Addr,
    /// Primary server (write-amplification metrics).
    pub primary_node: ServiceNode,
    /// Replica servers.
    pub replica_nodes: Vec<ServiceNode>,
    replicas_data: Vec<Rc<RefCell<HashMap<u64, Bytes>>>>,
}

/// Deploy a primary plus `n_replicas` replicas and one client.
pub async fn build_block_store(cluster: &Cluster, n_replicas: usize) -> BlockStore {
    // Replicas: materialize replicated blocks.
    let mut replica_addrs = Vec::new();
    let mut replica_nodes = Vec::new();
    let mut replicas_data = Vec::new();
    for i in 0..n_replicas {
        let node = cluster.add_server(format!("replica{i}"));
        let ep = cluster.endpoint(&node, 100).await;
        let data: Rc<RefCell<HashMap<u64, Bytes>>> = Rc::new(RefCell::new(HashMap::new()));
        {
            let ep2 = ep.clone();
            let node = node.clone();
            let data = data.clone();
            ep.rpc().register(BLK_REPLICATE, move |ctx| {
                let ep = ep2.clone();
                let node = node.clone();
                let data = data.clone();
                async move {
                    let Ok((id, v)) = parse_id_value(&ctx.payload) else {
                        return Bytes::new();
                    };
                    // Pull the block bytes (from DM under DmRPC) and
                    // persist a local copy.
                    let Ok(block) = ep.fetch(&v).await else {
                        return Bytes::new();
                    };
                    node.mem.touch(block.len() as u64).await; // media write
                    data.borrow_mut().insert(id, block);
                    Bytes::from_static(b"ok")
                }
            });
        }
        replica_addrs.push(ep.addr());
        replica_nodes.push(node);
        replicas_data.push(data);
    }

    // Primary: indexes blocks as Values; fans replication out in parallel.
    let primary_node = cluster.add_server("primary");
    let primary_ep = cluster.endpoint(&primary_node, 100).await;
    let index: Rc<RefCell<HashMap<u64, Value>>> = Rc::new(RefCell::new(HashMap::new()));
    {
        let ep = primary_ep.clone();
        let index = index.clone();
        let replica_addrs2 = replica_addrs.clone();
        primary_ep.rpc().register(BLK_WRITE, move |ctx| {
            let ep = ep.clone();
            let index = index.clone();
            let replica_addrs = replica_addrs2.clone();
            async move {
                let Ok((id, v)) = parse_id_value(&ctx.payload) else {
                    return Bytes::new();
                };
                // Replicate in parallel: forward the value verbatim.
                let mut acks = Vec::new();
                for &r in &replica_addrs {
                    let ep = ep.clone();
                    let payload = ctx.payload.clone();
                    acks.push(simcore::spawn(async move {
                        ep.rpc().call(r, BLK_REPLICATE, payload).await.is_ok()
                    }));
                }
                let mut ok = true;
                for a in acks {
                    ok &= a.await;
                }
                if !ok {
                    return Bytes::new();
                }
                // Retire the previous version's pin, keep the new one.
                let old = index.borrow_mut().insert(id, v);
                if let Some(old) = old {
                    ep.release_async(old);
                }
                Bytes::from_static(b"ok")
            }
        });
    }
    {
        let index = index.clone();
        primary_ep.rpc().register(BLK_READ, move |ctx| {
            let index = index.clone();
            async move {
                let id = ctx.payload.array(0).map(u64::from_le_bytes);
                match id.and_then(|id| index.borrow().get(&id).cloned()) {
                    Some(v) => v.encode(),
                    None => Value::Inline(Bytes::new()).encode(),
                }
            }
        });
    }

    let client_node = cluster.add_server("blk-client");
    let client = cluster.endpoint(&client_node, 100).await;
    BlockStore {
        client,
        primary: primary_ep.addr(),
        primary_node,
        replica_nodes,
        replicas_data,
    }
}

impl BlockStore {
    /// Write a block with 3-way replication.
    pub async fn write_block(&self, id: u64, block: &Bytes) -> DmResult<()> {
        let v = self.client.make_value(block.clone()).await?;
        let resp = self
            .client
            .rpc()
            .call(self.primary, BLK_WRITE, id_value(id, &v))
            .await
            .map_err(|_| DmError::Transport)?;
        // Ownership of the Ref passes to the primary's index.
        if resp.is_empty() {
            return Err(DmError::Transport);
        }
        Ok(())
    }

    /// Read a block back.
    pub async fn read_block(&self, id: u64) -> DmResult<Bytes> {
        let resp = self
            .client
            .rpc()
            .call(
                self.primary,
                BLK_READ,
                Bytes::from(id.to_le_bytes().to_vec()),
            )
            .await
            .map_err(|_| DmError::Transport)?;
        let v = Value::decode(&resp)?;
        if v.is_empty() {
            return Err(DmError::InvalidRef);
        }
        self.client.fetch(&v).await
    }

    /// A replica's durable copy of a block (tests).
    pub fn replica_copy(&self, replica: usize, id: u64) -> Option<Bytes> {
        self.replicas_data[replica].borrow().get(&id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, SystemKind};
    use simcore::Sim;

    #[test]
    fn write_read_roundtrip_all_systems() {
        for kind in SystemKind::ALL {
            let sim = Sim::new();
            sim.block_on(async move {
                let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 31);
                let store = build_block_store(&cluster, 2).await;
                let block = Bytes::from((0..65536u32).map(|i| (i % 239) as u8).collect::<Vec<_>>());
                store.write_block(7, &block).await.unwrap();
                let back = store.read_block(7).await.unwrap();
                assert_eq!(back, block, "{kind:?}");
                // Both replicas hold identical durable copies.
                assert_eq!(store.replica_copy(0, 7).unwrap(), block);
                assert_eq!(store.replica_copy(1, 7).unwrap(), block);
            });
        }
    }

    #[test]
    fn missing_block_errors() {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::Erpc, 0, ClusterConfig::default(), 31);
            let store = build_block_store(&cluster, 2).await;
            assert!(store.read_block(999).await.is_err());
        });
    }

    #[test]
    fn overwrite_releases_old_version() {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 1, ClusterConfig::default(), 31);
            let store = build_block_store(&cluster, 2).await;
            for round in 0..20u8 {
                let block = Bytes::from(vec![round; 32768]);
                store.write_block(1, &block).await.unwrap();
            }
            assert_eq!(
                store.read_block(1).await.unwrap(),
                Bytes::from(vec![19u8; 32768])
            );
            // Old versions were released: only the live version's 8 pages
            // (plus slack for an in-flight async release) stay pinned.
            simcore::sleep(std::time::Duration::from_millis(1)).await;
            let (cap, free) = cluster.dm_servers[0]
                .with_page_manager(|pm| (pm.capacity_pages(), pm.free_pages()));
            assert!(
                cap - free <= 16,
                "version leak: {} pages pinned",
                cap - free
            );
        });
    }

    #[test]
    fn primary_write_amplification_removed_by_refs() {
        let run = |kind: SystemKind| {
            let sim = Sim::new();
            sim.block_on(async move {
                let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 31);
                let store = build_block_store(&cluster, 2).await;
                let block = Bytes::from(vec![1u8; 128 * 1024]);
                store.write_block(1, &block).await.unwrap();
                cluster.net.reset_stats();
                for id in 2..6 {
                    store.write_block(id, &block).await.unwrap();
                }
                cluster.net.node_tx_bytes(store.primary_node.id)
            })
        };
        let erpc = run(SystemKind::Erpc);
        let dm = run(SystemKind::DmNet);
        // eRPC primary re-transmits each 128 KiB block twice.
        assert!(erpc > 4 * 2 * 128 * 1024, "erpc primary tx {erpc}");
        assert!(dm < 64 * 1024, "DmRPC primary forwards refs only: {dm}");
    }

    #[test]
    fn concurrent_writers_consistent() {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmCxl, 1, ClusterConfig::default(), 31);
            let store = Rc::new(build_block_store(&cluster, 2).await);
            let mut handles = Vec::new();
            for w in 0..4u64 {
                let store = store.clone();
                handles.push(simcore::spawn(async move {
                    for i in 0..5u64 {
                        let id = w * 100 + i;
                        let block = Bytes::from(vec![(id % 251) as u8; 16384]);
                        store.write_block(id, &block).await.unwrap();
                    }
                }));
            }
            for h in handles {
                h.await;
            }
            for w in 0..4u64 {
                for i in 0..5u64 {
                    let id = w * 100 + i;
                    let back = store.read_block(id).await.unwrap();
                    assert!(back.iter().all(|&b| b == (id % 251) as u8));
                }
            }
        });
    }
}
