//! # datastore — the distributed in-memory data store baseline (Ray/Spark)
//!
//! Models the data-sharing architecture the paper compares against in §III
//! and Fig. 8: Ray's Plasma object store and Spark's BlockTransferService.
//! Every node runs a *store service*; application processes talk to their
//! **local** store over IPC, and stores fetch objects from each other over
//! the network:
//!
//! * `put`: the caller copies the whole object into its local store
//!   (IPC round-trip + one copy) and gets back an [`ObjectId`];
//! * `get` of a remote object: the local store fetches the **entire**
//!   object from the owner's store over the network, keeps an immutable
//!   copy (first extra copy), then copies it again into the caller's heap
//!   (second extra copy) — "The two copies eliminate the need to handle
//!   data consistency issues";
//! * the fetched copy is cached, but because it is immutable, *every* get
//!   pays the store-to-heap copy, and writers must work on their private
//!   heap copy.
//!
//! [`ray_config`] and [`spark_config`] give the two calibrations (Spark
//! additionally pays per-byte serialization).

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use dmcommon::{DmError, DmResult};
use memsim::NodeMemory;
use rpclib::{Rpc, RpcBuilder};
use simnet::{Addr, Network, NodeId};

/// Well-known store-service port.
pub const STORE_PORT: u16 = 7200;

/// RPC request type for store-to-store object fetch.
pub const FETCH: u8 = 40;

/// Cost calibration for a store implementation.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Application ↔ local-store IPC round-trip (gRPC / socket + scheduling).
    pub ipc_rtt: Duration,
    /// Per-byte serialization/deserialization cost (Spark pays this; raw
    /// Plasma buffers do not).
    pub ser_per_byte: Duration,
}

/// Ray / Plasma calibration.
pub fn ray_config() -> StoreConfig {
    StoreConfig {
        ipc_rtt: Duration::from_micros(250),
        ser_per_byte: Duration::ZERO,
    }
}

/// Spark BlockTransferService calibration (slower IPC path + ser/deser).
pub fn spark_config() -> StoreConfig {
    StoreConfig {
        ipc_rtt: Duration::from_micros(500),
        ser_per_byte: Duration::from_nanos(2),
    }
}

/// Names an object in the distributed store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ObjectId {
    /// The store service that owns the primary copy.
    pub owner: Addr,
    /// Key within the owner store.
    pub key: u64,
    /// Object length in bytes.
    pub len: u64,
}

impl ObjectId {
    /// Wire encoding (22 bytes).
    pub fn encode(&self) -> [u8; 22] {
        let mut b = [0u8; 22];
        b[0..4].copy_from_slice(&self.owner.node.0.to_le_bytes());
        b[4..6].copy_from_slice(&self.owner.port.to_le_bytes());
        b[6..14].copy_from_slice(&self.key.to_le_bytes());
        b[14..22].copy_from_slice(&self.len.to_le_bytes());
        b
    }

    /// Decode the wire form.
    pub fn decode(b: &[u8]) -> DmResult<ObjectId> {
        if b.len() < 22 {
            return Err(DmError::Malformed);
        }
        Ok(ObjectId {
            owner: Addr {
                node: simnet::NodeId(u32::from_le_bytes(b[0..4].try_into().expect("len ok"))),
                port: u16::from_le_bytes(b[4..6].try_into().expect("len ok")),
            },
            key: u64::from_le_bytes(b[6..14].try_into().expect("len ok")),
            len: u64::from_le_bytes(b[14..22].try_into().expect("len ok")),
        })
    }
}

/// One node's store service plus the local-client interface.
pub struct ObjectStore {
    rpc: Rc<Rpc>,
    mem: NodeMemory,
    config: StoreConfig,
    objects: RefCell<HashMap<u64, Bytes>>,
    /// Immutable copies fetched from remote stores.
    remote_cache: RefCell<HashMap<ObjectId, Bytes>>,
    next_key: Cell<u64>,
}

impl ObjectStore {
    /// Start a store service on `node`.
    pub fn start(
        net: &Network,
        node: NodeId,
        mem: NodeMemory,
        config: StoreConfig,
    ) -> Rc<ObjectStore> {
        let rpc = RpcBuilder::new(net, node, STORE_PORT)
            .mem(mem.clone())
            .build();
        let store = Rc::new(ObjectStore {
            rpc: rpc.clone(),
            mem,
            config,
            objects: RefCell::new(HashMap::new()),
            remote_cache: RefCell::new(HashMap::new()),
            next_key: Cell::new(1),
        });
        let s = store.clone();
        rpc.register(FETCH, move |ctx| {
            let s = s.clone();
            async move {
                let payload = ctx.payload.into_bytes();
                let Some(key_bytes) = payload.get(..8) else {
                    return Bytes::new();
                };
                let key = u64::from_le_bytes(key_bytes.try_into().expect("8 bytes"));
                let obj = s.objects.borrow().get(&key).cloned();
                match obj {
                    Some(data) => {
                        // Reading the object out of the store's memory.
                        s.mem.touch(data.len() as u64).await;
                        data
                    }
                    None => Bytes::new(),
                }
            }
        });
        store
    }

    /// Tear down: unregister handlers (breaks the `Rc` cycle).
    pub fn shutdown(&self) {
        self.rpc.shutdown();
        self.objects.borrow_mut().clear();
        self.remote_cache.borrow_mut().clear();
    }

    /// This store's service address.
    pub fn addr(&self) -> Addr {
        self.rpc.addr()
    }

    /// Objects owned by this store.
    pub fn object_count(&self) -> usize {
        self.objects.borrow().len()
    }

    /// Cached remote copies held by this store.
    pub fn cached_count(&self) -> usize {
        self.remote_cache.borrow().len()
    }

    async fn ipc(&self) {
        simcore::sleep(self.config.ipc_rtt).await;
    }

    async fn serialize(&self, bytes: u64) {
        if !self.config.ser_per_byte.is_zero() {
            simcore::sleep(self.config.ser_per_byte * bytes as u32).await;
        }
    }

    /// `put` from a local application process: copy the object into the
    /// store, return its id.
    pub async fn put(self: &Rc<Self>, data: Bytes) -> DmResult<ObjectId> {
        self.ipc().await;
        self.serialize(data.len() as u64).await;
        self.mem.memcpy(data.len() as u64).await; // heap -> store copy
        let key = self.next_key.get();
        self.next_key.set(key + 1);
        let id = ObjectId {
            owner: self.addr(),
            key,
            len: data.len() as u64,
        };
        self.objects.borrow_mut().insert(key, data);
        Ok(id)
    }

    /// `get` from a local application process: returns a private heap copy
    /// of the object, fetching it from the owner store if needed.
    pub async fn get(self: &Rc<Self>, id: ObjectId) -> DmResult<Bytes> {
        self.ipc().await;
        if id.owner == self.addr() {
            // Local object: one store -> heap copy.
            let data = self
                .objects
                .borrow()
                .get(&id.key)
                .cloned()
                .ok_or(DmError::InvalidRef)?;
            self.mem.memcpy(data.len() as u64).await;
            return Ok(data);
        }
        // Remote object: fetch whole copy into the local store first.
        let cached = self.remote_cache.borrow().get(&id).cloned();
        let stored = match cached {
            Some(c) => c,
            None => {
                let resp = self
                    .rpc
                    .call(id.owner, FETCH, Bytes::from(id.key.to_le_bytes().to_vec()))
                    .await
                    .map_err(|_| DmError::Transport)?
                    .into_bytes();
                if resp.len() as u64 != id.len {
                    return Err(DmError::InvalidRef);
                }
                // Copy #1: network buffer -> local store.
                self.mem.memcpy(resp.len() as u64).await;
                self.remote_cache.borrow_mut().insert(id, resp.clone());
                resp
            }
        };
        // Copy #2: local store -> application heap (always paid; the store
        // copy is immutable).
        self.serialize(stored.len() as u64).await;
        self.mem.memcpy(stored.len() as u64).await;
        Ok(stored)
    }

    /// Delete a locally-owned object.
    pub fn delete(&self, id: ObjectId) {
        self.objects.borrow_mut().remove(&id.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::ModelParams;
    use simcore::Sim;
    use simnet::{FabricConfig, NicConfig};

    fn rig() -> (Sim, Network, Vec<NodeId>, ModelParams) {
        let sim = Sim::new();
        let net = Network::new(FabricConfig::default(), 31);
        let nodes = (0..2)
            .map(|i| net.add_node(format!("n{i}"), NicConfig::default()))
            .collect();
        (sim, net, nodes, ModelParams::new())
    }

    #[test]
    fn object_id_roundtrip() {
        let id = ObjectId {
            owner: Addr {
                node: simnet::NodeId(3),
                port: 7200,
            },
            key: 99,
            len: 32768,
        };
        assert_eq!(ObjectId::decode(&id.encode()).unwrap(), id);
        assert!(ObjectId::decode(&[0u8; 10]).is_err());
    }

    #[test]
    fn local_put_get() {
        let (sim, net, nodes, params) = rig();
        sim.block_on(async move {
            let mem = NodeMemory::with_defaults("n0", params);
            let store = ObjectStore::start(&net, nodes[0], mem.clone(), ray_config());
            let data = Bytes::from(vec![7u8; 32 * 1024]);
            let id = store.put(data.clone()).await.unwrap();
            assert_eq!(id.len, 32 * 1024);
            let back = store.get(id).await.unwrap();
            assert_eq!(back, data);
            // put copy + get copy, both 2x (read+write) in the traffic model.
            assert_eq!(mem.traffic_bytes(), 4 * 32 * 1024);
        });
    }

    #[test]
    fn remote_get_pays_two_copies_and_full_transfer() {
        let (sim, net, nodes, params) = rig();
        let net2 = net.clone();
        sim.block_on(async move {
            let mem_a = NodeMemory::with_defaults("a", params.clone());
            let mem_b = NodeMemory::with_defaults("b", params);
            let a = ObjectStore::start(&net2, nodes[0], mem_a, ray_config());
            let b = ObjectStore::start(&net2, nodes[1], mem_b.clone(), ray_config());
            let data = Bytes::from(
                (0..32 * 1024u32)
                    .map(|i| (i % 253) as u8)
                    .collect::<Vec<_>>(),
            );
            let id = a.put(data.clone()).await.unwrap();

            let t0 = simcore::now();
            let got = b.get(id).await.unwrap();
            let first = simcore::now() - t0;
            assert_eq!(got, data);
            // Copy into b's store + copy to heap (each counts 2x bytes) +
            // the DMA accounting of the fetch response.
            assert!(
                mem_b.traffic_bytes() >= 4 * 32 * 1024,
                "traffic {}",
                mem_b.traffic_bytes()
            );
            assert_eq!(b.cached_count(), 1);

            // Second get: served from the local immutable copy, but still
            // pays IPC + store->heap copy.
            let t1 = simcore::now();
            let again = b.get(id).await.unwrap();
            let second = simcore::now() - t1;
            assert_eq!(again, data);
            assert!(second < first, "cache avoids the network fetch");
            assert!(second >= ray_config().ipc_rtt, "still pays IPC: {second:?}");
        });
    }

    #[test]
    fn get_latency_is_hundreds_of_microseconds_like_ray() {
        let (sim, net, nodes, params) = rig();
        sim.block_on(async move {
            let a = ObjectStore::start(
                &net,
                nodes[0],
                NodeMemory::with_defaults("a", params.clone()),
                ray_config(),
            );
            let b = ObjectStore::start(
                &net,
                nodes[1],
                NodeMemory::with_defaults("b", params),
                ray_config(),
            );
            let id = a.put(Bytes::from(vec![1u8; 32 * 1024])).await.unwrap();
            let t0 = simcore::now();
            b.get(id).await.unwrap();
            let lat = simcore::now() - t0;
            assert!(
                lat > Duration::from_micros(150) && lat < Duration::from_millis(2),
                "Ray-like latency, got {lat:?}"
            );
        });
    }

    #[test]
    fn spark_is_slower_than_ray() {
        let (sim, net, nodes, params) = rig();
        sim.block_on(async move {
            let ray = ObjectStore::start(
                &net,
                nodes[0],
                NodeMemory::with_defaults("ray", params.clone()),
                ray_config(),
            );
            let spark_store = ObjectStore::start(
                &net,
                net.add_node("spark", NicConfig::default()),
                NodeMemory::with_defaults("spark", params),
                spark_config(),
            );
            let data = Bytes::from(vec![5u8; 64 * 1024]);
            let t0 = simcore::now();
            let rid = ray.put(data.clone()).await.unwrap();
            ray.get(rid).await.unwrap();
            let ray_t = simcore::now() - t0;
            let t1 = simcore::now();
            let sid = spark_store.put(data).await.unwrap();
            spark_store.get(sid).await.unwrap();
            let spark_t = simcore::now() - t1;
            assert!(spark_t > ray_t, "spark {spark_t:?} vs ray {ray_t:?}");
        });
    }

    #[test]
    fn missing_object_is_invalid_ref() {
        let (sim, net, nodes, params) = rig();
        sim.block_on(async move {
            let store = ObjectStore::start(
                &net,
                nodes[0],
                NodeMemory::with_defaults("n0", params),
                ray_config(),
            );
            let bogus = ObjectId {
                owner: store.addr(),
                key: 12345,
                len: 10,
            };
            assert_eq!(store.get(bogus).await.unwrap_err(), DmError::InvalidRef);
        });
    }

    #[test]
    fn delete_removes_object() {
        let (sim, net, nodes, params) = rig();
        sim.block_on(async move {
            let store = ObjectStore::start(
                &net,
                nodes[0],
                NodeMemory::with_defaults("n0", params),
                ray_config(),
            );
            let id = store.put(Bytes::from_static(b"gone soon")).await.unwrap();
            store.delete(id);
            assert_eq!(store.object_count(), 0);
            assert!(store.get(id).await.is_err());
        });
    }
}
