//! The nested-RPC-call application (paper §VI-B, Fig. 5).
//!
//! "The client calls an RPC with a 4 KB size array as the argument, and the
//! called microservice directly passes the array to the next microservice
//! without using it. After several repeated RPC calls, the final
//! microservice aggregates the array and returns the result."
//!
//! Under eRPC the argument bytes are re-serialized at every hop (and copied
//! between the request and the next call's buffer); under DmRPC only the
//! `Ref` moves until the final service materializes the data.

use std::rc::Rc;

use bytes::Bytes;
use dmcommon::DmResult;
use dmrpc::{DmRpc, Value};
use simnet::Addr;
use telemetry::SpanKind;

use crate::cluster::Cluster;
use crate::codec::{u64_value, value_u64};

/// Request type used along the chain.
pub const CHAIN_REQ: u8 = 1;

/// A deployed chain application.
pub struct ChainApp {
    /// The client's endpoint (on its own node).
    pub client: Rc<DmRpc>,
    /// First service in the chain.
    pub entry: Addr,
    /// Number of services (nested RPC calls).
    pub length: usize,
}

/// Deploy a chain of `length` services, each on its own compute server,
/// plus a client node. Must be called inside the simulation.
pub async fn build_chain(cluster: &Cluster, length: usize) -> ChainApp {
    assert!(length >= 1);
    // Create all endpoints first so each service can know its successor.
    let mut endpoints = Vec::with_capacity(length);
    let mut nodes = Vec::with_capacity(length);
    for i in 0..length {
        let node = cluster.add_server(format!("svc{i}"));
        let ep = cluster.endpoint(&node, 100).await;
        endpoints.push(ep);
        nodes.push(node);
    }
    for i in 0..length {
        let ep = endpoints[i].clone();
        let node = nodes[i].clone();
        let next: Option<Addr> = endpoints.get(i + 1).map(|e| e.addr());
        ep.rpc().clone().register(CHAIN_REQ, move |ctx| {
            let ep = ep.clone();
            let node = node.clone();
            async move {
                match next {
                    Some(next_addr) => {
                        // Middle service: forward without using the data.
                        // Pass-by-value forwarding costs an application-level
                        // copy of the argument into the next request buffer.
                        if let Ok(v) = Value::decode(&ctx.payload) {
                            if !v.is_by_ref() {
                                let mut copy = telemetry::leaf_span(
                                    SpanKind::MemCharge,
                                    "chain.forward_copy",
                                    node.id.0,
                                );
                                if let Some(s) = copy.as_mut() {
                                    s.attr("bytes", v.len());
                                }
                                node.mem.memcpy(v.len()).await;
                                drop(copy);
                            }
                        }
                        match ep.rpc().call(next_addr, CHAIN_REQ, ctx.payload).await {
                            Ok(resp) => resp,
                            Err(_) => Value::Inline(Bytes::new()).encode(),
                        }
                    }
                    None => {
                        // Final service: materialize and aggregate.
                        let Ok(v) = Value::decode(&ctx.payload) else {
                            return Value::Inline(Bytes::new()).encode();
                        };
                        let Ok(data) = ep.fetch(&v).await else {
                            return Value::Inline(Bytes::new()).encode();
                        };
                        // Aggregation streams the buffer through memory.
                        let mut agg =
                            telemetry::leaf_span(SpanKind::MemCharge, "chain.aggregate", node.id.0);
                        if let Some(s) = agg.as_mut() {
                            s.attr("bytes", data.len() as u64);
                        }
                        node.mem.touch(data.len() as u64).await;
                        drop(agg);
                        u64_value(byte_sum(&data)).encode()
                    }
                }
            }
        });
    }
    let client_node = cluster.add_server("chain-client");
    let client = cluster.endpoint(&client_node, 100).await;
    ChainApp {
        client,
        entry: endpoints[0].addr(),
        length,
    }
}

/// Sum of the bytes of `data`, a host-only kernel: SSE2's `psadbw` on
/// x86-64, where SSE2 is baseline, and [`byte_sum_lanes`] elsewhere.
fn byte_sum(data: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    return byte_sum_sse2(data);
    #[cfg(not(target_arch = "x86_64"))]
    byte_sum_lanes(data)
}

/// [`byte_sum`] with `psadbw`: its sum of absolute differences against
/// zero adds each 8 bytes of a 16-byte load into a `u64` lane, so a
/// 64-byte block is four loads and no lane can overflow.
#[cfg(target_arch = "x86_64")]
fn byte_sum_sse2(data: &[u8]) -> u64 {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi64, _mm_cvtsi128_si64, _mm_loadu_si128, _mm_sad_epu8,
        _mm_setzero_si128, _mm_unpackhi_epi64,
    };
    let blocks = data.chunks_exact(64);
    let tail: u64 = blocks.remainder().iter().map(|&b| b as u64).sum();
    // SAFETY: SSE2 is part of the x86-64 baseline, so every intrinsic here
    // is available. `block` is 64 bytes, so the four 16-byte loads at `p`
    // to `p + 3` stay inside it, and `_mm_loadu_si128` takes any alignment.
    unsafe {
        let zero = _mm_setzero_si128();
        let mut acc = _mm_setzero_si128();
        for block in blocks {
            let p = block.as_ptr().cast::<__m128i>();
            let sum = |i| _mm_sad_epu8(_mm_loadu_si128(p.add(i)), zero);
            let pairs = (_mm_add_epi64(sum(0), sum(1)), _mm_add_epi64(sum(2), sum(3)));
            acc = _mm_add_epi64(acc, _mm_add_epi64(pairs.0, pairs.1));
        }
        let lo = _mm_cvtsi128_si64(acc) as u64;
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)) as u64;
        lo + hi + tail
    }
}

/// [`byte_sum`] on any target, and its reference: a u8→u64 widening sum
/// vectorises badly on the x86-64 baseline, so add 32-byte blocks into 32
/// `u16` lanes and fold the lanes into the total every 256 blocks, before a
/// lane can overflow (256 × 255 < 2¹⁶).
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn byte_sum_lanes(data: &[u8]) -> u64 {
    const LANES: usize = 32;
    const FOLD: usize = 256;
    let mut total = 0;
    for run in data.chunks(LANES * FOLD) {
        let blocks = run.chunks_exact(LANES);
        total += blocks.remainder().iter().map(|&b| b as u64).sum::<u64>();
        let mut lanes = [0u16; LANES];
        for block in blocks {
            let block: &[u8; LANES] = block.try_into().expect("exact chunk");
            for (lane, &b) in lanes.iter_mut().zip(block) {
                *lane += b as u16;
            }
        }
        total += lanes.iter().map(|&l| l as u64).sum::<u64>();
    }
    total
}

impl ChainApp {
    /// Issue one end-to-end request with a fresh `size`-byte argument,
    /// verifying the aggregate on return. Returns the checksum.
    pub async fn request(&self, payload: &Bytes) -> DmResult<u64> {
        // Trace root for the whole end-to-end request (head-sampled); the
        // argument upload, every chain hop, the aggregation and the
        // deferred release all nest under it.
        let mut root = telemetry::start_trace("chain.request", self.client.addr().node.0);
        if let Some(s) = root.as_mut() {
            s.attr("payload_bytes", payload.len() as u64);
            s.attr("chain_length", self.length as u64);
        }
        let v = self.client.make_value(payload.clone()).await?;
        // Release the argument whether or not the call succeeded: a timed-out
        // request must not leak its by-reference pages.
        let reply = self.client.call(self.entry, CHAIN_REQ, &v).await;
        self.client.release_async(v);
        value_u64(&reply?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, SystemKind};
    use simcore::Sim;

    fn expected_sum(payload: &Bytes) -> u64 {
        payload.iter().map(|&b| b as u64).sum()
    }

    #[test]
    fn byte_sum_matches_the_widening_sum_across_chunk_edges() {
        let lens = [
            0, 1, 31, 32, 33, 63, 64, 65, 8_191, 8_192, 8_193, 65_535, 65_536, 65_537, 196_625,
        ];
        type Kernel = (&'static str, fn(&[u8]) -> u64);
        let mut kernels: Vec<Kernel> = vec![("lanes", byte_sum_lanes)];
        #[cfg(target_arch = "x86_64")]
        kernels.push(("sse2", byte_sum_sse2));
        for len in lens {
            let ones = Bytes::from(vec![0xFFu8; len]);
            let mixed = Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<_>>());
            for (name, kernel) in &kernels {
                assert_eq!(kernel(&ones), expected_sum(&ones), "{name}: 0xFF × {len}");
                assert_eq!(
                    kernel(&mixed),
                    expected_sum(&mixed),
                    "{name}: mixed × {len}"
                );
            }
        }
    }

    fn run(kind: SystemKind, length: usize, size: usize) -> (u64, u64, u64) {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 77);
            let app = build_chain(&cluster, length).await;
            let payload = Bytes::from((0..size).map(|i| (i % 251) as u8).collect::<Vec<_>>());
            let want = expected_sum(&payload);
            let t0 = simcore::now();
            let got = app.request(&payload).await.unwrap();
            let elapsed = (simcore::now() - t0).as_nanos() as u64;
            assert_eq!(got, want);
            // Middle-node traffic: node for svc1 (a pure forwarder).
            let mid = cluster.servers()[1].clone();
            (got, mid.mem.traffic_bytes(), elapsed)
        })
    }

    #[test]
    fn chain_correct_on_all_three_systems() {
        for kind in SystemKind::ALL {
            let (_, _, _) = run(kind, 4, 4096);
        }
    }

    #[test]
    fn forwarders_move_no_data_under_dmrpc() {
        let (_, erpc_mid, _) = run(SystemKind::Erpc, 4, 16384);
        let (_, net_mid, _) = run(SystemKind::DmNet, 4, 16384);
        assert!(
            erpc_mid > 16384,
            "eRPC forwarder must move the payload: {erpc_mid}"
        );
        assert!(net_mid < 2048, "DmRPC forwarder moves only refs: {net_mid}");
    }

    #[test]
    fn erpc_latency_grows_faster_with_chain_length() {
        let (_, _, e3) = run(SystemKind::Erpc, 3, 65536);
        let (_, _, e6) = run(SystemKind::Erpc, 6, 65536);
        let (_, _, n3) = run(SystemKind::DmNet, 3, 65536);
        let (_, _, n6) = run(SystemKind::DmNet, 6, 65536);
        let erpc_growth = e6 as f64 - e3 as f64;
        let net_growth = n6 as f64 - n3 as f64;
        assert!(
            erpc_growth > 2.0 * net_growth,
            "per-hop cost: eRPC +{erpc_growth}ns vs DmRPC-net +{net_growth}ns"
        );
    }

    #[test]
    fn single_call_chain_works() {
        let (_, _, _) = run(SystemKind::DmCxl, 1, 4096);
    }
}
