//! The 7-tier Cloud Image Processing application (paper §VI-E, Figs. 9–10).
//!
//! `Client → Firewall → Load balance → Image processing (×2) →
//! {Transcoding | Compressing} → back to Client`.
//!
//! The firewall checks an authorization header without touching the image;
//! the load balancer forwards round-robin; image processing parses the
//! request and routes by operation; transcoding/compressing materialize the
//! image, burn per-byte CPU, and return a processed image of the same (or
//! half) size. Under DmRPC the image travels as a `Ref` end to end and is
//! only read where it is processed.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use dmcommon::{DmError, DmResult};
use dmrpc::{DmRpc, Value};
use simnet::Addr;

use crate::cluster::{Cluster, ServiceNode};
use crate::codec::{op_value, parse_op_value};

/// Request type used throughout the pipeline.
pub const IMG_REQ: u8 = 3;

/// Operation: transcode (same-size output).
pub const OP_TRANSCODE: u8 = 0;
/// Operation: compress (half-size output).
pub const OP_COMPRESS: u8 = 1;
/// Unauthorized marker (rejected by the firewall).
pub const OP_UNAUTHORIZED: u8 = 0xFF;

/// Per-byte CPU cost of image work (transcode/compress kernels).
const WORK_PER_BYTE: Duration = Duration::from_nanos(1);

/// A deployed image-processing pipeline.
pub struct ImagePipeline {
    /// Client endpoint.
    pub client: Rc<DmRpc>,
    /// Entry point (the firewall).
    pub entry: Addr,
    /// All service nodes, for stats: firewall, lb, proc a/b, transcode,
    /// compress.
    pub service_nodes: Vec<ServiceNode>,
}

async fn build_worker(cluster: &Cluster, name: &str, shrink: bool) -> (Rc<DmRpc>, ServiceNode) {
    let node = cluster.add_server(name);
    let ep = cluster.endpoint(&node, 100).await;
    let wep = ep.clone();
    let wnode = node.clone();
    ep.rpc().register(IMG_REQ, move |ctx| {
        let ep = wep.clone();
        let node = wnode.clone();
        async move {
            let Ok((_op, v)) = parse_op_value(&ctx.payload) else {
                return Value::Inline(Bytes::new()).encode();
            };
            let Ok(img) = ep.fetch(&v).await else {
                return Value::Inline(Bytes::new()).encode();
            };
            // Image kernel: stream the input, burn CPU per byte, produce
            // the output buffer.
            node.mem.touch(img.len() as u64).await;
            node.cpu.execute(WORK_PER_BYTE * img.len() as u32).await;
            let out_len = if shrink { img.len() / 2 } else { img.len() };
            let out: Vec<u8> = img[..out_len].iter().map(|b| b.wrapping_add(1)).collect();
            node.mem.touch(out_len as u64).await;
            match ep.make_value(Bytes::from(out)).await {
                Ok(result) => result.encode(),
                Err(_) => Value::Inline(Bytes::new()).encode(),
            }
        }
    });
    (ep, node)
}

/// Deploy the 7-tier pipeline (client + 6 service servers).
pub async fn build_pipeline(cluster: &Cluster) -> ImagePipeline {
    let (transcode_ep, transcode_node) = build_worker(cluster, "transcode", false).await;
    let (compress_ep, compress_node) = build_worker(cluster, "compress", true).await;
    let transcode_addr = transcode_ep.addr();
    let compress_addr = compress_ep.addr();

    // Two image-processing instances that parse and route.
    let mut proc_addrs = Vec::new();
    let mut proc_nodes = Vec::new();
    for name in ["imgproc-a", "imgproc-b"] {
        let node = cluster.add_server(name);
        let ep = cluster.endpoint(&node, 100).await;
        let pep = ep.clone();
        ep.rpc().register(IMG_REQ, move |ctx| {
            let ep = pep.clone();
            async move {
                // Parse the request header (not the image).
                let Ok((op, _v)) = parse_op_value(&ctx.payload) else {
                    return Value::Inline(Bytes::new()).encode();
                };
                let target = if op == OP_COMPRESS {
                    compress_addr
                } else {
                    transcode_addr
                };
                match ep.rpc().call(target, IMG_REQ, ctx.payload).await {
                    Ok(resp) => resp,
                    Err(_) => Value::Inline(Bytes::new()).encode(),
                }
            }
        });
        proc_addrs.push(ep.addr());
        proc_nodes.push(node);
    }

    // Load balancer.
    let lb_node = cluster.add_server("lb");
    let lb_ep = cluster.endpoint(&lb_node, 100).await;
    {
        let ep = lb_ep.clone();
        let next = Rc::new(Cell::new(0usize));
        lb_ep.rpc().register(IMG_REQ, move |ctx| {
            let ep = ep.clone();
            let proc_addrs = proc_addrs.clone();
            let next = next.clone();
            async move {
                let i = next.get();
                next.set((i + 1) % proc_addrs.len());
                match ep.rpc().call(proc_addrs[i], IMG_REQ, ctx.payload).await {
                    Ok(resp) => resp,
                    Err(_) => Value::Inline(Bytes::new()).encode(),
                }
            }
        });
    }

    // Firewall.
    let fw_node = cluster.add_server("firewall");
    let fw_ep = cluster.endpoint(&fw_node, 100).await;
    let lb_addr = lb_ep.addr();
    {
        let ep = fw_ep.clone();
        fw_ep.rpc().register(IMG_REQ, move |ctx| {
            let ep = ep.clone();
            async move {
                // Permission check reads only the header byte.
                match ctx.payload.get(0) {
                    Some(OP_UNAUTHORIZED) | None => Value::Inline(Bytes::new()).encode(),
                    Some(_) => match ep.rpc().call(lb_addr, IMG_REQ, ctx.payload).await {
                        Ok(resp) => resp,
                        Err(_) => Value::Inline(Bytes::new()).encode(),
                    },
                }
            }
        });
    }

    let client_node = cluster.add_server("client");
    let client = cluster.endpoint(&client_node, 100).await;
    ImagePipeline {
        client,
        entry: fw_ep.addr(),
        service_nodes: vec![
            fw_node,
            lb_node,
            proc_nodes[0].clone(),
            proc_nodes[1].clone(),
            transcode_node,
            compress_node,
        ],
    }
}

impl ImagePipeline {
    /// Issue one request from the default client; returns the processed
    /// image bytes.
    pub async fn request(&self, op: u8, image: &Bytes) -> DmResult<Bytes> {
        self.request_via(&self.client, op, image).await
    }

    /// Issue one request from an arbitrary client endpoint (load can be
    /// offered from several client servers, as the paper does).
    pub async fn request_via(&self, client: &Rc<DmRpc>, op: u8, image: &Bytes) -> DmResult<Bytes> {
        let v = client.make_value(image.clone()).await?;
        let resp = client
            .rpc()
            .call(self.entry, IMG_REQ, op_value(op, &v))
            .await
            .map_err(|_| DmError::Transport)?;
        let rv = Value::decode(&resp)?;
        if rv.is_empty() {
            client.release(&v).await?;
            return Err(DmError::InvalidRef);
        }
        let out = client.fetch(&rv).await?;
        client.release_async(rv);
        client.release_async(v);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, SystemKind};
    use simcore::Sim;

    fn run_one(kind: SystemKind, op: u8, size: usize) -> (usize, Vec<u64>) {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 13);
            let app = build_pipeline(&cluster).await;
            cluster.reset_stats();
            let image = Bytes::from((0..size).map(|i| (i % 200) as u8).collect::<Vec<_>>());
            let out = app.request(op, &image).await.unwrap();
            let traffic = app
                .service_nodes
                .iter()
                .map(|n| n.mem.traffic_bytes())
                .collect();
            (out.len(), traffic)
        })
    }

    #[test]
    fn transcode_keeps_size_compress_halves() {
        for kind in SystemKind::ALL {
            let (t_len, _) = run_one(kind, OP_TRANSCODE, 16384);
            assert_eq!(t_len, 16384, "{kind:?}");
            let (c_len, _) = run_one(kind, OP_COMPRESS, 16384);
            assert_eq!(c_len, 8192, "{kind:?}");
        }
    }

    #[test]
    fn transcode_output_is_input_plus_one() {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 13);
            let app = build_pipeline(&cluster).await;
            let image = Bytes::from(vec![7u8; 8192]);
            let out = app.request(OP_TRANSCODE, &image).await.unwrap();
            assert!(out.iter().all(|&b| b == 8), "kernel applied to all bytes");
        });
    }

    #[test]
    fn unauthorized_rejected_at_firewall() {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::Erpc, 0, ClusterConfig::default(), 13);
            let app = build_pipeline(&cluster).await;
            let image = Bytes::from(vec![1u8; 4096]);
            let r = app.request(OP_UNAUTHORIZED, &image).await;
            assert!(r.is_err());
            // The workers never saw the request.
            assert_eq!(app.service_nodes[4].mem.traffic_bytes(), 0);
            assert_eq!(app.service_nodes[5].mem.traffic_bytes(), 0);
        });
    }

    #[test]
    fn movers_carry_no_image_data_under_dmrpc() {
        let (_, erpc) = run_one(SystemKind::Erpc, OP_TRANSCODE, 65536);
        let (_, dm) = run_one(SystemKind::DmNet, OP_TRANSCODE, 65536);
        // Firewall (idx 0) and LB (idx 1) are pure movers.
        assert!(erpc[0] > 65536 && erpc[1] > 65536, "{erpc:?}");
        assert!(dm[0] < 4096 && dm[1] < 4096, "{dm:?}");
        // The transcode worker touched the image either way.
        assert!(erpc[4] >= 65536 && dm[4] >= 65536);
    }
}
