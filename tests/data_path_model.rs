//! The data path in closed form: what one request moves, written as a
//! function of the argument size, the bytes written, the MTU and the header
//! sizes of DESIGN.md §5, and asserted exactly against a quiet simulated
//! cluster. A mismatch is either a term DESIGN.md §5 must name or a bug.
//!
//! Cells so far: one Fig. 8 sharebench request on DmRPC-net (a 32 KiB block
//! published by reference, the callee overwriting its leading 0–100 %), one
//! five-service chain request on DmRPC-net per argument size (the last
//! service's key-only `READ_REF`), and one image-pipeline request on
//! DmRPC-CXL per image size and operation.

use std::time::Duration;

use apps::chain::build_chain;
use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::image_pipeline::{build_pipeline, OP_COMPRESS, OP_TRANSCODE};
use apps::sharebench::build_sharebench;
use bytes::Bytes;
use dmcommon::PAGE_SIZE;
use rpclib::wire::HEADER_BYTES;
use simcore::Sim;
use simnet::{NodeId, WIRE_HEADER_BYTES};

const PS: u64 = PAGE_SIZE as u64;

/// The shared block of the sharebench (and of the `share_cow` workload).
const BLOCK: u64 = 32 * 1024;

/// A response's `[status u8][count u64]`, in front of every DM reply.
const RESPONSE_HEAD: u64 = 9;
/// A `GlobalPid` and a `u64` field of the DM protocol.
const PID: u64 = 4;
const U64: u64 = 8;
/// A `Ref::Net` on the wire: `[tag][server][key u64][len u64]`.
const NET_REF: u64 = 1 + 1 + 8 + 8;

/// One RPC of a request: request and response lengths, and whether a DM
/// server answers it (its NIC DMA is DM-server memory traffic).
struct Rpc {
    req: u64,
    resp: u64,
    dm: bool,
}

/// Packets of a message of `len` bytes: one per MTU, and at least one.
fn packets(len: u64, mtu: u64) -> u64 {
    len.div_ceil(mtu).max(1)
}

/// NIC tx bytes of a message of `len` bytes: the bytes plus, per packet,
/// the RPC header and the modeled Ethernet/IP/UDP framing.
fn on_wire(len: u64, mtu: u64) -> u64 {
    len + packets(len, mtu) * (HEADER_BYTES as u64 + WIRE_HEADER_BYTES)
}

/// Every RPC of one sharebench request whose callee writes `write` bytes of
/// a `block`-byte ref. The callee maps, writes and frees only when it
/// writes something; the caller's release rides a coalesced `BATCH` of one.
fn sharebench_rpcs(block: u64, write: u64) -> Vec<Rpc> {
    let rpc = |req, resp, dm| Rpc { req, resp, dm };
    let mut rpcs = vec![
        // PUT_REF: the bytes alone → the key.
        rpc(block, RESPONSE_HEAD + U64, true),
        // SHARE_REQ: [pct][value tag][ref] → "ok".
        rpc(1 + 1 + NET_REF, 2, false),
        // BATCH: [count u32][key] → nothing.
        rpc(4 + U64, RESPONSE_HEAD, true),
    ];
    if write > 0 {
        rpcs.extend([
            // MAP_REF: [pid][key] → [va][len].
            rpc(PID + U64, RESPONSE_HEAD + 2 * U64, true),
            // WRITE: [pid][va] and the bytes → nothing.
            rpc(PID + U64 + write, RESPONSE_HEAD, true),
            // FREE: [pid][va] → nothing.
            rpc(PID + U64, RESPONSE_HEAD, true),
        ]);
    }
    rpcs
}

/// What one request moved: DM-server memory traffic, NIC tx bytes summed
/// over every node, and datagrams delivered.
#[derive(Debug, PartialEq, Eq)]
struct Moved {
    dm_bytes: u64,
    tx_bytes: u64,
    datagrams: u64,
}

/// The model. DM-server memory sees the NIC DMA of every message it
/// receives and sends, the published block and the written bytes stored,
/// and each copied page read and written once.
fn sharebench_model(block: u64, write: u64, pages_copied: u64, mtu: u64) -> Moved {
    let rpcs = sharebench_rpcs(block, write);
    let dm_dma: u64 = rpcs.iter().filter(|r| r.dm).map(|r| r.req + r.resp).sum();
    Moved {
        dm_bytes: dm_dma + block + write + 2 * pages_copied * PS,
        tx_bytes: rpcs
            .iter()
            .map(|r| on_wire(r.req, mtu) + on_wire(r.resp, mtu))
            .sum(),
        datagrams: rpcs
            .iter()
            .map(|r| packets(r.req, mtu) + packets(r.resp, mtu))
            .sum(),
    }
}

/// One sharebench request at `write_pct` on a quiet two-server DmRPC-net
/// cluster, after deployment.
fn sharebench_measured(write_pct: u8) -> Moved {
    Sim::new().block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 5);
        let app = build_sharebench(&cluster).await;
        let block = Bytes::from(vec![7u8; BLOCK as usize]);
        cluster.reset_stats();
        let delivered = cluster.net.delivered();
        app.request(&block, write_pct).await.expect("request");
        // The coalesced release goes out after its flush window.
        simcore::sleep(Duration::from_millis(1)).await;
        let nodes = (0..cluster.net.node_count() as u32).map(NodeId);
        Moved {
            dm_bytes: cluster.dm_traffic_bytes(),
            tx_bytes: nodes.map(|n| cluster.net.node_tx_bytes(n)).sum(),
            datagrams: cluster.net.delivered() - delivered,
        }
    })
}

/// Each write percentage with the bytes the callee writes and the pages it
/// copies: a COW fault copies a shared page only when the write leaves some
/// of it standing. 10 % ends inside page 0, which is copied; 25 % and up end
/// on a page boundary, so every page they touch is replaced whole.
#[test]
fn a_sharebench_request_moves_what_the_model_says() {
    let mtu = ClusterConfig::default().rpc.mtu as u64;
    for (pct, write, pages_copied) in [
        (0, 0, 0),
        (10, 3277, 1),
        (25, 2 * PS, 0),
        (50, 4 * PS, 0),
        (100, BLOCK, 0),
    ] {
        assert_eq!(
            sharebench_measured(pct),
            sharebench_model(BLOCK, write, pages_copied, mtu),
            "{pct} % writes"
        );
    }
}

/// Every RPC of one request through a chain of `hops` services with an
/// argument of `len` bytes (at least a page, so it goes by reference): the
/// client publishes it, the ref rides every hop, the last service reads
/// the whole ref by its key alone, the checksum (an inline u64) comes back
/// along the chain, and the client's release rides a `BATCH` of one.
fn chain_rpcs(len: u64, hops: u64) -> Vec<Rpc> {
    let rpc = |req, resp, dm| Rpc { req, resp, dm };
    let mut rpcs = vec![
        // PUT_REF: the bytes alone → the key.
        rpc(len, RESPONSE_HEAD + U64, true),
        // READ_REF: the key → the whole ref.
        rpc(U64, RESPONSE_HEAD + len, true),
        // BATCH: [count u32][key] → nothing.
        rpc(4 + U64, RESPONSE_HEAD, true),
    ];
    // CHAIN_REQ, once per hop: [value tag][ref] → [value tag][u64].
    rpcs.extend((0..hops).map(|_| rpc(1 + NET_REF, 1 + U64, false)));
    rpcs
}

/// The model: DM-server memory sees the NIC DMA of every message it
/// receives and sends, the published bytes stored and the ref read out.
fn chain_model(len: u64, hops: u64, mtu: u64) -> Moved {
    let rpcs = chain_rpcs(len, hops);
    let dm_dma: u64 = rpcs.iter().filter(|r| r.dm).map(|r| r.req + r.resp).sum();
    Moved {
        dm_bytes: dm_dma + 2 * len,
        tx_bytes: rpcs
            .iter()
            .map(|r| on_wire(r.req, mtu) + on_wire(r.resp, mtu))
            .sum(),
        datagrams: rpcs
            .iter()
            .map(|r| packets(r.req, mtu) + packets(r.resp, mtu))
            .sum(),
    }
}

/// One chain request of `len` bytes through `hops` services on a quiet
/// two-server DmRPC-net cluster, after deployment.
fn chain_measured(len: u64, hops: usize) -> Moved {
    Sim::new().block_on(async move {
        let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 5);
        let app = build_chain(&cluster, hops).await;
        let arg = Bytes::from(vec![3u8; len as usize]);
        cluster.reset_stats();
        let delivered = cluster.net.delivered();
        assert_eq!(app.request(&arg).await.expect("request"), 3 * len);
        // The coalesced release goes out after its flush window.
        simcore::sleep(Duration::from_millis(1)).await;
        let nodes = (0..cluster.net.node_count() as u32).map(NodeId);
        Moved {
            dm_bytes: cluster.dm_traffic_bytes(),
            tx_bytes: nodes.map(|n| cluster.net.node_tx_bytes(n)).sum(),
            datagrams: cluster.net.delivered() - delivered,
        }
    })
}

/// The `chain_byref` workload's path at each by-reference size it draws.
#[test]
fn a_chain_request_moves_what_the_model_says() {
    let mtu = ClusterConfig::default().rpc.mtu as u64;
    for kib in [4, 16, 64, 256] {
        let len = kib * 1024;
        assert_eq!(
            chain_measured(len, 5),
            chain_model(len, 5, mtu),
            "{kib} KiB"
        );
    }
}

/// What one image request moved: G-FAM traffic, compute-node memory traffic
/// summed over every node, NIC tx bytes and datagrams delivered; and the
/// G-FAM bytes host reads got as a view of the published buffer and those
/// they had to gather.
#[derive(Debug, PartialEq, Eq)]
struct ImageMoved {
    gfam_bytes: u64,
    read_viewed: u64,
    read_gathered: u64,
    node_bytes: u64,
    tx_bytes: u64,
    datagrams: u64,
}

/// A value of `len` bytes on the wire: `[tag]`, then the bytes inline below
/// one page, else a `Ref::Cxl` (`[tag][len u64][n u32]` and a `u32` a page).
fn cxl_value(len: u64) -> u64 {
    1 + if len < PS {
        len
    } else {
        1 + U64 + 4 + 4 * len.div_ceil(PS)
    }
}

/// The model of one image request of `input` bytes whose worker returns
/// `output` bytes. The request `[op][value]` and the response `[value]`
/// each cross four hops (client → firewall → load balancer → image
/// processing → worker), so eight messages. G-FAM carries a by-reference
/// value twice, once published and once read, and the read is all a view
/// of the buffer it was published from (100 % viewed); compute-node memory
/// sees the NIC DMA of each message at both ends and the worker's kernel
/// streaming its input and output once.
fn image_model(input: u64, output: u64, mtu: u64) -> ImageMoved {
    let by_ref = |len: u64| if len < PS { 0 } else { len };
    let (req, resp) = (1 + cxl_value(input), cxl_value(output));
    ImageMoved {
        gfam_bytes: 2 * by_ref(input) + 2 * by_ref(output),
        read_viewed: by_ref(input) + by_ref(output),
        read_gathered: 0,
        node_bytes: 4 * 2 * (req + resp) + input + output,
        tx_bytes: 4 * (on_wire(req, mtu) + on_wire(resp, mtu)),
        datagrams: 4 * (packets(req, mtu) + packets(resp, mtu)),
    }
}

/// One image request on a quiet DmRPC-CXL cluster, after deployment and
/// after each process's owned-free FIFO is warm enough that no page grant
/// or return rides the measured request.
fn image_measured(op: u8, input: u64) -> ImageMoved {
    Sim::new().block_on(async move {
        let cluster = Cluster::new(SystemKind::DmCxl, 0, ClusterConfig::default(), 5);
        let app = build_pipeline(&cluster).await;
        for ep in cluster.endpoints() {
            let warm = ep.make_value(Bytes::from(vec![0u8; 96 * PAGE_SIZE])).await;
            ep.release(&warm.expect("warm-up publish"))
                .await
                .expect("release");
        }
        simcore::sleep(Duration::from_millis(1)).await;
        let image = Bytes::from(vec![7u8; input as usize]);
        cluster.reset_stats();
        let delivered = cluster.net.delivered();
        let gfam = cluster.cxl_fabric().expect("a DmRPC-CXL cluster").gfam();
        let reads = (gfam.read_viewed_bytes(), gfam.read_gathered_bytes());
        app.request(op, &image).await.expect("request");
        // The two releases are fire-and-forget.
        simcore::sleep(Duration::from_millis(1)).await;
        let nodes = (0..cluster.net.node_count() as u32).map(NodeId);
        ImageMoved {
            gfam_bytes: cluster.dm_traffic_bytes(),
            read_viewed: gfam.read_viewed_bytes() - reads.0,
            read_gathered: gfam.read_gathered_bytes() - reads.1,
            node_bytes: cluster
                .servers()
                .iter()
                .map(|n| n.mem.traffic_bytes())
                .sum(),
            tx_bytes: nodes.map(|n| cluster.net.node_tx_bytes(n)).sum(),
            datagrams: cluster.net.delivered() - delivered,
        }
    })
}

/// Every image size of the `image_cxl` workload, transcoded (same-size
/// output) and compressed (half-size output; 4 KiB compresses to 2 KiB,
/// which returns inline).
#[test]
fn an_image_cxl_request_moves_what_the_model_says() {
    let mtu = ClusterConfig::default().rpc.mtu as u64;
    for kib in [4, 8, 32, 128] {
        let input = kib * 1024;
        for (op, output) in [(OP_TRANSCODE, input), (OP_COMPRESS, input / 2)] {
            assert_eq!(
                image_measured(op, input),
                image_model(input, output, mtu),
                "{kib} KiB, op {op}"
            );
        }
    }
}
