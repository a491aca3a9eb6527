//! The paper's Listing 1, line for line: Client → Load balancer →
//! {Worker 1 | Worker 2}, using the raw Table-II API exactly as printed
//! (`ralloc` → `rwrite` → `create_ref` → RPC → `rfree`; worker: `map_ref`
//! → `rread` → aggregate → `rfree`).
//!
//! ```text
//! cargo run --example listing1
//! ```

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use dmcommon::Ref;
use dmnet::{start_pool, DmNetClient, DmServerConfig};
use memsim::ModelParams;
use rpclib::RpcBuilder;
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig};

const RPC_LB: u8 = 1;
const RPC_WORKER: u8 = 2;
const LEN: usize = 1024; // ints, as in the listing

fn main() {
    let sim = Sim::new();
    sim.block_on(async {
        // ---- deployment: 1 DM server, LB, 2 workers, client -------------
        let net = Network::new(FabricConfig::default(), 4);
        let dm_node = net.add_node("dm", NicConfig::default());
        let lb_node = net.add_node("lb", NicConfig::default());
        let w1_node = net.add_node("worker1", NicConfig::default());
        let w2_node = net.add_node("worker2", NicConfig::default());
        let client_node = net.add_node("client", NicConfig::default());
        let params = ModelParams::new();
        let pool = start_pool(&net, &[dm_node], &params, DmServerConfig::default());
        let pool_addrs = vec![pool[0].addr()];

        // ---- @Worker microservices (Listing 1 lines 20-33) ---------------
        let mut worker_addrs = Vec::new();
        for (name, node) in [("worker1", w1_node), ("worker2", w2_node)] {
            let rpc = RpcBuilder::new(&net, node, 100).build();
            let dm = Rc::new(
                DmNetClient::connect(rpc.clone(), pool_addrs.clone())
                    .await
                    .expect("worker connects to DM"),
            );
            worker_addrs.push(rpc.addr());
            let who = name.to_string();
            rpc.register(RPC_WORKER, move |ctx| {
                let dm = dm.clone();
                let who = who.clone();
                async move {
                    // RPC_Worker(Ref ref):
                    let r = Ref::decode(&ctx.payload.into_bytes()).expect("ref argument");
                    // Map ref to local virtual address that maps to DM.
                    let r_addr = dm.map_ref(&r).await.expect("map_ref");
                    // Read from DM to local buffer.
                    let local_buf = dm.rread(r_addr, r.len()).await.expect("rread");
                    // Working on local memory: aggregating the content.
                    let mut sum: u64 = 0;
                    for chunk in local_buf.chunks_exact(4) {
                        sum += u32::from_le_bytes(chunk.try_into().expect("4 bytes")) as u64;
                    }
                    dm.rfree(r_addr).await.expect("rfree");
                    println!("  [{who}] aggregated {} ints -> sum {sum}", r.len() / 4);
                    Bytes::from(sum.to_le_bytes().to_vec())
                }
            });
        }

        // ---- @Load balancer microservice (lines 10-18) --------------------
        // Forwards requests without touching arguments.
        let lb_rpc = RpcBuilder::new(&net, lb_node, 100).build();
        let worker_1_is_idle = Rc::new(Cell::new(true));
        {
            let flip = worker_1_is_idle.clone();
            let (w1, w2) = (worker_addrs[0], worker_addrs[1]);
            lb_rpc.register(RPC_LB, move |ctx| {
                let flip = flip.clone();
                async move {
                    let target = if flip.get() {
                        flip.set(false);
                        w1 // RPC_Worker_1(ref)
                    } else {
                        flip.set(true);
                        w2 // RPC_Worker_2(ref)
                    };
                    ctx.rpc
                        .call(target, RPC_WORKER, ctx.payload)
                        .await
                        .expect("forward")
                }
            });
        }
        let lb_addr = lb_rpc.addr();

        // ---- @Client microservice (lines 1-9) ------------------------------
        let client_rpc = RpcBuilder::new(&net, client_node, 100).build();
        let dm = DmNetClient::connect(client_rpc.clone(), pool_addrs)
            .await
            .expect("client connects to DM");
        for round in 0..2u32 {
            // int *r_addr = (int*) ralloc(len*sizeof(int));
            let r_addr = dm.ralloc((LEN * 4) as u64).await.expect("ralloc");
            // Fill the disaggregated memory: rwrite(r_addr, local_buf, ...)
            let local_buf: Vec<u8> = (0..LEN as u32)
                .flat_map(|i| (i + round).to_le_bytes())
                .collect();
            dm.rwrite(r_addr, &Bytes::from(local_buf))
                .await
                .expect("rwrite");
            // Ref ref = create_ref(r_addr, len*sizeof(int));
            let r = dm
                .create_ref(r_addr, (LEN * 4) as u64)
                .await
                .expect("create_ref");
            // RPC_LB(ref); — only the Ref travels.
            println!(
                "client round {round}: sending a {}-byte Ref for {} bytes of data",
                r.wire_bytes(),
                r.len()
            );
            let resp = client_rpc
                .call(lb_addr, RPC_LB, r.encode())
                .await
                .expect("RPC_LB");
            let sum = resp.array(0).map(u64::from_le_bytes).expect("8 bytes");
            let expect: u64 = (0..LEN as u64).map(|i| i + round as u64).sum();
            assert_eq!(sum, expect);
            println!("client round {round}: worker returned {sum} (correct)");
            // rfree(r_addr);
            dm.rfree(r_addr).await.expect("rfree");
            dm.release_ref(&r).await.expect("release_ref");
        }
        pool[0].with_page_manager(|pm| {
            pm.check_invariants();
            assert_eq!(pm.free_pages(), pm.capacity_pages());
        });
        println!("listing 1 executed verbatim; all DM pages reclaimed");
    });
}
