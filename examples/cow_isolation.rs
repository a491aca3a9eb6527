//! Copy-on-write isolation, shown directly on the Table-II DM API: two
//! processes share one region through a `Ref`; a write by either is
//! invisible to the other, and only pages written in part are copied.
//!
//! ```text
//! cargo run --example cow_isolation
//! ```

use bytes::Bytes;
use dmnet::{start_pool, DmNetClient, DmServerConfig};
use memsim::ModelParams;
use rpclib::RpcBuilder;
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig};

fn main() {
    let sim = Sim::new();
    sim.block_on(async {
        let net = Network::new(FabricConfig::default(), 3);
        let dm_node = net.add_node("dm0", NicConfig::default());
        let a_node = net.add_node("alice", NicConfig::default());
        let b_node = net.add_node("bob", NicConfig::default());

        let params = ModelParams::new();
        let pool = start_pool(&net, &[dm_node], &params, DmServerConfig::default());
        let pool_addrs = vec![pool[0].addr()];

        let alice = DmNetClient::connect(
            RpcBuilder::new(&net, a_node, 100).build(),
            pool_addrs.clone(),
        )
        .await
        .expect("alice connects");
        let bob = DmNetClient::connect(RpcBuilder::new(&net, b_node, 100).build(), pool_addrs)
            .await
            .expect("bob connects");

        // Alice publishes 4 pages of data (paper Listing 1, lines 2-7).
        let addr = alice.ralloc(4 * 4096).await.expect("ralloc");
        alice
            .rwrite(addr, &Bytes::from(vec![b'A'; 4 * 4096]))
            .await
            .expect("rwrite");
        let r = alice.create_ref(addr, 4 * 4096).await.expect("create_ref");
        println!("alice shared 16 KiB as a {}-byte Ref", r.wire_bytes());

        // Bob maps it and reads — zero copies so far.
        let bob_addr = bob.map_ref(&r).await.expect("map_ref");
        let view = bob.rread(bob_addr, 8).await.expect("rread");
        println!("bob reads:  {:?} (shared pages)", &view[..]);

        // Bob writes one byte in page 2 -> that page is copied before the
        // byte lands. Bob overwrites page 3 whole -> it gets a fresh page
        // and nothing is copied: no old byte would survive the write.
        for (page, data) in [(2, vec![b'B']), (3, vec![b'B'; 4096])] {
            // The same write twice: the second finds the page private, so
            // the DRAM traffic the first made beyond it is the copy (read +
            // write).
            let data = Bytes::from(data);
            let mut traffic = [0; 2];
            for t in &mut traffic {
                let before = pool[0].memory().traffic_bytes();
                bob.rwrite(bob_addr.offset(page * 4096), &data)
                    .await
                    .expect("write");
                *t = pool[0].memory().traffic_bytes() - before;
            }
            let copied = (traffic[0] - traffic[1]) / 2;
            println!(
                "bob writes {} B into page {page} -> server copied {copied} bytes",
                data.len()
            );

            // Isolation: alice still sees 'A' there.
            let alice_view = alice
                .rread(addr.offset(page * 4096), 1)
                .await
                .expect("rread");
            let bob_view = bob
                .rread(bob_addr.offset(page * 4096), 1)
                .await
                .expect("rread");
            println!(
                "page {page}, first byte — alice: {:?}, bob: {:?}",
                alice_view[0] as char, bob_view[0] as char
            );
            assert_eq!(alice_view[0], b'A');
            assert_eq!(bob_view[0], b'B');
        }

        // Tear down and prove nothing leaked.
        alice.rfree(addr).await.expect("rfree");
        bob.rfree(bob_addr).await.expect("rfree");
        alice.release_ref(&r).await.expect("release");
        pool[0].with_page_manager(|pm| {
            pm.check_invariants();
            assert_eq!(pm.free_pages(), pm.capacity_pages());
        });
        println!("all pages reclaimed; invariants hold");
    });
}
