//! Edge-case tests for the dmrpc public API: mismatched backends, double
//! release, zero-sized values and threshold boundaries.

use std::rc::Rc;

use bytes::Bytes;
use dmcxl::{CxlFabric, CxlHostConfig};
use dmnet::{start_pool, DmNetClient, DmServerConfig};
use dmrpc::{DmError, DmHandle, DmRpc, Value, DEFAULT_THRESHOLD};
use memsim::ModelParams;
use rpclib::RpcBuilder;
use simcore::Sim;
use simnet::{FabricConfig, Network, NicConfig};

fn net_rig() -> (Sim, Network) {
    (Sim::new(), Network::new(FabricConfig::default(), 7))
}

#[test]
fn mismatched_backend_refs_rejected() {
    let (sim, net) = net_rig();
    sim.block_on(async move {
        let dm_node = net.add_node("dm", NicConfig::default());
        let c_node = net.add_node("c", NicConfig::default());
        let coord = net.add_node("coord", NicConfig::default());
        let params = ModelParams::new();
        let pool = start_pool(&net, &[dm_node], &params, DmServerConfig::default());
        let fabric = CxlFabric::new(&net, coord, 256, params, CxlHostConfig::default());

        let rpc = RpcBuilder::new(&net, c_node, 100).build();
        let net_dm = DmHandle::Net(Rc::new(
            DmNetClient::connect(rpc.clone(), vec![pool[0].addr()])
                .await
                .unwrap(),
        ));
        let cxl_dm = DmHandle::Cxl(fabric.new_host(rpc));

        // A ref minted by one backend must be rejected by the other.
        let net_ref = net_dm.put(&Bytes::from(vec![1u8; 8192])).await.unwrap();
        let cxl_ref = cxl_dm.put(&Bytes::from(vec![2u8; 8192])).await.unwrap();
        assert_eq!(
            cxl_dm.map_ref(&net_ref).await.unwrap_err(),
            DmError::InvalidRef
        );
        assert_eq!(
            net_dm.map_ref(&cxl_ref).await.unwrap_err(),
            DmError::InvalidRef
        );
        net_dm.release_ref(&net_ref).await.unwrap();
        cxl_dm.release_ref(&cxl_ref).await.unwrap();
    });
}

#[test]
fn a_cxl_put_larger_than_the_device_fails_and_leaves_nothing_behind() {
    let (sim, net) = net_rig();
    sim.block_on(async move {
        let coord = net.add_node("coord", NicConfig::default());
        let c_node = net.add_node("c", NicConfig::default());
        let capacity = 8;
        let fabric = CxlFabric::new(
            &net,
            coord,
            capacity,
            ModelParams::new(),
            CxlHostConfig::default(),
        );
        let host = fabric.new_host(RpcBuilder::new(&net, c_node, 100).build());
        let dm = DmHandle::Cxl(host.clone());
        let too_big = Bytes::from(vec![3u8; 2 * capacity * 4096]);
        assert_eq!(dm.put(&too_big).await.unwrap_err(), DmError::OutOfMemory);
        // Let background refills and watermark returns land.
        simcore::sleep(std::time::Duration::from_millis(1)).await;
        assert!(host.pte_snapshot().is_empty(), "a failed put left PTEs");
        assert_eq!(
            host.owned_free_pages() + fabric.coordinator().free_pages(),
            capacity,
            "a failed put kept pages"
        );
        dmcxl::check_fabric_invariants(fabric.gfam(), fabric.coordinator(), &[host], &[]);
        // The device is whole again: a put that fits succeeds.
        let fits = dm
            .put(&Bytes::from(vec![4u8; capacity * 4096]))
            .await
            .unwrap();
        let back = dm.get_all(&fits).await.unwrap();
        assert_eq!(&back[..], &vec![4u8; capacity * 4096][..]);
    });
}

#[test]
fn an_empty_put_is_an_invalid_address_on_both_backends() {
    let (sim, net) = net_rig();
    sim.block_on(async move {
        let dm_node = net.add_node("dm", NicConfig::default());
        let c_node = net.add_node("c", NicConfig::default());
        let coord = net.add_node("coord", NicConfig::default());
        let params = ModelParams::new();
        let pool = start_pool(&net, &[dm_node], &params, DmServerConfig::default());
        let fabric = CxlFabric::new(&net, coord, 64, params, CxlHostConfig::default());
        let rpc = RpcBuilder::new(&net, c_node, 100).build();
        let net_dm = DmHandle::Net(Rc::new(
            DmNetClient::connect(rpc.clone(), vec![pool[0].addr()])
                .await
                .unwrap(),
        ));
        let host = fabric.new_host(rpc);
        let cxl_dm = DmHandle::Cxl(host.clone());
        for dm in [&net_dm, &cxl_dm] {
            assert_eq!(
                dm.put(&Bytes::new()).await.unwrap_err(),
                DmError::InvalidAddress
            );
        }
        assert!(host.pte_snapshot().is_empty());
        assert_eq!(host.stats().faults.get(), 0);
    });
}

#[test]
fn double_release_is_an_error_not_corruption() {
    let (sim, net) = net_rig();
    sim.block_on(async move {
        let dm_node = net.add_node("dm", NicConfig::default());
        let c_node = net.add_node("c", NicConfig::default());
        let params = ModelParams::new();
        let pool = start_pool(&net, &[dm_node], &params, DmServerConfig::default());
        let rpc = RpcBuilder::new(&net, c_node, 100).build();
        let dm = DmHandle::Net(Rc::new(
            DmNetClient::connect(rpc, vec![pool[0].addr()])
                .await
                .unwrap(),
        ));
        let r = dm.put(&Bytes::from(vec![1u8; 8192])).await.unwrap();
        dm.release_ref(&r).await.unwrap();
        assert_eq!(dm.release_ref(&r).await.unwrap_err(), DmError::InvalidRef);
        // Reading a released ref is an error, never stale data.
        assert_eq!(dm.get_all(&r).await.unwrap_err(), DmError::InvalidRef);
        pool[0].with_page_manager(|pm| pm.check_invariants());
    });
}

#[test]
fn threshold_boundary_is_exact() {
    let (sim, net) = net_rig();
    sim.block_on(async move {
        let dm_node = net.add_node("dm", NicConfig::default());
        let c_node = net.add_node("c", NicConfig::default());
        let params = ModelParams::new();
        let pool = start_pool(&net, &[dm_node], &params, DmServerConfig::default());
        let rpc = RpcBuilder::new(&net, c_node, 100).build();
        let dm = DmNetClient::connect(rpc.clone(), vec![pool[0].addr()])
            .await
            .unwrap();
        let ep = DmRpc::new(rpc, DmHandle::Net(Rc::new(dm)));
        let just_under = ep
            .make_value(Bytes::from(vec![1u8; DEFAULT_THRESHOLD as usize - 1]))
            .await
            .unwrap();
        let exactly = ep
            .make_value(Bytes::from(vec![1u8; DEFAULT_THRESHOLD as usize]))
            .await
            .unwrap();
        assert!(!just_under.is_by_ref(), "size < threshold stays inline");
        assert!(exactly.is_by_ref(), "size == threshold goes by ref");
        ep.release(&exactly).await.unwrap();
    });
}

#[test]
fn empty_value_stays_inline_and_roundtrips() {
    let (sim, net) = net_rig();
    sim.block_on(async move {
        let c_node = net.add_node("c", NicConfig::default());
        let ep = DmRpc::baseline(RpcBuilder::new(&net, c_node, 100).build());
        let v = ep.make_value(Bytes::new()).await.unwrap();
        assert!(v.is_empty());
        assert_eq!(ep.fetch(&v).await.unwrap(), Bytes::new());
        assert_eq!(ep.overwrite_fraction(&v, 1.0).await.unwrap(), 0);
    });
}

#[test]
fn fetch_byref_without_dm_backend_fails_cleanly() {
    let (sim, net) = net_rig();
    sim.block_on(async move {
        let c_node = net.add_node("c", NicConfig::default());
        let ep = DmRpc::baseline(RpcBuilder::new(&net, c_node, 100).build());
        let bogus = Value::ByRef(dmcommon::Ref::Net {
            server: dmcommon::DmServerId(0),
            key: 1,
            len: 4096,
        });
        assert_eq!(ep.fetch(&bogus).await.unwrap_err(), DmError::InvalidRef);
        assert_eq!(ep.release(&bogus).await.unwrap_err(), DmError::InvalidRef);
    });
}
