//! Workspace-level property tests: random request patterns through full
//! deployments keep application-observable behavior identical across the
//! three systems, `Value` semantics hold under arbitrary data, and no
//! decoder can tell where a message's head ends.

use apps::chain::build_chain;
use apps::cluster::{Cluster, ClusterConfig, SystemKind};
use apps::codec::{op_value, parse_id_value, parse_op_value};
use bytes::Bytes;
use dmnet::proto::{split_response, Reader, Response};
use dmrpc::Value;
use proptest::prelude::*;
use rpclib::Message;
use simcore::Sim;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For a random chain length and random payloads (spanning the
    /// inline/by-ref threshold), all three systems compute identical
    /// checksums.
    #[test]
    fn systems_agree_on_random_workloads(
        length in 1usize..6,
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..20_000),
            1..5
        ),
    ) {
        let mut answers: Vec<Vec<u64>> = Vec::new();
        for kind in SystemKind::ALL {
            let payloads = payloads.clone();
            let sim = Sim::new();
            let sums = sim.block_on(async move {
                let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 42);
                let app = build_chain(&cluster, length).await;
                let mut sums = Vec::new();
                for p in &payloads {
                    sums.push(app.request(&Bytes::from(p.clone())).await.expect("request"));
                }
                sums
            });
            answers.push(sums);
        }
        prop_assert_eq!(&answers[0], &answers[1], "eRPC vs DmRPC-net");
        prop_assert_eq!(&answers[0], &answers[2], "eRPC vs DmRPC-CXL");
        // And the checksums are actually right.
        for (p, &s) in payloads.iter().zip(&answers[0]) {
            let want: u64 = p.iter().map(|&b| b as u64).sum();
            prop_assert_eq!(s, want);
        }
    }

    /// make_value/fetch is the identity for arbitrary bytes on both DM
    /// backends, and a shared value read by many parties stays immutable
    /// while any of them overwrite their own view.
    #[test]
    fn value_roundtrip_and_immutability(
        data in proptest::collection::vec(any::<u8>(), 0..50_000),
        kind_sel in 0usize..2,
        write_frac in 0.0f64..=1.0,
    ) {
        let kind = [SystemKind::DmNet, SystemKind::DmCxl][kind_sel];
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(kind, 1, ClusterConfig::default(), 9);
            let a = cluster.add_server("a");
            let b = cluster.add_server("b");
            let writer = cluster.endpoint(&a, 100).await;
            let reader = cluster.endpoint(&b, 100).await;
            let data = Bytes::from(data);
            let v = writer.make_value(data.clone()).await.expect("make_value");
            // Reader sees the exact bytes.
            assert_eq!(reader.fetch(&v).await.expect("fetch"), data);
            // Reader overwrites part of its own view...
            reader.overwrite_fraction(&v, write_frac).await.expect("overwrite");
            // ...and the shared value still reads back pristine everywhere.
            assert_eq!(writer.fetch(&v).await.expect("fetch"), data);
            assert_eq!(reader.fetch(&v).await.expect("fetch"), data);
            writer.release(&v).await.expect("release");
        });
    }

    /// Encoded values survive a hostile wire: decoding arbitrary bytes
    /// never panics, and any value that decodes re-encodes identically.
    #[test]
    fn value_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let b = Message::from(Bytes::from(bytes));
        if let Ok(v) = Value::decode(&b) {
            let enc = v.encode();
            prop_assert_eq!(Value::decode(&enc).unwrap(), v);
        }
    }

    /// The seam between a message's head and body is not part of the
    /// message: every decoder gives the same answer for every split point
    /// of the same bytes — the sender's own (a response head, an op byte
    /// and a value tag in front of a payload), none at all (a datagram from
    /// outside this stack arrives in one piece), or one inside a field.
    /// Random bytes half the time, a well-formed message the other half, so
    /// both the error and the success arms are compared.
    #[test]
    fn decoding_is_seam_agnostic(
        noise in proptest::collection::vec(any::<u8>(), 0..200),
        well_formed in any::<bool>(),
        kind in 0usize..3,
    ) {
        let payload = Bytes::from(noise.clone());
        let flat = match (well_formed, kind) {
            (false, _) => payload,
            (true, 0) => Response::new().u64(7).body(payload).ok(3, &[5, 6]).into_bytes(),
            (true, 1) => op_value(9, &Value::Inline(payload)).into_bytes(),
            (true, _) => op_value(9, &Value::Inline(payload)).prefixed(&[1, 2, 3, 4, 5, 6, 7]).into_bytes(),
        };
        let decode = |m: &Message| {
            let (deaths, reply) = split_response(m);
            let mut r = Reader::of(m);
            let fields = (r.u8(), r.u64(), r.u16(), r.u32(), r.take(5).map(|c| c.into_owned()));
            let rest = r.rest_of(m);
            (
                (deaths, reply),
                Value::decode(m),
                parse_op_value(m),
                parse_id_value(m),
                (fields, rest),
            )
        };
        let whole = decode(&Message::from(flat.clone()));
        for cut in 0..=flat.len() {
            // The head is the sender's own buffer; the body shared.
            let split = Message::new(flat[..cut].to_vec(), flat.slice(cut..));
            prop_assert_eq!(decode(&split), whole.clone(), "cut {} of {}", cut, flat.len());
        }
    }
}
