//! Property-based tests for the message-passing substrate and its
//! collectives.

use bytes::Bytes;
use proptest::prelude::*;
use vr_comm::{broadcast, gather_tolerant, run_group, scatter, CostModel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn broadcast_delivers_arbitrary_payloads(
        p in 1usize..12,
        root_seed in any::<usize>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let root = root_seed % p;
        let expect = payload.clone();
        let out = run_group(p, CostModel::free(), move |ep| {
            let data = (ep.rank() == root).then(|| Bytes::from(payload.clone()));
            broadcast(ep, root, 1, data).unwrap().to_vec()
        });
        for got in &out.results {
            prop_assert_eq!(got, &expect);
        }
    }

    #[test]
    fn scatter_then_gather_is_identity(
        p in 1usize..10,
        seed in any::<u8>(),
    ) {
        let out = run_group(p, CostModel::free(), move |ep| {
            let payloads = (ep.rank() == 0).then(|| {
                (0..ep.size())
                    .map(|r| Bytes::from(vec![seed.wrapping_add(r as u8); r % 7 + 1]))
                    .collect::<Vec<_>>()
            });
            let mine = scatter(ep, 0, 2, payloads).unwrap();
            let mut all = Vec::new();
            gather_tolerant(ep, 0, 3, mine, |rank, part| all.push((rank, part))).unwrap();
            all
        });
        let all = &out.results[0];
        prop_assert_eq!(all.len(), p);
        for (i, &(r, ref part)) in all.iter().enumerate() {
            prop_assert_eq!(i, r);
            let part = part.as_ref().expect("no rank dies");
            prop_assert_eq!(part.len(), r % 7 + 1);
            prop_assert!(part.iter().all(|&b| b == seed.wrapping_add(r as u8)));
        }
    }

    #[test]
    fn traffic_conservation_under_random_exchanges(
        p in 2usize..8,
        rounds in 1usize..5,
    ) {
        // Every rank exchanges with a rotating partner each round; total
        // sent must equal total received across the group.
        let out = run_group(p, CostModel::sp2(), move |ep| {
            for round in 1..=rounds {
                // Fixed involution pairing (r ^ 1); an odd tail rank idles.
                let peer = ep.rank() ^ 1;
                if peer < ep.size() {
                    let tag = round as u32;
                    ep.send(peer, tag, Bytes::from(vec![0u8; round * 10])).unwrap();
                    ep.recv(peer, tag).unwrap();
                }
            }
        });
        let sent: u64 = out.stats.iter().map(|s| s.sent_bytes).sum();
        let recvd: u64 = out.stats.iter().map(|s| s.recv_bytes).sum();
        prop_assert_eq!(sent, recvd);
    }

    #[test]
    fn cost_model_is_monotone_in_bytes(t_s in 0.0f64..1e-3, t_c in 0.0f64..1e-6, a in 0usize..100_000, b in 0usize..100_000) {
        let m = CostModel { t_s, t_c };
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(m.message_seconds(lo) <= m.message_seconds(hi));
    }
}
