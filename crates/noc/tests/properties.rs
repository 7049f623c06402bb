//! Property-based tests: conservation and progress invariants of the NoC.

use gnna_noc::{Address, Network, NocConfig, Packet};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Traffic {
    width: usize,
    height: usize,
    packets: Vec<(Address, Address, usize)>, // src, dst, bytes
}

fn traffic_strategy() -> impl Strategy<Value = Traffic> {
    (1..=4usize, 1..=4usize)
        .prop_flat_map(|(w, h)| {
            let packet = (0..w, 0..h, 0..2usize, 0..w, 0..h, 0..2usize, 1..=512usize).prop_map(
                |(sx, sy, sp, dx, dy, dp, bytes)| {
                    (Address::new(sx, sy, sp), Address::new(dx, dy, dp), bytes)
                },
            );
            (Just(w), Just(h), proptest::collection::vec(packet, 1..24))
        })
        .prop_map(|(width, height, packets)| Traffic {
            width,
            height,
            packets,
        })
}

fn drain_all(net: &mut Network<usize>, w: usize, h: usize) -> u64 {
    let mut tails = 0;
    for y in 0..h {
        for x in 0..w {
            for p in 0..2 {
                while let Some(f) = net.eject(Address::new(x, y, p)) {
                    if f.is_tail() {
                        tails += 1;
                    }
                }
            }
        }
    }
    tails
}

/// Asserts that every node's waiting count is the sum of its ports'
/// ejection queues, and zero when the mesh is idle.
fn check_waiting(net: &Network<usize>, w: usize, h: usize) {
    for y in 0..h {
        for x in 0..w {
            let ports: usize = (0..2)
                .map(|p| net.ejection_pending(Address::new(x, y, p)))
                .sum();
            assert_eq!(net.node_ejection_pending(x, y), ports, "node ({x},{y})");
            if net.is_idle() {
                assert_eq!(ports, 0, "idle mesh holds flits at ({x},{y})");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-node waiting count an endpoint sweep reads to skip a node
    /// is, every cycle, the sum of that node's per-port ejection queues:
    /// while flits pile up (ports drained one flit every `drain_every`
    /// cycles), as they drain, once the mesh is idle, and after
    /// `reset_for_replay` drops whatever was in flight at `reset_at`.
    #[test]
    fn node_waiting_count_is_the_sum_of_its_ports(
        t in traffic_strategy(),
        drain_every in 1..=4u64,
        reset_at in 0..120u64,
    ) {
        let (w, h) = (t.width, t.height);
        let mut net: Network<usize> = Network::new(NocConfig::default(), w, h, |_, _| 2);
        let mut pending: Vec<_> = t.packets.iter().enumerate()
            .map(|(i, &(s, d, b))| Packet::new(s, d, b, i))
            .collect();
        let mut reset = false;
        for cycle in 0..20_000u64 {
            pending.retain_mut(|p| {
                let pkt = std::mem::replace(p, Packet::new(p.src, p.dst, p.size_bytes, p.payload));
                net.try_inject(pkt).is_err()
            });
            net.step();
            check_waiting(&net, w, h);
            if cycle % drain_every == 0 {
                for y in 0..h {
                    for x in 0..w {
                        for p in 0..2 {
                            let _ = net.eject(Address::new(x, y, p));
                        }
                    }
                }
                check_waiting(&net, w, h);
            }
            if cycle == reset_at {
                net.reset_for_replay();
                reset = true;
                prop_assert!(net.is_idle());
                check_waiting(&net, w, h);
            }
            if pending.is_empty() && net.is_idle() {
                break;
            }
        }
        prop_assert!(net.is_idle(), "mesh did not drain");
        if !reset {
            net.reset_for_replay();
            check_waiting(&net, w, h);
        }
    }

    /// Every injected packet is eventually delivered exactly once, and at
    /// quiescence the flit ledger balances.
    #[test]
    fn all_packets_delivered_and_flits_conserved(t in traffic_strategy()) {
        let mut net: Network<usize> = Network::new(NocConfig::default(), t.width, t.height, |_, _| 2);
        // Drop self-addressed packets (same node AND port): a module
        // cannot occupy its own injection and ejection simultaneously in
        // this test harness, but they are still legal — keep them.
        let mut pending: Vec<_> = t.packets.iter().enumerate()
            .map(|(i, &(s, d, b))| Packet::new(s, d, b, i))
            .collect();
        let expected = pending.len() as u64;
        let mut delivered = 0u64;
        let budget = 20_000usize;
        for _ in 0..budget {
            pending.retain_mut(|p| {
                let pkt = std::mem::replace(p, Packet::new(p.src, p.dst, p.size_bytes, p.payload));
                net.try_inject(pkt).is_err()
            });
            net.step();
            delivered += drain_all(&mut net, t.width, t.height);
            if delivered == expected && pending.is_empty() && net.is_idle() {
                break;
            }
        }
        prop_assert_eq!(delivered, expected, "undelivered packets");
        prop_assert!(net.is_idle());
        let s = net.stats();
        prop_assert_eq!(s.packets_injected, expected);
        prop_assert_eq!(s.packets_delivered, expected);
        prop_assert_eq!(s.flits_injected, s.flits_ejected);
    }

    /// Packet latency is bounded below by the Manhattan distance times the
    /// per-hop pipeline depth.
    #[test]
    fn latency_at_least_distance(
        sx in 0..4usize, sy in 0..4usize, dx in 0..4usize, dy in 0..4usize,
    ) {
        let mut net: Network<u8> = Network::new(NocConfig::default(), 4, 4, |_, _| 1);
        let src = Address::new(sx, sy, 0);
        let dst = Address::new(dx, dy, 0);
        net.try_inject(Packet::new(src, dst, 64, 0)).unwrap();
        let mut latency = None;
        for _ in 0..200 {
            net.step();
            if let Some(f) = net.eject(dst) {
                prop_assert!(f.is_tail());
                latency = Some(net.stats().total_packet_latency);
                break;
            }
        }
        let latency = latency.expect("delivered");
        let hops = (sx.abs_diff(dx) + sy.abs_diff(dy)) as u64;
        // Each hop costs routing (1) + link (1); ejection adds its own.
        prop_assert!(latency >= 2 * hops, "latency {latency} < 2*{hops}");
    }

    /// A packet of B bytes always occupies ceil(B/64) flits end to end.
    #[test]
    fn flit_count_matches_size(bytes in 1..2048usize) {
        let mut net: Network<u8> = Network::new(NocConfig::default(), 2, 1, |_, _| 1);
        let src = Address::new(0, 0, 0);
        let dst = Address::new(1, 0, 0);
        net.try_inject(Packet::new(src, dst, bytes, 0)).unwrap();
        let mut flits = 0u32;
        for _ in 0..5000 {
            net.step();
            while let Some(f) = net.eject(dst) {
                flits += 1;
                if f.is_tail() {
                    prop_assert_eq!(f.num_flits, flits);
                }
            }
            if net.is_idle() {
                break;
            }
        }
        prop_assert_eq!(flits as usize, bytes.div_ceil(64).max(1));
    }
}
