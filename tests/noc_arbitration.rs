//! Golden digests of the mesh's switch arbitration under contention.
//!
//! Seeded hot-spot traffic of 1–5-flit packets is driven through a bare
//! `gnna_noc::Network` until it drains; every ejected flit is logged as
//! `(cycle, x, y, port, packet id, seq)` and the log is hashed with
//! FNV-1a-64. Any change to route computation, round-robin order,
//! wormhole ownership, credit flow or the fault-RNG draw order moves a
//! digest, so these pin the arbiter's exact schedule, not just delivery.
//!
//! The digests were generated with the per-output input-scan arbiter the
//! request-bitmask arbiter replaced. On an intended schedule change, the
//! failure message prints the new digest to paste in.

use gnna_faults::{FaultPlan, MeshDir};
use gnna_noc::{Address, Network, NocConfig, NocFaultState, Packet};
use rand::prelude::*;

/// Cycles during which sources offer new packets.
const INJECT_CYCLES: u64 = 400;
/// Upper bound on the drain phase; every variant idles well before it.
const MAX_CYCLES: u64 = 20_000;

/// FNV-1a-64 over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Runs seeded contention traffic on a `w × h` mesh with `locals` ports
/// per node, optionally under `plan`, and returns the ejection-log digest
/// plus the number of flits delivered.
fn run(w: usize, h: usize, locals: usize, plan: Option<FaultPlan>, seed: u64) -> (u64, u64) {
    let mut net: Network<u64> = Network::new(NocConfig::default(), w, h, |_, _| locals);
    if let Some(plan) = &plan {
        net.attach_faults(NocFaultState::from_plan(plan, 0))
            .expect("fault plan fits the mesh");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Half of all packets go to one hot-spot port, so several inputs of
    // the routers around it contend for the same outputs every cycle.
    let hot = Address::new(w / 2, h / 2, 0);
    let endpoints: Vec<Address> = (0..h)
        .flat_map(|y| (0..w).flat_map(move |x| (0..locals).map(move |p| Address::new(x, y, p))))
        .collect();
    let mut digest = Fnv::new();
    let mut delivered = 0u64;
    let mut offered = 0u64;
    let mut next_payload = 0u64;
    for cycle in 0..MAX_CYCLES {
        if cycle < INJECT_CYCLES {
            for &src in &endpoints {
                if rng.random_range(0..4u32) != 0 {
                    continue;
                }
                let dst = if rng.random_range(0..2u32) == 0 {
                    hot
                } else {
                    endpoints[rng.random_range(0..endpoints.len())]
                };
                let flits = rng.random_range(1..=5usize);
                if dst != src
                    && net
                        .try_inject(Packet::new(src, dst, 64 * flits, next_payload))
                        .is_ok()
                {
                    offered += flits as u64;
                    next_payload += 1;
                }
            }
        }
        net.step();
        // One flit per port per cycle, so ejection backpressure reaches
        // the hot spot's upstream routers.
        for &at in &endpoints {
            if let Some(f) = net.eject(at) {
                for v in [net.cycle(), at.x as u64, at.y as u64, at.port as u64] {
                    digest.word(v);
                }
                digest.word(f.packet.id);
                digest.word(u64::from(f.seq));
                delivered += 1;
            }
        }
        if cycle >= INJECT_CYCLES && net.is_idle() {
            break;
        }
    }
    assert!(net.is_idle(), "{w}x{h} mesh did not drain");
    assert!(net.fault_failure().is_none(), "{:?}", net.fault_failure());
    if plan.is_some_and(|p| p.noc_rate > 0.0) {
        let c = net.fault_counters().expect("faults attached");
        assert!(c.injected > 0 && c.partition_holds(), "{c}");
    }
    assert_eq!(delivered, offered, "every offered flit is delivered once");
    assert_eq!(net.stats().flits_ejected, delivered);
    (digest.0, delivered)
}

fn transient() -> FaultPlan {
    FaultPlan::new(1234).with_noc_rate(0.05)
}

fn dead_link() -> FaultPlan {
    FaultPlan::new(1234).with_dead_link(1, 1, MeshDir::East)
}

fn check(name: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got, want,
        "{name}: (digest, flits) is ({:#018x}, {}), golden ({:#018x}, {})",
        got.0, got.1, want.0, want.1
    );
}

#[test]
fn mesh_4x4_fault_free() {
    check(
        "4x4 fault-free",
        run(4, 4, 3, None, 42),
        (0xd320_aba0_6656_243b, 1262),
    );
}

#[test]
fn mesh_4x4_transient_faults() {
    check(
        "4x4 transient",
        run(4, 4, 3, Some(transient()), 42),
        (0x6f99_76d9_8852_812b, 1201),
    );
}

#[test]
fn mesh_4x4_dead_link_detour() {
    check(
        "4x4 dead link",
        run(4, 4, 3, Some(dead_link()), 42),
        (0x1bbf_58fb_386f_60f5, 1205),
    );
}

#[test]
fn mesh_2x1_fault_free() {
    check(
        "2x1 fault-free",
        run(2, 1, 3, None, 7),
        (0x16e7_439f_5c66_3c43, 759),
    );
}

#[test]
fn mesh_2x1_transient_faults() {
    check(
        "2x1 transient",
        run(2, 1, 3, Some(transient()), 7),
        (0x60ed_c697_f320_8d3c, 612),
    );
}
