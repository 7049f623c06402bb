//! Deterministic fairness harness over the pure [`Scheduler`] core.
//!
//! No sockets, no sleeps, no wall clock: a virtual microsecond clock
//! drives admissions and a fixed per-batch service cost drives
//! completions, so every run of these tests sees the identical
//! schedule. This is where the PR's fairness bound is test-enforced:
//! with one flooding tenant and one well-behaved tenant under quota,
//! the light tenant's p99 latency may not exceed **2×** its isolated
//! baseline, and a graceful drain during active shedding loses zero
//! admitted jobs.

use gnna_serve::protocol::parse_job;
use gnna_serve::queue::{Job, JobOutcome, PushError, QuotaSpec, Scheduler, TenantPolicy};
use std::sync::mpsc;

/// Virtual service cost of one batch, microseconds. Constant and
/// mode-independent: the harness measures scheduling order, not
/// simulator speed.
const BATCH_SERVICE_US: u64 = 10_000;

fn job(tenant: &str, model: &str, i: usize) -> (Job, mpsc::Receiver<JobOutcome>) {
    let body = format!(
        r#"{{"id":"{tenant}-{i}","model":"{model}","input":"cora","mode":"cycle","tenant":"{tenant}"}}"#
    );
    let (tx, rx) = mpsc::channel();
    (Job::new(parse_job(&body).unwrap(), tx, i as u64), rx)
}

/// One simulated tenant: a fixed arrival schedule in virtual time.
struct Arrivals {
    tenant: &'static str,
    model: &'static str,
    /// Virtual arrival timestamps, microseconds, ascending.
    times_us: Vec<u64>,
}

fn light_schedule(jobs: usize) -> Arrivals {
    Arrivals {
        tenant: "light",
        model: "gat",
        // One job every 50 ms — comfortably under any quota.
        times_us: (0..jobs).map(|i| i as u64 * 50_000).collect(),
    }
}

fn flood_schedule(jobs: usize) -> Arrivals {
    Arrivals {
        tenant: "flood",
        model: "gcn",
        // A job every 2 ms — 25× the light tenant's rate.
        times_us: (0..jobs).map(|i| i as u64 * 2_000).collect(),
    }
}

/// Outcome of one simulated run: per-tenant sorted completion
/// latencies (virtual µs) plus admission bookkeeping.
#[derive(Debug, Default)]
struct RunStats {
    light_latencies: Vec<u64>,
    admitted: usize,
    rejected: usize,
    served: usize,
}

/// Drives the scheduler with merged arrival schedules and a
/// fixed-cost server until every arrival is admitted or rejected and
/// the backlog drains. Completions are processed at batch granularity:
/// the server finishes a batch every `BATCH_SERVICE_US`.
fn simulate(policy: TenantPolicy, schedules: &[Arrivals], max_batch: usize) -> RunStats {
    let mut sched = Scheduler::new(64, policy, 0);
    sched.note_service(BATCH_SERVICE_US);

    // Merge arrivals into one ascending (time, schedule_idx, job_idx)
    // stream; ties break by schedule order — deterministic.
    let mut events: Vec<(u64, usize, usize)> = Vec::new();
    for (si, s) in schedules.iter().enumerate() {
        for (ji, &t) in s.times_us.iter().enumerate() {
            events.push((t, si, ji));
        }
    }
    events.sort();

    let mut stats = RunStats::default();
    // Admitted jobs' receivers keyed by id, so latency is measured from
    // virtual enqueue to virtual completion.
    let mut enqueue_time: std::collections::HashMap<String, u64> = Default::default();
    let mut pending = std::collections::HashMap::new();
    let mut next_service_done = BATCH_SERVICE_US;
    let mut now_us;
    let mut ei = 0;

    // Run until all arrivals are processed and the queue is dry.
    loop {
        // Next arrival or next service completion, whichever is first.
        let next_arrival = events.get(ei).map(|&(t, _, _)| t);
        let service_pending = sched.depth() > 0;
        now_us = match (next_arrival, service_pending) {
            (Some(t), true) => t.min(next_service_done),
            (Some(t), false) => t,
            (None, true) => next_service_done,
            (None, false) => break,
        };
        // Admissions at this instant come first (the daemon admits on
        // arrival; the worker pops afterwards).
        while let Some(&(t, si, ji)) = events.get(ei) {
            if t > now_us {
                break;
            }
            let s = &schedules[si];
            let (j, rx) = job(s.tenant, s.model, ji);
            let id = j.request.id.clone();
            match sched.admit(j, t) {
                Ok(_) => {
                    stats.admitted += 1;
                    enqueue_time.insert(id.clone(), t);
                    pending.insert(id, rx);
                }
                Err(
                    PushError::Throttled { .. }
                    | PushError::Full { .. }
                    | PushError::DeadlineUnmeetable { .. },
                ) => stats.rejected += 1,
                Err(PushError::Closed(_)) => stats.rejected += 1,
            }
            ei += 1;
        }
        // Service completion at this instant.
        if service_pending && now_us >= next_service_done {
            if let Some(batch) = sched.next_batch(max_batch) {
                for j in &batch {
                    stats.served += 1;
                    if j.request.tenant == "light" {
                        let t0 = enqueue_time[&j.request.id];
                        stats.light_latencies.push(now_us - t0);
                    }
                    pending.remove(&j.request.id);
                }
            }
            next_service_done = now_us + BATCH_SERVICE_US;
        } else if !service_pending {
            // Queue was empty until this arrival: the server starts a
            // fresh service interval now.
            next_service_done = now_us + BATCH_SERVICE_US;
        }
    }
    stats.light_latencies.sort_unstable();
    stats
}

fn p99(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * 0.99).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The quota both fairness runs use: the flooder is admitted at 100/s
/// with a small burst; the light tenant is unlimited.
fn fairness_policy() -> TenantPolicy {
    TenantPolicy {
        default_spec: QuotaSpec::unlimited(),
        tenants: vec![(
            "flood".to_string(),
            QuotaSpec {
                rate_per_s: 100.0,
                burst: 5.0,
                weight: 1,
            },
        )],
    }
}

#[test]
fn flooding_tenant_cannot_push_light_p99_past_2x_isolated() {
    // Isolated baseline: the light tenant alone.
    let isolated = simulate(fairness_policy(), &[light_schedule(100)], 4);
    assert_eq!(isolated.rejected, 0, "isolated light jobs must all admit");
    assert_eq!(isolated.served, 100);
    let isolated_p99 = p99(&isolated.light_latencies).max(1);

    // Mixed run: same light schedule plus a 25×-rate flooder.
    let mixed = simulate(
        fairness_policy(),
        &[light_schedule(100), flood_schedule(2500)],
        4,
    );
    assert_eq!(
        mixed.light_latencies.len(),
        100,
        "every light job must be admitted and served under flood"
    );
    assert!(
        mixed.rejected > 0,
        "the flooder must be throttled (otherwise the quota did nothing)"
    );
    let mixed_p99 = p99(&mixed.light_latencies);

    let ratio = mixed_p99 as f64 / isolated_p99 as f64;
    assert!(
        ratio <= 2.0,
        "fairness violated: light p99 {mixed_p99}µs under flood vs {isolated_p99}µs \
         isolated = {ratio:.2}× (bound 2×)"
    );
}

#[test]
fn drr_weights_shift_service_share_deterministically() {
    // Two backlogged tenants, weight 3 vs 1: over one DRR round of
    // max_batch-1 pops, the heavy tenant gets ~3× the pops.
    let policy = TenantPolicy {
        default_spec: QuotaSpec::unlimited(),
        tenants: vec![
            (
                "heavy".to_string(),
                QuotaSpec {
                    rate_per_s: 0.0,
                    burst: 1.0,
                    weight: 3,
                },
            ),
            (
                "lite".to_string(),
                QuotaSpec {
                    rate_per_s: 0.0,
                    burst: 1.0,
                    weight: 1,
                },
            ),
        ],
    };
    let mut sched = Scheduler::new(256, policy, 0);
    let mut rxs = Vec::new();
    for i in 0..40 {
        let (j, rx) = job("heavy", "gcn", i);
        sched.admit(j, 0).unwrap();
        rxs.push(rx);
        let (j, rx) = job("lite", "gat", i);
        sched.admit(j, 0).unwrap();
        rxs.push(rx);
    }
    // Pops without coalescing expose the raw DRR order.
    let mut heavy = 0;
    let mut lite = 0;
    for _ in 0..16 {
        let batch = sched.next_batch(1).unwrap();
        match batch[0].request.tenant.as_str() {
            "heavy" => heavy += 1,
            "lite" => lite += 1,
            other => panic!("unknown tenant {other}"),
        }
    }
    assert_eq!(heavy, 12, "weight-3 tenant should take 3/4 of the pops");
    assert_eq!(lite, 4);
    // Replays are identical — the harness is deterministic.
    let mut sched2 = Scheduler::new(256, fairness_policy(), 0);
    let mut sched3 = Scheduler::new(256, fairness_policy(), 0);
    for i in 0..20 {
        let (j, _rx) = job("flood", "gcn", i);
        let _ = sched2.admit(j, (i as u64) * 1_000);
        let (j, _rx) = job("flood", "gcn", i);
        let _ = sched3.admit(j, (i as u64) * 1_000);
    }
    loop {
        let a = sched2
            .next_batch(4)
            .map(|b| b.iter().map(|j| j.request.id.clone()).collect::<Vec<_>>());
        let b = sched3
            .next_batch(4)
            .map(|b| b.iter().map(|j| j.request.id.clone()).collect::<Vec<_>>());
        assert_eq!(a, b, "same inputs must give the same schedule");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn graceful_drain_during_shedding_loses_zero_admitted_jobs() {
    // Flood a cap-8 scheduler so admissions are actively shedding, then
    // close mid-stream and drain: every job either rejected at
    // admission or served — none vanish.
    let mut sched = Scheduler::new(8, fairness_policy(), 0);
    sched.note_service(BATCH_SERVICE_US);
    let mut admitted = 0usize;
    let mut rejected = 0usize;
    let mut served = 0usize;
    let total = 500usize;
    for i in 0..total {
        let t = i as u64 * 500; // 2000 jobs/s — far over quota and cap
        if i == total / 2 {
            sched.close(); // graceful shutdown lands mid-shedding
        }
        let (j, _rx) = job(if i % 3 == 0 { "light" } else { "flood" }, "gcn", i);
        match sched.admit(j, t) {
            Ok(_) => admitted += 1,
            Err(_) => rejected += 1,
        }
        // The worker keeps draining concurrently: one batch per few
        // arrivals, like a slow server under a fast flood.
        if i % 5 == 4 {
            if let Some(batch) = sched.next_batch(4) {
                served += batch.len();
            }
        }
    }
    // Final drain after close: the backlog is still served.
    while let Some(batch) = sched.next_batch(4) {
        served += batch.len();
    }
    assert_eq!(admitted + rejected, total, "every job got a verdict");
    assert!(rejected > 0, "the run must actually have been shedding");
    assert_eq!(
        served, admitted,
        "drain lost admitted jobs: served {served} of {admitted}"
    );
    assert_eq!(sched.depth(), 0);
}
