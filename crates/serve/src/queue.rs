//! Per-accelerator-instance batch queues with multi-tenant admission
//! control.
//!
//! Each simulated accelerator instance owns one [`BatchQueue`]. Inside
//! it, jobs are segregated into **per-tenant lanes** so that one
//! flooding client cannot starve everyone else:
//!
//! * **Token-bucket quotas** — each tenant may carry a rate limit
//!   (jobs/s plus a burst allowance). A job arriving with an empty
//!   bucket is *throttled* at admission (HTTP 429 with a `Retry-After`
//!   computed from the bucket refill time), before it costs any queue
//!   space or simulator time.
//! * **Weighted deficit round robin** — the worker dequeues across
//!   lanes in DRR order (each lane earns `weight` pops per round), so
//!   batch formation under pressure serves every backlogged tenant in
//!   proportion to its weight instead of strict FIFO over a shared
//!   queue.
//! * **Deadline-aware shedding** — a job may carry `deadline_ms`. When
//!   the queue-depth-derived wait estimate (depth × EWMA per-job
//!   service time) already exceeds the deadline, the job is shed at
//!   accept time; the same estimate feeds `Retry-After` on the full
//!   path, so the advertised backoff tracks actual pressure instead of
//!   a constant.
//! * **Graceful degradation** — with a non-zero *degrade watermark*,
//!   cycle-mode jobs admitted while the backlog is at or past the
//!   watermark are flipped to functional execution (flagged
//!   `"degraded":true` in the response) instead of queueing for a slow
//!   simulation or being rejected.
//! * **Cooperative cancel** — every job carries a shared cancel flag;
//!   a handler whose client disconnected sets it, and the dequeue path
//!   drops the job before it burns simulator time.
//!
//! The scheduler core ([`Scheduler`]) is a pure data structure driven
//! by explicit microsecond timestamps, so the fairness properties are
//! test-enforced with a deterministic virtual clock
//! (`crates/serve/tests/fairness.rs`) — no wall-clock sleeps, no
//! flakiness. [`BatchQueue`] is the thin blocking wrapper (mutex +
//! condvar + monotonic clock) the daemon threads use.

use crate::protocol::{ExecMode, JobInput, JobRequest};
use gnna_models::ModelKind;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Lanes tracked per queue before new tenants fold into the default
/// lane (bounds memory against tenant-id cardinality attacks).
pub const MAX_TENANT_LANES: usize = 64;

/// The tenant every job without a `"tenant"` field belongs to.
pub const DEFAULT_TENANT: &str = "default";

/// Identifies jobs that may share one simulation batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchKey {
    /// Jobs over the same built-in dataset.
    Named(ModelKind, &'static str, ExecMode),
    /// Inline-graph jobs with the same feature/output widths (uniform
    /// widths are what lets one compiled program serve the whole batch).
    Inline(ModelKind, usize, usize, ExecMode),
}

impl BatchKey {
    /// The batch key of a request, at its requested execution mode.
    pub fn of(req: &JobRequest) -> BatchKey {
        Self::with_mode(req, req.mode)
    }

    /// The batch key of a job, honouring graceful degradation: a
    /// degraded cycle job batches (and executes) as a functional one.
    pub fn effective(job: &Job) -> BatchKey {
        let mode = if job.degraded {
            ExecMode::Functional
        } else {
            job.request.mode
        };
        Self::with_mode(&job.request, mode)
    }

    fn with_mode(req: &JobRequest, mode: ExecMode) -> BatchKey {
        match &req.input {
            JobInput::Named { input, .. } => BatchKey::Named(req.model, input, mode),
            JobInput::Inline(g) => BatchKey::Inline(
                req.model,
                g.features.first().map_or(0, Vec::len),
                g.out_features,
                mode,
            ),
        }
    }
}

/// The worker's verdict on one job, sent back to the waiting connection
/// handler: pre-rendered response body plus HTTP status.
#[derive(Debug)]
pub struct JobOutcome {
    /// HTTP status code (200, 400, 500).
    pub status: u16,
    /// Response body (JSON).
    pub body: String,
}

/// One admitted job: the parsed request, its response channel, and the
/// admission timestamp (for queue-latency telemetry).
#[derive(Debug)]
pub struct Job {
    /// Parsed request.
    pub request: JobRequest,
    /// Where the worker sends the outcome.
    pub respond: mpsc::Sender<JobOutcome>,
    /// When the job entered the queue.
    pub enqueued: Instant,
    /// Request span id, assigned at admission (rendered in hex in the
    /// response `telemetry` and in the span trace).
    pub span_id: u64,
    /// When a worker adopted the job into a batch; `None` until
    /// [`BatchQueue::pop_batch`] stamps it. Queue wait is
    /// `batched - enqueued`; the rest of the pre-execution gap is the
    /// coalesce window.
    pub batched: Option<Instant>,
    /// Cooperative cancel flag: set by the connection handler when its
    /// client disconnects, honoured by the dequeue path.
    pub cancelled: Arc<AtomicBool>,
    /// Set at admission when the degrade watermark flipped this
    /// cycle-mode job to functional execution.
    pub degraded: bool,
}

impl Job {
    /// A job over `request` answering on `respond`, enqueued now.
    pub fn new(request: JobRequest, respond: mpsc::Sender<JobOutcome>, span_id: u64) -> Job {
        Job {
            request,
            respond,
            enqueued: Instant::now(),
            span_id,
            batched: None,
            cancelled: Arc::new(AtomicBool::new(false)),
            degraded: false,
        }
    }
}

/// One tenant's quota and scheduling weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaSpec {
    /// Sustained admission rate in jobs/s (`0.0` = unlimited).
    pub rate_per_s: f64,
    /// Burst allowance in jobs (bucket capacity).
    pub burst: f64,
    /// Deficit-round-robin weight (pops earned per scheduling round).
    pub weight: u64,
}

impl QuotaSpec {
    /// An unlimited-rate spec with weight 1.
    pub fn unlimited() -> QuotaSpec {
        QuotaSpec {
            rate_per_s: 0.0,
            burst: 1.0,
            weight: 1,
        }
    }
}

impl Default for QuotaSpec {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Tenant admission policy: the default bucket plus per-tenant
/// overrides.
#[derive(Debug, Clone, Default)]
pub struct TenantPolicy {
    /// Spec applied to tenants without an explicit entry.
    pub default_spec: QuotaSpec,
    /// Per-tenant overrides, looked up by exact tenant id.
    pub tenants: Vec<(String, QuotaSpec)>,
}

impl TenantPolicy {
    fn spec_for(&self, tenant: &str) -> QuotaSpec {
        self.tenants
            .iter()
            .find(|(n, _)| n == tenant)
            .map_or(self.default_spec, |(_, s)| *s)
    }
}

/// Parses one `--tenant-quota` value: `[TENANT=]RATE[:BURST[:WEIGHT]]`.
/// Without `TENANT=` the spec becomes the default bucket. `RATE 0`
/// means unlimited.
///
/// # Errors
///
/// A human-readable description of the malformed field.
pub fn parse_quota_flag(s: &str) -> Result<(Option<String>, QuotaSpec), String> {
    let (tenant, spec) = match s.split_once('=') {
        Some((t, rest)) => {
            if t.is_empty() {
                return Err("empty tenant name in quota".into());
            }
            (Some(t.to_string()), rest)
        }
        None => (None, s),
    };
    let mut parts = spec.split(':');
    let rate: f64 = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| format!("bad quota rate in {s:?}"))?;
    if !rate.is_finite() || rate < 0.0 {
        return Err(format!("quota rate must be finite and >= 0 in {s:?}"));
    }
    let burst: f64 = match parts.next() {
        Some(b) => b.parse().map_err(|_| format!("bad quota burst in {s:?}"))?,
        None => rate.max(1.0),
    };
    if !burst.is_finite() || burst < 1.0 {
        return Err(format!("quota burst must be >= 1 in {s:?}"));
    }
    let weight: u64 = match parts.next() {
        Some(w) => w
            .parse()
            .map_err(|_| format!("bad quota weight in {s:?}"))?,
        None => 1,
    };
    if weight == 0 {
        return Err(format!("quota weight must be >= 1 in {s:?}"));
    }
    if parts.next().is_some() {
        return Err(format!("too many quota fields in {s:?}"));
    }
    Ok((
        tenant,
        QuotaSpec {
            rate_per_s: rate,
            burst,
            weight,
        },
    ))
}

/// Why admission refused a job; carries the job back to the handler so
/// its response channel can answer.
#[derive(Debug)]
pub enum PushError {
    /// Queue at capacity — answer 429 with the pressure-derived
    /// `Retry-After` (always ≥ 1 s).
    Full {
        /// The rejected job.
        job: Job,
        /// Advertised backoff, seconds (≥ 1).
        retry_after_s: u64,
    },
    /// Tenant over its token-bucket quota — answer 429 with the
    /// refill-derived `Retry-After` (always ≥ 1 s).
    Throttled {
        /// The throttled job.
        job: Job,
        /// Advertised backoff, seconds (≥ 1).
        retry_after_s: u64,
    },
    /// The job's `deadline_ms` cannot be met by the current backlog —
    /// shed at accept time instead of admitting doomed work.
    DeadlineUnmeetable {
        /// The shed job.
        job: Job,
        /// The wait estimate that exceeded the deadline, milliseconds.
        estimated_wait_ms: u64,
        /// Advertised backoff, seconds (≥ 1).
        retry_after_s: u64,
    },
    /// Queue closed — daemon is shutting down, answer 503.
    Closed(Job),
}

/// What a successful push tells the handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// The degrade watermark flipped this cycle job to functional
    /// execution (the response will carry `"degraded":true`).
    pub degraded: bool,
}

#[derive(Debug)]
struct TokenBucket {
    rate_per_us: f64,
    burst: f64,
    tokens: f64,
    last_us: u64,
}

impl TokenBucket {
    fn new(spec: QuotaSpec, now_us: u64) -> TokenBucket {
        TokenBucket {
            rate_per_us: spec.rate_per_s / 1e6,
            burst: spec.burst,
            tokens: spec.burst,
            last_us: now_us,
        }
    }

    /// Takes one token, or reports microseconds until one is available.
    fn take(&mut self, now_us: u64) -> Result<(), u64> {
        let dt = now_us.saturating_sub(self.last_us) as f64;
        self.tokens = (self.tokens + dt * self.rate_per_us).min(self.burst);
        self.last_us = now_us;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            Err((deficit / self.rate_per_us).ceil() as u64)
        }
    }
}

#[derive(Debug)]
struct Lane {
    name: String,
    jobs: VecDeque<Job>,
    deficit: u64,
    weight: u64,
    bucket: Option<TokenBucket>,
}

/// The pure multi-tenant scheduler: per-tenant lanes, token buckets,
/// weighted deficit round robin, and the queue-pressure wait estimator.
/// Every method takes an explicit `now_us`, so tests drive it with a
/// deterministic virtual clock.
#[derive(Debug)]
pub struct Scheduler {
    lanes: Vec<Lane>,
    by_name: HashMap<String, usize>,
    rr: usize,
    depth: usize,
    capacity: usize,
    closed: bool,
    policy: TenantPolicy,
    degrade_watermark: usize,
    /// EWMA of per-job service time, microseconds.
    service_est_us: u64,
    cancelled_drops: u64,
}

/// Initial per-job service estimate before any batch has been measured.
const INITIAL_SERVICE_EST_US: u64 = 1_000;

impl Scheduler {
    /// A scheduler admitting at most `capacity` jobs (`0` clamps to 1)
    /// under `policy`. `degrade_watermark` of 0 disables degradation.
    pub fn new(capacity: usize, policy: TenantPolicy, degrade_watermark: usize) -> Scheduler {
        let mut s = Scheduler {
            lanes: Vec::new(),
            by_name: HashMap::new(),
            rr: 0,
            depth: 0,
            capacity: capacity.max(1),
            closed: false,
            policy,
            degrade_watermark,
            service_est_us: INITIAL_SERVICE_EST_US,
            cancelled_drops: 0,
        };
        s.lane_index(DEFAULT_TENANT, 0);
        s
    }

    /// Jobs currently queued across all lanes.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Estimated wait for a newly admitted job, microseconds: backlog
    /// depth × the EWMA per-job service time. Conservative (ignores
    /// batching wins), which is the right bias for shedding decisions.
    pub fn wait_estimate_us(&self) -> u64 {
        self.depth as u64 * self.service_est_us
    }

    /// Folds one measured per-job service time into the EWMA (α = ¼).
    pub fn note_service(&mut self, per_job_us: u64) {
        self.service_est_us = (self.service_est_us * 3 + per_job_us.max(1)) / 4;
    }

    /// Cancelled jobs dropped at dequeue since the last call.
    pub fn take_cancelled(&mut self) -> u64 {
        std::mem::take(&mut self.cancelled_drops)
    }

    /// Closes the scheduler: further admissions fail, the backlog still
    /// drains.
    pub fn close(&mut self) {
        self.closed = true;
    }

    fn lane_index(&mut self, tenant: &str, now_us: u64) -> usize {
        if let Some(&i) = self.by_name.get(tenant) {
            return i;
        }
        if self.lanes.len() >= MAX_TENANT_LANES {
            // Bound lane cardinality: overflow tenants share the
            // default lane (they keep their own quota accounting only
            // if a lane frees up later).
            return self.by_name[DEFAULT_TENANT];
        }
        let spec = self.policy.spec_for(tenant);
        let bucket = (spec.rate_per_s > 0.0).then(|| TokenBucket::new(spec, now_us));
        self.lanes.push(Lane {
            name: tenant.to_string(),
            jobs: VecDeque::new(),
            deficit: 0,
            weight: spec.weight.max(1),
            bucket,
        });
        let i = self.lanes.len() - 1;
        self.by_name.insert(tenant.to_string(), i);
        i
    }

    /// Seconds-granularity `Retry-After` derived from a microsecond
    /// estimate — never 0, capped at 30 s so clients re-probe.
    fn retry_after_s(estimate_us: u64) -> u64 {
        estimate_us.div_ceil(1_000_000).clamp(1, 30)
    }

    /// Admission control: quota, deadline, capacity, degradation — in
    /// that order. On success the job is queued (possibly flagged
    /// degraded).
    ///
    /// # Errors
    ///
    /// [`PushError`] carries the job back so the caller can answer its
    /// response channel.
    // The large Err variant is the point: a rejected job returns to the
    // caller intact so the 429/503 response can answer on its channel.
    #[allow(clippy::result_large_err)]
    pub fn admit(&mut self, mut job: Job, now_us: u64) -> Result<Admitted, PushError> {
        if self.closed {
            return Err(PushError::Closed(job));
        }
        let lane = self.lane_index(&job.request.tenant, now_us);
        if let Some(bucket) = &mut self.lanes[lane].bucket {
            if let Err(wait_us) = bucket.take(now_us) {
                return Err(PushError::Throttled {
                    job,
                    retry_after_s: Self::retry_after_s(wait_us),
                });
            }
        }
        let est_us = self.wait_estimate_us();
        if let Some(deadline_ms) = job.request.deadline_ms {
            if est_us > deadline_ms.saturating_mul(1_000) {
                return Err(PushError::DeadlineUnmeetable {
                    job,
                    estimated_wait_ms: est_us.div_ceil(1_000),
                    retry_after_s: Self::retry_after_s(est_us),
                });
            }
        }
        if self.depth >= self.capacity {
            return Err(PushError::Full {
                job,
                retry_after_s: Self::retry_after_s(
                    self.service_est_us
                        .max(est_us / self.capacity.max(1) as u64),
                ),
            });
        }
        let degraded = self.degrade_watermark > 0
            && job.request.mode == ExecMode::CycleAccurate
            && self.depth >= self.degrade_watermark;
        job.degraded = degraded;
        self.lanes[lane].jobs.push_back(job);
        self.depth += 1;
        Ok(Admitted { degraded })
    }

    /// Pops the next job in weighted-DRR order, dropping cancelled jobs
    /// on the way. `None` when every lane is empty.
    pub fn pop_next(&mut self) -> Option<Job> {
        loop {
            if self.depth == 0 {
                return None;
            }
            let n = self.lanes.len();
            let i = self.rr % n;
            let lane = &mut self.lanes[i];
            if lane.jobs.is_empty() {
                // An idle lane keeps no credit — deficits measure
                // backlogged rounds only.
                lane.deficit = 0;
                self.rr = (self.rr + 1) % n;
                continue;
            }
            if lane.deficit == 0 {
                lane.deficit = lane.weight;
            }
            lane.deficit -= 1;
            let job = lane.jobs.pop_front().expect("non-empty lane");
            if lane.deficit == 0 || lane.jobs.is_empty() {
                lane.deficit = 0;
                self.rr = (self.rr + 1) % n;
            }
            self.depth -= 1;
            if job.cancelled.load(Ordering::Relaxed) {
                self.cancelled_drops += 1;
                continue;
            }
            return Some(job);
        }
    }

    /// Pulls queued jobs whose effective [`BatchKey`] matches `key`
    /// into `batch` (up to `max_batch` total), scanning lanes in DRR
    /// order. Cancelled jobs are dropped; other jobs keep their order.
    pub fn coalesce_into(&mut self, key: BatchKey, batch: &mut Vec<Job>, max_batch: usize) {
        let n = self.lanes.len();
        for off in 0..n {
            if batch.len() >= max_batch {
                return;
            }
            let lane = &mut self.lanes[(self.rr + off) % n];
            let mut rest = VecDeque::with_capacity(lane.jobs.len());
            while let Some(job) = lane.jobs.pop_front() {
                if job.cancelled.load(Ordering::Relaxed) {
                    self.cancelled_drops += 1;
                    self.depth -= 1;
                } else if batch.len() < max_batch && BatchKey::effective(&job) == key {
                    self.depth -= 1;
                    batch.push(job);
                } else {
                    rest.push_back(job);
                }
            }
            lane.jobs = rest;
        }
    }

    /// One non-blocking batch: DRR head pick plus a same-key coalesce
    /// sweep. `None` when nothing is queued. This is the virtual-clock
    /// harness entry point; the daemon's [`BatchQueue::pop_batch`] adds
    /// the blocking flush window around the same two calls.
    pub fn next_batch(&mut self, max_batch: usize) -> Option<Vec<Job>> {
        let mut first = self.pop_next()?;
        first.batched = Some(Instant::now());
        let key = BatchKey::effective(&first);
        let mut batch = vec![first];
        self.coalesce_into(key, &mut batch, max_batch.max(1));
        Some(batch)
    }

    /// Per-lane queue depths, `(tenant, depth)`, lanes in creation
    /// order.
    pub fn depths_by_tenant(&self) -> Vec<(String, usize)> {
        self.lanes
            .iter()
            .map(|l| (l.name.clone(), l.jobs.len()))
            .collect()
    }
}

/// A bounded MPSC batch queue (many connection handlers, one instance
/// worker) over the multi-tenant [`Scheduler`].
#[derive(Debug)]
pub struct BatchQueue {
    state: Mutex<Scheduler>,
    nonempty: Condvar,
    started: Instant,
}

impl BatchQueue {
    /// A queue admitting at most `capacity` jobs (`0` is clamped to 1)
    /// with no quotas and degradation off.
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, TenantPolicy::default(), 0)
    }

    /// A queue with a tenant policy and a degrade watermark (0 = off).
    pub fn with_policy(capacity: usize, policy: TenantPolicy, degrade_watermark: usize) -> Self {
        BatchQueue {
            state: Mutex::new(Scheduler::new(capacity, policy, degrade_watermark)),
            nonempty: Condvar::new(),
            started: Instant::now(),
        }
    }

    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Current depth (for `/stats`).
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue poisoned").depth()
    }

    /// Per-tenant depths (for `/stats`).
    pub fn depths_by_tenant(&self) -> Vec<(String, usize)> {
        self.state
            .lock()
            .expect("queue poisoned")
            .depths_by_tenant()
    }

    /// Folds a measured per-job service time into the wait estimator.
    pub fn note_service(&self, per_job_us: u64) {
        self.state
            .lock()
            .expect("queue poisoned")
            .note_service(per_job_us);
    }

    /// Cancelled jobs dropped at dequeue since the last call.
    pub fn take_cancelled(&self) -> u64 {
        self.state.lock().expect("queue poisoned").take_cancelled()
    }

    /// Admits a job through quota → deadline → capacity control.
    ///
    /// # Errors
    ///
    /// [`PushError`] variants carry the job back so the 429/503
    /// response can answer on its channel.
    #[allow(clippy::result_large_err)]
    pub fn push(&self, job: Job) -> Result<Admitted, PushError> {
        let now_us = self.now_us();
        let mut st = self.state.lock().expect("queue poisoned");
        let admitted = st.admit(job, now_us)?;
        drop(st);
        self.nonempty.notify_one();
        Ok(admitted)
    }

    /// Closes the queue: further pushes fail, and once the backlog
    /// drains [`pop_batch`](Self::pop_batch) returns `None` so the
    /// worker exits. Jobs already queued are still served — this is the
    /// graceful-shutdown drain.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").close();
        self.nonempty.notify_all();
    }

    /// Pops the next batch: blocks for the first job (chosen in
    /// weighted-DRR order across tenant lanes), then coalesces queued
    /// jobs with the same effective [`BatchKey`] until `max_batch` is
    /// reached or the flush window expires. Jobs with other keys keep
    /// their order. Returns `None` when the queue is closed and empty.
    pub fn pop_batch(&self, max_batch: usize, flush: Duration) -> Option<Vec<Job>> {
        let max_batch = max_batch.max(1);
        let mut st = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(mut first) = st.pop_next() {
                let popped = Instant::now();
                first.batched = Some(popped);
                let key = BatchKey::effective(&first);
                let mut batch = vec![first];
                let deadline = popped + flush;
                loop {
                    let before = batch.len();
                    st.coalesce_into(key, &mut batch, max_batch);
                    for job in batch.iter_mut().skip(before) {
                        job.batched = Some(Instant::now());
                    }
                    if batch.len() >= max_batch || st.is_closed() {
                        break;
                    }
                    // Bounded-latency flush: wait for stragglers only
                    // up to the deadline.
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (next, timeout) = self
                        .nonempty
                        .wait_timeout(st, deadline - now)
                        .expect("queue poisoned");
                    st = next;
                    if timeout.timed_out() && st.depth() == 0 {
                        break;
                    }
                }
                return Some(batch);
            }
            if st.is_closed() {
                return None;
            }
            st = self.nonempty.wait(st).expect("queue poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_job;

    fn job(body: &str) -> (Job, mpsc::Receiver<JobOutcome>) {
        let (tx, rx) = mpsc::channel();
        (Job::new(parse_job(body).unwrap(), tx, 0), rx)
    }

    #[test]
    fn coalesces_compatible_jobs_and_keeps_others_queued() {
        let q = BatchQueue::new(16);
        let (a, _ra) = job(r#"{"model":"gcn","input":"cora"}"#);
        let (b, _rb) = job(r#"{"model":"gat","input":"cora"}"#);
        let (c, _rc) = job(r#"{"model":"gcn","input":"cora","instance":0}"#);
        q.push(a).unwrap();
        q.push(b).unwrap();
        q.push(c).unwrap();
        let batch = q.pop_batch(8, Duration::from_millis(1)).unwrap();
        assert_eq!(batch.len(), 2, "gcn jobs should coalesce around gat");
        assert!(batch.iter().all(|j| j.request.model == ModelKind::Gcn));
        let batch = q.pop_batch(8, Duration::from_millis(1)).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].request.model, ModelKind::Gat);
    }

    #[test]
    fn mode_splits_batches() {
        let q = BatchQueue::new(16);
        let (a, _ra) = job(r#"{"model":"gcn","input":"cora","mode":"functional"}"#);
        let (b, _rb) = job(r#"{"model":"gcn","input":"cora","mode":"cycle"}"#);
        q.push(a).unwrap();
        q.push(b).unwrap();
        assert_eq!(q.pop_batch(8, Duration::from_millis(1)).unwrap().len(), 1);
        assert_eq!(q.pop_batch(8, Duration::from_millis(1)).unwrap().len(), 1);
    }

    #[test]
    fn full_queue_rejects_with_the_job_back_and_nonzero_retry_after() {
        let q = BatchQueue::new(1);
        let (a, _ra) = job(r#"{"model":"gcn","input":"cora"}"#);
        let (b, _rb) = job(r#"{"model":"gcn","input":"cora"}"#);
        q.push(a).unwrap();
        match q.push(b) {
            Err(PushError::Full {
                job: j,
                retry_after_s,
            }) => {
                assert_eq!(j.request.model, ModelKind::Gcn);
                // Satellite regression: Retry-After is never 0 seconds.
                assert!(
                    retry_after_s >= 1,
                    "Retry-After must be >= 1, got {retry_after_s}"
                );
            }
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn capacity_boundary_admits_exactly_cap_then_rejects() {
        // The boundary between coalesce-into-existing-batch and reject:
        // a queue at exactly `cap` holds every admitted job (they can
        // still coalesce when popped); job cap+1 is rejected with a
        // non-zero Retry-After.
        let cap = 4;
        let q = BatchQueue::new(cap);
        let mut rxs = Vec::new();
        for _ in 0..cap {
            let (j, r) = job(r#"{"model":"gcn","input":"cora"}"#);
            q.push(j).unwrap();
            rxs.push(r);
        }
        assert_eq!(q.depth(), cap);
        let (extra, _re) = job(r#"{"model":"gcn","input":"cora"}"#);
        match q.push(extra) {
            Err(PushError::Full { retry_after_s, .. }) => assert!(retry_after_s >= 1),
            other => panic!("expected Full at the boundary, got {other:?}"),
        }
        // The whole backlog still coalesces into one batch.
        let batch = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), cap);
    }

    #[test]
    fn concurrent_producers_at_the_capacity_boundary_lose_nothing() {
        // N producers race a cap-C queue: exactly C jobs are admitted,
        // N−C rejected, and every admitted job is eventually popped.
        let cap = 3;
        let producers = 12;
        let q = std::sync::Arc::new(BatchQueue::new(cap));
        let (admitted, rejected): (usize, usize) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..producers)
                .map(|_| {
                    let q = std::sync::Arc::clone(&q);
                    scope.spawn(move || {
                        let (j, _r) = job(r#"{"model":"gcn","input":"cora"}"#);
                        match q.push(j) {
                            Ok(_) => (1, 0),
                            Err(PushError::Full { .. }) => (0, 1),
                            other => panic!("unexpected admission result {other:?}"),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold((0, 0), |(a, r), (da, dr)| (a + da, r + dr))
        });
        assert_eq!(admitted, cap, "exactly cap jobs admitted");
        assert_eq!(rejected, producers - cap);
        let mut popped = 0;
        q.close();
        while let Some(batch) = q.pop_batch(8, Duration::ZERO) {
            popped += batch.len();
        }
        assert_eq!(popped, admitted, "admitted jobs lost in the queue");
    }

    #[test]
    fn drain_while_shedding_loses_no_admitted_jobs() {
        // Producers keep hammering a tiny queue while it is closed
        // mid-stream: every job either failed admission (client got an
        // error) or is served by the drain — no admitted job vanishes.
        let q = std::sync::Arc::new(BatchQueue::new(2));
        let total = 64;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(5));
        let (admitted, popped) = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for p in 0..4 {
                let q = std::sync::Arc::clone(&q);
                let barrier = std::sync::Arc::clone(&barrier);
                handles.push(scope.spawn(move || {
                    barrier.wait();
                    let mut ok = 0;
                    for i in 0..total / 4 {
                        let (j, _r) = job(r#"{"model":"gcn","input":"cora"}"#);
                        if q.push(j).is_ok() {
                            ok += 1;
                        }
                        if p == 0 && i == total / 8 {
                            q.close(); // shutdown lands mid-shedding
                        }
                    }
                    ok
                }));
            }
            // The consumer drains concurrently, like an instance worker.
            let qc = std::sync::Arc::clone(&q);
            let consumer = scope.spawn(move || {
                barrier.wait();
                let mut popped = 0;
                while let Some(batch) = qc.pop_batch(4, Duration::from_micros(100)) {
                    popped += batch.len();
                }
                popped
            });
            let admitted: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            (admitted, consumer.join().unwrap())
        });
        assert_eq!(
            popped, admitted,
            "drain lost admitted jobs ({popped} served of {admitted} admitted)"
        );
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BatchQueue::new(4);
        let (a, _ra) = job(r#"{"model":"gcn","input":"cora"}"#);
        q.push(a).unwrap();
        q.close();
        let (b, _rb) = job(r#"{"model":"gcn","input":"cora"}"#);
        assert!(matches!(q.push(b), Err(PushError::Closed(_))));
        // The queued job is still served before the worker is told to exit.
        assert_eq!(q.pop_batch(8, Duration::from_millis(1)).unwrap().len(), 1);
        assert!(q.pop_batch(8, Duration::from_millis(1)).is_none());
    }

    #[test]
    fn max_batch_one_disables_coalescing() {
        let q = BatchQueue::new(16);
        for _ in 0..3 {
            let (a, _r) = job(r#"{"model":"gcn","input":"cora"}"#);
            q.push(a).unwrap();
        }
        for _ in 0..3 {
            assert_eq!(q.pop_batch(1, Duration::ZERO).unwrap().len(), 1);
        }
    }

    #[test]
    fn pop_batch_stamps_the_batched_instant() {
        let q = BatchQueue::new(4);
        let (a, _r) = job(r#"{"model":"gcn","input":"cora"}"#);
        assert!(a.batched.is_none());
        q.push(a).unwrap();
        let batch = q.pop_batch(8, Duration::ZERO).unwrap();
        let j = &batch[0];
        assert!(j.batched.expect("pop_batch stamps batched") >= j.enqueued);
    }

    #[test]
    fn token_bucket_throttles_past_the_burst() {
        let policy = TenantPolicy {
            default_spec: QuotaSpec::unlimited(),
            tenants: vec![(
                "t1".into(),
                QuotaSpec {
                    rate_per_s: 1.0,
                    burst: 2.0,
                    weight: 1,
                },
            )],
        };
        let mut s = Scheduler::new(64, policy, 0);
        let mk = || job(r#"{"model":"gcn","input":"cora","tenant":"t1"}"#).0;
        assert!(s.admit(mk(), 0).is_ok());
        assert!(s.admit(mk(), 0).is_ok());
        match s.admit(mk(), 0) {
            Err(PushError::Throttled { retry_after_s, .. }) => assert!(retry_after_s >= 1),
            other => panic!("expected Throttled, got {other:?}"),
        }
        // A second elapses (virtual clock): one token refills.
        assert!(s.admit(mk(), 1_000_000).is_ok());
        // Other tenants are untouched by t1's bucket.
        let other = job(r#"{"model":"gcn","input":"cora","tenant":"t2"}"#).0;
        assert!(s.admit(other, 0).is_ok());
    }

    #[test]
    fn deadline_shedding_uses_the_wait_estimate() {
        let mut s = Scheduler::new(64, TenantPolicy::default(), 0);
        s.note_service(10_000); // converge the EWMA upward
        s.note_service(10_000);
        s.note_service(10_000);
        for _ in 0..10 {
            let (j, _r) = job(r#"{"model":"gcn","input":"cora"}"#);
            s.admit(j, 0).unwrap();
        }
        let est = s.wait_estimate_us();
        assert!(est > 20_000, "estimate too low: {est}");
        // A deadline below the estimate is shed at accept time.
        let (tight, _r) = job(r#"{"model":"gcn","input":"cora","deadline_ms":5}"#);
        match s.admit(tight, 0) {
            Err(PushError::DeadlineUnmeetable {
                estimated_wait_ms,
                retry_after_s,
                ..
            }) => {
                assert!(estimated_wait_ms >= 5);
                assert!(retry_after_s >= 1);
            }
            other => panic!("expected DeadlineUnmeetable, got {other:?}"),
        }
        // A generous deadline is admitted.
        let (loose, _r) = job(r#"{"model":"gcn","input":"cora","deadline_ms":60000}"#);
        assert!(s.admit(loose, 0).is_ok());
    }

    #[test]
    fn degrade_watermark_flips_cycle_jobs_to_functional() {
        let mut s = Scheduler::new(64, TenantPolicy::default(), 2);
        let mk = |mode: &str| {
            job(&format!(
                r#"{{"model":"gcn","input":"cora","mode":"{mode}"}}"#
            ))
            .0
        };
        assert!(!s.admit(mk("cycle"), 0).unwrap().degraded);
        assert!(!s.admit(mk("cycle"), 0).unwrap().degraded);
        // Depth 2 = watermark: cycle jobs degrade, functional untouched.
        assert!(s.admit(mk("cycle"), 0).unwrap().degraded);
        assert!(!s.admit(mk("functional"), 0).unwrap().degraded);
        // Degraded jobs batch with functional ones (same effective key).
        let batch = s.next_batch(8).unwrap();
        assert_eq!(batch.len(), 2, "cycle head batch");
        let batch = s.next_batch(8).unwrap();
        assert_eq!(batch.len(), 2, "degraded + functional share a batch");
        assert!(batch.iter().any(|j| j.degraded));
    }

    #[test]
    fn cancelled_jobs_are_dropped_at_dequeue() {
        let q = BatchQueue::new(8);
        let (a, _ra) = job(r#"{"model":"gcn","input":"cora"}"#);
        let (b, _rb) = job(r#"{"model":"gcn","input":"cora"}"#);
        let cancel = Arc::clone(&a.cancelled);
        q.push(a).unwrap();
        q.push(b).unwrap();
        cancel.store(true, Ordering::Relaxed);
        let batch = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 1, "cancelled job must not be served");
        assert_eq!(q.take_cancelled(), 1);
    }

    #[test]
    fn drr_interleaves_a_floods_backlog_with_a_light_tenant() {
        let mut s = Scheduler::new(1024, TenantPolicy::default(), 0);
        for _ in 0..100 {
            let (j, _r) = job(r#"{"model":"gcn","input":"cora","tenant":"flood","mode":"cycle"}"#);
            s.admit(j, 0).unwrap();
        }
        let (light, _r) = job(r#"{"model":"gat","input":"cora","tenant":"light","mode":"cycle"}"#);
        s.admit(light, 0).unwrap();
        // Without coalescing (max_batch 1), the light tenant's job is
        // served within the first DRR round, not behind 100 flood jobs.
        let mut served_light_at = None;
        for i in 0..101 {
            let batch = s.next_batch(1).unwrap();
            if batch[0].request.tenant == "light" {
                served_light_at = Some(i);
                break;
            }
        }
        let pos = served_light_at.expect("light job served");
        assert!(pos <= 2, "light tenant starved until position {pos}");
    }

    #[test]
    fn quota_flag_parses_all_forms() {
        assert_eq!(
            parse_quota_flag("10").unwrap(),
            (
                None,
                QuotaSpec {
                    rate_per_s: 10.0,
                    burst: 10.0,
                    weight: 1
                }
            )
        );
        assert_eq!(
            parse_quota_flag("flood=5:20:3").unwrap(),
            (
                Some("flood".into()),
                QuotaSpec {
                    rate_per_s: 5.0,
                    burst: 20.0,
                    weight: 3
                }
            )
        );
        assert!(parse_quota_flag("=5").is_err());
        assert!(parse_quota_flag("a=-1").is_err());
        assert!(parse_quota_flag("a=1:0").is_err());
        assert!(parse_quota_flag("a=1:2:0").is_err());
        assert!(parse_quota_flag("a=1:2:3:4").is_err());
    }

    #[test]
    fn tenant_lane_cardinality_is_bounded() {
        let mut s = Scheduler::new(100_000, TenantPolicy::default(), 0);
        for i in 0..(MAX_TENANT_LANES * 2) {
            let (j, _r) = job(&format!(
                r#"{{"model":"gcn","input":"cora","tenant":"t{i}"}}"#
            ));
            s.admit(j, 0).unwrap();
        }
        assert!(s.depths_by_tenant().len() <= MAX_TENANT_LANES);
        // Every admitted job still drains.
        let mut popped = 0;
        while let Some(b) = s.next_batch(64) {
            popped += b.len();
        }
        assert_eq!(popped, MAX_TENANT_LANES * 2);
    }
}
