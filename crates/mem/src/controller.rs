use crate::MemImage;
use gnna_faults::{
    ecc, EccDomain, FaultCounters, FaultPlan, FaultSite, RecoveryMode, SiteInjector, StuckLineModel,
};
use gnna_telemetry::{CostClass, EnergyCharge, KeyFamily, ModuleProbe};
use std::collections::VecDeque;
use std::fmt;

/// Memory-controller configuration.
///
/// Defaults follow the paper: 68 GB/s per module (≈ 4 channels of
/// DDR3-2400), 20 ns access latency, 64 B access granularity, a 32-entry
/// in-order request queue, referenced to the 2.4 GHz NoC clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Sustained read/write bandwidth in bytes per second (68 GB/s).
    pub bandwidth_bytes_per_s: f64,
    /// Fixed access latency in seconds (20 ns).
    pub latency_s: f64,
    /// DRAM access granularity in bytes (64).
    pub granularity: u64,
    /// Request queue depth (32).
    pub queue_depth: usize,
    /// Clock the controller's cycle counter refers to, in Hz (2.4 GHz).
    pub clock_hz: f64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            bandwidth_bytes_per_s: 68e9,
            latency_s: 20e-9,
            granularity: 64,
            queue_depth: 32,
            clock_hz: 2.4e9,
        }
    }
}

impl MemConfig {
    /// Bandwidth in bytes per clock cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bandwidth_bytes_per_s / self.clock_hz
    }

    /// Access latency in cycles.
    pub fn latency_cycles(&self) -> f64 {
        self.latency_s * self.clock_hz
    }

    /// DRAM bytes actually occupied by an access of `bytes` at `addr`:
    /// the span of touched `granularity`-sized lines. Misalignment wastes
    /// DRAM bandwidth, exactly as §V specifies.
    pub fn aligned_span(&self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let start = addr / self.granularity * self.granularity;
        let end = (addr + bytes).div_ceil(self.granularity) * self.granularity;
        end - start
    }
}

/// Whether a request reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRequestKind {
    /// Read `bytes` from `addr`; the response carries the data.
    Read,
    /// Write the carried data at `addr`.
    Write,
}

/// A request presented to the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct MemRequest {
    /// Read or write.
    pub kind: MemRequestKind,
    /// Byte address (4-byte aligned).
    pub addr: u64,
    /// Transfer size in bytes (a multiple of 4).
    pub bytes: u64,
    /// Opaque caller tag, echoed in the response (used by the accelerator
    /// to route replies to the right module/thread/aggregation).
    pub tag: u64,
    /// Data for writes (`bytes / 4` words); `None` for reads.
    pub data: Option<Vec<u32>>,
}

impl MemRequest {
    /// A read request.
    pub fn read(addr: u64, bytes: u64, tag: u64) -> Self {
        MemRequest {
            kind: MemRequestKind::Read,
            addr,
            bytes,
            tag,
            data: None,
        }
    }

    /// A write request carrying `data`.
    pub fn write(addr: u64, data: Vec<u32>, tag: u64) -> Self {
        MemRequest {
            kind: MemRequestKind::Write,
            addr,
            bytes: data.len() as u64 * 4,
            tag,
            data: Some(data),
        }
    }
}

/// A completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct MemResponse {
    /// Read or write (writes complete with an acknowledgement).
    pub kind: MemRequestKind,
    /// The request's address.
    pub addr: u64,
    /// The request's size in bytes.
    pub bytes: u64,
    /// The request's tag.
    pub tag: u64,
    /// Read data (`bytes / 4` words); `None` for write acks.
    pub data: Option<Vec<u32>>,
    /// Cycle at which the response is available.
    pub ready_at: u64,
}

/// Counters accumulated by a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Requests accepted.
    pub requests: u64,
    /// DRAM line bytes actually occupied (≥ useful; the difference is
    /// alignment waste).
    pub dram_bytes: u64,
    /// Useful bytes read and written (as requested).
    pub useful_bytes: u64,
    /// Requests rejected because the queue was full.
    pub rejected: u64,
}

/// Controller `i`'s counters, `mem{i}.{name}` over [`MemStats::fields`]
/// and `mem{i}.`[`EFFICIENCY`].
pub const STATS_KEYS: KeyFamily = KeyFamily::new("mem", ".");

/// Name of a controller's efficiency gauge ([`MemStats::efficiency`]).
pub const EFFICIENCY: &str = "efficiency";

/// Controller `i`'s DRAM energy, `mem.energy.ctrl{i}_pj`.
pub const ENERGY_KEYS: KeyFamily = KeyFamily::new("mem.energy.ctrl", "_pj");

/// Ledger site of DRAM traffic energy.
pub const DRAM_ENERGY_SITE: &str = "dram";

impl MemStats {
    /// The energy charge of this DRAM traffic: every occupied line byte,
    /// since alignment waste burns energy too (the paper's §II
    /// complaint). The energy ledger charges it per controller, the
    /// aggregate model over all of them.
    pub fn energy(&self) -> EnergyCharge {
        (DRAM_ENERGY_SITE, CostClass::DramByte, self.dram_bytes)
    }

    /// Every counter as `(metric suffix, slot)`: the one name list of the
    /// `memN.{suffix}` family, shared by the exporter, the report parser
    /// and [`MemStats::merge`].
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 4] {
        [
            ("requests", &mut self.requests),
            ("dram_bytes", &mut self.dram_bytes),
            ("useful_bytes", &mut self.useful_bytes),
            ("rejected", &mut self.rejected),
        ]
    }

    /// Every counter as `(metric suffix, value)`, in the order of
    /// [`MemStats::fields_mut`].
    pub fn fields(&self) -> [(&'static str, u64); 4] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Adds `other`'s counters into `self` (totals over controllers).
    pub fn merge(&mut self, other: &MemStats) {
        for ((_, slot), (_, v)) in self.fields_mut().into_iter().zip(other.fields()) {
            *slot += v;
        }
    }

    /// Fraction of DRAM traffic that was useful, in `(0, 1]`.
    pub fn efficiency(&self) -> f64 {
        if self.dram_bytes == 0 {
            1.0
        } else {
            self.useful_bytes as f64 / self.dram_bytes as f64
        }
    }
}

/// Transient-fault state a queued request carries from injection (at
/// [`MemoryController::try_push`]) to resolution (at
/// [`MemoryController::pop_ready`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingFault {
    /// One bit of the line flipped in DRAM; SECDED corrects it inline.
    SingleBit,
    /// Two bits flipped; SECDED detects but cannot correct, so the
    /// first delivery attempt schedules a penalised re-read.
    DoubleBit,
    /// The re-read of a double-bit fault is in flight; the carried
    /// count is re-read attempts so far (compared against the plan's
    /// `mem_retry_budget` when it is finite).
    Retrying(u32),
    /// The fault landed outside the configured [`EccDomain`]: nothing
    /// detects it, so the corrupted line is delivered as silent data
    /// corruption. `double` records whether one or two bits flipped.
    Undetected {
        /// Two bits flipped (vs one).
        double: bool,
    },
}

#[derive(Debug)]
struct PendingRequest {
    request: MemRequest,
    ready_at: u64,
    fault: Option<PendingFault>,
}

/// Seeded DRAM-fault injection plus the SECDED protection model for one
/// controller. Built from a [`FaultPlan`] with a per-controller
/// instance index so every controller owns an independent deterministic
/// stream.
///
/// Besides the transient per-request stream, the state can carry a
/// permanent [`StuckLineModel`]: a deterministic map of word addresses
/// with stuck bit lines, consulted on *every* read of an afflicted
/// address (no RNG draws — permanent defects are a property of the
/// address, not of the access). In pass-through mode uncorrectable
/// errors (double-bit transients, stuck lines) are delivered into the
/// returned data and counted as `sdc` instead of being repaired.
#[derive(Debug)]
pub struct MemFaultState {
    injector: SiteInjector,
    double_bit_fraction: f64,
    retry_penalty_cycles: u64,
    stuck: Option<StuckLineModel>,
    passthrough: bool,
    counters: FaultCounters,
    /// SECDED protection domain; faults outside it go undetected.
    ecc_domain: EccDomain,
    /// First address of the activation region: the static/weights
    /// region is `addr < static_boundary`. Set by the system once the
    /// memory layout is known (via
    /// [`MemoryController::set_static_boundary`]); irrelevant under
    /// [`EccDomain::Both`].
    static_boundary: u64,
    /// Re-read attempts allowed per double-bit error; `u32::MAX` models
    /// the legacy always-successful re-read.
    retry_budget: u32,
    /// Dedicated Bernoulli stream deciding whether a re-read itself
    /// re-faults (finite budgets only, so the main injector's draw
    /// order — and every legacy golden — is unperturbed).
    retry_rng: Option<SiteInjector>,
    /// Sticky failure raised when a re-read budget exhausts; the
    /// controller wedges until the system aborts or rolls back.
    failure: Option<String>,
}

impl MemFaultState {
    /// Builds the fault state for controller `instance` under `plan`.
    pub fn from_plan(plan: &FaultPlan, instance: u64) -> Self {
        MemFaultState {
            injector: SiteInjector::new(plan.seed, FaultSite::MemRead, instance, plan.mem_rate),
            double_bit_fraction: plan.mem_double_bit_fraction,
            retry_penalty_cycles: plan.mem_retry_penalty_cycles.max(1),
            stuck: if plan.mem_stuck_rate > 0.0 {
                Some(StuckLineModel::new(
                    plan.seed,
                    instance,
                    plan.mem_stuck_rate,
                ))
            } else {
                None
            },
            passthrough: plan.recovery == RecoveryMode::Passthrough,
            counters: FaultCounters::default(),
            ecc_domain: plan.ecc_domain,
            static_boundary: 0,
            retry_budget: plan.mem_retry_budget,
            retry_rng: if plan.mem_retry_budget != u32::MAX {
                // The re-read re-faults at the same double-bit-event
                // rate as a first read; a distinct instance index keeps
                // the stream independent of every controller's main
                // stream (controller counts are small, so the offset
                // cannot collide).
                Some(SiteInjector::new(
                    plan.seed,
                    FaultSite::MemRead,
                    instance.wrapping_add(1 << 32),
                    plan.mem_rate * plan.mem_double_bit_fraction,
                ))
            } else {
                None
            },
            failure: None,
        }
    }

    /// Outcome counters accumulated so far.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Whether SECDED covers `addr` under the configured domain.
    fn protects(&self, addr: u64) -> bool {
        match self.ecc_domain {
            EccDomain::Both => true,
            EccDomain::WeightsOnly => addr < self.static_boundary,
            EccDomain::ActivationsOnly => addr >= self.static_boundary,
        }
    }
}

/// The paper's memory-controller model: a 32-entry in-order queue over a
/// bandwidth–latency DRAM.
///
/// Requests are accepted with [`MemoryController::try_push`]; each
/// occupies the DRAM for `aligned_span / bytes_per_cycle` cycles in FIFO
/// order and its response becomes available one fixed latency after its
/// service completes. [`MemoryController::pop_ready`] retires responses
/// in order, performing the functional read/write against a [`MemImage`].
///
/// # Example
///
/// ```
/// use gnna_mem::{MemConfig, MemImage, MemRequest, MemoryController};
///
/// let mut img = MemImage::new();
/// let addr = img.alloc_u32(&[11, 22]);
/// let mut ctrl = MemoryController::new(MemConfig::default());
/// ctrl.try_push(MemRequest::read(addr, 8, 0), 0).unwrap();
/// let resp = loop {
///     // advance time until the response retires
///     let now = ctrl.next_ready_cycle().unwrap();
///     if let Some(r) = ctrl.pop_ready(now, &mut img) {
///         break r;
///     }
/// };
/// assert_eq!(resp.data.unwrap(), vec![11, 22]);
/// ```
#[derive(Debug)]
pub struct MemoryController {
    cfg: MemConfig,
    queue: VecDeque<PendingRequest>,
    /// Time (in fractional cycles) at which the DRAM becomes free.
    dram_free_at: f64,
    stats: MemStats,
    /// Optional telemetry probe (`None` when tracing is disabled, so
    /// instrumentation reduces to a never-taken branch).
    probe: Option<ModuleProbe>,
    /// Optional fault injection + ECC model (`None` keeps the
    /// controller bit-identical to the fault-free model).
    fault: Option<MemFaultState>,
}

impl MemoryController {
    /// Creates a controller with the given configuration.
    pub fn new(cfg: MemConfig) -> Self {
        MemoryController {
            cfg,
            queue: VecDeque::new(),
            dram_free_at: 0.0,
            stats: MemStats::default(),
            probe: None,
            fault: None,
        }
    }

    /// Attaches a telemetry probe; the controller emits an instant event
    /// on every queue-full rejection.
    pub fn attach_probe(&mut self, probe: ModuleProbe) {
        self.probe = Some(probe);
    }

    /// Samples the request-queue depth on the probe's counter track.
    pub fn sample_counters(&self) {
        if let Some(p) = &self.probe {
            p.counter("queue_depth", self.queue_len() as f64);
        }
    }

    /// Attaches seeded DRAM-fault injection with the SECDED protection
    /// model. Read requests may then suffer single-bit flips (corrected
    /// inline; data stays bit-exact) or double-bit flips (detected,
    /// repaired by a penalised re-read). Timing is perturbed only by
    /// retries; returned data is always correct.
    pub fn attach_faults(&mut self, state: MemFaultState) {
        self.fault = Some(state);
    }

    /// Fault outcome counters (`None` when fault injection is not
    /// attached).
    pub fn fault_counters(&self) -> Option<&FaultCounters> {
        self.fault.as_ref().map(MemFaultState::counters)
    }

    /// Sets the static/activation address boundary for selective ECC
    /// domains (no-op when faults are not attached). Addresses below
    /// the boundary form the static/weights region.
    pub fn set_static_boundary(&mut self, addr: u64) {
        if let Some(fs) = self.fault.as_mut() {
            fs.static_boundary = addr;
        }
    }

    /// Sticky unrecoverable-fault message, set when a double-bit
    /// re-read budget exhausts. The controller wedges (no further
    /// deliveries) until the system aborts the run or rolls back.
    pub fn fault_failure(&self) -> Option<&str> {
        self.fault.as_ref().and_then(|fs| fs.failure.as_deref())
    }

    /// Clears the sticky failure as part of a rollback rescue,
    /// reclassifying the exhausted fault from `unrecoverable` to
    /// `rolled_back`. No-op if no failure is pending.
    pub fn clear_fault_failure_for_rollback(&mut self) {
        if let Some(fs) = self.fault.as_mut() {
            if fs.failure.take().is_some() {
                fs.counters.unrecoverable -= 1;
                fs.counters.rolled_back += 1;
                // The exhausted fault sits at the queue head as a
                // `Retrying` marker; drop it so a subsequent
                // `reset_for_replay` does not count the same injected
                // fault twice.
                if let Some(front) = self.queue.front_mut() {
                    front.fault = None;
                }
            }
        }
    }

    /// Discards all in-flight requests for a checkpoint-rollback
    /// replay, keeping cumulative statistics, fault counters, and RNG
    /// stream positions (replay draws the continuation of the seeded
    /// streams, so the whole run stays seed-stable). Injected faults
    /// still pending in the discarded queue are reclassified as
    /// `rolled_back` so the outcome partition stays exact.
    pub fn reset_for_replay(&mut self) {
        if let Some(fs) = self.fault.as_mut() {
            for p in &self.queue {
                if p.fault.is_some() {
                    fs.counters.rolled_back += 1;
                }
            }
        }
        self.queue.clear();
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Number of queued (not yet retired) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the controller has no outstanding work.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Offers a request at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns the request back if the 32-entry queue is full.
    pub fn try_push(&mut self, request: MemRequest, now: u64) -> Result<(), MemRequest> {
        if self.queue.len() >= self.cfg.queue_depth {
            self.stats.rejected += 1;
            if let Some(p) = &self.probe {
                p.instant("mem_queue_reject");
            }
            return Err(request);
        }
        let span = self.cfg.aligned_span(request.addr, request.bytes);
        let transfer_cycles = span as f64 / self.cfg.bytes_per_cycle();
        let start = self.dram_free_at.max(now as f64);
        self.dram_free_at = start + transfer_cycles;
        let ready_at = (self.dram_free_at + self.cfg.latency_cycles()).ceil() as u64;
        self.stats.requests += 1;
        self.stats.dram_bytes += span;
        self.stats.useful_bytes += request.bytes;
        // Seeded fault injection: a read may pick up a transient DRAM
        // bit-flip while queued. The outcome (ECC correction or
        // penalised re-read) is resolved at delivery time in
        // `pop_ready`; writes are not faulted (write data is checked on
        // its own read path).
        let mut fault = None;
        if request.kind == MemRequestKind::Read {
            if let Some(fs) = self.fault.as_mut() {
                if fs.injector.fire() {
                    fs.counters.injected += 1;
                    // The double-bit sub-draw happens before the domain
                    // check so the stream consumption is identical for
                    // every `EccDomain` (and bit-identical to the
                    // pre-domain model under `EccDomain::Both`).
                    let double = fs.injector.draw_below(fs.double_bit_fraction);
                    fault = Some(if fs.protects(request.addr) {
                        if double {
                            PendingFault::DoubleBit
                        } else {
                            PendingFault::SingleBit
                        }
                    } else {
                        PendingFault::Undetected { double }
                    });
                    if let Some(p) = &self.probe {
                        p.instant("mem_fault_inject");
                    }
                }
            }
        }
        self.queue.push_back(PendingRequest {
            request,
            ready_at,
            fault,
        });
        Ok(())
    }

    /// The cycle at which the oldest outstanding request retires, if any.
    pub fn next_ready_cycle(&self) -> Option<u64> {
        self.queue.front().map(|p| p.ready_at)
    }

    /// Retires the oldest request if its response is ready at `now`,
    /// applying the functional access to `image`.
    ///
    /// Writes whose target lies beyond the image are applied as far as the
    /// image extends (the image is sized by the loader, so this indicates
    /// a programming error and panics in debug builds via `MemImage`).
    pub fn pop_ready(&mut self, now: u64, image: &mut MemImage) -> Option<MemResponse> {
        let front = self.queue.front()?;
        if front.ready_at > now {
            return None;
        }
        let (front_fault, front_addr) = (front.fault, front.request.addr);
        // A wedged controller (re-read budget exhausted) delivers
        // nothing until the system aborts the run or rolls back.
        if self.fault.as_ref().is_some_and(|fs| fs.failure.is_some()) {
            return None;
        }
        // Double-bit fault at the head: SECDED detects but cannot
        // correct, so the first delivery attempt converts into a
        // penalised re-read (the retried data is clean). The request
        // stays queued; only its timing changes. Under pass-through the
        // re-read is skipped: the corrupted line is delivered as-is
        // (counted as `sdc` below) with no timing penalty.
        if front_fault == Some(PendingFault::DoubleBit) {
            let fs = self
                .fault
                .as_mut()
                .expect("queued fault implies attached fault state");
            if !fs.passthrough {
                fs.counters.retry_cycles += fs.retry_penalty_cycles;
                let penalty = fs.retry_penalty_cycles;
                let front = self.queue.front_mut().expect("checked front");
                front.ready_at = now + penalty;
                front.fault = Some(PendingFault::Retrying(1));
                if let Some(p) = &self.probe {
                    p.instant("mem_fault_retry");
                }
                return None;
            }
        }
        // Under a finite re-read budget the re-read itself may suffer
        // another double-bit upset, drawn from the dedicated retry
        // stream (the default infinite budget has no stream and takes
        // the legacy always-clean path with zero draws).
        if let Some(PendingFault::Retrying(attempts)) = front_fault {
            let fs = self
                .fault
                .as_mut()
                .expect("queued fault implies attached fault state");
            if let Some(rng) = fs.retry_rng.as_mut() {
                if rng.fire() {
                    if attempts >= fs.retry_budget {
                        fs.counters.unrecoverable += 1;
                        fs.failure = Some(format!(
                            "DRAM double-bit re-read budget ({}) exhausted at \
                             address {front_addr:#x} on cycle {now}",
                            fs.retry_budget
                        ));
                        if let Some(p) = &self.probe {
                            p.instant("mem_fault_unrecoverable");
                        }
                    } else {
                        fs.counters.retry_cycles += fs.retry_penalty_cycles;
                        let penalty = fs.retry_penalty_cycles;
                        let front = self.queue.front_mut().expect("checked front");
                        front.ready_at = now + penalty;
                        front.fault = Some(PendingFault::Retrying(attempts + 1));
                        if let Some(p) = &self.probe {
                            p.instant("mem_fault_retry");
                        }
                    }
                    return None;
                }
            }
        }
        let PendingRequest {
            request,
            ready_at,
            fault,
        } = self.queue.pop_front().expect("checked front");
        let data = match request.kind {
            MemRequestKind::Read => {
                let mut words = image
                    .read_words(request.addr, (request.bytes / 4) as usize)
                    .to_vec();
                match fault {
                    Some(PendingFault::SingleBit) => {
                        // Run the real (39,32) SECDED model on the first
                        // word of the line: encode, flip one codeword
                        // bit, decode. Single-bit flips always decode to
                        // `Corrected(original)`, so the delivered data
                        // stays bit-exact.
                        let fs = self
                            .fault
                            .as_mut()
                            .expect("queued fault implies attached fault state");
                        if let Some(w) = words.first_mut() {
                            let bit = fs.injector.draw_range(u64::from(ecc::CODE_BITS)) as u32;
                            match ecc::decode(ecc::flip(ecc::encode(*w), bit)) {
                                ecc::Decoded::Corrected(fixed) | ecc::Decoded::Clean(fixed) => {
                                    *w = fixed;
                                }
                                ecc::Decoded::DoubleError => {
                                    unreachable!("single flip is always correctable")
                                }
                            }
                        }
                        fs.counters.corrected += 1;
                        if let Some(p) = &self.probe {
                            p.instant("mem_fault_corrected");
                        }
                    }
                    Some(PendingFault::Retrying(_)) => {
                        let fs = self
                            .fault
                            .as_mut()
                            .expect("queued fault implies attached fault state");
                        fs.counters.retried += 1;
                        if let Some(p) = &self.probe {
                            p.instant("mem_fault_retried");
                        }
                    }
                    Some(PendingFault::Undetected { double }) => {
                        // The upset landed outside the configured ECC
                        // protection domain: no code word exists for
                        // this line, so the raw corrupted data leaves
                        // the controller as silent data corruption.
                        let fs = self
                            .fault
                            .as_mut()
                            .expect("queued fault implies attached fault state");
                        if let Some(w) = words.first_mut() {
                            let a = fs.injector.draw_range(32) as u32;
                            if double {
                                let b = (a + 1 + fs.injector.draw_range(31) as u32) % 32;
                                debug_assert_ne!(a, b);
                                *w ^= (1 << a) | (1 << b);
                            } else {
                                *w ^= 1 << a;
                            }
                        }
                        fs.counters.sdc += 1;
                        if let Some(p) = &self.probe {
                            p.instant("mem_fault_sdc");
                        }
                    }
                    Some(PendingFault::DoubleBit) => {
                        // Pass-through: the double-bit error escapes
                        // the controller as silent data corruption.
                        // Flip two distinct bits of the first data word
                        // (the decode failed, so the raw corrupted line
                        // is what leaves the controller).
                        let fs = self
                            .fault
                            .as_mut()
                            .expect("queued fault implies attached fault state");
                        debug_assert!(fs.passthrough, "double-bit only pops in pass-through");
                        if let Some(w) = words.first_mut() {
                            let a = fs.injector.draw_range(32) as u32;
                            let b = (a + 1 + fs.injector.draw_range(31) as u32) % 32;
                            debug_assert_ne!(a, b);
                            *w ^= (1 << a) | (1 << b);
                        }
                        fs.counters.sdc += 1;
                        if let Some(p) = &self.probe {
                            p.instant("mem_fault_sdc");
                        }
                    }
                    None => {}
                }
                // Permanent stuck bit lines: consulted on every read of
                // an afflicted word address (pure hash, no RNG draws).
                // Protected mode corrects each corrupting line inline
                // via SECDED (data stays bit-exact); pass-through
                // delivers the stuck value as silent data corruption.
                if let Some(fs) = self.fault.as_mut() {
                    if let Some(stuck) = &fs.stuck {
                        let base_word = request.addr / 4;
                        for (i, w) in words.iter_mut().enumerate() {
                            let Some(line) = stuck.stuck_at(base_word + i as u64) else {
                                continue;
                            };
                            if !line.corrupts(*w) {
                                continue; // masked: stored bit matches the stuck value
                            }
                            fs.counters.injected += 1;
                            if fs.passthrough || !fs.protects((base_word + i as u64) * 4) {
                                *w = line.apply(*w);
                                fs.counters.sdc += 1;
                                if let Some(p) = &self.probe {
                                    p.instant("mem_fault_sdc");
                                }
                            } else {
                                // A stuck line is a single-bit error on
                                // this word; SECDED corrects it inline.
                                fs.counters.corrected += 1;
                                if let Some(p) = &self.probe {
                                    p.instant("mem_fault_corrected");
                                }
                            }
                        }
                    }
                }
                Some(words)
            }
            MemRequestKind::Write => {
                let words = request.data.as_deref().expect("write carries data");
                image.write_words(request.addr, words);
                None
            }
        };
        Some(MemResponse {
            kind: request.kind,
            addr: request.addr,
            bytes: request.bytes,
            tag: request.tag,
            data,
            ready_at,
        })
    }
}

impl fmt::Display for MemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MemConfig({:.0} GB/s, {:.0} ns, {} B granularity, {}-deep queue)",
            self.bandwidth_bytes_per_s / 1e9,
            self.latency_s * 1e9,
            self.granularity,
            self.queue_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_every_named_counter() {
        let a = MemStats {
            requests: 1,
            dram_bytes: 2,
            useful_bytes: 3,
            rejected: 4,
        };
        let mut total = a;
        total.merge(&a);
        for ((name, v), (_, t)) in a.fields().into_iter().zip(total.fields()) {
            assert_eq!(t, 2 * v, "{name}");
        }
        let names: std::collections::BTreeSet<_> = a.fields().map(|(n, _)| n).into();
        assert_eq!(names.len(), 4, "duplicate metric suffix");
    }

    fn setup() -> (MemoryController, MemImage, u64) {
        let mut img = MemImage::new();
        let addr = img.alloc_u32(&(0..64u32).collect::<Vec<_>>());
        (MemoryController::new(MemConfig::default()), img, addr)
    }

    #[test]
    fn config_defaults_match_paper() {
        let c = MemConfig::default();
        assert_eq!(c.bandwidth_bytes_per_s, 68e9);
        assert_eq!(c.latency_s, 20e-9);
        assert_eq!(c.granularity, 64);
        assert_eq!(c.queue_depth, 32);
        assert!((c.latency_cycles() - 48.0).abs() < 1e-9); // 20ns @ 2.4GHz
        assert!((c.bytes_per_cycle() - 68.0 / 2.4).abs() < 1e-9);
    }

    #[test]
    fn aligned_span_accounts_misalignment() {
        let c = MemConfig::default();
        assert_eq!(c.aligned_span(0, 64), 64);
        assert_eq!(c.aligned_span(0, 65), 128);
        assert_eq!(c.aligned_span(60, 8), 128); // straddles a line
        assert_eq!(c.aligned_span(64, 4), 64);
        assert_eq!(c.aligned_span(0, 0), 0);
    }

    #[test]
    fn read_roundtrip_with_latency() {
        let (mut ctrl, mut img, addr) = setup();
        ctrl.try_push(MemRequest::read(addr, 16, 9), 0).unwrap();
        // Not ready before the fixed latency (48 cycles + transfer).
        assert!(ctrl.pop_ready(10, &mut img).is_none());
        let ready = ctrl.next_ready_cycle().unwrap();
        assert!(ready >= 48, "ready at {ready}");
        let resp = ctrl.pop_ready(ready, &mut img).unwrap();
        assert_eq!(resp.tag, 9);
        assert_eq!(resp.data.unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn write_applies_to_image() {
        let (mut ctrl, mut img, addr) = setup();
        ctrl.try_push(MemRequest::write(addr + 8, vec![77, 88], 1), 0)
            .unwrap();
        let ready = ctrl.next_ready_cycle().unwrap();
        let resp = ctrl.pop_ready(ready, &mut img).unwrap();
        assert_eq!(resp.kind, MemRequestKind::Write);
        assert!(resp.data.is_none());
        assert_eq!(img.read_u32(addr + 8), 77);
        assert_eq!(img.read_u32(addr + 12), 88);
    }

    #[test]
    fn queue_depth_enforced() {
        let (mut ctrl, _img, addr) = setup();
        for i in 0..32 {
            ctrl.try_push(MemRequest::read(addr, 4, i), 0).unwrap();
        }
        let r = ctrl.try_push(MemRequest::read(addr, 4, 99), 0);
        assert!(r.is_err());
        assert_eq!(ctrl.stats().rejected, 1);
        assert_eq!(ctrl.queue_len(), 32);
    }

    #[test]
    fn in_order_service_serialises_bandwidth() {
        // Two 64 B reads: the second's service starts after the first's,
        // so its ready time is strictly later.
        let (mut ctrl, mut img, addr) = setup();
        ctrl.try_push(MemRequest::read(addr, 64, 0), 0).unwrap();
        let first_ready = ctrl.next_ready_cycle().unwrap();
        ctrl.try_push(MemRequest::read(addr + 64, 64, 1), 0)
            .unwrap();
        let r0 = ctrl.pop_ready(u64::MAX - 1, &mut img).unwrap();
        let r1 = ctrl.pop_ready(u64::MAX - 1, &mut img).unwrap();
        assert_eq!(r0.tag, 0);
        assert_eq!(r1.tag, 1);
        assert_eq!(r0.ready_at, first_ready);
        assert!(r1.ready_at > r0.ready_at);
        // 64 B at 28.33 B/cycle ≈ 2.26 cycles of extra occupancy.
        assert!(r1.ready_at - r0.ready_at <= 4);
    }

    #[test]
    fn sustained_bandwidth_approaches_config() {
        // Issue 1000 back-to-back 64 B reads; total service time should
        // be close to 1000 * 64 / 28.33 cycles.
        let cfg = MemConfig::default();
        let mut ctrl = MemoryController::new(cfg);
        let mut img = MemImage::new();
        let base = img.alloc(16 * 1000);
        let mut last_ready = 0;
        for i in 0..1000u64 {
            // Queue is 32 deep: retire as we go.
            while ctrl
                .try_push(MemRequest::read(base + i * 64, 64, i), 0)
                .is_err()
            {
                let now = ctrl.next_ready_cycle().unwrap();
                let r = ctrl.pop_ready(now, &mut img).unwrap();
                last_ready = r.ready_at;
            }
        }
        while let Some(now) = ctrl.next_ready_cycle() {
            last_ready = ctrl.pop_ready(now, &mut img).unwrap().ready_at;
        }
        let ideal = 1000.0 * 64.0 / cfg.bytes_per_cycle();
        let measured = last_ready as f64 - cfg.latency_cycles();
        assert!(
            (measured - ideal).abs() / ideal < 0.05,
            "measured {measured} vs ideal {ideal}"
        );
    }

    #[test]
    fn efficiency_reflects_waste() {
        let (mut ctrl, _img, addr) = setup();
        // 4-byte read occupying a full 64 B line: 1/16 efficiency.
        ctrl.try_push(MemRequest::read(addr, 4, 0), 0).unwrap();
        assert!((ctrl.stats().efficiency() - 4.0 / 64.0).abs() < 1e-12);
    }

    /// Drains the controller to completion, returning responses in order.
    fn drain(ctrl: &mut MemoryController, img: &mut MemImage) -> Vec<MemResponse> {
        let mut out = Vec::new();
        while let Some(now) = ctrl.next_ready_cycle() {
            if let Some(r) = ctrl.pop_ready(now, img) {
                out.push(r);
            }
        }
        out
    }

    fn faulty_ctrl(rate: f64, double_fraction: f64, seed: u64) -> MemoryController {
        let plan = FaultPlan::new(seed)
            .with_mem_rate(rate)
            .with_double_bit_fraction(double_fraction);
        let mut ctrl = MemoryController::new(MemConfig::default());
        ctrl.attach_faults(MemFaultState::from_plan(&plan, 0));
        ctrl
    }

    #[test]
    fn single_bit_faults_deliver_bit_exact_data() {
        // Rate 1, all single-bit: every read is corrected inline and the
        // delivered data must equal the image contents exactly.
        let mut img = MemImage::new();
        let addr = img.alloc_u32(&(0..64u32).collect::<Vec<_>>());
        let mut ctrl = faulty_ctrl(1.0, 0.0, 7);
        for i in 0..8u64 {
            ctrl.try_push(MemRequest::read(addr + i * 16, 16, i), 0)
                .unwrap();
        }
        let resps = drain(&mut ctrl, &mut img);
        assert_eq!(resps.len(), 8);
        for (i, r) in resps.iter().enumerate() {
            let base = i as u32 * 4;
            assert_eq!(
                r.data.as_deref().unwrap(),
                &[base, base + 1, base + 2, base + 3],
                "response {i}"
            );
        }
        let c = ctrl.fault_counters().unwrap();
        assert_eq!(c.injected, 8);
        assert_eq!(c.corrected, 8);
        assert_eq!(c.retried, 0);
        assert_eq!(c.retry_cycles, 0);
        assert!(c.partition_holds());
    }

    #[test]
    fn double_bit_faults_retry_with_penalty_and_clean_data() {
        // Rate 1, all double-bit: first delivery attempt is refused and
        // converts into a penalised re-read; data still arrives correct.
        let mut img = MemImage::new();
        let addr = img.alloc_u32(&[0xDEAD_BEEF, 0x1234_5678]);
        let mut ctrl = faulty_ctrl(1.0, 1.0, 3);
        ctrl.try_push(MemRequest::read(addr, 8, 0), 0).unwrap();
        let first_ready = ctrl.next_ready_cycle().unwrap();
        // The first attempt at the nominal ready time is refused.
        assert!(ctrl.pop_ready(first_ready, &mut img).is_none());
        let retry_ready = ctrl.next_ready_cycle().unwrap();
        assert!(retry_ready > first_ready, "retry must delay delivery");
        let resp = ctrl.pop_ready(retry_ready, &mut img).unwrap();
        assert_eq!(resp.data.unwrap(), vec![0xDEAD_BEEF, 0x1234_5678]);
        let c = ctrl.fault_counters().unwrap();
        assert_eq!(c.injected, 1);
        assert_eq!(c.corrected, 0);
        assert_eq!(c.retried, 1);
        assert_eq!(c.unrecoverable, 0);
        assert!(c.retry_cycles > 0);
        assert!(c.partition_holds());
    }

    #[test]
    fn writes_are_never_faulted() {
        let mut img = MemImage::new();
        let addr = img.alloc_u32(&[0, 0]);
        let mut ctrl = faulty_ctrl(1.0, 0.5, 11);
        ctrl.try_push(MemRequest::write(addr, vec![5, 6], 0), 0)
            .unwrap();
        let resps = drain(&mut ctrl, &mut img);
        assert_eq!(resps.len(), 1);
        assert_eq!(ctrl.fault_counters().unwrap().injected, 0);
        assert_eq!(img.read_u32(addr), 5);
    }

    #[test]
    fn identical_seeds_fault_identically() {
        let run = |seed: u64| {
            let mut img = MemImage::new();
            let addr = img.alloc_u32(&(0..64u32).collect::<Vec<_>>());
            let mut ctrl = faulty_ctrl(0.5, 0.25, seed);
            for i in 0..32u64 {
                ctrl.try_push(MemRequest::read(addr + (i % 8) * 16, 16, i), 0)
                    .unwrap();
            }
            let ready: Vec<u64> = drain(&mut ctrl, &mut img)
                .iter()
                .map(|r| r.ready_at)
                .collect();
            (*ctrl.fault_counters().unwrap(), ready)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds should diverge");
    }

    #[test]
    fn zero_rate_plan_is_identical_to_detached() {
        let mut img_a = MemImage::new();
        let mut img_b = MemImage::new();
        let addr_a = img_a.alloc_u32(&(0..64u32).collect::<Vec<_>>());
        let addr_b = img_b.alloc_u32(&(0..64u32).collect::<Vec<_>>());
        assert_eq!(addr_a, addr_b);
        let mut plain = MemoryController::new(MemConfig::default());
        let mut faulted = faulty_ctrl(0.0, 0.25, 9);
        for i in 0..16u64 {
            plain
                .try_push(MemRequest::read(addr_a + i * 16, 16, i), i)
                .unwrap();
            faulted
                .try_push(MemRequest::read(addr_b + i * 16, 16, i), i)
                .unwrap();
        }
        let ra = drain(&mut plain, &mut img_a);
        let rb = drain(&mut faulted, &mut img_b);
        assert_eq!(ra, rb);
        assert_eq!(*faulted.fault_counters().unwrap(), FaultCounters::default());
    }

    #[test]
    fn idle_tracking() {
        let (mut ctrl, mut img, addr) = setup();
        assert!(ctrl.is_idle());
        ctrl.try_push(MemRequest::read(addr, 4, 0), 0).unwrap();
        assert!(!ctrl.is_idle());
        let now = ctrl.next_ready_cycle().unwrap();
        ctrl.pop_ready(now, &mut img).unwrap();
        assert!(ctrl.is_idle());
    }

    #[test]
    fn passthrough_double_bit_skips_retry_and_corrupts() {
        // Rate 1, all double-bit, pass-through: the first delivery
        // attempt succeeds immediately (no penalty) but the data leaves
        // the controller corrupted, counted as sdc.
        let mut img = MemImage::new();
        let addr = img.alloc_u32(&[0xDEAD_BEEF, 0x1234_5678]);
        let plan = FaultPlan::new(3)
            .with_mem_rate(1.0)
            .with_double_bit_fraction(1.0)
            .with_recovery(RecoveryMode::Passthrough);
        let mut ctrl = MemoryController::new(MemConfig::default());
        ctrl.attach_faults(MemFaultState::from_plan(&plan, 0));
        ctrl.try_push(MemRequest::read(addr, 8, 0), 0).unwrap();
        let first_ready = ctrl.next_ready_cycle().unwrap();
        let resp = ctrl
            .pop_ready(first_ready, &mut img)
            .expect("pass-through delivers at the nominal ready time");
        let data = resp.data.unwrap();
        assert_ne!(data[0], 0xDEAD_BEEF, "first word must be corrupted");
        assert_eq!(
            (data[0] ^ 0xDEAD_BEEF).count_ones(),
            2,
            "exactly two bits flipped"
        );
        assert_eq!(data[1], 0x1234_5678, "other words untouched");
        let c = ctrl.fault_counters().unwrap();
        assert_eq!(c.injected, 1);
        assert_eq!(c.sdc, 1);
        assert_eq!(c.retried, 0);
        assert_eq!(c.retry_cycles, 0);
        assert!(c.partition_holds());
        // The image itself is unharmed: a later fault-free re-read of
        // the same address through a clean controller sees the truth.
        assert_eq!(img.read_u32(addr), 0xDEAD_BEEF);
    }

    #[test]
    fn stuck_lines_apply_on_every_access_deterministically() {
        // Rate 1.0: every word address is afflicted. Protected mode
        // corrects each corrupting line inline (data bit-exact).
        let mut img = MemImage::new();
        let words: Vec<u32> = (100..116u32).collect();
        let addr = img.alloc_u32(&words);
        let plan = FaultPlan::new(21).with_mem_stuck_rate(1.0);
        let mut ctrl = MemoryController::new(MemConfig::default());
        ctrl.attach_faults(MemFaultState::from_plan(&plan, 0));
        // Read the same line twice: the stuck lines re-fire each time.
        for tag in 0..2u64 {
            ctrl.try_push(MemRequest::read(addr, 64, tag), 0).unwrap();
        }
        let resps = drain(&mut ctrl, &mut img);
        assert_eq!(resps.len(), 2);
        for r in &resps {
            assert_eq!(
                r.data.as_deref().unwrap(),
                &words[..],
                "ECC keeps data exact"
            );
        }
        let c = *ctrl.fault_counters().unwrap();
        assert!(c.injected > 0, "some stuck lines must corrupt");
        assert_eq!(c.corrected, c.injected);
        assert_eq!(c.sdc, 0);
        assert!(c.partition_holds());
        // Same events on both accesses: injected count is even.
        assert_eq!(c.injected % 2, 0);
    }

    #[test]
    fn stuck_lines_pass_through_as_sdc() {
        let mut img = MemImage::new();
        let words: Vec<u32> = (0..16u32).map(|i| i * 0x0101_0101).collect();
        let addr = img.alloc_u32(&words);
        let plan = FaultPlan::new(21)
            .with_mem_stuck_rate(1.0)
            .with_recovery(RecoveryMode::Passthrough);
        let mut ctrl = MemoryController::new(MemConfig::default());
        ctrl.attach_faults(MemFaultState::from_plan(&plan, 0));
        ctrl.try_push(MemRequest::read(addr, 64, 0), 0).unwrap();
        let resps = drain(&mut ctrl, &mut img);
        let data = resps[0].data.as_deref().unwrap().to_vec();
        let differing = data
            .iter()
            .zip(&words)
            .filter(|(got, want)| got != want)
            .count();
        let c = *ctrl.fault_counters().unwrap();
        assert!(c.sdc > 0, "pass-through must corrupt some words");
        assert_eq!(c.sdc, c.injected);
        assert_eq!(differing as u64, c.sdc, "one corrupted word per sdc");
        for (got, want) in data.iter().zip(&words) {
            if got != want {
                assert_eq!((got ^ want).count_ones(), 1, "stuck line flips one bit");
            }
        }
        assert!(c.partition_holds());
    }

    #[test]
    fn zero_stuck_rate_keeps_controller_exact() {
        let plan = FaultPlan::new(5).with_mem_stuck_rate(0.0);
        let state = MemFaultState::from_plan(&plan, 0);
        assert!(state.stuck.is_none());
    }

    #[test]
    fn infinite_retry_budget_attaches_no_retry_stream() {
        let plan = FaultPlan::new(5).with_mem_rate(0.5);
        let state = MemFaultState::from_plan(&plan, 0);
        assert!(state.retry_rng.is_none(), "legacy path must draw nothing");
    }

    #[test]
    fn exhausted_retry_budget_wedges_with_sticky_failure() {
        // Rate 1, all double-bit, budget 2, and the dedicated retry
        // stream also fires on every re-read (rate 1 × fraction 1): the
        // first delivery converts to a re-read, re-reads 1 and 2 fault
        // again, and the third attempt exceeds the budget.
        let mut img = MemImage::new();
        let addr = img.alloc_u32(&[1, 2]);
        let plan = FaultPlan::new(7)
            .with_mem_rate(1.0)
            .with_double_bit_fraction(1.0)
            .with_mem_retry_budget(2);
        let mut ctrl = MemoryController::new(MemConfig::default());
        ctrl.attach_faults(MemFaultState::from_plan(&plan, 0));
        ctrl.try_push(MemRequest::read(addr, 8, 0), 0).unwrap();
        for _ in 0..8 {
            if ctrl.fault_failure().is_some() {
                break;
            }
            let now = ctrl.next_ready_cycle().unwrap();
            assert!(ctrl.pop_ready(now, &mut img).is_none());
        }
        let msg = ctrl.fault_failure().expect("budget must exhaust");
        assert!(msg.contains("re-read budget (2) exhausted"), "{msg}");
        // Wedged: nothing delivers even far in the future.
        assert!(ctrl.pop_ready(u64::MAX, &mut img).is_none());
        let c = *ctrl.fault_counters().unwrap();
        assert_eq!(c.unrecoverable, 1);
        assert!(c.partition_holds());
    }

    #[test]
    fn rollback_rescue_reclassifies_and_replays_clean() {
        let mut img = MemImage::new();
        let addr = img.alloc_u32(&[10, 20]);
        let plan = FaultPlan::new(7)
            .with_mem_rate(1.0)
            .with_double_bit_fraction(1.0)
            .with_mem_retry_budget(2);
        let mut ctrl = MemoryController::new(MemConfig::default());
        ctrl.attach_faults(MemFaultState::from_plan(&plan, 0));
        ctrl.try_push(MemRequest::read(addr, 8, 0), 0).unwrap();
        while ctrl.fault_failure().is_none() {
            let now = ctrl.next_ready_cycle().unwrap();
            assert!(ctrl.pop_ready(now, &mut img).is_none());
        }
        ctrl.clear_fault_failure_for_rollback();
        ctrl.reset_for_replay();
        assert!(ctrl.fault_failure().is_none());
        assert!(ctrl.is_idle());
        let c = *ctrl.fault_counters().unwrap();
        // The exhausted fault was reclassified exactly once (the
        // queued `Retrying` marker for the same fault is dropped, not
        // double-counted).
        assert_eq!(c.unrecoverable, 0);
        assert_eq!(c.rolled_back, 1);
        assert_eq!(c.injected, 1);
        assert!(c.partition_holds());
    }

    #[test]
    fn unprotected_domain_delivers_silent_corruption() {
        // All addresses are "activations" (boundary 0) but ECC covers
        // weights only, so every injected fault goes undetected and the
        // corrupted line leaves the controller without a retry penalty.
        let mut img = MemImage::new();
        let addr = img.alloc_u32(&[0xAAAA_AAAA, 0x5555_5555]);
        let plan = FaultPlan::new(13)
            .with_mem_rate(1.0)
            .with_double_bit_fraction(0.0)
            .with_ecc_domain(EccDomain::WeightsOnly);
        let mut ctrl = MemoryController::new(MemConfig::default());
        ctrl.attach_faults(MemFaultState::from_plan(&plan, 0));
        ctrl.set_static_boundary(0);
        ctrl.try_push(MemRequest::read(addr, 8, 0), 0).unwrap();
        let now = ctrl.next_ready_cycle().unwrap();
        let resp = ctrl
            .pop_ready(now, &mut img)
            .expect("undetected faults add no delay");
        let data = resp.data.unwrap();
        assert_eq!(
            (data[0] ^ 0xAAAA_AAAA).count_ones(),
            1,
            "single undetected flip"
        );
        let c = *ctrl.fault_counters().unwrap();
        assert_eq!(c.sdc, 1);
        assert_eq!(c.corrected, 0);
        assert!(c.partition_holds());
    }

    #[test]
    fn protected_domain_still_corrects_inside_boundary() {
        // Same plan, but the boundary is pushed above our address: the
        // fault lands inside the protected weights region and ECC
        // corrects it exactly as under `EccDomain::Both`.
        let mut img = MemImage::new();
        let addr = img.alloc_u32(&[0xAAAA_AAAA, 0x5555_5555]);
        let plan = FaultPlan::new(13)
            .with_mem_rate(1.0)
            .with_double_bit_fraction(0.0)
            .with_ecc_domain(EccDomain::WeightsOnly);
        let mut ctrl = MemoryController::new(MemConfig::default());
        ctrl.attach_faults(MemFaultState::from_plan(&plan, 0));
        ctrl.set_static_boundary(addr + 64);
        ctrl.try_push(MemRequest::read(addr, 8, 0), 0).unwrap();
        let now = ctrl.next_ready_cycle().unwrap();
        let resp = ctrl.pop_ready(now, &mut img).unwrap();
        assert_eq!(resp.data.unwrap(), vec![0xAAAA_AAAA, 0x5555_5555]);
        let c = *ctrl.fault_counters().unwrap();
        assert_eq!(c.corrected, 1);
        assert_eq!(c.sdc, 0);
        assert!(c.partition_holds());
    }

    #[test]
    fn domain_split_consumes_identical_stream() {
        // The double-bit sub-draw happens before the domain check, so
        // the injector stream position after N requests is identical
        // across domains: counters differ only in classification.
        let run = |domain: EccDomain| {
            let mut img = MemImage::new();
            let addr = img.alloc_u32(&(0..64u32).collect::<Vec<_>>());
            let plan = FaultPlan::new(99)
                .with_mem_rate(0.5)
                .with_double_bit_fraction(0.25)
                .with_ecc_domain(domain);
            let mut ctrl = MemoryController::new(MemConfig::default());
            ctrl.attach_faults(MemFaultState::from_plan(&plan, 0));
            ctrl.set_static_boundary(0);
            for i in 0..16u64 {
                ctrl.try_push(MemRequest::read(addr + i * 16, 16, i), 0)
                    .unwrap();
            }
            let mut ctrl2 = ctrl;
            let _ = drain(&mut ctrl2, &mut img);
            *ctrl2.fault_counters().unwrap()
        };
        let both = run(EccDomain::Both);
        let acts = run(EccDomain::ActivationsOnly);
        let weights = run(EccDomain::WeightsOnly);
        assert_eq!(both.injected, acts.injected);
        assert_eq!(both.injected, weights.injected);
        // Boundary 0 ⇒ everything is activations: acts == both
        // classification-wise, weights-only sees pure sdc.
        assert_eq!(both.corrected + both.retried, acts.corrected + acts.retried);
        assert_eq!(weights.sdc, weights.injected);
        assert!(both.partition_holds() && acts.partition_holds() && weights.partition_holds());
    }
}
