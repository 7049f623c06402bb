//! The Aggregator (AGG) module — §III, Figure 7.
//!
//! The AGG manages a pool of in-progress aggregations in a 62 kB data
//! scratchpad, with per-aggregation metadata (remaining count,
//! destination) in a 2 kB control scratchpad. A bank of 16 32-bit ALUs
//! combines each arriving contribution with the stored partial; when the
//! remaining count reaches zero the result is sent to the destination
//! configured at allocation time. Only associative operations are
//! supported, so contributions may arrive in any order. The output flit
//! buffer (2 kB) is drained one message per cycle into the NoC.
//!
//! Two mild generalisations over the paper's prose, both used by the
//! benchmark mappings and documented in `DESIGN.md` §2:
//!
//! * a per-contribution scalar *scale* (carried in the incoming tag),
//!   which implements GAT's attention weighting on the memory-to-AGG
//!   path, and
//! * per-slot finalisation (divide-by-count for mean aggregation, an
//!   output activation), which implements GCN's normalisation and lets
//!   aggregation results go straight to memory.

use crate::config::AggParams;
use crate::msg::Dest;
use gnna_telemetry::ModuleProbe;
use gnna_tensor::ops::Activation;
use std::collections::VecDeque;

/// The associative combine operation of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
}

/// Finalisation applied when a slot completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFinalize {
    /// Emit the combined value as-is.
    None,
    /// Divide by the contribution count (mean aggregation — the GCN
    /// mapping's normalisation).
    DivideByCount,
}

/// Per-slot metadata (the control-scratchpad entry). 16 bytes in
/// hardware; its size bounds the number of live aggregations.
#[derive(Debug, Clone)]
struct Slot {
    data: Vec<f32>,
    words: u32,
    count: u32,
    remaining_words: u64,
    op: AggOp,
    finalize: AggFinalize,
    activation: Activation,
    dest: Dest,
}

/// Bytes of control scratchpad one live aggregation occupies.
const CONTROL_ENTRY_BYTES: usize = 16;

#[derive(Debug)]
enum Job {
    /// Combine `data` into `slot` at `offset`, scaled by `scale`.
    Accumulate {
        slot: u32,
        offset: u32,
        scale: f32,
        data: Vec<f32>,
    },
    /// Finalise and emit `slot`.
    Finalize { slot: u32 },
}

/// The Aggregator module.
#[derive(Debug)]
pub struct Aggregator {
    params: AggParams,
    entry_words: usize,
    max_slots: usize,
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    jobs: VecDeque<Job>,
    job_budget: usize,
    busy_until: u64,
    finishing: Option<(Dest, Vec<f32>)>,
    outbox: VecDeque<(Dest, Vec<f32>)>,
    outbox_bytes: usize,
    // stats
    contributions: u64,
    words_combined: u64,
    completed: u64,
    busy_cycles: u64,
    alloc_failures: u64,
    ingest_stalls: u64,
    probe: Option<ModuleProbe>,
}

impl Aggregator {
    /// Creates an AGG with the given hardware parameters; call
    /// [`Aggregator::configure`] before the first layer.
    pub fn new(params: AggParams) -> Self {
        Aggregator {
            params,
            entry_words: 0,
            max_slots: 0,
            slots: Vec::new(),
            free: Vec::new(),
            jobs: VecDeque::new(),
            job_budget: 16,
            busy_until: 0,
            finishing: None,
            outbox: VecDeque::new(),
            outbox_bytes: 0,
            contributions: 0,
            words_combined: 0,
            completed: 0,
            busy_cycles: 0,
            alloc_failures: 0,
            ingest_stalls: 0,
            probe: None,
        }
    }

    /// Attaches a telemetry probe; backpressure and completion events are
    /// emitted through it. No-op cost when never called.
    pub fn attach_probe(&mut self, probe: ModuleProbe) {
        self.probe = Some(probe);
    }

    /// Samples the live aggregation slots on the probe's counter track.
    pub(crate) fn sample_counters(&self) {
        if let Some(p) = &self.probe {
            p.counter("agg_live_slots", self.live_slots() as f64);
        }
    }

    /// Configures the per-layer entry size. The scratchpad is divided into
    /// evenly-sized entries (§III); the slot count is bounded by both the
    /// data scratchpad and the control scratchpad.
    ///
    /// # Panics
    ///
    /// Panics if called while aggregations are live, or with zero words.
    pub fn configure(&mut self, entry_words: usize) {
        assert!(entry_words > 0, "entry size must be non-zero");
        assert!(self.is_idle(), "reconfigured while busy");
        let data_slots = self.params.data_scratchpad_bytes / 4 / entry_words;
        let control_slots = self.params.control_scratchpad_bytes / CONTROL_ENTRY_BYTES;
        self.entry_words = entry_words;
        self.max_slots = data_slots.min(control_slots).max(1);
        self.slots = (0..self.max_slots).map(|_| None).collect();
        self.free = (0..self.max_slots as u32).rev().collect();
    }

    /// Discards all live aggregation state (slots, ALU jobs, staged and
    /// queued outputs) while keeping accumulated statistics and the
    /// current configuration. Used by checkpoint rollback so the next
    /// `configure` call sees an idle module.
    pub(crate) fn reset_for_replay(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.free = (0..self.max_slots as u32).rev().collect();
        self.jobs.clear();
        self.busy_until = 0;
        self.finishing = None;
        self.outbox.clear();
        self.outbox_bytes = 0;
    }

    /// The configured entry size in words.
    pub fn entry_words(&self) -> usize {
        self.entry_words
    }

    /// Maximum simultaneously-live aggregations.
    pub fn max_slots(&self) -> usize {
        self.max_slots
    }

    /// Live aggregation count.
    pub fn live_slots(&self) -> usize {
        self.max_slots - self.free.len()
    }

    /// Attempts to allocate an aggregation of `count` contributions of
    /// `contrib_words` words each, into a slot `words` wide (one-cycle
    /// allocation-bus operation from the GPE). For whole-row
    /// aggregations `contrib_words == words`; GAT's per-head attention
    /// contributions cover `head_dim` words of a `heads × head_dim`
    /// slot.
    ///
    /// A zero-`count` aggregation completes immediately with zeros.
    ///
    /// # Errors
    ///
    /// Returns `Err(())` when no slot is free (the GPE retries).
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds the configured entry size or
    /// `contrib_words` exceeds `words`.
    #[allow(clippy::result_unit_err, clippy::too_many_arguments)]
    pub fn try_alloc(
        &mut self,
        count: u32,
        words: u32,
        contrib_words: u32,
        op: AggOp,
        finalize: AggFinalize,
        activation: Activation,
        dest: Dest,
    ) -> Result<u32, ()> {
        assert!(
            words as usize <= self.entry_words,
            "slot width {words} exceeds configured entry size {}",
            self.entry_words
        );
        assert!(
            contrib_words <= words,
            "contribution width {contrib_words} exceeds slot width {words}"
        );
        let Some(slot) = self.free.pop() else {
            self.reject_alloc();
            return Err(());
        };
        let init = match op {
            AggOp::Sum => 0.0,
            AggOp::Max => f32::NEG_INFINITY,
        };
        self.slots[slot as usize] = Some(Slot {
            data: vec![init; words as usize],
            words,
            count,
            remaining_words: count as u64 * contrib_words as u64,
            op,
            finalize,
            activation,
            dest,
        });
        if count == 0 {
            // Nothing will arrive: finalise immediately (with zeroed data
            // for Sum; Max of nothing is defined as zero too).
            if let Some(s) = self.slots[slot as usize].as_mut() {
                s.data.iter_mut().for_each(|v| *v = 0.0);
            }
            self.jobs.push_back(Job::Finalize { slot });
        }
        Ok(slot)
    }

    /// Whether no slot is free: allocations fail until a Finalize job
    /// releases one.
    pub(crate) fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Records one rejected allocation (a GPE backpressure event).
    pub(crate) fn reject_alloc(&mut self) {
        self.alloc_failures += 1;
        if let Some(p) = &self.probe {
            p.instant("agg_alloc_reject");
        }
    }

    /// Whether the module can ingest another contribution message (the
    /// job queue models the control logic's pending-work FIFO; when it is
    /// full the NoC ejection stalls, giving backpressure).
    pub fn can_ingest(&self) -> bool {
        self.jobs.len() < self.job_budget
    }

    /// Records one cycle in which the NoC had a contribution ready but
    /// the AGG could not ingest it (job FIFO full). Called by the system
    /// loop so ejection backpressure is attributable in reports.
    pub fn note_ingest_stall(&mut self) {
        self.ingest_stalls += 1;
        if let Some(p) = &self.probe {
            p.instant("agg_ingest_stall");
        }
    }

    /// Cycles the NoC ejection port was blocked on a full AGG job FIFO.
    pub fn ingest_stalls(&self) -> u64 {
        self.ingest_stalls
    }

    /// Delivers one complete contribution message.
    ///
    /// # Errors
    ///
    /// Returns a protocol-violation description if the slot is not live
    /// or the contribution overruns the slot width (routing or compiler
    /// bugs; the system surfaces them as
    /// [`crate::CoreError::Protocol`] instead of panicking).
    pub fn deliver(
        &mut self,
        slot: u32,
        offset: u32,
        scale: f32,
        data: Vec<f32>,
    ) -> Result<(), String> {
        let Some(s) = self.slots[slot as usize].as_ref() else {
            return Err(format!("contribution to dead slot {slot}"));
        };
        if (offset as usize + data.len()) > s.words as usize {
            return Err(format!("contribution overruns slot {slot}"));
        }
        self.contributions += 1;
        self.jobs.push_back(Job::Accumulate {
            slot,
            offset,
            scale,
            data,
        });
        Ok(())
    }

    /// Whether the module is fully drained.
    pub fn is_idle(&self) -> bool {
        self.jobs.is_empty()
            && self.outbox.is_empty()
            && self.finishing.is_none()
            && self.live_slots() == 0
    }

    /// Whether no tick can start or emit anything until a contribution
    /// arrives or [`Aggregator::release_at`] comes: no queued job and
    /// nothing waiting to drain.
    pub(crate) fn is_waiting(&self) -> bool {
        self.jobs.is_empty() && self.outbox.is_empty()
    }

    /// The core cycle a finalised result leaves the ALUs for the output
    /// buffer (`None` when no result is finishing).
    pub(crate) fn release_at(&self) -> Option<u64> {
        self.finishing.is_some().then_some(self.busy_until)
    }

    /// Batch-equivalent of the `n` [`Aggregator::tick`]s at core cycles
    /// `first..first + n` while [`Aggregator::is_waiting`] holds and
    /// before [`Aggregator::release_at`]: only the ALU busy window
    /// counts. Settled in bulk by the system's event wheel.
    pub(crate) fn note_ticks(&mut self, first: u64, n: u64) {
        debug_assert!(self.is_waiting(), "batch accounting of a working AGG");
        debug_assert!(
            self.release_at().is_none_or(|at| first + n <= at),
            "batch accounting past a result release"
        );
        self.busy_cycles += self.busy_until.saturating_sub(first).min(n);
    }

    /// Advances one core cycle; returns at most one result message ready
    /// for NoC injection (the flit buffer drains one message per cycle).
    pub fn tick(&mut self, now: u64) -> Option<(Dest, Vec<f32>)> {
        if now >= self.busy_until {
            // Release a finalised result whose ALU pass just completed.
            if let Some((dest, data)) = self.finishing.take() {
                self.completed += 1;
                if let Some(p) = &self.probe {
                    p.instant("agg_done");
                }
                self.outbox_bytes += 8 + 4 * data.len();
                self.outbox.push_back((dest, data));
            }
        }
        if now < self.busy_until {
            self.busy_cycles += 1;
        } else if let Some(job) = self.jobs.pop_front() {
            self.busy_cycles += 1;
            match job {
                Job::Accumulate {
                    slot,
                    offset,
                    scale,
                    data,
                } => {
                    let alus = self.params.num_alus as u64;
                    let cycles = (data.len() as u64).div_ceil(alus).max(1);
                    self.busy_until = now + cycles;
                    self.words_combined += data.len() as u64;
                    let s = self.slots[slot as usize].as_mut().expect("live slot");
                    for (i, v) in data.iter().enumerate() {
                        let cell = &mut s.data[offset as usize + i];
                        match s.op {
                            AggOp::Sum => *cell += scale * v,
                            AggOp::Max => *cell = cell.max(scale * v),
                        }
                    }
                    s.remaining_words = s
                        .remaining_words
                        .checked_sub(data.len() as u64)
                        .expect("more contribution words than allocated");
                    if s.remaining_words == 0 {
                        self.jobs.push_front(Job::Finalize { slot });
                    }
                }
                Job::Finalize { slot } => {
                    let alus = self.params.num_alus as u64;
                    let s = self.slots[slot as usize].take().expect("live slot");
                    self.free.push(slot);
                    let cycles = (s.words as u64).div_ceil(alus).max(1);
                    self.busy_until = now + cycles;
                    let mut data = s.data;
                    if s.finalize == AggFinalize::DivideByCount && s.count > 0 {
                        let inv = 1.0 / s.count as f32;
                        data.iter_mut().for_each(|v| *v *= inv);
                    }
                    if s.activation != Activation::None {
                        data.iter_mut().for_each(|v| *v = s.activation.apply(*v));
                    }
                    self.finishing = Some((s.dest, data));
                }
            }
        }
        // Drain one result per cycle, respecting the 2 kB flit buffer.
        if let Some((dest, data)) = self.outbox.pop_front() {
            self.outbox_bytes -= 8 + 4 * data.len();
            return Some((dest, data));
        }
        None
    }

    /// Re-stages a result the caller could not inject this cycle.
    pub fn stall_output(&mut self, dest: Dest, data: Vec<f32>) {
        self.outbox_bytes += 8 + 4 * data.len();
        self.outbox.push_front((dest, data));
    }

    /// (contributions, words combined, aggregations completed, busy
    /// cycles, allocation failures)
    pub fn stats(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.contributions,
            self.words_combined,
            self.completed,
            self.busy_cycles,
            self.alloc_failures,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(entry_words: usize) -> Aggregator {
        let mut a = Aggregator::new(AggParams::default());
        a.configure(entry_words);
        a
    }

    fn run_until_output(a: &mut Aggregator, start: u64, max: u64) -> (u64, Dest, Vec<f32>) {
        for c in start..start + max {
            if let Some((d, v)) = a.tick(c) {
                return (c, d, v);
            }
        }
        panic!("no output within {max} cycles");
    }

    #[test]
    fn capacity_bounded_by_control_scratchpad() {
        let a = agg(4);
        // data bound: 62k/4/4 ≈ 3968; control bound: 2048/16 = 128.
        assert_eq!(a.max_slots(), 128);
        // Very wide entries: data bound dominates.
        let a = agg(8192);
        assert_eq!(a.max_slots(), 62 * 1024 / 4 / 8192);
    }

    #[test]
    fn sum_aggregation_completes() {
        let mut a = agg(4);
        let slot = a
            .try_alloc(
                2,
                4,
                4,
                AggOp::Sum,
                AggFinalize::None,
                Activation::None,
                Dest::Mem { addr: 0 },
            )
            .unwrap();
        a.deliver(slot, 0, 1.0, vec![1.0, 2.0, 3.0, 4.0])
            .expect("live slot");
        a.deliver(slot, 0, 1.0, vec![10.0, 20.0, 30.0, 40.0])
            .expect("live slot");
        let (_, dest, data) = run_until_output(&mut a, 0, 64);
        assert_eq!(dest, Dest::Mem { addr: 0 });
        assert_eq!(data, vec![11.0, 22.0, 33.0, 44.0]);
        assert!(a.is_idle());
    }

    #[test]
    fn mean_finalize_divides_by_count() {
        let mut a = agg(2);
        let slot = a
            .try_alloc(
                4,
                2,
                2,
                AggOp::Sum,
                AggFinalize::DivideByCount,
                Activation::None,
                Dest::Mem { addr: 64 },
            )
            .unwrap();
        for _ in 0..4 {
            a.deliver(slot, 0, 1.0, vec![2.0, 6.0]).expect("live slot");
        }
        let (_, _, data) = run_until_output(&mut a, 0, 64);
        assert_eq!(data, vec![2.0, 6.0]);
    }

    #[test]
    fn scale_applied_per_contribution() {
        let mut a = agg(2);
        let slot = a
            .try_alloc(
                2,
                2,
                2,
                AggOp::Sum,
                AggFinalize::None,
                Activation::None,
                Dest::Mem { addr: 0 },
            )
            .unwrap();
        a.deliver(slot, 0, 0.5, vec![4.0, 8.0]).expect("live slot");
        a.deliver(slot, 0, 2.0, vec![1.0, 1.0]).expect("live slot");
        let (_, _, data) = run_until_output(&mut a, 0, 64);
        assert_eq!(data, vec![4.0, 6.0]);
    }

    #[test]
    fn max_aggregation() {
        let mut a = agg(2);
        let slot = a
            .try_alloc(
                3,
                2,
                2,
                AggOp::Max,
                AggFinalize::None,
                Activation::None,
                Dest::Mem { addr: 0 },
            )
            .unwrap();
        a.deliver(slot, 0, 1.0, vec![1.0, 9.0]).expect("live slot");
        a.deliver(slot, 0, 1.0, vec![5.0, -2.0]).expect("live slot");
        a.deliver(slot, 0, 1.0, vec![3.0, 4.0]).expect("live slot");
        let (_, _, data) = run_until_output(&mut a, 0, 64);
        assert_eq!(data, vec![5.0, 9.0]);
    }

    #[test]
    fn chunked_contribution_with_offsets() {
        // One logical contribution of 4 words arriving as two 2-word
        // chunks (interleave split) with count = 1.
        let mut a = agg(4);
        let slot = a
            .try_alloc(
                1,
                4,
                4,
                AggOp::Sum,
                AggFinalize::None,
                Activation::None,
                Dest::Mem { addr: 0 },
            )
            .unwrap();
        a.deliver(slot, 0, 1.0, vec![1.0, 2.0]).expect("live slot");
        a.deliver(slot, 2, 1.0, vec![3.0, 4.0]).expect("live slot");
        let (_, _, data) = run_until_output(&mut a, 0, 64);
        assert_eq!(data, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn activation_applied_at_finalize() {
        let mut a = agg(2);
        let slot = a
            .try_alloc(
                1,
                2,
                2,
                AggOp::Sum,
                AggFinalize::None,
                Activation::Relu,
                Dest::Mem { addr: 0 },
            )
            .unwrap();
        a.deliver(slot, 0, 1.0, vec![-5.0, 5.0]).expect("live slot");
        let (_, _, data) = run_until_output(&mut a, 0, 64);
        assert_eq!(data, vec![0.0, 5.0]);
    }

    #[test]
    fn zero_count_completes_with_zeros() {
        let mut a = agg(3);
        a.try_alloc(
            0,
            3,
            3,
            AggOp::Sum,
            AggFinalize::None,
            Activation::None,
            Dest::Mem { addr: 0 },
        )
        .unwrap();
        let (_, _, data) = run_until_output(&mut a, 0, 64);
        assert_eq!(data, vec![0.0, 0.0, 0.0]);
        assert!(a.is_idle());
    }

    #[test]
    fn alloc_exhaustion_and_reuse() {
        let mut a = agg(62 * 1024 / 4 / 2); // 2 slots
        assert_eq!(a.max_slots(), 2);
        let d = Dest::Mem { addr: 0 };
        let s0 = a
            .try_alloc(1, 1, 1, AggOp::Sum, AggFinalize::None, Activation::None, d)
            .unwrap();
        let _s1 = a
            .try_alloc(1, 1, 1, AggOp::Sum, AggFinalize::None, Activation::None, d)
            .unwrap();
        assert!(a
            .try_alloc(1, 1, 1, AggOp::Sum, AggFinalize::None, Activation::None, d)
            .is_err());
        assert_eq!(a.stats().4, 1); // one alloc failure
                                    // Complete s0, freeing a slot.
        a.deliver(s0, 0, 1.0, vec![1.0]).expect("live slot");
        let _ = run_until_output(&mut a, 0, 64);
        assert!(a
            .try_alloc(1, 1, 1, AggOp::Sum, AggFinalize::None, Activation::None, d)
            .is_ok());
    }

    #[test]
    fn throughput_sixteen_words_per_cycle() {
        // A 64-word contribution takes 4 accumulate cycles on 16 ALUs.
        let mut a = agg(64);
        let slot = a
            .try_alloc(
                1,
                64,
                64,
                AggOp::Sum,
                AggFinalize::None,
                Activation::None,
                Dest::Mem { addr: 0 },
            )
            .unwrap();
        a.deliver(slot, 0, 1.0, vec![1.0; 64]).expect("live slot");
        let (done, _, _) = run_until_output(&mut a, 0, 64);
        // 4 cycles accumulate + 4 cycles finalize + drain.
        assert!((6..=12).contains(&done), "completed at {done}");
    }

    /// One `note_ticks` leaves the same state as single ticks inside
    /// the ALU busy window: after an accumulate (the window may run
    /// past `busy_until`, nothing is finishing) and while a finalised
    /// result waits for its release.
    #[test]
    fn note_ticks_matches_single_ticks() {
        let d = Dest::Mem { addr: 0 };
        // A 64-word contribution keeps the 16 ALUs busy until cycle 4;
        // a second one is still outstanding, so nothing finishes.
        let accumulating = || {
            let mut a = agg(64);
            let slot = a
                .try_alloc(
                    2,
                    64,
                    64,
                    AggOp::Sum,
                    AggFinalize::None,
                    Activation::None,
                    d,
                )
                .unwrap();
            a.deliver(slot, 0, 1.0, vec![1.0; 64]).expect("live slot");
            assert!(a.tick(0).is_none());
            assert!(a.is_waiting() && a.release_at().is_none());
            a
        };
        // Its only contribution accumulated by cycle 4; the finalise
        // pass then holds the result until cycle 8.
        let finishing = || {
            let mut a = agg(64);
            let slot = a
                .try_alloc(
                    1,
                    64,
                    64,
                    AggOp::Sum,
                    AggFinalize::None,
                    Activation::None,
                    d,
                )
                .unwrap();
            a.deliver(slot, 0, 1.0, vec![1.0; 64]).expect("live slot");
            for now in 0..5 {
                assert!(a.tick(now).is_none());
            }
            assert!(a.is_waiting());
            assert_eq!(a.release_at(), Some(8));
            a
        };
        let cases: [(&dyn Fn() -> Aggregator, u64, u64); 4] = [
            (&accumulating, 1, 2),
            (&accumulating, 2, 9),
            (&finishing, 5, 1),
            (&finishing, 5, 3),
        ];
        for (mk, first, n) in cases {
            let mut one = mk();
            let mut batch = mk();
            for now in first..first + n {
                assert!(one.tick(now).is_none());
            }
            batch.note_ticks(first, n);
            assert_eq!(format!("{one:?}"), format!("{batch:?}"), "{first}+{n}");
        }
    }

    #[test]
    fn contribution_to_dead_slot_is_protocol_error() {
        let mut a = agg(2);
        let err = a.deliver(5, 0, 1.0, vec![1.0]).expect_err("dead slot");
        assert!(err.contains("dead slot 5"));
    }

    #[test]
    fn stall_output_requeues() {
        let mut a = agg(2);
        let slot = a
            .try_alloc(
                1,
                2,
                2,
                AggOp::Sum,
                AggFinalize::None,
                Activation::None,
                Dest::Mem { addr: 0 },
            )
            .unwrap();
        a.deliver(slot, 0, 1.0, vec![7.0, 8.0]).expect("live slot");
        let (c, dest, data) = run_until_output(&mut a, 0, 64);
        a.stall_output(dest, data.clone());
        let (_, _, again) = run_until_output(&mut a, c + 1, 8);
        assert_eq!(again, data);
    }
}
