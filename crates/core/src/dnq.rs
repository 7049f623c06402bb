//! The DNN Queue (DNQ) module — §III, Figure 6.
//!
//! The DNQ stages inputs to the DNA and supports two *virtual queues*
//! over one 62 kB scratchpad (their relative sizes configured per layer),
//! with a 2 kB destination buffer holding each entry's result route.
//! Entries support **delayed enqueue**: space is allocated (by the GPE,
//! over the allocation bus) before the data arrives; per-word ready bits
//! mark fills, and an entry becomes dequeueable when full. A single
//! dequeue interface serves the DNA; the eligible queue switches
//! **lazily** — only after the DNA has been idle for 16 consecutive
//! cycles — to reduce switch thrash.

use crate::config::DnqParams;
use crate::msg::Dest;
use gnna_telemetry::ModuleProbe;

/// One queue entry.
#[derive(Debug, Clone)]
struct Entry {
    kernel: u8,
    dest: Dest,
    data: Vec<f32>,
    filled: usize,
    ready: bool,
}

/// A dequeued entry handed to the DNA.
#[derive(Debug, Clone, PartialEq)]
pub struct DequeuedEntry {
    /// DNA kernel index to run.
    pub kernel: u8,
    /// Result destination.
    pub dest: Dest,
    /// The staged input.
    pub data: Vec<f32>,
}

/// Bytes of destination buffer one allocated entry occupies.
const DEST_ENTRY_BYTES: usize = 8;

#[derive(Debug)]
struct Ring {
    entries: Vec<Option<Entry>>,
    head: usize,
    tail: usize,
    len: usize,
    entry_words: usize,
}

impl Ring {
    fn capacity(&self) -> usize {
        self.entries.len()
    }
}

/// The DNQ module.
#[derive(Debug)]
pub struct Dnq {
    params: DnqParams,
    rings: [Ring; 2],
    active: usize,
    dna_idle_streak: u64,
    // stats
    enqueued: u64,
    dequeued: u64,
    switches: u64,
    fill_words: u64,
    alloc_failures: u64,
    head_wait_cycles: u64,
    probe: Option<ModuleProbe>,
}

impl Dnq {
    /// Creates an unconfigured DNQ; call [`Dnq::configure`] per layer.
    pub fn new(params: DnqParams) -> Self {
        let empty = || Ring {
            entries: Vec::new(),
            head: 0,
            tail: 0,
            len: 0,
            entry_words: 0,
        };
        Dnq {
            params,
            rings: [empty(), empty()],
            active: 0,
            dna_idle_streak: 0,
            enqueued: 0,
            dequeued: 0,
            switches: 0,
            fill_words: 0,
            alloc_failures: 0,
            head_wait_cycles: 0,
            probe: None,
        }
    }

    /// Attaches a telemetry probe; backpressure and queue-switch events
    /// are emitted through it. No-op cost when never called.
    pub fn attach_probe(&mut self, probe: ModuleProbe) {
        self.probe = Some(probe);
    }

    /// Samples both queues' occupancy on the probe's counter track.
    pub(crate) fn sample_counters(&self) {
        if let Some(p) = &self.probe {
            p.counter("dnq_depth_q0", self.len(0) as f64);
            p.counter("dnq_depth_q1", self.len(1) as f64);
        }
    }

    /// Configures per-layer entry sizes for the two virtual queues
    /// (0 disables a queue). The scratchpad is split evenly between the
    /// enabled queues; the destination buffer bounds the total entry
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if called while entries are queued, or if both sizes are 0.
    pub fn configure(&mut self, entry_words: [usize; 2]) {
        assert!(self.is_idle(), "reconfigured while busy");
        assert!(
            entry_words.iter().any(|&w| w > 0),
            "at least one queue must be enabled"
        );
        let scratch_words = self.params.scratchpad_bytes / 4;
        let dest_slots = self.params.dest_buffer_bytes / DEST_ENTRY_BYTES;
        let enabled = entry_words.iter().filter(|&&w| w > 0).count();
        for (q, &words) in entry_words.iter().enumerate() {
            let cap = (scratch_words / enabled)
                .checked_div(words)
                .map_or(0, |c| c.min(dest_slots / enabled).max(1));
            self.rings[q] = Ring {
                entries: (0..cap).map(|_| None).collect(),
                head: 0,
                tail: 0,
                len: 0,
                entry_words: words,
            };
        }
        self.active = if entry_words[0] > 0 { 0 } else { 1 };
        self.dna_idle_streak = 0;
    }

    /// Discards all queued entries while keeping accumulated statistics
    /// and the ring geometry. Used by checkpoint rollback so the next
    /// `configure` call sees an idle queue.
    pub(crate) fn reset_for_replay(&mut self) {
        for ring in &mut self.rings {
            ring.entries.iter_mut().for_each(|e| *e = None);
            ring.head = 0;
            ring.tail = 0;
            ring.len = 0;
        }
        self.dna_idle_streak = 0;
    }

    /// Entry capacity of queue `q`.
    pub fn capacity(&self, q: usize) -> usize {
        self.rings[q].capacity()
    }

    /// Live entries in queue `q`.
    pub fn len(&self, q: usize) -> usize {
        self.rings[q].len
    }

    /// Whether both queues are empty.
    pub fn is_idle(&self) -> bool {
        self.rings.iter().all(|r| r.len == 0)
    }

    /// Allocates an entry at the tail of queue `q` (delayed enqueue:
    /// data arrives later via [`Dnq::fill`]).
    ///
    /// # Errors
    ///
    /// Returns `Err(())` when the ring or destination buffer is full.
    ///
    /// # Panics
    ///
    /// Panics if queue `q` is disabled.
    #[allow(clippy::result_unit_err)]
    pub fn try_alloc(&mut self, q: usize, kernel: u8, dest: Dest) -> Result<u32, ()> {
        let ring = &mut self.rings[q];
        assert!(ring.entry_words > 0, "queue {q} is disabled this layer");
        if ring.len == ring.capacity() {
            self.reject_alloc();
            return Err(());
        }
        let idx = ring.tail;
        ring.tail = (ring.tail + 1) % ring.capacity();
        ring.len += 1;
        ring.entries[idx] = Some(Entry {
            kernel,
            dest,
            data: vec![0.0; ring.entry_words],
            filled: 0,
            ready: false,
        });
        self.enqueued += 1;
        Ok(idx as u32)
    }

    /// Whether queue `q` has no free entry: allocations to it fail until
    /// the DNA dequeues its head.
    pub(crate) fn is_full(&self, q: usize) -> bool {
        self.rings[q].len == self.rings[q].capacity()
    }

    /// Records one rejected allocation (a GPE backpressure event).
    pub(crate) fn reject_alloc(&mut self) {
        self.alloc_failures += 1;
        if let Some(p) = &self.probe {
            p.instant("dnq_alloc_reject");
        }
    }

    /// Fills `data` into entry `entry` of queue `q` at word `offset`
    /// (sets the corresponding ready bits). The entry becomes ready when
    /// all its words have been filled.
    ///
    /// # Errors
    ///
    /// Returns a protocol-violation description if the entry is not
    /// allocated or the fill overruns it (routing or compiler bugs; the
    /// system surfaces them as [`crate::CoreError::Protocol`] instead of
    /// panicking).
    pub fn fill(&mut self, q: usize, entry: u32, offset: u32, data: &[f32]) -> Result<(), String> {
        let ring = &mut self.rings[q];
        let Some(e) = ring.entries[entry as usize].as_mut() else {
            return Err(format!("fill to unallocated DNQ entry {q}/{entry}"));
        };
        if offset as usize + data.len() > ring.entry_words {
            return Err(format!(
                "fill overruns entry ({} + {} > {})",
                offset,
                data.len(),
                ring.entry_words
            ));
        }
        e.data[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        e.filled += data.len();
        self.fill_words += data.len() as u64;
        if e.filled >= ring.entry_words {
            e.ready = true;
        }
        Ok(())
    }

    /// Attempts to dequeue the head of the eligible queue for an idle
    /// DNA. Call once per core cycle with `dna_accepting = true` when the
    /// DNA can take an entry; the lazy-switch hysteresis is updated
    /// internally.
    pub fn dequeue_for_dna(&mut self, dna_accepting: bool) -> Option<DequeuedEntry> {
        if !dna_accepting {
            // DNA busy: not idle, reset the idle streak.
            self.dna_idle_streak = 0;
            return None;
        }
        if let Some(e) = self.pop_ready_head(self.active) {
            self.dna_idle_streak = 0;
            return Some(e);
        }
        // DNA is idle and the active queue has nothing ready. If entries
        // exist but none is dequeueable (delayed-enqueue fills still in
        // flight, or head-of-line blocking), charge a head-wait cycle —
        // the queue is starving the DNA, not empty.
        if self.rings.iter().any(|r| r.len > 0) {
            self.head_wait_cycles += 1;
        }
        self.dna_idle_streak += 1;
        if self.dna_idle_streak >= self.params.idle_switch_cycles {
            let other = 1 - self.active;
            if self.head_ready(other) {
                self.active = other;
                self.switches += 1;
                if let Some(p) = &self.probe {
                    p.instant("dnq_switch");
                }
                self.dna_idle_streak = 0;
                return self.pop_ready_head(self.active);
            }
        }
        None
    }

    /// Batch-equivalent of `n` [`Dnq::dequeue_for_dna`] calls that
    /// cannot dequeue: either the DNA cannot accept (the idle streak
    /// resets, whatever is queued) or it can and both queues are empty
    /// (the streak advances with no head-wait charge or switch, since an
    /// empty pair never satisfies the lazy switch's head-ready check).
    /// Settled in bulk by the system's event wheel.
    pub(crate) fn note_ticks(&mut self, n: u64, dna_accepting: bool) {
        debug_assert!(
            !dna_accepting || self.is_idle(),
            "batch accounting of an idle DNA polling a non-empty DNQ"
        );
        if dna_accepting {
            self.dna_idle_streak += n;
        } else if n > 0 {
            self.dna_idle_streak = 0;
        }
    }

    fn head_ready(&self, q: usize) -> bool {
        let ring = &self.rings[q];
        ring.len > 0 && ring.entries[ring.head].as_ref().is_some_and(|e| e.ready)
    }

    fn pop_ready_head(&mut self, q: usize) -> Option<DequeuedEntry> {
        if !self.head_ready(q) {
            return None;
        }
        let ring = &mut self.rings[q];
        let e = ring.entries[ring.head].take().expect("head checked");
        ring.head = (ring.head + 1) % ring.capacity();
        ring.len -= 1;
        self.dequeued += 1;
        Some(DequeuedEntry {
            kernel: e.kernel,
            dest: e.dest,
            data: e.data,
        })
    }

    /// Debug description of the head entry of queue `q`.
    pub fn debug_head(&self, q: usize) -> String {
        let ring = &self.rings[q];
        if ring.len == 0 {
            return "empty".into();
        }
        match &ring.entries[ring.head] {
            None => "hole".into(),
            Some(e) => format!(
                "head@{} filled {}/{} ready={}",
                ring.head, e.filled, ring.entry_words, e.ready
            ),
        }
    }

    /// The currently eligible queue.
    pub fn active_queue(&self) -> usize {
        self.active
    }

    /// (entries enqueued, dequeued, queue switches, words filled)
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (self.enqueued, self.dequeued, self.switches, self.fill_words)
    }

    /// Allocation attempts rejected because a ring was full (GPE
    /// backpressure events).
    pub fn alloc_failures(&self) -> u64 {
        self.alloc_failures
    }

    /// Cycles the DNA was ready to accept while entries were queued but
    /// none was dequeueable (in-flight fills / head-of-line blocking).
    pub fn head_wait_cycles(&self) -> u64 {
        self.head_wait_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dnq(words: [usize; 2]) -> Dnq {
        let mut d = Dnq::new(DnqParams::default());
        d.configure(words);
        d
    }

    fn mem_dest(addr: u64) -> Dest {
        Dest::Mem { addr }
    }

    #[test]
    fn capacity_split_between_queues() {
        let d = dnq([16, 32]);
        // 62 kB / 4 = 15872 words; half each: 7936/16 = 496 (dest buffer
        // caps at 256/2 = 128), 7936/32 = 248 → 128 too.
        assert_eq!(d.capacity(0), 128);
        assert_eq!(d.capacity(1), 128);
        // Single queue gets everything (bounded by the dest buffer).
        let d = dnq([1433, 0]);
        assert_eq!(d.capacity(0), 15872 / 1433);
        assert_eq!(d.capacity(1), 0);
    }

    #[test]
    fn delayed_enqueue_then_ready() {
        let mut d = dnq([4, 0]);
        let e = d.try_alloc(0, 0, mem_dest(0)).unwrap();
        // Not ready until fully filled.
        assert!(d.dequeue_for_dna(true).is_none());
        d.fill(0, e, 0, &[1.0, 2.0]).expect("allocated entry");
        assert!(d.dequeue_for_dna(true).is_none());
        d.fill(0, e, 2, &[3.0, 4.0]).expect("allocated entry");
        let got = d.dequeue_for_dna(true).unwrap();
        assert_eq!(got.data, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(got.kernel, 0);
        assert!(d.is_idle());
    }

    #[test]
    fn fifo_order_within_queue() {
        let mut d = dnq([2, 0]);
        let e0 = d.try_alloc(0, 0, mem_dest(0)).unwrap();
        let e1 = d.try_alloc(0, 1, mem_dest(64)).unwrap();
        // Fill the second first: still dequeues in FIFO order.
        d.fill(0, e1, 0, &[3.0, 4.0]).expect("allocated entry");
        assert!(d.dequeue_for_dna(true).is_none(), "head not ready yet");
        d.fill(0, e0, 0, &[1.0, 2.0]).expect("allocated entry");
        assert_eq!(d.dequeue_for_dna(true).unwrap().data, vec![1.0, 2.0]);
        assert_eq!(d.dequeue_for_dna(true).unwrap().data, vec![3.0, 4.0]);
    }

    #[test]
    fn ring_wraps_and_fills_address_entries_correctly() {
        let mut d = dnq([15872, 0]); // capacity 1
        assert_eq!(d.capacity(0), 1);
        let e = d.try_alloc(0, 0, mem_dest(0)).unwrap();
        assert!(d.try_alloc(0, 0, mem_dest(0)).is_err());
        d.fill(0, e, 0, &vec![0.5; 15872]).expect("allocated entry");
        assert!(d.dequeue_for_dna(true).is_some());
        // Reuse after wrap.
        let e2 = d.try_alloc(0, 0, mem_dest(0)).unwrap();
        assert_eq!(e2, 0);
    }

    #[test]
    fn lazy_switch_after_idle_hysteresis() {
        let mut d = dnq([2, 2]);
        // Only queue 1 has a ready entry; active starts at 0.
        let e = d.try_alloc(1, 0, mem_dest(0)).unwrap();
        d.fill(1, e, 0, &[1.0, 2.0]).expect("allocated entry");
        assert_eq!(d.active_queue(), 0);
        // 15 idle polls: still nothing (hysteresis).
        for _ in 0..15 {
            assert!(d.dequeue_for_dna(true).is_none());
        }
        // 16th idle poll: switch and dequeue.
        let got = d.dequeue_for_dna(true).expect("switched");
        assert_eq!(got.data, vec![1.0, 2.0]);
        assert_eq!(d.active_queue(), 1);
        assert_eq!(d.stats().2, 1);
    }

    #[test]
    fn busy_dna_resets_idle_streak() {
        let mut d = dnq([2, 2]);
        let e = d.try_alloc(1, 0, mem_dest(0)).unwrap();
        d.fill(1, e, 0, &[1.0, 2.0]).expect("allocated entry");
        for _ in 0..10 {
            assert!(d.dequeue_for_dna(true).is_none());
        }
        // DNA becomes busy: streak resets.
        assert!(d.dequeue_for_dna(false).is_none());
        for _ in 0..15 {
            assert!(d.dequeue_for_dna(true).is_none());
        }
        assert_eq!(d.active_queue(), 0, "streak was reset; no switch yet");
        assert!(d.dequeue_for_dna(true).is_some());
    }

    #[test]
    fn head_of_line_blocking_is_faithful() {
        // An unready head blocks a ready entry behind it (single dequeue
        // interface reads the scratchpad in ring order).
        let mut d = dnq([2, 0]);
        let _e0 = d.try_alloc(0, 0, mem_dest(0)).unwrap();
        let e1 = d.try_alloc(0, 0, mem_dest(0)).unwrap();
        d.fill(0, e1, 0, &[9.0, 9.0]).expect("allocated entry");
        for _ in 0..40 {
            assert!(d.dequeue_for_dna(true).is_none());
        }
        assert_eq!(
            d.head_wait_cycles(),
            40,
            "every poll against a blocked head is a head-wait cycle"
        );
    }

    #[test]
    fn empty_queue_is_not_a_head_wait() {
        let mut d = dnq([4, 0]);
        for _ in 0..10 {
            assert!(d.dequeue_for_dna(true).is_none());
        }
        assert_eq!(d.head_wait_cycles(), 0, "no entries queued, no starvation");
    }

    /// One `note_ticks(n)` leaves the same state as `n` single dequeue
    /// polls: a non-accepting DNA over a non-empty queue pair (streak
    /// reset, no head-wait), and an accepting one over an empty pair
    /// (streak advancing past the switch threshold with no switch).
    #[test]
    fn note_ticks_matches_single_polls() {
        let queued = || {
            let mut d = dnq([2, 2]);
            let e = d.try_alloc(1, 0, mem_dest(0)).unwrap();
            d.fill(1, e, 0, &[1.0, 2.0]).expect("allocated entry");
            d.try_alloc(0, 0, mem_dest(8)).unwrap();
            // Part-way into the idle streak, head-wait already charged.
            for _ in 0..5 {
                assert!(d.dequeue_for_dna(true).is_none());
            }
            d
        };
        let drained = || {
            let mut d = dnq([2, 2]);
            d.dequeue_for_dna(true);
            d
        };
        for (mk, accepting) in [(&queued as &dyn Fn() -> Dnq, false), (&drained, true)] {
            for n in [1, 2, 15, 40] {
                let mut one = mk();
                let mut batch = mk();
                for _ in 0..n {
                    assert!(one.dequeue_for_dna(accepting).is_none());
                }
                batch.note_ticks(n, accepting);
                assert_eq!(format!("{one:?}"), format!("{batch:?}"), "n {n}");
            }
        }
    }

    #[test]
    fn fill_unallocated_is_protocol_error() {
        let mut d = dnq([4, 0]);
        let err = d.fill(0, 3, 0, &[1.0]).expect_err("unallocated");
        assert!(err.contains("unallocated DNQ entry 0/3"));
    }

    #[test]
    #[should_panic(expected = "disabled")]
    fn alloc_on_disabled_queue_panics() {
        let mut d = dnq([4, 0]);
        let _ = d.try_alloc(1, 0, mem_dest(0));
    }

    #[test]
    fn reconfigure_between_layers() {
        let mut d = dnq([4, 0]);
        let e = d.try_alloc(0, 0, mem_dest(0)).unwrap();
        d.fill(0, e, 0, &[0.0; 4]).expect("allocated entry");
        let _ = d.dequeue_for_dna(true).unwrap();
        d.configure([8, 8]);
        assert!(d.capacity(1) > 0);
    }
}
