//! Calendar-queue event wheel: sleep/wake bookkeeping for mesh nodes
//! that cannot act.
//!
//! The cycle loop used to poll every tile and memory node every master
//! cycle, even though on real workloads most modules spend the bulk of
//! a layer drained — finished with their vertex partition, waiting on
//! traffic that is still crossing the mesh, or retrying a full DNQ
//! behind a busy DNA. The system puts a node to sleep when nothing in
//! it can change before one of these events, and skips it entirely:
//!
//! * a **delivery**: the network reports that a flit landed in one of
//!   the node's ejection buffers ([`gnna_noc::Network::drain_delivered`]);
//!   a sleeping tile ingests it in its slot of the tile sweep and sleeps
//!   on if the flit changed nothing its skipped ticks depend on;
//! * a **timer**: a future cycle scheduled into the calendar queue when
//!   the node went to sleep — a memory controller's next-ready cycle, or
//!   the core tick at which a tile's DNA completes its job or its AGG
//!   releases a finalised result.
//!
//! Timers live in a classic timing wheel: `BUCKETS` slots indexed by
//! `cycle % BUCKETS`, each holding `(wake_cycle, node)` entries. The
//! per-cycle cost is draining one (almost always empty) bucket; entries
//! scheduled more than a full rotation out simply stay in their slot
//! until the rotation that matches their cycle. A node keeps one live
//! timer: sleeping again replaces it, and stale entries drop unfired.
//!
//! The wheel also counts the nodes that are awake, so the system can
//! tell in one compare that every node sleeps; with the mesh empty too,
//! nothing can happen before the earliest live timer
//! ([`EventWheel::next_timer`]), and the cycle loop jumps straight to it.
//!
//! Sleeping is *exactly* accounted: the wheel records the first
//! unsettled cycle, and the system settles the skipped core ticks
//! through the modules' `note_ticks` batch hooks — each a tested
//! batch-equivalent of the ticks the module would have executed (the
//! GPE's scheduler replaying its switch/stall round robin over threads
//! that retry full allocations, the DNQ idle streak, DNA busy or idle
//! cycles, the AGG's ALU busy window) — so every `SimReport` counter
//! stays bit-identical to the exhaustive per-cycle sweep (the golden
//! corpus enforces this).

/// Timer slots; a power of two so the modulo compiles to a mask.
const BUCKETS: usize = 256;

/// [`EventWheel::timer`] of a node with no live timer.
const NO_TIMER: u64 = u64::MAX;

/// Sleep/wake state for every mesh node plus the timer calendar.
#[derive(Debug)]
pub(crate) struct EventWheel {
    asleep: Vec<bool>,
    /// Nodes that can sleep and are awake.
    awake: usize,
    /// First skipped cycle, per sleeping node.
    slept_from: Vec<u64>,
    /// Per node, the cycle of its live timer ([`NO_TIMER`]: none).
    /// Entries filed for any other cycle are stale — the node slept
    /// again since — and are dropped unfired.
    timer: Vec<u64>,
    /// `(wake_cycle, node)` entries, filed under `wake_cycle % BUCKETS`.
    buckets: Vec<Vec<(u64, u32)>>,
}

impl EventWheel {
    /// A wheel over `num_nodes` node slots, `sleepers` of which ever
    /// sleep (the rest, empty mesh positions, are never put to sleep);
    /// all start awake.
    pub fn new(num_nodes: usize, sleepers: usize) -> Self {
        debug_assert!(sleepers <= num_nodes);
        EventWheel {
            asleep: vec![false; num_nodes],
            awake: sleepers,
            slept_from: vec![0; num_nodes],
            timer: vec![NO_TIMER; num_nodes],
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
        }
    }

    /// Whether `node` is currently being skipped.
    pub fn is_asleep(&self, node: usize) -> bool {
        self.asleep[node]
    }

    /// Puts `node` to sleep with no timer; `from_cycle` is the first
    /// cycle it will skip (used to settle owed ticks on wake).
    pub fn sleep(&mut self, node: usize, from_cycle: u64) {
        debug_assert!(!self.asleep[node], "node {node} already asleep");
        self.asleep[node] = true;
        self.awake -= 1;
        self.slept_from[node] = from_cycle;
        self.timer[node] = NO_TIMER;
    }

    /// Moves a sleeping node's first unsettled cycle to `to` and returns
    /// the old one: the caller settles `[old, to)` while the node sleeps
    /// on.
    pub fn advance(&mut self, node: usize, to: u64) -> u64 {
        debug_assert!(self.asleep[node], "node {node} is awake");
        std::mem::replace(&mut self.slept_from[node], to)
    }

    /// Wakes `node`. Returns the first cycle it skipped if it was
    /// asleep, `None` (a no-op) if it was already awake — so stale
    /// timers and duplicate wake events are harmless.
    pub fn wake(&mut self, node: usize) -> Option<u64> {
        if !self.asleep[node] {
            return None;
        }
        self.asleep[node] = false;
        self.awake += 1;
        Some(self.slept_from[node])
    }

    /// Whether every node that can sleep is asleep.
    pub fn all_asleep(&self) -> bool {
        self.awake == 0
    }

    /// The earliest live timer of a sleeping node, if any: no timer
    /// fires before it. An O(nodes) scan, for when every node sleeps.
    pub fn next_timer(&self) -> Option<u64> {
        self.timer
            .iter()
            .zip(&self.asleep)
            .filter(|&(_, &asleep)| asleep)
            .map(|(&at, _)| at)
            .min()
            .filter(|&at| at != NO_TIMER)
    }

    /// Schedules a timer wake for `node` at cycle `at`, replacing any
    /// timer it had.
    pub fn schedule(&mut self, node: usize, at: u64) {
        self.timer[node] = at;
        self.buckets[(at as usize) % BUCKETS].push((at, node as u32));
    }

    /// Collects the nodes whose timers are due at `cycle` into `out`
    /// (callers keep the scratch vector to avoid per-cycle allocation).
    /// Entries filed in this bucket for a later rotation are retained;
    /// stale ones are dropped.
    pub fn due(&mut self, cycle: u64, out: &mut Vec<u32>) {
        let bucket = &mut self.buckets[(cycle as usize) % BUCKETS];
        if bucket.is_empty() {
            return;
        }
        let timer = &mut self.timer;
        bucket.retain(|&(at, node)| {
            if at > cycle {
                return true;
            }
            if timer[node as usize] == at {
                timer[node as usize] = NO_TIMER;
                out.push(node);
            }
            false
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_wake_roundtrip_reports_first_skipped_cycle() {
        let mut w = EventWheel::new(4, 4);
        assert!(!w.is_asleep(2));
        w.sleep(2, 100);
        assert!(w.is_asleep(2));
        assert_eq!(w.wake(2), Some(100));
        assert!(!w.is_asleep(2));
        // Waking an awake node is a no-op.
        assert_eq!(w.wake(2), None);
    }

    #[test]
    fn awake_count_and_next_timer_track_sleepers() {
        // Node 3 is an empty mesh position: it never sleeps.
        let mut w = EventWheel::new(4, 3);
        assert!(!w.all_asleep());
        w.sleep(0, 5);
        w.schedule(0, 40);
        w.sleep(1, 5);
        assert!(!w.all_asleep());
        assert_eq!(w.next_timer(), Some(40));
        w.sleep(2, 6);
        w.schedule(2, 30);
        assert!(w.all_asleep());
        assert_eq!(w.next_timer(), Some(30));
        // A node woken early leaves its old timer behind; only sleeping
        // nodes' timers count.
        assert_eq!(w.wake(2), Some(6));
        assert!(!w.all_asleep());
        assert_eq!(w.wake(2), None, "a second wake changes no count");
        assert_eq!(w.next_timer(), Some(40));
        w.sleep(2, 9);
        assert!(w.all_asleep());
        assert_eq!(w.next_timer(), Some(40));
        // Sleeping again drops the timer the node had.
        assert_eq!(w.wake(0), Some(5));
        w.sleep(0, 10);
        assert_eq!(w.next_timer(), None);
    }

    #[test]
    fn timer_fires_at_its_exact_cycle() {
        let mut w = EventWheel::new(2, 2);
        w.schedule(1, 42);
        let mut due = Vec::new();
        w.due(41, &mut due);
        assert!(due.is_empty(), "timer must not fire early");
        // Nothing in unrelated buckets.
        w.due(43, &mut due);
        assert!(due.is_empty());
        w.due(42, &mut due);
        assert_eq!(due, vec![1]);
        // One-shot: drained on fire.
        due.clear();
        w.due(42, &mut due);
        assert!(due.is_empty());
    }

    #[test]
    fn far_timer_survives_a_full_rotation() {
        let mut w = EventWheel::new(1, 1);
        // Same bucket as cycle 10, but two rotations out.
        let far = 10 + 2 * BUCKETS as u64;
        w.schedule(0, far);
        let mut due = Vec::new();
        w.due(10, &mut due);
        assert!(due.is_empty(), "entry a rotation out must stay filed");
        w.due(10 + BUCKETS as u64, &mut due);
        assert!(due.is_empty());
        w.due(far, &mut due);
        assert_eq!(due, vec![0]);
    }

    #[test]
    fn late_drain_fires_overdue_timers() {
        // If a bucket is visited past the scheduled cycle, the overdue
        // entry still fires instead of lingering forever.
        let mut w = EventWheel::new(1, 1);
        w.schedule(0, 7);
        let mut due = Vec::new();
        w.due(7 + BUCKETS as u64, &mut due);
        assert_eq!(due, vec![0]);
    }

    #[test]
    fn stale_timers_are_dropped_unfired() {
        // A node woken early that sleeps again keeps only its new timer
        // (or none): the old entry must not wake it early.
        let mut w = EventWheel::new(2, 2);
        let mut due = Vec::new();
        w.sleep(0, 1);
        w.schedule(0, 10);
        w.sleep(1, 1);
        w.schedule(1, 10);
        assert_eq!(w.wake(0), Some(1));
        assert_eq!(w.wake(1), Some(1));
        w.sleep(0, 5);
        w.schedule(0, 12);
        w.sleep(1, 5);
        w.due(10, &mut due);
        assert!(due.is_empty(), "stale entries fired: {due:?}");
        w.due(12, &mut due);
        assert_eq!(due, vec![0]);
    }
}
