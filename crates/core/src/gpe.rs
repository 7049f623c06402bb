//! The Graph Processing Element (GPE) — §III, Figure 4, and the §IV
//! runtime's vertex-program execution.
//!
//! The GPE is a single-threaded control core with a scratchpad, a
//! specialised memory interface for *indirect asynchronous* reads, and an
//! allocation bus to the tile's DNQ and AGG. A lightweight runtime
//! multiplexes a pool of software threads over it: whenever a thread
//! issues a load it needs to wait on, the GPE context-switches (one
//! cycle, since all state lives in the scratchpad) and runs another
//! thread. Every ALU operation, memory command, or IO operation costs one
//! core cycle.
//!
//! Each software thread executes the current layer's
//! [`VertexProgram`] for one vertex, as a
//! small state machine: a structure-fetch prologue (row pointers, then
//! the neighbor list) followed by the program body. Feature loads are
//! *fire-and-forget*: the GPE issues a read whose response is routed by
//! the NoC directly to the AGG or DNQ — the defining dataflow of the
//! architecture — so the thread never touches the feature data itself.

use crate::agg::{AggFinalize, AggOp, Aggregator};
use crate::dnq::Dnq;
use crate::layers::{Layer, VertexProgram};
use crate::layout::{BufferRegion, Layout, UnionGraph};
use crate::msg::{AddressMap, Dest, Message, Tag};
use crate::stats::StallCause;
use gnna_noc::Address;
use gnna_telemetry::ModuleProbe;
use gnna_tensor::ops::leaky_relu;
use std::collections::VecDeque;
use std::sync::Arc;

/// The tile-local NoC endpoints a GPE needs to address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePorts {
    /// The GPE's own port (reply address for blocking reads).
    pub gpe: Address,
    /// The tile's AGG port.
    pub agg: Address,
    /// The tile's DNQ port.
    pub dnq: Address,
}

/// Messages the GPE's port may hold queued for the NoC; an IO op that
/// finds it full stalls the thread ([`StallCause::WaitingNocCredit`]).
pub const OUTBOX_CAP: usize = 8;

/// Everything outside the GPE that a tick may touch: the tile's AGG and
/// DNQ (allocation bus), its port's send queue, the workload layout and
/// metadata, the address map, and the cross-tile readout mailbox.
#[derive(Debug)]
pub struct GpeCtx<'a> {
    /// The tile's aggregator (allocation bus).
    pub agg: &'a mut Aggregator,
    /// The tile's DNN queue (allocation bus).
    pub dnq: &'a mut Dnq,
    /// The send queue of the GPE's NoC port, which its IO ops feed (up
    /// to [`OUTBOX_CAP`] messages).
    pub outbox: &'a mut VecDeque<(Address, Message)>,
    /// The workload's memory layout.
    pub layout: &'a Layout,
    /// Union-graph metadata (graph membership — scratchpad-resident).
    pub union: &'a UnionGraph,
    /// Physical address interleaving.
    pub map: &'a AddressMap,
    /// Per-graph readout slots: `(agg port, slot)` once the owning vertex
    /// has allocated (a software mailbox shared across tiles).
    pub board: &'a mut [Option<(Address, u32)>],
    /// Whether the tile's DNA is currently executing a job this cycle.
    /// Used only for stall *attribution*: a DNQ allocation failure is
    /// charged to [`StallCause::DnaBusy`] when the dense array is the
    /// bottleneck, and to [`StallCause::DnqFull`] otherwise.
    pub dna_busy: bool,
}

/// An allocation-bus request a thread lost: a DNQ ring or the AGG slot
/// file was full. The thread retries the same request on its next turn,
/// and it fails the same way while that resource stays full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Alloc {
    /// An entry of DNQ virtual queue `q`.
    Dnq(usize),
    /// An AGG slot.
    Agg,
}

impl Alloc {
    /// The cause the stalled cycle is charged to (see
    /// [`GpeCtx::dna_busy`]).
    fn cause(self, dna_busy: bool) -> StallCause {
        match self {
            Alloc::Dnq(_) if dna_busy => StallCause::DnaBusy,
            Alloc::Dnq(_) => StallCause::DnqFull,
            Alloc::Agg => StallCause::AggHazard,
        }
    }

    /// Whether a retry would be rejected again right now.
    fn is_full(self, dnq: &Dnq, agg: &Aggregator) -> bool {
        match self {
            Alloc::Dnq(q) => dnq.is_full(q),
            Alloc::Agg => agg.is_full(),
        }
    }

    /// Records one more rejection at the owning module.
    fn reject(self, dnq: &mut Dnq, agg: &mut Aggregator) {
        match self {
            Alloc::Dnq(_) => dnq.reject_alloc(),
            Alloc::Agg => agg.reject_alloc(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepResult {
    /// Made progress; thread remains runnable.
    Progress,
    /// The outbox was full or the readout owner has not allocated yet;
    /// retry later (another thread should run). Carries the cause the
    /// blocked cycle is charged to.
    Stall(StallCause),
    /// An allocation was rejected; retry later (another thread should
    /// run).
    Rejected(Alloc),
    /// Waiting on memory data.
    Blocked,
    /// Vertex finished.
    Done,
}

#[derive(Debug)]
enum Phase {
    FetchRowPtr {
        issued: bool,
    },
    FetchNeighbors {
        issued: bool,
    },
    /// Boxed: [`Body::Power`] is several times the size of the rest of
    /// the task, and a body step moves the body out of the task and back.
    Body(Box<Body>),
}

#[derive(Debug)]
enum Body {
    Project {
        st: u8,
        entry: u32,
    },
    Aggregate {
        st: u8,
        slot: u32,
        idx: usize,
    },
    Attention {
        st: u8,
        slot: u32,
        idx: usize,
        head: usize,
        self_st: Vec<f32>,
        cur_t: Vec<f32>,
    },
    Mpnn {
        st: u8,
        e1: u32,
        slot: u32,
        idx: usize,
        e0: u32,
    },
    Readout {
        st: u8,
        entry: u32,
    },
    Power {
        st: u8,
        pi: usize,
        out_slot: u32,
        frontier: Vec<u32>,
        /// Candidates of the next hop's frontier, duplicates included;
        /// sorted and deduplicated when the hop advances.
        next: Vec<u32>,
        fi: usize,
        wi: usize,
        hop: u8,
        set: Vec<u32>,
        entry: u32,
        gather_slot: u32,
        idx: usize,
        u_deg: u32,
        u_base: u32,
    },
}

#[derive(Debug)]
struct Task {
    v: u32,
    deg: u32,
    edge_base: u32,
    neighbors: Vec<u32>,
    phase: Phase,
    recv: Vec<u32>,
    recv_expect: usize,
    recv_got: usize,
    issue_queue: VecDeque<(Address, Message)>,
}

impl Task {
    /// A task slot before its thread's first vertex.
    fn empty() -> Self {
        Task {
            v: 0,
            deg: 0,
            edge_base: 0,
            neighbors: Vec::new(),
            phase: Phase::FetchRowPtr { issued: false },
            recv: Vec::new(),
            recv_expect: 0,
            recv_got: 0,
            issue_queue: VecDeque::new(),
        }
    }

    /// Restarts the slot on vertex `v` of `layer`, keeping the buffers
    /// of the vertex it ran before.
    fn start(&mut self, v: u32, layer: &Layer) {
        self.v = v;
        self.deg = 0;
        self.edge_base = 0;
        self.neighbors.clear();
        self.phase = first_phase(&layer.program);
        self.recv.clear();
        self.recv_expect = 0;
        self.recv_got = 0;
        self.issue_queue.clear();
    }
}

/// A software thread's scheduling state. The thread's task lives in
/// its slot of [`Gpe::tasks`] and is stepped there; a state change never
/// moves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Idle,
    Ready,
    Blocked,
}

/// What a thread step touches of its GPE besides the task: the tile's
/// ports and the read counter. Borrowed apart from [`Gpe::tasks`], so
/// the running task steps in place.
struct StepIo<'a> {
    ports: TilePorts,
    reads_issued: &'a mut u64,
}

/// Counters accumulated by a GPE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GpeStats {
    /// Cycles that executed a thread operation.
    pub op_cycles: u64,
    /// Cycles lost to context switches.
    pub switch_cycles: u64,
    /// Cycles with no runnable thread (all blocked on memory or done).
    pub idle_cycles: u64,
    /// Cycles a runnable thread could not progress (resource full).
    pub stall_cycles: u64,
    /// Vertices completed.
    pub vertices_done: u64,
    /// Memory read commands issued.
    pub reads_issued: u64,
    /// Blocked cycles attributed per [`StallCause`] (indexed by
    /// [`StallCause::index`]). Partitions `idle_cycles + stall_cycles`
    /// exactly: every cycle that did not execute an op or a context
    /// switch is charged to one cause.
    pub stall_by_cause: [u64; StallCause::COUNT],
}

impl GpeStats {
    /// Total blocked cycles attributed across all causes.
    pub fn blocked_cycles(&self) -> u64 {
        self.stall_by_cause.iter().sum()
    }
}

/// The GPE module.
#[derive(Debug)]
pub struct Gpe {
    ports: TilePorts,
    threads: Vec<TState>,
    /// Per thread: the task of its current vertex (of its last one
    /// while Idle, whose buffers the next vertex reuses).
    tasks: Vec<Task>,
    /// Per thread: the allocation its last step lost, kept while it
    /// stays Ready and cleared by any other outcome or a delivery.
    retry: Vec<Option<Alloc>>,
    last_executed: Option<usize>,
    rr: usize,
    work: VecDeque<u32>,
    layer: Option<Arc<Layer>>,
    stats: GpeStats,
    probe: Option<ModuleProbe>,
}

impl Gpe {
    /// Creates a GPE with `num_threads` software threads.
    pub fn new(ports: TilePorts, num_threads: usize) -> Self {
        Gpe {
            ports,
            threads: vec![TState::Idle; num_threads],
            tasks: (0..num_threads).map(|_| Task::empty()).collect(),
            retry: vec![None; num_threads],
            last_executed: None,
            rr: 0,
            work: VecDeque::new(),
            layer: None,
            stats: GpeStats::default(),
            probe: None,
        }
    }

    /// Attaches a telemetry probe; the GPE emits instant events for
    /// resource-full stalls and completed vertices.
    pub fn attach_probe(&mut self, probe: ModuleProbe) {
        self.probe = Some(probe);
    }

    /// Begins a layer over this tile's vertex partition.
    ///
    /// # Panics
    ///
    /// Panics if the previous layer has not fully drained.
    pub fn start_layer(&mut self, layer: Arc<Layer>, work: impl IntoIterator<Item = u32>) {
        assert!(self.is_idle(), "layer started while GPE busy");
        self.layer = Some(layer);
        self.work = work.into_iter().collect();
        self.last_executed = None;
    }

    /// Discards all in-flight execution state (threads, work queue,
    /// layer binding) while keeping accumulated statistics and
    /// configuration. Used by checkpoint rollback: the replayed layer is
    /// restarted from scratch via [`Gpe::start_layer`], and work already
    /// performed stays charged in the counters as replay overhead.
    pub(crate) fn reset_for_replay(&mut self) {
        self.threads.fill(TState::Idle);
        self.retry.fill(None);
        self.work.clear();
        self.layer = None;
        self.last_executed = None;
        self.rr = 0;
    }

    /// Whether all threads are idle and the work queue is drained.
    pub fn is_idle(&self) -> bool {
        self.work.is_empty() && self.threads.iter().all(|&t| t == TState::Idle)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &GpeStats {
        &self.stats
    }

    /// Whether every tick from now on only runs the scheduler, until a
    /// delivery or a freed DNQ entry or AGG slot changes the picture:
    /// every Ready thread lost an allocation whose resource is still
    /// full, and with no Ready thread no new vertex can start. With its
    /// port's send queue also empty, [`Gpe::note_ticks`] then settles
    /// any number of ticks.
    pub(crate) fn can_sleep(&self, dnq: &Dnq, agg: &Aggregator) -> bool {
        let mut ready = false;
        for (t, retry) in self.threads.iter().zip(&self.retry) {
            if *t == TState::Ready {
                ready = true;
                if !retry.is_some_and(|a| a.is_full(dnq, agg)) {
                    return false;
                }
            }
        }
        ready || self.work.is_empty() || !self.threads.contains(&TState::Idle)
    }

    /// Batch-equivalent of `n` [`Gpe::tick`]s while [`Gpe::can_sleep`]
    /// holds, settled by the system's event wheel. Only the scheduler
    /// runs: each tick either switches to the next Ready thread or
    /// charges that thread's retried allocation as a stall (and the
    /// rejection to the DNQ or AGG), with no Ready thread each tick is
    /// idle — the same counters, trace instants and round-robin state
    /// `n` single ticks leave.
    pub(crate) fn note_ticks(
        &mut self,
        n: u64,
        dnq: &mut Dnq,
        agg: &mut Aggregator,
        dna_busy: bool,
    ) {
        let mut left = n;
        while left > 0 {
            let Some(i) = self.next_ready() else {
                let cause = self.idle_cause();
                self.stats.idle_cycles += left;
                self.stats.stall_by_cause[cause.index()] += left;
                return;
            };
            // A switch leaves `rr` and the Ready set as they were, so the
            // next tick runs the same thread.
            if self.switch_to(i) {
                left -= 1;
                if left == 0 {
                    return;
                }
            }
            let alloc = self.retry[i].expect("a sleeping GPE's Ready threads retry allocations");
            alloc.reject(dnq, agg);
            self.charge_stall(i, alloc.cause(dna_busy));
            left -= 1;
        }
    }

    /// The first Ready thread in round-robin order from `rr`.
    fn next_ready(&self) -> Option<usize> {
        let ready = |t: &TState| *t == TState::Ready;
        let (before, from_rr) = self.threads.split_at(self.rr);
        from_rr
            .iter()
            .position(ready)
            .map(|k| self.rr + k)
            .or_else(|| before.iter().position(ready))
    }

    /// Makes thread `i` the running one. Returns whether that costs this
    /// cycle: a one-cycle context switch away from another thread.
    fn switch_to(&mut self, i: usize) -> bool {
        let switch = self.last_executed.is_some_and(|last| last != i);
        self.last_executed = Some(i);
        if switch {
            self.stats.switch_cycles += 1;
        }
        switch
    }

    /// Charges a cycle in which thread `i` could not progress to `cause`
    /// and passes the turn to the next thread.
    fn charge_stall(&mut self, i: usize, cause: StallCause) {
        self.stats.stall_cycles += 1;
        self.stats.stall_by_cause[cause.index()] += 1;
        if let Some(p) = &self.probe {
            p.instant(cause.event_name());
        }
        self.rr = (i + 1) % self.threads.len();
    }

    /// The cause of a cycle with no runnable thread: the memory system
    /// if any thread waits on data, otherwise there is nothing to do.
    fn idle_cause(&self) -> StallCause {
        if self.threads.contains(&TState::Blocked) {
            StallCause::WaitingMem
        } else {
            StallCause::NoWork
        }
    }

    /// Delivers data for a blocking read issued by `thread`.
    ///
    /// # Errors
    ///
    /// Returns a protocol-violation description if the thread is idle (a
    /// routing bug; the system surfaces it as [`crate::CoreError::Protocol`]
    /// instead of panicking).
    pub fn deliver(&mut self, thread: u16, offset: u32, data: &[u32]) -> Result<(), String> {
        let i = thread as usize;
        self.retry[i] = None;
        // A chunked read's early chunks can arrive while the thread is
        // still issuing the later ones (Ready); only a completed
        // `recv_expect` unblocks a Blocked thread.
        if self.threads[i] == TState::Idle {
            return Err(format!("data delivered to idle GPE thread {thread}"));
        }
        let task = &mut self.tasks[i];
        let off = offset as usize;
        assert!(
            off + data.len() <= task.recv.len(),
            "GPE receive overrun (thread {thread})"
        );
        task.recv[off..off + data.len()].copy_from_slice(data);
        task.recv_got += data.len();
        if task.recv_got >= task.recv_expect && self.threads[i] == TState::Blocked {
            self.threads[i] = TState::Ready;
        }
        Ok(())
    }

    /// Advances one core cycle. Returns whether the cycle executed an
    /// operation (a thread step or a new vertex), rather than an idle,
    /// context-switch or stall cycle.
    pub fn tick(&mut self, ctx: &mut GpeCtx<'_>) -> bool {
        let n = self.threads.len();
        let Some(i) = self.next_ready() else {
            // No runnable thread: start a new vertex if possible.
            if let Some(v) = self.work.front().copied() {
                if let Some(slot) = self.threads.iter().position(|&t| t == TState::Idle) {
                    self.work.pop_front();
                    let layer = self.layer.as_deref().expect("layer set");
                    self.tasks[slot].start(v, layer);
                    self.threads[slot] = TState::Ready;
                    self.stats.op_cycles += 1;
                    return true;
                }
            }
            let cause = self.idle_cause();
            self.stats.idle_cycles += 1;
            self.stats.stall_by_cause[cause.index()] += 1;
            return false;
        };
        if self.switch_to(i) {
            return false;
        }
        let Gpe {
            tasks,
            layer,
            ports,
            stats,
            ..
        } = self;
        let mut io = StepIo {
            ports: *ports,
            reads_issued: &mut stats.reads_issued,
        };
        let layer = layer.as_deref().expect("layer set");
        let result = Self::step(&mut io, &mut tasks[i], i as u16, layer, ctx);
        self.retry[i] = None;
        match result {
            StepResult::Progress => self.stats.op_cycles += 1,
            StepResult::Stall(cause) => {
                self.charge_stall(i, cause);
                return false;
            }
            StepResult::Rejected(alloc) => {
                self.retry[i] = Some(alloc);
                self.charge_stall(i, alloc.cause(ctx.dna_busy));
                return false;
            }
            StepResult::Blocked => {
                self.stats.op_cycles += 1;
                self.threads[i] = TState::Blocked;
                self.rr = (i + 1) % n;
            }
            StepResult::Done => {
                self.stats.op_cycles += 1;
                self.stats.vertices_done += 1;
                if let Some(p) = &self.probe {
                    p.instant("gpe_vertex_done");
                }
                self.threads[i] = TState::Idle;
                self.rr = (i + 1) % n;
            }
        }
        true
    }

    /// Enqueues the chunked memory reads for `(addr, bytes)`, tagging each
    /// chunk with a word offset via `mk_tag`.
    fn enqueue_read(
        task: &mut Task,
        ctx: &GpeCtx<'_>,
        reply_to: Address,
        addr: u64,
        bytes: u64,
        mk_tag: impl Fn(u32) -> Tag,
    ) {
        let mut word_off = 0u32;
        for (owner, a, b) in ctx.map.split(addr, bytes) {
            task.issue_queue.push_back((
                owner,
                Message::MemRead {
                    addr: a,
                    bytes: b as u32,
                    reply_to,
                    tag: mk_tag(word_off),
                },
            ));
            word_off += (b / 4) as u32;
        }
    }

    /// Prepares the task to await `words` words into its receive buffer
    /// (zeroed, in the buffer's existing allocation).
    fn await_words(task: &mut Task, words: usize) {
        task.recv.clear();
        task.recv.resize(words, 0);
        task.recv_expect = words;
        task.recv_got = 0;
    }

    /// Executes one single-cycle operation of `task`. Returns what the
    /// cycle accomplished.
    fn step(
        io: &mut StepIo<'_>,
        task: &mut Task,
        thread: u16,
        layer: &Layer,
        ctx: &mut GpeCtx<'_>,
    ) -> StepResult {
        // Draining the issue queue is itself one IO op per cycle.
        if let Some((dst, msg)) = task.issue_queue.pop_front() {
            if ctx.outbox.len() >= OUTBOX_CAP {
                task.issue_queue.push_front((dst, msg));
                return StepResult::Stall(StallCause::WaitingNocCredit);
            }
            let blocking = matches!(
                (&msg, task.issue_queue.is_empty()),
                (
                    Message::MemRead {
                        tag: Tag::Gpe { .. },
                        ..
                    },
                    true
                )
            );
            *io.reads_issued += 1;
            ctx.outbox.push_back((dst, msg));
            if blocking && task.recv_expect > task.recv_got {
                return StepResult::Blocked;
            }
            return StepResult::Progress;
        }

        let gpe_port = io.ports.gpe;
        let v = task.v as usize;

        // Structure-fetch prologue.
        match &mut task.phase {
            Phase::FetchRowPtr { issued } => {
                if !*issued {
                    *issued = true;
                    Self::await_words(task, 2);
                    Self::enqueue_read(
                        task,
                        ctx,
                        gpe_port,
                        ctx.layout.row_ptr_entry(v),
                        8,
                        |off| Tag::Gpe {
                            thread,
                            offset: off,
                        },
                    );
                    return StepResult::Progress;
                }
                // Woken: decode.
                (task.edge_base, task.deg) = row_span(&task.recv, ctx);
                if layer.program.needs_structure() && task.deg > 0 {
                    task.phase = Phase::FetchNeighbors { issued: false };
                } else {
                    task.phase = Phase::Body(new_body(&layer.program));
                }
                StepResult::Progress
            }
            Phase::FetchNeighbors { issued } => {
                if !*issued {
                    *issued = true;
                    Self::await_words(task, task.deg as usize);
                    Self::enqueue_read(
                        task,
                        ctx,
                        gpe_port,
                        ctx.layout.col_idx_entry(task.edge_base as usize),
                        task.deg as u64 * 4,
                        |off| Tag::Gpe {
                            thread,
                            offset: off,
                        },
                    );
                    return StepResult::Progress;
                }
                task.neighbors = task.recv.iter().map(|&u| node_id(u, ctx)).collect();
                task.phase = Phase::Body(new_body(&layer.program));
                StepResult::Progress
            }
            Phase::Body(_) => Self::step_body(io.ports, task, thread, layer, ctx),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn step_body(
        ports: TilePorts,
        task: &mut Task,
        thread: u16,
        layer: &Layer,
        ctx: &mut GpeCtx<'_>,
    ) -> StepResult {
        let gpe_port = ports.gpe;
        let agg_port = ports.agg;
        let dnq_port = ports.dnq;
        let v = task.v as usize;
        let buf = |id: usize| -> BufferRegion { ctx.layout.buffers[id] };
        let dnq_reject = |q| StepResult::Rejected(Alloc::Dnq(q));
        let agg_reject = StepResult::Rejected(Alloc::Agg);
        // Move the (boxed) body state out so the task can be borrowed
        // for reads.
        let Phase::Body(mut body) =
            std::mem::replace(&mut task.phase, Phase::FetchRowPtr { issued: true })
        else {
            unreachable!()
        };
        let body_ref = &mut *body;
        let result = (|| -> StepResult {
            match (body_ref, &layer.program) {
                (Body::Project { st, entry }, VertexProgram::Project { src, dst }) => match *st {
                    0 => {
                        let dest = Dest::Mem {
                            addr: buf(*dst).row_addr(v),
                        };
                        match ctx.dnq.try_alloc(0, 0, dest) {
                            Ok(e) => {
                                *entry = e;
                                *st = 1;
                                StepResult::Progress
                            }
                            Err(()) => dnq_reject(0),
                        }
                    }
                    1 => {
                        let region = buf(*src);
                        let e = *entry;
                        Self::enqueue_read(
                            task,
                            ctx,
                            dnq_port,
                            region.row_addr(v),
                            region.row_bytes(),
                            |off| Tag::Dnq {
                                queue: 0,
                                entry: e,
                                offset: off,
                            },
                        );
                        *st = 2;
                        StepResult::Progress
                    }
                    // The issue queue drains one command per cycle at the top
                    // of `step`; once empty the vertex is finished.
                    _ => StepResult::Done,
                },
                (
                    Body::Aggregate { st, slot, idx },
                    VertexProgram::Aggregate {
                        src,
                        dst,
                        include_self,
                        op,
                        finalize,
                        activation,
                    },
                ) => match *st {
                    0 => {
                        let count = task.deg + u32::from(*include_self);
                        let region = buf(*src);
                        let dest = Dest::Mem {
                            addr: buf(*dst).row_addr(v),
                        };
                        match ctx.agg.try_alloc(
                            count,
                            region.row_words as u32,
                            region.row_words as u32,
                            *op,
                            *finalize,
                            *activation,
                            dest,
                        ) {
                            Ok(s) => {
                                *slot = s;
                                *st = 1;
                                if *include_self {
                                    let sl = s;
                                    Self::enqueue_read(
                                        task,
                                        ctx,
                                        agg_port,
                                        region.row_addr(v),
                                        region.row_bytes(),
                                        |off| Tag::Agg {
                                            slot: sl,
                                            scale: 1.0,
                                            offset: off,
                                        },
                                    );
                                }
                                StepResult::Progress
                            }
                            Err(()) => agg_reject,
                        }
                    }
                    _ => {
                        if *idx < task.deg as usize {
                            let u = task.neighbors[*idx] as usize;
                            *idx += 1;
                            let region = buf(*src);
                            let sl = *slot;
                            Self::enqueue_read(
                                task,
                                ctx,
                                agg_port,
                                region.row_addr(u),
                                region.row_bytes(),
                                |off| Tag::Agg {
                                    slot: sl,
                                    scale: 1.0,
                                    offset: off,
                                },
                            );
                            StepResult::Progress
                        } else {
                            StepResult::Done
                        }
                    }
                },
                (
                    Body::Attention {
                        st,
                        slot,
                        idx,
                        head,
                        self_st,
                        cur_t,
                    },
                    VertexProgram::AttentionAggregate {
                        z,
                        heads,
                        head_dim,
                        dst,
                        activation,
                    },
                ) => {
                    let zr = buf(*z);
                    let h = *heads;
                    let d = *head_dim;
                    let st_off = (h * d * 4) as u64; // byte offset of [s|t] block
                    match *st {
                        0 => {
                            Self::await_words(task, 2 * h);
                            Self::enqueue_read(
                                task,
                                ctx,
                                gpe_port,
                                zr.row_addr(v) + st_off,
                                (2 * h * 4) as u64,
                                |off| Tag::Gpe {
                                    thread,
                                    offset: off,
                                },
                            );
                            *st = 1;
                            StepResult::Progress
                        }
                        1 => {
                            // Woken with [s | t] of v.
                            *self_st = task.recv.iter().map(|&w| f32::from_bits(w)).collect();
                            let count = (task.deg + 1) * h as u32;
                            let dest = Dest::Mem {
                                addr: buf(*dst).row_addr(v),
                            };
                            match ctx.agg.try_alloc(
                                count,
                                (h * d) as u32,
                                d as u32,
                                AggOp::Sum,
                                AggFinalize::None,
                                *activation,
                                dest,
                            ) {
                                Ok(s) => {
                                    *slot = s;
                                    *head = 0;
                                    *st = 2;
                                    StepResult::Progress
                                }
                                Err(()) => agg_reject,
                            }
                        }
                        2 => {
                            // Self contributions, one head per cycle.
                            let hh = *head;
                            let scale = leaky_relu(self_st[hh] + self_st[h + hh]);
                            let sl = *slot;
                            Self::enqueue_read(
                                task,
                                ctx,
                                agg_port,
                                zr.row_addr(v) + (hh * d * 4) as u64,
                                (d * 4) as u64,
                                |off| Tag::Agg {
                                    slot: sl,
                                    scale,
                                    offset: (hh * d) as u32 + off,
                                },
                            );
                            *head += 1;
                            if *head == h {
                                *idx = 0;
                                *st = 3;
                            }
                            StepResult::Progress
                        }
                        3 => {
                            if *idx >= task.deg as usize {
                                return StepResult::Done;
                            }
                            let u = task.neighbors[*idx] as usize;
                            Self::await_words(task, h);
                            Self::enqueue_read(
                                task,
                                ctx,
                                gpe_port,
                                zr.row_addr(u) + st_off + (h * 4) as u64, // t block
                                (h * 4) as u64,
                                |off| Tag::Gpe {
                                    thread,
                                    offset: off,
                                },
                            );
                            *head = 0;
                            *st = 4;
                            StepResult::Progress
                        }
                        _ => {
                            if *head == 0 {
                                *cur_t = task.recv.iter().map(|&w| f32::from_bits(w)).collect();
                            }
                            let u = task.neighbors[*idx] as usize;
                            let hh = *head;
                            let scale = leaky_relu(self_st[hh] + cur_t[hh]);
                            let sl = *slot;
                            Self::enqueue_read(
                                task,
                                ctx,
                                agg_port,
                                zr.row_addr(u) + (hh * d * 4) as u64,
                                (d * 4) as u64,
                                |off| Tag::Agg {
                                    slot: sl,
                                    scale,
                                    offset: (hh * d) as u32 + off,
                                },
                            );
                            *head += 1;
                            if *head == h {
                                *idx += 1;
                                *st = 3;
                            }
                            StepResult::Progress
                        }
                    }
                }
                (
                    Body::Mpnn {
                        st,
                        e1,
                        slot,
                        idx,
                        e0,
                    },
                    VertexProgram::MpnnStep { h, edge, dst },
                ) => {
                    let hr = buf(*h);
                    let hidden = hr.row_words;
                    match *st {
                        0 => match ctx.dnq.try_alloc(
                            1,
                            1,
                            Dest::Mem {
                                addr: buf(*dst).row_addr(v),
                            },
                        ) {
                            Ok(e) => {
                                *e1 = e;
                                *st = 1;
                                StepResult::Progress
                            }
                            Err(()) => dnq_reject(1),
                        },
                        1 => {
                            let dest = Dest::Port {
                                addr: dnq_port,
                                tag: Tag::Dnq {
                                    queue: 1,
                                    entry: *e1,
                                    offset: 0,
                                },
                            };
                            match ctx.agg.try_alloc(
                                task.deg,
                                hidden as u32,
                                hidden as u32,
                                AggOp::Sum,
                                AggFinalize::None,
                                gnna_tensor::ops::Activation::None,
                                dest,
                            ) {
                                Ok(s) => {
                                    *slot = s;
                                    *st = 2;
                                    StepResult::Progress
                                }
                                Err(()) => agg_reject,
                            }
                        }
                        2 => {
                            // h_v fills the second half of the GRU entry.
                            let e = *e1;
                            let base = hidden as u32;
                            Self::enqueue_read(
                                task,
                                ctx,
                                dnq_port,
                                hr.row_addr(v),
                                hr.row_bytes(),
                                |off| Tag::Dnq {
                                    queue: 1,
                                    entry: e,
                                    offset: base + off,
                                },
                            );
                            *idx = 0;
                            *st = 3;
                            StepResult::Progress
                        }
                        3 => {
                            if *idx >= task.deg as usize {
                                return StepResult::Done;
                            }
                            let dest = Dest::Port {
                                addr: agg_port,
                                tag: Tag::Agg {
                                    slot: *slot,
                                    scale: 1.0,
                                    offset: 0,
                                },
                            };
                            match ctx.dnq.try_alloc(0, 0, dest) {
                                Ok(e) => {
                                    *e0 = e;
                                    *st = 4;
                                    StepResult::Progress
                                }
                                Err(()) => dnq_reject(0),
                            }
                        }
                        4 => {
                            let u = task.neighbors[*idx] as usize;
                            let e = *e0;
                            Self::enqueue_read(
                                task,
                                ctx,
                                dnq_port,
                                hr.row_addr(u),
                                hr.row_bytes(),
                                |off| Tag::Dnq {
                                    queue: 0,
                                    entry: e,
                                    offset: off,
                                },
                            );
                            if let Some(eb) = edge {
                                let er = buf(*eb);
                                let eid = task.edge_base as usize + *idx;
                                let base = hidden as u32;
                                Self::enqueue_read(
                                    task,
                                    ctx,
                                    dnq_port,
                                    er.row_addr(eid),
                                    er.row_bytes(),
                                    |off| Tag::Dnq {
                                        queue: 0,
                                        entry: e,
                                        offset: base + off,
                                    },
                                );
                            }
                            *idx += 1;
                            *st = 3;
                            StepResult::Progress
                        }
                        _ => unreachable!(),
                    }
                }
                (Body::Readout { st, entry }, VertexProgram::Readout { h, dst }) => {
                    let g = ctx.union.graph_of_vertex[v] as usize;
                    let hr = buf(*h);
                    match *st {
                        0 => {
                            if ctx.board[g].is_some() {
                                *st = 3;
                                return StepResult::Progress;
                            }
                            if ctx.union.graph_base[g] as usize == v {
                                *st = 1;
                                StepResult::Progress
                            } else {
                                // Owner has not allocated yet; spin.
                                StepResult::Stall(StallCause::BoardWait)
                            }
                        }
                        1 => match ctx.dnq.try_alloc(
                            0,
                            0,
                            Dest::Mem {
                                addr: buf(*dst).row_addr(g),
                            },
                        ) {
                            Ok(e) => {
                                *entry = e;
                                *st = 2;
                                StepResult::Progress
                            }
                            Err(()) => dnq_reject(0),
                        },
                        2 => {
                            let dest = Dest::Port {
                                addr: dnq_port,
                                tag: Tag::Dnq {
                                    queue: 0,
                                    entry: *entry,
                                    offset: 0,
                                },
                            };
                            match ctx.agg.try_alloc(
                                ctx.union.graph_sizes[g],
                                hr.row_words as u32,
                                hr.row_words as u32,
                                AggOp::Sum,
                                AggFinalize::None,
                                gnna_tensor::ops::Activation::None,
                                dest,
                            ) {
                                Ok(s) => {
                                    ctx.board[g] = Some((agg_port, s));
                                    *st = 3;
                                    StepResult::Progress
                                }
                                Err(()) => agg_reject,
                            }
                        }
                        3 => {
                            let (agg_at, slot) = ctx.board[g].expect("board set");
                            Self::enqueue_read(
                                task,
                                ctx,
                                agg_at,
                                hr.row_addr(v),
                                hr.row_bytes(),
                                |off| Tag::Agg {
                                    slot,
                                    scale: 1.0,
                                    offset: off,
                                },
                            );
                            *st = 4;
                            StepResult::Progress
                        }
                        _ => StepResult::Done,
                    }
                }
                (
                    Body::Power {
                        st,
                        pi,
                        out_slot,
                        frontier,
                        next,
                        fi,
                        wi,
                        hop,
                        set,
                        entry,
                        gather_slot,
                        idx,
                        u_deg,
                        u_base,
                    },
                    VertexProgram::PowerGather {
                        src,
                        dst,
                        powers,
                        activation,
                    },
                ) => {
                    let sr = buf(*src);
                    let out_words = buf(*dst).row_words as u32;
                    match *st {
                        0 => {
                            let dest = Dest::Mem {
                                addr: buf(*dst).row_addr(v),
                            };
                            match ctx.agg.try_alloc(
                                powers.len() as u32,
                                out_words,
                                out_words,
                                AggOp::Sum,
                                AggFinalize::None,
                                *activation,
                                dest,
                            ) {
                                Ok(s) => {
                                    *out_slot = s;
                                    *pi = 0;
                                    *st = 1;
                                    StepResult::Progress
                                }
                                Err(()) => agg_reject,
                            }
                        }
                        1 => {
                            // Begin power `powers[*pi]`.
                            let k = powers[*pi];
                            match k {
                                0 => {
                                    set.clear();
                                    set.push(task.v);
                                    *st = 5;
                                }
                                1 => {
                                    set.clone_from(&task.neighbors);
                                    *st = 5;
                                }
                                _ => {
                                    frontier.clone_from(&task.neighbors);
                                    next.clear();
                                    *fi = 0;
                                    *hop = 1;
                                    *st = 2;
                                }
                            }
                            StepResult::Progress
                        }
                        2 => {
                            let k = powers[*pi];
                            if *hop as usize == k as usize {
                                set.clone_from(frontier);
                                *st = 5;
                                return StepResult::Progress;
                            }
                            if *fi < frontier.len() {
                                // Fetch row_ptr of the next frontier vertex.
                                let u = frontier[*fi] as usize;
                                Self::await_words(task, 2);
                                Self::enqueue_read(
                                    task,
                                    ctx,
                                    gpe_port,
                                    ctx.layout.row_ptr_entry(u),
                                    8,
                                    |off| Tag::Gpe {
                                        thread,
                                        offset: off,
                                    },
                                );
                                *st = 3;
                                StepResult::Progress
                            } else {
                                // Advance a hop: the next frontier is the
                                // sorted set of candidates.
                                next.sort_unstable();
                                next.dedup();
                                std::mem::swap(frontier, next);
                                next.clear();
                                *fi = 0;
                                *hop += 1;
                                StepResult::Progress
                            }
                        }
                        3 => {
                            // Woken with row pointers of frontier[*fi].
                            (*u_base, *u_deg) = row_span(&task.recv, ctx);
                            if *u_deg == 0 {
                                *fi += 1;
                                *st = 2;
                                return StepResult::Progress;
                            }
                            Self::await_words(task, *u_deg as usize);
                            let base = *u_base as usize;
                            let bytes = *u_deg as u64 * 4;
                            Self::enqueue_read(
                                task,
                                ctx,
                                gpe_port,
                                ctx.layout.col_idx_entry(base),
                                bytes,
                                |off| Tag::Gpe {
                                    thread,
                                    offset: off,
                                },
                            );
                            *wi = 0;
                            *st = 4;
                            StepResult::Progress
                        }
                        4 => {
                            // Collect one candidate per cycle (ALU work);
                            // duplicates drop out at the hop advance.
                            if *wi < task.recv.len() {
                                next.push(node_id(task.recv[*wi], ctx));
                                *wi += 1;
                                StepResult::Progress
                            } else {
                                *fi += 1;
                                *st = 2;
                                StepResult::Progress
                            }
                        }
                        5 => {
                            // Allocate the DNQ entry for this power's kernel.
                            let dest = Dest::Port {
                                addr: agg_port,
                                tag: Tag::Agg {
                                    slot: *out_slot,
                                    scale: 1.0,
                                    offset: 0,
                                },
                            };
                            match ctx.dnq.try_alloc(0, *pi as u8, dest) {
                                Ok(e) => {
                                    *entry = e;
                                    *st = 6;
                                    StepResult::Progress
                                }
                                Err(()) => dnq_reject(0),
                            }
                        }
                        6 => {
                            let dest = Dest::Port {
                                addr: dnq_port,
                                tag: Tag::Dnq {
                                    queue: 0,
                                    entry: *entry,
                                    offset: 0,
                                },
                            };
                            match ctx.agg.try_alloc(
                                set.len() as u32,
                                sr.row_words as u32,
                                sr.row_words as u32,
                                AggOp::Sum,
                                AggFinalize::None,
                                gnna_tensor::ops::Activation::None,
                                dest,
                            ) {
                                Ok(s) => {
                                    *gather_slot = s;
                                    *idx = 0;
                                    *st = 7;
                                    StepResult::Progress
                                }
                                Err(()) => agg_reject,
                            }
                        }
                        _ => {
                            if *idx < set.len() {
                                let w = set[*idx] as usize;
                                *idx += 1;
                                let sl = *gather_slot;
                                Self::enqueue_read(
                                    task,
                                    ctx,
                                    agg_port,
                                    sr.row_addr(w),
                                    sr.row_bytes(),
                                    |off| Tag::Agg {
                                        slot: sl,
                                        scale: 1.0,
                                        offset: off,
                                    },
                                );
                                StepResult::Progress
                            } else {
                                *pi += 1;
                                if *pi < powers.len() {
                                    *st = 1;
                                    StepResult::Progress
                                } else {
                                    StepResult::Done
                                }
                            }
                        }
                    }
                }
                (body, program) => {
                    unreachable!("body/program mismatch: {body:?} vs {program:?} — compiler bug")
                }
            }
        })();
        task.phase = Phase::Body(body);
        result
    }
}

/// Decodes fetched row pointers `[start, end)` into `(edge base,
/// degree)`. The address-generation path bounds-checks them against the
/// edge array (real AGUs clamp to the buffer extent), so a corrupted
/// word delivered by fault pass-through degrades the result instead of
/// hanging or crashing the machine. Clean words are always in range, so
/// this is a no-op fault-free.
fn row_span(recv: &[u32], ctx: &GpeCtx<'_>) -> (u32, u32) {
    let edges = ctx.union.num_edges() as u32;
    let base = recv[0].min(edges);
    (base, recv[1].min(edges).saturating_sub(base))
}

/// Decodes a fetched neighbour id with the same bounds check: a poisoned
/// index is clamped into the vertex space rather than driving an
/// out-of-range read.
fn node_id(u: u32, ctx: &GpeCtx<'_>) -> u32 {
    u.min((ctx.union.num_nodes() as u32).saturating_sub(1))
}

/// Where a vertex of `program` starts: at its structure prologue, or
/// straight in the body for the programs that need no structure.
fn first_phase(program: &VertexProgram) -> Phase {
    if program.needs_structure() || matches!(program, VertexProgram::MpnnStep { .. }) {
        Phase::FetchRowPtr { issued: false }
    } else {
        match program {
            VertexProgram::Project { .. } | VertexProgram::Readout { .. } => {
                Phase::Body(new_body(program))
            }
            _ => Phase::FetchRowPtr { issued: false },
        }
    }
}

fn new_body(program: &VertexProgram) -> Box<Body> {
    Box::new(match program {
        VertexProgram::Project { .. } => Body::Project { st: 0, entry: 0 },
        VertexProgram::Aggregate { .. } => Body::Aggregate {
            st: 0,
            slot: 0,
            idx: 0,
        },
        VertexProgram::AttentionAggregate { .. } => Body::Attention {
            st: 0,
            slot: 0,
            idx: 0,
            head: 0,
            self_st: Vec::new(),
            cur_t: Vec::new(),
        },
        VertexProgram::MpnnStep { .. } => Body::Mpnn {
            st: 0,
            e1: 0,
            slot: 0,
            idx: 0,
            e0: 0,
        },
        VertexProgram::Readout { .. } => Body::Readout { st: 0, entry: 0 },
        VertexProgram::PowerGather { .. } => Body::Power {
            st: 0,
            pi: 0,
            out_slot: 0,
            frontier: Vec::new(),
            next: Vec::new(),
            fi: 0,
            wi: 0,
            hop: 0,
            set: Vec::new(),
            entry: 0,
            gather_slot: 0,
            idx: 0,
            u_deg: 0,
            u_base: 0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggFinalize, AggOp};
    use crate::config::{AggParams, DnqParams};
    use crate::dna::DnaKernel;
    use crate::layout::{BufferSpec, Layout, Rows, UnionGraph};
    use gnna_graph::GraphInstance;
    use gnna_mem::MemImage;
    use gnna_models::init::glorot;
    use gnna_tensor::Matrix;

    /// A self-contained GPE harness: one tile's AGG/DNQ, a 2-node layout
    /// (one tile at (1,0), one memory node at (0,0)) and a 6-vertex path
    /// graph with 4-wide features.
    struct Harness {
        gpe: Gpe,
        agg: Aggregator,
        dnq: Dnq,
        layout: Layout,
        union: UnionGraph,
        map: AddressMap,
        board: Vec<Option<(Address, u32)>>,
        outbox: VecDeque<(Address, Message)>,
    }

    fn ports() -> TilePorts {
        TilePorts {
            gpe: Address::new(1, 0, 0),
            agg: Address::new(1, 0, 1),
            dnq: Address::new(1, 0, 2),
        }
    }

    fn harness(threads: usize, buffers: &[BufferSpec]) -> Harness {
        let graph = gnna_graph::CsrGraph::from_undirected_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        )
        .unwrap();
        let x = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f32);
        let inst = GraphInstance {
            graph,
            x,
            edge_features: None,
        };
        let union = UnionGraph::build(std::slice::from_ref(&inst));
        let mut image = MemImage::new();
        let layout = Layout::build(&mut image, &union, buffers);
        let map = AddressMap::new(vec![Address::new(0, 0, 0)], 4096);
        Harness {
            gpe: Gpe::new(ports(), threads),
            agg: Aggregator::new(AggParams::default()),
            dnq: Dnq::new(DnqParams::default()),
            layout,
            union,
            map,
            board: vec![None],
            outbox: VecDeque::new(),
        }
    }

    fn tick(h: &mut Harness) {
        tick_with(h, false);
    }

    fn tick_with(h: &mut Harness, dna_busy: bool) {
        let mut ctx = GpeCtx {
            agg: &mut h.agg,
            dnq: &mut h.dnq,
            outbox: &mut h.outbox,
            layout: &h.layout,
            union: &h.union,
            map: &h.map,
            board: &mut h.board,
            dna_busy,
        };
        h.gpe.tick(&mut ctx);
    }

    /// Per-cause counters must partition idle + stall cycles exactly.
    fn assert_stall_partition(stats: &GpeStats) {
        assert_eq!(
            stats.blocked_cycles(),
            stats.idle_cycles + stats.stall_cycles,
            "stall causes must partition blocked cycles: {stats:?}"
        );
    }

    fn project_layer() -> Arc<Layer> {
        Arc::new(Layer {
            name: "test.project".into(),
            program: VertexProgram::Project { src: 0, dst: 1 },
            kernels: vec![DnaKernel::Linear {
                w: glorot(4, 2, 1),
                bias: None,
                act: gnna_tensor::ops::Activation::None,
            }],
            dnq_entry_words: [4, 0],
            agg_entry_words: 0,
        })
    }

    fn aggregate_layer() -> Arc<Layer> {
        Arc::new(Layer {
            name: "test.aggregate".into(),
            program: VertexProgram::Aggregate {
                src: 0,
                dst: 1,
                include_self: true,
                op: AggOp::Sum,
                finalize: AggFinalize::DivideByCount,
                activation: gnna_tensor::ops::Activation::None,
            },
            kernels: vec![],
            dnq_entry_words: [0, 0],
            agg_entry_words: 4,
        })
    }

    #[test]
    fn idle_gpe_counts_idle_cycles() {
        let mut h = harness(
            2,
            &[BufferSpec {
                rows: Rows::PerVertex,
                row_words: 4,
            }],
        );
        h.gpe.start_layer(project_layer(), []);
        for _ in 0..5 {
            tick(&mut h);
        }
        assert!(h.gpe.is_idle());
        assert_eq!(h.gpe.stats().idle_cycles, 5);
        // No thread was ever blocked on memory: all idle cycles are
        // attributed to having no work.
        assert_eq!(h.gpe.stats().stall_by_cause[StallCause::NoWork.index()], 5);
        assert_stall_partition(h.gpe.stats());
    }

    #[test]
    fn project_issues_dnq_tagged_reads() {
        let buffers = [
            BufferSpec {
                rows: Rows::PerVertex,
                row_words: 4,
            },
            BufferSpec {
                rows: Rows::PerVertex,
                row_words: 2,
            },
        ];
        let mut h = harness(1, &buffers);
        h.dnq.configure([4, 0]);
        h.gpe.start_layer(project_layer(), [3u32]);
        for _ in 0..16 {
            tick(&mut h);
        }
        // The GPE must have allocated one DNQ entry and issued one read
        // of the 16-byte feature row, tagged for queue 0.
        assert_eq!(h.dnq.len(0), 1);
        let mut reads = Vec::new();
        while let Some((dst, msg)) = h.outbox.pop_front() {
            reads.push((dst, msg));
        }
        assert_eq!(reads.len(), 1);
        let (dst, msg) = &reads[0];
        assert_eq!(*dst, Address::new(0, 0, 0), "read goes to the memory node");
        match msg {
            Message::MemRead {
                bytes,
                reply_to,
                tag,
                ..
            } => {
                assert_eq!(*bytes, 16);
                assert_eq!(*reply_to, ports().dnq, "response routed to the DNQ");
                assert!(matches!(
                    tag,
                    Tag::Dnq {
                        queue: 0,
                        offset: 0,
                        ..
                    }
                ));
            }
            other => panic!("expected MemRead, got {other:?}"),
        }
        assert!(h.gpe.is_idle());
        assert_eq!(h.gpe.stats().vertices_done, 1);
    }

    #[test]
    fn aggregate_fetches_structure_then_issues_neighbor_reads() {
        let buffers = [
            BufferSpec {
                rows: Rows::PerVertex,
                row_words: 4,
            },
            BufferSpec {
                rows: Rows::PerVertex,
                row_words: 4,
            },
        ];
        let mut h = harness(1, &buffers);
        h.agg.configure(4);
        h.gpe.start_layer(aggregate_layer(), [2u32]); // vertex 2 has deg 2
                                                      // Run until the row-pointer read is issued.
        for _ in 0..4 {
            tick(&mut h);
        }
        let (_, msg) = h.outbox.pop_front().expect("row-pointer read");
        let Message::MemRead {
            addr, bytes, tag, ..
        } = msg
        else {
            panic!("expected MemRead");
        };
        assert_eq!(addr, h.layout.row_ptr_entry(2));
        assert_eq!(bytes, 8);
        let Tag::Gpe { thread, .. } = tag else {
            panic!("prologue read must come back to the GPE")
        };
        // Thread is blocked until we deliver row pointers [base, base+deg].
        for _ in 0..3 {
            tick(&mut h);
        }
        assert_eq!(h.gpe.stats().vertices_done, 0);
        let base = h.union.row_ptr[2];
        let end = h.union.row_ptr[3];
        h.gpe
            .deliver(thread, 0, &[base, end])
            .expect("blocked thread");
        // Now it fetches the neighbor list.
        for _ in 0..4 {
            tick(&mut h);
        }
        let (_, msg) = h.outbox.pop_front().expect("neighbor-list read");
        let Message::MemRead {
            addr,
            bytes,
            tag: Tag::Gpe { thread, .. },
            ..
        } = msg
        else {
            panic!("expected GPE-tagged MemRead");
        };
        assert_eq!(addr, h.layout.col_idx_entry(base as usize));
        assert_eq!(bytes, 8); // two neighbors
        h.gpe.deliver(thread, 0, &[1, 3]).expect("blocked thread");
        // Body: one AGG slot and three feature reads (self + 2 neighbors).
        for _ in 0..24 {
            tick(&mut h);
        }
        assert_eq!(h.agg.live_slots(), 1);
        let mut agg_reads = 0;
        while let Some((_, msg)) = h.outbox.pop_front() {
            if let Message::MemRead { reply_to, tag, .. } = msg {
                assert_eq!(reply_to, ports().agg);
                assert!(matches!(tag, Tag::Agg { .. }));
                agg_reads += 1;
            }
        }
        assert_eq!(agg_reads, 3);
        assert_eq!(h.gpe.stats().vertices_done, 1);
    }

    #[test]
    fn thread_pool_overlaps_vertices() {
        // With 4 threads, four vertices should all reach their blocking
        // row-pointer read without any response arriving.
        let buffers = [
            BufferSpec {
                rows: Rows::PerVertex,
                row_words: 4,
            },
            BufferSpec {
                rows: Rows::PerVertex,
                row_words: 4,
            },
        ];
        let mut h = harness(4, &buffers);
        h.agg.configure(4);
        h.gpe.start_layer(aggregate_layer(), [0u32, 1, 2, 3]);
        for _ in 0..40 {
            tick(&mut h);
        }
        let mut rowptr_reads = 0;
        while let Some((_, msg)) = h.outbox.pop_front() {
            if matches!(
                msg,
                Message::MemRead {
                    tag: Tag::Gpe { .. },
                    ..
                }
            ) {
                rowptr_reads += 1;
            }
        }
        assert_eq!(rowptr_reads, 4, "all four threads issued their reads");
        assert!(h.gpe.stats().switch_cycles > 0, "context switches charged");
    }

    #[test]
    fn stall_when_dnq_full_then_recover() {
        let buffers = [
            BufferSpec {
                rows: Rows::PerVertex,
                row_words: 4,
            },
            BufferSpec {
                rows: Rows::PerVertex,
                row_words: 2,
            },
        ];
        let mut h = harness(2, &buffers);
        // A DNQ sized for exactly one in-flight entry.
        h.dnq = Dnq::new(DnqParams {
            scratchpad_bytes: 16,
            dest_buffer_bytes: 8,
            idle_switch_cycles: 16,
        });
        h.dnq.configure([4, 0]);
        assert_eq!(h.dnq.capacity(0), 1);
        h.gpe.start_layer(project_layer(), [0u32, 1]);
        for _ in 0..40 {
            tick(&mut h);
        }
        // Vertex 0 allocated the only entry; vertex 1 must be stalling.
        assert_eq!(h.gpe.stats().vertices_done, 1);
        assert!(h.gpe.stats().stall_cycles > 0);
        // The DNA is idle in this harness, so the alloc failures are
        // charged to the queue itself.
        assert!(h.gpe.stats().stall_by_cause[StallCause::DnqFull.index()] > 0);
        assert_eq!(h.gpe.stats().stall_by_cause[StallCause::DnaBusy.index()], 0);
        assert_stall_partition(h.gpe.stats());
        // Drain the entry as the DNA would; the GPE then finishes.
        h.dnq.fill(0, 0, 0, &[0.0; 4]).expect("allocated entry");
        let _ = h.dnq.dequeue_for_dna(true).expect("entry ready");
        for _ in 0..40 {
            tick(&mut h);
        }
        assert_eq!(h.gpe.stats().vertices_done, 2);
    }

    /// Threads of the batch-equivalence harness.
    const STALL_THREADS: usize = 20;

    /// A harness mid MPNN step whose DNQ queue 1 and AGG slot file are
    /// both full: `ready` threads are Ready at an allocation (alternately
    /// the DNQ entry and the AGG slot), `blocked` threads wait on
    /// memory, and the round robin starts at thread 7. Enough real ticks
    /// have run for every Ready thread to lose its allocation once, then
    /// `warmup` more. Probes record onto a tracer of its own.
    fn stalled(
        ready: usize,
        blocked: usize,
        warmup: usize,
        dna_busy: bool,
    ) -> (Harness, gnna_telemetry::SharedTracer) {
        let buffers = [
            BufferSpec {
                rows: Rows::PerVertex,
                row_words: 4,
            },
            BufferSpec {
                rows: Rows::PerVertex,
                row_words: 4,
            },
        ];
        let mut h = harness(STALL_THREADS, &buffers);
        let tracer = gnna_telemetry::shared(gnna_telemetry::Tracer::new(
            gnna_telemetry::TraceLevel::Event,
        ));
        let probe =
            |m: &str| gnna_telemetry::ModuleProbe::new(std::rc::Rc::clone(&tracer), "tile0", m);
        h.gpe.attach_probe(probe("gpe"));
        h.dnq.attach_probe(probe("dnq"));
        h.agg.attach_probe(probe("agg"));
        // One entry per DNQ queue, one AGG slot; take both.
        h.dnq = Dnq::new(DnqParams {
            scratchpad_bytes: 32,
            dest_buffer_bytes: 16,
            idle_switch_cycles: 16,
        });
        h.dnq.attach_probe(probe("dnq"));
        h.dnq.configure([4, 4]);
        h.dnq.try_alloc(1, 1, Dest::Mem { addr: 0 }).unwrap();
        h.agg.configure(62 * 1024 / 4);
        h.agg
            .try_alloc(
                1,
                4,
                4,
                AggOp::Sum,
                AggFinalize::None,
                gnna_tensor::ops::Activation::None,
                Dest::Mem { addr: 0 },
            )
            .unwrap();
        let layer = Arc::new(Layer {
            name: "test.mpnn".into(),
            program: VertexProgram::MpnnStep {
                h: 0,
                edge: None,
                dst: 1,
            },
            kernels: vec![],
            dnq_entry_words: [4, 4],
            agg_entry_words: 4,
        });
        h.gpe.start_layer(Arc::clone(&layer), []);
        // Spread the threads over the pool (3 is coprime with 20).
        let slot = |k: usize| (3 * k + 1) % STALL_THREADS;
        for k in 0..ready {
            let task = &mut h.gpe.tasks[slot(k)];
            task.start(k as u32 % 6, &layer);
            task.deg = 1;
            task.phase = Phase::Body(Box::new(Body::Mpnn {
                st: (k % 2) as u8,
                e1: 0,
                slot: 0,
                idx: 0,
                e0: 0,
            }));
            h.gpe.threads[slot(k)] = TState::Ready;
        }
        for k in ready..ready + blocked {
            h.gpe.tasks[slot(k)].start(k as u32 % 6, &layer);
            h.gpe.threads[slot(k)] = TState::Blocked;
        }
        h.gpe.rr = 7;
        for _ in 0..2 * ready + warmup {
            tick_with(&mut h, dna_busy);
        }
        (h, tracer)
    }

    /// One `note_ticks(n)` leaves the same counters, scheduler state,
    /// DNQ/AGG rejection counts and trace instants as `n` single ticks,
    /// from any point of the switch/stall pattern, with 0, 1, 2 and 16
    /// stalled Ready threads, with and without Blocked threads.
    #[test]
    fn note_ticks_matches_single_ticks() {
        for ready in [0, 1, 2, 16] {
            for blocked in [0, 2] {
                for warmup in 0..4 {
                    for dna_busy in [false, true] {
                        for n in [1, 2, 3, 8, 41] {
                            let (mut one, one_trace) = stalled(ready, blocked, warmup, dna_busy);
                            let (mut batch, batch_trace) =
                                stalled(ready, blocked, warmup, dna_busy);
                            let what = format!(
                                "ready {ready} blocked {blocked} warmup {warmup} \
                                 dna_busy {dna_busy} n {n}"
                            );
                            assert!(batch.gpe.can_sleep(&batch.dnq, &batch.agg), "{what}");
                            assert!(batch.outbox.is_empty(), "{what}");
                            for _ in 0..n {
                                tick_with(&mut one, dna_busy);
                            }
                            batch
                                .gpe
                                .note_ticks(n, &mut batch.dnq, &mut batch.agg, dna_busy);
                            assert_eq!(
                                format!("{:?}", one.gpe),
                                format!("{:?}", batch.gpe),
                                "{what}"
                            );
                            assert_eq!(
                                format!("{:?} {:?}", one.dnq, one.agg),
                                format!("{:?} {:?}", batch.dnq, batch.agg),
                                "{what}"
                            );
                            assert_eq!(
                                format!("{:?}", one.outbox),
                                format!("{:?}", batch.outbox),
                                "{what}"
                            );
                            assert_eq!(
                                one_trace.borrow().to_chrome_json_string(),
                                batch_trace.borrow().to_chrome_json_string(),
                                "{what}"
                            );
                            assert_stall_partition(batch.gpe.stats());
                        }
                    }
                }
            }
        }
        // The harness really stalls: both modules reject, per cause (one
        // rejection each in the warm-up, two each in the batch).
        let (mut h, _) = stalled(2, 0, 0, true);
        h.gpe.note_ticks(8, &mut h.dnq, &mut h.agg, true);
        let by_cause = h.gpe.stats().stall_by_cause;
        assert_eq!(by_cause[StallCause::DnaBusy.index()], 3);
        assert_eq!(by_cause[StallCause::AggHazard.index()], 3);
        assert_eq!(h.dnq.alloc_failures(), 3);
        assert_eq!(h.agg.stats().4, 3);
    }

    #[test]
    fn a_delivery_or_a_free_slot_ends_the_sleep() {
        let (mut h, _) = stalled(2, 1, 2, true);
        assert!(h.gpe.can_sleep(&h.dnq, &h.agg));
        // A Blocked thread's data makes it Ready with nothing to retry.
        let blocked = (3 * 2 + 1) % STALL_THREADS;
        assert_eq!(h.gpe.threads[blocked], TState::Blocked);
        let task = &mut h.gpe.tasks[blocked];
        let words = task.recv_expect.max(1);
        task.recv_expect = words;
        task.recv = vec![0; words];
        h.gpe
            .deliver(blocked as u16, 0, &vec![0; words])
            .expect("blocked thread");
        assert!(!h.gpe.can_sleep(&h.dnq, &h.agg));
        // A freed DNQ entry lets a retry succeed.
        let (mut h, _) = stalled(2, 0, 2, true);
        h.dnq.fill(1, 0, 0, &[0.0; 4]).unwrap();
        // Queue 1 is served after the lazy switch's idle hysteresis.
        assert!((0..32).any(|_| h.dnq.dequeue_for_dna(true).is_some()));
        assert!(!h.dnq.is_full(1));
        assert!(!h.gpe.can_sleep(&h.dnq, &h.agg));
    }

    #[test]
    #[should_panic(expected = "layer started while GPE busy")]
    fn start_layer_while_busy_panics() {
        let buffers = [
            BufferSpec {
                rows: Rows::PerVertex,
                row_words: 4,
            },
            BufferSpec {
                rows: Rows::PerVertex,
                row_words: 2,
            },
        ];
        let mut h = harness(1, &buffers);
        h.dnq.configure([4, 0]);
        h.gpe.start_layer(project_layer(), [0u32]);
        tick(&mut h);
        h.gpe.start_layer(project_layer(), [1u32]);
    }

    #[test]
    fn deliver_to_idle_thread_is_protocol_error() {
        let buffers = [BufferSpec {
            rows: Rows::PerVertex,
            row_words: 4,
        }];
        let mut h = harness(1, &buffers);
        let err = h.gpe.deliver(0, 0, &[1]).expect_err("idle thread");
        assert!(err.contains("idle GPE thread 0"));
    }
}
