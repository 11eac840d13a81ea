//! Sharded kernel execution: SM-partitioned speculation with
//! deterministic epoch barriers.
//!
//! The serial engine (DESIGN.md §7) interleaves all 28 SMs through one
//! event loop. Sharded mode partitions the SMs — warp cursors, TLBs,
//! and the event-queue slice they feed — across N [`Shard`]s that
//! simulate SM-local work independently, rendezvousing at the events
//! the GMMU serializes: far-faults (and the prefetch admissions,
//! evictions, and shootdowns they trigger) plus watchdog trips.
//!
//! # The canonical order and the barrier key
//!
//! Every event is identified by its *packed key*
//! `(cycle << 16) | rank`, where `rank` is the warp's SM-major
//! dispatch rank — exactly the `(cycle, key)` order the serial
//! engine's queue pops in. Each live warp has one outstanding
//! event, so packed keys are globally unique, and "the schedule is a
//! pure function of (cycle, warp)" carries over verbatim: shards
//! process their own slice in ascending packed order, and the courier
//! commits cross-shard effects in ascending packed order, so the
//! merged schedule is byte-identical to serial at every shard count.
//!
//! # Epochs, speculation, and rollback
//!
//! Between barriers each shard runs against *frozen* shared views
//! (`&Gmmu`, `&ShootdownDirectory`): residency, page generations, and
//! huge mappings only change at barriers, and the single mid-epoch
//! read/write overlap — `Gmmu::ready_time` vs the arrival-pin removal
//! a committed `record_access` performs — is outcome-inert because a
//! pin consumed at event time `t` satisfies `ready ≤ t + 1 + walk`,
//! below any later event's probe point, so the stale pin filters out
//! identically. Everything a shard *would* write to shared state is
//! journaled instead: per-event undo frames (TLB inverse ops from
//! [`uvm_mem::TlbOp`], queue re-pushes, cursor/retire inverses) tagged
//! with the event's packed key, plus a cross-shard [`LogEntry`] stream
//! (`record_access` / holder-bit updates) the courier replays in
//! canonical order at each barrier.
//!
//! A shard stops at its first far-fault (publishing the packed key
//! through the shared `AtomicU64` bound so sibling shards stop
//! speculating past it), at a watchdog trip, at the bound, or at its
//! per-epoch event budget. The courier then picks the *frontier*
//! `k = min` over every shard's stop key, rolls every shard back to
//! `k` (undoing frames with packed key `> k`; speculative pushes are
//! cancelled by nonce tombstones so a rolled-back wake can never eat a
//! later legitimate event), commits the surviving log entries in
//! packed order, and — if `k` is a fault — services it exactly as the
//! serial loop would (`handle_fault`, shootdown generation bumps,
//! holder drains, replay wake). Spurious speculative faults at keys
//! `> k` simply roll back and re-execute. Since every committed event
//! saw shared state identical to serial's, the fault sequence, RNG
//! draws, statistics, traces, and final machine state are all
//! byte-identical to the serial engine.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use uvm_core::Gmmu;
use uvm_mem::{ShootdownDirectory, Tlb, TlbLookup, TlbOp};
use uvm_types::hash::FxBuildHasher;
use uvm_types::{Cycle, Duration, PageId};

use crate::engine::TraceEvent;
use crate::kernel::Access;
use crate::queue::EventQueue;

/// Bits reserved for the warp rank in a packed barrier key. Sharded
/// mode is gated to kernels with fewer than `1 << RANK_BITS` blocks.
pub(crate) const RANK_BITS: u32 = 16;

/// The canonical barrier key of an event: ascending packed order is
/// exactly the serial engine's `(cycle, rank)` pop order.
#[inline]
pub(crate) fn pack(t: Cycle, rank: u64) -> u64 {
    debug_assert!(t.index() < 1 << (64 - RANK_BITS), "cycle overflows key");
    debug_assert!(rank < 1 << RANK_BITS, "rank overflows key");
    (t.index() << RANK_BITS) | rank
}

/// Per-shard warp state — the shard-local mirror of the serial
/// engine's `WarpState`, indexed by shard-local position.
struct SWarp {
    /// Next access to issue, as an index into the shared arena.
    cursor: usize,
    /// One past the warp's last arena index.
    end: usize,
    /// The access currently being attempted (replayed after a fault).
    current: Option<Access>,
    /// Global SM index (for holder-bit log entries).
    sm: usize,
    /// SM index within this shard (TLB vector position).
    sm_local: usize,
    /// Global SM-major dispatch rank: the event key.
    rank: u64,
    /// Original block index (trace attribution and fault debug lines
    /// use this, exactly as the serial engine does).
    id: usize,
    done: bool,
}

/// One cross-shard side effect, replayed by the courier in packed-key
/// order at each barrier.
pub(crate) struct LogEntry {
    pub packed: u64,
    pub kind: LogKind,
}

pub(crate) enum LogKind {
    /// A completed access: `Gmmu::record_access` plus a trace entry.
    Access {
        page: PageId,
        write: bool,
        done: Cycle,
        warp: usize,
    },
    /// A TLB fill: set the page's holder bit for `sm`.
    NoteFill { page: PageId, sm: usize },
    /// A TLB victim eviction: drop `sm`'s holder bit.
    NoteDrop { page: PageId, sm: usize },
}

/// One journaled inverse, tagged with its event's packed key; popped
/// in reverse order while rolling back past a barrier frontier.
enum Frame {
    /// An event was popped: re-push it (original payload, original
    /// nonce) and restore the monotonicity watermark.
    Pop {
        t: Cycle,
        local: usize,
        nonce: u64,
        prev_last: Cycle,
    },
    /// A speculative push: tombstone its nonce so the queued event is
    /// skipped inertly when it surfaces.
    Push { nonce: u64 },
    /// The warp loaded its next access from the arena.
    LoadCursor { local: usize },
    /// The warp completed its current access.
    ClearCurrent { local: usize, access: Access },
    /// The warp retired (and possibly started the next queued block).
    Retire {
        local: usize,
        prev_end: Cycle,
        started: Option<usize>,
    },
    /// A TLB mutation, inverted via [`Tlb::undo`].
    Tlb { sm_local: usize, op: TlbOp },
    /// A cross-shard log entry was appended.
    Log,
}

/// A far-fault a shard stopped at, for the courier to service.
#[derive(Clone, Copy)]
pub(crate) struct PendingFault {
    pub t: Cycle,
    pub page: PageId,
    /// Walk-completion cycle: the fault's `now` for the GMMU.
    pub walked: Cycle,
    /// Shard-local index of the faulting warp (for the replay wake).
    pub local: usize,
    /// Original block index (the serial debug line's `w=`).
    pub warp_id: usize,
}

/// Why a shard's epoch ended.
pub(crate) enum Stop {
    /// First far-fault: the event at `packed` needs the GMMU. Its
    /// frames stay journaled at `packed` (kept if this fault wins the
    /// barrier, rolled back otherwise); `current` still holds the
    /// access for the post-fault replay.
    Fault { packed: u64, fault: PendingFault },
    /// Watchdog trip at `packed`: the event is re-held; the courier
    /// panics with the serial message once this is the frontier.
    Watchdog { packed: u64, t: Cycle },
    /// Stopped at the speculation bound or the epoch budget.
    Paused,
    /// No events left: every owned warp retired.
    Done,
}

impl Stop {
    /// The stop's position in canonical order: the key of the first
    /// event this shard has *not* committed-or-finished. Used by the
    /// courier to pick the barrier frontier (`Paused`/`Done` shards
    /// report theirs via [`Shard::frontier`]).
    pub(crate) fn key(&self) -> u64 {
        match self {
            Stop::Fault { packed, .. } | Stop::Watchdog { packed, .. } => *packed,
            Stop::Paused | Stop::Done => u64::MAX,
        }
    }
}

/// One thread block's dispatch record, for [`Shard::new`]: global
/// SM-major rank, original block index, and its arena chunk.
#[derive(Clone, Copy)]
pub(crate) struct DispatchedBlock {
    pub rank: u64,
    pub id: usize,
    pub cursor: usize,
    pub end: usize,
}

/// Read-only epoch context shared by every shard: frozen views plus
/// the live speculation bound.
pub(crate) struct EpochCtx<'a> {
    pub gmmu: &'a Gmmu,
    pub dir: &'a ShootdownDirectory,
    pub arena: &'a [Access],
    pub bound: &'a AtomicU64,
    pub start: Cycle,
    pub mem_latency: Duration,
    pub compute_delay: Duration,
    pub walk_latency: Duration,
    pub max_kernel_cycles: Option<u64>,
    /// Journal undo frames (off in the cooperative single-worker mode,
    /// where every event commits immediately and rollback never runs).
    pub journal: bool,
    /// Max events to process this epoch (`None` = until fault/bound).
    pub budget: Option<usize>,
}

/// One SM partition: a contiguous SM range with its warps, TLBs,
/// event-queue slice, and speculation journal.
pub(crate) struct Shard {
    /// First owned (global) SM.
    sm_lo: usize,
    /// Owned TLBs, indexed by `sm - sm_lo`.
    tlbs: Vec<Tlb>,
    warps: Vec<SWarp>,
    /// Per owned SM: queued thread blocks (shard-local warp indices),
    /// popped from the back in dispatch order.
    sm_queues: Vec<Vec<usize>>,
    active: Vec<usize>,
    /// This shard's slice of the event queue. Payload: shard-local
    /// warp index + push nonce (0 = committed push, never cancelled).
    queue: EventQueue<(usize, u64)>,
    /// Tombstoned nonces of rolled-back speculative pushes.
    cancelled: HashSet<u64, FxBuildHasher>,
    next_nonce: u64,
    /// An event popped but not processed (bound/watchdog stop); it is
    /// consumed first next epoch.
    held: Option<(Cycle, usize, u64)>,
    frames: Vec<(u64, Frame)>,
    log: Vec<LogEntry>,
    /// Max retire cycle seen (the shard's contribution to kernel end).
    end: Cycle,
    last_popped: Cycle,
}

impl Shard {
    /// Builds a shard owning global SMs `[sm_lo, sm_lo + tlbs.len())`.
    ///
    /// `blocks` lists, per owned SM in order, the warps dispatched to
    /// it in dispatch order. The first `blocks_per_sm` of each SM get
    /// their initial events at `start`; the rest queue behind them.
    pub(crate) fn new(
        sm_lo: usize,
        tlbs: Vec<Tlb>,
        blocks: &[Vec<DispatchedBlock>],
        blocks_per_sm: usize,
        start: Cycle,
    ) -> Self {
        debug_assert_eq!(tlbs.len(), blocks.len());
        let mut warps = Vec::new();
        let mut sm_queues = vec![Vec::new(); blocks.len()];
        let mut active = vec![0usize; blocks.len()];
        let mut queue = EventQueue::new();
        for (sm_local, dispatched) in blocks.iter().enumerate() {
            for (pos, b) in dispatched.iter().enumerate() {
                let local = warps.len();
                warps.push(SWarp {
                    cursor: b.cursor,
                    end: b.end,
                    current: None,
                    sm: sm_lo + sm_local,
                    sm_local,
                    rank: b.rank,
                    id: b.id,
                    done: false,
                });
                if pos < blocks_per_sm {
                    active[sm_local] += 1;
                    queue.push_keyed(start, b.rank, (local, 0));
                } else {
                    sm_queues[sm_local].push(local);
                }
            }
            // Queued blocks start in dispatch order; pop from the back.
            sm_queues[sm_local].reverse();
        }
        Shard {
            sm_lo,
            tlbs,
            warps,
            sm_queues,
            active,
            queue,
            cancelled: HashSet::default(),
            next_nonce: 0,
            held: None,
            frames: Vec::new(),
            log: Vec::new(),
            end: start,
            last_popped: start,
        }
    }

    /// The packed key of this shard's next unprocessed event, or
    /// `None` when it has none left. (Conservative in the presence of
    /// tombstoned events: may report a cancelled event's key, which
    /// only makes the courier's frontier earlier, never wrong.)
    pub(crate) fn frontier(&mut self) -> Option<u64> {
        if let Some((t, local, _)) = self.held {
            return Some(pack(t, self.warps[local].rank));
        }
        self.queue.peek_key().map(|(t, rank)| pack(t, rank))
    }

    /// This shard's latest retire cycle.
    pub(crate) fn end(&self) -> Cycle {
        self.end
    }

    /// Mutable access to the cross-shard log (the courier drains it).
    pub(crate) fn log_mut(&mut self) -> &mut Vec<LogEntry> {
        &mut self.log
    }

    /// Moves this shard's TLBs back out (kernel completion).
    pub(crate) fn into_tlbs(self) -> Vec<Tlb> {
        debug_assert!(self.queue.is_empty(), "shard retired with queued events");
        debug_assert!(self.frames.is_empty(), "shard retired with a live journal");
        debug_assert!(self.log.is_empty(), "shard retired with an undrained log");
        self.tlbs
    }

    /// Queues the post-fault replay wake for the warp that faulted
    /// (a committed push: nonce 0, no journal).
    pub(crate) fn push_wake(&mut self, t: Cycle, local: usize) {
        let rank = self.warps[local].rank;
        self.queue.push_keyed(t, rank, (local, 0));
    }

    /// Invalidates `page` in the TLB of global SM `sm` (courier-side
    /// shootdown at a fault barrier; committed, so no journal).
    pub(crate) fn invalidate(&mut self, sm: usize, page: PageId) {
        self.tlbs[sm - self.sm_lo].invalidate(page);
    }

    /// Discards the journal after a barrier commits (frames at or
    /// below the frontier describe now-committed events).
    pub(crate) fn commit(&mut self) {
        self.frames.clear();
    }

    /// Rolls back every journaled event with packed key `> k`,
    /// restoring warps, TLBs, the event queue, and the log to their
    /// exact state as of frontier `k`.
    pub(crate) fn rollback(&mut self, k: u64) {
        // A held event (bound/watchdog stop) goes back into the queue:
        // rolled-back events below it would otherwise be consumed
        // *after* it next epoch, since the held slot is drained first.
        if let Some((t, local, nonce)) = self.held.take() {
            let rank = self.warps[local].rank;
            self.queue.push_keyed(t, rank, (local, nonce));
        }
        while let Some(&(packed, _)) = self.frames.last() {
            if packed <= k {
                break;
            }
            let (_, frame) = self.frames.pop().expect("just peeked");
            match frame {
                Frame::Pop {
                    t,
                    local,
                    nonce,
                    prev_last,
                } => {
                    let rank = self.warps[local].rank;
                    self.queue.push_keyed(t, rank, (local, nonce));
                    self.last_popped = prev_last;
                }
                Frame::Push { nonce } => {
                    self.cancelled.insert(nonce);
                }
                Frame::LoadCursor { local } => {
                    let w = &mut self.warps[local];
                    w.cursor -= 1;
                    w.current = None;
                }
                Frame::ClearCurrent { local, access } => {
                    self.warps[local].current = Some(access);
                }
                Frame::Retire {
                    local,
                    prev_end,
                    started,
                } => {
                    let sm_local = self.warps[local].sm_local;
                    if let Some(next) = started {
                        self.sm_queues[sm_local].push(next);
                        self.active[sm_local] -= 1;
                    }
                    self.active[sm_local] += 1;
                    self.warps[local].done = false;
                    self.end = prev_end;
                }
                Frame::Tlb { sm_local, op } => self.tlbs[sm_local].undo(op),
                Frame::Log => {
                    self.log.pop();
                }
            }
        }
    }

    /// A fresh nonce for a speculative push (0 when not journaling:
    /// committed pushes are never cancelled).
    #[inline]
    fn alloc_nonce(&mut self, journal: bool) -> u64 {
        if journal {
            self.next_nonce += 1;
            self.next_nonce
        } else {
            0
        }
    }

    /// Runs this shard's slice of the serial event loop until a fault,
    /// a watchdog trip, the speculation bound, the epoch budget, or
    /// queue exhaustion. Mirrors `Engine::run_kernel_detailed`'s loop
    /// statement-for-statement; shared-state writes go to the journal
    /// and log instead.
    pub(crate) fn run_epoch(&mut self, ctx: &EpochCtx<'_>) -> Stop {
        let journal = ctx.journal;
        let mut used = 0usize;
        loop {
            if let Some(budget) = ctx.budget {
                if used == budget {
                    return Stop::Paused;
                }
            }
            let (t, local, nonce) = match self.held.take() {
                Some(ev) => ev,
                None => match self.queue.pop() {
                    Some((t, (local, nonce))) => (t, local, nonce),
                    None => return Stop::Done,
                },
            };
            // Tombstoned speculative push: inert, invisible to the
            // schedule (checked before the watchdog and the bound, as
            // the event never existed in the serial order).
            if nonce != 0 && self.cancelled.remove(&nonce) {
                continue;
            }
            let rank = self.warps[local].rank;
            let packed = pack(t, rank);
            if packed >= ctx.bound.load(Ordering::Relaxed) {
                // A sibling shard hit a serialization point earlier in
                // canonical order: stop speculating, keep the event.
                self.held = Some((t, local, nonce));
                return Stop::Paused;
            }
            if let Some(cap) = ctx.max_kernel_cycles {
                if t.since(ctx.start).cycles() > cap {
                    self.held = Some((t, local, nonce));
                    ctx.bound.fetch_min(packed, Ordering::Relaxed);
                    return Stop::Watchdog { packed, t };
                }
            }
            debug_assert!(
                t >= self.last_popped,
                "event time went backwards: {t} after {}",
                self.last_popped
            );
            let prev_last = self.last_popped;
            self.last_popped = t;
            used += 1;
            if journal {
                self.frames.push((
                    packed,
                    Frame::Pop {
                        t,
                        local,
                        nonce,
                        prev_last,
                    },
                ));
            }

            let warp = &mut self.warps[local];
            if warp.done {
                continue;
            }
            if warp.current.is_none() && warp.cursor < warp.end {
                warp.current = Some(ctx.arena[warp.cursor]);
                warp.cursor += 1;
                if journal {
                    self.frames.push((packed, Frame::LoadCursor { local }));
                }
            }
            let warp = &self.warps[local];
            let Some(access) = warp.current else {
                // Warp retired: start the next queued TB on its SM.
                let sm_local = warp.sm_local;
                let prev_end = self.end;
                self.warps[local].done = true;
                self.end = self.end.max(t);
                self.active[sm_local] -= 1;
                let mut started = None;
                if let Some(next) = self.sm_queues[sm_local].pop() {
                    self.active[sm_local] += 1;
                    let nonce = self.alloc_nonce(journal);
                    let next_rank = self.warps[next].rank;
                    self.queue.push_keyed(t, next_rank, (next, nonce));
                    if journal {
                        self.frames.push((packed, Frame::Push { nonce }));
                    }
                    started = Some(next);
                }
                if journal {
                    self.frames.push((
                        packed,
                        Frame::Retire {
                            local,
                            prev_end,
                            started,
                        },
                    ));
                }
                continue;
            };

            let page = access.page();
            let sm = warp.sm;
            let sm_local = warp.sm_local;
            let warp_id = warp.id;
            // Huge-page fast path (see the serial loop).
            if let Some(epoch) = ctx.gmmu.huge_translation(page.large_page(), t) {
                let (hit, op) = self.tlbs[sm_local].lookup_huge_logged(page.large_page(), epoch);
                if journal {
                    self.frames.push((packed, Frame::Tlb { sm_local, op }));
                }
                if hit {
                    let done = t + Duration::from_cycles(1) + ctx.mem_latency;
                    self.complete(ctx, packed, local, access, done);
                    continue;
                }
            }
            let generation = ctx.dir.generation(page);
            let (looked, op) = self.tlbs[sm_local].lookup_gen_logged(page, generation);
            if journal {
                self.frames.push((packed, Frame::Tlb { sm_local, op }));
            }
            match looked {
                TlbLookup::Hit => {
                    // 1-cycle lookup + device memory access.
                    let done = t + Duration::from_cycles(1) + ctx.mem_latency;
                    self.complete(ctx, packed, local, access, done);
                }
                TlbLookup::Miss => {
                    let walked = t + Duration::from_cycles(1) + ctx.walk_latency;
                    if !ctx.gmmu.is_resident(page) {
                        // Far-fault: a GMMU-serialized event. Publish
                        // the key and hand control to the courier; the
                        // event's own frames stay journaled at
                        // `packed` so they survive exactly when this
                        // fault wins the barrier.
                        ctx.bound.fetch_min(packed, Ordering::Relaxed);
                        return Stop::Fault {
                            packed,
                            fault: PendingFault {
                                t,
                                page,
                                walked,
                                local,
                                warp_id,
                            },
                        };
                    } else if let Some(ready) = ctx.gmmu.ready_time(page, walked) {
                        // In-flight migration: stall until it lands.
                        let nonce = self.alloc_nonce(journal);
                        self.queue.push_keyed(ready, rank, (local, nonce));
                        if journal {
                            self.frames.push((packed, Frame::Push { nonce }));
                        }
                    } else if let Some(epoch) = ctx.gmmu.huge_translation(page.large_page(), walked)
                    {
                        // The walk resolved a coalesced large page.
                        let op = self.tlbs[sm_local].fill_huge_logged(page.large_page(), epoch);
                        if journal {
                            self.frames.push((packed, Frame::Tlb { sm_local, op }));
                        }
                        let done = walked + ctx.mem_latency;
                        self.complete(ctx, packed, local, access, done);
                    } else {
                        let (victim, op) =
                            self.tlbs[sm_local].fill_after_miss_logged(page, generation);
                        if journal {
                            self.frames.push((packed, Frame::Tlb { sm_local, op }));
                        }
                        if let Some(victim) = victim {
                            self.log.push(LogEntry {
                                packed,
                                kind: LogKind::NoteDrop { page: victim, sm },
                            });
                            if journal {
                                self.frames.push((packed, Frame::Log));
                            }
                        }
                        self.log.push(LogEntry {
                            packed,
                            kind: LogKind::NoteFill { page, sm },
                        });
                        if journal {
                            self.frames.push((packed, Frame::Log));
                        }
                        let done = walked + ctx.mem_latency;
                        self.complete(ctx, packed, local, access, done);
                    }
                }
            }
        }
    }

    /// The completion tail shared by every satisfied access: log the
    /// `record_access` + trace entry, clear `current`, and schedule
    /// the warp's next event — the journaled mirror of the serial
    /// `complete_access` + re-push sequence.
    #[inline]
    fn complete(
        &mut self,
        ctx: &EpochCtx<'_>,
        packed: u64,
        local: usize,
        access: Access,
        done: Cycle,
    ) {
        let warp = &mut self.warps[local];
        let rank = warp.rank;
        let warp_id = warp.id;
        warp.current = None;
        self.log.push(LogEntry {
            packed,
            kind: LogKind::Access {
                page: access.page(),
                write: access.write,
                done,
                warp: warp_id,
            },
        });
        let nonce = self.alloc_nonce(ctx.journal);
        self.queue
            .push_keyed(done + ctx.compute_delay, rank, (local, nonce));
        if ctx.journal {
            self.frames.push((packed, Frame::Log));
            self.frames
                .push((packed, Frame::ClearCurrent { local, access }));
            self.frames.push((packed, Frame::Push { nonce }));
        }
    }
}

/// Replays a barrier's committed cross-shard log slice, in packed
/// order, against the real GMMU, shootdown directory, and trace — the
/// writes the serial loop would have performed inline.
pub(crate) fn apply_log(
    gmmu: &mut Gmmu,
    dir: &mut ShootdownDirectory,
    trace: &mut Option<Vec<TraceEvent>>,
    log: &mut Vec<LogEntry>,
) {
    for entry in log.drain(..) {
        match entry.kind {
            LogKind::Access {
                page,
                write,
                done,
                warp,
            } => {
                gmmu.record_access(page, write);
                if let Some(trace) = trace {
                    trace.push(TraceEvent {
                        cycle: done,
                        page,
                        warp,
                        write,
                    });
                }
            }
            LogKind::NoteFill { page, sm } => dir.note_fill(page, sm),
            LogKind::NoteDrop { page, sm } => dir.note_drop(page, sm),
        }
    }
}
