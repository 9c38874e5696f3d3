//! The packet control both pipelined models run (DESIGN.md §6).
//!
//! [`PacketCore`] owns the packet store, the request front end with its
//! output pacing, the arbiter and the control plane. A model reports its
//! arrivals, takes one [`Grant`] per cycle and carries it out: the
//! cell-level model logs a departure, the word-level model launches a
//! wave. What only the word-level model has — truncation, a read the
//! integrity scrub spends, the degraded-mode shed — are calls the
//! cell-level model never makes; what differs per packet is read off the
//! store tag ([`Tag`]).

use crate::arbiter::{Arbiter, Decision, Requests};
use crate::bufmgr::{BufferManager, Entry};
use crate::config::SwitchConfig;
use crate::ctl::{Arrival, ControlPlane};
use crate::recovery::RecoveryConfig;
use simkernel::bits;
use simkernel::ids::Cycle;
use telemetry::{ArbOutcome, DropReason, ProbeEvent};

/// What the control reads off a model's per-packet store tag.
pub(crate) trait Tag: Copy + Default {
    /// May a read fuse onto this packet's write wave?
    fn may_fuse(&self) -> bool;
    /// Does a staggered cut-through read emit `StaggeredStart` before
    /// `CutThrough`? The models' pinned probe streams disagree.
    const STAGGER_FIRST: bool;
}

/// Output `j`'s head, `slot`, popped for a read wave (`p` after the pop,
/// `freed` if it was the last copy): the model launches it
/// ([`PacketCore::start_read`]) or spends it ([`PacketCore::spend_read`]).
pub(crate) struct ReadGrant<T> {
    pub j: usize,
    pub slot: usize,
    pub p: Entry<T>,
    pub freed: bool,
}

/// Input `i`'s write wave into `slot`, started, with the output whose read
/// fused onto it.
pub(crate) struct WriteGrant<T> {
    pub i: usize,
    pub slot: usize,
    pub p: Entry<T>,
    pub fused: Option<usize>,
}

/// One cycle's initiations. Bank 0 has one port, so at most one is set
/// today; a memory split in two halves (§3.5) could grant both.
#[derive(Default)]
pub(crate) struct Grant<T> {
    pub read: Option<ReadGrant<T>>,
    pub write: Option<WriteGrant<T>>,
}

/// The packet control of one switch.
#[derive(Debug)]
pub(crate) struct PacketCore<T> {
    pub(crate) store: BufferManager<T>,
    pub(crate) requests: Requests,
    arb: Arbiter,
    pub(crate) ctl: ControlPlane,
    /// `S`, the packet length in words.
    stages: Cycle,
    fuse: bool,
}

impl<T: Tag> PacketCore<T> {
    /// The core for `cfg`; `recovery` and `natural_settle` arm the control
    /// plane's recovery ladder.
    pub(crate) fn new(cfg: &SwitchConfig, recovery: RecoveryConfig, natural_settle: u64) -> Self {
        let stages = cfg.stages();
        PacketCore {
            store: BufferManager::new(cfg.slots, cfg.n_out),
            requests: Requests::new(cfg.n_in, cfg.n_out, stages, cfg.cut_through),
            arb: Arbiter::new(cfg.arbiter),
            ctl: ControlPlane::new(cfg.n_out, stages, cfg.policy, recovery, natural_settle),
            stages: stages as Cycle,
            fuse: cfg.fused_cut_through,
        }
    }

    /// May an arrival for output `dst` take a slot at `c`? The sharing
    /// policy decides first (and may push a packet out), then the free
    /// list; a refusal is charged and emitted naming `id`.
    #[inline]
    pub(crate) fn admit(&mut self, c: Cycle, id: u64, dst: usize) -> bool {
        // The static pool never consults the policy, and the call stays
        // out of line: inlined, the policy path costs the dense loop 3–5 %
        // (the dense floors of `expt bench`).
        if !self.ctl.policy_static() && !self.admit_by_policy(c, id, dst) {
            return false;
        }
        if self.store.full() {
            self.ctl.drop(c, id, DropReason::BufferFull);
            return false;
        }
        true
    }

    /// The policy's verdict; a preemption evicts the rearmost evictable
    /// packet of the victim queue ([`BufferManager::rearmost_evictable`]).
    #[cold]
    fn admit_by_policy(&mut self, c: Cycle, id: u64, dst: usize) -> bool {
        let (s, occupancy, capacity) = (self.stages, self.store.occupancy(), self.store.slots);
        let mut moved_heads = 0;
        let admitted = self.ctl.admit(
            Arrival {
                c,
                id,
                dst,
                occupancy,
                capacity,
            },
            &mut self.store,
            |store, j| store.queue_len(j),
            |store, victim| {
                let e = store.release(store.rearmost_evictable(victim, c, s)?);
                moved_heads = e.dsts;
                Some(e.id)
            },
        );
        self.refresh_all(moved_heads, c);
        admitted
    }

    /// Store an admitted packet whose header input `i` latched at `c` and
    /// file its write request (an unwritten head moves no read request).
    #[inline]
    pub(crate) fn enqueue(&mut self, id: u64, i: usize, dsts: u32, c: Cycle, tag: T) -> usize {
        let slot = self.store.alloc(id, i, dsts, c, tag);
        self.requests.push_write(i, slot, c);
        slot
    }

    /// Input `i`'s packet in `slot` was truncated: if its write is not
    /// granted yet, take it back and free the slot (true).
    pub(crate) fn withdraw_write(&mut self, c: Cycle, i: usize, slot: usize) -> bool {
        if !self.requests.withdraw_write(i, slot, c) {
            return false;
        }
        let e = self.store.release(slot);
        self.ctl.drop(c, e.id, DropReason::Truncated);
        self.refresh_all(e.dsts, c);
        true
    }

    /// Cycle `c`'s initiations: wake the requests that start now, sweep
    /// the writes past their latch deadline, and let the arbiter pick from
    /// the masks as they stand (with none it is not called, so its state
    /// does not move).
    #[inline]
    pub(crate) fn grant<const PROBED: bool>(&mut self, c: Cycle) -> Grant<T> {
        self.requests.open(c);
        if self.requests.overdue(c) {
            self.sweep_overdue(c);
        }
        let mut g = Grant::default();
        let [reads, writes] = self.requests.req;
        if reads | writes == 0 {
            return g;
        }
        // §3.2 collision: the single initiation port must stagger one of
        // the contenders to a later cycle (counted without a branch).
        self.ctl.counters.rw_collisions += u64::from(reads != 0 && writes != 0);
        let decision = self
            .arb
            .decide_dense(reads, writes, &self.requests.wdead_at);
        if PROBED {
            self.probe_arbitration(c, reads, writes, decision);
        }
        match decision {
            Decision::Read(j) => {
                let j = j.index();
                let (slot, p, freed) = self.store.pop(j);
                g.read = Some(ReadGrant { j, slot, p, freed });
            }
            Decision::Write(i) => g.write = Some(self.start_write::<PROBED>(c, i.index())),
            Decision::Idle => unreachable!(
                "the arbiter idled on requests: with a mask non-empty its picker \
                 for that class always answers, so `choose` cannot return `Idle`"
            ),
        }
        g
    }

    /// Start input `i`'s write wave at `c`. The first idle destination
    /// (ascending) that the packet heads takes its read off the write bus
    /// (§3.3): a multicast fuses one copy at most, the rest read later.
    #[inline]
    fn start_write<const PROBED: bool>(&mut self, c: Cycle, i: usize) -> WriteGrant<T> {
        let slot = self.requests.take_write(i, c);
        self.store.start_write(slot, c);
        if PROBED {
            self.ctl.write_wave(c, i, slot);
        }
        let p = *self.store.entry(slot);
        // The write wave makes the packet readable where it heads a queue
        // (no other request moves), and a fused copy moves that head on.
        let store = &self.store;
        let heads = bits(p.dsts)
            .filter(|&j| store.head(j) == Some(slot))
            .fold(0, |m, j| m | 1 << j);
        let (fusable, requests) = (self.fuse && p.tag.may_fuse(), &self.requests);
        let fused = bits(heads).find(|&j| fusable && requests.output_free(j, c));
        if let Some(j) = fused {
            let (slot, p, freed) = self.store.pop(j);
            self.launch::<PROBED>(c, &ReadGrant { j, slot, p, freed }, true);
            self.ctl.counters.fused_reads += 1;
        }
        self.refresh_all(heads, c);
        WriteGrant { i, slot, p, fused }
    }

    /// Launch a granted read.
    #[inline]
    pub(crate) fn start_read<const PROBED: bool>(&mut self, c: Cycle, r: &ReadGrant<T>) {
        self.launch::<PROBED>(c, r, false);
        self.refresh(r.j, c);
    }

    /// Detect-and-drop: a granted read's initiation slot is spent, no wave
    /// launches and the output stays free for its next head. Multicast
    /// copies each come here; the drop counts once, when the slot frees.
    pub(crate) fn spend_read(&mut self, c: Cycle, r: &ReadGrant<T>, why: DropReason) {
        if r.freed {
            self.ctl.drop(c, r.p.id, why);
        }
        self.refresh(r.j, c);
    }

    /// Output `r.j` reads at `c`: its link is paced, and the policy hears
    /// the birth-to-read delay (BShare's queueing signal).
    // Forced, as is `refresh_all`'s: with `#[inline]` alone both were
    // emitted out of line, one call per read or write, and `rtl_dense`
    // ran ≈ 4 % slower (2-core x86 host, ten alternating pairs).
    #[inline(always)]
    fn launch<const PROBED: bool>(&mut self, c: Cycle, r: &ReadGrant<T>, fused: bool) {
        if PROBED {
            self.probe_read(c, r, fused);
        }
        self.ctl.on_read(r.j, c - r.p.birth);
        self.requests.start_read(r.j, c);
    }

    /// Telemetry for a read initiation (probed instantiation only).
    #[cold]
    fn probe_read(&self, c: Cycle, r: &ReadGrant<T>, fused: bool) {
        let (j, id) = (r.j, r.p.id);
        let ws = self.store.write_start(r.slot).unwrap_or(c);
        self.ctl.read_wave(c, j, r.slot, fused);
        // Cut-through: the read overlaps the write wave still depositing
        // the packet. §3.4 stagger: an unfused read later than the
        // packet's earliest opportunity lost initiation slots.
        let cut = fused || c < ws + self.stages;
        let staggered = !fused && c > self.requests.readable(ws);
        let stagger = ProbeEvent::StaggeredStart { output: j, id };
        if T::STAGGER_FIRST && staggered {
            self.ctl.emit(c, stagger);
        }
        if cut {
            self.ctl.cut_through(c, j, id, fused);
        }
        if !T::STAGGER_FIRST && staggered {
            self.ctl.emit(c, stagger);
        }
    }

    /// Telemetry for one arbitration (probed instantiation only).
    fn probe_arbitration(&self, c: Cycle, reads: u64, writes: u64, decision: Decision) {
        let outcome = match decision {
            Decision::Read(_) => ArbOutcome::Read,
            Decision::Write(_) => ArbOutcome::Write,
            Decision::Idle => ArbOutcome::Idle,
        };
        let (reads, writes) = (reads.count_ones() as usize, writes.count_ones() as usize);
        let event = ProbeEvent::Arbitration {
            reads,
            writes,
            outcome,
        };
        self.ctl.emit(c, event);
    }

    /// The latch-overrun sweep: drop each pending write past its deadline
    /// `a + S`, with the read requests its removal moves. Unreachable at
    /// the paper's provisioning — in the `S` cycles a write may wait, reads
    /// take at most `n_out` initiation slots and earlier-deadline writes
    /// (EDF) at most `n_in − 1`, so `S − 1` competitors — and counted, so a
    /// policy that breaks the argument fails tests loudly.
    #[cold]
    fn sweep_overdue(&mut self, c: Cycle) {
        for i in 0..self.requests.welig_at.len() {
            while let Some(slot) = self.requests.pop_overdue(i, c) {
                let e = self.store.release(slot);
                self.ctl.drop(c, e.id, DropReason::LatchOverrun);
                self.refresh_all(e.dsts, c);
            }
        }
    }

    /// Output `j`'s queue head changed, or its write wave started: file
    /// the head's write start with `Requests`.
    #[inline]
    fn refresh(&mut self, j: usize, now: Cycle) {
        let ws = self.store.head_write_start(j);
        self.requests.set_head(j, ws, now);
    }

    #[inline(always)]
    fn refresh_all(&mut self, outputs: u32, now: Cycle) {
        for j in bits(outputs) {
            self.refresh(j, now);
        }
    }

    /// The request half of a model's `Horizon::next_event`: `now` while a
    /// request stands, else the earliest start on file, read off the
    /// arrays (the ring is indexed by cycle, not ordered; `Cycle::MAX`:
    /// none). Two plain loops: a `fold` cost `behavioral_loads` 7–10 %.
    #[inline]
    pub(crate) fn next_request(&self, now: Cycle) -> Cycle {
        if self.requests.req != [0; 2] {
            return now;
        }
        let mut ev = Cycle::MAX;
        for &e in &self.requests.welig_at {
            ev = ev.min(e);
        }
        for &r in &self.requests.ready_at {
            ev = ev.min(r);
        }
        ev
    }

    /// The kept read requests equal a rescan of the queue heads, and the
    /// wake calendar holds every request (DESIGN.md §6 invariant (1));
    /// run after every executed cycle of a debug build.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_holds(&self, c: Cycle) {
        for j in 0..self.requests.ready_at.len() {
            let ws = self.store.head_write_start(j);
            let rescan = self.requests.head_ready(j, ws);
            assert_eq!(
                self.requests.ready_at[j], rescan,
                "cycle {c}: output {j}'s read"
            );
        }
        self.requests.assert_calendar(c);
    }
}
