//! Wave arbitration (§3.3).
//!
//! Every cycle, at most one operation wave may be initiated (bank 0 has one
//! port). The arbiter chooses among pending read requests (one per outgoing
//! link with a packet ready) and pending write requests (one or two per
//! incoming link, each with a hard latch deadline).
//!
//! The paper's policy: "normally, higher priority is given to the outgoing
//! links, because any delay to supply data to an outgoing link leads to
//! idle time on that link, while delays to store incoming packets into the
//! buffer memory have no direct consequence." Among reads we rotate
//! round-robin for fairness; among writes we pick the earliest deadline
//! (EDF), which is what makes latch overruns impossible at the paper's
//! provisioning (experimentally verified — see the `rtl` tests).
//!
//! The alternative policies exist for the ablation benches: write priority
//! (how much output idle time does it cost?) and strict alternation.
//!
//! The pipelined models arbitrate from kept masks ([`Arbiter::decide_dense`]);
//! the slice form [`Arbiter::decide`] serves only the frozen twins. Both
//! models keep the rest of the initiation rule here too, in one
//! `Requests`: the pending writes, the output pacing, the request masks
//! and their wake calendar; a model only reports its events to it.

use simkernel::bits;
use simkernel::ids::{Cycle, PortId};

/// Which class wins when both reads and writes are pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterPolicy {
    /// Reads first (the paper's choice).
    ReadPriority,
    /// Writes first (ablation).
    WritePriority,
    /// Alternate read/write cycles when both classes are pending
    /// (ablation).
    Alternate,
}

/// A pending read request: output `port` wants to start a packet. Only
/// the frozen twins of [`crate::reference`] build these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadReq {
    /// Requesting output link.
    pub port: PortId,
}

/// A pending write request: input `port` must store its packet no later
/// than `deadline`. Only the frozen twins of [`crate::reference`] build
/// these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReq {
    /// Requesting input link.
    pub port: PortId,
    /// Last cycle at which initiation is still safe.
    pub deadline: Cycle,
}

/// The arbiter's decision for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Initiate a read wave for this output.
    Read(PortId),
    /// Initiate a write wave for this input.
    Write(PortId),
    /// Nothing to do.
    Idle,
}

/// Stateful wave arbiter.
#[derive(Debug, Clone)]
pub struct Arbiter {
    policy: ArbiterPolicy,
    rr_read: usize,
    last_was_read: bool,
}

impl Arbiter {
    /// An arbiter with the given class policy and round-robin reads.
    pub fn new(policy: ArbiterPolicy) -> Self {
        Arbiter {
            policy,
            rr_read: 0,
            last_was_read: false,
        }
    }

    /// Choose the wave to initiate this cycle.
    ///
    /// `reads` and `writes` are the pending requests; both may be empty.
    /// Write selection is always earliest-deadline-first (ties broken by
    /// port number) — deadlines are physical (latch reuse), so no policy
    /// may reorder them. Only the frozen twins of [`crate::reference`]
    /// call this form; the pipelined models go through `PacketCore::grant`.
    pub fn decide(&mut self, reads: &[ReadReq], writes: &[WriteReq]) -> Decision {
        let pick_read = |rr_read: usize| -> Option<PortId> {
            // First requesting port at or after the pointer, wrapping.
            reads.iter().map(|r| r.port).min_by_key(|p| {
                let i = p.index();
                if i >= rr_read {
                    i - rr_read
                } else {
                    // wrapped: order after the non-wrapped ones
                    i + usize::MAX / 2
                }
            })
        };
        let pick_write = || -> Option<PortId> {
            writes
                .iter()
                .min_by_key(|w| (w.deadline, w.port.index()))
                .map(|w| w.port)
        };
        self.choose(pick_read, pick_write)
    }

    /// Bit-parallel form of [`Arbiter::decide`] for the dense stepping
    /// path: requests arrive as packed machine words instead of slices.
    ///
    /// Bit `j` of `read_mask` means output `j` requests a read; bit `i`
    /// of `write_mask` means input `i` requests a write whose latch
    /// deadline is `deadlines[i]` (entries outside the mask are ignored).
    /// Decision-for-decision identical to `decide` — same round-robin
    /// wrap order, same EDF tie-break on the lowest port, same policy
    /// state updates — which the `dense_matches_scalar_*` property tests
    /// pin over randomized request sequences.
    pub fn decide_dense(
        &mut self,
        read_mask: u64,
        write_mask: u64,
        deadlines: &[Cycle],
    ) -> Decision {
        let pick_read = |rr_read: usize| -> Option<PortId> {
            if read_mask == 0 {
                return None;
            }
            // First requesting port at or after the pointer, wrapping:
            // mask off the ports below the pointer and take the lowest
            // set bit; fall back to the lowest overall when everything
            // wrapped.
            let at_or_after = read_mask & (u64::MAX.checked_shl(rr_read as u32)).unwrap_or(0);
            let port = if at_or_after != 0 {
                at_or_after.trailing_zeros()
            } else {
                read_mask.trailing_zeros()
            };
            Some(PortId(port as usize))
        };
        let pick_write = || -> Option<PortId> {
            let mut m = write_mask;
            let mut best: Option<(Cycle, usize)> = None;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                let d = deadlines[i];
                // Strict `<` keeps the lowest port on deadline ties
                // (bits iterate in ascending port order).
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, i));
                }
            }
            best.map(|(_, i)| PortId(i))
        };
        self.choose(pick_read, pick_write)
    }

    /// The class rule both forms share: try the class the policy puts
    /// first, fall back to the other, then advance the round-robin
    /// pointer past a granted read and record which class went last.
    /// `pick_read` takes the pointer; each picker runs at most once.
    #[inline]
    fn choose(
        &mut self,
        pick_read: impl FnOnce(usize) -> Option<PortId>,
        pick_write: impl FnOnce() -> Option<PortId>,
    ) -> Decision {
        let rr_read = self.rr_read;
        let read_first = match self.policy {
            ArbiterPolicy::ReadPriority => true,
            ArbiterPolicy::WritePriority => false,
            ArbiterPolicy::Alternate => !self.last_was_read,
        };
        let decision = if read_first {
            pick_read(rr_read)
                .map(Decision::Read)
                .or_else(|| pick_write().map(Decision::Write))
        } else {
            pick_write()
                .map(Decision::Write)
                .or_else(|| pick_read(rr_read).map(Decision::Read))
        }
        .unwrap_or(Decision::Idle);

        match decision {
            Decision::Read(p) => {
                self.rr_read = p.index() + 1;
                self.last_was_read = true;
            }
            Decision::Write(_) => {
                self.last_was_read = false;
            }
            Decision::Idle => {}
        }
        decision
    }
}

/// Request classes of the kept masks and wake slots: reads by output, writes by input.
pub(crate) const READS: usize = 0;
pub(crate) const WRITES: usize = 1;

/// One input's pending writes, oldest first, as `(slot, header cycle)`.
/// The headers on file are at least `S` apart (a truncated packet's entry
/// is withdrawn), and an entry leaves by `a + S + 1` — granted, withdrawn
/// or swept — so an input holds two at most; the ring has room for four.
#[derive(Debug, Clone, Copy, Default)]
struct PendingRing {
    buf: [(usize, Cycle); 4],
    head: u8,
    len: u8,
}

impl PendingRing {
    #[inline]
    fn at(&self, k: usize) -> usize {
        (self.head as usize + k) & 3
    }

    #[inline]
    fn front(&self) -> Option<(usize, Cycle)> {
        (self.len > 0).then(|| self.buf[self.head as usize])
    }

    #[inline]
    fn push(&mut self, entry: (usize, Cycle)) {
        assert!(self.len < 4, "pending ring overflow");
        self.buf[self.at(self.len as usize)] = entry;
        self.len += 1;
    }

    /// Take the `k`-th entry out; the ones before it move up one place,
    /// so removing the front moves nothing.
    #[inline]
    fn remove(&mut self, k: usize) -> (usize, Cycle) {
        let entry = self.buf[self.at(k)];
        for n in (0..k).rev() {
            self.buf[self.at(n + 1)] = self.buf[self.at(n)];
        }
        self.head = (self.head + 1) & 3;
        self.len -= 1;
        entry
    }
}

/// The initiation rule's front end, shared by both pipelined models
/// (DESIGN.md §6, "Wake calendar"): each input's pending writes and each
/// output's read pacing, the request arrays derived from them, the kept
/// masks beside those and a ring of wake slots for the starts to come.
/// A model reports events and reads the masks. At most 64 inputs.
#[derive(Debug, Clone)]
pub(crate) struct Requests {
    /// Earliest read initiation of each output's head (`Cycle::MAX` when
    /// the queue is empty or the head has no write wave yet).
    pub(crate) ready_at: Vec<Cycle>,
    /// Eligibility and latch deadline of each input's front pending
    /// write (`Cycle::MAX` when none).
    pub(crate) welig_at: Vec<Cycle>,
    pub(crate) wdead_at: Vec<Cycle>,
    /// Kept masks `[reads, writes]`: bit `p` ⇔ port `p`'s start has come.
    pub(crate) req: [u64; 2],
    /// `(S + 1).next_power_of_two()` slots: slot `t & (len - 1)` holds, as
    /// `[outputs, inputs]`, the ports whose request starts at cycle `t`.
    pub(crate) wake: Vec<[u64; 2]>,
    /// Per input: the headers latched and not yet written.
    pending: Vec<PendingRing>,
    /// Per output: the earliest cycle it may initiate its next read.
    next_init: Vec<Cycle>,
    /// Write-wave start to head readiness: 1 under cut-through, `S` not.
    ready_base: Cycle,
    /// `S`, the packet length in words.
    stages: Cycle,
}

impl Requests {
    /// No requests, for packets of `stages` words.
    pub(crate) fn new(n_in: usize, n_out: usize, stages: usize, cut_through: bool) -> Self {
        let stages = stages as Cycle;
        Requests {
            ready_at: vec![Cycle::MAX; n_out],
            welig_at: vec![Cycle::MAX; n_in],
            wdead_at: vec![Cycle::MAX; n_in],
            req: [0; 2],
            wake: vec![[0; 2]; (stages as usize + 1).next_power_of_two()],
            pending: vec![PendingRing::default(); n_in],
            next_init: vec![0; n_out],
            ready_base: if cut_through { 1 } else { stages },
            stages,
        }
    }

    /// Input `i` latched a header at `c` whose packet went to `slot`: it
    /// asks to be written from `c + 1` and must be by `c + S`.
    #[inline]
    pub(crate) fn push_write(&mut self, i: usize, slot: usize, c: Cycle) {
        self.pending[i].push((slot, c));
        if self.pending[i].len == 1 {
            self.set_write(i, c);
        }
    }

    /// Input `i`'s write was granted at `now`: its front leaves, and the
    /// next entry, if any, becomes the request. Returns the front's slot.
    #[inline]
    pub(crate) fn take_write(&mut self, i: usize, now: Cycle) -> usize {
        assert!(
            self.pending[i].len > 0,
            "arbiter granted a write with no pending request"
        );
        let (slot, _) = self.pending[i].remove(0);
        self.set_write(i, now);
        slot
    }

    /// Input `i`'s packet in `slot` was dropped before its write grant:
    /// its entry leaves, wherever it stands. False when `slot` has no
    /// entry (its write was granted already).
    pub(crate) fn withdraw_write(&mut self, i: usize, slot: usize, now: Cycle) -> bool {
        let q = &self.pending[i];
        let Some(k) = (0..q.len as usize).find(|&k| q.buf[q.at(k)].0 == slot) else {
            return false;
        };
        self.pending[i].remove(k);
        if k == 0 {
            self.set_write(i, now);
        }
        true
    }

    /// The slot of input `i`'s front pending write, taken off the ring, if
    /// its deadline `a + S` is before `c`; the overrun sweep pops to `None`.
    #[cold]
    pub(crate) fn pop_overdue(&mut self, i: usize, c: Cycle) -> Option<usize> {
        let (slot, _) = self.pending[i]
            .front()
            .filter(|&(_, a)| a + self.stages < c)?;
        self.pending[i].remove(0);
        self.set_write(i, c);
        Some(slot)
    }

    /// No input has a write pending.
    pub(crate) fn no_writes(&self) -> bool {
        self.pending.iter().all(|q| q.len == 0)
    }

    /// Input `i`'s front pending write, as `(eligible, deadline)`.
    #[inline]
    fn write_front(&self, i: usize) -> Option<(Cycle, Cycle)> {
        let front = self.pending[i].front();
        front.map(|(_, a)| (a + 1, a + self.stages))
    }

    /// The first cycle a packet whose write wave starts at `ws` can be
    /// read: `ws + 1` under cut-through, `ws + S` store-and-forward.
    #[inline]
    pub(crate) fn readable(&self, ws: Cycle) -> Cycle {
        ws + self.ready_base
    }

    /// When output `j` may read a head written from `write_start` (`None`:
    /// no head, or an unwritten one): readable, and the output free.
    #[inline]
    pub(crate) fn head_ready(&self, j: usize, write_start: Option<Cycle>) -> Cycle {
        write_start.map_or(Cycle::MAX, |ws| self.readable(ws).max(self.next_init[j]))
    }

    /// Output `j`'s queue head changed, or its write wave started: file
    /// its read request.
    #[inline]
    pub(crate) fn set_head(&mut self, j: usize, write_start: Option<Cycle>, now: Cycle) {
        self.set_read(j, self.head_ready(j, write_start), now);
    }

    /// Output `j` starts a read at `c`: its link is busy until `c + S`,
    /// when it may start the next. The caller then files the new head.
    #[inline]
    pub(crate) fn start_read(&mut self, j: usize, c: Cycle) {
        self.next_init[j] = c + self.stages;
    }

    /// May output `j` start a read at `c`?
    #[inline]
    pub(crate) fn output_free(&self, j: usize, c: Cycle) -> bool {
        c >= self.next_init[j]
    }

    /// Output `j`'s head becomes readable at `t` (`Cycle::MAX`: never).
    #[inline]
    fn set_read(&mut self, j: usize, t: Cycle, now: Cycle) {
        let old = std::mem::replace(&mut self.ready_at[j], t);
        self.reschedule::<READS>(j, old, t, now);
    }

    /// Input `i`'s write request becomes its front pending write.
    #[inline]
    fn set_write(&mut self, i: usize, now: Cycle) {
        let (t, deadline) = self.write_front(i).unwrap_or((Cycle::MAX, Cycle::MAX));
        let old = std::mem::replace(&mut self.welig_at[i], t);
        self.wdead_at[i] = deadline;
        self.reschedule::<WRITES>(i, old, t, now);
    }

    /// Move one port's entry (class `K`) from request start `old` to `t`:
    /// retract it from the mask and from slot `old` — it sits in one of
    /// them, or in neither when `old` is `Cycle::MAX` — then set the mask
    /// if `t` has come, or mark slot `t`. Every start set in cycle `now`
    /// is `<= now + S` (a header asks to be written from `a + 1`, a head
    /// is readable `1` or `S` after its write wave, an output re-initiates
    /// `S` after a read), and slot `now` may still await this cycle's
    /// [`Requests::open`]: `S + 1` slots never alias.
    #[inline]
    fn reschedule<const K: usize>(&mut self, port: usize, old: Cycle, t: Cycle, now: Cycle) {
        let m = self.wake.len() - 1;
        debug_assert!(t == Cycle::MAX || t <= now + m as Cycle);
        let bit = 1u64 << port;
        self.req[K] &= !bit;
        self.wake[old as usize & m][K] &= !bit;
        if t <= now {
            self.req[K] |= bit;
        } else if t != Cycle::MAX {
            self.wake[t as usize & m][K] |= bit;
        }
    }

    /// Wake the requests that start at cycle `c`.
    #[inline]
    pub(crate) fn open(&mut self, c: Cycle) {
        let slot = c as usize & (self.wake.len() - 1);
        let wake = &mut self.wake[slot];
        self.req[READS] |= std::mem::take(&mut wake[READS]);
        self.req[WRITES] |= std::mem::take(&mut wake[WRITES]);
    }

    /// Has a requesting write passed its latch deadline at `c`? A front is
    /// eligible before its deadline, so only the set write bits are
    /// visited.
    #[inline]
    pub(crate) fn overdue(&self, c: Cycle) -> bool {
        bits(self.req[WRITES]).fold(false, |late, i| late | (self.wdead_at[i] < c))
    }

    /// DESIGN.md §6 invariant (1), checked at the end of every executed
    /// cycle `c` of a debug build: each input's write request is its
    /// front pending write, each start in the arrays is in the mask if it
    /// has come and in its slot if not, and no other bit is set anywhere.
    /// (The read half's rescan needs the queues: the RTL runs it.)
    #[cfg(debug_assertions)]
    pub(crate) fn assert_calendar(&self, c: Cycle) {
        for i in 0..self.pending.len() {
            let kept = (self.welig_at[i], self.wdead_at[i]);
            let rescan = self.write_front(i).unwrap_or((Cycle::MAX, Cycle::MAX));
            assert_eq!(kept, rescan, "cycle {c}: input {i}'s write request");
        }
        let m = self.wake.len() - 1;
        let mut live = 0;
        for (k, at) in [&self.ready_at, &self.welig_at].into_iter().enumerate() {
            for (p, &t) in at.iter().enumerate() {
                let slot = self.wake[t as usize & m][k];
                let word = if t <= c { self.req[k] } else { slot };
                let held = t == Cycle::MAX || word >> p & 1 == 1;
                assert!(held, "cycle {c}: class {k} port {p}, due {t}, is not held");
                live += u32::from(t != Cycle::MAX);
            }
        }
        let words = self.wake.iter().chain([&self.req]).flatten();
        let set: u32 = words.map(|w| w.count_ones()).sum();
        assert_eq!(set, live, "cycle {c}: a stale bit on the wake calendar");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(p: usize) -> ReadReq {
        ReadReq { port: PortId(p) }
    }

    fn w(p: usize, d: Cycle) -> WriteReq {
        WriteReq {
            port: PortId(p),
            deadline: d,
        }
    }

    #[test]
    fn read_priority_prefers_reads() {
        let mut a = Arbiter::new(ArbiterPolicy::ReadPriority);
        assert_eq!(a.decide(&[r(1)], &[w(0, 5)]), Decision::Read(PortId(1)));
        assert_eq!(a.decide(&[], &[w(0, 5)]), Decision::Write(PortId(0)));
        assert_eq!(a.decide(&[], &[]), Decision::Idle);
    }

    #[test]
    fn write_priority_prefers_writes() {
        let mut a = Arbiter::new(ArbiterPolicy::WritePriority);
        assert_eq!(a.decide(&[r(1)], &[w(0, 5)]), Decision::Write(PortId(0)));
        assert_eq!(a.decide(&[r(1)], &[]), Decision::Read(PortId(1)));
    }

    #[test]
    fn writes_are_edf() {
        let mut a = Arbiter::new(ArbiterPolicy::ReadPriority);
        let d = a.decide(&[], &[w(0, 9), w(1, 3), w(2, 7)]);
        assert_eq!(d, Decision::Write(PortId(1)));
        // Tie on deadline → lowest port.
        let d = a.decide(&[], &[w(2, 3), w(1, 3)]);
        assert_eq!(d, Decision::Write(PortId(1)));
    }

    #[test]
    fn reads_rotate_round_robin() {
        let mut a = Arbiter::new(ArbiterPolicy::ReadPriority);
        let all = [r(0), r(1), r(2)];
        assert_eq!(a.decide(&all, &[]), Decision::Read(PortId(0)));
        assert_eq!(a.decide(&all, &[]), Decision::Read(PortId(1)));
        assert_eq!(a.decide(&all, &[]), Decision::Read(PortId(2)));
        // Pointer wraps.
        assert_eq!(a.decide(&all, &[]), Decision::Read(PortId(0)));
    }

    #[test]
    fn round_robin_skips_idle_ports() {
        let mut a = Arbiter::new(ArbiterPolicy::ReadPriority);
        assert_eq!(a.decide(&[r(0), r(2)], &[]), Decision::Read(PortId(0)));
        // Pointer now at 1; port 1 not requesting → 2 wins.
        assert_eq!(a.decide(&[r(0), r(2)], &[]), Decision::Read(PortId(2)));
        assert_eq!(a.decide(&[r(0), r(2)], &[]), Decision::Read(PortId(0)));
    }

    #[test]
    fn alternate_interleaves_classes() {
        let mut a = Arbiter::new(ArbiterPolicy::Alternate);
        let reads = [r(0)];
        let writes = [w(1, 99)];
        let d1 = a.decide(&reads, &writes);
        let d2 = a.decide(&reads, &writes);
        let d3 = a.decide(&reads, &writes);
        assert_ne!(
            std::mem::discriminant(&d1),
            std::mem::discriminant(&d2),
            "alternation must switch class"
        );
        assert_eq!(std::mem::discriminant(&d1), std::mem::discriminant(&d3));
    }

    #[test]
    fn alternate_falls_back_when_one_class_empty() {
        let mut a = Arbiter::new(ArbiterPolicy::Alternate);
        assert_eq!(a.decide(&[r(0)], &[]), Decision::Read(PortId(0)));
        assert_eq!(a.decide(&[r(0)], &[]), Decision::Read(PortId(0)));
    }

    /// Drive a scalar and a dense arbiter through the same randomized
    /// request sequence and assert every decision matches. The sequence
    /// matters (rr pointer and alternation state evolve), so this is a
    /// stateful equivalence check, not a single-shot one.
    fn check_dense_matches_scalar(policy: ArbiterPolicy, seed: u64) {
        let n = 7usize; // odd, off power-of-two, exercises rr wrap
        let mut scalar = Arbiter::new(policy);
        let mut dense = Arbiter::new(policy);
        let mut rng = simkernel::SplitMix64::new(seed);
        for step in 0..2_000u64 {
            let read_mask = rng.next_u64() & rng.next_u64() & ((1u64 << n) - 1);
            let write_mask = rng.next_u64() & rng.next_u64() & ((1u64 << n) - 1);
            let mut deadlines = [Cycle::MAX; 7];
            let reads: Vec<ReadReq> = (0..n).filter(|j| read_mask >> j & 1 != 0).map(r).collect();
            let writes: Vec<WriteReq> = (0..n)
                .filter(|i| write_mask >> i & 1 != 0)
                .map(|i| {
                    // Small deadline range forces frequent EDF ties.
                    let d = step + rng.below(3);
                    deadlines[i] = d;
                    w(i, d)
                })
                .collect();
            let ds = scalar.decide(&reads, &writes);
            let dd = dense.decide_dense(read_mask, write_mask, &deadlines);
            assert_eq!(
                ds, dd,
                "seed {seed} step {step}: scalar {ds:?} != dense {dd:?} \
                 (reads {read_mask:#x}, writes {write_mask:#x})"
            );
        }
    }

    #[test]
    fn dense_matches_scalar_all_policies() {
        for policy in [
            ArbiterPolicy::ReadPriority,
            ArbiterPolicy::WritePriority,
            ArbiterPolicy::Alternate,
        ] {
            for seed in 0..4u64 {
                check_dense_matches_scalar(policy, 0xA5B + seed);
            }
        }
    }

    /// Input `i`'s pending writes as `(slot, header cycle)`, front first.
    fn entries(r: &Requests, i: usize) -> Vec<(usize, Cycle)> {
        let q = &r.pending[i];
        (0..q.len as usize).map(|k| q.buf[q.at(k)]).collect()
    }

    /// Input `i`'s write request: `(eligible, deadline, requesting)`.
    fn write_request(r: &Requests, i: usize) -> (Cycle, Cycle, bool) {
        (r.welig_at[i], r.wdead_at[i], r.req[WRITES] >> i & 1 == 1)
    }

    #[test]
    fn withdrawing_a_middle_write_keeps_the_order_and_the_request() {
        // S = 4. Three headers on input 0 at cycles 0, 1 and 2; the
        // front's request wakes at 1.
        let mut r = Requests::new(2, 2, 4, true);
        for (slot, c) in [(10, 0), (11, 1), (12, 2)] {
            r.open(c);
            r.push_write(0, slot, c);
        }
        let before = (write_request(&r, 0), r.wake.clone());
        assert!(r.withdraw_write(0, 11, 2));
        assert_eq!(entries(&r, 0), [(10, 0), (12, 2)]);
        assert_eq!((write_request(&r, 0), r.wake.clone()), before);
        assert_eq!(before.0, (1, 4, true), "the front asks from 1, by 4");
        assert!(!r.withdraw_write(0, 11, 2), "no entry left for slot 11");
        assert_eq!((r.take_write(0, 3), r.take_write(0, 3)), (10, 12));
        assert!(r.no_writes());
    }

    #[test]
    fn withdrawing_the_front_moves_the_request_also_after_a_wrap() {
        // S = 4. Slots 0..4 fill the ring, two grants free its first two
        // places, and slots 4 and 5 wrap into them.
        let mut r = Requests::new(1, 1, 4, true);
        for slot in 0..4 {
            r.push_write(0, slot, slot as Cycle);
        }
        assert_eq!((r.take_write(0, 3), r.take_write(0, 3)), (0, 1));
        r.push_write(0, 4, 4);
        r.push_write(0, 5, 5);
        assert_eq!(entries(&r, 0), [(2, 2), (3, 3), (4, 4), (5, 5)]);
        assert_eq!(write_request(&r, 0), (3, 6, true));
        assert!(r.withdraw_write(0, 2, 5));
        assert_eq!(entries(&r, 0), [(3, 3), (4, 4), (5, 5)]);
        assert_eq!(write_request(&r, 0), (4, 7, true));
        // A middle entry in a wrapped place, then the front again.
        assert!(r.withdraw_write(0, 4, 5));
        assert_eq!(entries(&r, 0), [(3, 3), (5, 5)]);
        assert!(r.withdraw_write(0, 3, 5));
        assert_eq!(entries(&r, 0), [(5, 5)]);
        // Eligible at 6, after `now`: the request waits in slot 6.
        assert_eq!(write_request(&r, 0), (6, 9, false));
        assert_eq!(r.wake[6], [0, 1]);
        assert!(r.withdraw_write(0, 5, 5));
        assert_eq!(write_request(&r, 0), (Cycle::MAX, Cycle::MAX, false));
        assert_eq!(r.wake[6], [0, 0], "the wake was retracted");
    }

    #[test]
    fn pop_overdue_takes_only_fronts_past_their_deadline() {
        // S = 4: headers at 0 and 4 on input 0 (deadlines 4 and 8), one
        // at 1 on input 1 (deadline 5).
        let mut r = Requests::new(2, 2, 4, true);
        r.push_write(0, 7, 0);
        r.push_write(1, 8, 1);
        r.push_write(0, 9, 4);
        assert_eq!(
            r.pop_overdue(0, 4),
            None,
            "a deadline of 4 still holds at 4"
        );
        assert_eq!(r.pop_overdue(1, 5), None);
        assert_eq!(r.pop_overdue(0, 5), Some(7));
        assert_eq!(r.pop_overdue(0, 5), None, "the next front is due by 8");
        assert_eq!(entries(&r, 0), [(9, 4)]);
        assert_eq!(write_request(&r, 0), (5, 8, true));
        assert_eq!(r.pop_overdue(1, 6), Some(8));
        assert_eq!(write_request(&r, 1), (Cycle::MAX, Cycle::MAX, false));
        assert_eq!(r.pop_overdue(1, 6), None, "nothing pending");
    }

    #[test]
    #[should_panic(expected = "pending ring overflow")]
    fn a_fifth_pending_write_overflows_the_ring() {
        let mut r = Requests::new(1, 1, 4, true);
        for slot in 0..5 {
            r.push_write(0, slot, 0);
        }
    }

    #[test]
    fn dense_rr_pointer_at_64_wraps_cleanly() {
        // After granting port 63 the pointer sits at 64; the "at or
        // after" shift must not overflow into UB or a wrong pick.
        let mut a = Arbiter::new(ArbiterPolicy::ReadPriority);
        let top = 1u64 << 63;
        assert_eq!(a.decide_dense(top, 0, &[]), Decision::Read(PortId(63)));
        assert_eq!(a.decide_dense(top | 1, 0, &[]), Decision::Read(PortId(0)));
    }
}
