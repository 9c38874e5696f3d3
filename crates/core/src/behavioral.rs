//! Cell-level behavioral model of the pipelined shared-buffer switch.
//!
//! The word-level model's packet control (`sched::PacketCore`, DESIGN.md §6)
//! without the words: the same store, requests, arbiter and admission
//! decide every initiation, and this model only logs each read as a
//! departure, so a million-cycle statistical run costs microseconds per
//! thousand cycles instead of full bank sweeps. Experiments E3/E6/E15 run
//! on this model; an integration test pins its departure timing to the
//! RTL model's, cycle for cycle, on randomized workloads.
//!
//! ## Model of time
//!
//! The clock is the word clock of the RTL model. A packet is `S = n_in +
//! n_out` words; a packet arriving on input `i` occupies that link for
//! cycles `[a, a+S-1]`; a packet departing on output `j` occupies it for
//! `[rs+1, rs+S]` where `rs` is its read-wave initiation cycle.
//!
//! ## Dead time costs nothing
//!
//! The core keeps its requests on a wake calendar, so a cycle in which
//! nothing is due costs a calendar read and two compares at any port
//! count, and link pacing is a comparison (`free_at`). A tail leaving
//! decides nothing either: it leaves `S` cycles after its read wave
//! began (§3.3–3.4), so the event horizon names only the core's requests
//! and quiescence, and a fast-forward jump replays the tails it crosses
//! — the `departed` counter, the `Departed` probe event at the tail's
//! own cycle, the log entry. A driver that acts on a departure in its
//! cycle bounds its jump by [`BehavioralSwitch::next_tail`]. The scalar twin
//! ([`crate::reference::BehavioralSwitchRef`]) pins departures, counters
//! and probe streams byte-identical to the pre-rework model. One word per
//! mask: [`BehavioralSwitch::new`] rejects more than 64 inputs. A packet
//! may carry a payload `P`, kept by store slot and handed back with its
//! departure (§3.3: a packet is stored once, and leaves as itself); a
//! fabric element's cells ride here, and `P = ()` costs nothing.

use crate::bufmgr::Entry;
use crate::config::SwitchConfig;
use crate::recovery::RecoveryConfig;
use crate::sched::{PacketCore, Tag};
use simkernel::ids::Cycle;
use telemetry::ProbeEvent;

/// A departed packet, as reported by the behavioral model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BehavioralDeparture {
    /// Packet id.
    pub id: u64,
    /// Input of arrival.
    pub input: usize,
    /// Output of departure.
    pub output: usize,
    /// Cycle the header arrived.
    pub birth: Cycle,
    /// Cycle the read wave initiated (first word on the wire at `rs+1`).
    pub read_start: Cycle,
    /// Cycle the tail word was transmitted (`rs + S`).
    pub done: Cycle,
    /// True if, at header arrival, the destination output was idle and
    /// its queue empty — a pure cut-through candidate. §3.4's staggered-
    /// initiation analysis applies exactly to these packets: any delay
    /// beyond `read_start = birth + 1` came from losing initiation slots
    /// to other waves, not from ordinary output queueing.
    pub output_was_idle: bool,
}

impl BehavioralDeparture {
    /// Cut-through latency: first word out minus header in.
    /// The uncontended minimum is 2 (write wave at `a+1`, fused read).
    pub fn head_latency(&self) -> u64 {
        self.read_start + 1 - self.birth
    }
}

/// The tag is `output_was_idle`; every packet may fuse.
impl Tag for bool {
    fn may_fuse(&self) -> bool {
        true
    }
    const STAGGER_FIRST: bool = false;
}

/// The behavioral switch, each packet carrying a payload `P`.
#[derive(Debug)]
pub struct BehavioralSwitch<P: Copy = ()> {
    cfg: SwitchConfig,
    stages: usize,
    /// The packet control (store, requests, arbiter, control plane).
    /// There are no memory words here, so its recovery ladder stays
    /// disarmed.
    core: PacketCore<bool>,
    /// The payload of the packet in each store slot.
    payloads: Vec<P>,
    /// Per-input: first cycle the link can carry a new header (`a + S`
    /// for the last header at `a`).
    free_at: Vec<Cycle>,
    /// Maximum of `free_at` — the last header's `a + S`, since cycles
    /// only grow.
    links_free_at: Cycle,
    /// Earliest `done` cycle among in-flight transmissions (`Cycle::MAX`
    /// when none).
    tx_next_done: Cycle,
    cycle: Cycle,
    /// Packets accepted so far; the next one's id is `accepted + 1`.
    accepted: u64,
    /// Every departure, written once at read initiation. One initiation
    /// per cycle and `done = rs + S` make done cycles strictly increasing
    /// in push order, so `departures[..committed]` is exactly the
    /// completed set and `departures[committed..]` the in-flight
    /// transmissions, in completion order.
    departures: Vec<BehavioralDeparture>,
    /// The payload of each of `departures`, index for index.
    carried: Vec<P>,
    /// Departures whose tail word has been transmitted.
    committed: usize,
    /// Index into `departures` where this cycle's completions start —
    /// `tick` returns `&departures[dep_mark..committed]`.
    dep_mark: usize,
}

impl BehavioralSwitch {
    /// Build from a configuration (same struct as the RTL model).
    pub fn new(cfg: SwitchConfig) -> Self {
        Self::carrying(cfg)
    }

    /// Advance one cycle. `arrivals[i] = Some(dst)` offers a new packet
    /// header on input `i` (only when [`BehavioralSwitch::input_free`];
    /// offering mid-packet panics — the caller owns link pacing, exactly
    /// as with the RTL model). `id` tagging is internal.
    ///
    /// Returns the packets whose tail word completed this cycle. The
    /// slice borrows internal scratch and is valid until the next tick.
    pub fn tick(&mut self, arrivals: &[Option<usize>]) -> &[BehavioralDeparture] {
        assert_eq!(arrivals.len(), self.cfg.n_in);
        let offered = arrivals.iter().enumerate();
        self.tick_carrying(offered.filter_map(|(i, d)| Some((i, (*d)?, ()))))
    }

    /// Like [`BehavioralSwitch::tick`] but arrivals carry destination
    /// bitmasks (multicast parity with the RTL model).
    pub fn tick_masks(&mut self, arrivals: &[Option<u32>]) -> &[BehavioralDeparture] {
        assert_eq!(arrivals.len(), self.cfg.n_in);
        let offered = arrivals.iter().enumerate();
        self.dispatch_advance(offered.filter_map(|(i, m)| Some((i, (*m)?, ()))));
        &self.departures[self.dep_mark..self.committed]
    }
}

impl<P: Copy> BehavioralSwitch<P> {
    /// Build from a configuration, each packet carrying a payload `P`.
    pub fn carrying(cfg: SwitchConfig) -> Self {
        cfg.validate();
        // The kept request masks hold one bit per port (`validate` caps
        // `n_out` at 32).
        assert!(
            cfg.n_in <= 64,
            "the cell-level model keeps its write requests in one u64: \
             at most 64 inputs, not {}",
            cfg.n_in
        );
        BehavioralSwitch {
            stages: cfg.stages(),
            core: PacketCore::new(&cfg, RecoveryConfig::default(), 0),
            payloads: Vec::new(),
            free_at: vec![0; cfg.n_in],
            links_free_at: 0,
            tx_next_done: Cycle::MAX,
            cycle: 0,
            accepted: 0,
            departures: Vec::new(),
            carried: Vec::new(),
            committed: 0,
            dep_mark: 0,
            cfg,
        }
    }

    /// Packet slots currently occupied.
    pub fn occupancy(&self) -> usize {
        self.core.store.occupancy()
    }

    /// Packet size in words (the quantum, `n_in + n_out`).
    pub fn packet_words(&self) -> usize {
        self.stages
    }

    /// True when an arrival can be offered on input `i` this cycle (the
    /// link is not mid-packet).
    pub fn input_free(&self, i: usize) -> bool {
        self.cycle >= self.free_at[i]
    }

    /// Packets queued for output `j` whose read has not begun.
    pub fn queue_len(&self, j: usize) -> usize {
        self.core.store.queue_len(j)
    }

    /// Like [`BehavioralSwitch::tick`], offering `(input, dst, payload)`
    /// for each arrival, in ascending input order; each departure's
    /// payload is read off [`BehavioralSwitch::carried`].
    pub fn tick_carrying(
        &mut self,
        arrivals: impl Iterator<Item = (usize, usize, P)>,
    ) -> &[BehavioralDeparture] {
        let n_out = self.cfg.n_out;
        self.dispatch_advance(arrivals.map(|(i, d, p)| {
            // Before the shift: in a release build `1 << 35` wraps to
            // `1 << 3` and the packet would leave on output 3.
            assert!(
                d < n_out,
                "input {i}: destination {d} out of range (n_out = {n_out})"
            );
            (i, 1u32 << d, p)
        }));
        &self.departures[self.dep_mark..self.committed]
    }

    /// Monomorphization split: the probe is attached once (or never),
    /// so the per-cycle kernel is compiled twice — with every call that
    /// only emits folded away, and with them live — and the `PROBED`
    /// branch is taken once per entry instead of several times per cycle.
    /// What also counts (`departed`, `drop`) is called in both, and pays
    /// the control plane's one predictable branch per packet.
    /// `arrivals` yields `(input, destination mask, payload)` in ascending
    /// input order, so every tick shares the kernel without a converted
    /// copy.
    #[inline]
    fn dispatch_advance(&mut self, arrivals: impl Iterator<Item = (usize, u32, P)>) {
        if self.core.ctl.probed() {
            self.advance::<true>(arrivals);
        } else {
            self.advance::<false>(arrivals);
        }
    }

    /// One cycle of the model; this cycle's completed departures are
    /// `departures[dep_mark..committed]` afterwards.
    #[inline]
    fn advance<const PROBED: bool>(&mut self, arrivals: impl Iterator<Item = (usize, u32, P)>) {
        let c = self.cycle;
        let s = self.stages as Cycle;
        self.dep_mark = self.committed;

        // 1. Completed transmission.
        self.complete_tx(c);

        // 2. Arrivals.
        for (i, mask, payload) in arrivals {
            assert!(
                c >= self.free_at[i],
                "arrival offered mid-packet on input {i}"
            );
            let excess = mask.checked_shr(self.cfg.n_out as u32).unwrap_or(0);
            assert!(mask != 0 && excess == 0, "bad destination mask {mask:#x}");
            self.free_at[i] = c + s;
            self.links_free_at = c + s;
            let primary = mask.trailing_zeros() as usize;
            // Every offered header counts as arrived (the RTL's
            // convention); only an accepted one is announced, below.
            // A refusal precedes the id, which numbers accepted
            // packets: its drop event says 0, "no id".
            self.core.ctl.counters.arrived += 1;
            if !self.core.admit(c, 0, primary) {
                continue;
            }
            self.accepted += 1;
            let id = self.accepted;
            let output_was_idle = mask.count_ones() == 1
                && self.core.store.queue_len(primary) == 0
                && self.core.requests.output_free(primary, c + 1);
            if PROBED {
                let (input, dst) = (i, primary);
                let event = ProbeEvent::HeaderArrived { input, id, dst };
                self.core.ctl.emit(c, event);
            }
            let slot = self.core.enqueue(id, i, mask, c, output_was_idle);
            // The store hands out a freed slot or the next new one.
            match self.payloads.get_mut(slot) {
                Some(p) => *p = payload,
                None => self.payloads.push(payload),
            }
        }

        self.close_cycle::<PROBED>(c);
    }

    /// Run `n` input-idle cycles as one fused batch — the kernel's
    /// multi-cycle entry point. Identical observable behavior to `n`
    /// calls of [`BehavioralSwitch::tick`] with all-`None` arrivals (same
    /// grants, probes, counters, departures) without the per-tick wrapper
    /// and the arrival scan; link pacing is a comparison against
    /// `free_at`, so there is nothing to replay for it.
    ///
    /// Afterwards this batch's completed departures are
    /// `departures[dep_mark..committed]` (also the window
    /// [`BehavioralSwitch::tick`] would return).
    pub fn tick_idle_batch(&mut self, n: u64) {
        if self.core.ctl.probed() {
            self.idle_batch_impl::<true>(n);
        } else {
            self.idle_batch_impl::<false>(n);
        }
    }

    fn idle_batch_impl<const PROBED: bool>(&mut self, n: u64) {
        self.dep_mark = self.committed;
        let end = self.cycle + n;
        while self.cycle < end {
            let c = self.cycle;
            self.complete_tx(c);
            self.close_cycle::<PROBED>(c);
        }
    }

    /// The rest of cycle `c` once completions and arrivals are in: the
    /// core's grant, and a departure logged for the read it starts. With
    /// nothing due and nothing requesting this is one calendar read and
    /// two compares, whatever the port count.
    #[inline]
    fn close_cycle<const PROBED: bool>(&mut self, c: Cycle) {
        let g = self.core.grant::<PROBED>(c);
        if let Some(r) = g.read {
            self.core.start_read::<PROBED>(c, &r);
            self.depart(c, r.j, r.slot, &r.p);
        }
        if let Some(w) = g.write {
            if let Some(j) = w.fused {
                self.depart(c, j, w.slot, &w.p);
            }
        }
        if PROBED {
            self.core
                .ctl
                .gauge_occupancy(c, self.core.store.occupancy());
        }
        #[cfg(debug_assertions)]
        self.core.assert_holds(c);
        self.cycle = c + 1;
    }

    /// Step 1: completed transmission — the cached next done-cycle turns
    /// the common nothing-completes cycle into one compare. Read
    /// initiations are unique per cycle, so done cycles are globally
    /// distinct: at most one transmission completes per cycle, and it is
    /// always the next uncommitted departure.
    #[inline]
    fn complete_tx(&mut self, c: Cycle) {
        if self.tx_next_done == c {
            self.commit_tail();
        }
    }

    /// The next uncommitted departure's tail word leaves, at its own
    /// `done` cycle: count it, say so, and move it into the log.
    #[inline]
    fn commit_tail(&mut self) {
        let d = &self.departures[self.committed];
        self.core.ctl.departed(d.done, d.output, d.id, d.birth);
        self.committed += 1;
        self.tx_next_done = self
            .departures
            .get(self.committed)
            .map_or(Cycle::MAX, |d| d.done);
    }

    /// Log packet `p`'s read on output `j` from `slot`, started at `c`.
    #[inline]
    fn depart(&mut self, c: Cycle, j: usize, slot: usize, p: &Entry<bool>) {
        let done = c + self.stages as Cycle;
        self.tx_next_done = self.tx_next_done.min(done);
        self.departures.push(BehavioralDeparture {
            id: p.id,
            input: p.input,
            output: j,
            birth: p.birth,
            read_start: c,
            done,
            output_was_idle: p.tag,
        });
        self.carried.push(self.payloads[slot]);
    }

    /// All departures so far (accumulating).
    pub fn departures(&self) -> &[BehavioralDeparture] {
        &self.departures[..self.committed]
    }

    /// The payload of each of [`BehavioralSwitch::departures`], index for
    /// index.
    pub fn carried(&self) -> &[P] {
        &self.carried[..self.committed]
    }

    /// The payloads inside the switch for output `j`, in departure order:
    /// the packet whose tail is still on the link, then the queue's.
    pub fn held(&self, j: usize) -> impl Iterator<Item = P> + '_ {
        let on_link = self
            .departures
            .iter()
            .zip(&self.carried)
            .skip(self.committed);
        let on_link = on_link.filter(move |(d, _)| d.output == j).map(|(_, &p)| p);
        on_link.chain(
            self.core.store.queues[j]
                .iter()
                .map(|&slot| self.payloads[slot]),
        )
    }

    /// The cycle the next in-flight tail word leaves its output (`None`:
    /// no transmission in flight). A fast-forward jump replays the tails
    /// it crosses, so a driver that acts on a departure in that
    /// departure's own cycle — returning a credit, say — bounds its jump
    /// here.
    pub fn next_tail(&self) -> Option<Cycle> {
        (self.tx_next_done != Cycle::MAX).then_some(self.tx_next_done)
    }

    /// Discard every *completed* departure record, keeping only the
    /// scheduled-but-unfinished tail. The departure log otherwise grows
    /// for the lifetime of the switch — fine for a single-switch
    /// experiment, unbounded for a long-lived fabric element that
    /// forwards millions of cells. Callers must have consumed
    /// [`BehavioralSwitch::departures`] first; afterwards the log (and
    /// the slice a subsequent `tick` returns) restarts from empty.
    pub fn forget_departures(&mut self) {
        if self.committed == 0 {
            return;
        }
        self.departures.drain(..self.committed);
        self.carried.drain(..self.committed);
        // `tx_next_done` caches a cycle, not an index, and the next
        // pending entry (if any) now sits at index 0 == `committed`.
        self.committed = 0;
        self.dep_mark = 0;
    }

    /// True when the switch holds nothing.
    pub fn is_quiescent(&self) -> bool {
        self.core.store.occupancy() == 0
            && self.tx_next_done == Cycle::MAX
            && self.cycle >= self.links_free_at
    }

    /// Run idle cycles until quiescent, appending completed departures to
    /// `out`. Fast-forwards across dead time via the event-horizon
    /// kernel; `limit` caps the drain (watchdog).
    pub fn drain_into(
        &mut self,
        limit: u64,
        out: &mut Vec<BehavioralDeparture>,
    ) -> Result<Cycle, simkernel::SimError> {
        let from = self.committed;
        let quiet =
            simkernel::horizon::drain(self, limit, "behavioral drain", |sw| sw.tick_idle_batch(1));
        out.extend_from_slice(&self.departures[from..self.committed]);
        quiet
    }
}

impl<P: Copy> simkernel::Horizon for BehavioralSwitch<P> {
    fn now(&self) -> Cycle {
        self.cycle
    }

    /// Event derivation (see `simkernel::horizon` for the contract).
    /// Under idle input the only decisions are the core's requests: a
    /// pending write becoming eligible, a queued packet becoming
    /// read-ready at its output's next initiation slot. A tail leaving is
    /// bookkeeping that [`Horizon::jump_to`](simkernel::Horizon::jump_to)
    /// replays, and link pacing is a comparison against `free_at`, which
    /// a jump does not touch.
    fn next_event(&self) -> Option<Cycle> {
        if self.is_quiescent() {
            return None;
        }
        let ev = self.core.next_request(self.cycle);
        if ev != Cycle::MAX {
            return Some(ev);
        }
        // No request but not quiescent: with the store empty the "event"
        // is quiescence itself — the links done carrying headers, the
        // last tail out (skippable); otherwise something is live that we
        // failed to account for (conservative dense tick).
        if self.core.store.occupancy() == 0 {
            let in_flight = self.next_tail().and(self.departures.last());
            let last_tail = in_flight.map_or(0, |d| d.done + 1);
            Some(self.links_free_at.max(last_tail))
        } else {
            Some(self.cycle)
        }
    }

    /// No wake-calendar slot lies in `[now, target)`: the horizon
    /// contract caps `target` at `next_event`, the earliest of them. The
    /// tails due in the span complete on the way, each at its own cycle.
    fn jump_to(&mut self, target: Cycle) {
        debug_assert!(target >= self.cycle, "jump_to moves time forward only");
        while self.tx_next_done < target {
            self.commit_tail();
        }
        // Dense idle ticking through the span leaves the completion
        // window of the tick at `target - 1` (its tail, if one left
        // then); match that.
        let last = self.committed.checked_sub(1).map(|k| &self.departures[k]);
        let tail_at_end = last.is_some_and(|d| d.done + 1 == target);
        self.dep_mark = self.committed - usize::from(tail_at_end);
        self.cycle = target;
    }
}

impl<P: Copy> simkernel::BatchTick for BehavioralSwitch<P> {
    fn tick_idle_batch(&mut self, n: u64) {
        BehavioralSwitch::tick_idle_batch(self, n);
    }
}

crate::word::switch!(impl[P: Copy] BehavioralSwitch<P>, core.ctl);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::READS;

    fn cfg2() -> SwitchConfig {
        SwitchConfig::symmetric(2, 16)
    }

    fn drain(sw: &mut BehavioralSwitch) -> Vec<BehavioralDeparture> {
        let mut out = Vec::new();
        sw.drain_into(200, &mut out)
            .expect("switch failed to drain");
        assert!(sw.is_quiescent(), "switch failed to drain");
        out
    }

    #[test]
    fn single_packet_cut_through_timing() {
        let mut sw = BehavioralSwitch::new(cfg2());
        let d = {
            let mut out = sw.tick(&[Some(1), None]).to_vec();
            out.extend(drain(&mut sw));
            out
        };
        assert_eq!(d.len(), 1);
        // Header at 0, fused write+read at 1, head latency 2, tail at 1+4.
        assert_eq!(d[0].birth, 0);
        assert_eq!(d[0].read_start, 1);
        assert_eq!(d[0].head_latency(), 2);
        assert_eq!(d[0].done, 5);
    }

    #[test]
    fn forget_departures_preserves_future_completions() {
        // Two packets to the same output: forget after the first tail
        // completes, and the second must still complete on schedule with
        // identical timing to an un-forgotten run.
        let run = |forget: bool| {
            let mut sw = BehavioralSwitch::new(cfg2());
            sw.tick(&[Some(1), None]);
            sw.tick(&[None, Some(1)]);
            let mut done = Vec::new();
            for _ in 0..40 {
                done.extend(sw.tick(&[None, None]).iter().map(|d| (d.id, d.done)));
                if forget && done.len() == 1 {
                    sw.forget_departures();
                    assert!(sw.departures().is_empty());
                }
            }
            done
        };
        assert_eq!(run(false), run(true));
        assert_eq!(run(false).len(), 2);
    }

    #[test]
    fn the_inputs_that_got_a_slot_hold_their_payloads() {
        // Each input offers its own number as the payload. Static pool,
        // two slots, three headers: the first two offering inputs in port
        // order take the slots.
        let held = |sw: &BehavioralSwitch<usize>| -> Vec<usize> {
            (0..4).flat_map(|j| sw.held(j)).collect()
        };
        let mut sw = BehavioralSwitch::carrying(SwitchConfig::symmetric(4, 2));
        sw.tick_carrying([(1, 0, 1), (2, 1, 2), (3, 2, 3)].into_iter());
        assert_eq!(held(&sw), vec![1, 2]);
        assert_eq!(sw.counters().dropped_buffer_full, 1);

        // Dynamic Thresholds (α = 1, four slots): inputs 0 and 1 queue
        // for output 0, input 2 is refused behind that queue (2 ≥ 2 free
        // slots), and input 3, heading for an empty output, still gets a
        // slot — an admission set no port-order prefix describes.
        let cfg =
            SwitchConfig::symmetric(4, 4).with_policy(crate::PolicyKind::dynamic_thresholds());
        let mut sw = BehavioralSwitch::carrying(cfg);
        sw.tick_carrying((0..4).map(|i| (i, i / 3, i)));
        assert_eq!(held(&sw), vec![0, 1, 3]);
        assert_eq!((sw.counters().policy_drops, sw.occupancy()), (1, 3));
        // Drained, each leaves with its own payload, once.
        let mut out = Vec::new();
        sw.drain_into(200, &mut out).expect("drain");
        assert_eq!(sw.carried(), [0, 3, 1]);
        assert!(held(&sw).is_empty());
    }

    #[test]
    fn simultaneous_arrivals_are_staggered() {
        // §3.4: two heads in the same cycle to different outputs — one
        // initiates at a+1, the other at a+2 (one initiation per cycle).
        let mut sw = BehavioralSwitch::new(cfg2());
        let mut d = sw.tick(&[Some(0), Some(1)]).to_vec();
        d.extend(drain(&mut sw));
        assert_eq!(d.len(), 2);
        let mut starts: Vec<Cycle> = d.iter().map(|x| x.read_start).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![1, 2], "staggered initiation");
    }

    #[test]
    fn same_output_service_is_fifo_and_back_to_back() {
        let mut sw = BehavioralSwitch::new(cfg2());
        let mut d = sw.tick(&[Some(0), Some(0)]).to_vec();
        d.extend(drain(&mut sw));
        assert_eq!(d.len(), 2);
        // Output 0 transmits [rs1+1, rs1+4] then [rs2+1, rs2+4] with
        // rs2 = rs1 + 4 (back to back).
        let rs: Vec<Cycle> = d.iter().map(|x| x.read_start).collect();
        assert_eq!((rs[0] as i64 - rs[1] as i64).abs(), 4);
    }

    #[test]
    fn buffer_full_drops() {
        let mut cfg = cfg2();
        cfg.slots = 1;
        let mut sw = BehavioralSwitch::new(cfg);
        sw.tick(&[Some(0), Some(0)]);
        assert_eq!(sw.counters().dropped_buffer_full, 1);
        drain(&mut sw);
    }

    #[test]
    fn full_load_all_outputs_busy_no_loss() {
        // Permutation traffic at 100 % load: input i → output i, packets
        // back to back. The switch must carry everything without drops or
        // overruns.
        let n = 4;
        let mut cfg = SwitchConfig::symmetric(n, 64);
        cfg.fused_cut_through = true;
        let s = cfg.stages();
        let mut sw = BehavioralSwitch::new(cfg);
        let mut arr = vec![None; n];
        let cycles = 10_000u64;
        for c in 0..cycles {
            for (i, a) in arr.iter_mut().enumerate() {
                *a = (c % s as u64 == 0).then_some(i);
            }
            sw.tick(&arr);
        }
        let d = sw.departures().len() as u64;
        let ctr = sw.counters();
        assert_eq!(ctr.dropped_buffer_full, 0, "no drops at full load");
        assert_eq!(ctr.latch_overruns, 0, "no overruns ever");
        // Each output should have carried ~cycles/s packets.
        let expect = (cycles / s as u64) * n as u64;
        assert!(
            d >= expect - 2 * n as u64,
            "carried {d}, expected about {expect}"
        );
    }

    #[test]
    fn uniform_full_load_no_overruns() {
        // Worst-case initiation pressure: every input at 100 % load,
        // uniform random outputs. Buffer drops are legitimate (finite
        // pool), latch overruns are not.
        let n = 8;
        let cfg = SwitchConfig::symmetric(n, 32);
        let _s = cfg.stages();
        let mut sw = BehavioralSwitch::new(cfg);
        let mut rng = simkernel::SplitMix64::new(99);
        let mut arr = vec![None; n];
        for _ in 0..50_000u64 {
            for (i, a) in arr.iter_mut().enumerate() {
                *a = sw.input_free(i).then(|| rng.below_usize(n));
            }
            sw.tick(&arr);
        }
        assert_eq!(
            sw.counters().latch_overruns,
            0,
            "latch overruns must be impossible"
        );
        assert!(sw.departures().len() > 10_000);
    }

    #[test]
    fn conservation_arrived_equals_departed_plus_dropped() {
        let n = 4;
        let cfg = SwitchConfig::symmetric(n, 8);
        let mut sw = BehavioralSwitch::new(cfg);
        let mut rng = simkernel::SplitMix64::new(5);
        let mut arr = vec![None; n];
        for _ in 0..20_000u64 {
            for (i, a) in arr.iter_mut().enumerate() {
                *a = (sw.input_free(i) && rng.chance(0.7)).then(|| rng.below_usize(n));
            }
            sw.tick(&arr);
        }
        drain(&mut sw);
        let ctr = sw.counters();
        assert_eq!(
            ctr.arrived - ctr.dropped_buffer_full,
            sw.departures().len() as u64,
            "every accepted packet departs"
        );
        assert_eq!(ctr.departed, sw.departures().len() as u64);
        assert_eq!(ctr.in_flight(), 0);
        assert!(ctr.arrived > 5_000);
        assert_eq!(ctr.latch_overruns, 0);
    }

    #[test]
    fn preempting_a_queue_head_retracts_its_wake_from_the_calendar() {
        // 3 x 1, S = 4, two slots, push-out. A and P arrive together, X
        // two cycles later; A cuts through, P is read at 5, and X —
        // written at 3, long retired — heads the queue with its
        // readiness on the calendar at 9, the output's next initiation.
        let mut cfg = SwitchConfig::symmetric(3, 2).with_policy(crate::PolicyKind::PushOut);
        cfg.n_out = 1;
        let mut sw = BehavioralSwitch::new(cfg);
        let slot_of = |sw: &BehavioralSwitch, t: Cycle| {
            sw.core.requests.wake[t as usize & (sw.core.requests.wake.len() - 1)]
        };
        sw.tick(&[Some(0), Some(0), None]);
        sw.tick(&[None; 3]);
        sw.tick(&[None, None, Some(0)]);
        sw.tick_idle_batch(4);
        assert_eq!((sw.now(), sw.queue_len(0), sw.occupancy()), (7, 1, 1));
        assert_eq!(
            (sw.core.requests.ready_at[0], sw.core.requests.req[READS]),
            (9, 0)
        );
        assert_eq!(slot_of(&sw, 9), [1, 0], "X wakes output 0 at cycle 9");
        // Y fills the pool; D, in the same cycle, pushes out the rearmost
        // *evictable* packet of the only queue. Y has no write wave yet,
        // so X goes — the head, while its wake is still on the calendar.
        sw.tick(&[Some(0), Some(0), None]);
        assert_eq!(sw.counters().policy_preempts, 1);
        assert_eq!((sw.queue_len(0), sw.occupancy()), (2, 2));
        // The new head is unwritten: no read is due any more. A stale bit
        // would start a read at 9 for a head that is not ready (or, on an
        // emptied queue, `expect("read from empty queue")`).
        assert_eq!(
            (sw.core.requests.ready_at[0], sw.core.requests.req[READS]),
            (Cycle::MAX, 0)
        );
        assert_eq!(slot_of(&sw, 9), [0, 0], "X's wake was retracted");
        assert_eq!(slot_of(&sw, 8), [0, 0b11], "Y and D ask to be written at 8");
        let ids: Vec<u64> = drain(&mut sw).iter().map(|d| d.id).collect();
        assert_eq!(ids, vec![2, 4, 5], "P, then Y and D; X (id 3) was evicted");
    }

    #[test]
    fn a_jump_replays_the_tails_it_crosses() {
        // 2 x 2, S = 4: headers at 0 to both outputs start their reads at
        // 1 and 2, so by cycle 3 the store is empty and two tails are in
        // flight, leaving at 5 and 6; the links are free at 4. Jump from
        // 3 to every target up to 8 and compare with dense idle ticks.
        use simkernel::Horizon;
        use telemetry::{Recorder, Shared};
        let idle = [None, None];
        let start = || {
            let mut sw = BehavioralSwitch::new(cfg2());
            let rec = Shared::new(Recorder::unbounded());
            sw.attach_probe(rec.handle());
            sw.tick(&[Some(0), Some(1)]);
            sw.tick(&idle);
            sw.tick(&idle);
            (sw, rec)
        };
        let departed = |rec: &Shared<Recorder>| {
            rec.with(|r| {
                let tails = r.iter().filter_map(|e| match e.event {
                    ProbeEvent::Departed { id, .. } => Some((e.cycle, id)),
                    _ => None,
                });
                tails.collect::<Vec<_>>()
            })
        };
        let (at3, _) = start();
        assert_eq!((at3.now(), at3.occupancy()), (3, 0));
        assert_eq!(at3.next_tail(), Some(5));
        // No request is left: the next event is quiescence, after the
        // last tail, and not the first tail.
        assert_eq!(at3.next_event(), Some(7));
        for target in 4..=8 {
            let (mut dense, rec_dense) = start();
            let (mut fast, rec_fast) = start();
            while dense.now() < target {
                dense.tick(&idle);
            }
            fast.jump_to(target);
            let window = |sw: &BehavioralSwitch| sw.departures[sw.dep_mark..sw.committed].to_vec();
            assert_eq!(window(&fast), window(&dense), "to {target}: window");
            assert_eq!(fast.departures(), dense.departures(), "to {target}");
            assert_eq!(fast.counters(), dense.counters(), "to {target}");
            assert_eq!(departed(&rec_fast), departed(&rec_dense), "to {target}");
            assert_eq!(fast.is_quiescent(), dense.is_quiescent(), "to {target}");
            assert_eq!(fast.next_event(), dense.next_event(), "to {target}");
            assert_eq!(fast.next_tail(), dense.next_tail(), "to {target}");
            assert_eq!(
                fast.tick(&idle),
                dense.tick(&idle),
                "after {target}: next window"
            );
            assert_eq!(departed(&rec_fast), departed(&rec_dense), "after {target}");
        }
        // The two tails by their own cycles, and the switch quiescent at 7.
        let (mut sw, rec) = start();
        sw.jump_to(7);
        assert_eq!(departed(&rec), vec![(5, 1), (6, 2)]);
        assert_eq!(sw.counters().departed, 2);
        assert!(sw.is_quiescent() && sw.next_event().is_none());
    }

    #[test]
    #[should_panic(expected = "at most 64 inputs")]
    fn more_than_64_inputs_are_rejected() {
        // Asymmetric: 32 outputs is the ceiling of the destination mask.
        let mut cfg = SwitchConfig::symmetric(4, 4);
        cfg.n_in = 65;
        BehavioralSwitch::new(cfg);
    }

    #[test]
    fn store_and_forward_adds_stages_latency() {
        let mut cfg = cfg2();
        cfg.cut_through = false;
        cfg.fused_cut_through = false;
        let mut sw = BehavioralSwitch::new(cfg);
        let mut d = sw.tick(&[Some(1), None]).to_vec();
        d.extend(drain(&mut sw));
        // ws = 1, rs = ws + S = 5, head latency = 6 = 2 + S.
        assert_eq!(d[0].read_start, 5);
        assert_eq!(d[0].head_latency(), 6);
    }
}

#[cfg(test)]
mod wide_port_tests {
    use super::*;

    #[test]
    fn works_at_32_ports() {
        // Regression: mask validation used `mask >> n_out`, which wraps
        // for n_out = 32 on a u32 (caught by the behavioral bench).
        let n = 32;
        let mut sw = BehavioralSwitch::new(SwitchConfig::symmetric(n, 64));
        let mut arr = vec![None; n];
        arr[0] = Some(2); // output 2 (the 0x4 mask of the crash)
        sw.tick(&arr);
        let mut out = Vec::new();
        sw.drain_into(300, &mut out).expect("drain");
        assert_eq!(sw.departures().len(), 1);
        assert_eq!(sw.counters().latch_overruns, 0);
    }
}
