//! Drivers: replay one [`Scenario`] against each memory organization.
//!
//! All four organizations see the *same* offered schedule through the
//! same launch logic (the internal `Launcher`): in credited mode each input holds a
//! [`CreditedInput`] sender whose credits return when *that
//! organization* delivers the packet's tail word, so backpressure timing
//! is native to each model; in open mode packets launch at exactly
//! `Offer::at`. Word-level organizations are fed word by word on the
//! input wires and observed through an [`OutputCollector`]; the
//! behavioral model is fed per-cell arrivals and reports departures
//! directly.

use crate::scenario::Scenario;
use simkernel::cell::Packet;
use simkernel::error::SimError;
use simkernel::ids::Cycle;
use simkernel::Horizon;
use std::collections::{HashMap, VecDeque};
use switch_core::behavioral::BehavioralSwitch;
use switch_core::config::SwitchConfig;
use switch_core::credit::CreditedInput;
use switch_core::events::SwitchCounters;
use switch_core::faultsim::{Fault, FaultAction, FaultKind, FaultPlan};
use switch_core::recovery::{RecoveryConfig, RecoveryReport};
use switch_core::rtl::OutputCollector;
use switch_core::WordOrg;
use telemetry::ProbeHandle;

/// The four memory organizations under differential test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Org {
    /// Word-accurate pipelined-memory RTL (§3, the paper's design).
    Pipelined,
    /// Cell-level behavioral model with identical initiation semantics.
    Behavioral,
    /// Wide-memory organization of fig. 3 (double buffering + bypass).
    Wide,
    /// Interleaved one-packet-per-bank organization (store-and-forward).
    Interleaved,
}

impl Org {
    /// All organizations, in reporting order.
    pub const ALL: [Org; 4] = [Org::Pipelined, Org::Behavioral, Org::Wide, Org::Interleaved];

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Org::Pipelined => "pipelined",
            Org::Behavioral => "behavioral",
            Org::Wide => "wide",
            Org::Interleaved => "interleaved",
        }
    }

    /// The word-level organization behind this one (`None` for the
    /// cell-level behavioral model).
    pub fn word(&self) -> Option<WordOrg> {
        match self {
            Org::Pipelined => Some(WordOrg::Pipelined),
            Org::Behavioral => None,
            Org::Wide => Some(WordOrg::Wide),
            Org::Interleaved => Some(WordOrg::Interleaved),
        }
    }
}

impl std::fmt::Display for Org {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One packet launch as it actually happened in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch {
    /// Packet id (from the scenario's offer).
    pub id: u64,
    /// Input link.
    pub input: usize,
    /// Destination output.
    pub dst: usize,
    /// Cycle the header entered the switch.
    pub at: Cycle,
}

/// One packet delivery as observed on an output link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Packet id decoded from the delivered header.
    pub id: u64,
    /// Output link it emerged on.
    pub output: usize,
    /// Cycle the first word appeared on the link.
    pub first: Cycle,
    /// Cycle the tail word appeared on the link.
    pub last: Cycle,
}

/// Everything one organization did with the scenario.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Which organization ran.
    pub org: Org,
    /// Launches in launch order.
    pub launches: Vec<Launch>,
    /// Deliveries in completion order.
    pub deliveries: Vec<Delivery>,
    /// The organization's own event counters after drain.
    pub counters: SwitchCounters,
    /// Delivered packets whose payload failed verification.
    pub payload_failures: u64,
    /// Cycles an input sat idle with backlog because credits ran out
    /// (credited mode only) — the full-buffer backpressure corner.
    pub stalls: u64,
    /// Cycles in which two or more inputs started transmission together.
    pub same_cycle_starts: u64,
    /// Head latencies of departures whose output was idle at arrival
    /// (behavioral model only; the §3.4 measurement population).
    pub idle_head_latencies: Vec<Cycle>,
    /// Watchdog or credit-audit failure, if the run did not end cleanly.
    pub error: Option<SimError>,
    /// Recovery ledger (corrections, failovers, declared windows); all
    /// zeros unless the scenario armed recovery.
    pub recovery: RecoveryReport,
}

/// Shared launch logic: turns the scenario's offers into per-cycle
/// launches, under credit backpressure or open-loop timing.
struct Launcher {
    s: Cycle,
    pending: Vec<VecDeque<crate::scenario::Offer>>,
    senders: Option<Vec<CreditedInput<crate::scenario::Offer>>>,
    next_free: Vec<Cycle>,
    stalls: u64,
    same_cycle_starts: u64,
}

impl Launcher {
    fn new(sc: &Scenario, probe: Option<&ProbeHandle>) -> Launcher {
        let mut pending = vec![VecDeque::new(); sc.n];
        for o in &sc.offers {
            pending[o.input].push_back(*o);
        }
        let senders = sc.credited.then(|| {
            (0..sc.n)
                .map(|i| {
                    let mut s: CreditedInput<crate::scenario::Offer> =
                        CreditedInput::new(sc.credits_per_input(), 1);
                    if let Some(p) = probe {
                        s.attach_probe(p.clone(), i);
                    }
                    s
                })
                .collect()
        });
        Launcher {
            s: sc.stages() as Cycle,
            pending,
            senders,
            next_free: vec![0; sc.n],
            stalls: 0,
            same_cycle_starts: 0,
        }
    }

    /// Launches starting at `now` (at most one per input).
    fn poll(&mut self, now: Cycle) -> Vec<crate::scenario::Offer> {
        let mut started = Vec::new();
        if let Some(senders) = &mut self.senders {
            for (q, sender) in self.pending.iter_mut().zip(senders.iter_mut()) {
                while q.front().is_some_and(|o| o.at <= now) {
                    sender.offer(q.pop_front().expect("checked non-empty"));
                }
            }
            for (i, sender) in senders.iter_mut().enumerate() {
                if self.next_free[i] > now {
                    continue;
                }
                match sender.poll(now) {
                    Some(o) => {
                        self.next_free[i] = now + self.s;
                        started.push(o);
                    }
                    None => {
                        if sender.backlog() > 0 {
                            // Link free, work queued, zero credits: the
                            // shared buffer's reservation is exhausted.
                            self.stalls += 1;
                        }
                    }
                }
            }
        } else {
            for (i, q) in self.pending.iter_mut().enumerate() {
                if q.front().is_some_and(|o| o.at == now) {
                    assert!(
                        self.next_free[i] <= now,
                        "schedule violates wire framing on input {i} at cycle {now}"
                    );
                    let o = q.pop_front().expect("checked non-empty");
                    self.next_free[i] = now + self.s;
                    started.push(o);
                }
            }
        }
        if started.len() >= 2 {
            self.same_cycle_starts += 1;
        }
        started
    }

    /// Earliest offer time still queued upstream of the senders. Fronts
    /// are always `>= now` (earlier offers were transferred or launched
    /// by previous polls), so this bounds how far a driver may
    /// fast-forward without missing a launch.
    fn earliest_pending(&self) -> Option<Cycle> {
        self.pending
            .iter()
            .filter_map(|q| q.front().map(|o| o.at))
            .min()
    }

    /// True when any credited sender holds queued work. Stall cycles are
    /// counted per cycle while backlog waits on credits, so time may only
    /// be skipped when every backlog is empty.
    fn any_backlog(&self) -> bool {
        self.senders
            .as_ref()
            .is_some_and(|ss| ss.iter().any(|s| s.backlog() > 0))
    }

    /// Where the clock may jump from `now` without missing anything: the
    /// model's `next_event` (quiescent: `limit`), the next pending offer or
    /// `limit`, whichever is first. `None` — tick densely — when the model
    /// changes state this cycle, a backlog is stalling on credits, or that
    /// point is `now`.
    fn jump_target(&self, now: Cycle, next_event: Option<Cycle>, limit: Cycle) -> Option<Cycle> {
        if self.any_backlog() || next_event.is_some_and(|e| e <= now) {
            return None;
        }
        let pending = self.earliest_pending().unwrap_or(limit);
        let target = next_event.unwrap_or(limit).min(pending).min(limit);
        (target > now).then_some(target)
    }

    fn credit_return(&mut self, input: usize, now: Cycle) {
        if let Some(senders) = &mut self.senders {
            senders[input].return_credit(now);
        }
    }

    /// No offer will ever launch again.
    fn exhausted(&self) -> bool {
        self.pending.iter().all(VecDeque::is_empty) && !self.any_backlog()
    }

    /// Final credit-conservation audit against the testbench ledger: an
    /// input's outstanding packets are its launches minus the deliveries
    /// of ids it launched (a corrupted header that names no launched id
    /// returns nothing, and shows up here as a leak).
    fn audit(
        &self,
        launches: &[Launch],
        deliveries: &[Delivery],
        org: Org,
    ) -> Result<(), SimError> {
        let Some(senders) = &self.senders else {
            return Ok(());
        };
        let input_of: HashMap<u64, usize> = launches.iter().map(|l| (l.id, l.input)).collect();
        let mut outstanding = vec![0u32; senders.len()];
        for l in launches {
            outstanding[l.input] += 1;
        }
        for i in deliveries.iter().filter_map(|d| input_of.get(&d.id)) {
            outstanding[*i] = outstanding[*i].saturating_sub(1);
        }
        for (i, sender) in senders.iter().enumerate() {
            sender.audit(outstanding[i], &format!("{org} input {i}"))?;
        }
        Ok(())
    }
}

/// Hard cap on simulated cycles past the scenario horizon before a run is
/// declared hung (a divergence in its own right).
const DRAIN_CAP: Cycle = 200_000;

/// Replay `sc` on organization `org` and report everything it did.
pub fn run(sc: &Scenario, org: Org) -> RunOutcome {
    run_with(sc, org, None)
}

/// Like [`run`], but with a telemetry probe attached to the model under
/// test and to the credited senders: every per-cycle event (waves,
/// arbitration, drops, credit grants/returns) streams into `probe`
/// while the run proceeds bit-identically to an unprobed one — the
/// flight-recorder path the fuzzer uses to dump a failure's last
/// cycles.
pub fn run_with(sc: &Scenario, org: Org, probe: Option<ProbeHandle>) -> RunOutcome {
    match org.word() {
        Some(word) => run_word(sc, org, word, probe),
        None => run_behavioral(sc, probe),
    }
}

fn run_word(sc: &Scenario, org: Org, word: WordOrg, probe: Option<ProbeHandle>) -> RunOutcome {
    let n = sc.n;
    let s = sc.stages();
    // ECC-only recovery: corrections are timing-invisible, so the armed
    // run must stay cycle-identical to an unarmed clean one.
    let rec = if sc.recovery {
        RecoveryConfig::ecc_only()
    } else {
        RecoveryConfig::default()
    };
    let mut sw = word.build(n, sc.slots, rec, sc.policy);
    if let Some(p) = &probe {
        sw.attach_probe(p.clone());
    }
    // Faults strike the pipelined RTL only: the other organizations stay
    // clean references, so any effective upset becomes a divergence.
    let mut plan = sc.fault.filter(|_| word == WordOrg::Pipelined).map(|f| {
        let cfg = SwitchConfig::symmetric(n, sc.slots);
        FaultPlan::generate(FaultKind::BankUpset, f.rate, sc.horizon, &cfg, f.seed)
    });
    let mut col = OutputCollector::new(n, s);
    let mut launcher = Launcher::new(sc, probe.as_ref());
    let mut current: Vec<Option<(Vec<u64>, usize)>> = (0..n).map(|_| None).collect();
    let mut launches = Vec::new();
    let mut deliveries = Vec::new();
    let mut id_input: HashMap<u64, usize> = HashMap::new();
    let mut payload_failures = 0u64;
    let mut error = None;
    let cap = sc.horizon + DRAIN_CAP;
    let mut grace: Cycle = 0;
    let mut wire: Vec<Option<u64>> = vec![None; n];
    let mut due_faults: Vec<Fault> = Vec::new();
    loop {
        let now = sw.now();
        // The buffer manager can be empty while tail words are still on
        // the output wires, so idle-ness must persist for a full packet
        // time before the run is considered drained.
        let idle = launcher.exhausted() && current.iter().all(Option::is_none) && sw.is_quiescent();
        if idle {
            grace += 1;
            if grace > s as Cycle + 4 {
                break;
            }
        } else {
            grace = 0;
        }
        if now >= cap {
            error = Some(SimError::Watchdog {
                limit: cap,
                context: format!("{org} failed to drain"),
            });
            break;
        }
        // Event-horizon fast-forward (DESIGN.md §6): with the input wires
        // idle, no credited backlog stalling, and the switch reporting no
        // state change before `e`, jump the clock to the next launch /
        // fault / model event instead of ticking through the gap. Bounding
        // the jump by `plan.next_due()` keeps every fault injected at its
        // exact scheduled cycle, so departures stay bit-identical.
        if !idle && current.iter().all(Option::is_none) {
            let next_fault = plan.as_ref().and_then(FaultPlan::next_due);
            let limit = next_fault.map_or(cap, |t| t.min(cap));
            if let Some(target) = launcher.jump_target(now, sw.next_event(), limit) {
                simkernel::horizon::note_skipped(target - now);
                sw.jump_to(target);
                continue;
            }
        }
        simkernel::horizon::note_executed(1);
        if let Some(plan) = &mut plan {
            plan.take_due_into(now, &mut due_faults);
            for f in due_faults.drain(..) {
                if let FaultAction::BankUpset { stage, slot, mask } = f.action {
                    sw.inject_upset(slot.index(), stage, mask);
                }
            }
        }
        for o in launcher.poll(now) {
            let p = Packet::synth(o.id, o.input, o.dst, s, now);
            launches.push(Launch {
                id: o.id,
                input: o.input,
                dst: o.dst,
                at: now,
            });
            id_input.insert(o.id, o.input);
            debug_assert!(current[o.input].is_none(), "launch while wire busy");
            current[o.input] = Some((p.words, 0));
        }
        for (w, slot) in wire.iter_mut().zip(current.iter_mut()) {
            *w = None;
            if let Some((words, k)) = slot {
                *w = Some(words[*k]);
                *k += 1;
                if *k == words.len() {
                    *slot = None;
                }
            }
        }
        let out = sw.tick(&wire);
        col.observe(now, out);
        for d in col.take() {
            if !d.verify_payload() {
                payload_failures += 1;
            }
            deliveries.push(Delivery {
                id: d.id,
                output: d.output.index(),
                first: d.first_cycle,
                last: d.last_cycle,
            });
            // Return the credit to whoever launched this id; a corrupted
            // header that no longer names a launched id returns nothing,
            // and the final audit reports the leak.
            if let Some(&input) = id_input.get(&d.id) {
                launcher.credit_return(input, now);
            }
        }
    }
    if error.is_none() {
        error = launcher.audit(&launches, &deliveries, org).err();
    }
    RunOutcome {
        org,
        launches,
        deliveries,
        counters: sw.counters(),
        payload_failures,
        stalls: launcher.stalls,
        same_cycle_starts: launcher.same_cycle_starts,
        idle_head_latencies: Vec::new(),
        error,
        recovery: sw.recovery_report(),
    }
}

fn run_behavioral(sc: &Scenario, probe: Option<ProbeHandle>) -> RunOutcome {
    let n = sc.n;
    let cfg = SwitchConfig::symmetric(n, sc.slots).with_policy(sc.policy);
    let mut sw = BehavioralSwitch::new(cfg);
    let mut launcher = Launcher::new(sc, probe.as_ref());
    if let Some(p) = probe {
        sw.attach_probe(p);
    }
    // The behavioral model numbers packets internally; recover scenario
    // ids through the (input, birth) pair — unique because each input
    // launches at most one header per cycle.
    let mut key_to_id: HashMap<(usize, Cycle), u64> = HashMap::new();
    let mut launches = Vec::new();
    let mut deliveries = Vec::new();
    let mut idle_head_latencies = Vec::new();
    let mut error = None;
    let mut arrivals: Vec<Option<usize>> = vec![None; n];
    let cap = sc.horizon + DRAIN_CAP;
    let mut now: Cycle = 0;
    let mut grace: Cycle = 0;
    loop {
        let idle = launcher.exhausted() && sw.is_quiescent();
        if idle {
            grace += 1;
            if grace > sc.stages() as Cycle + 4 {
                break;
            }
        } else {
            grace = 0;
        }
        if now >= cap {
            error = Some(SimError::Watchdog {
                limit: cap,
                context: "behavioral failed to drain".to_string(),
            });
            break;
        }
        // Event-horizon fast-forward, behavioral flavor: the model's
        // fine-grained horizon covers in-flight transmissions and queued
        // write/read schedules, so the clock may jump straight to the
        // next departure edge or the next pending offer.
        if !idle {
            if let Some(target) = launcher.jump_target(now, Horizon::next_event(&sw), cap) {
                simkernel::horizon::note_skipped(target - now);
                Horizon::jump_to(&mut sw, target);
                now = target;
                continue;
            }
        }
        simkernel::horizon::note_executed(1);
        arrivals.fill(None);
        for o in launcher.poll(now) {
            debug_assert!(sw.input_free(o.input), "launch while input busy");
            arrivals[o.input] = Some(o.dst);
            key_to_id.insert((o.input, now), o.id);
            launches.push(Launch {
                id: o.id,
                input: o.input,
                dst: o.dst,
                at: now,
            });
        }
        let departures = sw.tick(&arrivals).to_vec();
        for d in departures {
            let id = *key_to_id
                .get(&(d.input, d.birth))
                .expect("departure for a packet that was never launched");
            deliveries.push(Delivery {
                id,
                output: d.output,
                first: d.read_start + 1,
                last: d.done,
            });
            if d.output_was_idle {
                idle_head_latencies.push(d.head_latency());
            }
            launcher.credit_return(d.input, now);
        }
        now += 1;
    }
    if error.is_none() {
        error = launcher
            .audit(&launches, &deliveries, Org::Behavioral)
            .err();
    }
    let counters = SwitchCounters {
        // The behavioral model counts only *accepted* packets in
        // `arrived`; the RTL counts every header (including policy-
        // refused ones). Normalize to the RTL convention so one
        // conservation law covers both.
        arrived: sw.arrived + sw.dropped + sw.policy_drops,
        departed: deliveries.len() as u64,
        dropped_buffer_full: sw.dropped,
        latch_overruns: sw.overruns,
        policy_drops: sw.policy_drops,
        policy_preempts: sw.policy_preempts,
        ..SwitchCounters::default()
    };
    RunOutcome {
        org: Org::Behavioral,
        launches,
        deliveries,
        counters,
        payload_failures: 0,
        stalls: launcher.stalls,
        same_cycle_starts: launcher.same_cycle_starts,
        idle_head_latencies,
        error,
        recovery: RecoveryReport::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Offer, Scenario};

    fn tiny(credited: bool) -> Scenario {
        Scenario {
            seed: 0,
            n: 2,
            slots: 4,
            credited,
            load: 0.5,
            offers: vec![
                Offer {
                    at: 0,
                    input: 0,
                    dst: 1,
                    id: 1,
                },
                Offer {
                    at: 2,
                    input: 1,
                    dst: 0,
                    id: 2,
                },
            ],
            horizon: 64,
            fault: None,
            recovery: false,
            policy: switch_core::PolicyKind::Static,
        }
    }

    #[test]
    fn every_org_delivers_the_tiny_schedule() {
        for credited in [false, true] {
            let sc = tiny(credited);
            for org in Org::ALL {
                let r = run(&sc, org);
                assert!(r.error.is_none(), "{org}: {:?}", r.error);
                assert_eq!(r.launches.len(), 2, "{org} launches");
                assert_eq!(r.deliveries.len(), 2, "{org} deliveries");
                assert_eq!(r.payload_failures, 0, "{org} payload");
                let mut ids: Vec<u64> = r.deliveries.iter().map(|d| d.id).collect();
                ids.sort_unstable();
                assert_eq!(ids, vec![1, 2], "{org} ids");
            }
        }
    }

    #[test]
    fn rtl_and_behavioral_agree_on_the_tiny_schedule() {
        let sc = tiny(true);
        let a = run(&sc, Org::Pipelined);
        let b = run(&sc, Org::Behavioral);
        let key = |r: &RunOutcome| {
            let mut v: Vec<(u64, usize, Cycle, Cycle)> = r
                .deliveries
                .iter()
                .map(|d| (d.id, d.output, d.first, d.last))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(&a), key(&b), "cycle-exact departure agreement");
    }

    #[test]
    fn credited_starvation_counts_stalls() {
        // One slot, one credit: the second same-input offer must stall
        // until the first packet's slot is freed downstream.
        let sc = Scenario {
            seed: 0,
            n: 2,
            slots: 2, // 1 credit per input
            credited: true,
            load: 1.0,
            offers: vec![
                Offer {
                    at: 0,
                    input: 0,
                    dst: 1,
                    id: 1,
                },
                Offer {
                    at: 4,
                    input: 0,
                    dst: 1,
                    id: 2,
                },
            ],
            horizon: 64,
            fault: None,
            recovery: false,
            policy: switch_core::PolicyKind::Static,
        };
        let r = run(&sc, Org::Interleaved);
        assert!(r.error.is_none(), "{:?}", r.error);
        assert_eq!(r.deliveries.len(), 2);
        assert!(
            r.stalls > 0,
            "store-and-forward holds the bank past the second offer time"
        );
    }
}
