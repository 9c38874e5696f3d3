//! Drivers: replay one [`Scenario`] against each memory organization.
//!
//! All four organizations see the *same* offered schedule through the
//! same drive loop (the internal `Drive`, over `dyn Switch`): in credited
//! mode each input holds a [`CreditedInput`] sender whose credits return
//! when *that organization* delivers the packet's tail word, so
//! backpressure timing is native to each model; in open mode packets
//! launch at exactly `Offer::at`. Word-level organizations are fed word
//! by word on the input wires and observed through an
//! [`OutputCollector`]; the behavioral model is fed per-cell arrivals and
//! reports departures directly.

use crate::scenario::{Offer, Scenario};
use simkernel::cell::Packet;
use simkernel::error::SimError;
use simkernel::ids::Cycle;
use std::collections::{HashMap, VecDeque};
use switch_core::behavioral::BehavioralSwitch;
use switch_core::config::SwitchConfig;
use switch_core::credit::CreditedInput;
use switch_core::events::SwitchCounters;
use switch_core::faultsim::{Fault, FaultAction, FaultKind, FaultPlan};
use switch_core::recovery::{RecoveryConfig, RecoveryReport};
use switch_core::rtl::OutputCollector;
use switch_core::{Switch, WordOrg};
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

/// Hard cap on simulated cycles past the scenario horizon before a run is
/// declared hung (a divergence in its own right).
const DRAIN_CAP: Cycle = 200_000;

/// The organization-independent skeleton of a run: turns the scenario's
/// offers into per-cycle launches (under credit backpressure or open-loop
/// timing), decides which cycles are ticked and which are jumped and when
/// the run is over, and keeps the ledger of launches and deliveries.
/// `run_word` and `run_behavioral` supply what differs — how a launch
/// reaches the inputs and how outputs become [`Delivery`]s.
struct Drive {
    /// Packet time in cycles.
    s: Cycle,
    pending: Vec<VecDeque<Offer>>,
    senders: Option<Vec<CreditedInput<Offer>>>,
    next_free: Vec<Cycle>,
    /// Per input: launches minus deliveries of ids it launched (the
    /// testbench's own ledger, audited against the senders' at the end).
    outstanding: Vec<i64>,
    cap: Cycle,
    grace: Cycle,
    outcome: RunOutcome,
}

impl Drive {
    /// A run of `sc` on `sw`, with `probe` (if any) attached to the model
    /// and to the credited senders.
    fn new(sc: &Scenario, org: Org, sw: &mut dyn Switch, probe: Option<ProbeHandle>) -> Drive {
        let mut pending = vec![VecDeque::new(); sc.n];
        for o in &sc.offers {
            pending[o.input].push_back(*o);
        }
        let senders = sc.credited.then(|| {
            (0..sc.n)
                .map(|i| {
                    let mut s: CreditedInput<Offer> = CreditedInput::new(sc.credits_per_input(), 1);
                    if let Some(p) = &probe {
                        s.attach_probe(p.clone(), i);
                    }
                    s
                })
                .collect()
        });
        if let Some(p) = probe {
            sw.attach_probe(p);
        }
        Drive {
            s: sc.stages() as Cycle,
            pending,
            senders,
            next_free: vec![0; sc.n],
            outstanding: vec![0; sc.n],
            cap: sc.horizon + DRAIN_CAP,
            grace: 0,
            outcome: RunOutcome {
                org,
                launches: Vec::new(),
                deliveries: Vec::new(),
                counters: SwitchCounters::default(),
                payload_failures: 0,
                stalls: 0,
                same_cycle_starts: 0,
                idle_head_latencies: Vec::new(),
                error: None,
                recovery: RecoveryReport::default(),
            },
        }
    }

    /// The next cycle to tick, or `None` when the run is over (drained, or
    /// the watchdog fired). `wires_idle`: no launched packet is still being
    /// clocked onto an input; `next_due`: the earliest cycle the caller
    /// must see for a reason of its own (a scheduled fault).
    fn next_cycle(
        &mut self,
        sw: &mut dyn Switch,
        wires_idle: bool,
        next_due: Option<Cycle>,
    ) -> Option<Cycle> {
        loop {
            let now = sw.now();
            // The buffer manager can be empty while tail words are still on
            // the output wires, so idle-ness must persist for a full packet
            // time before the run is considered drained.
            let idle = self.exhausted() && wires_idle && sw.is_quiescent();
            if idle {
                self.grace += 1;
                if self.grace > self.s + 4 {
                    return None;
                }
            } else {
                self.grace = 0;
            }
            if now >= self.cap {
                self.outcome.error = Some(SimError::Watchdog {
                    limit: self.cap,
                    context: format!("{} failed to drain", self.outcome.org),
                });
                return None;
            }
            // Event-horizon fast-forward (DESIGN.md §6): with the input wires
            // idle, no credited backlog stalling, and the switch reporting no
            // state change before `e`, jump the clock to the next launch /
            // fault / model event instead of ticking through the gap. Bounding
            // the jump by `next_due` keeps every fault injected at its exact
            // scheduled cycle, so departures stay bit-identical.
            if !idle && wires_idle {
                let limit = next_due.map_or(self.cap, |t| t.min(self.cap));
                if let Some(target) = self.jump_target(now, sw.next_event(), limit) {
                    simkernel::horizon::note_skipped(target - now);
                    sw.jump_to(target);
                    continue;
                }
            }
            simkernel::horizon::note_executed(1);
            return Some(now);
        }
    }

    /// The offers whose headers enter the switch at `now` (at most one
    /// per input), recorded as launches.
    fn launch(&mut self, now: Cycle) -> Vec<Offer> {
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
                    Some(o) => started.push(o),
                    // Link free, work queued, zero credits: the shared
                    // buffer's reservation is exhausted.
                    None if sender.backlog() > 0 => self.outcome.stalls += 1,
                    None => {}
                }
            }
        } else {
            for (i, q) in self.pending.iter_mut().enumerate() {
                if q.front().is_some_and(|o| o.at == now) {
                    assert!(
                        self.next_free[i] <= now,
                        "schedule violates wire framing on input {i} at cycle {now}"
                    );
                    started.push(q.pop_front().expect("checked non-empty"));
                }
            }
        }
        for o in &started {
            self.next_free[o.input] = now + self.s;
            self.outstanding[o.input] += 1;
            self.outcome.launches.push(Launch {
                id: o.id,
                input: o.input,
                dst: o.dst,
                at: now,
            });
        }
        if started.len() >= 2 {
            self.outcome.same_cycle_starts += 1;
        }
        started
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
        // Offers still upstream of the senders: fronts are always `>= now`
        // (earlier ones were transferred or launched by previous polls).
        let fronts = self.pending.iter().filter_map(|q| q.front());
        let pending = fronts.map(|o| o.at).min().unwrap_or(limit);
        let target = next_event.unwrap_or(limit).min(pending).min(limit);
        (target > now).then_some(target)
    }

    /// No offer will ever launch again.
    fn exhausted(&self) -> bool {
        self.pending.iter().all(VecDeque::is_empty) && !self.any_backlog()
    }

    /// Record a delivery observed at `now`; its credit goes back to the
    /// `input` that launched it — `None` when a corrupted header no longer
    /// names a launched id, and the credit is lost with it.
    fn deliver(&mut self, now: Cycle, d: Delivery, input: Option<usize>) {
        self.outcome.deliveries.push(d);
        if let Some(i) = input {
            self.outstanding[i] -= 1;
            if let Some(senders) = &mut self.senders {
                senders[i].return_credit(now);
            }
        }
    }

    /// Final credit-conservation audit: what each sender believes is
    /// outstanding against the testbench ledger.
    fn audit(&self) -> Result<(), SimError> {
        for (i, sender) in self.senders.iter().flatten().enumerate() {
            let outstanding = u32::try_from(self.outstanding[i]).unwrap_or(0);
            sender.audit(outstanding, &format!("{} input {i}", self.outcome.org))?;
        }
        Ok(())
    }

    /// The outcome, with the model's own counters and recovery ledger.
    fn finish(mut self, sw: &dyn Switch) -> RunOutcome {
        if self.outcome.error.is_none() {
            self.outcome.error = self.audit().err();
        }
        self.outcome.counters = sw.counters();
        self.outcome.recovery = sw.recovery_report();
        self.outcome
    }
}

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
    // Faults strike the pipelined RTL only: the other organizations stay
    // clean references, so any effective upset becomes a divergence.
    let mut plan = sc.fault.filter(|_| word == WordOrg::Pipelined).map(|f| {
        let cfg = SwitchConfig::symmetric(n, sc.slots);
        FaultPlan::generate(FaultKind::BankUpset, f.rate, sc.horizon, &cfg, f.seed)
    });
    let mut due_faults: Vec<Fault> = Vec::new();
    let mut col = OutputCollector::new(n, s);
    // Per input: the words of the launched packet not yet on the wire.
    let mut current: Vec<std::vec::IntoIter<u64>> = vec![Vec::new().into_iter(); n];
    let mut wire: Vec<Option<u64>> = vec![None; n];
    let mut id_input: HashMap<u64, usize> = HashMap::new();
    let mut drive = Drive::new(sc, org, &mut *sw, probe);
    while let Some(now) = drive.next_cycle(
        &mut *sw,
        current.iter().all(|words| words.as_slice().is_empty()),
        plan.as_ref().and_then(FaultPlan::next_due),
    ) {
        if let Some(plan) = &mut plan {
            plan.take_due_into(now, &mut due_faults);
            for f in due_faults.drain(..) {
                if let FaultAction::BankUpset { stage, slot, mask } = f.action {
                    sw.inject_upset(slot.index(), stage, mask);
                }
            }
        }
        for o in drive.launch(now) {
            id_input.insert(o.id, o.input);
            debug_assert!(current[o.input].as_slice().is_empty(), "wire busy");
            current[o.input] = Packet::synth(o.id, o.input, o.dst, s, now)
                .words
                .into_iter();
        }
        for (w, words) in wire.iter_mut().zip(&mut current) {
            *w = words.next();
        }
        col.observe(now, sw.tick(&wire));
        for d in col.take() {
            if !d.verify_payload() {
                drive.outcome.payload_failures += 1;
            }
            let delivery = Delivery {
                id: d.id,
                output: d.output.index(),
                first: d.first_cycle,
                last: d.last_cycle,
            };
            drive.deliver(now, delivery, id_input.get(&d.id).copied());
        }
    }
    drive.finish(&*sw)
}

fn run_behavioral(sc: &Scenario, probe: Option<ProbeHandle>) -> RunOutcome {
    let cfg = SwitchConfig::symmetric(sc.n, sc.slots).with_policy(sc.policy);
    let mut sw = BehavioralSwitch::new(cfg);
    // The behavioral model numbers packets internally; recover scenario
    // ids through the (input, birth) pair — unique because each input
    // launches at most one header per cycle.
    let mut key_to_id: HashMap<(usize, Cycle), u64> = HashMap::new();
    let mut arrivals: Vec<Option<usize>> = vec![None; sc.n];
    let mut drive = Drive::new(sc, Org::Behavioral, &mut sw, probe);
    // A cell arrives whole: no wire is ever mid-packet, and the model's
    // fine-grained horizon (in-flight transmissions, queued write/read
    // schedules) is all that bounds a jump.
    while let Some(now) = drive.next_cycle(&mut sw, true, None) {
        arrivals.fill(None);
        for o in drive.launch(now) {
            debug_assert!(sw.input_free(o.input), "launch while input busy");
            arrivals[o.input] = Some(o.dst);
            key_to_id.insert((o.input, now), o.id);
        }
        for d in sw.tick(&arrivals) {
            let id = *key_to_id
                .get(&(d.input, d.birth))
                .expect("departure for a packet that was never launched");
            let delivery = Delivery {
                id,
                output: d.output,
                first: d.read_start + 1,
                last: d.done,
            };
            if d.output_was_idle {
                drive.outcome.idle_head_latencies.push(d.head_latency());
            }
            drive.deliver(now, delivery, Some(d.input));
        }
    }
    drive.finish(&sw)
}

#[cfg(test)]
mod tests {
    use super::*;

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
