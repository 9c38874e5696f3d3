//! Drivers: replay one [`Scenario`] against each memory organization.
//!
//! All four organizations see the *same* offered schedule through the
//! same drive loop (the internal `Drive`, over `dyn Switch`): in credited
//! mode each input holds a [`CreditedInput`] sender whose credits return
//! when *that organization* delivers the packet's tail word, so
//! backpressure timing is native to each model; in open mode packets
//! launch at exactly `Offer::at`. Word-level organizations are fed word
//! by word on the input wires and framed word by word as they leave; the
//! behavioral model is fed per-cell arrivals and reports departures
//! directly. The bookkeeping is indexed, not hashed, and allocated once per
//! run: cursors into the offers, a table of who launched what indexed by
//! packet id, and the launch log itself as the `(birth, input) → id`
//! index. Work is paid per event, not per port per cycle: the inputs are
//! scanned only from the earliest upstream offer's cycle on, only senders
//! holding an offer are polled, and only inputs with a packet on the wire
//! have a word computed.

use crate::scenario::{Offer, Scenario};
use simkernel::bits;
use simkernel::cell::Packet;
use simkernel::error::SimError;
use simkernel::ids::Cycle;
use switch_core::behavioral::BehavioralSwitch;
use switch_core::config::SwitchConfig;
use switch_core::credit::CreditedInput;
use switch_core::events::SwitchCounters;
use switch_core::faultsim::{Fault, FaultAction, FaultKind, FaultPlan};
use switch_core::recovery::{RecoveryConfig, RecoveryReport};
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

/// Largest packet id a scenario may carry: the word-level drivers index
/// their id table by id. Generated scenarios number offers `1..=len`.
const MAX_PACKET_ID: u64 = 1 << 20;

/// The organization-independent skeleton of a run: turns the scenario's
/// offers into per-cycle launches (under credit backpressure or open-loop
/// timing), decides which cycles are ticked and which are jumped and when
/// the run is over, and keeps the ledger of launches and deliveries.
/// `run_word` and `run_behavioral` supply what differs — how a launch
/// reaches the inputs and how outputs become [`Delivery`]s.
struct Drive<'a> {
    /// Packet time in cycles.
    s: Cycle,
    offers: &'a [Offer],
    /// Per input, the index in `offers` of its next offer still upstream
    /// of its sender, and per offer the one after it on the same input
    /// (`offers.len()`: none): the schedule as per-input queues.
    head: Vec<usize>,
    next: Vec<usize>,
    /// The earliest `at` among the offers still upstream of the senders
    /// (`Cycle::MAX`: none). Heads move only in `launch`, which recomputes
    /// it; before it, no offer is due.
    upstream_at: Cycle,
    /// Credited: the inputs whose sender holds an offer, waiting for the
    /// link or a credit.
    queued: u128,
    /// One credited sender per input (empty open-loop).
    senders: Vec<CreditedInput<Offer>>,
    next_free: Vec<Cycle>,
    /// Per input: launches minus deliveries of ids it launched (the
    /// testbench's own ledger, audited against the senders' at the end).
    outstanding: Vec<i64>,
    cap: Cycle,
    grace: Cycle,
    /// Cycles jumped and ticked: `finish` folds them into the
    /// process-wide pair of `simkernel::horizon`, once.
    skipped: u64,
    executed: u64,
    outcome: RunOutcome,
}

impl<'a> Drive<'a> {
    /// A run of `sc` on `sw`, with `probe` (if any) attached to the model
    /// and to the credited senders.
    fn new(sc: &'a Scenario, org: Org, sw: &mut dyn Switch, probe: Option<ProbeHandle>) -> Self {
        let top = sc.offers.iter().map(|o| o.id).max().unwrap_or(0);
        assert!(
            top <= MAX_PACKET_ID,
            "packet id {top} is above MAX_PACKET_ID ({MAX_PACKET_ID})"
        );
        let (mut head, mut next) = (vec![sc.offers.len(); sc.n], vec![0; sc.offers.len()]);
        for (k, o) in sc.offers.iter().enumerate().rev() {
            next[k] = std::mem::replace(&mut head[o.input], k);
        }
        let fronts = head.iter().filter_map(|&k| sc.offers.get(k));
        let upstream_at = fronts.map(|o| o.at).min().unwrap_or(Cycle::MAX);
        let senders = (0..sc.n)
            .filter(|_| sc.credited)
            .map(|i| {
                let mut s: CreditedInput<Offer> = CreditedInput::new(sc.credits_per_input(), 1);
                if let Some(p) = &probe {
                    s.attach_probe(p.clone(), i);
                }
                s
            })
            .collect();
        if let Some(p) = probe {
            sw.attach_probe(p);
        }
        Drive {
            s: sc.stages() as Cycle,
            offers: &sc.offers,
            head,
            next,
            upstream_at,
            queued: 0,
            senders,
            next_free: vec![0; sc.n],
            outstanding: vec![0; sc.n],
            cap: sc.horizon + DRAIN_CAP,
            grace: 0,
            skipped: 0,
            executed: 0,
            outcome: RunOutcome {
                org,
                launches: Vec::with_capacity(sc.offers.len()),
                deliveries: Vec::with_capacity(sc.offers.len()),
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
    /// must see for a reason of its own (a scheduled fault, a departure).
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
            let launched_all = self.outcome.launches.len() == self.offers.len();
            let idle = launched_all && wires_idle && sw.is_quiescent();
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
                    self.skipped += target - now;
                    sw.jump_to(target);
                    continue;
                }
            }
            self.executed += 1;
            return Some(now);
        }
    }

    /// The packets whose headers enter the switch at `now` (at most one
    /// per input, in input order): the launches this call recorded, which
    /// keeps the log in the `(at, input)` order `launched_id` searches.
    fn launch(&mut self, now: Cycle) -> &[Launch] {
        let mark = self.outcome.launches.len();
        debug_assert!(self.outcome.launches.last().is_none_or(|l| l.at < now));
        if now >= self.upstream_at {
            self.upstream_at = Cycle::MAX;
            for i in 0..self.head.len() {
                // Credited, every due offer joins its sender; open-loop, an
                // offer launches at exactly `at`.
                if let Some(sender) = self.senders.get_mut(i) {
                    while let Some(o) = self.offers.get(self.head[i]).filter(|o| o.at <= now) {
                        sender.offer(*o);
                        self.queued |= 1 << i;
                        self.head[i] = self.next[self.head[i]];
                    }
                } else if let Some(&o) = self.offers.get(self.head[i]).filter(|o| o.at == now) {
                    assert!(
                        self.next_free[i] <= now,
                        "schedule violates wire framing on input {i} at cycle {now}"
                    );
                    self.head[i] = self.next[self.head[i]];
                    self.start(i, o, now);
                }
                if let Some(o) = self.offers.get(self.head[i]) {
                    self.upstream_at = self.upstream_at.min(o.at);
                }
            }
        }
        // A sender releases an offer once the link is free and a credit
        // allows. An empty one is not polled: it would grant nothing and
        // emit nothing, and the returns it would absorb wait for its next
        // poll, the only one that can grant.
        for i in bits(self.queued) {
            if self.next_free[i] > now {
                continue;
            }
            let released = self.senders[i].poll(now);
            let waiting = self.senders[i].backlog() > 0;
            if !waiting {
                self.queued &= !(1 << i);
            }
            // Link free, work queued, zero credits: the shared buffer's
            // reservation is exhausted.
            self.outcome.stalls += u64::from(released.is_none() && waiting);
            if let Some(o) = released {
                self.start(i, o, now);
            }
        }
        self.outcome.same_cycle_starts += u64::from(self.outcome.launches.len() - mark >= 2);
        &self.outcome.launches[mark..]
    }

    /// Offer `o`'s header enters the switch on input `i` at `now`.
    fn start(&mut self, i: usize, o: Offer, now: Cycle) {
        self.next_free[i] = now + self.s;
        self.outstanding[i] += 1;
        self.outcome.launches.push(Launch {
            id: o.id,
            input: i,
            dst: o.dst,
            at: now,
        });
    }

    /// Where the clock may jump from `now` without missing anything: the
    /// model's `next_event` (quiescent: `limit`), the next pending offer or
    /// `limit`, whichever is first. `None` — tick densely — when the model
    /// changes state this cycle, a backlog is stalling on credits (stall
    /// cycles are counted per cycle), or that point is `now`.
    fn jump_target(&self, now: Cycle, next_event: Option<Cycle>, limit: Cycle) -> Option<Cycle> {
        if self.queued != 0 || next_event.is_some_and(|e| e <= now) {
            return None;
        }
        // Offers still upstream of the senders: fronts are always `>= now`
        // (earlier ones were transferred or launched by previous polls).
        let target = next_event.unwrap_or(limit).min(self.upstream_at).min(limit);
        (target > now).then_some(target)
    }

    /// Record a delivery observed at `now`; its credit goes back to the
    /// `input` that launched it — `None` when a corrupted header no longer
    /// names a launched id, and the credit is lost with it.
    fn deliver(&mut self, now: Cycle, d: Delivery, input: Option<usize>) {
        self.outcome.deliveries.push(d);
        if let Some(i) = input {
            self.outstanding[i] -= 1;
            if let Some(sender) = self.senders.get_mut(i) {
                sender.return_credit(now);
            }
        }
    }

    /// The outcome, with the model's own counters and recovery ledger,
    /// after the final credit-conservation audit: what each sender believes
    /// is outstanding against the testbench ledger.
    fn finish(mut self, sw: &dyn Switch) -> RunOutcome {
        for (i, sender) in self.senders.iter().enumerate() {
            let audit = sender.audit(
                self.outstanding[i],
                &format!("{} input {i}", self.outcome.org),
            );
            self.outcome.error = self.outcome.error.take().or(audit.err());
        }
        simkernel::horizon::note_skipped(self.skipped);
        simkernel::horizon::note_executed(self.executed);
        self.outcome.counters = sw.counters();
        self.outcome.recovery = sw.recovery_report();
        self.outcome
    }
}

/// Which input launched which packet, indexed by id (at most
/// [`MAX_PACKET_ID`], which `Drive::new` checks): `None` until the packet
/// launches. A delivered header that names no offered id (corrupted) or
/// an unlaunched one returns no credit; one that names another launched
/// id returns that input's.
struct IdTable(Vec<Option<usize>>);

impl IdTable {
    fn new(offers: &[Offer]) -> IdTable {
        let len = offers.iter().map(|o| o.id as usize + 1).max().unwrap_or(0);
        let mut offered = vec![false; len];
        for o in offers {
            let again = std::mem::replace(&mut offered[o.id as usize], true);
            assert!(!again, "two offers carry the same packet id");
        }
        IdTable(vec![None; len])
    }

    fn launch(&mut self, id: u64, input: usize) {
        self.0[id as usize] = Some(input);
    }

    fn input_of(&self, id: u64) -> Option<usize> {
        *self.0.get(usize::try_from(id).ok()?)?
    }
}

/// One output link's packet in progress: the link's words framed into
/// [`Delivery`]s as they leave the switch, keeping only what the run reads.
#[derive(Clone, Copy, Default)]
struct Frame {
    first: Cycle,
    /// Words seen so far; 0 between packets.
    seen: usize,
    id: u64,
    /// `DeliveredPacket::verify_payload` of the words so far: the header
    /// addressed this link, the others are `Packet::payload_word(id, k)`.
    ok: bool,
}

impl Frame {
    /// The word of cycle `now` on this link, `j`, of `s`-word packets: on
    /// a packet's last word its delivery, with `ok` its payload verdict.
    fn observe(&mut self, s: usize, now: Cycle, j: usize, word: Option<u64>) -> Option<Delivery> {
        let Some(word) = word else {
            assert!(
                self.seen == 0,
                "output link {j} idled mid-packet at cycle {now}"
            );
            return None;
        };
        if self.seen == 0 {
            let (mask, id) = Packet::decode_header_any(word);
            (self.first, self.id, self.ok) = (now, id, mask & (1 << j) != 0);
        } else {
            self.ok &= word == Packet::payload_word(self.id, self.seen);
        }
        self.seen += 1;
        if self.seen == s {
            self.seen = 0;
        }
        (self.seen == 0).then_some(Delivery {
            id: self.id,
            output: j,
            first: self.first,
            last: now,
        })
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
    let mut frames = vec![Frame::default(); n];
    let mut drive = Drive::new(sc, org, &mut *sw, probe);
    let mut ids = IdTable::new(&sc.offers);
    // Per input: id and destination of the launched packet and which word
    // (header, then the synthetic payload) is next onto the wire. Only the
    // inputs in `on_wire` have one; those in `tails` sent their last word
    // in the cycle before, and their wire slot is cleared once.
    let mut sending: Vec<(u64, usize, usize)> = vec![(0, 0, 0); n];
    let mut wire: Vec<Option<u64>> = vec![None; n];
    let (mut on_wire, mut tails) = (0u128, 0u128);
    while let Some(now) = drive.next_cycle(
        &mut *sw,
        on_wire == 0,
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
        for l in drive.launch(now) {
            ids.launch(l.id, l.input);
            debug_assert!(on_wire & 1 << l.input == 0, "wire busy");
            sending[l.input] = (l.id, l.dst, 0);
            on_wire |= 1 << l.input;
        }
        for i in bits(tails) {
            wire[i] = None;
        }
        tails = 0;
        for i in bits(on_wire) {
            let (id, dst, k) = &mut sending[i];
            wire[i] = Some(match *k {
                0 => Packet::encode_header(*dst, *id),
                k => Packet::payload_word(*id, k),
            });
            *k += 1;
            if *k == s {
                (on_wire, tails) = (on_wire & !(1 << i), tails | 1 << i);
            }
        }
        for (j, &word) in sw.tick(&wire).iter().enumerate() {
            if let Some(delivery) = frames[j].observe(s, now, j, word) {
                drive.outcome.payload_failures += u64::from(!frames[j].ok);
                drive.deliver(now, delivery, ids.input_of(delivery.id));
            }
        }
    }
    drive.finish(&*sw)
}

/// The scenario id of the packet `input` launched at `birth` (the
/// behavioral model numbers packets internally): each input launches at
/// most one header per cycle, and `launches` is in `(at, input)` order.
fn launched_id(launches: &[Launch], input: usize, birth: Cycle) -> u64 {
    let k = launches.binary_search_by_key(&(birth, input), |l| (l.at, l.input));
    launches[k.expect("departure for a packet that was never launched")].id
}

fn run_behavioral(sc: &Scenario, probe: Option<ProbeHandle>) -> RunOutcome {
    let cfg = SwitchConfig::symmetric(sc.n, sc.slots).with_policy(sc.policy);
    let mut sw = BehavioralSwitch::new(cfg);
    let mut arrivals: Vec<Option<usize>> = vec![None; sc.n];
    let mut drive = Drive::new(sc, Org::Behavioral, &mut sw, probe);
    // A cell arrives whole: no wire is ever mid-packet, and the model's
    // horizon (queued write/read schedules) bounds a jump. A jump replays
    // the tails it crosses, but a delivery returns its credit in its own
    // cycle, so the next tail bounds the jump too.
    while let Some(now) = {
        let tail = sw.next_tail();
        drive.next_cycle(&mut sw, true, tail)
    } {
        arrivals.fill(None);
        for l in drive.launch(now) {
            debug_assert!(sw.input_free(l.input), "launch while input busy");
            arrivals[l.input] = Some(l.dst);
        }
        for d in sw.tick(&arrivals) {
            let delivery = Delivery {
                id: launched_id(&drive.outcome.launches, d.input, d.birth),
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
    use switch_core::rtl::OutputCollector;

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

    /// What the links of `word` carry, cycle by cycle, when `sc` (open
    /// loop) is replayed densely from `Packet::synth` words with its bank
    /// upsets injected and no recovery armed.
    fn recorded_outputs(sc: &Scenario, word: WordOrg) -> Vec<Vec<Option<u64>>> {
        let (n, s) = (sc.n, sc.stages());
        let mut sw = word.build(n, sc.slots, RecoveryConfig::default(), sc.policy);
        let cfg = SwitchConfig::symmetric(n, sc.slots);
        let mut plan = sc
            .fault
            .map(|f| FaultPlan::generate(FaultKind::BankUpset, f.rate, sc.horizon, &cfg, f.seed));
        let mut due = Vec::new();
        let mut sending: Vec<std::vec::IntoIter<u64>> = vec![Vec::new().into_iter(); n];
        let mut stream = Vec::new();
        // 64 packet times past the horizon drain any buffer a scenario has.
        for now in 0..sc.horizon + 64 * s as Cycle {
            if let Some(plan) = &mut plan {
                plan.take_due_into(now, &mut due);
                for f in due.drain(..) {
                    if let FaultAction::BankUpset { stage, slot, mask } = f.action {
                        sw.inject_upset(slot.index(), stage, mask);
                    }
                }
            }
            for o in sc.offers.iter().filter(|o| o.at == now) {
                sending[o.input] = Packet::synth(o.id, o.input, o.dst, s, now)
                    .words
                    .into_iter();
            }
            let wire: Vec<Option<u64>> = sending.iter_mut().map(Iterator::next).collect();
            stream.push(sw.tick(&wire).to_vec());
        }
        stream
    }

    /// `(id, output, first, last, payload ok)` per packet, in link order
    /// within a cycle.
    type Framed = Vec<(u64, usize, Cycle, Cycle, bool)>;

    fn through_collector(stream: &[Vec<Option<u64>>], s: usize) -> Framed {
        let mut col = OutputCollector::new(stream[0].len(), s);
        for (now, out) in stream.iter().enumerate() {
            col.observe(now as Cycle, out);
        }
        let row = |d: &switch_core::rtl::DeliveredPacket| {
            let (first, last) = (d.first_cycle, d.last_cycle);
            (d.id, d.output.index(), first, last, d.verify_payload())
        };
        col.take().iter().map(row).collect()
    }

    fn through_frames(stream: &[Vec<Option<u64>>], s: usize) -> Framed {
        let mut frames = vec![Frame::default(); stream[0].len()];
        let mut rows = Vec::new();
        for (now, out) in stream.iter().enumerate() {
            for (j, &word) in out.iter().enumerate() {
                if let Some(d) = frames[j].observe(s, now as Cycle, j, word) {
                    rows.push((d.id, d.output, d.first, d.last, frames[j].ok));
                }
            }
        }
        rows
    }

    #[test]
    fn frames_agree_with_the_output_collector_on_recorded_streams() {
        // Upsets with no recovery armed: some delivered payload word
        // really is corrupt, so the `ok` column is exercised both ways.
        let mut corrupt = 0;
        for seed in 0..6u64 {
            let mut sc = Scenario::generate_base(seed).with_fault(0.3, seed ^ 0xFA17);
            sc.credited = false;
            for word in WordOrg::ALL {
                let stream = recorded_outputs(&sc, word);
                let rows = through_frames(&stream, sc.stages());
                assert_eq!(
                    rows,
                    through_collector(&stream, sc.stages()),
                    "seed {seed} {word}"
                );
                assert!(!rows.is_empty(), "seed {seed} {word}: nothing delivered");
                corrupt += rows.iter().filter(|r| !r.4).count();
                // The driver strikes the pipelined RTL only, and must put
                // the same words on its wires as this dense replay did.
                if word == WordOrg::Pipelined {
                    let r = run(&sc, Org::Pipelined);
                    let same = |(d, row): (&Delivery, &(u64, usize, Cycle, Cycle, bool))| {
                        (d.id, d.output, d.first, d.last) == (row.0, row.1, row.2, row.3)
                    };
                    assert_eq!(r.deliveries.len(), rows.len(), "seed {seed}");
                    assert!(r.deliveries.iter().zip(&rows).all(same), "seed {seed}");
                    let failed = rows.iter().filter(|r| !r.4).count() as u64;
                    assert_eq!(r.payload_failures, failed, "seed {seed}");
                }
            }
        }
        assert!(corrupt > 0, "no corrupt payload ever reached a link");
    }

    #[test]
    fn frames_agree_with_the_output_collector_on_bad_headers() {
        let s = 4;
        let good = Packet::synth(5, 0, 0, s, 0).words;
        // Addressed to link 1, seen on link 0.
        let misrouted = Packet::synth(7, 0, 1, s, 0).words;
        // One id bit flipped in the header: the payload is another packet's.
        let mut renamed = Packet::synth(9, 0, 1, s, 0).words;
        renamed[0] = Packet::encode_header(1, 9 ^ 4);
        let mut stream = vec![vec![None, None]];
        for k in 0..s {
            stream.push(vec![Some(misrouted[k]), Some(renamed[k])]);
        }
        for &w in &good {
            stream.push(vec![Some(w), None]);
        }
        let rows = through_frames(&stream, s);
        assert_eq!(rows, through_collector(&stream, s));
        let expected = vec![
            (7, 0, 1, 4, false),
            (9 ^ 4, 1, 1, 4, false),
            (5, 0, 5, 8, true),
        ];
        assert_eq!(rows, expected);
    }

    #[test]
    #[should_panic(expected = "output link 1 idled mid-packet at cycle 2")]
    fn a_link_that_drops_a_word_is_caught() {
        let words = Packet::synth(3, 0, 1, 4, 0).words;
        let stream = vec![
            vec![None, Some(words[0])],
            vec![None, Some(words[1])],
            vec![None, None],
        ];
        through_frames(&stream, 4);
    }

    #[test]
    fn id_table_returns_the_input_of_launched_ids_only() {
        let mut ids = IdTable::new(&tiny(true).offers);
        assert_eq!(ids.input_of(1), None, "offered, not launched yet");
        ids.launch(2, 1);
        assert_eq!(ids.input_of(2), Some(1));
        assert_eq!(ids.input_of(1), None, "still upstream");
        assert_eq!(ids.input_of(3), None, "never offered: a corrupted header");
        ids.launch(1, 0);
        assert_eq!(ids.input_of(1), Some(0));
    }

    #[test]
    fn id_table_is_indexed_by_id() {
        let mut sc = tiny(true);
        sc.offers[1].id = 9;
        let mut ids = IdTable::new(&sc.offers);
        ids.launch(9, 1);
        for (id, input) in [(0, None), (1, None), (5, None), (9, Some(1)), (10, None)] {
            assert_eq!(ids.input_of(id), input, "id {id}");
        }
        assert_eq!(
            ids.input_of(u64::MAX),
            None,
            "a corrupted header past the table"
        );
    }

    #[test]
    #[should_panic(expected = "packet id 1048577 is above MAX_PACKET_ID (1048576)")]
    fn an_id_above_the_table_bound_is_rejected() {
        let mut sc = tiny(false);
        sc.offers[1].id = MAX_PACKET_ID + 1;
        run(&sc, Org::Behavioral);
    }

    #[test]
    #[should_panic(expected = "two offers carry the same packet id")]
    fn duplicate_offer_ids_are_rejected() {
        let mut sc = tiny(false);
        sc.offers[1].id = sc.offers[0].id;
        run(&sc, Org::Pipelined);
    }

    #[test]
    fn the_launch_log_is_the_behavioral_id_index() {
        let r = run(&tiny(true), Org::Behavioral);
        for l in &r.launches {
            assert_eq!(launched_id(&r.launches, l.input, l.at), l.id);
        }
    }

    #[test]
    #[should_panic(expected = "departure for a packet that was never launched")]
    fn a_departure_nobody_launched_panics() {
        let r = run(&tiny(false), Org::Behavioral);
        // Input 1 launched at cycle 2, not at cycle 0.
        launched_id(&r.launches, 1, 0);
    }
}
