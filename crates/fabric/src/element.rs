//! Element adapters: every `core` organization behind one windowed
//! interface.
//!
//! A fabric node is anything that can consume cell arrivals on its input
//! ports and produce cell emissions on its output ports, advanced over a
//! span `[from, to)` of one *or many* sync windows per call. The runtime
//! guarantees the adapter two invariants, both consequences of the
//! topology's single-driver discipline and the conservative run-ahead
//! rule (lookahead = link latency, see `runtime`):
//!
//! 1. `inbox` holds **every** arrival with `from <= cycle < to`, sorted
//!    by `(cycle, port)` — no late arrival for this span can exist
//!    anywhere in the system when `run_window` is called;
//! 2. `(cycle, port)` pairs are unique: an input port sees at most one
//!    cell per cycle, and for the packet-paced organizations (behavioral
//!    and word-level, where a cell occupies a link for `S` cycles)
//!    consecutive arrivals on one port are at least `S` cycles apart.
//!
//! In return the adapter promises that every emission it reports has
//! `from <= cycle < to` — emissions are published exactly once, by the
//! call that simulates their cycle, so a downstream element (whose
//! matching arrival lands at `cycle + latency`, i.e. in a *later* window)
//! can never observe a gap — and that splitting a span into several calls
//! changes nothing: one `run_window(0, kL)` emits exactly what `k`
//! single-window calls emit, cycle-ordered on every output port (the
//! order *across* ports within `outbox` is unspecified).
//!
//! Three adapters ship:
//!
//! - [`ScalarElement`] — the slot-level shared-buffer element: the zoo's
//!   shared-buffer switch ([`SharedBuffer`]) with its queues keyed by the
//!   route table, plus a skip over cycles its empty pool cannot use. A
//!   cell costs one cycle per hop.
//! - [`BehavioralElement`] — a real [`BehavioralSwitch`] per node: the
//!   paper's pipelined-memory switch at cell level, with cut-through,
//!   read-priority arbitration and the shared slot pool. The clock is
//!   the switch's word clock; a cell occupies a link for `S = 2k` cycles.
//!   Each cell is its packet's payload, stored once, in the switch, and
//!   handed back with that packet's departure: no shadow queue, so no key
//!   check that a departure found its own cell.
//! - [`WordElement`] — a word-level RTL organization per node (any
//!   [`WordOrg`], behind [`WordSwitch`]): a cell travels in the words of
//!   its own `S`-word packet — header, then `src`, `dst` and `birth` — and
//!   is decoded from them at the output link, so every control *and data*
//!   word of every hop is simulated and no map of ids to cells is kept.

use simkernel::cell::{Cell, Packet};
use simkernel::horizon::{advance_tallied, note_executed, note_skipped};
use simkernel::ids::Cycle;
use simkernel::SharedBuffer;
use std::sync::Arc;
use switch_core::behavioral::BehavioralSwitch;
use switch_core::config::SwitchConfig;
use switch_core::{PolicyKind, RecoveryConfig, WordOrg, WordSwitch};

/// A cell landing on an element input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Cycle the cell arrives (header cycle for packet-paced elements).
    pub cycle: Cycle,
    /// Local input port.
    pub port: u16,
    /// The cell.
    pub cell: Cell,
}

/// A cell leaving an element output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Emission {
    /// Cycle the cell departs (tail cycle for packet-paced elements).
    pub cycle: Cycle,
    /// Local output port.
    pub port: u16,
    /// The cell.
    pub cell: Cell,
}

/// One fabric node: a switch element advanced span by span.
pub trait FabricElement: Send {
    /// Simulate cycles `[from, to)` — `to − from` may span many sync
    /// windows, and the result must not depend on how the runtime cuts
    /// time into calls. `inbox` is the complete, `(cycle, port)`-sorted
    /// arrival set for the span; emissions (all with `from <= cycle <
    /// to`) are appended to `outbox`.
    fn run_window(&mut self, from: Cycle, to: Cycle, inbox: &[Arrival], outbox: &mut Vec<Emission>);

    /// Cells currently buffered inside the element.
    fn occupancy(&self) -> u64;

    /// Cells admitted so far and not lost since: each one has been
    /// emitted once or is still inside.
    fn accepted(&self) -> u64;

    /// Cells lost so far: refused at admission, or lost inside by a core
    /// that can lose an admitted packet (the word-level ones count every
    /// loss class). Each offered cell is counted once, in `accepted` or
    /// here, and a dropped cell is never emitted.
    fn dropped(&self) -> u64;

    /// True when the element holds no cells and no in-flight words.
    fn is_idle(&self) -> bool;
}

/// Which organization every node of a fabric instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementKind {
    /// Slot-level shared-buffer element (1 cycle per cell per hop);
    /// `None` = unbounded pool.
    Scalar {
        /// Shared pool capacity in cells.
        capacity: Option<usize>,
    },
    /// Cell-level behavioral pipelined-memory switch (paper defaults:
    /// cut-through, read priority, static pool).
    Behavioral {
        /// Shared pool capacity in packet slots.
        slots: usize,
    },
    /// Word-level pipelined-memory RTL (every bank wave simulated).
    WordRtl {
        /// Shared pool capacity in packet slots.
        slots: usize,
    },
    /// Word-level wide-memory (fig. 3) RTL.
    WordWide {
        /// Shared pool capacity in packet slots.
        slots: usize,
    },
    /// Word-level interleaved-bank RTL (one packet per bank).
    WordIbank {
        /// Bank count (= packet slots).
        banks: usize,
    },
}

impl ElementKind {
    /// Short report label.
    pub fn label(&self) -> &'static str {
        match self {
            ElementKind::Scalar { .. } => "scalar",
            ElementKind::Behavioral { .. } => "behavioral",
            ElementKind::WordRtl { .. } => "word-rtl",
            ElementKind::WordWide { .. } => "word-wide",
            ElementKind::WordIbank { .. } => "word-ibank",
        }
    }

    /// Cycles one cell occupies a link at radix `k`: 1 for the scalar
    /// element, the packet quantum `S = 2k` for the word-clocked
    /// organizations.
    pub fn cell_time(&self, k: usize) -> u64 {
        match self {
            ElementKind::Scalar { .. } => 1,
            _ => 2 * k as u64,
        }
    }

    /// Build one element of radix `k` with routing table `route`
    /// (`route[dst]` = local output port toward global terminal `dst`).
    pub fn build(&self, k: usize, route: Arc<[u16]>) -> Box<dyn FabricElement> {
        let (org, slots) = match *self {
            ElementKind::Scalar { capacity } => {
                return Box::new(ScalarElement::new(k, capacity, route))
            }
            ElementKind::Behavioral { slots } => {
                return Box::new(BehavioralElement::new(k, slots, route))
            }
            ElementKind::WordRtl { slots } => (WordOrg::Pipelined, slots),
            ElementKind::WordWide { slots } => (WordOrg::Wide, slots),
            ElementKind::WordIbank { banks } => (WordOrg::Interleaved, banks),
        };
        let core = org.build(k, slots, RecoveryConfig::default(), PolicyKind::Static);
        Box::new(WordElement::new(core, k, route))
    }
}

// ---------------------------------------------------------------------
// Scalar element
// ---------------------------------------------------------------------

/// The slot-level shared-buffer element: a [`SharedBuffer`] of `capacity`
/// cells keyed by the route table, stepped one cycle at a time.
pub struct ScalarElement {
    buf: SharedBuffer,
    /// Next cycle to simulate (fast-forward cursor).
    cursor: Cycle,
}

impl ScalarElement {
    /// A `k×k` element with shared pool `capacity` (`None` = unbounded).
    pub fn new(k: usize, capacity: Option<usize>, route: Arc<[u16]>) -> Self {
        ScalarElement {
            buf: SharedBuffer::new(k, capacity, route),
            cursor: 0,
        }
    }
}

impl FabricElement for ScalarElement {
    fn run_window(
        &mut self,
        from: Cycle,
        to: Cycle,
        inbox: &[Arrival],
        outbox: &mut Vec<Emission>,
    ) {
        debug_assert!(self.cursor <= from);
        self.cursor = self.cursor.max(from);
        let mut next = 0usize; // inbox read pointer
        let (mut executed, mut skipped) = (0u64, 0u64);
        while self.cursor < to {
            // Fast-forward: with an empty pool nothing can depart, so an
            // arrival-free span is dead time — jump straight to the next
            // arrival (or the window end).
            if self.buf.occupancy() == 0 {
                let target = inbox.get(next).map_or(to, |a| a.cycle.min(to));
                if target > self.cursor {
                    skipped += target - self.cursor;
                    self.cursor = target;
                    if self.cursor >= to {
                        break;
                    }
                }
            }
            let c = self.cursor;
            // This cycle's arrivals in port order (inbox sort), then one
            // departure per output.
            while let Some(a) = inbox.get(next).filter(|a| a.cycle == c) {
                self.buf.offer(a.cell);
                next += 1;
            }
            self.buf.depart(|j, cell| {
                outbox.push(Emission {
                    cycle: c,
                    port: j as u16,
                    cell,
                })
            });
            executed += 1;
            self.cursor = c + 1;
        }
        // One add per call: the counters are process-global, and a
        // per-cycle RMW makes every shard fight over their cache line.
        note_executed(executed);
        note_skipped(skipped);
        debug_assert_eq!(next, inbox.len(), "arrival beyond the window");
    }

    fn occupancy(&self) -> u64 {
        self.buf.occupancy() as u64
    }

    fn accepted(&self) -> u64 {
        self.buf.accepted()
    }

    fn dropped(&self) -> u64 {
        self.buf.dropped()
    }

    fn is_idle(&self) -> bool {
        self.buf.occupancy() == 0
    }
}

// ---------------------------------------------------------------------
// Behavioral element
// ---------------------------------------------------------------------

/// A real pipelined-memory switch per node, at cell level.
///
/// Each cell is its packet's payload in the switch's store
/// ([`BehavioralSwitch::tick_carrying`]) and leaves with that packet's
/// departure ([`BehavioralSwitch::carried`]). No copy of the cell is kept
/// outside the switch, so no departure can be matched to the wrong cell:
/// a packet lost inside (evicted, or overrun, which §3.2 rules out) takes
/// its cell with it, and [`FabricElement::dropped`] counts it.
pub struct BehavioralElement {
    sw: BehavioralSwitch<Cell>,
    route: Arc<[u16]>,
}

impl BehavioralElement {
    /// A `k×k` behavioral switch with `slots` packet slots, paper-default
    /// policies.
    pub fn new(k: usize, slots: usize, route: Arc<[u16]>) -> Self {
        BehavioralElement {
            sw: BehavioralSwitch::carrying(SwitchConfig::symmetric(k, slots)),
            route,
        }
    }

    /// Move the switch's completed departures, each with its cell, into
    /// `outbox`; called after every arrival group, so the log stays short.
    fn harvest(&mut self, outbox: &mut Vec<Emission>) {
        let carried = self.sw.carried();
        for (d, &cell) in self.sw.departures().iter().zip(carried) {
            outbox.push(Emission {
                cycle: d.done,
                port: d.output as u16,
                cell,
            });
        }
        self.sw.forget_departures();
    }
}

// SAFETY: the only non-`Send` state in `BehavioralSwitch` is the probe
// handle (`Option<Rc<RefCell<dyn Probe>>>`) inside its control plane
// (`core::ctl::ControlPlane::probe`, private to `switch_core` and set
// only by `attach_probe`). This adapter constructs the switch itself,
// never attaches a probe and exposes no way to, so the field is always
// `None` — there is no `Rc` to race on.
unsafe impl Send for BehavioralElement {}

impl FabricElement for BehavioralElement {
    fn run_window(
        &mut self,
        from: Cycle,
        to: Cycle,
        inbox: &[Arrival],
        outbox: &mut Vec<Emission>,
    ) {
        debug_assert!(simkernel::Horizon::now(&self.sw) <= from);
        let (mut next, mut tally) = (0usize, (0, 0));
        while next < inbox.len() {
            let c = inbox[next].cycle;
            debug_assert!(c < to);
            // Event-horizon hop to the arrival cycle; the switch panics on
            // an arrival offered mid-packet.
            let (e, s) = advance_tallied(&mut self.sw, c);
            tally = (tally.0 + e, tally.1 + s);
            let group = next + inbox[next..].iter().take_while(|a| a.cycle == c).count();
            let route = &self.route;
            let offered = inbox[next..group].iter();
            self.sw.tick_carrying(offered.map(|a| {
                let out = route[a.cell.dst.index()] as usize;
                (a.port as usize, out, a.cell)
            }));
            next = group;
            self.harvest(outbox);
        }
        let (e, s) = advance_tallied(&mut self.sw, to);
        self.harvest(outbox);
        // One add per call (see `ScalarElement`).
        note_executed(tally.0 + e);
        note_skipped(tally.1 + s);
    }

    fn occupancy(&self) -> u64 {
        self.sw.occupancy() as u64
    }

    fn accepted(&self) -> u64 {
        self.sw.counters().arrived - self.dropped()
    }

    fn dropped(&self) -> u64 {
        // Every loss class, as the word-level element counts them.
        let ctr = self.sw.counters();
        ctr.arrived - ctr.departed - ctr.in_flight()
    }

    fn is_idle(&self) -> bool {
        self.sw.is_quiescent()
    }
}

// ---------------------------------------------------------------------
// Word-level element
// ---------------------------------------------------------------------

/// A word-level RTL switch per node. A cell crosses the element in its
/// own `S`-word packet: word 0 is the header (local output, cell id),
/// words 1–3 are the cell's `src`, `dst` and `birth`, and any later word
/// is 0. The cell is decoded from the first four words to leave its
/// output link, so nothing maps ids to cells and a dropped packet leaves
/// nothing behind. Every cycle of a span is ticked: the pipelined and
/// wide cores answer `Some(now)` to `next_event` whenever they hold
/// anything, the interleaved one whenever a link carries words.
pub struct WordElement {
    core: Box<dyn WordSwitch>,
    route: Arc<[u16]>,
    s: usize,
    /// Per input: the packet being clocked onto the link and the index of
    /// its next word.
    tx: Vec<Option<([u64; 4], usize)>>,
    /// Per output: the first words of the packet leaving on the link and
    /// how many of its words have left.
    rx: Vec<([u64; 4], usize)>,
    wire: Vec<Option<u64>>,
}

impl WordElement {
    /// Wrap `core` as a `k×k` fabric node.
    pub fn new(core: Box<dyn WordSwitch>, k: usize, route: Arc<[u16]>) -> Self {
        assert!(k >= 2, "word element radix {k} < 2: no room for a cell");
        WordElement {
            core,
            route,
            s: 2 * k,
            tx: vec![None; k],
            rx: vec![([0; 4], 0); k],
            wire: vec![None; k],
        }
    }
}

// SAFETY: as for `BehavioralElement` — the word cores' probe handles are
// the only non-`Send` state, and this adapter never attaches one.
unsafe impl Send for WordElement {}

impl FabricElement for WordElement {
    fn run_window(
        &mut self,
        from: Cycle,
        to: Cycle,
        inbox: &[Arrival],
        outbox: &mut Vec<Emission>,
    ) {
        assert_eq!(self.core.now(), from, "non-contiguous span");
        // Every cycle is ticked; counted once, not per cycle (see
        // `ScalarElement`).
        note_executed(to - from);
        let s = self.s;
        let mut next = 0usize;
        for c in from..to {
            while let Some(a) = inbox.get(next).filter(|a| a.cycle == c) {
                let i = a.port as usize;
                debug_assert!(self.tx[i].is_none(), "fabric pacing violated");
                let cell = a.cell;
                assert!(cell.id.0 >> 56 == 0, "{:?} overflows a header", cell.id);
                let out = self.route[cell.dst.index()] as usize;
                let header = Packet::encode_header(out, cell.id.0);
                let (src, dst) = (cell.src.index() as u64, cell.dst.index() as u64);
                self.tx[i] = Some(([header, src, dst, cell.birth], 0));
                next += 1;
            }
            for (tx, wire) in self.tx.iter_mut().zip(&mut self.wire) {
                *wire = tx.as_mut().map(|(words, k)| {
                    let word = words.get(*k).copied().unwrap_or(0);
                    *k += 1;
                    word
                });
                if tx.is_some_and(|(_, k)| k == s) {
                    *tx = None;
                }
            }
            let out = self.core.tick(&self.wire);
            for (j, (word, (words, k))) in out.iter().zip(&mut self.rx).enumerate() {
                let Some(word) = *word else {
                    debug_assert_eq!(*k, 0, "output link {j} idled mid-packet");
                    continue;
                };
                if let Some(w) = words.get_mut(*k) {
                    *w = word;
                }
                *k += 1;
                if *k == s {
                    *k = 0;
                    let id = Packet::decode_header(words[0]).1;
                    outbox.push(Emission {
                        cycle: c,
                        port: j as u16,
                        cell: Cell::new(id, words[1] as usize, words[2] as usize, words[3]),
                    });
                }
            }
        }
        debug_assert_eq!(next, inbox.len(), "arrival beyond the window");
    }

    fn occupancy(&self) -> u64 {
        // Dropped packets arrived but will never depart — exclude them
        // or residual accounting would double-count every loss.
        self.core.counters().in_flight()
    }

    fn accepted(&self) -> u64 {
        // Admitted cells only, as the other elements count them: the
        // core's `arrived` also counts every refused header.
        self.core.counters().arrived - self.dropped()
    }

    fn dropped(&self) -> u64 {
        // Every loss class, not just buffer-full.
        let ctr = self.core.counters();
        ctr.arrived - ctr.departed - ctr.in_flight()
    }

    fn is_idle(&self) -> bool {
        self.core.is_quiescent() && self.tx.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_route(n: usize) -> Arc<[u16]> {
        (0..n).map(|d| d as u16).collect()
    }

    #[test]
    fn scalar_element_matches_oracle_semantics() {
        // Two same-cycle arrivals for one output: one departs at the
        // arrival cycle, the other one cycle later.
        let mut e = ScalarElement::new(2, None, identity_route(2));
        let inbox = [
            Arrival {
                cycle: 3,
                port: 0,
                cell: Cell::new(1, 0, 1, 0),
            },
            Arrival {
                cycle: 3,
                port: 1,
                cell: Cell::new(2, 1, 1, 0),
            },
        ];
        let mut out = Vec::new();
        e.run_window(0, 8, &inbox, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].cycle, out[0].cell.id.0), (3, 1));
        assert_eq!((out[1].cycle, out[1].cell.id.0), (4, 2));
        assert!(e.is_idle());
        assert_eq!(e.accepted(), 2);
    }

    #[test]
    fn scalar_element_drops_on_full_pool_in_port_order() {
        let mut e = ScalarElement::new(2, Some(1), identity_route(2));
        let inbox = [
            Arrival {
                cycle: 0,
                port: 0,
                cell: Cell::new(1, 0, 0, 0),
            },
            Arrival {
                cycle: 0,
                port: 1,
                cell: Cell::new(2, 1, 0, 0),
            },
        ];
        let mut out = Vec::new();
        e.run_window(0, 4, &inbox, &mut out);
        assert_eq!(e.dropped(), 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].cell.id.0, 1, "port 0 wins the last slot");
    }

    #[test]
    fn behavioral_element_forwards_and_tracks_ids() {
        let k = 4;
        let s = 2 * k as u64;
        let mut e = BehavioralElement::new(k, 16, identity_route(k));
        let mut out = Vec::new();
        // One cell in window 0, nothing else: it must emerge with the
        // switch's cut-through latency, carrying the same cell identity.
        e.run_window(
            0,
            s,
            &[Arrival {
                cycle: 0,
                port: 2,
                cell: Cell::new(77, 2, 3, 0),
            }],
            &mut out,
        );
        let mut from = s;
        while out.is_empty() && from < 20 * s {
            e.run_window(from, from + s, &[], &mut out);
            from += s;
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].cell.id.0, 77);
        assert_eq!(out[0].port, 3);
        assert!(out[0].cycle >= s, "a full packet takes S cycles");
        assert!(e.is_idle());
    }

    #[test]
    fn word_element_delivers_the_same_cell() {
        let k = 2;
        let s = 2 * k as u64;
        let mut e = ElementKind::WordRtl { slots: 8 }.build(k, identity_route(k));
        let mut out = Vec::new();
        e.run_window(
            0,
            s,
            &[Arrival {
                cycle: 0,
                port: 1,
                cell: Cell::new(9, 1, 0, 0),
            }],
            &mut out,
        );
        let mut from = s;
        while out.is_empty() && from < 20 * s {
            e.run_window(from, from + s, &[], &mut out);
            from += s;
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].cell.id.0, 9);
        assert_eq!(out[0].port, 0);
        assert!(e.is_idle());
        assert_eq!(e.accepted(), 1);
    }

    #[test]
    #[should_panic(expected = "word element radix 1 < 2")]
    fn a_radix_1_word_element_is_rejected() {
        ElementKind::WordRtl { slots: 4 }.build(1, Arc::new([0]));
    }

    /// A recorded inbox for a radix-`k` element over `windows` windows of
    /// `width` cycles: every port draws an arrival per window with
    /// probability `load`, at a fixed phase inside the window shared by
    /// each pair of ports (so packet-paced elements see arrivals exactly
    /// one cell time apart on a port, and same-cycle groups exercise
    /// port-order admission), headed for output 0 with probability
    /// `hot_frac`.
    fn recorded_inbox(
        k: usize,
        width: u64,
        windows: u64,
        load: f64,
        hot_frac: f64,
        seed: u64,
    ) -> Vec<Arrival> {
        let mut rng = simkernel::SplitMix64::new(seed);
        let mut inbox = Vec::new();
        for w in 0..windows {
            for port in 0..k {
                if rng.chance(load) {
                    let dst = if rng.chance(hot_frac) {
                        0
                    } else {
                        rng.below_usize(k)
                    };
                    let cycle = w * width + (port as u64 / 2) % width;
                    let cell = Cell::new(inbox.len() as u64 + 1, port, dst, cycle);
                    inbox.push(Arrival {
                        cycle,
                        port: port as u16,
                        cell,
                    });
                }
            }
        }
        inbox.sort_by_key(|a| (a.cycle, a.port));
        inbox
    }

    /// Everything observable about an element after a schedule:
    /// emissions in canonical `(cycle, port)` order, then counters.
    fn observe(
        e: &mut dyn FabricElement,
        inbox: &[Arrival],
        spans: &[(Cycle, Cycle)],
    ) -> (Vec<Emission>, u64, u64, u64) {
        let mut out = Vec::new();
        for &(from, to) in spans {
            let due: Vec<Arrival> = inbox
                .iter()
                .copied()
                .filter(|a| from <= a.cycle && a.cycle < to)
                .collect();
            let before = out.len();
            e.run_window(from, to, &due, &mut out);
            assert!(
                out[before..]
                    .iter()
                    .all(|em| from <= em.cycle && em.cycle < to),
                "emission outside its span"
            );
        }
        for port in 0..4u16 {
            let cycles: Vec<Cycle> = out
                .iter()
                .filter(|em| em.port == port)
                .map(|em| em.cycle)
                .collect();
            assert!(
                cycles.windows(2).all(|c| c[0] < c[1]),
                "port {port} not cycle-ordered"
            );
        }
        out.sort_by_key(|em| (em.cycle, em.port));
        (out, e.accepted(), e.dropped(), e.occupancy())
    }

    #[test]
    fn one_wide_span_equals_many_single_windows() {
        // (kind, load, hot fraction, must drop): an easy schedule and a
        // forced-drop one (two slots, everything converging on output 0)
        // for each adapter.
        let k = 4;
        let cases = [
            (ElementKind::Scalar { capacity: Some(16) }, 0.6, 0.25, false),
            (ElementKind::Scalar { capacity: Some(2) }, 0.9, 0.9, true),
            (ElementKind::Behavioral { slots: 16 }, 0.6, 0.25, false),
            (ElementKind::Behavioral { slots: 2 }, 0.9, 0.9, true),
            (ElementKind::WordRtl { slots: 16 }, 0.6, 0.25, false),
            (ElementKind::WordRtl { slots: 2 }, 0.9, 0.9, true),
            (ElementKind::WordWide { slots: 2 }, 0.9, 0.9, true),
            (ElementKind::WordIbank { banks: 2 }, 0.9, 0.9, true),
        ];
        for (kind, load, hot_frac, must_drop) in cases {
            // Scalar elements tick one cycle per cell; give them a wider
            // window than their cell time so phases differ per port.
            let width = kind.cell_time(k).max(4);
            let (loaded, total) = (24u64, 40u64); // 16 idle windows drain
            let inbox = recorded_inbox(k, width, loaded, load, hot_frac, 0xA11);
            let route = identity_route(k);
            let narrow: Vec<(Cycle, Cycle)> =
                (0..total).map(|w| (w * width, (w + 1) * width)).collect();
            let want = observe(&mut *kind.build(k, route.clone()), &inbox, &narrow);
            for chunk in [3u64, 8, total] {
                let wide: Vec<(Cycle, Cycle)> = (0..total.div_ceil(chunk))
                    .map(|c| (c * chunk * width, ((c + 1) * chunk).min(total) * width))
                    .collect();
                let got = observe(&mut *kind.build(k, route.clone()), &inbox, &wide);
                assert_eq!(got, want, "{kind:?}: spans of {chunk} windows diverged");
            }
            let (emitted, accepted, dropped, occupancy) = want;
            assert_eq!(must_drop, dropped > 0, "{kind:?}: drop expectation");
            assert_eq!(occupancy, 0, "{kind:?}: the idle tail drains the element");
            assert_eq!(emitted.len() as u64 + dropped, inbox.len() as u64);
            assert_eq!(accepted, emitted.len() as u64, "{kind:?}: accepted");
            // Every emission is a cell that arrived, unaltered, leaving
            // once on the output its route names.
            for em in &emitted {
                let a = inbox
                    .iter()
                    .find(|a| a.cell.id == em.cell.id)
                    .unwrap_or_else(|| panic!("{kind:?}: {:?} never arrived", em.cell.id));
                assert_eq!(em.cell, a.cell, "{kind:?}: cell altered in transit");
                assert_eq!(em.port, route[a.cell.dst.index()], "{kind:?}: wrong output");
            }
            let mut ids: Vec<u64> = emitted.iter().map(|em| em.cell.id.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), emitted.len(), "{kind:?}: a cell left twice");
        }
    }

    #[test]
    fn behavioral_queues_hold_exactly_the_cells_inside_the_switch() {
        // A small pool under a hot output: packets for output 0 queue up
        // while packets for the other outputs overtake them (departures
        // out of arrival order), and the full pool refuses cells. After
        // every span, the payloads the switch holds for each output must
        // be exactly the cells still inside for it — admitted before the
        // span's end, leaving at or after it: its queued packets plus the
        // tail in transmission, in departure order. The recorded inbox
        // stamps each cell's birth with its arrival cycle, which is what
        // tells them apart from cells still to come.
        let (k, slots) = (4usize, 6usize);
        let s = 2 * k as u64;
        let windows = 400u64;
        let route = identity_route(k);
        let inbox = recorded_inbox(k, s, windows, 0.8, 0.5, 0xB0B);
        let mut e = BehavioralElement::new(k, slots, route.clone());
        let mut out = Vec::new();
        let mut snapshots = Vec::new();
        let mut next = 0usize;
        for w in (0..windows + 16).step_by(4) {
            let (from, to) = (w * s, (w + 4) * s);
            let due_end = next + inbox[next..].iter().take_while(|a| a.cycle < to).count();
            e.run_window(from, to, &inbox[next..due_end], &mut out);
            next = due_end;
            let queued: Vec<Vec<Cell>> = (0..k).map(|j| e.sw.held(j).collect()).collect();
            let held: Vec<usize> = (0..k).map(|j| e.sw.queue_len(j)).collect();
            snapshots.push((to, queued, held, e.sw.counters().in_flight()));
        }
        assert!(e.dropped() > 0, "the pool must overflow");
        let ids: Vec<u64> = out.iter().map(|em| em.cell.id.0).collect();
        assert!(
            ids.windows(2).any(|p| p[0] > p[1]),
            "departures must leave out of arrival order"
        );
        assert_eq!(e.accepted() + e.dropped(), inbox.len() as u64);
        assert_eq!(
            out.len() as u64,
            e.accepted(),
            "every accepted cell departs"
        );
        assert!(
            e.is_idle() && (0..k).all(|j| e.sw.held(j).next().is_none()),
            "the switch holds no cell once idle"
        );
        for em in &out {
            let a = inbox
                .iter()
                .find(|a| a.cell.id == em.cell.id)
                .expect("arrived");
            assert_eq!(em.cell, a.cell, "cell altered in transit");
            assert_eq!(
                em.port,
                route[em.cell.dst.index()],
                "cell left on the wrong port"
            );
        }
        for (to, queued, held, in_flight) in snapshots {
            for (j, (queued, held)) in queued.iter().zip(held).enumerate() {
                let inside: Vec<&Emission> = out
                    .iter()
                    .filter(|em| em.port as usize == j && em.cycle >= to && em.cell.birth < to)
                    .collect();
                let want: Vec<Cell> = inside.iter().map(|em| em.cell).collect();
                assert_eq!(*queued, want, "output {j} at cycle {to}");
                // The front is in transmission once its read has begun.
                let tail = inside.first().is_some_and(|em| em.cycle - s < to);
                assert_eq!(
                    queued.len(),
                    held + usize::from(tail),
                    "output {j} at cycle {to}"
                );
            }
            let total: usize = queued.iter().map(Vec::len).sum();
            assert_eq!(total as u64, in_flight, "cycle {to}");
        }
    }
}
