//! The fabric runtime: a component graph of switch elements, each
//! advanced as far ahead as its own inputs allow, sequentially or sharded
//! across threads.
//!
//! ## Time, links, and the run-ahead rule
//!
//! Every link (element-to-element and element-to-terminal) has the same
//! fixed latency `L >= 1`: a cell emitted from an output port at cycle
//! `c` lands on the attached input port (or terminal) at `c + L`.
//! Terminals inject with zero latency — an injection at cycle `c` *is*
//! the arrival at the ingress element at `c` — so an uncontended cell's
//! terminal-to-terminal latency is exactly `hops × L`.
//!
//! Time is cut into windows of width `L` (the classic conservative
//! lookahead): an emission inside window `w` (cycle in `[wL, wL+L)`)
//! arrives at cycle `>= wL + L`, i.e. in window `w+1` or later. So what
//! an element receives in window `w` was emitted, by the elements that
//! drive its inputs, in window `w-1` or earlier — and by nobody else.
//! That gives a rule per element instead of a global step:
//!
//! > element `e` may complete window `w` as soon as every element
//! > driving one of its inputs has completed window `w-1`.
//!
//! With `done[e]` the number of windows `e` has completed, one visit
//! (`Worker::advance`, the one step both executors are made of) takes
//! `e` from `done[e]` to `min(min over upstream u of done[u] + 1, chunk
//! end)` with one in-place sort of its inbox and one
//! [`FabricElement::run_window`] call over the whole span. The rule is
//! conservative: the inbox of every window in the span is provably
//! complete, so there is no rollback and no global event queue.
//! Terminals constrain nothing — their streams are pure functions of
//! `(seed, t)`, asked for when the first element is about to need them.
//!
//! On a feed-forward graph (omega, banyan: elements are numbered stage
//! by stage) the upstream elements of `e` have all reached the chunk end
//! by the time `e` is visited, so every element runs a whole chunk per
//! visit and the simulation sweeps through the stages like the paper's
//! wave — stage `k` does at visit `t+k` what stage 0 did at visit `t`.
//! On a folded graph (clos2, fat-tree) a leaf's inputs are driven by
//! spines whose inputs are driven by leaves: each visit can gain only a
//! window or two on the element's own upstream, and the same rule falls
//! back by itself to near one window per visit. There is no topology
//! switch and no option.
//!
//! A chunk ends at the next occupancy-sampling boundary (every element
//! stands at exactly that window when it is sampled, whatever the visit
//! order was) and is at most `RUN_AHEAD` (8) windows wide.
//!
//! ## Determinism at any `--jobs N`
//!
//! Elements are partitioned into contiguous blocks, one per worker, but
//! no result depends on the partition, on the visit order or on the
//! chunk width:
//!
//! - each input port has exactly one driver (topology invariant), so an
//!   element's inbox keys `(cycle, port)` are unique and sorting by them
//!   yields one canonical order no matter which thread produced which
//!   arrival, or how late a mailbox was drained — packed as one `u64`,
//!   `cycle << 16 | port`, which bounds a run below cycle 2^48;
//! - workers talk once per sweep over their block, not once per visit.
//!   After a sweep a worker appends its cross-shard emissions to the
//!   consumers' mailboxes and only *then* `Release`-stores the `done[e]`
//!   it advanced; before a sweep a worker `Acquire`-loads the `done[u]`
//!   of the remote elements driving its own and only *then* drains its
//!   mailboxes — so whatever progress a consumer acts on, the arrivals
//!   that progress stands for are already in its inbox. Acting on a
//!   stale (lower) `done[u]` only shortens a span, never changes it;
//! - [`FabricElement::run_window`] over a span equals the same span cut
//!   into single windows (pinned per adapter in `element`'s tests);
//! - each terminal's delivered log is written only by the worker owning
//!   its egress element, in that element's emission order — cycle-ordered
//!   because a single output port serializes its emissions;
//! - each terminal's injection stream is an independent
//!   `SplitMix64::stream(seed, t)`, a pure function of `(seed, t)`.
//!
//! The sequential path ([`Fabric::run_with`], also `jobs = 1`) is the
//! same worker owning every element, run on the calling thread: no peer,
//! so no mailbox is ever touched and no wait ever happens.
//! `tests/fabric_determinism.rs` pins both against digests recorded from
//! the per-window executor this rule replaced.
//!
//! A worker whose elements have nothing upstream (stage 0 of a
//! feed-forward graph) is never held back by the rule, so a second,
//! coarse bound keeps it within `jobs` chunks of the slowest worker:
//! enough slack for every worker to be busy on its own chunk of the
//! pipeline, and a cap on the arrivals parked in mailboxes.
//!
//! ## Fail-stop
//!
//! A worker that panics (an element's invariant broke) never publishes
//! further progress; its peers would wait on it forever. A drop guard
//! raises a poison flag while the panic unwinds, every wait loop checks
//! it, and [`Fabric::try_run`] returns [`SimError::WorkerPanic`].

use crate::element::{Arrival, ElementKind, Emission, FabricElement};
use crate::topo::{Target, Topology};
use crate::traffic::{TerminalSource, Workload};
use simkernel::cell::Cell;
use simkernel::ids::Cycle;
use simkernel::SimError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use telemetry::metrics::Metrics;
use telemetry::probe::Probe;
use telemetry::{GaugeKind, ProbeEvent};

/// How often (in windows) per-element occupancy is sampled.
const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// Most windows one visit may advance an element (the widest chunk).
/// Measured on omega-1024: the gain is all there by 8 — one visit already
/// amortizes the element's cache faults, the sort and the virtual call
/// over 8 windows — while the arrivals parked in front of the next stage
/// grow with the depth (64 costs +30 % peak RSS for no more speed).
const RUN_AHEAD: u64 = 8;

/// A multi-stage network instantiated with real elements.
pub struct Fabric {
    topo: Topology,
    latency: u64,
    cell_time: u64,
    sample_every: u64,
    elements: Vec<Box<dyn FabricElement>>,
    /// `ups.of(e)`: the elements driving an input of `e`.
    ups: Upstream,
}

/// Everything one run produced, identical for every `jobs` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricRun {
    /// Cells injected at terminals.
    pub offered: u64,
    /// Per-terminal delivered log, cycle-ordered: `(delivery cycle, cell)`.
    pub delivered: Vec<Vec<(Cycle, Cell)>>,
    /// Cells dropped inside elements (buffer full), summed.
    pub dropped: u64,
    /// Cells still inside the fabric (element buffers + in-flight links)
    /// when the run ended.
    pub residual: u64,
    /// Per-element accepted-cell counters.
    pub elem_accepted: Vec<u64>,
    /// Per-element dropped-cell counters.
    pub elem_dropped: Vec<u64>,
    /// Per-element occupancy probe series: `(sample cycle, cells held)`.
    pub occ_series: Vec<Vec<(Cycle, u64)>>,
    /// Windows executed.
    pub windows: u64,
    /// Link latency the run used.
    pub latency: u64,
}

impl FabricRun {
    /// Total cells delivered.
    pub fn delivered_total(&self) -> u64 {
        self.delivered.iter().map(|d| d.len() as u64).sum()
    }

    /// Every delivered latency (delivery cycle − birth), unsorted.
    fn each_latency(&self) -> impl Iterator<Item = u64> + '_ {
        self.delivered
            .iter()
            .flatten()
            .map(|(c, cell)| c - cell.birth)
    }

    /// All terminal-to-terminal latencies, ascending.
    pub fn latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.each_latency().collect();
        v.sort_unstable();
        v
    }

    /// Mean delivered latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        match self.delivered_total() {
            0 => 0.0,
            n => self.each_latency().sum::<u64>() as f64 / n as f64,
        }
    }

    /// 99th-percentile delivered latency in cycles: the value at sorted
    /// index `(n − 1) · 99 / 100`, selected without a full sort.
    pub fn p99_latency(&self) -> u64 {
        let mut l: Vec<u64> = self.each_latency().collect();
        if l.is_empty() {
            return 0;
        }
        let i = (l.len() - 1) * 99 / 100;
        *l.select_nth_unstable(i).1
    }

    /// Order-insensitive-free content digest (FNV-1a over every field in
    /// canonical order) — one number that two runs share iff they are
    /// byte-identical in delivered cells, counters and probe series.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(self.offered);
        mix(self.dropped);
        mix(self.residual);
        mix(self.windows);
        for log in &self.delivered {
            mix(log.len() as u64);
            for (c, cell) in log {
                mix(*c);
                mix(cell.id.0);
                mix(cell.src.index() as u64);
                mix(cell.dst.index() as u64);
                mix(cell.birth);
            }
        }
        for &a in &self.elem_accepted {
            mix(a);
        }
        for &d in &self.elem_dropped {
            mix(d);
        }
        for s in &self.occ_series {
            mix(s.len() as u64);
            for &(c, v) in s {
                mix(c);
                mix(v);
            }
        }
        h
    }

    /// Replay the run's probe data through the metrics pipeline and
    /// render its JSON: fabric-wide occupancy (summed across elements)
    /// as the occupancy gauge, per-element occupancy as queue-depth
    /// gauges, and per-terminal deliveries as departure events.
    pub fn metrics_json(&self) -> String {
        let n = self.elem_accepted.len().max(self.delivered.len());
        let window = self.occ_series.iter().map(|s| s.len()).max().unwrap_or(1);
        let mut m = Metrics::new(n, window.max(1), 4096);
        // Summed occupancy per sample cycle (all elements share sample
        // cycles; elements missing a sample contribute zero).
        let mut totals: std::collections::BTreeMap<Cycle, u64> = std::collections::BTreeMap::new();
        for s in &self.occ_series {
            for &(c, v) in s {
                *totals.entry(c).or_insert(0) += v;
            }
        }
        for (&c, &v) in &totals {
            m.record(
                c,
                ProbeEvent::Gauge {
                    gauge: GaugeKind::Occupancy,
                    index: 0,
                    value: v,
                },
            );
        }
        for (e, s) in self.occ_series.iter().enumerate() {
            for &(c, v) in s {
                m.record(
                    c,
                    ProbeEvent::Gauge {
                        gauge: GaugeKind::QueueDepth,
                        index: e,
                        value: v,
                    },
                );
            }
        }
        for (t, log) in self.delivered.iter().enumerate() {
            for (c, cell) in log {
                m.record(
                    *c,
                    ProbeEvent::Departed {
                        output: t,
                        id: cell.id.0,
                        birth: cell.birth,
                        latency: c - cell.birth,
                    },
                );
            }
        }
        m.to_json()
    }
}

/// For every element, the elements that drive one of its inputs
/// (ascending, deduplicated; terminals excluded), in one flat array.
struct Upstream {
    start: Vec<u32>,
    elems: Vec<u32>,
}

impl Upstream {
    fn new(topo: &Topology) -> Self {
        let mut pairs: Vec<(u32, u32)> = Vec::new(); // (driven, driver)
        for u in 0..topo.elements() {
            for target in topo.outputs(u) {
                if let Target::Elem { elem, .. } = *target {
                    pairs.push((elem, u as u32));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut start = vec![0u32; topo.elements() + 1];
        for &(e, _) in &pairs {
            start[e as usize + 1] += 1;
        }
        for e in 0..topo.elements() {
            start[e + 1] += start[e];
        }
        Upstream {
            start,
            elems: pairs.into_iter().map(|(_, u)| u).collect(),
        }
    }

    fn of(&self, e: usize) -> &[u32] {
        &self.elems[self.start[e] as usize..self.start[e + 1] as usize]
    }
}

/// Arrivals in transit from one worker's elements to another's:
/// `(global element, arrival)`.
type Mailbox = Mutex<Vec<(u32, Arrival)>>;

/// A peer worker panicked; this one gave up waiting for it.
struct Poisoned;

/// What the workers of one execution share.
struct Shared<'a> {
    topo: &'a Topology,
    ups: &'a Upstream,
    latency: u64,
    sample_every: u64,
    windows: u64,
    /// Worker `s` owns elements `[s * block, (s + 1) * block)`.
    block: usize,
    /// `done[e]`: windows element `e` has completed and published.
    done: Vec<AtomicU64>,
    /// `worker_done[s]`: windows every element of worker `s` has
    /// completed. Bounds how far a worker with nothing upstream (stage 0
    /// of a feed-forward graph) may outrun the others — it gates memory,
    /// never data, hence `Relaxed`.
    worker_done: Vec<AtomicU64>,
    /// `mailboxes[producer][consumer]`.
    mailboxes: Vec<Vec<Mailbox>>,
    /// Raised by a worker that is unwinding from a panic.
    poisoned: AtomicBool,
}

impl<'a> Shared<'a> {
    /// Shared state for `windows` windows on at most `jobs` workers
    /// (fewer when the blocks would not all be populated).
    fn new(
        topo: &'a Topology,
        ups: &'a Upstream,
        latency: u64,
        sample_every: u64,
        windows: u64,
        jobs: usize,
    ) -> Self {
        // Arrivals land up to one window past the last; all need 48 bits.
        assert!(
            windows.saturating_add(1).saturating_mul(latency) <= 1 << 48,
            "{windows} windows of {latency} cycles run past cycle 2^48, the packed inbox key's limit"
        );
        let nelem = topo.elements();
        let block = nelem.div_ceil(jobs.max(1)).max(1);
        let workers = nelem.div_ceil(block).max(1);
        Shared {
            topo,
            ups,
            latency,
            sample_every,
            windows,
            block,
            done: (0..nelem).map(|_| AtomicU64::new(0)).collect(),
            worker_done: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            mailboxes: (0..workers)
                .map(|_| (0..workers).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn workers(&self) -> usize {
        self.worker_done.len()
    }

    /// One round of waiting for a peer: spin first, then yield the core;
    /// give up if a peer panicked.
    fn snooze(&self, spins: &mut u32) -> Result<(), Poisoned> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(Poisoned);
        }
        *spins = spins.saturating_add(1);
        if *spins < 128 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
        Ok(())
    }
}

/// Raises the poison flag if dropped by a panic's unwinding.
struct PoisonOnPanic<'a>(&'a AtomicBool);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// One executor thread's state: a contiguous block of elements, the
/// arrivals waiting in front of them, and what they produced.
struct Worker<'a> {
    index: usize,
    /// Global index of `elems[0]`.
    lo: usize,
    elems: &'a mut [Box<dyn FabricElement>],
    /// Per owned element: arrivals not yet consumed (cells on links).
    pending: Vec<Vec<Arrival>>,
    /// Per terminal; only those fed by an owned element fill.
    delivered: Vec<Vec<(Cycle, Cell)>>,
    occ_series: Vec<Vec<(Cycle, u64)>>,
    offered: u64,
    /// Windows whose injections at owned terminals are in `pending`.
    injected: u64,
    /// `known[e]`, for every element of the fabric: windows `e` is known
    /// to have completed — exact for owned elements, the last snapshot
    /// of `Shared::done` for the others. The run-ahead step reads only
    /// this, so a visit costs no cross-core traffic.
    known: Vec<u64>,
    /// The other workers' elements that drive an owned element's input.
    remote_ups: Vec<u32>,
    /// Per consumer worker: cross-shard arrivals not yet published.
    outgoing: Vec<Vec<(u32, Arrival)>>,
    inj: Vec<(usize, Cycle, Cell)>,
    outbox: Vec<Emission>,
}

impl<'a> Worker<'a> {
    fn new(sh: &Shared, index: usize, elems: &'a mut [Box<dyn FabricElement>]) -> Self {
        let lo = index * sh.block;
        let mut remote_ups: Vec<u32> = (lo..lo + elems.len())
            .flat_map(|e| sh.ups.of(e))
            .copied()
            .filter(|&u| (u as usize).wrapping_sub(lo) >= elems.len())
            .collect();
        remote_ups.sort_unstable();
        remote_ups.dedup();
        Worker {
            index,
            lo,
            known: vec![0; sh.done.len()],
            remote_ups,
            pending: vec![Vec::new(); elems.len()],
            delivered: vec![Vec::new(); sh.topo.endpoints],
            occ_series: vec![Vec::new(); elems.len()],
            elems,
            offered: 0,
            injected: 0,
            outgoing: vec![Vec::new(); sh.workers()],
            inj: Vec::new(),
            outbox: Vec::new(),
        }
    }

    /// Execute every window of the run, chunk by chunk. `inject` is asked
    /// for each window's injections at owned terminals, once per window
    /// in ascending order, when the first owned element is about to
    /// simulate that window.
    fn run(
        &mut self,
        sh: &Shared,
        mut inject: impl FnMut(Cycle, Cycle, &mut Vec<(usize, Cycle, Cell)>),
    ) -> Result<(), Poisoned> {
        let l = sh.latency;
        let lead = RUN_AHEAD * sh.workers() as u64;
        let mut spins = 0u32;
        let mut base = 0u64;
        while base < sh.windows {
            for peer in &sh.worker_done {
                while peer.load(Ordering::Relaxed) + lead < base {
                    sh.snooze(&mut spins)?;
                }
            }
            let end = ((base / sh.sample_every + 1) * sh.sample_every)
                .min(base + RUN_AHEAD)
                .min(sh.windows);
            // Sweep the block until every element stands at `end`. On a
            // feed-forward graph with one worker the first sweep does it.
            // Workers talk once per sweep, not once per visit: progress
            // and mailboxes are read before it and written after it.
            let mut stuck = false; // the last sweep advanced nothing
            loop {
                let news = self.refresh(sh);
                if stuck && !news {
                    // Same inputs, same outcome: wait, do not sweep.
                    sh.snooze(&mut spins)?;
                    continue;
                }
                let (mut behind, mut progressed) = (false, false);
                for li in 0..self.elems.len() {
                    let was = self.known[self.lo + li];
                    if was < end {
                        let now = self.advance(sh, li, was, end, &mut inject);
                        progressed |= now > was;
                        behind |= now < end;
                    }
                }
                self.publish(sh);
                if !behind {
                    break;
                }
                debug_assert!(
                    progressed || sh.workers() > 1,
                    "a lone worker can always advance"
                );
                stuck = !progressed;
                if progressed {
                    spins = 0;
                }
            }
            if end.is_multiple_of(sh.sample_every) {
                for (series, elem) in self.occ_series.iter_mut().zip(self.elems.iter()) {
                    series.push((end * l, elem.occupancy()));
                }
            }
            sh.worker_done[self.index].store(end, Ordering::Relaxed);
            base = end;
        }
        Ok(())
    }

    /// Learn what the other workers have published: first their
    /// elements' progress, then — if there was any — the arrivals behind
    /// it. Returns whether there was any.
    fn refresh(&mut self, sh: &Shared) -> bool {
        let mut news = false;
        for &u in &self.remote_ups {
            // Acquire: pairs with the Release store in `publish`. The
            // producer appended to our mailbox before that store and we
            // drain it after this load, so whatever progress is read
            // here, the arrivals it stands for reach `pending` below.
            let now = sh.done[u as usize].load(Ordering::Acquire);
            news |= now != self.known[u as usize];
            self.known[u as usize] = now;
        }
        if news {
            for (producer, row) in sh.mailboxes.iter().enumerate() {
                if producer != self.index {
                    let mut mailbox = row[self.index].lock().expect("mailbox poisoned");
                    for (elem, a) in mailbox.drain(..) {
                        self.pending[elem as usize - self.lo].push(a);
                    }
                }
            }
        }
        news
    }

    /// Let the other workers learn what this sweep did: first the
    /// arrivals for their elements, then the progress that produced them.
    fn publish(&mut self, sh: &Shared) {
        for (consumer, batch) in self.outgoing.iter_mut().enumerate() {
            if !batch.is_empty() {
                sh.mailboxes[self.index][consumer]
                    .lock()
                    .expect("mailbox poisoned")
                    .append(batch);
            }
        }
        for e in self.lo..self.lo + self.elems.len() {
            // Untouched counters stay untouched: a store would pull the
            // cache line away from the peers polling it.
            if sh.done[e].load(Ordering::Relaxed) != self.known[e] {
                sh.done[e].store(self.known[e], Ordering::Release);
            }
        }
    }

    /// The run-ahead step: take owned element `li` from window `was` as
    /// far as its upstream elements' known progress allows, at most to
    /// `end`, with one in-place inbox sort and one `run_window` call over
    /// the whole span. Returns its new `done`.
    fn advance(
        &mut self,
        sh: &Shared,
        li: usize,
        was: u64,
        end: u64,
        inject: &mut impl FnMut(Cycle, Cycle, &mut Vec<(usize, Cycle, Cell)>),
    ) -> u64 {
        let e = self.lo + li;
        let mut target = end;
        for &u in sh.ups.of(e) {
            target = target.min(self.known[u as usize] + 1);
        }
        if target <= was {
            return was;
        }
        let l = sh.latency;
        // Terminals are known ahead: ask for their windows when the first
        // element gets this far, and no earlier — an inbox that holds a
        // whole chunk of injections is rescanned on every visit.
        while self.injected < target {
            let (from, to) = (self.injected * l, (self.injected + 1) * l);
            self.inj.clear();
            inject(from, to, &mut self.inj);
            for &(t, cycle, cell) in &self.inj {
                debug_assert!(from <= cycle && cycle < to, "injection outside its window");
                let (ingress, port) = sh.topo.ingress[t];
                self.pending[ingress as usize - self.lo].push(Arrival { cycle, port, cell });
            }
            self.offered += self.inj.len() as u64;
            self.injected += 1;
        }
        // The span's arrivals are the `(cycle, port)`-sorted prefix.
        let inbox = &mut self.pending[li];
        inbox.sort_unstable_by_key(|a| (a.cycle << 16) | u64::from(a.port));
        let due = inbox.partition_point(|a| a.cycle < target * l);
        self.outbox.clear();
        self.elems[li].run_window(was * l, target * l, &inbox[..due], &mut self.outbox);
        inbox.drain(..due);
        let outputs = sh.topo.outputs(e);
        for em in &self.outbox {
            debug_assert!(
                was * l <= em.cycle && em.cycle < target * l,
                "emission outside span"
            );
            match outputs[em.port as usize] {
                Target::Elem { elem, port } => {
                    let a = Arrival {
                        cycle: em.cycle + l,
                        port,
                        cell: em.cell,
                    };
                    // Below `lo` wraps far above the block: one check.
                    match self.pending.get_mut((elem as usize).wrapping_sub(self.lo)) {
                        Some(inbox) => inbox.push(a),
                        None => self.outgoing[elem as usize / sh.block].push((elem, a)),
                    }
                }
                Target::Terminal(t) => self.delivered[t as usize].push((em.cycle + l, em.cell)),
            }
        }
        self.known[e] = target;
        target
    }

    fn finish(self) -> WorkerOut {
        WorkerOut {
            pending_left: self.pending.iter().map(|p| p.len() as u64).sum(),
            delivered: self.delivered,
            occ_series: self.occ_series,
            offered: self.offered,
        }
    }
}

/// What a worker hands back once its element borrow ends.
struct WorkerOut {
    delivered: Vec<Vec<(Cycle, Cell)>>,
    occ_series: Vec<Vec<(Cycle, u64)>>,
    offered: u64,
    /// Arrivals still waiting in front of its elements.
    pending_left: u64,
}

/// The per-window injections of `sources` (terminal, stream) under
/// `workload`: every slot whose cycle falls inside the window, terminals
/// in the order given.
fn draw_slots<'a>(
    sources: &'a mut [(usize, TerminalSource)],
    workload: &'a Workload,
    endpoints: usize,
    cell_time: u64,
    slots: u64,
) -> impl FnMut(Cycle, Cycle, &mut Vec<(usize, Cycle, Cell)>) + 'a {
    move |from, to, inj| {
        let mut slot = from.div_ceil(cell_time);
        while slot * cell_time < to && slot < slots {
            let cycle = slot * cell_time;
            for (t, src) in sources.iter_mut() {
                if let Some(cell) = src.draw(workload, endpoints, cycle) {
                    inj.push((*t, cycle, cell));
                }
            }
            slot += 1;
        }
    }
}

impl Fabric {
    /// Instantiate `topo` with `kind` elements. Packet-paced kinds
    /// (behavioral, word-level) require a uniform radix — the link
    /// quantum `S = 2k` must match across every hop.
    pub fn new(topo: Topology, kind: ElementKind) -> Self {
        if !matches!(kind, ElementKind::Scalar { .. }) {
            assert!(
                topo.radix.windows(2).all(|w| w[0] == w[1]),
                "{}: packet-paced elements need a uniform radix",
                topo.name
            );
        }
        let cell_time = kind.cell_time(topo.radix.first().copied().unwrap_or(2) as usize);
        let elements = (0..topo.elements())
            .map(|e| kind.build(topo.radix[e] as usize, topo.route[e].clone()))
            .collect();
        Fabric {
            latency: cell_time,
            cell_time,
            sample_every: DEFAULT_SAMPLE_EVERY,
            ups: Upstream::new(&topo),
            topo,
            elements,
        }
    }

    /// Override the link latency (default: one cell time). The sync
    /// window width always equals the link latency.
    pub fn with_link_latency(mut self, latency: u64) -> Self {
        assert!(latency >= 1, "links take at least one cycle");
        self.latency = latency;
        self
    }

    /// Override the occupancy sampling period (in windows).
    pub fn with_sample_every(mut self, windows: u64) -> Self {
        assert!(windows >= 1);
        self.sample_every = windows;
        self
    }

    /// The topology this fabric instantiates.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Cycles per injection slot (the link occupancy of one cell).
    pub fn cell_time(&self) -> u64 {
        self.cell_time
    }

    /// Windows needed to cover `slots` injection slots plus `drain`
    /// drain slots.
    pub fn windows_for(&self, slots: u64, drain: u64) -> u64 {
        ((slots + drain) * self.cell_time).div_ceil(self.latency)
    }

    /// Sequential execution: run exactly `windows` windows on the calling
    /// thread, asking `inject` for each window's injections. The closure
    /// pushes `(terminal, cycle, cell)` with `from <= cycle < to`; cells
    /// appear at the terminal's ingress port at `cycle` (zero injection
    /// latency).
    ///
    /// `inject` is called once per window, in ascending window order,
    /// but *ahead of execution*: a window is asked for when the first
    /// element is about to simulate it, which can be a whole chunk of
    /// windows before the last element gets there. It may keep state
    /// across calls (a shared generator, counters) but must not look at
    /// simulated results — deliveries, occupancies — since those lag the
    /// window it is asked about by a varying amount.
    pub fn run_with(
        &mut self,
        windows: u64,
        inject: impl FnMut(Cycle, Cycle, &mut Vec<(usize, Cycle, Cell)>),
    ) -> FabricRun {
        let sh = Shared::new(
            &self.topo,
            &self.ups,
            self.latency,
            self.sample_every,
            windows,
            1,
        );
        let mut worker = Worker::new(&sh, 0, &mut self.elements);
        if worker.run(&sh, inject).is_err() {
            unreachable!("a lone worker has no peer to poison it");
        }
        let out = worker.finish();
        self.collect(vec![out], &sh)
    }

    /// Run `slots` injection slots of `workload` plus `drain` empty
    /// slots, on `jobs` worker threads (1 = the calling thread). The
    /// result is byte-identical for every `jobs` value.
    ///
    /// # Panics
    ///
    /// If an element panics; [`Fabric::try_run`] reports that as an
    /// error instead.
    pub fn run(&mut self, slots: u64, drain: u64, workload: &Workload, jobs: usize) -> FabricRun {
        self.try_run(slots, drain, workload, jobs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Fabric::run`], fail-stop: a worker thread that panics poisons
    /// the run, its peers stop waiting for it, and the caller gets
    /// [`SimError::WorkerPanic`] instead of a hang. The elements are left
    /// wherever the failed run got to; build a new fabric to run again.
    /// (At `jobs = 1` the run is [`Fabric::run_with`] on the calling
    /// thread: there is no worker to lose, and a panic propagates.)
    pub fn try_run(
        &mut self,
        slots: u64,
        drain: u64,
        workload: &Workload,
        jobs: usize,
    ) -> Result<FabricRun, SimError> {
        let windows = self.windows_for(slots, drain);
        let n = self.topo.endpoints;
        let ct = self.cell_time;
        let mut sources: Vec<(usize, TerminalSource)> = (0..n)
            .map(|t| (t, TerminalSource::new(workload, t)))
            .collect();
        if jobs <= 1 || self.elements.len() <= 1 {
            let inject = draw_slots(&mut sources, workload, n, ct, slots);
            return Ok(self.run_with(windows, inject));
        }
        let sh = Shared::new(
            &self.topo,
            &self.ups,
            self.latency,
            self.sample_every,
            windows,
            jobs,
        );
        // A terminal's stream goes with the worker owning its ingress
        // element (ascending `t` within a worker; the streams are
        // per-terminal, so the partition is invisible).
        let mut owned: Vec<Vec<(usize, TerminalSource)>> = vec![Vec::new(); sh.workers()];
        for source in sources {
            owned[self.topo.ingress[source.0].0 as usize / sh.block].push(source);
        }
        let workers: Vec<Worker> = self
            .elements
            .chunks_mut(sh.block)
            .enumerate()
            .map(|(index, elems)| Worker::new(&sh, index, elems))
            .collect();
        let joined: Vec<std::thread::Result<Option<WorkerOut>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .zip(owned.iter_mut())
                .map(|(mut worker, sources)| {
                    let sh = &sh;
                    scope.spawn(move || {
                        let _poison = PoisonOnPanic(&sh.poisoned);
                        let inject = draw_slots(sources, workload, n, ct, slots);
                        worker.run(sh, inject).ok().map(|()| worker.finish())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut outs = Vec::with_capacity(joined.len());
        for (worker, result) in joined.into_iter().enumerate() {
            match result {
                Ok(Some(out)) => outs.push(out),
                Ok(None) => {} // gave up on a poisoned run; the culprit reports
                Err(payload) => {
                    let detail = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    return Err(SimError::WorkerPanic { worker, detail });
                }
            }
        }
        Ok(self.collect(outs, &sh))
    }

    /// Assemble a [`FabricRun`] from the workers' outputs (in worker
    /// order, so element blocks concatenate) plus the elements' own
    /// counters.
    fn collect(&self, outs: Vec<WorkerOut>, sh: &Shared) -> FabricRun {
        let mut delivered: Vec<Vec<(Cycle, Cell)>> = vec![Vec::new(); self.topo.endpoints];
        let mut occ_series = Vec::with_capacity(self.elements.len());
        let mut offered = 0u64;
        // Arrivals published in the final window are never consumed;
        // they are still "on the link", in an inbox or in a mailbox.
        let mut in_links: u64 = sh
            .mailboxes
            .iter()
            .flatten()
            .map(|mb| mb.lock().expect("mailbox poisoned").len() as u64)
            .sum();
        for out in outs {
            for (t, log) in out.delivered.into_iter().enumerate() {
                if !log.is_empty() {
                    debug_assert!(delivered[t].is_empty(), "terminal delivered by two workers");
                    delivered[t] = log;
                }
            }
            occ_series.extend(out.occ_series);
            offered += out.offered;
            in_links += out.pending_left;
        }
        let elem_accepted: Vec<u64> = self.elements.iter().map(|e| e.accepted()).collect();
        let elem_dropped: Vec<u64> = self.elements.iter().map(|e| e.dropped()).collect();
        let dropped = elem_dropped.iter().sum();
        let buffered: u64 = self.elements.iter().map(|e| e.occupancy()).sum();
        let run = FabricRun {
            offered,
            delivered,
            dropped,
            residual: buffered + in_links,
            elem_accepted,
            elem_dropped,
            occ_series,
            windows: sh.windows,
            latency: self.latency,
        };
        debug_assert_eq!(
            run.offered,
            run.delivered_total() + run.dropped + run.residual,
            "cell conservation violated"
        );
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ScalarElement;
    use crate::topo;
    use crate::traffic::Pattern;

    fn uniform(seed: u64) -> Workload {
        Workload {
            pattern: Pattern::Uniform,
            load: 0.5,
            seed,
        }
    }

    #[test]
    fn scalar_omega_conserves_and_delivers() {
        let mut f = Fabric::new(topo::omega(2, 4), ElementKind::Scalar { capacity: None });
        let run = f.run(500, 100, &uniform(3), 1);
        assert!(run.offered > 0);
        assert_eq!(run.dropped, 0, "unbounded pools never drop");
        assert_eq!(run.residual, 0, "the drain emptied the fabric");
        assert_eq!(run.offered, run.delivered_total());
        assert_eq!(
            run.offered,
            run.delivered_total() + run.dropped + run.residual
        );
    }

    #[test]
    fn uncontended_latency_is_hops_times_link_latency() {
        for lat in [1, 3] {
            let mut f = Fabric::new(topo::omega(2, 3), ElementKind::Scalar { capacity: None })
                .with_link_latency(lat);
            let windows = f.windows_for(1, 20);
            let run = f.run_with(windows, |from, _to, inj| {
                if from == 0 {
                    inj.push((0, 0, Cell::new(1, 0, 7, 0)));
                }
            });
            assert_eq!(run.delivered_total(), 1);
            let (cycle, cell) = run.delivered[7][0];
            assert_eq!(cycle - cell.birth, 3 * lat, "3 hops at latency {lat}");
        }
    }

    #[test]
    fn contention_buffers_inside_the_fabric() {
        // Two cells for terminal 3 in the same cycle: one waits in a
        // shared pool, and both arrive, one slot apart.
        let mut f = Fabric::new(topo::omega(2, 2), ElementKind::Scalar { capacity: None });
        let windows = f.windows_for(1, 10);
        let run = f.run_with(windows, |from, _to, inj| {
            if from == 0 {
                inj.push((0, 0, Cell::new(1, 0, 3, 0)));
                inj.push((1, 0, Cell::new(2, 1, 3, 0)));
            }
        });
        assert_eq!(run.delivered_total(), 2);
        let cycles: Vec<Cycle> = run.delivered[3].iter().map(|&(c, _)| c).collect();
        assert_eq!(cycles[1] - cycles[0], 1, "delivered at {cycles:?}");
    }

    #[test]
    fn sharded_matches_sequential_on_every_topology() {
        for t in [
            topo::omega(2, 4),
            topo::banyan(2, 4),
            topo::clos2(4, 4),
            topo::fat_tree(4),
        ] {
            let name = t.name;
            let mut a = Fabric::new(t.clone(), ElementKind::Scalar { capacity: Some(8) });
            let mut b = Fabric::new(t, ElementKind::Scalar { capacity: Some(8) });
            let ra = a.run(300, 100, &uniform(11), 1);
            let rb = b.run(300, 100, &uniform(11), 3);
            assert_eq!(ra, rb, "{name}: jobs=3 diverged from sequential");
            assert_eq!(ra.digest(), rb.digest());
        }
    }

    #[test]
    fn behavioral_fabric_runs_and_conserves() {
        let mut f = Fabric::new(topo::omega(4, 2), ElementKind::Behavioral { slots: 16 });
        let run = f.run(200, 64, &uniform(5), 1);
        assert!(run.offered > 0);
        assert_eq!(run.residual, 0);
        assert_eq!(run.offered, run.delivered_total() + run.dropped);
        // S = 8 per hop, 2 hops, plus the cut-through pipeline: nothing
        // can beat hops × S cycles end to end.
        assert!(run.latencies().first().copied().unwrap_or(0) >= 16);
    }

    #[test]
    fn behavioral_sharded_matches_sequential() {
        let mut a = Fabric::new(topo::omega(4, 2), ElementKind::Behavioral { slots: 8 });
        let mut b = Fabric::new(topo::omega(4, 2), ElementKind::Behavioral { slots: 8 });
        let ra = a.run(150, 64, &uniform(9), 1);
        let rb = b.run(150, 64, &uniform(9), 4);
        assert_eq!(ra, rb);
    }

    #[test]
    fn word_fabric_delivers_identical_cells() {
        let mut f = Fabric::new(topo::omega(2, 2), ElementKind::WordRtl { slots: 8 });
        let run = f.run(60, 64, &uniform(2), 1);
        assert!(run.offered > 0);
        assert_eq!(run.residual, 0);
        assert_eq!(run.offered, run.delivered_total() + run.dropped);
        for (t, log) in run.delivered.iter().enumerate() {
            for (_, cell) in log {
                assert_eq!(cell.dst.index(), t, "cell delivered to the wrong terminal");
            }
        }
    }

    #[test]
    fn metrics_json_validates() {
        let mut f = Fabric::new(topo::omega(2, 3), ElementKind::Scalar { capacity: Some(8) })
            .with_sample_every(8);
        let run = f.run(400, 100, &uniform(1), 1);
        telemetry::metrics::validate_json(&run.metrics_json()).expect("fabric metrics JSON");
    }
    /// A node whose invariant breaks in the window containing `at`.
    struct PanicsAt {
        at: Cycle,
    }

    impl FabricElement for PanicsAt {
        fn run_window(&mut self, from: Cycle, to: Cycle, _: &[Arrival], _: &mut Vec<Emission>) {
            assert!(
                !(from <= self.at && self.at < to),
                "test element broke in window 3"
            );
        }
        fn occupancy(&self) -> u64 {
            0
        }
        fn accepted(&self) -> u64 {
            0
        }
        fn dropped(&self) -> u64 {
            0
        }
        fn is_idle(&self) -> bool {
            true
        }
    }

    #[test]
    fn a_panicking_worker_fails_the_run_instead_of_hanging_its_peers() {
        // Element 0 (stage 0, worker 0 at jobs = 2) dies in window 3.
        // Worker 1 owns stages that wait on worker 0's progress; without
        // the poison flag it spins forever. The run happens on a helper
        // thread so that a regression fails this test by timeout rather
        // than hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut f = Fabric::new(topo::omega(2, 3), ElementKind::Scalar { capacity: None });
            let at = 3 * f.latency;
            f.elements[0] = Box::new(PanicsAt { at });
            let _ = tx.send(f.try_run(200, 20, &uniform(4), 2));
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("peers of a panicked worker must stop waiting");
        match result {
            Err(SimError::WorkerPanic { worker: 0, detail }) => {
                assert!(detail.contains("window 3"), "panic message lost: {detail}")
            }
            other => panic!("expected WorkerPanic from worker 0, got {other:?}"),
        }
    }

    /// A scalar element that asserts the runtime's half of the element
    /// contract on every call: spans follow each other without a gap, and
    /// the inbox lies inside `[from, to)`, strictly ascending by `(cycle,
    /// port)`. An arrival handed over a visit late would lie below `from`,
    /// so with a drained run (nothing left on a link) the inbox was also
    /// complete.
    struct ContractChecked {
        inner: ScalarElement,
        next: Cycle,
    }

    impl FabricElement for ContractChecked {
        fn run_window(
            &mut self,
            from: Cycle,
            to: Cycle,
            inbox: &[Arrival],
            out: &mut Vec<Emission>,
        ) {
            assert_eq!(from, self.next, "spans are contiguous");
            assert!(
                inbox.iter().all(|a| from <= a.cycle && a.cycle < to),
                "arrival outside [{from}, {to})"
            );
            assert!(
                inbox
                    .windows(2)
                    .all(|p| (p[0].cycle, p[0].port) < (p[1].cycle, p[1].port)),
                "inbox not strictly sorted by (cycle, port)"
            );
            self.next = to;
            self.inner.run_window(from, to, inbox, out);
        }
        fn occupancy(&self) -> u64 {
            self.inner.occupancy()
        }
        fn accepted(&self) -> u64 {
            self.inner.accepted()
        }
        fn dropped(&self) -> u64 {
            self.inner.dropped()
        }
        fn is_idle(&self) -> bool {
            self.inner.is_idle()
        }
    }

    #[test]
    fn every_inbox_is_complete_sorted_and_inside_its_span() {
        let kind = ElementKind::Scalar { capacity: Some(8) };
        for t in [topo::omega(2, 3), topo::clos2(4, 4)] {
            let want = Fabric::new(t.clone(), kind).run(300, 100, &uniform(6), 1);
            assert_eq!(want.residual, 0, "{}: the drain empties the fabric", t.name);
            for jobs in [1, 3] {
                let mut f = Fabric::new(t.clone(), kind);
                for (e, slot) in f.elements.iter_mut().enumerate() {
                    let route = t.route[e].clone();
                    let inner = ScalarElement::new(t.radix[e] as usize, Some(8), route);
                    *slot = Box::new(ContractChecked { inner, next: 0 });
                }
                let got = f.run(300, 100, &uniform(6), jobs);
                assert_eq!(
                    got, want,
                    "{} at jobs {jobs}: a checked run diverged",
                    t.name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "run past cycle 2^48")]
    fn a_run_past_the_packed_key_is_refused_before_any_window() {
        let mut f = Fabric::new(topo::omega(2, 2), ElementKind::Scalar { capacity: None });
        f.run_with(1 << 48, |_, _, _| panic!("a window ran"));
    }

    #[test]
    fn upstream_lists_name_every_driver_once() {
        let t = topo::omega(2, 3); // 3 stages of 4 elements
        let ups = Upstream::new(&t);
        for e in 0..4 {
            assert!(ups.of(e).is_empty(), "stage 0 is driven by terminals only");
        }
        for e in 4..12 {
            let drivers = ups.of(e);
            assert_eq!(drivers.len(), 2, "two inputs, two distinct drivers");
            assert!(drivers.windows(2).all(|d| d[0] < d[1]), "ascending");
            for &u in drivers {
                assert_eq!(u as usize / 4 + 1, e / 4, "driven from the previous stage");
                assert!(t
                    .outputs(u as usize)
                    .iter()
                    .any(|tg| matches!(tg, Target::Elem { elem, .. } if *elem as usize == e)));
            }
        }
        // Folded: every leaf is driven by every spine and vice versa.
        let t = topo::clos2(4, 2);
        let ups = Upstream::new(&t);
        assert_eq!(ups.of(0), &[4, 5]);
        assert_eq!(ups.of(4), &[0, 1, 2, 3]);
    }
}
