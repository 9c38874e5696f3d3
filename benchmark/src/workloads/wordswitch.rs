//! Feeder-driven runs of the three word-level organizations, shared by
//! `rtl_dense`, `altorg_dense` and the ladder's size and load rungs.

use crate::harness::Pass;
use crate::stats::{mix64, Fnv, Latencies};
use simkernel::ids::Cycle;
use switch_core::events::SwitchCounters;
use switch_core::rtl::OutputCollector;
use switch_core::{InterleavedSwitch, PipelinedSwitch, WideMemorySwitchRtl};
use traffic::{DestDist, PacketFeeder};

/// Cycles rendered, then ticked, in one go.
pub const CHUNK: u64 = 65_536;
/// Cycles the drain may take before it counts as a hang.
const DRAIN_LIMIT: u64 = 1_000_000;

/// What the three word-level switches have in common, seen from outside,
/// beyond the clock they share through `simkernel::Horizon`.
pub trait WordSwitch: simkernel::Horizon {
    /// One clock cycle: words in on every input link, words out.
    fn tick(&mut self, wire_in: &[Option<u64>]) -> &[Option<u64>];
    /// The switch's own counters.
    fn counters(&self) -> SwitchCounters;
    /// Nothing buffered, nothing in flight.
    fn is_quiescent(&self) -> bool;
}

macro_rules! word_switch {
    ($($t:ty),*) => {$(
        impl WordSwitch for $t {
            fn tick(&mut self, wire_in: &[Option<u64>]) -> &[Option<u64>] {
                <$t>::tick(self, wire_in)
            }
            fn counters(&self) -> SwitchCounters {
                <$t>::counters(self)
            }
            fn is_quiescent(&self) -> bool {
                <$t>::is_quiescent(self)
            }
        }
    )*};
}
word_switch!(PipelinedSwitch, WideMemorySwitchRtl, InterleavedSwitch);

/// One run: `n × n` ports, packets of `2n` words, uniform destinations.
pub struct Spec<'s> {
    /// Ports per side.
    pub n: usize,
    /// Offered link load.
    pub load: f64,
    /// Cycles with the feeders on (the drain comes on top).
    pub cycles: u64,
    /// Chunks per timed slice.
    pub chunks_per_slice: u64,
    /// Span name for rendering a chunk of the wire schedule.
    pub feeder_span: &'s str,
    /// Span name for ticking a chunk.
    pub tick_span: &'s str,
}

/// What a run produced.
pub struct Outcome {
    /// The switch's counters after the drain.
    pub counters: SwitchCounters,
    /// Cycle the switch stopped at.
    pub end: Cycle,
    /// Packets the feeders put on the wires.
    pub sent: u64,
    /// Counters folded into a digest (every pass).
    pub digest: Fnv,
    /// Verify pass: packets the collector reassembled.
    pub collected: u64,
    /// Verify pass: order-insensitive hash of the delivered `(id, output)` set.
    pub delivered_set: u64,
    /// Verify pass: every delivery with its cycles.
    pub detail: Fnv,
    /// Verify pass: head latencies (first word out − first word in).
    pub latencies: Latencies,
}

/// The feeders every word-level run uses: one per input, ids unique.
pub fn feeders(n: usize, load: f64, seed: u64) -> Vec<PacketFeeder> {
    (0..n)
        .map(|i| PacketFeeder::random(i, 2 * n, load, DestDist::uniform(n), seed, n as u64))
        .collect()
}

/// Drive `sw` from fresh feeders for `spec.cycles`, then drain it. Rendering
/// and ticking are both the program's code and both inside the slices.
pub fn drive<S: WordSwitch>(pass: &mut Pass, mut sw: S, spec: &Spec) -> Outcome {
    let n = spec.n;
    let s = 2 * n;
    let mut feeders = feeders(n, spec.load, pass.seed);
    let mut col = pass.verifying().then(|| OutputCollector::new(n, s));
    let mut wires: Vec<Option<u64>> = vec![None; CHUNK as usize * n];
    let mut out = Outcome {
        counters: SwitchCounters::default(),
        end: 0,
        sent: 0,
        digest: Fnv::default(),
        collected: 0,
        delivered_set: 0,
        detail: Fnv::default(),
        latencies: Latencies::default(),
    };
    let mut done = 0u64;
    let mut drained = true;
    while done < spec.cycles {
        let slice_end = (done + CHUNK * spec.chunks_per_slice).min(spec.cycles);
        pass.slice(|tr| {
            while done < slice_end {
                let len = CHUNK.min(slice_end - done) as usize;
                tr.span(spec.feeder_span, len as u64, |_| {
                    for (t, row) in wires.chunks_exact_mut(n).take(len).enumerate() {
                        for (w, f) in row.iter_mut().zip(feeders.iter_mut()) {
                            *w = f.tick(done + t as u64);
                        }
                    }
                });
                tr.span(spec.tick_span, len as u64, |_| {
                    let rows = wires.chunks_exact(n).take(len);
                    match col.as_mut() {
                        None => rows.for_each(|row| {
                            sw.tick(row);
                        }),
                        Some(col) => rows.for_each(|row| {
                            let now = sw.now();
                            col.observe(now, sw.tick(row));
                        }),
                    }
                });
                done += len as u64;
            }
            if done == spec.cycles {
                drained = drain(&mut sw, &mut feeders, col.as_mut(), s);
            }
        });
        if let Some(col) = col.as_mut() {
            for d in col.take() {
                let sent = &feeders[d.id as usize % n].sent()[d.id as usize / n];
                pass.checks
                    .check(d.verify_payload() && sent.dst == d.output.index(), || {
                        format!("{}: packet {} corrupt or misrouted", spec.tick_span, d.id)
                    });
                out.latencies.add(d.first_cycle - sent.birth);
                out.delivered_set = out
                    .delivered_set
                    .wrapping_add(mix64(d.id << 8 | d.output.index() as u64));
                for x in [d.id, d.output.index() as u64, d.first_cycle, d.last_cycle] {
                    out.detail.mix(x);
                }
                out.collected += 1;
            }
        }
    }
    let c = sw.counters();
    out.counters = c;
    out.end = sw.now();
    out.sent = feeders.iter().map(|f| f.sent().len() as u64).sum();
    let what = spec.tick_span;
    pass.checks
        .check(drained, || format!("{what}: did not drain"));
    pass.checks
        .check(c.latch_overruns == 0, || format!("{what}: latch overruns"));
    pass.checks
        .check(out.sent == c.arrived && c.in_flight() == 0, || {
            format!("{what}: conservation: sent {} counters {c:?}", out.sent)
        });
    if pass.verifying() {
        pass.checks.check(out.collected == c.departed, || {
            format!(
                "{what}: collected {} of {} departed",
                out.collected, c.departed
            )
        });
    }
    let dropped = c.dropped_buffer_full + c.corrupt_drops + c.policy_drops + c.policy_preempts;
    for x in [
        c.arrived,
        c.departed,
        dropped,
        c.fused_reads,
        c.rw_collisions,
        out.end,
    ] {
        out.digest.mix(x);
    }
    out
}

/// Stop the feeders, let packets on the wire finish, and tick until the
/// switch has been quiet for a packet time (tail words trail the buffer
/// manager going empty). False if that takes more than `DRAIN_LIMIT` cycles.
fn drain<S: WordSwitch>(
    sw: &mut S,
    feeders: &mut [PacketFeeder],
    mut col: Option<&mut OutputCollector>,
    s: usize,
) -> bool {
    feeders.iter_mut().for_each(PacketFeeder::halt);
    let mut wire = vec![None; feeders.len()];
    let mut quiet = 0;
    for _ in 0..DRAIN_LIMIT {
        let now = sw.now();
        for (w, f) in wire.iter_mut().zip(feeders.iter_mut()) {
            *w = f.tick(now);
        }
        let words_out = sw.tick(&wire);
        if let Some(col) = col.as_deref_mut() {
            col.observe(now, words_out);
        }
        let busy = wire.iter().any(Option::is_some) || !sw.is_quiescent();
        quiet = if busy { 0 } else { quiet + 1 };
        if quiet > s + 4 {
            return true;
        }
    }
    false
}
