//! Word-level link feeder for the RTL models.
//!
//! The RTL switch consumes one `Option<u64>` word per input link per cycle.
//! A [`PacketFeeder`] drives one link: it serializes packets word by word
//! — [`Packet`]s from an explicit queue for directed tests, or packets
//! drawn at random at a configured load, whose words are computed straight
//! onto the wire — with geometric idle gaps tuned so the long-run link
//! utilization matches the requested load.
//!
//! A random feeder decides once per packet, not once per word. Every idle
//! call is one Bernoulli trial for a header. At a header the feeder draws
//! the destination and then, at once, the trials of the idle gap after the
//! packet, and keeps only the call at which the next header is due. Every
//! other call is one compare against that call and a word computed from
//! its index. These are the draws one trial per idle call would make, in
//! the same order, so the wire and the [`PacketFeeder::sent`] log are
//! those of a feeder that decides call by call. A run pays at its last
//! header for the whole gap after it, ≈ `packet_words · (1 − load) / load`
//! draws, even where the run ends first.
//!
//! A [`PacketFeeder::push`] hands a drawn gap's undrawn rest back: the
//! generator restarts from its state before the gap, advanced by the idle
//! calls already spent, and the queued packet goes out at the first call
//! after the current packet. [`PacketFeeder::halt`] cancels the due header
//! the same way.

use crate::dest::DestDist;
use simkernel::cell::Packet;
use simkernel::ids::Cycle;
use simkernel::SplitMix64;
use std::collections::VecDeque;

/// Record of a packet this feeder put on the wire (for conservation and
/// integrity checks at the far end).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentRecord {
    /// Packet id.
    pub id: u64,
    /// Destination output port.
    pub dst: usize,
    /// Cycle in which word 0 was driven.
    pub birth: Cycle,
}

/// Serializes packets onto one input link, one word per cycle.
#[derive(Debug, Clone)]
pub struct PacketFeeder {
    port: usize,
    packet_words: usize,
    /// `chance_threshold` of the per-idle-call header probability.
    start_at: u64,
    dist: Option<DestDist>,
    rng: SplitMix64,
    next_id: u64,
    id_stride: u64,
    queue: VecDeque<Packet>,
    /// The queued packet on the wire, if the packet on the wire is one.
    script: Option<Packet>,
    /// Id of the random packet on the wire, whose words are
    /// [`Packet::synth`]'s, computed as they are driven.
    id: u64,
    /// Calls since the last header: the index of the word the next call
    /// drives, `packet_words` or more between packets.
    k: usize,
    /// The `k` of the next call that decides: the drawn header, or the
    /// first call after a packet when no gap is drawn; `usize::MAX` for a
    /// link idle until a push.
    next: usize,
    /// A gap is drawn, and `next` is its header.
    drawn: bool,
    /// Failed trials of the drawn gap, one per idle call before `next`.
    fails: usize,
    /// The generator before the drawn gap's first trial.
    gap_rng: SplitMix64,
    sent: Vec<SentRecord>,
}

impl PacketFeeder {
    /// A random feeder for input `port`: packets of `packet_words` words,
    /// long-run link load `load`, destinations from `dist`. Packet ids are
    /// `port + k·id_stride` so feeders sharing an `id_stride` equal to the
    /// port count generate globally unique ids.
    pub fn random(
        port: usize,
        packet_words: usize,
        load: f64,
        dist: DestDist,
        seed: u64,
        id_stride: u64,
    ) -> Self {
        assert!(packet_words >= 1);
        assert!((0.0..=1.0).contains(&load));
        assert!(
            id_stride as usize > port || (id_stride == 0 && port == 0),
            "ids port + k*id_stride collide across feeders unless id_stride \
             ({id_stride}) exceeds port ({port})"
        );
        // With geometric idle gaps of mean g, utilization = L/(L+g);
        // solve g for the requested load, then the per-idle-cycle start
        // probability q satisfies g = (1-q)/q.
        let start_prob = if load >= 1.0 {
            1.0
        } else if load <= 0.0 {
            0.0
        } else {
            let l = packet_words as f64;
            let g = l * (1.0 - load) / load;
            1.0 / (1.0 + g)
        };
        let rng = SplitMix64::new(seed ^ (port as u64).wrapping_mul(0x9e37_79b9));
        PacketFeeder {
            start_at: SplitMix64::chance_threshold(start_prob),
            dist: Some(dist),
            gap_rng: rng.clone(),
            rng,
            next_id: port as u64,
            id_stride,
            ..PacketFeeder::scripted(port, packet_words)
        }
    }

    /// A directed feeder that only transmits explicitly queued packets.
    pub fn scripted(port: usize, packet_words: usize) -> Self {
        PacketFeeder {
            port,
            packet_words,
            start_at: 0,
            dist: None,
            rng: SplitMix64::new(port as u64),
            next_id: 0,
            id_stride: 0,
            queue: VecDeque::new(),
            script: None,
            id: 0,
            k: packet_words,
            next: packet_words,
            drawn: false,
            fails: 0,
            gap_rng: SplitMix64::new(port as u64),
            sent: Vec::new(),
        }
    }

    /// Queue a packet for transmission (takes precedence over random
    /// generation). Panics if its size does not match the feeder's.
    pub fn push(&mut self, p: Packet) {
        assert_eq!(p.size_words, self.packet_words, "packet size mismatch");
        self.queue.push_back(p);
        self.hand_back();
    }

    /// The input port this feeder drives.
    pub fn port(&self) -> usize {
        self.port
    }

    /// Stop generating new random packets. The packet currently on the
    /// wire (and anything explicitly queued) still completes — a feeder
    /// must never cut a packet short, because the link protocol forbids
    /// idles inside a packet.
    pub fn halt(&mut self) {
        self.hand_back();
        self.dist = None;
    }

    /// Packets put on the wire so far.
    pub fn sent(&self) -> &[SentRecord] {
        &self.sent
    }

    /// True if a packet is mid-transmission or queued.
    pub fn busy(&self) -> bool {
        self.k < self.packet_words || !self.queue.is_empty()
    }

    /// The word on the link in cycle `now` (`None` = idle).
    #[inline]
    pub fn tick(&mut self, now: Cycle) -> Option<u64> {
        let k = self.k;
        if k == self.next {
            return self.decide(now);
        }
        self.k = k + 1;
        match &self.script {
            // Idle or not is a select, not a branch: it flips twice a
            // packet, at no fixed period.
            None => std::hint::select_unpredictable(
                k < self.packet_words,
                Some(Packet::payload_word(self.id, k)),
                None,
            ),
            Some(p) => p.words.get(k).copied(),
        }
    }

    /// The call at `next`: the drawn header, else the next queued packet,
    /// else the first trial of a new gap.
    #[inline(never)]
    fn decide(&mut self, now: Cycle) -> Option<u64> {
        if !self.drawn {
            if let Some(p) = self.queue.pop_front() {
                let header = p.words[0];
                self.start(p.id.0, p.dst.index(), now);
                self.script = Some(p);
                self.next = self.packet_words;
                return Some(header);
            }
            if self.dist.is_none() || self.start_at == 0 {
                self.next = usize::MAX;
                return None;
            }
            self.draw_gap(self.k);
            if self.next > self.k {
                // This call is the gap's first idle.
                self.k += 1;
                return None;
            }
        }
        let dst = self
            .dist
            .as_ref()
            .expect("a gap is drawn only while generating")
            .draw(&mut self.rng);
        let id = self.next_id;
        self.next_id += self.id_stride.max(1);
        self.start(id, dst, now);
        self.script = None;
        self.id = id;
        self.draw_gap(self.packet_words);
        Some(Packet::encode_header(dst, id))
    }

    /// Log a header driven in cycle `now`; the next call drives word 1.
    fn start(&mut self, id: u64, dst: usize, now: Cycle) {
        self.sent.push(SentRecord {
            id,
            dst,
            birth: now,
        });
        self.k = 1;
    }

    /// Draw the trials of a gap whose first idle call is call `from` of
    /// the current packet, up to the first that passes: the next header.
    fn draw_gap(&mut self, from: usize) {
        self.gap_rng = self.rng.clone();
        let mut fails = 0;
        while !self.rng.chance_at(self.start_at) {
            fails += 1;
        }
        self.drawn = true;
        self.fails = fails;
        self.next = from + fails;
    }

    /// Give a drawn gap's trials back to the generator, except those its
    /// idle calls already spent, and make the first call after the current
    /// packet a decision.
    fn hand_back(&mut self) {
        if self.drawn {
            let spent = self.k.saturating_sub(self.next - self.fails);
            self.rng = self.gap_rng.clone();
            for _ in 0..spent {
                self.rng.next_u64();
            }
            self.drawn = false;
        }
        self.next = self.k.max(self.packet_words);
    }
}

/// The per-call feeder this module replaced, frozen: one `OnWire` match
/// and, on an idle call, one `chance` trial per call. The tests drive it
/// in lockstep with [`PacketFeeder`].
#[cfg(test)]
mod twin {
    use crate::dest::DestDist;
    use simkernel::cell::Packet;
    use simkernel::ids::Cycle;
    use simkernel::SplitMix64;
    use std::collections::VecDeque;

    use super::SentRecord;

    #[derive(Debug)]
    pub(super) struct OnWireFeeder {
        packet_words: usize,
        start_prob: f64,
        dist: Option<DestDist>,
        rng: SplitMix64,
        next_id: u64,
        id_stride: u64,
        queue: VecDeque<Packet>,
        pub(super) current: OnWire,
        sent: Vec<SentRecord>,
    }

    #[derive(Debug)]
    pub(super) enum OnWire {
        Idle,
        Queued(Packet, usize),
        Synth(u64, usize),
    }

    impl OnWireFeeder {
        pub(super) fn random(
            port: usize,
            packet_words: usize,
            load: f64,
            dist: DestDist,
            seed: u64,
            id_stride: u64,
        ) -> Self {
            let start_prob = if load >= 1.0 {
                1.0
            } else if load <= 0.0 {
                0.0
            } else {
                let l = packet_words as f64;
                let g = l * (1.0 - load) / load;
                1.0 / (1.0 + g)
            };
            OnWireFeeder {
                packet_words,
                start_prob,
                dist: Some(dist),
                rng: SplitMix64::new(seed ^ (port as u64).wrapping_mul(0x9e37_79b9)),
                next_id: port as u64,
                id_stride,
                queue: VecDeque::new(),
                current: OnWire::Idle,
                sent: Vec::new(),
            }
        }

        pub(super) fn push(&mut self, p: Packet) {
            self.queue.push_back(p);
        }

        pub(super) fn halt(&mut self) {
            self.dist = None;
        }

        pub(super) fn halted(&self) -> bool {
            self.dist.is_none()
        }

        pub(super) fn sent(&self) -> &[SentRecord] {
            &self.sent
        }

        pub(super) fn busy(&self) -> bool {
            !matches!(self.current, OnWire::Idle) || !self.queue.is_empty()
        }

        pub(super) fn tick(&mut self, now: Cycle) -> Option<u64> {
            let (word, k) = match &mut self.current {
                OnWire::Queued(p, next) => {
                    let k = *next;
                    *next += 1;
                    (p.words[k], k)
                }
                OnWire::Synth(id, next) => {
                    let k = *next;
                    *next += 1;
                    (Packet::payload_word(*id, k), k)
                }
                OnWire::Idle => {
                    let (id, dst, header, started) = if let Some(p) = self.queue.pop_front() {
                        (p.id.0, p.dst.index(), p.words[0], OnWire::Queued(p, 1))
                    } else {
                        let dist = self.dist.as_ref()?;
                        if !self.rng.chance(self.start_prob) {
                            return None;
                        }
                        let dst = dist.draw(&mut self.rng);
                        let id = self.next_id;
                        self.next_id += self.id_stride.max(1);
                        (
                            id,
                            dst,
                            Packet::encode_header(dst, id),
                            OnWire::Synth(id, 1),
                        )
                    };
                    self.sent.push(SentRecord {
                        id,
                        dst,
                        birth: now,
                    });
                    self.current = started;
                    (header, 0)
                }
            };
            if k + 1 == self.packet_words {
                self.current = OnWire::Idle;
            }
            Some(word)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::twin::{OnWire, OnWireFeeder};
    use super::*;

    #[test]
    fn scripted_feeder_serializes_in_order() {
        let mut f = PacketFeeder::scripted(0, 4);
        let p = Packet::synth(5, 0, 2, 4, 0);
        f.push(p.clone());
        let words: Vec<Option<u64>> = (0..6).map(|c| f.tick(c)).collect();
        assert_eq!(words[0], Some(p.words[0]));
        assert_eq!(words[3], Some(p.words[3]));
        assert_eq!(words[4], None);
        assert_eq!(f.sent().len(), 1);
        assert_eq!(f.sent()[0].birth, 0);
    }

    #[test]
    fn packets_are_contiguous_on_the_wire() {
        let mut f = PacketFeeder::random(0, 8, 0.7, DestDist::uniform(4), 11, 4);
        let mut in_packet = 0usize;
        for c in 0..50_000u64 {
            match f.tick(c) {
                Some(_) => in_packet += 1,
                None => {
                    assert!(
                        in_packet.is_multiple_of(8),
                        "idle mid-packet after {in_packet} words"
                    );
                }
            }
        }
    }

    #[test]
    fn measured_load_matches() {
        for load in [0.2, 0.5, 0.9] {
            let mut f = PacketFeeder::random(1, 8, load, DestDist::uniform(4), 3, 4);
            let busy = (0..200_000u64).filter(|&c| f.tick(c).is_some()).count();
            let l = busy as f64 / 200_000.0;
            assert!((l - load).abs() < 0.02, "target {load}, measured {l}");
        }
    }

    #[test]
    fn ids_unique_across_feeders() {
        let mut ids = std::collections::HashSet::new();
        for port in 0..4 {
            let mut f = PacketFeeder::random(port, 4, 0.9, DestDist::uniform(4), 7, 4);
            for c in 0..1000 {
                f.tick(c);
            }
            for r in f.sent() {
                assert!(ids.insert(r.id), "duplicate id {}", r.id);
            }
        }
        assert!(ids.len() > 100);
    }

    #[test]
    #[should_panic(expected = "id_stride (4) exceeds port (5)")]
    fn a_port_at_or_past_the_id_stride_is_rejected() {
        // Ids 5 + 4k would collide with port 1's 1 + 4k.
        PacketFeeder::random(5, 4, 0.9, DestDist::uniform(4), 7, 4);
    }

    #[test]
    fn random_wire_is_the_synth_packets_of_the_sent_log() {
        // The random path computes its words on the fly; the scripted path
        // reads them out of `Packet::synth`'s vector. Replaying the sent
        // log through a scripted feeder must reproduce the wire exactly.
        const WORDS: usize = 8;
        for (load, seed) in [(0.2, 5), (0.8, 6), (1.0, 7)] {
            let mut f = PacketFeeder::random(2, WORDS, load, DestDist::uniform(8), seed, 8);
            let mut wire = Vec::new();
            while f.sent().len() < 10_000 || f.busy() {
                wire.push(f.tick(wire.len() as Cycle));
            }
            let mut g = PacketFeeder::scripted(2, WORDS);
            let mut log = f.sent().iter().peekable();
            for (c, &w) in wire.iter().enumerate() {
                if let Some(r) = log.next_if(|r| r.birth == c as Cycle) {
                    g.push(Packet::synth(r.id, 2, r.dst, WORDS, r.birth));
                }
                assert_eq!(g.tick(c as Cycle), w, "load {load}, cycle {c}");
            }
            assert_eq!(g.sent(), f.sent(), "load {load}");
            assert!(f
                .sent()
                .iter()
                .enumerate()
                .all(|(k, r)| r.id == 2 + 8 * k as u64));
        }
    }

    #[test]
    fn halt_mid_packet_completes_the_packet() {
        let mut f = PacketFeeder::random(1, 8, 1.0, DestDist::uniform(4), 9, 4);
        let head: Vec<_> = (0..3).map(|c| f.tick(c)).collect();
        f.halt();
        assert!(f.busy(), "five words still to go");
        let tail: Vec<_> = (3..8).map(|c| f.tick(c)).collect();
        let r = f.sent()[0].clone();
        let p = Packet::synth(r.id, 1, r.dst, 8, 0);
        let wire: Vec<u64> = head.into_iter().chain(tail).flatten().collect();
        assert_eq!(wire, p.words);
        assert!(!f.busy());
        assert!((8..100).all(|c| f.tick(c).is_none()), "halted for good");
        assert_eq!(f.sent().len(), 1);
    }

    #[test]
    fn pushed_packet_goes_out_between_random_packets() {
        let mut f = PacketFeeder::random(0, 4, 1.0, DestDist::uniform(4), 2, 4);
        let directed = Packet::synth(999, 0, 3, 4, 0);
        f.tick(0);
        f.tick(1);
        f.push(directed.clone()); // a random packet is on the wire
        f.tick(2);
        f.tick(3);
        let next: Vec<u64> = (4..8).filter_map(|c| f.tick(c)).collect();
        assert_eq!(next, directed.words, "queued beats the next random draw");
        assert!(f.tick(8).is_some(), "random generation resumes");
        let ids: Vec<u64> = f.sent().iter().map(|r| r.id).collect();
        assert_eq!(ids, [0, 999, 4]);
    }

    #[test]
    fn zero_load_stays_idle() {
        let mut f = PacketFeeder::random(0, 4, 0.0, DestDist::uniform(4), 1, 4);
        let fresh = format!("{:?}", f.rng);
        assert_eq!(f.tick(0), None);
        // No gap is drawn: the generator is untouched, and the link idles
        // until a push.
        assert_eq!((format!("{:?}", f.rng), f.next), (fresh, usize::MAX));
        assert!((1..1000u64).all(|c| f.tick(c).is_none()));
    }

    #[test]
    fn full_load_never_idles() {
        let mut f = PacketFeeder::random(0, 4, 1.0, DestDist::uniform(4), 1, 4);
        assert!((0..1000u64).all(|c| f.tick(c).is_some()));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn push_checks_size() {
        let mut f = PacketFeeder::scripted(0, 4);
        f.push(Packet::synth(0, 0, 0, 8, 0));
    }

    /// What a lockstep run does before a call.
    enum Act {
        Push,
        Halt,
    }

    /// Where the twin's link was when an event hit it, summed over a grid.
    #[derive(Debug, Default)]
    struct Reach {
        push_mid_packet: u32,
        push_mid_gap: u32,
        push_halted: u32,
        halt_mid_packet: u32,
        halt_mid_gap: u32,
    }

    /// A random packet is on the twin's wire.
    fn mid_packet(t: &OnWireFeeder) -> bool {
        matches!(t.current, OnWire::Synth(..))
    }

    /// The twin's link is in a random gap: idle, nothing queued, not halted.
    fn mid_gap(t: &OnWireFeeder) -> bool {
        matches!(t.current, OnWire::Idle) && !t.busy() && !t.halted()
    }

    /// Drive a random feeder and its frozen twin for `calls` calls, doing
    /// `act(call, twin)` before each, and compare the word, the `sent()`
    /// log and `busy()` at every call.
    fn lockstep(
        (words, load, seed): (usize, f64, u64),
        calls: u64,
        reach: &mut Reach,
        mut act: impl FnMut(u64, &OnWireFeeder) -> Option<Act>,
    ) {
        let mut f = PacketFeeder::random(1, words, load, DestDist::uniform(4), seed, 4);
        let mut t = OnWireFeeder::random(1, words, load, DestDist::uniform(4), seed, 4);
        let mut pushed = 0;
        for c in 0..calls {
            match act(c, &t) {
                Some(Act::Push) => {
                    if t.halted() {
                        reach.push_halted += 1;
                    } else if mid_packet(&t) {
                        reach.push_mid_packet += 1;
                    } else if mid_gap(&t) {
                        reach.push_mid_gap += 1;
                    }
                    let p = Packet::synth(1_000_001 + 4 * pushed, 1, pushed as usize % 4, words, c);
                    pushed += 1;
                    f.push(p.clone());
                    t.push(p);
                }
                Some(Act::Halt) => {
                    reach.halt_mid_packet += mid_packet(&t) as u32;
                    reach.halt_mid_gap += mid_gap(&t) as u32;
                    f.halt();
                    t.halt();
                }
                None => {}
            }
            let at = || format!("{words} words, load {load}, seed {seed}, call {c}");
            assert_eq!(f.busy(), t.busy(), "{}", at());
            assert_eq!(f.tick(c), t.tick(c), "{}", at());
            assert_eq!(f.busy(), t.busy(), "{}", at());
            assert_eq!(f.sent().len(), t.sent().len(), "{}", at());
            assert_eq!(f.sent().last(), t.sent().last(), "{}", at());
        }
        assert_eq!(f.sent(), t.sent());
    }

    /// Pushes at about one call in 97, from a stream of their own.
    fn pushes(seed: u64) -> impl FnMut(u64) -> bool {
        let mut rng = SplitMix64::new(seed ^ 0x9054);
        move |_| rng.below(97) == 0
    }

    #[test]
    fn random_feeder_matches_its_per_call_twin() {
        const CALLS: u64 = 8_000;
        let mut reach = Reach::default();
        for words in [1, 2, 5, 16] {
            for load in [0.0, 0.03, 0.5, 0.8, 0.95, 1.0] {
                for seed in [3, 0x5EED, 0xC0FFEE] {
                    let point = (words, load, seed);
                    let mut push = pushes(seed);
                    lockstep(point, CALLS, &mut reach, |c, _| {
                        push(c).then_some(Act::Push)
                    });
                    // Halt once, at the first random packet (then at the
                    // first random gap) past mid-run; pushes go on after.
                    for at in [mid_packet, mid_gap] {
                        let mut push = pushes(seed);
                        let mut halted = false;
                        lockstep(point, CALLS, &mut reach, |c, t| {
                            if !halted && c >= CALLS / 2 && at(t) {
                                halted = true;
                                return Some(Act::Halt);
                            }
                            push(c).then_some(Act::Push)
                        });
                    }
                }
            }
        }
        let Reach {
            push_mid_packet,
            push_mid_gap,
            push_halted,
            halt_mid_packet,
            halt_mid_gap,
        } = reach;
        assert!(
            push_mid_packet > 100 && push_mid_gap > 100 && push_halted > 100,
            "{reach:?}"
        );
        assert!(halt_mid_packet > 40 && halt_mid_gap > 40, "{reach:?}");
    }

    #[test]
    fn a_one_word_packet_is_its_own_tail() {
        let mut f = PacketFeeder::random(0, 1, 1.0, DestDist::uniform(4), 3, 4);
        for c in 0..100 {
            let w = f.tick(c).expect("full load");
            assert!(!f.busy(), "the header is the tail");
            let r = f.sent().last().expect("a header went out");
            assert_eq!((w, r.birth), (Packet::encode_header(r.dst, r.id), c));
        }
        assert_eq!(f.sent().len(), 100);
        let mut g = PacketFeeder::scripted(0, 1);
        g.push(Packet::synth(7, 0, 1, 1, 0));
        g.push(Packet::synth(8, 0, 2, 1, 0));
        let wire: Vec<_> = (0..3).map(|c| g.tick(c)).collect();
        assert_eq!(
            wire,
            [
                Some(Packet::encode_header(1, 7)),
                Some(Packet::encode_header(2, 8)),
                None
            ]
        );
    }

    #[test]
    fn full_load_draws_an_empty_gap_after_every_packet() {
        let mut f = PacketFeeder::random(0, 5, 1.0, DestDist::uniform(4), 1, 4);
        for c in 0..1000u64 {
            assert!(f.tick(c).is_some());
            assert!(f.drawn && f.fails == 0, "call {c}");
        }
        assert!(f
            .sent()
            .iter()
            .enumerate()
            .all(|(k, r)| r.birth == 5 * k as u64));
    }

    #[test]
    fn push_onto_a_halted_random_feeder() {
        let mut f = PacketFeeder::random(2, 4, 0.5, DestDist::uniform(4), 8, 4);
        let mut c = 0;
        while f.sent().is_empty() || f.busy() {
            f.tick(c);
            c += 1;
        }
        f.halt();
        let random = f.sent().len();
        assert!((c..c + 50).all(|c| f.tick(c).is_none()));
        let p = Packet::synth(1001, 2, 3, 4, 0);
        f.push(p.clone());
        assert!(f.busy());
        let wire: Vec<u64> = (c + 50..c + 54).map_while(|c| f.tick(c)).collect();
        assert_eq!(wire, p.words, "out at the next call, whole");
        assert!(
            (c + 54..c + 500).all(|c| f.tick(c).is_none()),
            "halted for good"
        );
        assert_eq!(f.sent().len(), random + 1);
        assert_eq!(f.sent()[random].birth, c + 50);
    }
}
