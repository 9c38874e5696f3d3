//! Golden-model equivalence: the pipelined memory must return exactly
//! the data a true multi-port memory would, for any legal schedule of
//! wave initiations — the organizations differ in cost and timing, never
//! in contents.
//!
//! Schedules are drawn from `SplitMix64` with fixed seeds (no external
//! property-testing dependency), so every run checks the same population
//! of cases. Half the pipelined cases run with ECC armed and one spare
//! column, and every case strikes a single-bit upset, scrubs it and
//! fails the struck bank over at a drawn cycle, in flight: the contents
//! survive, so the reads still equal the golden model's.

use membank::bank::EccOutcome;
use membank::multiport::MultiPortMemory;
use membank::pipelined::{PipelinedMemory, WaveOp};
use simkernel::ids::Addr;
use simkernel::SplitMix64;

/// A random legal schedule: per cycle, at most one initiation.
#[derive(Debug, Clone)]
enum Op {
    Idle,
    Write { addr: usize, seed: u64 },
    Read { addr: usize },
}

/// Weighted draw matching the old strategy: 2 idle : 3 write : 3 read.
fn random_ops(rng: &mut SplitMix64, depth: usize) -> Vec<Op> {
    let len = rng.below_usize(120);
    (0..len)
        .map(|_| match rng.below(8) {
            0 | 1 => Op::Idle,
            2..=4 => Op::Write {
                addr: rng.below_usize(depth),
                seed: rng.next_u64(),
            },
            _ => Op::Read {
                addr: rng.below_usize(depth),
            },
        })
        .collect()
}

/// Between two cycles: with ECC armed, flip `bit` of slot `addr` in the
/// bank of stage `struck`, scrub the slot (which corrects the upset) and
/// fail that bank over onto the spare. Without ECC, only the failover,
/// which finds no spare.
fn recover(pipe: &mut PipelinedMemory, ecc: bool, struck: usize, addr: Addr, bit: u64) {
    if !ecc {
        assert_eq!(pipe.fail_over(struck), None, "no spare to promote");
        return;
    }
    pipe.inject_fault(struck, addr, 1 << bit);
    let mut corrected = 0;
    pipe.scrub_slot(addr, |mem, k, outcome| {
        assert_eq!(mem.spares_remaining(), usize::from(k <= struck));
        if outcome != EccOutcome::Clean {
            assert_eq!(outcome, EccOutcome::Corrected { bit: bit as u32 });
            assert_eq!((k, mem.corrections(k)), (struck, 1));
            corrected += 1;
        }
        k == struck
    });
    assert_eq!(corrected, 1, "the upset was met");
    assert_eq!(
        pipe.spares_remaining(),
        0,
        "the spare took the struck bank's place"
    );
}

#[test]
fn pipelined_matches_multiport_golden() {
    let mut gen = SplitMix64::new(0x5EED_0020);
    // Recovery draws come from their own stream, so the schedules are
    // the same population with or without them.
    let mut faults = SplitMix64::new(0x5EED_0022);
    for case in 0..128u64 {
        let ops = random_ops(&mut gen, 8);
        let stages = 4;
        let depth = 8;
        let ecc = case % 2 == 1;
        let mut pipe = PipelinedMemory::new_with_spares(stages, depth, 64, usize::from(ecc));
        if ecc {
            pipe.enable_ecc();
        }
        let fail_at = faults.below_usize(ops.len() + 1);
        let (struck, slot, bit) = (
            faults.below_usize(stages),
            faults.below_usize(depth),
            faults.below(64),
        );
        // Golden model: word-addressed, effectively unlimited ports.
        let mut gold = MultiPortMemory::new(stages * depth, 64, 64);
        // Track, per slot, the value set at the *time each read was
        // initiated* — the pipelined read of slot A initiated at t must
        // return the contents as of t (later writes must not corrupt it,
        // earlier same-cycle rule: reads see pre-initiation contents).
        let mut shadow: Vec<Vec<u64>> = vec![vec![0; stages]; depth];
        let mut expected_reads: Vec<(usize, Vec<u64>)> = Vec::new();
        let mut got_reads: Vec<(usize, Vec<u64>)> = Vec::new();

        for (t, op) in ops.iter().enumerate() {
            if t == fail_at {
                recover(&mut pipe, ecc, struck, Addr(slot), bit);
            }
            gold.begin_cycle(t as u64);
            match op {
                Op::Idle => {}
                Op::Write { addr, seed } => {
                    let words: Vec<u64> = (0..stages as u64)
                        .map(|k| seed.wrapping_mul(31).wrapping_add(k))
                        .collect();
                    // Initiation order within a cycle: a write initiated
                    // at t lands in stage k at t+k; a read initiated at
                    // any t' > t of the same slot sees it (reads trail
                    // writes). Shadow: commit at initiation.
                    shadow[*addr] = words.clone();
                    for (k, w) in words.iter().enumerate() {
                        gold.write(Addr(addr + k * depth), *w)
                            .expect("golden ports");
                    }
                    pipe.initiate(WaveOp::Write {
                        addr: Addr(*addr),
                        words,
                    })
                    .expect("one per cycle");
                }
                Op::Read { addr } => {
                    expected_reads.push((*addr, shadow[*addr].clone()));
                    pipe.initiate(WaveOp::Read { addr: Addr(*addr) })
                        .expect("one per cycle");
                }
            }
            for r in pipe.tick() {
                got_reads.push((r.addr.index(), r.words.clone()));
            }
        }
        if fail_at == ops.len() {
            recover(&mut pipe, ecc, struck, Addr(slot), bit);
        }
        for r in pipe.drain() {
            got_reads.push((r.addr.index(), r.words.clone()));
        }
        assert_eq!(got_reads.len(), expected_reads.len(), "case {case}");
        // Reads complete in initiation order (waves can't overtake).
        for (got, want) in got_reads.iter().zip(&expected_reads) {
            assert_eq!(
                got, want,
                "case {case}: pipelined read diverged from golden model"
            );
        }
    }
}

#[test]
fn interleaved_streaming_matches_contents() {
    use membank::interleaved::InterleavedMemory;
    let mut gen = SplitMix64::new(0x5EED_0021);
    for case in 0..128u64 {
        let packets: Vec<u64> = (0..1 + gen.below_usize(15))
            .map(|_| gen.next_u64())
            .collect();
        let words = 4;
        let mut m = InterleavedMemory::new(packets.len(), words, 64);
        let mut banks = Vec::new();
        // Stream every packet in (each to its own bank, all concurrent —
        // the PRIZMA selling point).
        for seed in &packets {
            banks.push((m.allocate().expect("capacity == packets"), *seed));
        }
        for k in 0..words {
            m.begin_cycle(k as u64);
            for (bank, seed) in &banks {
                m.write_word(*bank, k, seed.wrapping_add(k as u64))
                    .expect("distinct banks");
            }
        }
        for k in 0..words {
            m.begin_cycle((words + k) as u64);
            for (bank, seed) in &banks {
                let v = m.read_word(*bank, k).expect("distinct banks");
                assert_eq!(v, seed.wrapping_add(k as u64), "case {case}");
            }
        }
    }
}
