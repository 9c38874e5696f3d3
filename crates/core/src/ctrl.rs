//! The control-signal pipeline of figure 5, as literal hardware.
//!
//! §3.3: "we only need to generate the control signals for the first
//! memory stage; the control signals for subsequent stages are delayed
//! versions of the former." The RTL switch reads its per-stage controls
//! off its wave ring (one control word per initiation cycle, never copied
//! from stage to stage); this module implements the *hardware* structure — one
//! [`simkernel::reg::DelayLine`] of control words, clocked once per cycle
//! — and a checker that asserts, cycle by cycle, that the two views are
//! identical. [`rtl::PipelinedSwitch`](crate::rtl::PipelinedSwitch) can
//! host the checker in tests; the `e5` experiment prints the pipeline's
//! contents directly.

use crate::rtl::StageCtrl;
use simkernel::reg::DelayLine;

/// The physical control pipeline: stage 0's control word enters at the
/// head; stage `k` executes what stage 0 executed `k` cycles ago.
#[derive(Debug, Clone)]
pub struct ControlPipeline {
    line: DelayLine<StageCtrl>,
    stages: usize,
}

impl ControlPipeline {
    /// A pipeline for `stages` memory stages.
    pub fn new(stages: usize) -> Self {
        assert!(stages >= 1);
        ControlPipeline {
            line: DelayLine::new(stages),
            stages,
        }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Drive stage 0's control for this cycle and clock the pipeline.
    /// Returns the control word each stage executes THIS cycle (stage 0 =
    /// the freshly driven word, stage k = the word from k cycles ago).
    pub fn clock(&mut self, stage0: StageCtrl) -> Vec<StageCtrl> {
        // The DelayLine commits on tick: stage k's committed value after
        // the tick is the word pushed k+1 cycles ago; so sample stages
        // 1.. from the pre-tick state and prepend the fresh word.
        let mut row = Vec::with_capacity(self.stages);
        row.push(stage0);
        for k in 0..self.stages - 1 {
            row.push(*self.line.stage(k));
        }
        self.line.push(stage0);
        self.line.tick();
        row
    }

    /// The control word stage `k` will execute next cycle (diagnostic).
    pub fn peek(&self, k: usize) -> &StageCtrl {
        self.line.stage(k)
    }
}

/// Shadows a [`PipelinedSwitch`](crate::rtl::PipelinedSwitch): feeds the
/// switch's stage-0 control into a real [`ControlPipeline`] and asserts
/// that the pipeline's outputs equal the switch's actual per-stage
/// controls — the fig. 5 property as a hardware invariant checker.
#[derive(Debug)]
pub struct ControlChecker {
    pipe: ControlPipeline,
    cycles_checked: u64,
}

impl ControlChecker {
    /// A checker for a switch with `stages` stages.
    pub fn new(stages: usize) -> Self {
        ControlChecker {
            pipe: ControlPipeline::new(stages),
            cycles_checked: 0,
        }
    }

    /// Call once per cycle, after the switch's `tick`, with
    /// [`stage_controls`](crate::rtl::PipelinedSwitch::stage_controls).
    /// Panics if the delayed-copy property is violated.
    pub fn check(&mut self, actual: &[StageCtrl]) {
        let expected = self.pipe.clock(actual[0]);
        assert_eq!(
            expected, actual,
            "fig. 5 violated: stage controls are not delayed copies of stage 0 \
             (cycle {})",
            self.cycles_checked
        );
        self.cycles_checked += 1;
    }

    /// Cycles validated so far.
    pub fn cycles_checked(&self) -> u64 {
        self.cycles_checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwitchConfig;
    use crate::rtl::PipelinedSwitch;
    use simkernel::cell::Packet;
    use simkernel::ids::{Addr, PortId};
    use simkernel::SplitMix64;

    #[test]
    fn pipeline_delays_by_stage_index() {
        let mut p = ControlPipeline::new(4);
        let w = StageCtrl::Write {
            addr: Addr(3),
            link: PortId(1),
        };
        let row0 = p.clock(w);
        assert_eq!(row0[0], w);
        assert_eq!(row0[1], StageCtrl::Nop);
        let row1 = p.clock(StageCtrl::Nop);
        assert_eq!(row1[0], StageCtrl::Nop);
        assert_eq!(
            row1[1], w,
            "stage 1 executes stage 0's word, one cycle late"
        );
        let row2 = p.clock(StageCtrl::Nop);
        assert_eq!(row2[2], w);
        let row3 = p.clock(StageCtrl::Nop);
        assert_eq!(row3[3], w);
        let row4 = p.clock(StageCtrl::Nop);
        assert!(row4.iter().all(|c| *c == StageCtrl::Nop), "flushed");
    }

    #[test]
    fn checker_validates_switch_under_random_traffic() {
        // The structural fig. 5 assertion, end to end: the stage controls
        // the RTL switch reads off its wave ring equal a real delay
        // line's outputs, every cycle, under heavy random traffic — with
        // fused cut-through, store-and-forward, multicast headers, and ECC
        // armed with an upset struck into a buffered packet.
        let n = 4;
        let base = SwitchConfig::symmetric(n, 16);
        let mut store_and_forward = base.clone();
        store_and_forward.cut_through = false;
        store_and_forward.fused_cut_through = false;
        let mut ecc = store_and_forward.clone();
        ecc.recovery = crate::recovery::RecoveryConfig::ecc_only();
        for (what, cfg, multicast, upset_at) in [
            ("cut-through", base.clone(), false, None),
            ("store-and-forward", store_and_forward, false, None),
            ("multicast", base, true, None),
            ("ecc", ecc, false, Some(1_000)),
        ] {
            let s = cfg.stages();
            let mut sw = PipelinedSwitch::new(cfg);
            let mut checker = ControlChecker::new(s);
            let mut rng = SplitMix64::new(3);
            let mut current: Vec<Option<(Packet, usize)>> = vec![None; n];
            let mut next_id = 1u64;
            let mut wire = vec![None; n];
            for t in 0..5_000u64 {
                let now = sw.now();
                for i in 0..n {
                    if current[i].is_none() && rng.chance(0.7) {
                        let p = if multicast {
                            let mask = 1 + rng.below_usize((1 << n) - 1) as u16;
                            Packet::synth_multicast(next_id, i, mask, s, now)
                        } else {
                            Packet::synth(next_id, i, rng.below_usize(n), s, now)
                        };
                        next_id += 1;
                        current[i] = Some((p, 0));
                    }
                    wire[i] = current[i].as_mut().map(|(p, k)| {
                        let w = p.words[*k];
                        *k += 1;
                        w
                    });
                    if current[i].as_ref().is_some_and(|(p, k)| *k == p.size_words) {
                        current[i] = None;
                    }
                }
                sw.tick(&wire);
                checker.check(&sw.stage_controls());
                if upset_at == Some(t) {
                    let live = (0..16).any(|a| sw.inject_bank_fault(s - 1, Addr(a), 1).is_some());
                    assert!(live, "{what}: no buffered packet to strike");
                }
            }
            assert_eq!(checker.cycles_checked(), 5_000, "{what}");
            assert!(sw.counters().departed > 1_000, "{what}");
            if upset_at.is_some() {
                assert!(sw.counters().ecc_corrected > 0, "{what}: upset never met");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fig. 5 violated")]
    fn checker_catches_a_forged_row() {
        let mut checker = ControlChecker::new(4);
        let nop_row = vec![StageCtrl::Nop; 4];
        checker.check(&nop_row);
        // Forge a row where stage 2 claims an operation stage 0 never
        // issued — a broken control pipeline.
        let mut forged = nop_row.clone();
        forged[2] = StageCtrl::Read {
            addr: Addr(0),
            link: PortId(0),
        };
        checker.check(&forged);
    }
}
