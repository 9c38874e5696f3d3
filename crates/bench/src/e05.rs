//! E5 — the fig. 5 control-signal wave table (§3.2–3.3).
//!
//! Drives the 2×2 RTL switch of figure 4 with directed packets and prints
//! the literal cycle-by-cycle table of figure 5: what every memory stage
//! (M0..M3) is doing, what is on every link wire, and where the waves
//! are. The printed trace *is* the reproduction of the figure; the tests
//! pin the timing facts the paper derives from it (write wave chases the
//! arrival wave, cut-through is automatic, staggered initiation).

use simkernel::cell::Packet;
use switch_core::config::SwitchConfig;
use switch_core::rtl::{OutputCollector, PipelinedSwitch, StageCtrl};
use telemetry::{Recorder, Shared, SharedRecorder};

/// One rendered cycle of the scenario.
#[derive(Debug, Clone)]
pub struct E5Cycle {
    /// Cycle number.
    pub cycle: u64,
    /// Word on each input wire.
    pub wires_in: Vec<Option<u64>>,
    /// Control at each stage (from [`PipelinedSwitch::stage_controls`]).
    pub controls: Vec<String>,
    /// Word on each output wire.
    pub wires_out: Vec<Option<u64>>,
}

/// The directed scenario: packet A (input 0 → output 1) headers at cycle
/// 0; packet B (input 1 → output 1, colliding) headers at cycle 0 too;
/// packet C (input 0 → output 0) headers at cycle 4.
pub fn scenario() -> (
    Vec<E5Cycle>,
    PipelinedSwitch,
    Vec<switch_core::rtl::DeliveredPacket>,
    SharedRecorder,
) {
    let cfg = SwitchConfig::symmetric(2, 8);
    let s = cfg.stages();
    let mut sw = PipelinedSwitch::new(cfg);
    let rec = Shared::new(Recorder::unbounded());
    sw.attach_probe(rec.handle());
    let a = Packet::synth(0xA, 0, 1, s, 0);
    let b = Packet::synth(0xB, 1, 1, s, 0);
    let c_pkt = Packet::synth(0xC, 0, 0, s, 4);
    let mut col = OutputCollector::new(2, s);
    let mut cycles = Vec::new();
    for t in 0..24u64 {
        let w0 = if t < 4 {
            Some(a.words[t as usize])
        } else if t < 8 {
            Some(c_pkt.words[(t - 4) as usize])
        } else {
            None
        };
        let w1 = (t < 4).then(|| b.words[t as usize]);
        let wires_in = vec![w0, w1];
        let now = sw.now();
        let out = sw.tick(&wires_in).to_vec();
        col.observe(now, &out);
        cycles.push(E5Cycle {
            cycle: now,
            wires_in,
            controls: sw
                .stage_controls()
                .iter()
                .map(|c| match c {
                    StageCtrl::Nop => "-".to_string(),
                    StageCtrl::Write { addr, link } => format!("W{} i{}", addr.index(), link),
                    StageCtrl::Read { addr, link } => format!("R{} o{}", addr.index(), link),
                    StageCtrl::Fused {
                        addr,
                        input,
                        output,
                    } => format!("W{}+R i{} o{}", addr.index(), input, output),
                })
                .collect(),
            wires_out: out.to_vec(),
        });
    }
    let delivered = col.take();
    (cycles, sw, delivered, rec)
}

/// Render the report.
pub fn run(_quick: bool) -> String {
    let (cycles, _sw, delivered, rec) = scenario();
    let mut s = String::from(
        "E5: fig. 5 control-signal table — 2x2 switch, 4-word packets.\n\
         A: in0->out1 @0;  B: in1->out1 @0 (collides with A);  C: in0->out0 @4.\n\n",
    );
    s.push_str("cyc |   in0    in1 |        M0        M1        M2        M3 |  out0   out1\n");
    s.push_str(&"-".repeat(86));
    s.push('\n');
    let fmt_w = |w: &Option<u64>| match w {
        Some(v) => format!("{:>6}", format!("{:04x}", v & 0xFFFF)),
        None => "     .".to_string(),
    };
    for c in &cycles {
        s.push_str(&format!(
            "{:>3} | {} {} | {} | {} {}\n",
            c.cycle,
            fmt_w(&c.wires_in[0]),
            fmt_w(&c.wires_in[1]),
            c.controls
                .iter()
                .map(|x| format!("{x:>9}"))
                .collect::<Vec<_>>()
                .join(" "),
            fmt_w(&c.wires_out[0]),
            fmt_w(&c.wires_out[1]),
        ));
    }
    s.push_str("\nEvent trace (probe stream):\n");
    s.push_str(&rec.render());
    s.push_str(&format!(
        "\nDelivered: {} packets, all payloads intact: {}.\n\
         Paper claims checked: write wave starts 1 cycle after the header and chases\n\
         the arrival wave (no double buffering); the first packet's read is FUSED with\n\
         its write wave (automatic cut-through, first word out at a+2); the collided\n\
         packet B queues and departs back-to-back after A.\n",
        delivered.len(),
        delivered.iter().all(|d| d.verify_payload()),
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::ProbeEvent;

    #[test]
    fn control_signals_are_delayed_copies() {
        // The defining fig. 5 property: stage k's control at cycle t+k
        // equals stage 0's at cycle t.
        let (cycles, _, _, _) = scenario();
        for t in 0..cycles.len() {
            let m0 = &cycles[t].controls[0];
            for k in 1..4 {
                if t + k < cycles.len() {
                    assert_eq!(
                        &cycles[t + k].controls[k],
                        m0,
                        "stage {k} at cycle {} must repeat M0 of cycle {t}",
                        t + k
                    );
                }
            }
        }
    }

    #[test]
    fn cut_through_fused_and_collision_staggered() {
        let (_, sw, delivered, _) = scenario();
        let ctr = sw.counters();
        assert_eq!(ctr.arrived, 3);
        assert_eq!(ctr.departed, 3);
        assert_eq!(ctr.latch_overruns, 0);
        assert!(ctr.fused_reads >= 2, "A and C cut through fused");
        // A's first word leaves at cycle 2 (a=0, fused at 1, out at 2).
        let a = delivered.iter().find(|d| d.id == 0xA).expect("A delivered");
        assert_eq!(a.first_cycle, 2);
        // B queues behind A on output 1 and follows back-to-back.
        let b = delivered.iter().find(|d| d.id == 0xB).expect("B delivered");
        assert_eq!(b.first_cycle, a.last_cycle + 1);
        // All payloads intact.
        assert!(delivered.iter().all(|d| d.verify_payload()));
    }

    #[test]
    fn tail_transmission_never_precedes_arrival() {
        // §3.3: "transmission of the packet's tail will only be attempted
        // after that tail has arrived into the switch".
        let (_, _sw, delivered, rec) = scenario();
        let entries = rec.entries();
        for d in &delivered {
            // Arrival of word k of packet X with header at cycle h is
            // h + k; tail arrives h + 3.
            let birth = entries
                .iter()
                .find_map(|e| match &e.event {
                    ProbeEvent::HeaderArrived { id, .. } if *id == d.id => Some(e.cycle),
                    _ => None,
                })
                .expect("header event");
            assert!(
                d.last_cycle > birth + 3,
                "packet {:x}: tail sent at {} but arrived at {}",
                d.id,
                d.last_cycle,
                birth + 3
            );
        }
    }
}
