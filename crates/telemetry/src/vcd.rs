//! VCD (Value Change Dump) export: turn a recorded probe stream into a
//! waveform any VCD viewer (GTKWave, Surfer) can open.
//!
//! The exporter derives a fixed signal set from the event stream:
//! per-stage control codes (the fig. 5 table as a waveform), per-input
//! header strobes, per-output tail strobes, arbitration grant/collision,
//! cut-through and drop/fault strobes, and the occupancy / queue-depth
//! gauges. Signals are either *persistent* (gauges hold their value) or
//! *pulses* (strobes clear the cycle after they fire).
//!
//! The output is deterministic: same event stream, byte-identical VCD —
//! pinned by a golden-file test.

use crate::event::{ProbeEvent, WaveDir};
use simkernel::ids::Cycle;
use simkernel::trace::TraceEntry;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The switch topology the stream was recorded from (sizes the per-port
/// and per-stage signal arrays).
#[derive(Debug, Clone, Copy)]
pub struct Topo {
    /// Input links.
    pub n_in: usize,
    /// Output links.
    pub n_out: usize,
    /// Pipeline stages (= memory banks = words per packet).
    pub stages: usize,
}

/// Stage-control codes used in the VCD (`m<k>_ctrl` signals); nop is 0
/// (the pulse-reset value, so it needs no named constant).
const CTRL_WRITE: u64 = 1;
const CTRL_READ: u64 = 2;
const CTRL_FUSED: u64 = 3;

#[derive(Debug, Clone)]
struct Signal {
    name: String,
    width: usize,
    /// Pulses reset to 0 every cycle; persistent signals hold.
    pulse: bool,
}

/// VCD identifier code for signal `i` (printable ASCII, base 94).
fn id_code(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((b'!' + (i % 94) as u8) as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

fn signal_table(topo: &Topo) -> Vec<Signal> {
    let mut sigs = Vec::new();
    let mut push = |name: String, width: usize, pulse: bool| {
        sigs.push(Signal { name, width, pulse });
    };
    push("occupancy".into(), 16, false);
    for j in 0..topo.n_out {
        push(format!("qdepth_o{j}"), 16, false);
    }
    for k in 0..topo.stages {
        push(format!("m{k}_ctrl"), 2, true);
    }
    for i in 0..topo.n_in {
        push(format!("hdr_i{i}"), 1, true);
    }
    for j in 0..topo.n_out {
        push(format!("tail_o{j}"), 1, true);
    }
    push("arb_grant".into(), 2, true);
    push("arb_collision".into(), 1, true);
    push("cut_through".into(), 1, true);
    push("staggered_start".into(), 1, true);
    push("drop".into(), 1, true);
    push("fault".into(), 1, true);
    push("recovery".into(), 4, true);
    sigs
}

/// Code for the `recovery` signal: 0 = idle, else the ladder step that
/// fired this cycle (the codes are the waveform's vocabulary: fixed).
fn recovery_code(tag: &crate::event::RecoveryTag) -> u64 {
    use crate::event::RecoveryTag as T;
    match tag {
        T::EccCorrected => 1,
        T::EccUncorrectable => 2,
        T::BankFailover => 3,
        T::DegradedEnter => 6,
    }
}

/// Indices into the signal table, mirroring [`signal_table`]'s layout.
struct Layout {
    occupancy: usize,
    qdepth: usize,
    mctrl: usize,
    hdr: usize,
    tail: usize,
    arb_grant: usize,
    arb_collision: usize,
    cut_through: usize,
    staggered: usize,
    drop: usize,
    fault: usize,
    recovery: usize,
}

impl Layout {
    fn of(topo: &Topo) -> Layout {
        let occupancy = 0;
        let qdepth = occupancy + 1;
        let mctrl = qdepth + topo.n_out;
        let hdr = mctrl + topo.stages;
        let tail = hdr + topo.n_in;
        let arb_grant = tail + topo.n_out;
        Layout {
            occupancy,
            qdepth,
            mctrl,
            hdr,
            tail,
            arb_grant,
            arb_collision: arb_grant + 1,
            cut_through: arb_grant + 2,
            staggered: arb_grant + 3,
            drop: arb_grant + 4,
            fault: arb_grant + 5,
            recovery: arb_grant + 6,
        }
    }
}

fn apply(event: &ProbeEvent, topo: &Topo, lay: &Layout, vals: &mut [u64]) {
    match event {
        ProbeEvent::Gauge {
            gauge,
            index,
            value,
        } => match gauge {
            crate::event::GaugeKind::Occupancy => vals[lay.occupancy] = *value,
            crate::event::GaugeKind::QueueDepth => {
                if *index < topo.n_out {
                    vals[lay.qdepth + index] = *value;
                }
            }
        },
        ProbeEvent::BankAccess { stage, op, .. } if *stage < topo.stages => {
            vals[lay.mctrl + stage] = match op {
                WaveDir::Write => CTRL_WRITE,
                WaveDir::Read => CTRL_READ,
                WaveDir::Fused => CTRL_FUSED,
            };
        }
        ProbeEvent::HeaderArrived { input, .. } if *input < topo.n_in => {
            vals[lay.hdr + input] = 1;
        }
        ProbeEvent::Departed { output, .. } if *output < topo.n_out => {
            vals[lay.tail + output] = 1;
        }
        ProbeEvent::Arbitration {
            reads,
            writes,
            outcome,
        } => {
            vals[lay.arb_grant] = match outcome {
                crate::event::ArbOutcome::Write => 1,
                crate::event::ArbOutcome::Read => 2,
                crate::event::ArbOutcome::Idle => 3,
            };
            if *reads > 0 && *writes > 0 {
                vals[lay.arb_collision] = 1;
            }
        }
        ProbeEvent::CutThrough { .. } => vals[lay.cut_through] = 1,
        ProbeEvent::StaggeredStart { .. } => vals[lay.staggered] = 1,
        ProbeEvent::Drop { .. } => vals[lay.drop] = 1,
        ProbeEvent::Fault { .. } => vals[lay.fault] = 1,
        ProbeEvent::Recovery { tag, .. } => {
            // Later ladder steps shadow earlier ones within a cycle (a
            // failover implies corrections led up to it).
            vals[lay.recovery] = vals[lay.recovery].max(recovery_code(tag));
        }
        _ => {}
    }
}

fn fmt_value(out: &mut String, sig: &Signal, value: u64, code: &str) {
    if sig.width == 1 {
        let _ = writeln!(out, "{}{}", value & 1, code);
    } else {
        let _ = writeln!(out, "b{:b} {}", value, code);
    }
}

/// Render the probe stream as a VCD document.
///
/// Deterministic (no timestamps beyond simulated cycles), so exports are
/// byte-comparable across runs and machines.
pub fn export<'a>(
    events: impl IntoIterator<Item = &'a TraceEntry<ProbeEvent>>,
    topo: &Topo,
) -> String {
    let events: Vec<&TraceEntry<ProbeEvent>> = events.into_iter().collect();
    let sigs = signal_table(topo);
    let lay = Layout::of(topo);
    let mut out = String::new();
    out.push_str("$version telegraphos telemetry probe stream $end\n");
    out.push_str("$timescale 1ns $end\n");
    out.push_str("$scope module switch $end\n");
    for (i, s) in sigs.iter().enumerate() {
        let _ = writeln!(out, "$var wire {} {} {} $end", s.width, id_code(i), s.name);
    }
    out.push_str("$upscope $end\n$enddefinitions $end\n");

    // Initial values: everything 0.
    out.push_str("$dumpvars\n");
    for (i, s) in sigs.iter().enumerate() {
        fmt_value(&mut out, s, 0, &id_code(i));
    }
    out.push_str("$end\n");

    // Evaluate at every cycle that carries events, plus the following
    // cycle (to clear pulse strobes); emit only value changes.
    let mut interesting: BTreeSet<Cycle> = BTreeSet::new();
    for e in &events {
        interesting.insert(e.cycle);
        interesting.insert(e.cycle + 1);
    }
    let mut emitted = vec![0u64; sigs.len()];
    let mut vals = vec![0u64; sigs.len()];
    let mut k = 0usize;
    for &c in &interesting {
        for (i, s) in sigs.iter().enumerate() {
            if s.pulse {
                vals[i] = 0;
            }
        }
        while k < events.len() && events[k].cycle < c {
            k += 1; // unreachable (events sorted), defensive
        }
        let mut j = k;
        while j < events.len() && events[j].cycle == c {
            apply(&events[j].event, topo, &lay, &mut vals);
            j += 1;
        }
        let mut wrote_stamp = false;
        for (i, s) in sigs.iter().enumerate() {
            if vals[i] != emitted[i] {
                if !wrote_stamp {
                    let _ = writeln!(out, "#{c}");
                    wrote_stamp = true;
                }
                fmt_value(&mut out, s, vals[i], &id_code(i));
                emitted[i] = vals[i];
            }
        }
    }
    out
}

/// Minimal structural check on a VCD document (the `--smoke` gate and
/// golden tests use it): definitions close, every value change names a
/// declared identifier, timestamps never go backwards.
///
/// Returns `(signals, changes)` on success.
pub fn validate(doc: &str) -> Result<(usize, usize), String> {
    let mut ids: BTreeSet<String> = BTreeSet::new();
    let mut defs_closed = false;
    let mut last_ts: Option<u64> = None;
    let mut changes = 0usize;
    let mut in_dumpvars = false;
    for (lineno, line) in doc.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if !defs_closed {
            if line.starts_with("$var") {
                let parts: Vec<&str> = line.split_whitespace().collect();
                if parts.len() < 5 {
                    return Err(format!("line {}: malformed $var", lineno + 1));
                }
                ids.insert(parts[3].to_string());
            } else if line.starts_with("$enddefinitions") {
                defs_closed = true;
            }
            continue;
        }
        if line == "$dumpvars" {
            in_dumpvars = true;
            continue;
        }
        if line == "$end" {
            in_dumpvars = false;
            continue;
        }
        if let Some(ts) = line.strip_prefix('#') {
            let ts: u64 = ts
                .parse()
                .map_err(|_| format!("line {}: bad timestamp", lineno + 1))?;
            if last_ts.is_some_and(|p| ts < p) {
                return Err(format!("line {}: timestamp went backwards", lineno + 1));
            }
            last_ts = Some(ts);
            continue;
        }
        let id = if let Some(rest) = line.strip_prefix('b') {
            let mut it = rest.split_whitespace();
            let bits = it.next().unwrap_or("");
            if bits.is_empty() || !bits.chars().all(|c| c == '0' || c == '1') {
                return Err(format!("line {}: bad vector value", lineno + 1));
            }
            it.next()
                .ok_or_else(|| format!("line {}: vector change without id", lineno + 1))?
        } else {
            let (v, id) = line.split_at(1);
            if v != "0" && v != "1" {
                return Err(format!("line {}: bad scalar value", lineno + 1));
            }
            id
        };
        if !ids.contains(id) {
            return Err(format!(
                "line {}: change on undeclared id '{id}'",
                lineno + 1
            ));
        }
        if !in_dumpvars {
            changes += 1;
        }
    }
    if !defs_closed {
        return Err("no $enddefinitions".to_string());
    }
    Ok((ids.len(), changes))
}

/// The fig. 5 per-stage control cell for one cycle's events — the same
/// strings the paper's table uses (`-`, `W<slot> i<in>`, `R<slot> o<out>`,
/// `W<slot>+R i<in> o<out>`).
pub fn stage_cells<'a>(
    events: impl IntoIterator<Item = &'a ProbeEvent>,
    stages: usize,
) -> Vec<String> {
    let mut cells = vec!["-".to_string(); stages];
    for e in events {
        if let ProbeEvent::BankAccess {
            stage,
            addr,
            op,
            input,
            output,
        } = e
        {
            if *stage < stages {
                cells[*stage] = match op {
                    WaveDir::Write => format!("W{} i{}", addr, input.unwrap_or(0)),
                    WaveDir::Read => format!("R{} o{}", addr, output.unwrap_or(0)),
                    WaveDir::Fused => format!(
                        "W{}+R i{} o{}",
                        addr,
                        input.unwrap_or(0),
                        output.unwrap_or(0)
                    ),
                };
            }
        }
    }
    cells
}

/// The fig. 5 control-signal table as a derived view of the probe
/// stream: one row per cycle in the recorded window, one column per
/// memory stage.
pub fn fig5_view<'a>(
    events: impl IntoIterator<Item = &'a TraceEntry<ProbeEvent>>,
    stages: usize,
) -> String {
    let events: Vec<&TraceEntry<ProbeEvent>> = events.into_iter().collect();
    let mut out = String::from("cyc |");
    for k in 0..stages {
        let _ = write!(out, " {:>12}", format!("M{k}"));
    }
    out.push('\n');
    let _ = writeln!(out, "{}", "-".repeat(5 + 13 * stages));
    let Some(first) = events.first().map(|e| e.cycle) else {
        return out;
    };
    let last = events.last().map(|e| e.cycle).unwrap_or(first);
    let mut k = 0usize;
    for c in first..=last {
        let start = k;
        while k < events.len() && events[k].cycle == c {
            k += 1;
        }
        let cells = stage_cells(events[start..k].iter().map(|e| &e.event), stages);
        let _ = write!(out, "{c:>3} |");
        for cell in cells {
            let _ = write!(out, " {cell:>12}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArbOutcome, GaugeKind};

    fn entry(cycle: Cycle, event: ProbeEvent) -> TraceEntry<ProbeEvent> {
        TraceEntry { cycle, event }
    }

    fn tiny_stream() -> Vec<TraceEntry<ProbeEvent>> {
        vec![
            entry(
                0,
                ProbeEvent::HeaderArrived {
                    input: 0,
                    id: 0xA,
                    dst: 1,
                },
            ),
            entry(
                1,
                ProbeEvent::Arbitration {
                    reads: 0,
                    writes: 1,
                    outcome: ArbOutcome::Write,
                },
            ),
            entry(
                1,
                ProbeEvent::BankAccess {
                    stage: 0,
                    addr: 0,
                    op: WaveDir::Fused,
                    input: Some(0),
                    output: Some(1),
                },
            ),
            entry(
                1,
                ProbeEvent::Gauge {
                    gauge: GaugeKind::Occupancy,
                    index: 0,
                    value: 1,
                },
            ),
            entry(
                5,
                ProbeEvent::Departed {
                    output: 1,
                    id: 0xA,
                    birth: 0,
                    latency: 5,
                },
            ),
        ]
    }

    #[test]
    fn export_validates_and_round_trips() {
        let topo = Topo {
            n_in: 2,
            n_out: 2,
            stages: 4,
        };
        let doc = export(tiny_stream().iter(), &topo);
        let (signals, changes) = validate(&doc).expect("well-formed VCD");
        assert_eq!(signals, 1 + 2 + 4 + 2 + 2 + 7);
        assert!(changes > 0, "stream must produce value changes");
        assert!(doc.contains("$var wire 2"), "stage controls are 2-bit");
        // Pulses clear: the header strobe fires at #0 and clears at #1.
        assert!(doc.contains("#0\n"));
        assert!(doc.contains("#1\n"));
    }

    #[test]
    fn export_is_deterministic() {
        let topo = Topo {
            n_in: 2,
            n_out: 2,
            stages: 4,
        };
        let a = export(tiny_stream().iter(), &topo);
        let b = export(tiny_stream().iter(), &topo);
        assert_eq!(a, b);
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate("not a vcd").is_err());
        let topo = Topo {
            n_in: 2,
            n_out: 2,
            stages: 4,
        };
        let doc = export(tiny_stream().iter(), &topo);
        assert!(doc.contains("#5"), "Departed@5 must appear: {doc}");
        let broken = doc.replace("#5", "#0"); // time goes backwards
        assert!(validate(&broken).is_err());
    }

    #[test]
    fn fig5_view_renders_stage_cells() {
        let view = fig5_view(tiny_stream().iter(), 4);
        assert!(view.contains("M0"), "{view}");
        assert!(view.contains("W0+R i0 o1"), "{view}");
    }
}
