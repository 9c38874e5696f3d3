//! The structured event vocabulary every model speaks.
//!
//! Variants use only primitive fields (`usize`, `u64`) so the event type
//! lives below every model crate in the dependency graph: `switch-core`
//! and `fabric` emit [`ProbeEvent`]s without this crate knowing their
//! types. The mapping back to paper concepts is in each variant's doc
//! comment.

use std::fmt;

/// Direction of a memory wave / bank operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveDir {
    /// A write wave depositing words from an input latch row.
    Write,
    /// A read wave filling the output register row.
    Read,
    /// Fused write+read: the output register samples the write bus
    /// (§3.3 automatic cut-through).
    Fused,
}

impl fmt::Display for WaveDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WaveDir::Write => "W",
            WaveDir::Read => "R",
            WaveDir::Fused => "W+R",
        })
    }
}

/// Who won the single initiation slot this cycle (§3.2: read priority
/// over writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbOutcome {
    /// A read wave was granted.
    Read,
    /// A write wave was granted.
    Write,
    /// Requests existed but none was servable.
    Idle,
}

impl fmt::Display for ArbOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArbOutcome::Read => "read",
            ArbOutcome::Write => "write",
            ArbOutcome::Idle => "idle",
        })
    }
}

/// Why a packet was removed from the datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Shared buffer had no free slot at header time.
    BufferFull,
    /// The write wave missed its latch deadline (provably unreachable
    /// under the shipped policies; counted so violations fail loudly).
    LatchOverrun,
    /// Header addressed no valid output (hardened framing).
    BadHeader,
    /// The link idled mid-packet; the tail never arrived.
    Truncated,
    /// Integrity scrub: stored checksum mismatched at read initiation.
    Checksum,
    /// Ingress payload verification condemned the packet.
    Payload,
    /// A buffer-sharing admission policy rejected the arriving packet
    /// even though (or because) slots remained; counted separately from
    /// `BufferFull` so each policy's declared loss is auditable.
    AdmissionPolicy,
    /// A buffer-sharing policy evicted this already-buffered packet to
    /// admit a new arrival (push-out / Occamy preemptive drop).
    Preempted,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DropReason::BufferFull => "buffer-full",
            DropReason::LatchOverrun => "latch-overrun",
            DropReason::BadHeader => "bad-header",
            DropReason::Truncated => "truncated",
            DropReason::Checksum => "checksum-mismatch",
            DropReason::Payload => "payload-mismatch",
            DropReason::AdmissionPolicy => "policy",
            DropReason::Preempted => "preempt",
        })
    }
}

/// A fault observed without removing a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTag {
    /// A packet left the switch with corrupted payload (egress check).
    CorruptDelivered,
}

impl fmt::Display for FaultTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultTag::CorruptDelivered => "corrupt-delivered",
        })
    }
}

/// What step of the detect→correct→degrade recovery ladder fired
/// (see DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryTag {
    /// ECC corrected a single-bit upset in place (index = stage/bank,
    /// info = slot address).
    EccCorrected,
    /// ECC saw a multi-bit pattern it could not repair (index =
    /// stage/bank, info = slot address); detection falls back to the
    /// checksum scrub's detect-and-drop.
    EccUncorrectable,
    /// A repeatedly-failing bank was masked out and a spare promoted
    /// (index = stage/bank, info = corrections that tripped failover).
    BankFailover,
    /// Degraded mode entered: admission throttled while recovery runs
    /// (index = stage/bank that triggered it, info = window length).
    DegradedEnter,
}

impl fmt::Display for RecoveryTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecoveryTag::EccCorrected => "ecc-corrected",
            RecoveryTag::EccUncorrectable => "ecc-uncorrectable",
            RecoveryTag::BankFailover => "bank-failover",
            RecoveryTag::DegradedEnter => "degraded-enter",
        })
    }
}

/// What a [`ProbeEvent::Gauge`] sample measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeKind {
    /// Shared-buffer occupancy in packets (index unused, 0).
    Occupancy,
    /// Per-output queue depth in packets (index = output link).
    QueueDepth,
}

impl fmt::Display for GaugeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GaugeKind::Occupancy => "occupancy",
            GaugeKind::QueueDepth => "queue-depth",
        })
    }
}

/// One structured observation from a model's datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// A packet header entered the switch on `input`, bound for `dst`.
    HeaderArrived {
        /// Input link.
        input: usize,
        /// Packet id decoded from the header.
        id: u64,
        /// Primary (lowest) destination output.
        dst: usize,
    },
    /// An input latch row latched one word (§3.1: no double buffering).
    LatchLoad {
        /// Input link whose latch row loaded.
        input: usize,
        /// Latch position (= word index within the packet).
        stage: usize,
    },
    /// Read-vs-write arbitration was exercised for the single initiation
    /// slot (§3.2). `reads > 0 && writes > 0` is a collision.
    Arbitration {
        /// Read requests contending this cycle.
        reads: usize,
        /// Write requests contending this cycle.
        writes: usize,
        /// Who won.
        outcome: ArbOutcome,
    },
    /// A write wave launched from input `input` into slot `addr`.
    WriteWave {
        /// Source input link.
        input: usize,
        /// Buffer slot written.
        addr: usize,
    },
    /// A read wave launched for output `output` from slot `addr`;
    /// `fused` when it rides the write bus (§3.3).
    ReadWave {
        /// Destination output link.
        output: usize,
        /// Buffer slot read.
        addr: usize,
        /// True when fused with the packet's own write wave.
        fused: bool,
    },
    /// A bank performed an access on behalf of a switch-level wave (the
    /// fig. 5 control signal of stage `stage` this cycle).
    BankAccess {
        /// Pipeline stage (= bank index).
        stage: usize,
        /// Buffer slot accessed.
        addr: usize,
        /// Operation performed.
        op: WaveDir,
        /// Source input link (write and fused ops).
        input: Option<usize>,
        /// Destination output link (read and fused ops).
        output: Option<usize>,
    },
    /// An output began transmitting a packet that had to wait for the
    /// initiation slot — the §3.4 staggered start.
    StaggeredStart {
        /// Output link starting transmission.
        output: usize,
        /// Packet id.
        id: u64,
    },
    /// Cut-through engaged: transmission started before the packet was
    /// fully buffered.
    CutThrough {
        /// Output link.
        output: usize,
        /// Packet id.
        id: u64,
        /// True for the fused form (first word out at a+2).
        fused: bool,
    },
    /// A flow-control credit was consumed by a launch on `input`.
    CreditGrant {
        /// Input link whose sender spent a credit.
        input: usize,
        /// Credits remaining after the grant.
        remaining: u64,
    },
    /// A flow-control credit was returned toward `input`.
    CreditReturn {
        /// Input link whose sender will receive the credit.
        input: usize,
        /// Credits held before the returned one matures.
        remaining: u64,
    },
    /// A packet's tail word left on output `output`.
    Departed {
        /// Output link.
        output: usize,
        /// Packet id.
        id: u64,
        /// Cycle the header arrived.
        birth: u64,
        /// Cycles from header arrival to tail departure.
        latency: u64,
    },
    /// A packet was removed from the datapath.
    Drop {
        /// Packet id.
        id: u64,
        /// Why.
        reason: DropReason,
    },
    /// A fault was observed without removing a packet.
    Fault {
        /// Packet id involved (0 when not packet-specific).
        id: u64,
        /// What happened.
        kind: FaultTag,
    },
    /// A sampled gauge value (emitted on change, not per cycle).
    Gauge {
        /// What the sample measures.
        gauge: GaugeKind,
        /// Sub-index (output link for queue depths, 0 otherwise).
        index: usize,
        /// The sampled value.
        value: u64,
    },
    /// A step of the detect→correct→degrade recovery ladder fired.
    Recovery {
        /// Which step.
        tag: RecoveryTag,
        /// Stage/bank or input link the step concerns (see each tag).
        index: usize,
        /// Tag-specific detail (slot address, sequence number, …).
        info: u64,
    },
}

impl fmt::Display for ProbeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeEvent::HeaderArrived { input, id, dst } => {
                write!(f, "header id={id:#x} in{input} -> out{dst}")
            }
            ProbeEvent::LatchLoad { input, stage } => {
                write!(f, "latch-load in{input} pos{stage}")
            }
            ProbeEvent::Arbitration {
                reads,
                writes,
                outcome,
            } => {
                write!(f, "arbitration reads={reads} writes={writes} -> {outcome}")
            }
            ProbeEvent::WriteWave { input, addr } => {
                write!(f, "write-wave in{input} slot{addr}")
            }
            ProbeEvent::ReadWave {
                output,
                addr,
                fused,
            } => {
                write!(
                    f,
                    "read-wave out{output} slot{addr}{}",
                    if *fused { " (fused)" } else { "" }
                )
            }
            ProbeEvent::BankAccess {
                stage,
                addr,
                op,
                input,
                output,
            } => {
                write!(f, "bank M{stage} {op} slot{addr}")?;
                if let Some(i) = input {
                    write!(f, " i{i}")?;
                }
                if let Some(o) = output {
                    write!(f, " o{o}")?;
                }
                Ok(())
            }
            ProbeEvent::StaggeredStart { output, id } => {
                write!(f, "staggered-start out{output} id={id:#x}")
            }
            ProbeEvent::CutThrough { output, id, fused } => {
                write!(
                    f,
                    "cut-through out{output} id={id:#x}{}",
                    if *fused { " (fused)" } else { "" }
                )
            }
            ProbeEvent::CreditGrant { input, remaining } => {
                write!(f, "credit-grant in{input} remaining={remaining}")
            }
            ProbeEvent::CreditReturn { input, remaining } => {
                write!(f, "credit-return in{input} held={remaining}")
            }
            ProbeEvent::Departed {
                output,
                id,
                birth,
                latency,
            } => {
                write!(
                    f,
                    "departed out{output} id={id:#x} birth={birth} latency={latency}"
                )
            }
            ProbeEvent::Drop { id, reason } => write!(f, "drop id={id:#x} ({reason})"),
            ProbeEvent::Fault { id, kind } => write!(f, "fault id={id:#x} ({kind})"),
            ProbeEvent::Gauge {
                gauge,
                index,
                value,
            } => write!(f, "gauge {gauge}[{index}] = {value}"),
            ProbeEvent::Recovery { tag, index, info } => {
                write!(f, "recovery {tag}[{index}] info={info}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact_and_stable() {
        let e = ProbeEvent::HeaderArrived {
            input: 1,
            id: 0xA,
            dst: 0,
        };
        assert_eq!(e.to_string(), "header id=0xa in1 -> out0");
        let b = ProbeEvent::BankAccess {
            stage: 2,
            addr: 5,
            op: WaveDir::Fused,
            input: Some(0),
            output: Some(1),
        };
        assert_eq!(b.to_string(), "bank M2 W+R slot5 i0 o1");
    }
}
