//! E19 — fabric scaling campaign: component-graph networks of real
//! switch elements from 64 to 1024 endpoints (extension; not in the
//! paper).
//!
//! The paper's switches exist to be composed — "interconnection
//! networks for large-scale parallel computers" — and the [`fabric`]
//! crate is the composition runtime: every node of a topology graph is
//! a real element model (the scalar shared-buffer oracle, the
//! cell-level behavioral pipelined-memory switch, or one of the
//! word-clocked RTL organizations), every edge a fixed-latency link,
//! and the whole graph advances in conservative lookahead windows that
//! shard across worker threads bit-exactly for any `--jobs`.
//!
//! The campaign sweeps topology × size × element organization ×
//! traffic pattern at a fixed 0.6 offered load:
//!
//! - **topologies** — omega (4×4 elements, 3/4/5 stages = 64/256/1024
//!   endpoints), banyan (butterfly wiring, same element count), folded
//!   two-level Clos (64 and 1024 endpoints), fat-tree (128 and 1024);
//! - **organizations** — `scalar` everywhere; `behavioral` (cell-level
//!   pipelined memory) on every uniform-radix fabric up to 1024
//!   endpoints; the three word-clocked RTLs (`word-rtl`, `word-wide`,
//!   `word-ibank`) on the 64-endpoint omega, where every bank wave of
//!   every element is simulated;
//! - **patterns** — uniform, fixed permutation, 25 % hotspot.
//!
//! The traffic seed is a function of topology × pattern only, so every
//! organization on a given fabric faces the identical offered
//! schedule. Deterministic metrics per row: offered/delivered cells,
//! carried fraction, loss, residual (cells still queued when the run
//! stopped — hotspot fabrics hold standing queues by design), mean and
//! p99 terminal-to-terminal latency in element cycles. Wall-clock
//! cells/sec rates are printed *after* the table on `completed in`
//! lines, which the CI determinism diffs strip.
//!
//! The points run in grid order on the calling thread and each one
//! shards its fabric over `sweep::jobs()` workers: this campaign spends
//! `--jobs` inside the model (DESIGN.md §6), not on the grid, so the
//! wall rates below are the sharded executor's and CI's `--jobs 1,8`
//! cross-check exercises that executor itself — identical tables prove
//! the conservative-window runtime is bit-exact under real campaign
//! traffic, not just unit fixtures.

use crate::{sweep, table};
use fabric::{topo, ElementKind, Fabric, Pattern, Topology, Workload};
use simkernel::rng::split_seed;

/// Offered load per terminal per slot, every point.
const LOAD: f64 = 0.6;

/// Post-injection drain slots. Deliberately finite: persistent hotspot
/// traffic keeps standing queues that would take thousands of slots to
/// empty through one egress link, so leftover cells are *reported* (the
/// `resid` column) rather than waited out.
const DRAIN: u64 = 256;

/// Per-port shared-pool budget (cells for the scalar element, packet
/// slots / banks for the others): 4 × radix, the paper's 4×4
/// buffer-sizing sweet spot (16 slots), scaled to each topology's
/// element radix so the big-radix Clos leaves are not starved.
const POOL_PER_PORT: usize = 4;

/// Topology coordinate of a campaign point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fab {
    /// Omega network of 4×4 elements, `stages` stages.
    Omega {
        /// Stage count (endpoints = 4^stages).
        stages: usize,
    },
    /// Banyan (butterfly) network of 4×4 elements.
    Banyan {
        /// Stage count (endpoints = 4^stages).
        stages: usize,
    },
    /// Folded two-level Clos.
    Clos {
        /// Leaf element count.
        leaves: usize,
        /// Terminals per leaf.
        down: usize,
    },
    /// Three-level fat-tree.
    FatTree {
        /// Pod radix (endpoints = k³/4).
        k: usize,
    },
}

impl Fab {
    /// The campaign ladder, 64 → 1024 endpoints.
    pub const ALL: [Fab; 8] = [
        Fab::Omega { stages: 3 },
        Fab::Banyan { stages: 3 },
        Fab::Clos {
            leaves: 16,
            down: 4,
        },
        Fab::FatTree { k: 8 },
        Fab::Omega { stages: 4 },
        Fab::Omega { stages: 5 },
        Fab::Clos {
            leaves: 32,
            down: 32,
        },
        Fab::FatTree { k: 16 },
    ];

    /// Build the topology graph.
    pub fn build(&self) -> Topology {
        match *self {
            Fab::Omega { stages } => topo::omega(4, stages),
            Fab::Banyan { stages } => topo::banyan(4, stages),
            Fab::Clos { leaves, down } => topo::clos2(leaves, down),
            Fab::FatTree { k } => topo::fat_tree(k),
        }
    }

    /// Stable report label.
    pub fn label(&self) -> &'static str {
        match *self {
            Fab::Omega { stages: 3 } => "omega-64",
            Fab::Omega { stages: 4 } => "omega-256",
            Fab::Omega { stages: 5 } => "omega-1024",
            Fab::Omega { .. } => "omega",
            Fab::Banyan { .. } => "banyan-64",
            Fab::Clos { down: 4, .. } => "clos-64",
            Fab::Clos { .. } => "clos-1024",
            Fab::FatTree { k: 8 } => "fattree-128",
            Fab::FatTree { .. } => "fattree-1024",
        }
    }

    /// True when every element has the same radix (the word-level and
    /// behavioral adapters require it; the two-level Clos mixes leaf
    /// and spine radices).
    pub fn uniform_radix(&self) -> bool {
        !matches!(self, Fab::Clos { .. })
    }

    /// Largest element radix in the topology.
    pub fn max_radix(&self) -> usize {
        match *self {
            Fab::Omega { .. } | Fab::Banyan { .. } => 4,
            Fab::Clos { leaves, down } => leaves.max(2 * down),
            Fab::FatTree { k } => k,
        }
    }

    /// Element organizations measured on this fabric.
    pub fn kinds(&self) -> Vec<ElementKind> {
        let pool = POOL_PER_PORT * self.max_radix();
        let mut kinds = vec![ElementKind::Scalar {
            capacity: Some(pool),
        }];
        if self.uniform_radix() && !matches!(self, Fab::FatTree { k: 16 }) {
            kinds.push(ElementKind::Behavioral { slots: pool });
        }
        if matches!(self, Fab::Omega { stages: 3 }) {
            kinds.push(ElementKind::WordRtl { slots: pool });
            kinds.push(ElementKind::WordWide { slots: pool });
            kinds.push(ElementKind::WordIbank { banks: pool });
        }
        kinds
    }
}

/// One campaign point.
#[derive(Debug, Clone, Copy)]
pub struct FabricSpec {
    /// Topology coordinate.
    pub fab: Fab,
    /// Element organization.
    pub kind: ElementKind,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Injection slots.
    pub slots: u64,
    /// Traffic seed — a function of topology × pattern only, so every
    /// organization faces the identical offered schedule.
    pub seed: u64,
}

/// Measured outcome of one campaign point.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricRow {
    /// Fabric label (topology + endpoint count).
    pub fabric: String,
    /// Endpoint count.
    pub endpoints: usize,
    /// Element count.
    pub elements: usize,
    /// Organization label.
    pub org: String,
    /// Pattern label.
    pub pattern: String,
    /// Cells offered at terminals.
    pub offered: u64,
    /// Cells delivered to terminals.
    pub delivered: u64,
    /// Cells dropped on full element pools.
    pub dropped: u64,
    /// Cells still inside the fabric at the horizon.
    pub residual: u64,
    /// Delivered fraction of offered.
    pub carried: f64,
    /// Mean terminal-to-terminal latency, element cycles.
    pub mean_latency: f64,
    /// 99th-percentile latency, element cycles.
    pub p99_latency: u64,
    /// Run content digest (the sharded-executor fingerprint).
    pub digest: u64,
    /// Wall-clock seconds this point took — timing-only, excluded from
    /// the table and from every determinism comparison.
    pub wall_secs: f64,
}

/// Run one campaign point on the fabric runtime at `sweep::jobs()`
/// worker shards.
pub fn run_point(spec: &FabricSpec) -> FabricRow {
    let topology = spec.fab.build();
    let endpoints = topology.endpoints;
    let elements = topology.elements();
    let mut fab = Fabric::new(topology, spec.kind);
    let wl = Workload {
        pattern: spec.pattern,
        load: LOAD,
        seed: spec.seed,
    };
    let t0 = std::time::Instant::now();
    let run = fab.run(spec.slots, DRAIN, &wl, sweep::jobs());
    let wall_secs = t0.elapsed().as_secs_f64();
    let delivered = run.delivered_total();
    FabricRow {
        fabric: spec.fab.label().to_string(),
        endpoints,
        elements,
        org: spec.kind.label().to_string(),
        pattern: spec.pattern.label().to_string(),
        offered: run.offered,
        delivered,
        dropped: run.dropped,
        residual: run.residual,
        carried: if run.offered == 0 {
            0.0
        } else {
            delivered as f64 / run.offered as f64
        },
        mean_latency: run.mean_latency(),
        p99_latency: run.p99_latency(),
        digest: run.digest(),
        wall_secs,
    }
}

/// The campaign grid: fabric × organization × pattern.
pub fn specs(quick: bool) -> Vec<FabricSpec> {
    let slots = if quick { 1_024 } else { 4_096 };
    let mut specs = Vec::new();
    for (fab_ix, &fab) in Fab::ALL.iter().enumerate() {
        for kind in fab.kinds() {
            for (pat_ix, &pattern) in Pattern::ALL.iter().enumerate() {
                specs.push(FabricSpec {
                    fab,
                    kind,
                    pattern,
                    slots,
                    seed: split_seed(0xE19, (fab_ix as u64) << 8 | pat_ix as u64),
                });
            }
        }
    }
    specs
}

/// Run the whole campaign: the points one after another on the calling
/// thread, each fabric sharded over `sweep::jobs()` workers — one level
/// of fan-out, so at most `jobs` threads of the process are ever
/// runnable and a point's wall rate measures the executor it names.
pub fn rows(quick: bool) -> Vec<FabricRow> {
    specs(quick).iter().map(run_point).collect()
}

/// Render the report.
pub fn run(quick: bool) -> String {
    let rows = rows(quick);
    let mut footer = String::from(
        "\nEvery organization on a given fabric faces the identical offered schedule (the\n\
         traffic seed depends only on topology x pattern). 'carried' is delivered/offered\n\
         at the finite drain horizon; 'resid' counts cells still queued when it closed —\n\
         hotspot fabrics hold standing queues at the one hot egress link by design.\n\
         Latencies are element cycles (word-clocked organizations pay S = 2k cycles per\n\
         hop, the scalar oracle 1). Permutation traffic shows the blocking topologies'\n\
         internal-conflict latency; the fat-tree self-routes it cleanly.\n",
    );
    // Timing-only footer: aggregate wall rates per fabric x org, worded
    // so the determinism filter (`completed in`, see `check_determinism`)
    // strips them.
    for &fab in &Fab::ALL {
        for kind in fab.kinds() {
            let (mut cells, mut secs) = (0u64, 0f64);
            for r in rows
                .iter()
                .filter(|r| r.fabric == fab.label() && r.org == kind.label())
            {
                cells += r.offered + r.delivered;
                secs += r.wall_secs;
            }
            if secs > 0.0 {
                footer.push_str(&format!(
                    "[e19 {} {}: {:.2}M cells/s wall; completed in {:.2}s]\n",
                    fab.label(),
                    kind.label(),
                    cells as f64 / secs / 1e6,
                    secs
                ));
            }
        }
    }
    table::render(
        "E19: fabric scaling (extension) — component-graph networks of real switch\n\
         elements, 64 to 1024 endpoints, conservative-window sharded runtime",
        &[
            "fabric", "n", "elems", "org", "traffic", "offered", "deliv", "carried", "drop",
            "resid", "mean", "p99",
        ],
        rows.iter().map(|r| {
            vec![
                r.fabric.clone(),
                r.endpoints.to_string(),
                r.elements.to_string(),
                r.org.clone(),
                r.pattern.clone(),
                r.offered.to_string(),
                r.delivered.to_string(),
                format!("{:.3}", r.carried),
                r.dropped.to_string(),
                r.residual.to_string(),
                format!("{:.1}", r.mean_latency),
                r.p99_latency.to_string(),
            ]
        }),
        &footer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_ladder() {
        let specs = specs(true);
        // 8 fabrics x 3 patterns scalar, 5 behavioral fabrics, 3 word
        // organizations on the 64-endpoint omega.
        assert_eq!(specs.len(), (8 + 5 + 3) * 3);
        for n in [64, 128, 256, 1024] {
            assert!(
                specs.iter().any(|s| s.fab.build().endpoints == n),
                "ladder must include {n} endpoints"
            );
        }
        // The 1024-endpoint behavioral fabric — real pipelined-memory
        // elements at full scale — is on the grid.
        assert!(specs
            .iter()
            .any(|s| matches!(s.fab, Fab::Omega { stages: 5 })
                && matches!(s.kind, ElementKind::Behavioral { .. })));
        // Identical offered schedule across organizations: seed is a
        // function of fabric x pattern only.
        for s in &specs {
            for t in &specs {
                if s.fab == t.fab && s.pattern.label() == t.pattern.label() {
                    assert_eq!(s.seed, t.seed);
                }
            }
        }
    }

    /// A grid point shrunk to test size.
    fn small(spec: FabricSpec) -> FabricSpec {
        FabricSpec { slots: 160, ..spec }
    }

    #[test]
    fn campaign_accounting_is_conservative() {
        let row = run_point(&small(specs(true)[0]));
        assert!(row.offered > 0, "traffic must flow");
        assert_eq!(
            row.offered,
            row.delivered + row.dropped + row.residual,
            "every offered cell is delivered, dropped or still queued"
        );
    }

    #[test]
    fn points_are_bit_reproducible_at_any_jobs() {
        let spec = small(
            specs(true)
                .into_iter()
                .find(|s| {
                    matches!(s.kind, ElementKind::Behavioral { .. })
                        && matches!(s.fab, Fab::Omega { stages: 3 })
                })
                .expect("behavioral point on the grid"),
        );
        let run = |jobs| {
            let topology = spec.fab.build();
            let wl = Workload {
                pattern: spec.pattern,
                load: LOAD,
                seed: spec.seed,
            };
            Fabric::new(topology, spec.kind).run(spec.slots, DRAIN, &wl, jobs)
        };
        let seq = run(1);
        for jobs in [2, 4] {
            let par = run(jobs);
            assert_eq!(seq, par, "jobs={jobs} run must be bit-exact");
            assert_eq!(seq.digest(), par.digest());
        }
    }
}
