//! Topology builders: explicit component graphs with self-routing tables.
//!
//! A [`Topology`] is a directed graph of switch elements plus the wiring
//! that attaches `endpoints` terminals to its edge. Every element output
//! port drives exactly one link — either another element's input port or
//! a terminal — and every element input port has exactly one driver
//! (an upstream output port or an injecting terminal). That single-writer
//! discipline is what makes the sharded runtime deterministic: arrivals
//! on one port are totally ordered by cycle no matter which thread
//! produced them.
//!
//! Routing is self-routing by precomputed tables, one shared by all the
//! elements that route alike: `route[e][dst]` names the local output port
//! a cell for global terminal `dst` takes at element `e`. Omega/Banyan
//! keep one table per stage, the classic destination digit (most
//! significant first); the folded Clos and fat-tree use deterministic
//! d-mod-k up-routing then longest-prefix down-routing, one table per
//! leaf or edge, per pod's aggregation row, and for all spines or cores.
//! No randomness, so a cell's path is a pure function of `(src, dst)`.

use std::sync::Arc;

/// Where an element output port's link lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Input `port` of element `elem`.
    Elem {
        /// Downstream element index.
        elem: u32,
        /// Input port on that element.
        port: u16,
    },
    /// Delivery to terminal `t` (the cell leaves the fabric).
    Terminal(u32),
}

/// A multi-stage network as an explicit element graph.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Short builder name ("omega", "banyan", "clos2", "fattree").
    pub name: &'static str,
    /// Number of terminals (injection = delivery points).
    pub endpoints: usize,
    /// Per-element port count (all elements are square: n_in = n_out).
    pub radix: Vec<u16>,
    /// `route[e][dst]` — local output port toward terminal `dst`; elements
    /// that route alike share one table.
    pub route: Vec<Arc<[u16]>>,
    /// `ingress[t]` — (element, input port) terminal `t` injects into.
    pub ingress: Vec<(u32, u16)>,
    /// Every element's output links, element after element: output `j`
    /// of `e` lands at `wiring[port_base[e] + j]` ([`Topology::outputs`]).
    wiring: Vec<Target>,
    /// `port_base[e]`: where `e`'s outputs start in `wiring`; one entry
    /// more than there are elements.
    port_base: Vec<u32>,
}

impl Topology {
    /// Assemble a topology whose element `e` has `radix[e]` outputs,
    /// listed element after element in `wiring`.
    fn new(
        name: &'static str,
        endpoints: usize,
        radix: Vec<u16>,
        wiring: Vec<Target>,
        route: Vec<Arc<[u16]>>,
        ingress: Vec<(u32, u16)>,
    ) -> Self {
        let mut port_base = vec![0u32];
        for &r in &radix {
            port_base.push(port_base[port_base.len() - 1] + u32::from(r));
        }
        assert_eq!(
            wiring.len(),
            port_base[radix.len()] as usize,
            "{name}: output arity"
        );
        Topology {
            name,
            endpoints,
            radix,
            route,
            ingress,
            wiring,
            port_base,
        }
    }

    /// Number of elements in the graph.
    pub fn elements(&self) -> usize {
        self.radix.len()
    }

    /// Largest element radix (sizing for shard-level telemetry sinks).
    pub fn max_radix(&self) -> usize {
        self.radix.iter().copied().max().unwrap_or(0) as usize
    }

    /// Where each output port of element `e` leads, indexed by port.
    pub fn outputs(&self, e: usize) -> &[Target] {
        &self.wiring[self.port_base[e] as usize..self.port_base[e + 1] as usize]
    }

    /// Hop count (links traversed, terminal-to-terminal) of the unique
    /// self-routed path from `src` to `dst` — also a routing validity
    /// check: panics if the tables ever loop or mis-deliver.
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        let (mut e, _) = self.ingress[src];
        let mut hops = 0usize;
        loop {
            let out = self.route[e as usize][dst] as usize;
            let target = self.outputs(e as usize)[out];
            hops += 1;
            match target {
                Target::Terminal(t) => {
                    assert_eq!(t as usize, dst, "{}: mis-routed {src}->{dst}", self.name);
                    return hops;
                }
                Target::Elem { elem, .. } => {
                    assert!(hops <= self.elements(), "{}: routing loop", self.name);
                    e = elem;
                }
            }
        }
    }

    /// Structural audit: every input port has exactly one driver, every
    /// output port a valid target, and every (src, dst) pair routes.
    pub fn validate(&self) {
        let mut drivers: Vec<Vec<u32>> =
            self.radix.iter().map(|&r| vec![0u32; r as usize]).collect();
        let mut delivered: Vec<u32> = vec![0; self.endpoints];
        for t in &self.wiring {
            match *t {
                Target::Elem { elem, port } => {
                    drivers[elem as usize][port as usize] += 1;
                }
                Target::Terminal(t) => delivered[t as usize] += 1,
            }
        }
        for &(e, p) in &self.ingress {
            drivers[e as usize][p as usize] += 1;
        }
        for (e, d) in drivers.iter().enumerate() {
            for (p, &n) in d.iter().enumerate() {
                assert!(n <= 1, "{}: input {e}:{p} has {n} drivers", self.name);
            }
        }
        for (t, &n) in delivered.iter().enumerate() {
            assert_eq!(n, 1, "{}: terminal {t} has {n} egress links", self.name);
        }
        for src in 0..self.endpoints {
            for dst in 0..self.endpoints {
                self.hops(src, dst);
            }
        }
    }
}

/// The route table of `stage` in an `stages`-stage network of `k×k`
/// elements: each destination's base-`k` digit at that stage, most
/// significant first — the paper's self-routing rule.
fn digit_table(k: usize, stages: usize, stage: usize) -> Arc<[u16]> {
    let w = k.pow((stages - 1 - stage) as u32);
    (0..k.pow(stages as u32))
        .map(|dst| ((dst / w) % k) as u16)
        .collect()
}

/// Omega network: `k^stages` terminals, `stages` rows of `k×k` elements,
/// a perfect shuffle into every stage (including stage 0 from the
/// terminals), last-stage outputs wired straight to terminals.
pub fn omega(k: usize, stages: usize) -> Topology {
    assert!(k >= 2 && stages >= 1);
    let n = k.pow(stages as u32);
    let rows = n / k;
    let shuffle = |i: usize| (i * k) % n + (i * k) / n;
    let elem = |s: usize, row: usize| (s * rows + row) as u32;
    let (mut wiring, mut route) = (Vec::new(), Vec::new());
    for s in 0..stages {
        let table = digit_table(k, stages, s);
        for row in 0..rows {
            route.push(table.clone());
            wiring.extend((0..k).map(|j| {
                let p = row * k + j;
                if s + 1 == stages {
                    Target::Terminal(p as u32)
                } else {
                    let q = shuffle(p);
                    Target::Elem {
                        elem: elem(s + 1, q / k),
                        port: (q % k) as u16,
                    }
                }
            }));
        }
    }
    let ingress = (0..n)
        .map(|t| {
            let q = shuffle(t);
            (elem(0, q / k), (q % k) as u16)
        })
        .collect();
    let radix = vec![k as u16; stages * rows];
    Topology::new("omega", n, radix, wiring, route, ingress)
}

/// Banyan (k-ary butterfly): same `k^stages` terminal count and the same
/// MSB-first digit routing as [`omega`], but the stage-`s` element groups
/// lines sharing every base-`k` digit *except* place `stages-1-s`, with
/// identity wiring between stages. Consuming one digit in place per
/// stage transforms the line index into the destination index — the
/// routing is correct by construction.
pub fn banyan(k: usize, stages: usize) -> Topology {
    assert!(k >= 2 && stages >= 1);
    let n = k.pow(stages as u32);
    let rows = n / k;
    // At stage s, the line index p maps to element row r and port c by
    // extracting digit place j = stages-1-s.
    let split = |p: usize, s: usize| {
        let j = stages - 1 - s;
        let w = k.pow(j as u32);
        let c = (p / w) % k;
        let r = (p / (w * k)) * w + p % w;
        (r, c)
    };
    let join = |r: usize, c: usize, s: usize| {
        let j = stages - 1 - s;
        let w = k.pow(j as u32);
        (r / w) * (w * k) + c * w + r % w
    };
    let elem = |s: usize, row: usize| (s * rows + row) as u32;
    let (mut wiring, mut route) = (Vec::new(), Vec::new());
    for s in 0..stages {
        let table = digit_table(k, stages, s);
        for row in 0..rows {
            route.push(table.clone());
            wiring.extend((0..k).map(|c| {
                let p = join(row, c, s);
                if s + 1 == stages {
                    Target::Terminal(p as u32)
                } else {
                    let (r2, c2) = split(p, s + 1);
                    Target::Elem {
                        elem: elem(s + 1, r2),
                        port: c2 as u16,
                    }
                }
            }));
        }
    }
    let ingress = (0..n)
        .map(|t| {
            let (r, c) = split(t, 0);
            (elem(0, r), c as u16)
        })
        .collect();
    let radix = vec![k as u16; stages * rows];
    Topology::new("banyan", n, radix, wiring, route, ingress)
}

/// Folded two-tier Clos (leaf-spine): `leaves` leaf elements with `down`
/// endpoint ports and `down` uplinks each, `down` spine elements of
/// radix `leaves`. Up-routing is deterministic d-mod-k (spine = `dst %
/// down`); down-routing follows the destination's leaf. Same-leaf
/// traffic turns around in one hop.
pub fn clos2(leaves: usize, down: usize) -> Topology {
    assert!(leaves >= 2 && down >= 1);
    let n = leaves * down;
    let spines = down;
    let mut radix = vec![(2 * down) as u16; leaves];
    radix.extend(vec![leaves as u16; spines]);
    let (mut wiring, mut route) = (Vec::new(), Vec::new());
    for l in 0..leaves {
        wiring.extend((0..2 * down).map(|j| {
            if j < down {
                Target::Terminal((l * down + j) as u32)
            } else {
                Target::Elem {
                    elem: (leaves + (j - down)) as u32,
                    port: l as u16,
                }
            }
        }));
        route.push(
            (0..n)
                .map(|dst| {
                    if dst / down == l {
                        (dst % down) as u16
                    } else {
                        (down + dst % spines) as u16
                    }
                })
                .collect(),
        );
    }
    // Every spine routes by the destination's leaf alone.
    let spine: Arc<[u16]> = (0..n).map(|dst| (dst / down) as u16).collect();
    for s in 0..spines {
        wiring.extend((0..leaves).map(|l| Target::Elem {
            elem: l as u32,
            port: (down + s) as u16,
        }));
        route.push(spine.clone());
    }
    let ingress = (0..n)
        .map(|t| ((t / down) as u32, (t % down) as u16))
        .collect();
    Topology::new("clos2", n, radix, wiring, route, ingress)
}

/// Three-tier k-ary fat-tree (k even): k pods of k/2 edge + k/2
/// aggregation switches, (k/2)² cores, `k³/4` endpoints, all elements
/// radix k. Up-routing is two-level d-mod-k (edge picks the aggregation
/// by `dst % (k/2)`, aggregation picks the core by `(dst/(k/2)) % (k/2)`),
/// down-routing follows the destination pod/edge/host digits.
pub fn fat_tree(k: usize) -> Topology {
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree radix must be even");
    let h = k / 2;
    let n = k * h * h;
    let edge = |p: usize, i: usize| (p * h + i) as u32;
    let agg = |p: usize, j: usize| (k * h + p * h + j) as u32;
    let core = |j: usize, y: usize| (2 * k * h + j * h + y) as u32;
    let nelem = 2 * k * h + h * h;
    let pod_of = |dst: usize| dst / (h * h);
    let edge_of = |dst: usize| (dst / h) % h;
    let host_of = |dst: usize| dst % h;
    // Elements in index order: every edge, every aggregation, every core.
    let (mut wiring, mut route) = (Vec::new(), Vec::new());
    for p in 0..k {
        for i in 0..h {
            wiring.extend((0..k).map(|port| {
                if port < h {
                    Target::Terminal((p * h * h + i * h + port) as u32)
                } else {
                    Target::Elem {
                        elem: agg(p, port - h),
                        port: i as u16,
                    }
                }
            }));
            route.push(
                (0..n)
                    .map(|dst| {
                        if pod_of(dst) == p && edge_of(dst) == i {
                            host_of(dst) as u16
                        } else {
                            (h + dst % h) as u16
                        }
                    })
                    .collect(),
            );
        }
    }
    for p in 0..k {
        // A pod's aggregation switches route alike.
        let table: Arc<[u16]> = (0..n)
            .map(|dst| {
                if pod_of(dst) == p {
                    edge_of(dst) as u16
                } else {
                    (h + (dst / h) % h) as u16
                }
            })
            .collect();
        for j in 0..h {
            wiring.extend((0..k).map(|port| {
                if port < h {
                    Target::Elem {
                        elem: edge(p, port),
                        port: (h + j) as u16,
                    }
                } else {
                    Target::Elem {
                        elem: core(j, port - h),
                        port: p as u16,
                    }
                }
            }));
            route.push(table.clone());
        }
    }
    let table: Arc<[u16]> = (0..n).map(|dst| pod_of(dst) as u16).collect();
    for j in 0..h {
        for y in 0..h {
            wiring.extend((0..k).map(|p| Target::Elem {
                elem: agg(p, j),
                port: (h + y) as u16,
            }));
            route.push(table.clone());
        }
    }
    let ingress = (0..n)
        .map(|t| (edge(pod_of(t), edge_of(t)), host_of(t) as u16))
        .collect();
    Topology::new("fattree", n, vec![k as u16; nelem], wiring, route, ingress)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omega_routes_every_pair() {
        for (k, s) in [(2, 3), (2, 6), (4, 2), (4, 3)] {
            let t = omega(k, s);
            assert_eq!(t.endpoints, k.pow(s as u32));
            t.validate();
            assert_eq!(
                t.hops(0, t.endpoints - 1),
                s,
                "omega path length is the stage count"
            );
        }
    }

    #[test]
    fn banyan_routes_every_pair() {
        for (k, s) in [(2, 3), (2, 6), (4, 2), (4, 3)] {
            let t = banyan(k, s);
            t.validate();
            assert_eq!(t.hops(0, t.endpoints - 1), s);
        }
    }

    #[test]
    fn clos_routes_every_pair() {
        for (leaves, down) in [(4, 4), (8, 8), (16, 16)] {
            let t = clos2(leaves, down);
            assert_eq!(t.endpoints, leaves * down);
            t.validate();
            assert_eq!(t.hops(0, 1), 1, "same-leaf traffic turns in one hop");
            assert_eq!(t.hops(0, t.endpoints - 1), 3, "cross-leaf = up, over, down");
        }
    }

    #[test]
    fn fat_tree_routes_every_pair() {
        for k in [4, 8] {
            let t = fat_tree(k);
            assert_eq!(t.endpoints, k * k * k / 4);
            t.validate();
            assert_eq!(t.hops(0, 1), 1, "same-edge traffic turns in one hop");
            assert_eq!(
                t.hops(0, t.endpoints - 1),
                5,
                "inter-pod = edge, agg, core, agg, edge"
            );
        }
    }

    #[test]
    fn banyan_differs_from_omega_in_wiring_only() {
        let o = omega(2, 3);
        let b = banyan(2, 3);
        assert_eq!(o.route, b.route, "both consume MSB-first digits");
        assert_ne!(
            o.wiring, b.wiring,
            "shuffle vs butterfly inter-stage wiring"
        );
    }

    /// The distinct route tables of `t`, each with how many elements use it.
    fn distinct_tables(t: &Topology) -> Vec<(Arc<[u16]>, usize)> {
        let mut tables: Vec<(Arc<[u16]>, usize)> = Vec::new();
        for r in &t.route {
            match tables.iter_mut().find(|(a, _)| Arc::ptr_eq(a, r)) {
                Some((_, uses)) => *uses += 1,
                None => tables.push((r.clone(), 1)),
            }
        }
        tables
    }

    #[test]
    fn each_stage_shares_one_route_table() {
        for (k, s) in [(2, 3), (4, 3), (2, 6)] {
            for t in [omega(k, s), banyan(k, s)] {
                let rows = t.endpoints / k;
                for (e, table) in t.route.iter().enumerate() {
                    let first = &t.route[e / rows * rows];
                    assert!(Arc::ptr_eq(table, first), "{}: element {e} copies", t.name);
                }
                assert_eq!(distinct_tables(&t).len(), s, "{}: one per stage", t.name);
            }
        }
    }

    #[test]
    fn folded_graphs_share_their_spine_and_core_tables() {
        assert_eq!(
            distinct_tables(&clos2(8, 4)).len(),
            8 + 1,
            "one per leaf, one for every spine"
        );
        assert_eq!(
            distinct_tables(&fat_tree(4)).len(),
            4 * 2 + 4 + 1,
            "one per edge, one per pod's aggregation row, one for every core"
        );
    }

    #[test]
    fn fabric_elements_hold_the_topology_tables_not_copies() {
        use crate::element::ElementKind;
        use crate::runtime::Fabric;
        let cases = [
            (omega(2, 3), ElementKind::Scalar { capacity: None }),
            (omega(2, 3), ElementKind::Behavioral { slots: 4 }),
            (banyan(2, 3), ElementKind::WordRtl { slots: 4 }),
            (clos2(4, 4), ElementKind::Scalar { capacity: Some(8) }),
            (fat_tree(4), ElementKind::Scalar { capacity: Some(8) }),
        ];
        for (t, kind) in cases {
            let (name, tables) = (t.name, distinct_tables(&t));
            let before: Vec<usize> = tables.iter().map(|(a, _)| Arc::strong_count(a)).collect();
            let _fabric = Fabric::new(t, kind);
            for ((table, uses), before) in tables.iter().zip(before) {
                assert_eq!(
                    Arc::strong_count(table),
                    before + uses,
                    "{name} {kind:?}: each element using a table holds one more reference to it"
                );
            }
        }
    }
}
