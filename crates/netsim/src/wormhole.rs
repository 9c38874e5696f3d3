//! Flit-level wormhole routing on a k-ary 2-D mesh with virtual channels.
//!
//! The \[Dally90\] substrate behind the paper's §2.1 saturation quote. A
//! message of `msg_flits` flits snakes through the network holding one
//! virtual-channel *lane* on every link it occupies; when its head blocks,
//! the whole worm stalls in place, and with a single lane per link every
//! channel under the worm is dead to other traffic — the mechanism that
//! drives saturation down to ≈ 25 % of capacity with 20-flit messages and
//! 16-flit buffers. Adding lanes lets other worms pass the blocked one
//! (virtual-channel flow control), recovering much of the capacity.
//!
//! Routing is dimension-order (X then Y). Two topologies are supported:
//! the **mesh** (no wraparound; deadlock-free with any lane count) and
//! the **k-ary 2-cube torus** — Dally's actual topology — where the lane
//! set splits into two *dateline classes*: a worm uses class 0 until its
//! path traverses the wrap link of the dimension it is traveling, and
//! class 1 from the wrap link onward. Class-0 channel dependencies never
//! close a ring and class-1 chains all start at the dateline, so both
//! classes are acyclic and the torus is deadlock-free (verified by a
//! sustained-traffic delivery test). On the torus at the minimum
//! deadlock-free configuration the network saturates at ≈ 0.3 of the
//! capacity bound — the paper's quoted "about 25 %".

use simkernel::ids::Cycle;
use simkernel::SplitMix64;
use std::collections::VecDeque;

/// Mesh/workload configuration.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Mesh radix: `k × k` nodes.
    pub k: usize,
    /// Virtual-channel lanes per link (Dally's "lanes"; 1 = plain
    /// wormhole).
    pub lanes: usize,
    /// FIFO buffer depth per lane, in flits.
    pub buf_flits: usize,
    /// Message length in flits (head carries the route).
    pub msg_flits: usize,
    /// Per-node message injection probability per cycle.
    pub injection_rate: f64,
    /// RNG seed.
    pub seed: u64,
    /// Wraparound links (k-ary 2-cube, Dally's actual topology). Requires
    /// an even number of lanes ≥ 2: the lane set splits into two dateline
    /// classes for deadlock freedom (packets start in class 0 and move to
    /// class 1 after crossing the wrap link of the dimension they are
    /// traveling — the \[Dally90\] construction).
    pub torus: bool,
}

impl MeshConfig {
    /// The \[Dally90\] §2.1 configuration: 20-flit messages, 16-flit
    /// buffers, at the given lane count and injection rate.
    pub fn dally(k: usize, lanes: usize, injection_rate: f64, seed: u64) -> Self {
        MeshConfig {
            k,
            lanes,
            buf_flits: 16 / lanes.max(1),
            msg_flits: 20,
            injection_rate,
            seed,
            torus: false,
        }
    }

    /// The torus variant (k-ary 2-cube proper). `lanes` must be even.
    pub fn dally_torus(k: usize, lanes: usize, injection_rate: f64, seed: u64) -> Self {
        let mut c = Self::dally(k, lanes, injection_rate, seed);
        c.torus = true;
        c
    }
}

/// Directions out of a router (+local ejection handled separately).
const DIRS: usize = 4; // 0:+x 1:-x 2:+y 3:-y
const LOCAL: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flit {
    msg_id: u64,
    /// Remaining flits after this one (0 = tail).
    remaining: u32,
    dest: (usize, usize),
    birth: Cycle,
    /// Torus dateline state: true once the worm has traversed the wrap
    /// link of the dimension it is currently traveling (selects lane
    /// class 1). Reset on dimension change; unused on meshes.
    crossed: bool,
}

/// One lane of one input port: a FIFO of flits plus the output lane the
/// current worm holds.
#[derive(Debug, Clone, Default)]
struct Lane {
    fifo: VecDeque<Flit>,
    /// Allocated output (port, lane) for the worm currently traversing.
    route: Option<(usize, usize)>,
}

#[derive(Debug, Clone)]
struct Router {
    /// `input[port][lane]`; port 4 = injection queue (single lane).
    inputs: Vec<Vec<Lane>>,
    /// Output lane ownership: `out_owner[port][lane]` = msg_id holding it.
    out_owner: Vec<Vec<Option<u64>>>,
    /// Round-robin pointer per output port.
    rr: Vec<usize>,
}

/// A `k×k` wormhole mesh.
#[derive(Debug)]
pub struct WormholeMesh {
    cfg: MeshConfig,
    routers: Vec<Router>,
    rng: SplitMix64,
    cycle: Cycle,
    next_msg: u64,
    /// Messages fully ejected: (birth, completion).
    pub delivered: Vec<(Cycle, Cycle)>,
    /// Messages generated but not yet fully injected (source queueing).
    pub injected: u64,
    /// Messages generated in total.
    pub generated: u64,
    /// Flits delivered (for throughput).
    pub flits_delivered: u64,
    /// Source queues: per node, pending messages.
    src_q: Vec<VecDeque<PendingMsg>>,
}

/// A generated message awaiting injection:
/// (dest_x, dest_y, birth, flits left to inject, msg_id).
type PendingMsg = (usize, usize, Cycle, u32, u64);

impl WormholeMesh {
    /// Build an idle mesh.
    pub fn new(cfg: MeshConfig) -> Self {
        assert!(cfg.k >= 2 && cfg.lanes >= 1 && cfg.buf_flits >= 1 && cfg.msg_flits >= 1);
        assert!(
            !cfg.torus || (cfg.lanes >= 2 && cfg.lanes.is_multiple_of(2)),
            "torus deadlock freedom needs an even lane count >= 2 (dateline classes)"
        );
        let nodes = cfg.k * cfg.k;
        let router = Router {
            inputs: (0..=DIRS)
                .map(|p| {
                    let lanes = if p == LOCAL { 1 } else { cfg.lanes };
                    vec![Lane::default(); lanes]
                })
                .collect(),
            out_owner: (0..DIRS).map(|_| vec![None; cfg.lanes]).collect(),
            rr: vec![0; DIRS],
        };
        WormholeMesh {
            rng: SplitMix64::new(cfg.seed),
            routers: vec![router; nodes],
            cfg,
            cycle: 0,
            next_msg: 0,
            delivered: Vec::new(),
            injected: 0,
            generated: 0,
            flits_delivered: 0,
            src_q: vec![VecDeque::new(); nodes],
        }
    }

    fn node_id(&self, x: usize, y: usize) -> usize {
        y * self.cfg.k + x
    }

    fn coords(&self, id: usize) -> (usize, usize) {
        (id % self.cfg.k, id / self.cfg.k)
    }

    /// Dimension-order next hop: returns the output port, or LOCAL. On a
    /// torus the shorter way around each ring is taken.
    fn route(&self, at: usize, dest: (usize, usize)) -> usize {
        let (x, y) = self.coords(at);
        let k = self.cfg.k;
        let dim = |from: usize, to: usize, plus: usize, minus: usize| {
            if from == to {
                return None;
            }
            if !self.cfg.torus {
                return Some(if from < to { plus } else { minus });
            }
            let fwd = (to + k - from) % k;
            Some(if fwd <= k / 2 { plus } else { minus })
        };
        dim(x, dest.0, 0, 1)
            .or_else(|| dim(y, dest.1, 2, 3))
            .unwrap_or(LOCAL)
    }

    fn neighbor(&self, at: usize, port: usize) -> usize {
        let (x, y) = self.coords(at);
        let k = self.cfg.k;
        if self.cfg.torus {
            return match port {
                0 => self.node_id((x + 1) % k, y),
                1 => self.node_id((x + k - 1) % k, y),
                2 => self.node_id(x, (y + 1) % k),
                3 => self.node_id(x, (y + k - 1) % k),
                _ => unreachable!("no neighbor through the local port"),
            };
        }
        match port {
            0 => self.node_id(x + 1, y),
            1 => self.node_id(x - 1, y),
            2 => self.node_id(x, y + 1),
            3 => self.node_id(x, y - 1),
            _ => unreachable!("no neighbor through the local port"),
        }
    }

    /// True if taking `port` out of `at` traverses a wraparound link.
    fn wraps(&self, at: usize, port: usize) -> bool {
        if !self.cfg.torus {
            return false;
        }
        let (x, y) = self.coords(at);
        let k = self.cfg.k;
        match port {
            0 => x == k - 1,
            1 => x == 0,
            2 => y == k - 1,
            3 => y == 0,
            _ => false,
        }
    }

    /// The dimension of a non-local port (0 = x, 1 = y).
    fn port_dim(port: usize) -> usize {
        port / 2
    }

    /// The lane range a worm may claim on `out_port`, given the head's
    /// dateline state and where it came from.
    ///
    /// Deadlock freedom on the torus rings requires that the wrap channel
    /// itself is already class 1: class-0 dependency chains then never
    /// close the ring, and class-1 chains all start at the dateline and
    /// run < k hops forward, so both classes are acyclic.
    fn lane_range(
        &self,
        node: usize,
        in_port: usize,
        out_port: usize,
        head: &Flit,
    ) -> (usize, usize) {
        let l = self.cfg.lanes;
        if !self.cfg.torus {
            return (0, l);
        }
        let fresh_dim = in_port == LOCAL || Self::port_dim(in_port) != Self::port_dim(out_port);
        let crossed = !fresh_dim && head.crossed;
        let class1 = crossed || self.wraps(node, out_port);
        if class1 {
            (l / 2, l)
        } else {
            (0, l / 2)
        }
    }

    /// Opposite direction: arriving through `port` at the neighbor.
    fn opposite(port: usize) -> usize {
        match port {
            0 => 1,
            1 => 0,
            2 => 3,
            3 => 2,
            _ => unreachable!(),
        }
    }

    /// Advance one cycle.
    pub fn tick(&mut self) {
        let n = self.routers.len();
        let c = self.cycle;

        // 1. Generation: enqueue new messages at sources.
        for node in 0..n {
            if self.rng.chance(self.cfg.injection_rate) {
                let dest = loop {
                    let d = self.rng.below_usize(n);
                    if d != node {
                        break d;
                    }
                };
                let (dx, dy) = self.coords(dest);
                self.generated += 1;
                self.next_msg += 1;
                self.src_q[node].push_back((dx, dy, c, self.cfg.msg_flits as u32, self.next_msg));
            }
        }

        // 2. Injection: the local input lane accepts one flit per cycle
        //    while it has buffer space and the previous message has fully
        //    entered.
        for node in 0..n {
            let inj_free = {
                let lane = &self.routers[node].inputs[LOCAL][0];
                lane.fifo.len() < self.cfg.buf_flits.max(self.cfg.msg_flits)
            };
            if !inj_free {
                continue;
            }
            if let Some(front) = self.src_q[node].front_mut() {
                let (dx, dy, birth, left, msg_id) = *front;
                if left == self.cfg.msg_flits as u32 {
                    self.injected += 1;
                }
                self.routers[node].inputs[LOCAL][0].fifo.push_back(Flit {
                    msg_id,
                    remaining: left - 1,
                    dest: (dx, dy),
                    birth,
                    crossed: false,
                });
                front.3 -= 1;
                if front.3 == 0 {
                    self.src_q[node].pop_front();
                }
            }
        }

        // 3. Route allocation: head flits at lane fronts without a route
        //    try to claim an output lane.
        for node in 0..n {
            for port in 0..=DIRS {
                let lane_count = self.routers[node].inputs[port].len();
                for l in 0..lane_count {
                    let (needs_route, head) = {
                        let lane = &self.routers[node].inputs[port][l];
                        match lane.fifo.front() {
                            Some(f) if lane.route.is_none() => (true, *f),
                            _ => (
                                false,
                                Flit {
                                    msg_id: 0,
                                    remaining: 0,
                                    dest: (0, 0),
                                    birth: 0,
                                    crossed: false,
                                },
                            ),
                        }
                    };
                    if !needs_route {
                        continue;
                    }
                    let out_port = self.route(node, head.dest);
                    if out_port == LOCAL {
                        // Ejection needs no allocation.
                        self.routers[node].inputs[port][l].route = Some((LOCAL, 0));
                        continue;
                    }
                    // Claim a free lane on that output, within the
                    // dateline class the worm is entitled to.
                    let (lo, hi) = self.lane_range(node, port, out_port, &head);
                    let owners = &mut self.routers[node].out_owner[out_port];
                    if let Some(free) = (lo..hi).find(|&x| owners[x].is_none()) {
                        owners[free] = Some(head.msg_id);
                        self.routers[node].inputs[port][l].route = Some((out_port, free));
                    }
                }
            }
        }

        // 4. Flit transfer: each output port forwards at most one flit
        //    (the physical channel), round-robin over its lanes; each
        //    ejection port consumes one flit per input lane… physical
        //    ejection bandwidth: one flit per node per cycle.
        for node in 0..n {
            // Ejection first (one flit per cycle per node).
            'eject: for port in 0..=DIRS {
                for l in 0..self.routers[node].inputs[port].len() {
                    let lane = &mut self.routers[node].inputs[port][l];
                    if lane.route == Some((LOCAL, 0)) {
                        if let Some(f) = lane.fifo.pop_front() {
                            self.flits_delivered += 1;
                            if f.remaining == 0 {
                                lane.route = None;
                                self.delivered.push((f.birth, c));
                            }
                            break 'eject;
                        }
                    }
                }
            }
            // Physical channels.
            for out_port in 0..DIRS {
                // Skip edge ports with no neighbor (meshes only — every
                // torus port has a neighbor via wraparound).
                let (x, y) = self.coords(node);
                let valid = self.cfg.torus
                    || match out_port {
                        0 => x + 1 < self.cfg.k,
                        1 => x > 0,
                        2 => y + 1 < self.cfg.k,
                        3 => y > 0,
                        _ => false,
                    };
                if !valid {
                    continue;
                }
                let nbr = self.neighbor(node, out_port);
                let in_port = Self::opposite(out_port);
                // Find a sendable (input port, lane) whose worm owns a
                // lane on this output and whose downstream buffer has
                // room. Round-robin over candidates.
                let mut candidates: Vec<(usize, usize, usize)> = Vec::new(); // (in_port, in_lane, out_lane)
                for port in 0..=DIRS {
                    for l in 0..self.routers[node].inputs[port].len() {
                        let lane = &self.routers[node].inputs[port][l];
                        if let Some((op, ol)) = lane.route {
                            if op == out_port && !lane.fifo.is_empty() {
                                let room = self.routers[nbr].inputs[in_port][ol].fifo.len()
                                    < self.cfg.buf_flits;
                                if room {
                                    candidates.push((port, l, ol));
                                }
                            }
                        }
                    }
                }
                if candidates.is_empty() {
                    continue;
                }
                let pick = self.routers[node].rr[out_port] % candidates.len();
                self.routers[node].rr[out_port] = self.routers[node].rr[out_port].wrapping_add(1);
                let (ip, il, ol) = candidates[pick];
                let mut f = self.routers[node].inputs[ip][il]
                    .fifo
                    .pop_front()
                    .expect("candidate has a flit");
                // Dateline bookkeeping: entering a fresh dimension resets
                // the crossing flag; traversing a wrap link sets it.
                if ip == LOCAL || Self::port_dim(ip) != Self::port_dim(out_port) {
                    f.crossed = false;
                }
                if self.wraps(node, out_port) {
                    f.crossed = true;
                }
                if f.remaining == 0 {
                    // Tail: release the input lane's route and, once the
                    // tail leaves, the upstream ownership of this output
                    // lane transfers downstream implicitly; free it here.
                    self.routers[node].inputs[ip][il].route = None;
                    self.routers[node].out_owner[out_port][ol] = None;
                }
                self.routers[nbr].inputs[in_port][ol].fifo.push_back(f);
            }
        }

        self.cycle = c + 1;
    }

    /// Run `cycles` cycles.
    pub fn run(&mut self, cycles: Cycle) {
        for _ in 0..cycles {
            self.tick();
        }
    }

    /// Delivered flit throughput as a fraction of network bisection-ish
    /// capacity: flits per node per cycle, normalized by the max
    /// sustainable uniform-traffic injection (flits/node/cycle = 4/avg
    /// hops ≈ 4·k/(2k/3·2) … reported raw as flits/node/cycle; callers
    /// normalize).
    pub fn flits_per_node_cycle(&self) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        self.flits_delivered as f64 / (self.cycle as f64 * self.routers.len() as f64)
    }

    /// Mean message latency (birth → tail ejected), cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered.is_empty() {
            return 0.0;
        }
        self.delivered
            .iter()
            .map(|&(b, d)| (d - b) as f64)
            .sum::<f64>()
            / self.delivered.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_message_traverses_mesh() {
        let mut cfg = MeshConfig::dally(4, 1, 0.0, 1);
        cfg.msg_flits = 5;
        let mut mesh = WormholeMesh::new(cfg);
        // Inject one message by hand: node (0,0) → (3,3).
        mesh.generated += 1;
        mesh.next_msg += 1;
        mesh.src_q[0].push_back((3, 3, 0, 5, mesh.next_msg));
        mesh.run(200);
        assert_eq!(mesh.delivered.len(), 1);
        let (birth, done) = mesh.delivered[0];
        // 6 hops + 5 flits + per-hop pipelining: latency bounded sanely.
        assert!(done - birth >= 10, "too fast: {}", done - birth);
        assert!(done - birth < 60, "too slow: {}", done - birth);
    }

    #[test]
    fn all_generated_messages_eventually_delivered_at_low_load() {
        let cfg = MeshConfig::dally(4, 1, 0.002, 7);
        let mut mesh = WormholeMesh::new(cfg);
        mesh.run(20_000);
        // Stop generating, drain.
        mesh.cfg.injection_rate = 0.0;
        mesh.run(20_000);
        assert!(mesh.generated > 50);
        assert_eq!(
            mesh.delivered.len() as u64,
            mesh.generated,
            "wormhole must not lose or deadlock messages on a mesh"
        );
    }

    #[test]
    fn latency_explodes_past_saturation() {
        let low = {
            let mut m = WormholeMesh::new(MeshConfig::dally(6, 1, 0.001, 3));
            m.run(30_000);
            m.mean_latency()
        };
        let high = {
            let mut m = WormholeMesh::new(MeshConfig::dally(6, 1, 0.02, 3));
            m.run(30_000);
            m.mean_latency()
        };
        assert!(
            high > 2.0 * low,
            "saturated latency {high} should dwarf unloaded {low}"
        );
    }

    #[test]
    fn more_lanes_carry_more_traffic() {
        // The [Dally90] headline: at an injection rate past 1-lane
        // saturation, 4 lanes deliver significantly more flits.
        let run = |lanes| {
            // 0.05 msgs/node/cycle × 20 flits = 1.0 flits/node/cycle
            // offered — far past saturation for every lane count.
            let mut m = WormholeMesh::new(MeshConfig::dally(6, lanes, 0.05, 9));
            m.run(30_000);
            m.flits_per_node_cycle()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four > one * 1.1,
            "4 lanes ({four}) must outperform 1 lane ({one}) at saturation"
        );
    }

    #[test]
    fn mesh_edges_respected() {
        // Corner node routing sanity: (0,0) must never route -x or -y.
        let cfg = MeshConfig::dally(4, 1, 0.0, 1);
        let mesh = WormholeMesh::new(cfg);
        assert_eq!(mesh.route(0, (3, 0)), 0);
        assert_eq!(mesh.route(0, (0, 3)), 2);
        assert_eq!(mesh.route(0, (0, 0)), LOCAL);
        let corner = mesh.node_id(3, 3);
        assert_eq!(mesh.route(corner, (0, 3)), 1);
        assert_eq!(mesh.route(corner, (3, 0)), 3);
    }
}

#[cfg(test)]
mod torus_tests {
    use super::*;

    #[test]
    fn torus_shortest_way_around() {
        let mesh = WormholeMesh::new(MeshConfig::dally_torus(8, 2, 0.0, 1));
        // From (0,0) to (6,0): backward around the ring (2 hops) beats
        // forward (6 hops).
        assert_eq!(mesh.route(0, (6, 0)), 1, "-x is shorter via wraparound");
        assert_eq!(mesh.route(0, (3, 0)), 0, "+x when forward is shorter");
        // Wrap detection.
        assert!(mesh.wraps(0, 1), "leaving x=0 in -x wraps");
        assert!(!mesh.wraps(0, 0));
        let (x, y) = mesh.coords(mesh.neighbor(0, 1));
        assert_eq!((x, y), (7, 0), "wrap neighbor");
    }

    #[test]
    fn torus_delivers_everything_no_deadlock() {
        // The dateline discipline must keep the wraparound rings
        // deadlock-free under sustained random traffic.
        let mut mesh = WormholeMesh::new(MeshConfig::dally_torus(6, 2, 0.004, 3));
        mesh.run(30_000);
        mesh.cfg.injection_rate = 0.0;
        mesh.run(30_000);
        assert!(mesh.generated > 300, "workload too thin");
        assert_eq!(
            mesh.delivered.len() as u64,
            mesh.generated,
            "torus lost or deadlocked messages"
        );
    }

    #[test]
    fn torus_baseline_saturates_near_quarter_capacity() {
        // The Dally configuration proper: on the k-ary 2-cube with the
        // minimum deadlock-free lane count (2 = one usable lane per
        // dateline class), 20-flit messages and 16-flit buffers saturate
        // around a quarter to a third of the DOR capacity bound — the
        // paper's §2.1 "about 25 % of link capacity". More lanes recover
        // throughput.
        let k = 8;
        let cap = 8.0 / k as f64; // torus bisection bound, flits/node/cycle
        let rate = 1.5 * cap / 20.0; // well past saturation
        let mut t2 = WormholeMesh::new(MeshConfig::dally_torus(k, 2, rate, 5));
        t2.run(15_000);
        let f2 = t2.flits_per_node_cycle() / cap;
        assert!(
            (0.18..=0.42).contains(&f2),
            "2-lane torus saturation fraction {f2} should be near the paper's ~25%"
        );
        let mut t4 = WormholeMesh::new(MeshConfig::dally_torus(k, 4, rate, 5));
        t4.run(15_000);
        let f4 = t4.flits_per_node_cycle() / cap;
        assert!(f4 > f2 * 1.15, "4 lanes ({f4}) must recover over 2 ({f2})");
    }

    #[test]
    #[should_panic(expected = "even lane count")]
    fn torus_rejects_single_lane() {
        let _ = WormholeMesh::new(MeshConfig::dally_torus(4, 1, 0.0, 1));
    }
}
