//! A gigabit LAN fabric for clustered workstations — the Telegraphos
//! use case from the paper's introduction ("gigabit local area networks
//! for high performance distributed computing").
//!
//! 64 workstations connect through an omega network of 2×2 shared-buffer
//! switch elements (6 stages); end-to-end credit flow control paces the
//! hosts. We measure end-to-end latency and fabric throughput, then show
//! what credits buy: far less loss with bounded element buffers.
//!
//! ```sh
//! cargo run --release --example lan_fabric
//! ```

use telegraphos::fabric::{topo, Arrival, ElementKind, FabricElement, Target};
use telegraphos::simkernel::cell::Cell;
use telegraphos::simkernel::SplitMix64;
use telegraphos::switch_core::credit::CreditedInput;

fn main() {
    let k = 2;
    let stages = 6;
    let hosts = 64;
    println!("LAN fabric: {hosts} hosts, omega network of {stages} stages of {k}x{k} shared-buffer elements\n");

    // Unpaced hosts against bounded element pools: elements drop.
    let loss_unpaced = run_fabric(k, stages, hosts, 0.6, None, 20_000);
    // Credit-paced hosts: each host may have at most `credits` cells in
    // flight; returned when its cell is delivered.
    let loss_paced = run_fabric(k, stages, hosts, 0.6, Some(4), 20_000);
    println!(
        "\nWith bounded element pools (4 cells): unpaced hosts lose {:.2e} of cells;\n\
         credit-paced hosts (4 end-to-end credits each) lose {:.2e} — roughly two\n\
         orders of magnitude less, at the price of pacing sources below fabric\n\
         capacity. (Telegraphos uses per-LINK credits sized to the downstream\n\
         buffer, which make loss impossible by construction — demonstrated on a\n\
         single switch in tests/credit_flow.rs; end-to-end credits shown here are\n\
         the weaker, cheaper variant.)",
        loss_unpaced, loss_paced
    );
}

/// Returns the measured loss fraction.
///
/// `Fabric::run_with` is open-loop, and credits need the loop closed, so
/// the fabric's own elements are stepped here one slot at a time, in
/// index (= stage) order. A cell emitted toward an element arrives in the
/// next slot; a cell emitted toward a terminal is delivered in the next
/// slot, after the hosts have polled, and returns its credit then.
fn run_fabric(
    k: usize,
    stages: usize,
    hosts: usize,
    load: f64,
    credits: Option<u32>,
    slots: u64,
) -> f64 {
    let topo = topo::omega(k, stages);
    assert_eq!(topo.endpoints, hosts);
    let kind = ElementKind::Scalar { capacity: Some(4) };
    let mut elems: Vec<Box<dyn FabricElement>> = topo
        .route
        .iter()
        .map(|r| kind.build(k, r.clone()))
        .collect();
    let mut inbox: Vec<Vec<Arrival>> = vec![Vec::new(); elems.len()];
    let mut next: Vec<Vec<Arrival>> = vec![Vec::new(); elems.len()];
    let (mut leaving, mut left) = (Vec::<Cell>::new(), Vec::<Cell>::new());
    let mut outbox = Vec::new();
    let mut rng = SplitMix64::new(7);
    let mut senders: Vec<CreditedInput<usize>> = (0..hosts)
        .map(|_| CreditedInput::new(credits.unwrap_or(u32::MAX), 0))
        .collect();
    let (mut offered, mut released, mut delivered, mut latency_sum) = (0u64, 0u64, 0u64, 0u64);

    // Inject for `slots`, then drain.
    for now in 0..slots + 500 {
        // Hosts generate demand; the credited sender releases it.
        if now < slots {
            for (h, sender) in senders.iter_mut().enumerate() {
                if rng.chance(load) {
                    offered += 1;
                    sender.offer(rng.below_usize(hosts));
                }
                if let Some(dst) = sender.poll(now) {
                    released += 1;
                    let (e, port) = topo.ingress[h];
                    let cell = Cell::new(released, h, dst, now);
                    inbox[e as usize].push(Arrival {
                        cycle: now,
                        port,
                        cell,
                    });
                }
            }
        }
        // Cells that left the last stage last slot reach their hosts.
        for c in left.drain(..) {
            delivered += 1;
            latency_sum += now - c.birth;
            senders[c.src.index()].return_credit(now);
        }
        for (e, elem) in elems.iter_mut().enumerate() {
            inbox[e].sort_by_key(|a| a.port);
            elem.run_window(now, now + 1, &inbox[e], &mut outbox);
            inbox[e].clear();
            for em in outbox.drain(..) {
                match topo.outputs(e)[em.port as usize] {
                    Target::Elem { elem, port } => next[elem as usize].push(Arrival {
                        cycle: now + 1,
                        port,
                        cell: em.cell,
                    }),
                    Target::Terminal(_) => leaving.push(em.cell),
                }
            }
        }
        std::mem::swap(&mut inbox, &mut next);
        std::mem::swap(&mut left, &mut leaving);
    }
    let dropped: u64 = elems.iter().map(|e| e.dropped()).sum();
    let inside: u64 = elems.iter().map(|e| e.occupancy()).sum::<u64>()
        + inbox.iter().map(|a| a.len() as u64).sum::<u64>()
        + left.len() as u64;
    assert_eq!(
        released,
        delivered + dropped + inside,
        "every released cell is delivered, dropped or still in the fabric"
    );
    println!(
        "  load {load}, credits {:?}: offered {offered}, delivered {delivered}, \
         dropped-in-fabric {dropped}, mean latency {:.1} slots, backlog at hosts {}",
        credits,
        if delivered == 0 {
            0.0
        } else {
            latency_sum as f64 / delivered as f64
        },
        senders.iter().map(|s| s.backlog()).sum::<usize>(),
    );
    dropped as f64 / (delivered + dropped).max(1) as f64
}
