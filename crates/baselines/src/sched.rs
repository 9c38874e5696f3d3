//! Crossbar schedulers for non-FIFO input buffering (VOQ).
//!
//! §2.1 of the paper: "a more complicated scheduler is needed, because now
//! the scheduling of each output depends on the scheduling of the other
//! outputs". The paper cites the schedulers of \[AOST93\] (PIM — parallel
//! iterative matching), \[LaSe95\] (two-dimensional round robin) and
//! \[TaCh93\]; iSLIP is the de-facto-standard descendant of PIM and is
//! included for completeness. All three produce a *matching* between
//! inputs and outputs given the request relation "VOQ(i,j) non-empty".
//!
//! The relation arrives as port masks, once by input and once by output,
//! and every candidate list of the algorithms is a mask too: "the
//! unmatched inputs requesting output `j`" is `cols[j] & free_in`, a
//! uniform pick from it is its `k`-th set bit (`random_port`) and a
//! round-robin pick its first set bit at or after the pointer
//! (`next_port_from`). Set bits are walked in ascending order, which is
//! the order an explicit candidate list would be built in, so random
//! draws happen in the same sequence and pick the same ports.

use crate::model::{all_ports, next_port_from, port_bit, random_port, PortMask};
use simkernel::{bits, SplitMix64};

/// A crossbar scheduler: computes an input→output matching.
pub trait Scheduler {
    /// Given the request relation of an `n`-port switch, both ways round
    /// — bit `j` of `rows[i]` and bit `i` of `cols[j]` are set iff input
    /// `i` has at least one cell for output `j` (`n = rows.len() =
    /// cols.len()`) — fill `match_out[i]` with the output granted to
    /// input `i` (`None` if unmatched). The result must be a matching: no
    /// output granted to two inputs.
    fn schedule(&mut self, rows: &[PortMask], cols: &[PortMask], match_out: &mut [Option<usize>]);

    /// Scheduler name for reports.
    fn name(&self) -> &'static str;
}

/// Parallel Iterative Matching (\[AOST93\]): each iteration, every
/// unmatched output grants a uniformly random requesting input, and every
/// input with grants accepts one uniformly at random. `iters` iterations
/// (AOST93 show log n suffice).
#[derive(Debug)]
pub struct PimScheduler {
    iters: usize,
    rng: SplitMix64,
    /// Per-call scratch: outputs granting to each input this iteration.
    grants: Vec<PortMask>,
}

impl PimScheduler {
    /// PIM with the given iteration count.
    pub fn new(iters: usize, seed: u64) -> Self {
        assert!(iters >= 1);
        PimScheduler {
            iters,
            rng: SplitMix64::new(seed),
            grants: Vec::new(),
        }
    }
}

impl Scheduler for PimScheduler {
    fn schedule(&mut self, rows: &[PortMask], cols: &[PortMask], match_out: &mut [Option<usize>]) {
        let n = rows.len();
        debug_assert_eq!(cols.len(), n);
        match_out.fill(None);
        let (mut free_in, mut free_out) = (all_ports(n), all_ports(n));
        // Every grant is taken back by its accept: all zero between calls.
        self.grants.resize(n, 0);
        for _ in 0..self.iters {
            // Grant phase: each unmatched output grants one random
            // requesting unmatched input.
            let mut granted: PortMask = 0;
            for j in bits(free_out) {
                let cands = cols[j] & free_in;
                if cands != 0 {
                    let i = random_port(cands, &mut self.rng);
                    self.grants[i] |= port_bit(j);
                    granted |= port_bit(i);
                }
            }
            if granted == 0 {
                break;
            }
            // Accept phase: each input accepts one random grant.
            for i in bits(granted) {
                let grants = std::mem::take(&mut self.grants[i]);
                let j = random_port(grants, &mut self.rng);
                match_out[i] = Some(j);
                free_out &= !port_bit(j);
            }
            free_in &= !granted;
        }
    }

    fn name(&self) -> &'static str {
        "pim"
    }
}

/// iSLIP (McKeown): like PIM but grants/accepts use rotating round-robin
/// pointers, updated only on the first iteration's accepted grants —
/// achieving desynchronized pointers and 100 % throughput under uniform
/// traffic.
#[derive(Debug)]
pub struct IslipScheduler {
    iters: usize,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
    /// Per-call scratch: outputs granting to each input this iteration.
    grants: Vec<PortMask>,
}

impl IslipScheduler {
    /// iSLIP for an `n`-port switch with the given iteration count.
    pub fn new(n: usize, iters: usize) -> Self {
        all_ports(n);
        assert!(iters >= 1);
        IslipScheduler {
            iters,
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
            grants: vec![0; n],
        }
    }
}

impl Scheduler for IslipScheduler {
    fn schedule(&mut self, rows: &[PortMask], cols: &[PortMask], match_out: &mut [Option<usize>]) {
        let n = rows.len();
        debug_assert_eq!((cols.len(), self.grant_ptr.len()), (n, n));
        match_out.fill(None);
        let (mut free_in, mut free_out) = (all_ports(n), all_ports(n));
        for iter in 0..self.iters {
            // Grant phase: each unmatched output grants the requesting
            // unmatched input next at or after its pointer.
            let mut granted: PortMask = 0;
            for j in bits(free_out) {
                if let Some(i) = next_port_from(cols[j] & free_in, self.grant_ptr[j]) {
                    self.grants[i] |= port_bit(j);
                    granted |= port_bit(i);
                }
            }
            if granted == 0 {
                break;
            }
            // Accept phase: likewise, over the outputs granting to it.
            for i in bits(granted) {
                let grants = std::mem::take(&mut self.grants[i]);
                let j = next_port_from(grants, self.accept_ptr[i]).expect("granted input");
                match_out[i] = Some(j);
                free_out &= !port_bit(j);
                if iter == 0 {
                    // Pointer update rule: only on first-iteration
                    // accepts (the desynchronization trick).
                    self.grant_ptr[j] = (i + 1) % n;
                    self.accept_ptr[i] = (j + 1) % n;
                }
            }
            free_in &= !granted;
        }
    }

    fn name(&self) -> &'static str {
        "islip"
    }
}

/// Two-dimensional round robin (\[LaSe95\]): sweep a rotating generalized
/// diagonal pattern over the request matrix; cells on the active diagonals
/// are served. Deterministic, starvation-free, O(n) work per slot.
#[derive(Debug, Default)]
pub struct Rr2dScheduler {
    phase: usize,
}

impl Rr2dScheduler {
    /// A 2DRR scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Rr2dScheduler {
    fn schedule(&mut self, rows: &[PortMask], cols: &[PortMask], match_out: &mut [Option<usize>]) {
        let n = rows.len();
        debug_assert_eq!(cols.len(), n);
        match_out.fill(None);
        let all = all_ports(n);
        // Only ports with a request can ever be matched.
        let requesting = |masks: &[PortMask]| {
            (0..n)
                .filter(|&p| masks[p] != 0)
                .fold(0, |set, p| set | port_bit(p))
        };
        let (mut free_in, mut free_out) = (requesting(rows), requesting(cols));
        // Serve diagonals d, d+1, ... (offset by the rotating phase): the
        // k-th diagonal pairs input i with output (i + d) mod n. A full
        // sweep of n diagonals guarantees a maximal-diagonal matching.
        for k in 0..n {
            if free_in == 0 || free_out == 0 {
                break;
            }
            let d = (self.phase + k) % n;
            // Inputs whose partner on this diagonal is free: the free
            // outputs rotated down by d within n bits.
            let partner_free = match d {
                0 => free_out,
                _ => ((free_out >> d) | (free_out << (n - d))) & all,
            };
            for i in bits(free_in & partner_free) {
                let j = (i + d) % n;
                if rows[i] & port_bit(j) != 0 {
                    match_out[i] = Some(j);
                    free_in &= !port_bit(i);
                    free_out &= !port_bit(j);
                }
            }
        }
        self.phase = (self.phase + 1) % n;
    }

    fn name(&self) -> &'static str {
        "2drr"
    }
}

/// Check that `match_out` is a valid matching consistent with the
/// per-input request masks `rows`.
pub fn is_valid_matching(rows: &[PortMask], match_out: &[Option<usize>]) -> bool {
    let mut used: PortMask = 0;
    for (i, m) in match_out.iter().enumerate() {
        if let Some(j) = *m {
            if j >= rows.len() || (used | !rows[i]) & port_bit(j) != 0 {
                return false;
            }
            used |= port_bit(j);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request matrix `requests[i * n + j]` as (row, column) masks.
    fn masks(n: usize, requests: &[bool]) -> (Vec<PortMask>, Vec<PortMask>) {
        let (mut rows, mut cols) = (vec![0; n], vec![0; n]);
        for (idx, _) in requests.iter().enumerate().filter(|(_, &r)| r) {
            rows[idx / n] |= port_bit(idx % n);
            cols[idx % n] |= port_bit(idx / n);
        }
        (rows, cols)
    }

    fn full_requests(n: usize) -> Vec<bool> {
        vec![true; n * n]
    }

    fn schedule_bools(s: &mut dyn Scheduler, n: usize, requests: &[bool]) -> Vec<Option<usize>> {
        let (rows, cols) = masks(n, requests);
        let mut m = vec![None; n];
        s.schedule(&rows, &cols, &mut m);
        m
    }

    fn run_all(n: usize, requests: &[bool]) -> Vec<(String, Vec<Option<usize>>)> {
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(PimScheduler::new(4, 1)),
            Box::new(IslipScheduler::new(n, 4)),
            Box::new(Rr2dScheduler::new()),
        ];
        schedulers
            .iter_mut()
            .map(|s| {
                (
                    s.name().to_string(),
                    schedule_bools(s.as_mut(), n, requests),
                )
            })
            .collect()
    }

    /// The schedulers as they were first written, over an explicit
    /// `&[bool]` request matrix with explicit candidate lists: the
    /// reference the mask forms must equal matching for matching.
    enum Reference {
        Pim {
            iters: usize,
            rng: SplitMix64,
        },
        Islip {
            iters: usize,
            grant_ptr: Vec<usize>,
            accept_ptr: Vec<usize>,
        },
        Rr2d {
            phase: usize,
        },
    }

    impl Reference {
        fn schedule(&mut self, n: usize, req: &[bool]) -> Vec<Option<usize>> {
            let mut m: Vec<Option<usize>> = vec![None; n];
            let mut out_matched = vec![false; n];
            let rr =
                |ptr: usize, c: &[usize]| (0..n).map(|k| (ptr + k) % n).find(|x| c.contains(x));
            match self {
                Reference::Pim { iters, rng } => {
                    for _ in 0..*iters {
                        let mut grants = vec![Vec::new(); n];
                        for j in (0..n).filter(|&j| !out_matched[j]) {
                            let cands: Vec<usize> = (0..n)
                                .filter(|&i| m[i].is_none() && req[i * n + j])
                                .collect();
                            if !cands.is_empty() {
                                grants[cands[rng.below_usize(cands.len())]].push(j);
                            }
                        }
                        for (i, g) in grants.iter().enumerate().filter(|(_, g)| !g.is_empty()) {
                            let j = g[rng.below_usize(g.len())];
                            m[i] = Some(j);
                            out_matched[j] = true;
                        }
                    }
                }
                Reference::Islip {
                    iters,
                    grant_ptr,
                    accept_ptr,
                } => {
                    for iter in 0..*iters {
                        let mut granted = vec![None; n];
                        for j in (0..n).filter(|&j| !out_matched[j]) {
                            let cands: Vec<usize> = (0..n)
                                .filter(|&i| m[i].is_none() && req[i * n + j])
                                .collect();
                            granted[j] = rr(grant_ptr[j], &cands);
                        }
                        for i in (0..n).filter(|&i| m[i].is_none()).collect::<Vec<_>>() {
                            let to: Vec<usize> =
                                (0..n).filter(|&j| granted[j] == Some(i)).collect();
                            if let Some(j) = rr(accept_ptr[i], &to) {
                                m[i] = Some(j);
                                out_matched[j] = true;
                                if iter == 0 {
                                    grant_ptr[j] = (i + 1) % n;
                                    accept_ptr[i] = (j + 1) % n;
                                }
                            }
                        }
                    }
                }
                Reference::Rr2d { phase } => {
                    for d in (0..n).map(|k| (*phase + k) % n) {
                        for i in 0..n {
                            let j = (i + d) % n;
                            if m[i].is_none() && !out_matched[j] && req[i * n + j] {
                                m[i] = Some(j);
                                out_matched[j] = true;
                            }
                        }
                    }
                    *phase = (*phase + 1) % n;
                }
            }
            m
        }
    }

    #[test]
    fn mask_schedulers_equal_the_bool_matrix_reference() {
        for n in [1usize, 5, 8, 16, 33, 64] {
            // One instance of each for all 1000 matrices: pointer, phase
            // and RNG state carry from matching to matching.
            let mut pairs: Vec<(Box<dyn Scheduler>, Reference)> = vec![
                (
                    Box::new(PimScheduler::new(4, 9)),
                    Reference::Pim {
                        iters: 4,
                        rng: SplitMix64::new(9),
                    },
                ),
                (
                    Box::new(IslipScheduler::new(n, 4)),
                    Reference::Islip {
                        iters: 4,
                        grant_ptr: vec![0; n],
                        accept_ptr: vec![0; n],
                    },
                ),
                (Box::new(Rr2dScheduler::new()), Reference::Rr2d { phase: 0 }),
            ];
            let mut rng = SplitMix64::new(n as u64);
            for round in 0..1000 {
                // Sparse, medium, dense and full matrices in turn.
                let density = [0.05, 0.4, 0.9, 1.0][round % 4];
                let requests: Vec<bool> = (0..n * n).map(|_| rng.chance(density)).collect();
                for (mask_form, reference) in pairs.iter_mut() {
                    let got = schedule_bools(mask_form.as_mut(), n, &requests);
                    let want = reference.schedule(n, &requests);
                    let name = mask_form.name();
                    assert_eq!(got, want, "{name}, n = {n}, matrix {round}");
                    assert!(is_valid_matching(&masks(n, &requests).0, &got), "{name}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "slot-level models take 1..=64 ports")]
    fn more_than_64_ports_are_rejected() {
        IslipScheduler::new(65, 4);
    }

    #[test]
    fn invalid_matchings_are_told_apart() {
        let (rows, _) = masks(2, &[true, true, false, true]);
        assert!(is_valid_matching(&rows, &[Some(0), Some(1)]));
        assert!(is_valid_matching(&rows, &[Some(1), None]));
        assert!(
            !is_valid_matching(&rows, &[Some(1), Some(1)]),
            "output twice"
        );
        assert!(!is_valid_matching(&rows, &[None, Some(0)]), "not requested");
        assert!(
            !is_valid_matching(&rows, &[Some(2), None]),
            "no such output"
        );
    }

    #[test]
    fn all_produce_valid_matchings() {
        let n = 8;
        let mut rng = SplitMix64::new(3);
        for _ in 0..50 {
            let requests: Vec<bool> = (0..n * n).map(|_| rng.chance(0.4)).collect();
            let (rows, _) = masks(n, &requests);
            for (name, m) in run_all(n, &requests) {
                assert!(
                    is_valid_matching(&rows, &m),
                    "{name} produced an invalid matching"
                );
            }
        }
    }

    #[test]
    fn full_requests_yield_perfect_matching() {
        // PIM and iSLIP need enough iterations to match all ports in one
        // cold call (iSLIP matches exactly one new pair per iteration
        // from synchronized pointers); 2DRR is maximal in one pass.
        let n = 8;
        let req = full_requests(n);
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(PimScheduler::new(n, 1)),
            Box::new(IslipScheduler::new(n, n)),
            Box::new(Rr2dScheduler::new()),
        ];
        for s in schedulers.iter_mut() {
            let m = schedule_bools(s.as_mut(), n, &req);
            let matched = m.iter().flatten().count();
            assert_eq!(
                matched,
                n,
                "{} left ports unmatched under full load",
                s.name()
            );
        }
    }

    #[test]
    fn empty_requests_yield_empty_matching() {
        let n = 4;
        let req = vec![false; n * n];
        for (_, m) in run_all(n, &req) {
            assert!(m.iter().all(Option::is_none));
        }
    }

    #[test]
    fn single_request_is_served() {
        let n = 4;
        let mut req = vec![false; n * n];
        req[2 * n + 3] = true;
        for (name, m) in run_all(n, &req) {
            assert_eq!(m[2], Some(3), "{name} missed the only request");
        }
    }

    #[test]
    fn islip_desynchronizes_under_uniform_full_load() {
        // After a warmup, iSLIP serves a full diagonal every slot.
        let n = 4;
        let mut s = IslipScheduler::new(n, 1);
        let req = full_requests(n);
        let mut m = vec![None; n];
        for _ in 0..10 {
            m = schedule_bools(&mut s, n, &req);
        }
        let matched = m.iter().flatten().count();
        assert_eq!(matched, n, "iSLIP failed to desynchronize");
    }

    #[test]
    fn rr2d_rotates_fairly() {
        // One input requesting everything: over n slots every output is
        // served exactly once (starvation freedom).
        let n = 4;
        let mut s = Rr2dScheduler::new();
        let mut req = vec![false; n * n];
        for r in req.iter_mut().take(n) {
            *r = true; // input 0 wants all outputs
        }
        let mut served = vec![0usize; n];
        for _ in 0..n {
            let m = schedule_bools(&mut s, n, &req);
            served[m[0].expect("input 0 always matched")] += 1;
        }
        assert_eq!(served, vec![1; n]);
    }

    #[test]
    fn pim_converges_with_more_iterations() {
        // With 1 iteration PIM may leave matchable pairs unmatched; with
        // n iterations it is maximal for this structured case.
        let n = 8;
        let req = full_requests(n);
        let mut one = PimScheduler::new(1, 7);
        let mut many = PimScheduler::new(8, 7);
        let mut sum1 = 0;
        let mut sumn = 0;
        for _ in 0..100 {
            sum1 += schedule_bools(&mut one, n, &req).iter().flatten().count();
            sumn += schedule_bools(&mut many, n, &req).iter().flatten().count();
        }
        assert!(
            sumn > sum1,
            "more iterations must match more ({sumn} vs {sum1})"
        );
        assert_eq!(sumn, 100 * n, "full iterations saturate full requests");
    }
}
