//! `compare A/results.json B/results.json`: is B a regression against A?

use crate::contract::{Bound, METRICS};
use crate::json::Json;
use std::fmt::Write as _;

/// One metric on one side.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// Median over the passes.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn read(metric: &Json) -> Option<Side> {
        let get = |k| metric.get(k).and_then(Json::as_f64);
        Some(Side {
            median: get("median")?,
            q1: get("q1")?,
            q3: get("q3")?,
        })
    }

    /// Interquartile range as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Worse than the base by more than the bound.
    Worse,
    /// Better than the base by more than the bound.
    Better,
    /// The quartile ranges are wider than the bound and overlap.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against the base `a`.
pub fn judge(a: Side, b: Side, lower_is_better: bool, bound: Bound) -> Verdict {
    // Orient so that larger is worse.
    let orient = |s: Side| match lower_is_better {
        true => s,
        false => Side {
            median: -s.median,
            q1: -s.q3,
            q3: -s.q1,
        },
    };
    let (a, b) = (orient(a), orient(b));
    let allowed = match bound {
        Bound::Exact => {
            return match b.median.total_cmp(&a.median) {
                std::cmp::Ordering::Equal => Verdict::Same,
                std::cmp::Ordering::Greater => Verdict::Worse,
                std::cmp::Ordering::Less => Verdict::Better,
            }
        }
        Bound::Share(s) => s * a.median.abs(),
        Bound::ShareOrAbsolute(s, abs) => (s * a.median.abs()).max(abs),
    };
    let noisy = (a.q3 - a.q1).max(b.q3 - b.q1) > allowed;
    if noisy && b.q1 <= a.q3 && a.q1 <= b.q3 {
        Verdict::Unresolved
    } else if b.median - a.median > allowed {
        Verdict::Worse
    } else if a.median - b.median > allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Compare two `results.json` documents. Returns the report and whether B
/// passes (no `worse`, no rise in `failed_share`).
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        let list = doc
            .get("workloads")
            .ok_or("no \"workloads\" member")?
            .elements();
        Ok(list.to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<18} {:<24} {:>13} {:>13} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "B/A"
    );
    for ra in &wa {
        let name = ra.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(rb) = wb
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(name))
        else {
            let _ = writeln!(out, "{name:<18} missing from B");
            pass = false;
            continue;
        };
        for m in &METRICS {
            let metric = m.name;
            let side = |r: &Json| r.get("end_to_end").and_then(|e| e.get(metric)).cloned();
            let (Some(ma), Some(mb)) = (side(ra), side(rb)) else {
                let _ = writeln!(out, "{name:<18} {metric:<24} missing");
                pass = false;
                continue;
            };
            let (Some(sa), Some(sb)) = (Side::read(&ma), Side::read(&mb)) else {
                // Undefined on this workload (null on both sides) is fine.
                if Side::read(&ma).is_some() != Side::read(&mb).is_some() {
                    let _ = writeln!(out, "{name:<18} {metric:<24} defined on one side only");
                    pass = false;
                }
                continue;
            };
            let verdict = judge(sa, sb, m.better == "lower", m.bound);
            pass &= verdict != Verdict::Worse;
            // 0 over 0 (no failed check on either side) is no change.
            let ratio = if sa.median == sb.median {
                1.0
            } else {
                sb.median / sa.median
            };
            let _ = writeln!(
                out,
                "{name:<18} {metric:<24} {:>13.6e} {:>13.6e} {ratio:>9.4}  {} (A spread {:.1}%, B spread {:.1}%)",
                sa.median,
                sb.median,
                verdict.label(),
                100.0 * sa.spread(),
                100.0 * sb.spread(),
            );
        }
        let digest = |r: &Json| {
            r.get("sim_digest")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        if digest(ra) != digest(rb) {
            let _ = writeln!(
                out,
                "{name:<18} sim_digest changed: {:?} -> {:?}",
                digest(ra),
                digest(rb)
            );
        }
    }
    let _ = writeln!(
        out,
        "ratios are B over A; {}",
        if pass { "PASS" } else { "FAIL" }
    );
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let side = |median, q1, q3| Side { median, q1, q3 };
        let tight = |m: f64| side(m, m * 0.99, m * 1.01);
        let share = Bound::Share(0.10);
        assert_eq!(judge(tight(1.0), tight(1.05), true, share), Verdict::Same);
        assert_eq!(judge(tight(1.0), tight(1.2), true, share), Verdict::Worse);
        assert_eq!(judge(tight(1.0), tight(0.8), true, share), Verdict::Better);
        // Higher is better: a drop is worse.
        assert_eq!(judge(tight(1.0), tight(0.8), false, share), Verdict::Worse);
        // Overlapping ranges wider than the bound settle nothing.
        assert_eq!(
            judge(side(1.0, 0.9, 1.1), side(1.05, 0.95, 1.2), true, share),
            Verdict::Unresolved
        );
        // Wide but disjoint ranges do.
        assert_eq!(
            judge(side(1.0, 0.9, 1.1), side(2.0, 1.8, 2.2), true, share),
            Verdict::Worse
        );
        // The absolute floor: 1 ms more on a 1 ms set-up is inside 5 ms.
        let floor = Bound::ShareOrAbsolute(0.25, 0.005);
        assert_eq!(
            judge(tight(0.001), tight(0.002), true, floor),
            Verdict::Same
        );
        assert_eq!(judge(tight(0.1), tight(0.2), true, floor), Verdict::Worse);
        assert_eq!(
            judge(tight(3.0), tight(3.0), true, Bound::Exact),
            Verdict::Same
        );
        assert_eq!(
            judge(tight(3.0), tight(3.0001), true, Bound::Exact),
            Verdict::Worse
        );
    }
}
