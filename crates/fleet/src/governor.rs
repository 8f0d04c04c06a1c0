//! The cluster governor: global power-cap waterfilling over node ladders.

use crate::node::{Ladder, Rung};
use std::{cmp::Reverse, collections::BinaryHeap};

/// One node's assigned position on its ladder plus the totals of an
/// assignment round.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `positions[i]` is the assigned rung index for the `i`-th demand.
    pub positions: Vec<usize>,
    /// Total predicted power of the assignment, in watts.
    pub power_w: f64,
    /// Total per-launch energy, in joules.
    pub energy_j: f64,
    /// Jobs that run but miss their deadline.
    pub misses: usize,
    /// Jobs shed entirely (nodes pushed to Off).
    pub shed: usize,
    /// Cap-enforcement down-steps the governor took.
    pub steps: usize,
}

fn totals(ladders: &[&Ladder], positions: Vec<usize>, steps: usize) -> Assignment {
    let mut power_w = 0.0;
    let mut energy_j = 0.0;
    let mut misses = 0;
    let mut shed = 0;
    for (ladder, &pos) in ladders.iter().zip(&positions) {
        let r: &Rung = &ladder.rungs[pos];
        power_w += r.power_w;
        energy_j += r.energy_j;
        if r.config.is_none() {
            shed += 1;
        } else if r.miss {
            misses += 1;
        }
    }
    Assignment {
        positions,
        power_w,
        energy_j,
        misses,
        shed,
        steps,
    }
}

/// A down-step's rank in the governor's order, compared as a tuple: class,
/// `Δenergy / Δpower` and `Δslowdown / Δpower` (each by `f64::total_cmp`,
/// via [`total_rank`]), then node index, which makes every key unique.
type StepKey = (u8, i64, i64, usize);

/// The key of the step from rung `pos` of `node`'s ladder to the rung
/// below, or `None` once the node is Off.
fn next_step(ladder: &Ladder, pos: usize, node: usize) -> Option<StepKey> {
    let (cur, next) = (&ladder.rungs[pos], ladder.rungs.get(pos + 1)?);
    let d_power = cur.power_w - next.power_w;
    debug_assert!(d_power > 0.0, "ladder power must strictly decrease");
    let class: u8 = if next.config.is_none() {
        2
    } else if next.miss && !cur.miss {
        1
    } else {
        0
    };
    let d_energy = if next.config.is_none() {
        0.0 // shedding: energy cost is counted by the class
    } else {
        (next.energy_j - cur.energy_j) / d_power
    };
    let d_slow = if next.time_s.is_finite() {
        (next.time_s - cur.time_s) / ladder.reference_time_s / d_power
    } else {
        0.0
    };
    Some((class, total_rank(d_energy), total_rank(d_slow), node))
}

/// `x` as an integer that orders exactly as `f64::total_cmp` orders
/// `x`: the sign-dependent bit flip `total_cmp` itself compares by.
fn total_rank(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Greedy marginal-energy-per-slowdown waterfilling.
///
/// Every node starts on its desired rung. While the fleet exceeds the
/// cap, the governor takes the cheapest single down-step across all
/// nodes, ranked lexicographically:
///
/// 1. steps that keep the job live and on deadline, then steps that
///    introduce a deadline miss, then steps to Off;
/// 2. within a class, smallest marginal energy increase per watt saved
///    (`Δenergy / Δpower`), tie-broken by marginal slowdown per watt and
///    finally by node index.
///
/// Above the cap, a min-heap holds each node's next down-step: O(N) to
/// build, then O(log N) per step to pop the cheapest and push that
/// node's next one.
///
/// The chosen step never depends on the cap itself — the cap only
/// decides *when to stop* — so the step sequence under a tight cap is a
/// prefix-extension of the sequence under a looser one. Combined with
/// the ladder invariant that energy never decreases down the live rungs,
/// this makes total energy monotone in the cap (until Off rungs engage),
/// the property the fleet's conformance tests pin.
///
/// With every ladder ending in a 0 W Off rung, any cap `>= 0` is
/// satisfiable, so the loop always terminates at or under the cap.
pub fn assign(ladders: &[&Ladder], cap_w: Option<f64>) -> Assignment {
    let mut positions = vec![0usize; ladders.len()];
    let mut power: f64 = ladders.iter().map(|l| l.desired().power_w).sum();
    let mut steps = 0usize;
    let cap = match cap_w {
        Some(c) if power > c => c,
        _ => return totals(ladders, positions, steps),
    };

    let mut heap: BinaryHeap<Reverse<StepKey>> = ladders
        .iter()
        .enumerate()
        .filter_map(|(i, ladder)| next_step(ladder, 0, i).map(Reverse))
        .collect();
    while power > cap {
        let Reverse((_, _, _, node)) = heap
            .pop()
            .expect("a fleet above any cap >= 0 has a live rung to drop");
        let (ladder, pos) = (ladders[node], positions[node]);
        power -= ladder.rungs[pos].power_w - ladder.rungs[pos + 1].power_w;
        positions[node] = pos + 1;
        steps += 1;
        heap.extend(next_step(ladder, pos + 1, node).map(Reverse));
    }
    totals(ladders, positions, steps)
}

/// Exhaustive optimal assignment for small fleets: the conformance
/// oracle the greedy solver is tested against.
///
/// Enumerates every rung combination with total power at or under the
/// cap and returns the one minimizing `(shed, misses, energy,
/// positions)` lexicographically. The positions tie-break makes the
/// oracle deterministic, mirroring the greedy's node-index tie-break.
///
/// # Panics
///
/// Panics if the search space exceeds 1,000,000 combinations — this is
/// a test oracle, not a production solver.
pub fn oracle_assign(ladders: &[&Ladder], cap_w: f64) -> Assignment {
    let space: usize = ladders
        .iter()
        .map(|l| l.rungs.len())
        .try_fold(1usize, |acc, n| acc.checked_mul(n))
        .expect("search space overflows");
    assert!(
        space <= 1_000_000,
        "oracle search space {space} too large — shrink the test fleet"
    );

    let mut positions = vec![0usize; ladders.len()];
    let mut best: Option<Assignment> = None;
    loop {
        let candidate = totals(ladders, positions.clone(), 0);
        if candidate.power_w <= cap_w {
            let better = match &best {
                None => true,
                Some(b) => {
                    (candidate.shed, candidate.misses, candidate.energy_j)
                        .partial_cmp(&(b.shed, b.misses, b.energy_j))
                        .expect("finite totals")
                        .then_with(|| candidate.positions.cmp(&b.positions))
                        == std::cmp::Ordering::Less
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        // Odometer increment over rung positions.
        let mut i = 0;
        loop {
            if i == ladders.len() {
                return best.expect("the all-Off assignment satisfies any cap >= 0");
            }
            positions[i] += 1;
            if positions[i] < ladders[i].rungs.len() {
                break;
            }
            positions[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_dvfs::VfCandidate;
    use gpm_spec::FreqConfig;

    /// A ladder from a simple monotone grid, parameterized by scale so
    /// nodes differ.
    fn ladder(scale: f64, deadline_slack: f64) -> Ladder {
        let candidates: Vec<VfCandidate> = (0u32..6)
            .map(|i| VfCandidate {
                config: FreqConfig::from_mhz(1000 - 100 * i, 3505),
                power_w: scale * (150.0 - 20.0 * f64::from(i)),
                time_s: 1.0 + 0.25 * f64::from(i),
            })
            .collect();
        Ladder::build(&candidates, 1.0, deadline_slack)
    }

    /// The governor before its heap: every step rescans every node for
    /// the cheapest next down-step. Kept as the reference the heap must
    /// match step for step.
    fn scan_assign(ladders: &[&Ladder], cap_w: Option<f64>) -> Assignment {
        let mut positions = vec![0usize; ladders.len()];
        let mut power: f64 = ladders.iter().map(|l| l.desired().power_w).sum();
        let mut steps = 0usize;
        let cap = match cap_w {
            Some(c) => c,
            None => return totals(ladders, positions, steps),
        };

        while power > cap {
            // Scan all nodes for the cheapest next down-step.
            let mut best: Option<(u8, f64, f64, usize)> = None;
            for (i, ladder) in ladders.iter().enumerate() {
                let pos = positions[i];
                if pos + 1 >= ladder.rungs.len() {
                    continue; // already Off
                }
                let cur = &ladder.rungs[pos];
                let next = &ladder.rungs[pos + 1];
                let d_power = cur.power_w - next.power_w;
                let class: u8 = if next.config.is_none() {
                    2
                } else if next.miss && !cur.miss {
                    1
                } else {
                    0
                };
                let d_energy = if next.config.is_none() {
                    0.0
                } else {
                    (next.energy_j - cur.energy_j) / d_power
                };
                let d_slow = if next.time_s.is_finite() {
                    (next.time_s - cur.time_s) / ladder.reference_time_s / d_power
                } else {
                    0.0
                };
                let key = (class, d_energy, d_slow, i);
                let better = match &best {
                    None => true,
                    Some((bc, be, bs, bi)) => key
                        .0
                        .cmp(bc)
                        .then(key.1.total_cmp(be))
                        .then(key.2.total_cmp(bs))
                        .then(key.3.cmp(bi))
                        .is_lt(),
                };
                if better {
                    best = Some(key);
                }
            }
            let (_, _, _, node) = best.expect("a fleet above any cap >= 0 has a live rung");
            let pos = positions[node];
            power -= ladders[node].rungs[pos].power_w - ladders[node].rungs[pos + 1].power_w;
            positions[node] = pos + 1;
            steps += 1;
        }
        totals(ladders, positions, steps)
    }

    /// A random ladder with noisy, roughly monotone power and runtime.
    fn random_ladder(g: &mut gpm_check::Gen) -> Ladder {
        let levels = g.usize_in(1..16);
        let top_power = g.f64_in(60.0, 800.0);
        let top_time = g.f64_in(0.05, 4.0);
        let candidates: Vec<VfCandidate> = (0..levels)
            .map(|i| {
                let frac = i as f64 / levels as f64;
                VfCandidate {
                    config: FreqConfig::from_mhz(1500 - 50 * i as u32, 3505),
                    power_w: top_power * (1.0 - 0.8 * frac) * g.f64_in(0.9, 1.1),
                    time_s: top_time * (1.0 + 1.5 * frac) * g.f64_in(0.9, 1.1),
                }
            })
            .collect();
        Ladder::build(&candidates, top_time, top_time * g.f64_in(0.8, 2.0))
    }

    #[test]
    fn heap_takes_the_same_steps_as_the_full_scan() {
        gpm_check::check("heap_takes_the_same_steps_as_the_full_scan", |g| {
            // A few distinct ladders shared by up to 23 nodes. A node's copy
            // either repeats its ladder exactly, tying on every key field but
            // the node index, or gets another reference time, tying on class
            // and Δenergy/Δpower only. A negative reference time (unphysical,
            // but still valid input) makes Δslowdown/Δpower negative, where
            // `total_cmp` orders differently from the raw bits.
            let distinct: Vec<Ladder> = (0..g.usize_in(1..6)).map(|_| random_ladder(g)).collect();
            let ladders: Vec<Ladder> = (0..g.usize_in(1..24))
                .map(|_| {
                    let mut ladder = g.choose(&distinct).clone();
                    if g.bool() {
                        ladder.reference_time_s *= g.f64_in(-2.0, 2.0);
                    }
                    ladder
                })
                .collect();
            let refs: Vec<&Ladder> = ladders.iter().collect();
            let uncapped = assign(&refs, None).power_w;
            for _ in 0..4 {
                let cap = g.f64_in(0.0, uncapped * 1.2);
                let (heap, scan) = (assign(&refs, Some(cap)), scan_assign(&refs, Some(cap)));
                assert_eq!(heap.positions, scan.positions, "cap {cap}");
                assert_eq!(heap.steps, scan.steps, "cap {cap}");
                assert_eq!(heap.power_w.to_bits(), scan.power_w.to_bits(), "cap {cap}");
                assert!(heap.power_w <= cap + 1e-9);
            }
        });
    }

    #[test]
    fn total_rank_orders_like_total_cmp() {
        let special = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        gpm_check::check("total_rank_orders_like_total_cmp", |g| {
            let draw = |g: &mut gpm_check::Gen| match g.usize_in(0..3) {
                0 => *g.choose(&special),
                1 => g.f64_in(-2.0, 2.0),
                _ => f64::from_bits(g.u64_any()),
            };
            let (a, b) = (draw(g), draw(g));
            assert_eq!(
                total_rank(a).cmp(&total_rank(b)),
                a.total_cmp(&b),
                "{a} vs {b}"
            );
        });
    }

    #[test]
    fn uncapped_assignment_is_every_desired_rung() {
        let ladders = [ladder(1.0, 1.3), ladder(2.0, 1.3)];
        let refs: Vec<&Ladder> = ladders.iter().collect();
        let a = assign(&refs, None);
        assert_eq!(a.positions, vec![0, 0]);
        assert_eq!(a.steps, 0);
        let total: f64 = refs.iter().map(|l| l.desired().power_w).sum();
        assert_eq!(a.power_w, total);
    }

    #[test]
    fn cap_is_always_met_and_steps_prefer_cheap_nodes() {
        let ladders = [ladder(1.0, 1.3), ladder(1.5, 1.3), ladder(2.0, 1.3)];
        let refs: Vec<&Ladder> = ladders.iter().collect();
        let uncapped = assign(&refs, None).power_w;
        for frac in [0.95, 0.8, 0.6, 0.4, 0.2, 0.05, 0.0] {
            let cap = uncapped * frac;
            let a = assign(&refs, Some(cap));
            assert!(
                a.power_w <= cap + 1e-9,
                "cap {cap:.1} violated: {:.1}",
                a.power_w
            );
        }
    }

    #[test]
    fn relaxing_the_cap_never_increases_energy() {
        let ladders = [ladder(1.0, 1.4), ladder(1.3, 1.2), ladder(0.7, 1.6)];
        let refs: Vec<&Ladder> = ladders.iter().collect();
        // Only caps where nothing is shed (Off breaks the comparison:
        // it destroys work, not just efficiency).
        let floor: f64 = refs.iter().map(|l| l.lowest_live().power_w).sum();
        let ceil = assign(&refs, None).power_w;
        let mut last_energy = f64::INFINITY;
        let n = 24;
        for i in 0..=n {
            let cap = floor + (ceil - floor) * f64::from(i) / f64::from(n);
            let a = assign(&refs, Some(cap));
            assert_eq!(a.shed, 0, "cap {cap:.1} >= live floor must not shed");
            assert!(
                a.energy_j <= last_energy + 1e-9,
                "energy must fall (or hold) as the cap relaxes"
            );
            last_energy = a.energy_j;
        }
    }

    #[test]
    fn greedy_matches_the_oracle_on_small_fleets() {
        let ladders = [ladder(1.0, 1.3), ladder(1.4, 1.5), ladder(0.8, 1.2)];
        let refs: Vec<&Ladder> = ladders.iter().collect();
        let floor: f64 = refs.iter().map(|l| l.lowest_live().power_w).sum();
        let ceil = assign(&refs, None).power_w;

        // No-shed regime: greedy energy must track the oracle closely.
        let n = 16;
        for i in 0..=n {
            let cap = floor + (ceil - floor) * f64::from(i) / f64::from(n);
            let greedy = assign(&refs, Some(cap));
            let oracle = oracle_assign(&refs, cap);
            assert_eq!(greedy.shed, 0);
            assert_eq!(oracle.shed, 0);
            assert!(greedy.power_w <= cap + 1e-9);
            assert!(
                greedy.energy_j <= oracle.energy_j * 1.05 + 1e-9,
                "cap {cap:.1}: greedy energy {:.1} vs oracle {:.1}",
                greedy.energy_j,
                oracle.energy_j
            );
        }

        // Shed regime: greedy still meets the cap and sheds at most one
        // node more than the optimum (it walks nodes down before giving
        // up on them, where the oracle may shed one big node outright).
        for frac in [0.7, 0.5, 0.3, 0.1] {
            let cap = floor * frac;
            let greedy = assign(&refs, Some(cap));
            let oracle = oracle_assign(&refs, cap);
            assert!(greedy.power_w <= cap + 1e-9);
            assert!(oracle.power_w <= cap + 1e-9);
            assert!(
                greedy.shed <= oracle.shed + 1,
                "cap {frac}: greedy shed {} vs oracle {}",
                greedy.shed,
                oracle.shed
            );
        }
    }

    #[test]
    fn impossible_cap_sheds_everything() {
        let ladders = [ladder(1.0, 1.3), ladder(1.0, 1.3)];
        let refs: Vec<&Ladder> = ladders.iter().collect();
        let a = assign(&refs, Some(0.0));
        assert_eq!(a.shed, 2);
        assert_eq!(a.power_w, 0.0);
        assert_eq!(a.energy_j, 0.0);
    }

    #[test]
    fn empty_fleet_is_trivially_capped() {
        let a = assign(&[], Some(100.0));
        assert_eq!(a.positions.len(), 0);
        assert_eq!(a.power_w, 0.0);
    }
}
