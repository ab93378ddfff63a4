//! Order statistics and the rate-ladder rule.
//!
//! Percentiles use the nearest-rank definition on sorted samples. A
//! percentile is only reported when at least [`MIN_TAIL`] samples lie
//! beyond it, so a p99 needs 1 000 samples and a p99.9 needs 10 000.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Percentiles the tail rule picks from, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Nearest-rank percentile `p` (0–100) of `sorted`, which must be in
/// ascending order. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether `p` leaves at least [`MIN_TAIL`] of `n` samples beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    let beyond = n as f64 * (1.0 - p / 100.0);
    beyond + 1e-9 >= MIN_TAIL as f64
}

/// The highest candidate percentile `n` samples support, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| supports(n, p))
}

/// Median of an unsorted slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// What one ladder step measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Offered request rate of the step, requests per second.
    pub rate_rps: f64,
    /// Latency at the tail percentile, ms (failures count as +inf).
    pub p99_ms: f64,
    /// Share of requests that failed.
    pub fail_frac: f64,
    /// Whether the generator fell further behind as the step ran.
    pub lag_growing: bool,
}

/// The limits a ladder step must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderLimits {
    /// Tail-latency limit, ms.
    pub p99_ms: f64,
    /// Highest tolerated failed share.
    pub max_fail_frac: f64,
}

impl StepOutcome {
    /// Whether the step meets `limits`.
    pub fn passes(&self, limits: &LadderLimits) -> bool {
        self.p99_ms <= limits.p99_ms && self.fail_frac <= limits.max_fail_frac && !self.lag_growing
    }
}

/// Whether generator lag grew over a step: the median lag of the last
/// quarter of sessions exceeds that of the first quarter by more than
/// `slack_ms`. `lags_ms` is in session (due-time) order.
pub fn lag_growing(lags_ms: &[f64], slack_ms: f64) -> bool {
    let q = lags_ms.len() / 4;
    if q == 0 {
        return false;
    }
    let head = median(&lags_ms[..q]).unwrap_or(0.0);
    let tail = median(&lags_ms[lags_ms.len() - q..]).unwrap_or(0.0);
    tail > head + slack_ms
}

/// The shape of the open-ended rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ladder {
    /// First rate tried, requests per second.
    pub start: f64,
    /// Ratio between neighbouring rungs (> 1).
    pub factor: f64,
    /// Lowest rate tried when stepping down from a failing start.
    pub floor: f64,
    /// Highest rate tried when stepping up.
    pub ceiling: f64,
    /// Geometric bisections of the gap between the highest passing and
    /// the lowest failing rung.
    pub refine: usize,
}

/// What a ladder climb found.
#[derive(Debug, Clone, PartialEq)]
pub struct Climb {
    /// Highest passing rate, or `None` when even the floor failed.
    pub best: Option<f64>,
    /// Lowest failing rate, or `None` when even the ceiling passed.
    pub failed: Option<f64>,
    /// Every step run, in order.
    pub steps: Vec<StepOutcome>,
}

/// Climbs an open-ended rate ladder.
///
/// From `ladder.start` the rate grows by `factor` until a rate fails
/// (or passes the ceiling); a failing start instead steps down by
/// `factor` until a rate passes (or drops below the floor). The gap
/// between the highest passing and the lowest failing rate is then
/// bisected `refine` times on a geometric scale. A rate fails only
/// when two steps in a row at it miss the limits, so one host stall
/// cannot end the climb.
pub fn climb<F>(ladder: &Ladder, limits: &LadderLimits, mut step: F) -> Climb
where
    F: FnMut(f64) -> StepOutcome,
{
    let mut steps = Vec::new();
    let mut try_rate = |rate: f64, steps: &mut Vec<StepOutcome>| {
        for _ in 0..2 {
            let outcome = step(rate);
            steps.push(outcome);
            if outcome.passes(limits) {
                return true;
            }
        }
        false
    };
    let (mut best, mut failed) = (None, None);
    if try_rate(ladder.start, &mut steps) {
        best = Some(ladder.start);
        let mut rate = ladder.start * ladder.factor;
        while rate <= ladder.ceiling {
            if !try_rate(rate, &mut steps) {
                failed = Some(rate);
                break;
            }
            best = Some(rate);
            rate *= ladder.factor;
        }
    } else {
        failed = Some(ladder.start);
        let mut rate = ladder.start / ladder.factor;
        while rate >= ladder.floor {
            if try_rate(rate, &mut steps) {
                best = Some(rate);
                break;
            }
            failed = Some(rate);
            rate /= ladder.factor;
        }
    }
    if let (Some(mut lo), Some(mut hi)) = (best, failed) {
        for _ in 0..ladder.refine {
            let mid = (lo * hi).sqrt();
            if try_rate(mid, &mut steps) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        best = Some(lo);
        failed = Some(hi);
    }
    Climb {
        best,
        failed,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert!(supports(1_000, 99.0));
        assert!(!supports(999, 99.0));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn lag_growth_compares_first_and_last_quarter() {
        let flat = vec![1.0; 40];
        assert!(!lag_growing(&flat, 5.0));
        let growing: Vec<f64> = (0..40).map(|i| f64::from(i) * 2.0).collect();
        assert!(lag_growing(&growing, 5.0));
        assert!(!lag_growing(&[100.0, 0.0, 0.0], 5.0));
    }

    fn synthetic(capacity: f64) -> impl FnMut(f64) -> StepOutcome {
        // Latency stays flat below capacity and explodes past it.
        move |rate| StepOutcome {
            rate_rps: rate,
            p99_ms: if rate <= capacity { 4.0 } else { 400.0 },
            fail_frac: 0.0,
            lag_growing: rate > capacity,
        }
    }

    const LIMITS: LadderLimits = LadderLimits {
        p99_ms: 20.0,
        max_fail_frac: 0.01,
    };

    const LADDER: Ladder = Ladder {
        start: 100.0,
        factor: 2.0,
        floor: 10.0,
        ceiling: 10_000.0,
        refine: 3,
    };

    fn tried(climb: &Climb) -> Vec<f64> {
        climb.steps.iter().map(|s| s.rate_rps.round()).collect()
    }

    #[test]
    fn ladder_climbs_until_a_rate_fails_twice_then_bisects() {
        let c = climb(&LADDER, &LIMITS, synthetic(300.0));
        // 100, 200 pass; 400 fails twice; bisection: 283 passes, 336
        // and 308 fail twice each.
        assert_eq!(
            tried(&c),
            vec![100.0, 200.0, 400.0, 400.0, 283.0, 336.0, 336.0, 308.0, 308.0]
        );
        assert_eq!(c.best.map(f64::round), Some(283.0));
        assert_eq!(c.failed.map(f64::round), Some(308.0));
    }

    #[test]
    fn ladder_is_open_ended_upwards() {
        // A server far faster than the start is not capped at a rung.
        let c = climb(&LADDER, &LIMITS, synthetic(5_000.0));
        let best = c.best.unwrap();
        assert!((4_000.0..=5_000.0).contains(&best), "{best}");
        // Only the ceiling stops a server that never fails.
        let c = climb(&LADDER, &LIMITS, synthetic(1e12));
        assert_eq!(c.best, Some(6_400.0));
        assert_eq!(c.failed, None);
    }

    #[test]
    fn ladder_steps_down_from_a_failing_start() {
        // A regression below the start reports a lower rate, not none.
        let c = climb(&LADDER, &LIMITS, synthetic(30.0));
        // 100 and 50 fail twice, 25 passes; bisection: 35 fails twice,
        // 30 passes, 32 fails twice.
        assert_eq!(
            tried(&c),
            vec![100.0, 100.0, 50.0, 50.0, 25.0, 35.0, 35.0, 30.0, 32.0, 32.0]
        );
        let best = c.best.unwrap();
        assert!((25.0..=30.0).contains(&best), "{best}");
        // Only a server that fails even the floor gives none.
        let c = climb(&LADDER, &LIMITS, synthetic(5.0));
        assert_eq!(c.best, None);
        assert_eq!(c.failed, Some(12.5));
    }

    #[test]
    fn one_stalled_step_does_not_fail_a_rate() {
        let mut calls = 0;
        let ladder = Ladder {
            ceiling: 200.0,
            refine: 0,
            ..LADDER
        };
        let c = climb(&ladder, &LIMITS, |rate| {
            calls += 1;
            StepOutcome {
                rate_rps: rate,
                // The first step at 200 stalls; its repeat is clean.
                p99_ms: if calls == 2 { 90.0 } else { 4.0 },
                fail_frac: 0.0,
                lag_growing: false,
            }
        });
        assert_eq!(c.best, Some(200.0));
        assert_eq!(c.steps.len(), 3);
    }

    #[test]
    fn failures_and_lag_fail_a_step() {
        let ok = StepOutcome {
            rate_rps: 1.0,
            p99_ms: 1.0,
            fail_frac: 0.0,
            lag_growing: false,
        };
        assert!(ok.passes(&LIMITS));
        assert!(!StepOutcome {
            fail_frac: 0.02,
            ..ok
        }
        .passes(&LIMITS));
        assert!(!StepOutcome {
            lag_growing: true,
            ..ok
        }
        .passes(&LIMITS));
        assert!(!StepOutcome { p99_ms: 20.5, ..ok }.passes(&LIMITS));
        // Exactly at the limit passes.
        assert!(StepOutcome {
            p99_ms: 20.0,
            fail_frac: 0.01,
            ..ok
        }
        .passes(&LIMITS));
    }
}
