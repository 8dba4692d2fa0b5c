//! The probabilistic scheduler interface (Definition 4.1).
//!
//! A probabilistic scheduler produces, at every scheduling event, a
//! probability distribution over the set `A_t` of stages that are ready to
//! execute.  Decima does this by applying a masked softmax to learned
//! per-stage scores; PCAPS (in `pcaps-core`) samples a stage from the
//! distribution, takes its *relative importance* (Definition 4.2) and
//! applies its carbon-awareness filter on top.  The hot path asks for the
//! sample and its importance together
//! ([`ProbabilisticScheduler::sample_with_importance`]); the full
//! distribution ([`ProbabilisticScheduler::distribution_into`]) is the
//! reference form that tests and analyses read.

use pcaps_cluster::SchedulingContext;
use pcaps_dag::{JobId, StageId};
use serde::{Deserialize, Serialize};

/// One entry of the distribution over dispatchable stages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageProbability {
    /// The job the stage belongs to.
    pub job: JobId,
    /// The stage.
    pub stage: StageId,
    /// Probability mass assigned to the stage (the distribution over all
    /// entries sums to 1).
    pub probability: f64,
}

/// A scheduler that exposes a probability distribution over runnable stages
/// (Definition 4.1) plus a per-stage parallelism limit, the two signals PCAPS
/// consumes.
pub trait ProbabilisticScheduler {
    /// Human-readable policy name.
    fn name(&self) -> &str;

    /// Writes the distribution `{p_{v,t} : v ∈ A_t}` over all dispatchable
    /// stages into `out` (cleared first).  This is the hot-path form:
    /// wrappers own a reused buffer, so a steady-state scheduling event
    /// allocates nothing.
    ///
    /// Implementations must leave `out` empty only when there is no
    /// dispatchable work; otherwise probabilities must be positive and sum
    /// to 1 (within floating-point tolerance).
    fn distribution_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<StageProbability>);

    /// Allocating convenience form of
    /// [`ProbabilisticScheduler::distribution_into`].
    fn distribution(&mut self, ctx: &SchedulingContext<'_>) -> Vec<StageProbability> {
        let mut out = Vec::new();
        self.distribution_into(ctx, &mut out);
        out
    }

    /// The parallelism limit (number of executors) the policy would grant
    /// the given stage if it were scheduled now — the `P` that PCAPS rescales
    /// into `P′` (§5.1).
    ///
    /// Callers invoke this immediately after
    /// [`ProbabilisticScheduler::distribution_into`] within the same
    /// scheduling event, so implementations may answer from per-event state
    /// cached by the distribution pass (and must fall back to the context
    /// when no such state exists yet).
    fn parallelism_limit(&self, ctx: &SchedulingContext<'_>, job: JobId, stage: StageId) -> usize;

    /// Samples one stage from the distribution and returns it with its
    /// relative importance (Definition 4.2) — PCAPS Algorithm 1 lines 5–6
    /// in one pass, without materialising the distribution.
    ///
    /// `draw` yields the uniform `r ∈ [0, 1)`; it is called exactly once,
    /// and only when there is dispatchable work (`None` otherwise), so the
    /// caller's RNG stream does not depend on how the policy stores its
    /// distribution.  The result must equal, bit for bit, the reference
    /// path: [`ProbabilisticScheduler::distribution_into`], then the CDF
    /// walk (the first entry whose running sum of probabilities reaches
    /// `r`, or the last entry if rounding leaves the total short of `r`),
    /// then `p / max p` clamped to `[0, 1]` (`1.0` if `max p ≤ 0`).
    /// `tests/scheduler_state.rs` pins that equivalence.
    ///
    /// Like [`ProbabilisticScheduler::distribution_into`], a call may be
    /// followed by [`ProbabilisticScheduler::parallelism_limit`] within the
    /// same scheduling event.
    fn sample_with_importance(
        &mut self,
        ctx: &SchedulingContext<'_>,
        draw: &mut dyn FnMut() -> f64,
    ) -> Option<SampledStage>;
}

/// A stage drawn by [`ProbabilisticScheduler::sample_with_importance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledStage {
    /// The job the stage belongs to.
    pub job: JobId,
    /// The sampled stage.
    pub stage: StageId,
    /// Its relative importance `p_{v,t} / max_u p_{u,t}` ∈ [0, 1].
    pub importance: f64,
}

/// Normalises a list of non-negative scores into a probability distribution
/// using a softmax with the given temperature.  Returns an empty vector for
/// empty input.  This is the reference form of the softmax [`DecimaLike`]
/// maintains incrementally: same operations in the same order (max fold,
/// `exp((s − max)/T)`, one in-order sum, one division per entry).
///
/// [`DecimaLike`]: crate::DecimaLike
pub fn softmax(scores: &[f64], temperature: f64) -> Vec<f64> {
    assert!(temperature > 0.0, "softmax temperature must be positive");
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut out: Vec<f64> = scores.iter().map(|s| ((s - max) / temperature).exp()).collect();
    let sum: f64 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum;
    }
    out
}

/// Checks that a distribution is valid: non-empty probabilities that are
/// positive and sum to ~1.  Useful in tests and debug assertions.
pub fn is_valid_distribution(dist: &[StageProbability]) -> bool {
    if dist.is_empty() {
        return false;
    }
    let sum: f64 = dist.iter().map(|d| d.probability).sum();
    dist.iter().all(|d| d.probability > 0.0 && d.probability <= 1.0 + 1e-9)
        && (sum - 1.0).abs() < 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0], 1.0);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_temperature_flattens() {
        let sharp = softmax(&[1.0, 5.0], 0.5);
        let flat = softmax(&[1.0, 5.0], 10.0);
        assert!(sharp[1] > flat[1]);
        assert!(flat[1] > 0.5);
    }

    #[test]
    fn softmax_of_empty_is_empty() {
        assert!(softmax(&[], 1.0).is_empty());
    }

    #[test]
    fn softmax_handles_large_scores() {
        let p = softmax(&[1000.0, 1001.0], 1.0);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn softmax_rejects_zero_temperature() {
        let _ = softmax(&[1.0], 0.0);
    }

    #[test]
    fn distribution_validation() {
        let good = vec![
            StageProbability { job: JobId(0), stage: StageId(0), probability: 0.25 },
            StageProbability { job: JobId(0), stage: StageId(1), probability: 0.75 },
        ];
        assert!(is_valid_distribution(&good));
        let bad_sum = vec![StageProbability {
            job: JobId(0),
            stage: StageId(0),
            probability: 0.5,
        }];
        assert!(!is_valid_distribution(&bad_sum));
        assert!(!is_valid_distribution(&[]));
    }
}
