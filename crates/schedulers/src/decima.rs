//! A Decima-like probabilistic scheduler.
//!
//! The paper's ML baseline is Decima [48], a GNN + reinforcement-learning
//! scheduler trained for 20 000 epochs.  Training a GNN is outside the scope
//! of this reproduction, but PCAPS does not need the GNN — it needs the
//! *interface* Decima exposes (a probability distribution over runnable
//! stages, Definition 4.1) and the *qualitative behaviour* Decima learns:
//!
//! * favour stages of jobs with little remaining work (shortest-remaining-
//!   processing-time-like behaviour, which is what drives Decima's JCT
//!   gains),
//! * favour stages on a job's critical path (bottleneck stages),
//! * bound each job's parallelism to roughly its fair share instead of
//!   flooding the cluster.
//!
//! `DecimaLike` computes those features directly from the DAG and turns them
//! into scores and a softmax distribution, which it both samples from (when
//! used as a standalone [`Scheduler`]) and exposes via
//! [`ProbabilisticScheduler`] (when wrapped by PCAPS).  DESIGN.md §1 records
//! this substitution.

use crate::probabilistic::{ProbabilisticScheduler, SampledStage, StageProbability};
use pcaps_cluster::{DecisionSink, JobView, SchedEvent, Scheduler, SchedulingContext};
use pcaps_dag::{JobId, StageId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Feature weights for the Decima-like scoring function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecimaWeights {
    /// Weight of the shortest-remaining-work feature.
    pub short_job: f64,
    /// Weight of the critical-path (bottleneck) feature.
    pub bottleneck: f64,
    /// Weight of the stage-progress feature (stages of jobs that are almost
    /// done get a boost, freeing their executors sooner).
    pub completion: f64,
    /// Softmax temperature: lower values make the policy more deterministic.
    pub temperature: f64,
}

impl Default for DecimaWeights {
    fn default() -> Self {
        DecimaWeights {
            short_job: 2.0,
            bottleneck: 1.5,
            completion: 0.5,
            temperature: 1.0,
        }
    }
}

/// One job's cached state, revalidated per event by the
/// [`JobProgress::version`] stamp: equal id + equal version means the job's
/// observable progress (dispatchable set included) has not changed since
/// the entry was computed.
///
/// The entry owns a block of `num_stages` slots in [`DecimaLike`]'s arena
/// holding the job's dispatchable stages, their scores and their softmax
/// `exp` terms.  The block is reused in two layers:
///
/// * its scores are recomputed only when the version changes or the
///   event's max-remaining normaliser (which the shortest-remaining-work
///   feature divides by) changes its bits;
/// * its `exp((s − max)/T)` terms are recomputed only when the scores were
///   or the global max score changes its bits.
///
/// Every clean block shares those two keys, so they are held once, in
/// [`DecimaLike`].  A recomputed block is produced by the same float operations as a
/// from-scratch pass, so reused and recomputed blocks are
/// bit-indistinguishable.
///
/// [`JobProgress::version`]: pcaps_dag::JobProgress::version
#[derive(Debug, Clone, Copy)]
struct JobEntry {
    id: JobId,
    version: u64,
    /// Undispatched work (executor-seconds) — `JobView::remaining_work()`.
    remaining: f64,
    /// Completed stages over total stages.
    completion: f64,
    /// First arena slot of the job's block.
    offset: usize,
    /// Block size: the job's stage count (the most stages it can have
    /// dispatchable at once).
    cap: usize,
    /// Dispatchable stages currently in the block.
    len: usize,
    /// Largest score in the block (`-∞` when empty).
    max_score: f64,
    /// Largest `exp` term in the block.
    max_exp: f64,
    /// The scores were recomputed since the `exp` terms were.
    exps_stale: bool,
}

/// One dispatchable stage's slot in a job's block.
#[derive(Debug, Clone, Copy)]
struct PairSlot {
    stage: StageId,
    score: f64,
    exp: f64,
}

const EMPTY_SLOT: PairSlot = PairSlot { stage: StageId(0), score: 0.0, exp: 0.0 };

/// The Decima-like scheduler.
///
/// Holds a persistent per-job table whose entries own blocks of a reused
/// slot arena (see [`JobEntry`]), so a steady-state scheduling event costs
/// O(active jobs) pointer work, one in-order sum over the dispatchable
/// stages' `exp` terms, and feature/`exp` recomputation only for the
/// blocks whose inputs changed — and performs no heap allocation.
/// Correctness never depends on the lossy-advisory `SchedEvent` stream: the
/// table is reconciled against the authoritative `ctx.jobs()` iteration
/// (arrival order) on every event, which absorbs arrivals, completions,
/// serve-mode compaction's front retirement and slot-base shifts, and
/// migration detach/reattach uniformly.
#[derive(Debug, Clone)]
pub struct DecimaLike {
    weights: DecimaWeights,
    rng: ChaCha8Rng,
    /// Cached per-job entries, aligned with the previous event's
    /// `ctx.jobs()` order.
    table: Vec<JobEntry>,
    /// Scratch for the table rebuild (swapped with `table` each event).
    scratch: Vec<JobEntry>,
    /// Block storage of every entry in `table`, plus dead blocks of
    /// departed jobs until the next compaction.
    slots: Vec<PairSlot>,
    /// Scratch for arena compaction (swapped with `slots`).
    scratch_slots: Vec<PairSlot>,
    /// Arena slots held by departed jobs' blocks.
    dead_slots: usize,
    /// Table indices of the entries to rescore this event: new jobs and
    /// jobs whose version changed.
    dirty: Vec<usize>,
    /// Bits of the normaliser every clean block was scored with.
    normaliser_bits: u64,
    /// Bits of the global max score every fresh `exp` term was computed
    /// with.
    max_score_bits: u64,
    /// Softmax normaliser: the in-order sum of every `exp` term.
    exp_sum: f64,
    /// Largest `exp` term (for relative importance).
    max_exp: f64,
    /// Jobs with non-empty dispatchable sets, counted during the
    /// distribution pass so the follow-up `parallelism_limit` call (same event, same
    /// context — see the trait contract) does not rescan.  `None` until
    /// the first distribution pass.
    jobs_with_work: Option<usize>,
}

impl DecimaLike {
    /// Creates the scheduler with default weights and the given sampling
    /// seed.
    pub fn new(seed: u64) -> Self {
        DecimaLike::with_weights(seed, DecimaWeights::default())
    }

    /// Creates the scheduler with custom feature weights.
    ///
    /// # Panics
    /// Panics if a weight is not finite or the temperature is not positive.
    /// Finite weights keep the scores finite, which the incremental
    /// softmax relies on: `max` is order-free and the largest probability
    /// is exactly `max exp / sum` only for finite values.
    pub fn with_weights(seed: u64, weights: DecimaWeights) -> Self {
        assert!(weights.temperature > 0.0, "softmax temperature must be positive");
        assert!(
            [weights.short_job, weights.bottleneck, weights.completion, weights.temperature]
                .iter()
                .all(|w| w.is_finite()),
            "Decima feature weights must be finite"
        );
        DecimaLike {
            weights,
            rng: ChaCha8Rng::seed_from_u64(seed),
            table: Vec::new(),
            scratch: Vec::new(),
            slots: Vec::new(),
            scratch_slots: Vec::new(),
            dead_slots: 0,
            dirty: Vec::new(),
            // NaN patterns: no real normaliser or max score has these bits.
            normaliser_bits: u64::MAX,
            max_score_bits: u64::MAX,
            exp_sum: 0.0,
            max_exp: 0.0,
            jobs_with_work: None,
        }
    }

    /// Reconciles the table with the current context and returns the
    /// event's max-remaining normaliser.
    ///
    /// Both the cached table and `ctx.jobs()` list jobs in arrival order,
    /// and every membership change preserves the relative order of
    /// survivors (completions and migration departures remove in place,
    /// compaction retires off the front, arrivals and migrant reattachments
    /// append) — so one ordered sweep relocates every surviving entry.  A
    /// cached id missing from the context (O(1) slot probe) was removed and
    /// its block becomes dead; a context id missing from the cache gets a
    /// fresh block at the arena's end; a cached id with a different
    /// [`JobProgress::version`] keeps its block but recomputes its feature
    /// components.  Both kinds are listed in `dirty` for rescoring.  Per
    /// event this is O(jobs) pointer work + O(changed jobs × their stages)
    /// feature recomputation.  The arena is compacted once dead slots
    /// outnumber live ones.
    ///
    /// The max-remaining fold rides along in the same sweep (`f64::max`
    /// over the same values in the same order as a from-scratch scan, hence
    /// bit-identical).
    ///
    /// [`JobProgress::version`]: pcaps_dag::JobProgress::version
    fn refresh_table(&mut self, ctx: &SchedulingContext<'_>) -> f64 {
        self.scratch.clear();
        self.dirty.clear();
        let mut max_remaining = 0.0_f64;
        let mut live_slots = 0usize;
        let mut cursor = 0usize;
        for job in ctx.jobs() {
            let version = job.progress.version();
            let mut cached = None;
            while cursor < self.table.len() {
                let entry = self.table[cursor];
                if entry.id == job.id {
                    cursor += 1;
                    cached = Some(entry);
                    break;
                }
                // Order mismatch: either the cached job left this member
                // (its block dies) or `job` was inserted ahead of it (a
                // reattached migrant — stop and give it a fresh block).
                // The slot table answers membership in O(1).
                if ctx.job(entry.id).is_some() {
                    break;
                }
                self.dead_slots += entry.cap;
                cursor += 1;
            }
            let entry = match cached {
                Some(entry) if entry.version == version => entry,
                stale => {
                    self.dirty.push(self.scratch.len());
                    let (offset, cap) = stale.map_or_else(
                        || {
                            let cap = job.dag.num_stages();
                            let offset = self.slots.len();
                            self.slots.resize(offset + cap, EMPTY_SLOT);
                            (offset, cap)
                        },
                        |e| (e.offset, e.cap),
                    );
                    JobEntry {
                        id: job.id,
                        version,
                        remaining: job.remaining_work(),
                        completion: job.progress.frontier().num_completed() as f64
                            / job.dag.num_stages() as f64,
                        offset,
                        cap,
                        len: 0,
                        max_score: f64::NEG_INFINITY,
                        max_exp: 0.0,
                        exps_stale: true,
                    }
                }
            };
            max_remaining = f64::max(max_remaining, entry.remaining);
            live_slots += entry.cap;
            self.scratch.push(entry);
        }
        // Cached jobs past the last match left this member.
        self.dead_slots += self.table[cursor..].iter().map(|e| e.cap).sum::<usize>();
        std::mem::swap(&mut self.table, &mut self.scratch);
        if self.dead_slots > live_slots {
            self.compact_slots();
        }
        max_remaining.max(1e-9)
    }

    /// Copies every live block, in table order, into the scratch arena and
    /// swaps it in.
    fn compact_slots(&mut self) {
        self.scratch_slots.clear();
        for entry in &mut self.table {
            let offset = self.scratch_slots.len();
            self.scratch_slots
                .extend_from_slice(&self.slots[entry.offset..entry.offset + entry.cap]);
            entry.offset = offset;
        }
        std::mem::swap(&mut self.slots, &mut self.scratch_slots);
        self.dead_slots = 0;
    }

    /// Brings the distribution up to date: table reconciliation (which
    /// also yields the normaliser and the dirty list), rescoring of the
    /// dirty blocks — or of every block if the normaliser's bits changed —
    /// a fold of the global max score over the block maxima (`f64::max` is
    /// order-free on finite values), then an `exp` pass that refreshes
    /// only stale blocks and sums every term in one in-order pass, as the
    /// reference softmax does.  The probabilities `exp / exp_sum` are
    /// therefore bit-identical to a from-scratch rebuild; they are divided
    /// out only where read.
    fn compute(&mut self, ctx: &SchedulingContext<'_>) {
        let max_remaining = self.refresh_table(ctx);
        let DecimaLike { weights, table, slots, dirty, .. } = self;

        if max_remaining.to_bits() != self.normaliser_bits {
            self.normaliser_bits = max_remaining.to_bits();
            dirty.clear();
            dirty.extend(0..table.len());
        }
        for &i in dirty.iter() {
            rescore(weights, &mut table[i], ctx.job_at(i), slots, max_remaining);
        }
        let mut max_score = f64::NEG_INFINITY;
        let mut jobs_with_work = 0usize;
        for entry in table.iter() {
            max_score = f64::max(max_score, entry.max_score);
            jobs_with_work += usize::from(entry.len > 0);
        }

        let max_changed = max_score.to_bits() != self.max_score_bits;
        self.max_score_bits = max_score.to_bits();
        let temperature = weights.temperature;
        let mut sum = 0.0_f64;
        let mut max_exp = 0.0_f64;
        for entry in table.iter_mut().filter(|e| e.len > 0) {
            let block = &mut slots[entry.offset..entry.offset + entry.len];
            if entry.exps_stale || max_changed {
                let mut block_max = 0.0_f64;
                for slot in block.iter_mut() {
                    slot.exp = ((slot.score - max_score) / temperature).exp();
                    block_max = f64::max(block_max, slot.exp);
                }
                entry.max_exp = block_max;
                entry.exps_stale = false;
            }
            for slot in block.iter() {
                sum += slot.exp;
            }
            max_exp = f64::max(max_exp, entry.max_exp);
        }
        self.exp_sum = sum;
        self.max_exp = max_exp;
        self.jobs_with_work = Some(jobs_with_work);
    }

    /// Every dispatchable pair with its `exp` term, in distribution order.
    fn pairs(&self) -> impl Iterator<Item = (JobId, &PairSlot)> + '_ {
        self.table.iter().flat_map(|entry| {
            self.slots[entry.offset..entry.offset + entry.len]
                .iter()
                .map(move |slot| (entry.id, slot))
        })
    }

    /// Walks the CDF of the current distribution and returns the first pair
    /// whose cumulative probability reaches `r` (the last pair if rounding
    /// leaves the total short of `r`), with its probability.  Only the
    /// walked prefix is divided by the normaliser; the running sum adds the
    /// same probabilities in the same order as the reference walk over
    /// [`ProbabilisticScheduler::distribution_into`].  Requires
    /// dispatchable work.
    fn sample_pair(&self, r: f64) -> (JobId, StageId, f64) {
        let mut acc = 0.0;
        let mut last = None;
        for (job, slot) in self.pairs() {
            let p = slot.exp / self.exp_sum;
            acc += p;
            if r <= acc {
                return (job, slot.stage, p);
            }
            last = Some((job, slot.stage, p));
        }
        last.expect("sample_pair requires dispatchable work")
    }

    /// Decima-style parallelism limit: the job's fair share of the cluster
    /// (executors divided by active jobs with work), but never more than the
    /// stage's pending tasks and never less than one.  Answers the
    /// jobs-with-work count from the distribution pass of the same event
    /// (the trait contract); the from-scratch scan only runs if no
    /// distribution has ever been computed.
    fn limit_for(&self, ctx: &SchedulingContext<'_>, job: JobId, stage: StageId) -> usize {
        let jobs_with_work = self
            .jobs_with_work
            .unwrap_or_else(|| {
                ctx.jobs()
                    .filter(|j| !j.dispatchable_stages().is_empty())
                    .count()
            })
            .max(1);
        let fair_share = ctx.total_executors.div_ceil(jobs_with_work);
        let pending = ctx
            .job(job)
            .map(|j| j.progress.pending_tasks(stage))
            .unwrap_or(0);
        fair_share.min(pending).max(1)
    }
}

/// Recomputes one job's block: its dispatchable stages and their scores
/// under the given normaliser, with the exact float operations (and order)
/// of a from-scratch pass.
fn rescore(
    weights: &DecimaWeights,
    entry: &mut JobEntry,
    job: JobView<'_>,
    slots: &mut [PairSlot],
    max_remaining: f64,
) {
    let dispatchable = job.dispatchable_stages();
    // Feature 1: jobs with little remaining work score high.
    let short_job_feature = 1.0 - (entry.remaining / max_remaining);
    // Per-stage features from the DAG structure — cached on the (shared)
    // DAG, so the graph analysis runs once per job instead of once per
    // scheduling event.
    let bottleneck = job.dag.bottleneck_scores();
    let block = &mut slots[entry.offset..entry.offset + dispatchable.len()];
    let mut block_max = f64::NEG_INFINITY;
    for (slot, &stage) in block.iter_mut().zip(dispatchable) {
        let score = weights.short_job * short_job_feature
            + weights.bottleneck * bottleneck[stage.index()]
            + weights.completion * entry.completion;
        slot.stage = stage;
        slot.score = score;
        block_max = f64::max(block_max, score);
    }
    entry.len = dispatchable.len();
    entry.max_score = block_max;
    entry.exps_stale = true;
}

impl ProbabilisticScheduler for DecimaLike {
    fn name(&self) -> &str {
        "decima"
    }

    fn distribution_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<StageProbability>) {
        self.compute(ctx);
        out.clear();
        out.extend(self.pairs().map(|(job, slot)| StageProbability {
            job,
            stage: slot.stage,
            probability: slot.exp / self.exp_sum,
        }));
    }

    fn parallelism_limit(&self, ctx: &SchedulingContext<'_>, job: JobId, stage: StageId) -> usize {
        self.limit_for(ctx, job, stage)
    }

    fn sample_with_importance(
        &mut self,
        ctx: &SchedulingContext<'_>,
        draw: &mut dyn FnMut() -> f64,
    ) -> Option<SampledStage> {
        self.compute(ctx);
        if self.jobs_with_work == Some(0) {
            return None;
        }
        let (job, stage, p) = self.sample_pair(draw());
        // Division by the positive sum is monotone, so the largest
        // probability is exactly `max_exp / exp_sum` — the value the
        // reference fold over the materialised distribution finds.
        let max_p = self.max_exp / self.exp_sum;
        let importance = if max_p <= 0.0 { 1.0 } else { (p / max_p).clamp(0.0, 1.0) };
        Some(SampledStage { job, stage, importance })
    }
}

impl Scheduler for DecimaLike {
    fn name(&self) -> &str {
        "decima"
    }

    fn on_event(
        &mut self,
        _event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        self.compute(ctx);
        if self.jobs_with_work == Some(0) {
            return;
        }
        // `r` is drawn only once work is known to exist, preserving the RNG
        // stream of the historical inline sampler.
        let r: f64 = self.rng.gen_range(0.0..1.0);
        let (job, stage, _) = self.sample_pair(r);
        let limit = self.limit_for(ctx, job, stage);
        out.dispatch(job, stage, limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::SparkStandaloneFifo;
    use crate::probabilistic::is_valid_distribution;
    use pcaps_carbon::CarbonTrace;
    use pcaps_cluster::{ClusterConfig, Simulator, SubmittedJob};
    use pcaps_dag::{JobDagBuilder, Task};
    use pcaps_workloads::{WorkloadBuilder, WorkloadKind};

    fn tpch_sim(seed: u64, jobs: usize, executors: usize, interarrival: f64) -> Simulator {
        let workload = WorkloadBuilder::new(WorkloadKind::TpchMixed, seed)
            .jobs(jobs)
            .mean_interarrival(interarrival)
            .build()
            .into_iter()
            .map(|j| SubmittedJob::at(j.arrival, j.dag))
            .collect();
        let config = ClusterConfig::new(executors).with_time_scale(60.0);
        Simulator::new(config, workload, CarbonTrace::constant("flat", 300.0, 26_304))
    }

    #[test]
    fn produces_valid_distribution() {
        // Build a context through the simulator by wrapping a probe
        // scheduler that checks the distribution at every event.
        struct Probe {
            inner: DecimaLike,
            checked: usize,
        }
        impl Scheduler for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn on_event(
                &mut self,
                event: SchedEvent<'_>,
                ctx: &SchedulingContext<'_>,
                out: &mut DecisionSink,
            ) {
                let dist = self.inner.distribution(ctx);
                assert!(is_valid_distribution(&dist), "invalid distribution: {dist:?}");
                self.checked += 1;
                Scheduler::on_event(&mut self.inner, event, ctx, out)
            }
        }
        let mut probe = Probe { inner: DecimaLike::new(1), checked: 0 };
        let result = tpch_sim(3, 10, 20, 30.0).run(&mut probe).unwrap();
        assert!(result.all_jobs_complete());
        assert!(probe.checked > 10);
    }

    #[test]
    fn improves_average_jct_over_standalone_fifo() {
        // One huge job followed by a stream of small jobs on a small cluster:
        // FIFO lets the huge job monopolise the executors, so the small jobs
        // queue behind it; the Decima-like policy favours the jobs with
        // little remaining work and cuts the average JCT substantially.
        let huge = JobDagBuilder::new("huge")
            .stage("wide", vec![Task::new(50.0); 64])
            .build()
            .unwrap();
        let small = |i: usize| {
            JobDagBuilder::new(format!("small{i}"))
                .stage("s", vec![Task::new(5.0); 2])
                .build()
                .unwrap()
        };
        let mut workload = vec![SubmittedJob::at(0.0, huge)];
        for i in 0..10 {
            workload.push(SubmittedJob::at(1.0 + i as f64, small(i)));
        }
        let make_sim = || {
            let config = ClusterConfig::new(8).with_move_delay(0.1).with_time_scale(1.0);
            Simulator::new(
                config,
                workload.clone(),
                CarbonTrace::constant("flat", 300.0, 26_304),
            )
        };
        let decima = make_sim().run(&mut DecimaLike::new(0)).unwrap();
        let fifo = make_sim().run(&mut SparkStandaloneFifo::new()).unwrap();
        assert!(decima.all_jobs_complete());
        assert!(
            decima.average_jct() < fifo.average_jct(),
            "Decima-like JCT {:.1} should beat FIFO {:.1}",
            decima.average_jct(),
            fifo.average_jct()
        );
    }

    #[test]
    fn bottleneck_stages_get_more_mass() {
        // A job where stage 1 is a heavy critical-path stage and stage 2 is
        // a tiny side stage: once both are runnable, the distribution should
        // put more mass on the bottleneck.
        let job = JobDagBuilder::new("j")
            .stage("root", vec![Task::new(1.0)])
            .stage("bottleneck", vec![Task::new(100.0); 4])
            .stage("side", vec![Task::new(1.0)])
            .stage("sink", vec![Task::new(50.0)])
            .edge_by_name("root", "bottleneck")
            .unwrap()
            .edge_by_name("root", "side")
            .unwrap()
            .edge_by_name("bottleneck", "sink")
            .unwrap()
            .edge_by_name("side", "sink")
            .unwrap()
            .build()
            .unwrap();

        struct Capture {
            inner: DecimaLike,
            snapshot: Option<Vec<StageProbability>>,
        }
        impl Scheduler for Capture {
            fn name(&self) -> &str {
                "capture"
            }
            fn on_event(
                &mut self,
                event: SchedEvent<'_>,
                ctx: &SchedulingContext<'_>,
                out: &mut DecisionSink,
            ) {
                let dist = self.inner.distribution(ctx);
                if dist.len() == 2 && self.snapshot.is_none() {
                    self.snapshot = Some(dist.clone());
                }
                Scheduler::on_event(&mut self.inner, event, ctx, out)
            }
        }
        let mut cap = Capture { inner: DecimaLike::new(5), snapshot: None };
        let config = ClusterConfig::new(4).with_move_delay(0.0).with_time_scale(1.0);
        let sim = Simulator::new(
            config,
            vec![SubmittedJob::at(0.0, job)],
            CarbonTrace::constant("flat", 300.0, 1000),
        );
        sim.run(&mut cap).unwrap();
        let dist = cap.snapshot.expect("both stages were runnable at some point");
        let p = |stage: u32| {
            dist.iter()
                .find(|d| d.stage == StageId(stage))
                .map(|d| d.probability)
                .unwrap_or(0.0)
        };
        assert!(
            p(1) > p(2),
            "bottleneck stage should get more probability mass ({} vs {})",
            p(1),
            p(2)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tpch_sim(2, 10, 16, 30.0).run(&mut DecimaLike::new(11)).unwrap();
        let b = tpch_sim(2, 10, 16, 30.0).run(&mut DecimaLike::new(11)).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.average_jct(), b.average_jct());
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn rejects_bad_temperature() {
        let _ = DecimaLike::with_weights(
            0,
            DecimaWeights { temperature: 0.0, ..DecimaWeights::default() },
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite_weights() {
        let _ = DecimaLike::with_weights(
            0,
            DecimaWeights { bottleneck: f64::NAN, ..DecimaWeights::default() },
        );
    }
}
