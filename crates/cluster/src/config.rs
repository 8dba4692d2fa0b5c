//! Cluster configuration.

use serde::{Deserialize, Serialize};

/// The default [`ClusterConfig::max_sim_time`]: a ceiling so far out it is
/// effectively "no time limit" for finite trials.  Layers that need a *real*
/// horizon (Poisson fault plans, open-loop serving runs) treat a federation
/// horizon at or beyond this sentinel as unset and demand an explicit one.
pub const NO_TIME_LIMIT: f64 = 1.0e9;

/// How much of the run's activity the engine records in its
/// [`UsageProfile`].
///
/// [`Full`](ProfileMode::Full) recording grows with the number of *tasks*
/// (one executor segment per task, one usage sample per dispatch/finish
/// instant), which is exactly what a trace-scale streaming run must not
/// accumulate: a 100k-job Alibaba workload dispatches millions of tasks.
/// [`Light`](ProfileMode::Light) keeps only the jobs-in-system step
/// function — O(arrivals + completions) samples, enough for the
/// peak-resident-jobs accounting of the scale experiments — and skips the
/// usage/segment series (so carbon accounting, which integrates the usage
/// profile, is unavailable).
///
/// [`UsageProfile`]: crate::profile::UsageProfile
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProfileMode {
    /// Record everything: usage step function, per-task executor segments,
    /// jobs-in-system (the default; required for carbon accounting and the
    /// usage figures).
    Full,
    /// Record only the jobs-in-system series; memory stays
    /// O(active + completed jobs), never O(tasks).
    Light,
}

/// Static configuration of the simulated cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Total number of executors (the paper's `K`).
    pub num_executors: usize,
    /// Maximum executors that may simultaneously work for a single job.
    ///
    /// `None` models Spark standalone FIFO behaviour (a stage may take as
    /// many executors as it has tasks); `Some(25)` models the paper's
    /// Spark-on-Kubernetes prototype, which caps each application at 25
    /// executors to avoid a dynamic-allocation hang (§6.3, Appendix A.1.2).
    pub per_job_executor_cap: Option<usize>,
    /// Delay (seconds, schedule time) incurred when an executor starts a task
    /// for a *different* job than the one it last served — models executor
    /// movement / data-locality warm-up, a first-order effect of the Mao et
    /// al. simulator.
    pub executor_move_delay: f64,
    /// Carbon-trace seconds that elapse per schedule second.
    ///
    /// The paper runs experiments where 1 minute of real (schedule) time
    /// corresponds to 1 hour of carbon time, i.e. a scale of 60.  A scale of
    /// 1.0 means schedule time and carbon time coincide.
    pub time_scale: f64,
    /// Lookahead horizon (carbon-trace seconds) used to compute the bounds
    /// `L` and `U` exposed to schedulers.  Defaults to 48 hours.
    pub forecast_horizon: f64,
    /// Hard ceiling on simulated schedule time; exceeded only if a scheduler
    /// defers work forever, in which case the run errors out rather than
    /// looping.
    pub max_sim_time: f64,
    /// Whether the engine records a wall-clock [`InvocationSample`] for every
    /// scheduler invocation (one `Instant::now` syscall pair plus a heap push
    /// per scheduling event).  Off by default so throughput-oriented runs pay
    /// nothing; the latency experiments (Fig. 20) and the
    /// `scheduler_latency` bench switch it on.
    ///
    /// [`InvocationSample`]: crate::result::InvocationSample
    pub sample_invocation_latency: bool,
    /// Profile recording granularity (default [`ProfileMode::Full`]);
    /// trace-scale streaming runs use [`ProfileMode::Light`] so recorded
    /// state never grows with the task count.
    pub profile_mode: ProfileMode,
}

impl ClusterConfig {
    /// A cluster of `num_executors` executors with paper-default parameters:
    /// no per-job cap, a small executor-move delay, time scale 60 (1 schedule
    /// minute = 1 carbon hour) and a 48-hour forecast.
    pub fn new(num_executors: usize) -> Self {
        assert!(num_executors > 0, "cluster must have at least one executor");
        ClusterConfig {
            num_executors,
            per_job_executor_cap: None,
            executor_move_delay: 0.5,
            time_scale: 60.0,
            forecast_horizon: 48.0 * 3600.0,
            max_sim_time: NO_TIME_LIMIT,
            sample_invocation_latency: false,
            profile_mode: ProfileMode::Full,
        }
    }

    /// The paper's simulator configuration: 100 executors, Spark standalone
    /// FIFO semantics (no per-job cap).
    pub fn paper_simulator() -> Self {
        ClusterConfig::new(100)
    }

    /// The paper's prototype configuration: 100 executors with a 25-executor
    /// per-job cap (Spark-on-Kubernetes default behaviour).
    pub fn paper_prototype() -> Self {
        ClusterConfig::new(100).with_per_job_cap(Some(25))
    }

    /// Sets the per-job executor cap.
    pub fn with_per_job_cap(mut self, cap: Option<usize>) -> Self {
        if let Some(c) = cap {
            assert!(c > 0, "per-job executor cap must be positive");
        }
        self.per_job_executor_cap = cap;
        self
    }

    /// Sets the executor movement delay (seconds).
    pub fn with_move_delay(mut self, delay: f64) -> Self {
        assert!(delay >= 0.0 && delay.is_finite(), "move delay must be non-negative");
        self.executor_move_delay = delay;
        self
    }

    /// Sets the carbon time scale (carbon seconds per schedule second).
    pub fn with_time_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "time scale must be positive");
        self.time_scale = scale;
        self
    }

    /// Sets the forecast lookahead horizon (carbon-trace seconds).
    pub fn with_forecast_horizon(mut self, horizon: f64) -> Self {
        assert!(horizon > 0.0 && horizon.is_finite(), "horizon must be positive");
        self.forecast_horizon = horizon;
        self
    }

    /// Sets the maximum simulated schedule time.
    pub fn with_max_sim_time(mut self, max: f64) -> Self {
        assert!(max > 0.0, "max sim time must be positive");
        self.max_sim_time = max;
        self
    }

    /// Enables or disables per-invocation latency sampling (off by default).
    pub fn with_invocation_sampling(mut self, enabled: bool) -> Self {
        self.sample_invocation_latency = enabled;
        self
    }

    /// Sets the profile recording granularity (default
    /// [`ProfileMode::Full`]).
    pub fn with_profile_mode(mut self, mode: ProfileMode) -> Self {
        self.profile_mode = mode;
        self
    }

    /// Checks the fields against exactly the conditions the constructor and
    /// builder methods assert, for configs whose public fields were set
    /// directly.  Returns the first violation: the field, its value and the
    /// builder's message.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let positive_finite = |v: f64| v > 0.0 && v.is_finite();
        if self.num_executors == 0 {
            return Err("num_executors = 0: cluster must have at least one executor".into());
        }
        if self.per_job_executor_cap == Some(0) {
            let reason = "per_job_executor_cap = Some(0): per-job executor cap must be positive";
            return Err(reason.into());
        }
        let delay = self.executor_move_delay;
        if !(delay >= 0.0 && delay.is_finite()) {
            return Err(format!("executor_move_delay = {delay}: move delay must be non-negative"));
        }
        if !positive_finite(self.time_scale) {
            return Err(format!("time_scale = {}: time scale must be positive", self.time_scale));
        }
        if !positive_finite(self.forecast_horizon) {
            let horizon = self.forecast_horizon;
            return Err(format!("forecast_horizon = {horizon}: horizon must be positive"));
        }
        if !(self.max_sim_time > 0.0) {
            let max = self.max_sim_time;
            return Err(format!("max_sim_time = {max}: max sim time must be positive"));
        }
        Ok(())
    }

    /// Effective cap on executors for one job.
    pub fn job_cap(&self) -> usize {
        self.per_job_executor_cap.unwrap_or(self.num_executors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ClusterConfig::new(10);
        assert_eq!(c.num_executors, 10);
        assert_eq!(c.per_job_executor_cap, None);
        assert_eq!(c.job_cap(), 10);
        assert_eq!(c.time_scale, 60.0);
    }

    #[test]
    fn paper_configs() {
        let sim = ClusterConfig::paper_simulator();
        assert_eq!(sim.num_executors, 100);
        assert_eq!(sim.per_job_executor_cap, None);
        let proto = ClusterConfig::paper_prototype();
        assert_eq!(proto.per_job_executor_cap, Some(25));
        assert_eq!(proto.job_cap(), 25);
    }

    #[test]
    fn builder_setters() {
        let c = ClusterConfig::new(5)
            .with_per_job_cap(Some(2))
            .with_move_delay(1.5)
            .with_time_scale(1.0)
            .with_forecast_horizon(3600.0)
            .with_max_sim_time(100.0);
        assert_eq!(c.job_cap(), 2);
        assert_eq!(c.executor_move_delay, 1.5);
        assert_eq!(c.time_scale, 1.0);
        assert_eq!(c.forecast_horizon, 3600.0);
        assert_eq!(c.max_sim_time, 100.0);
    }

    #[test]
    #[should_panic(expected = "at least one executor")]
    fn zero_executors_rejected() {
        let _ = ClusterConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "cap must be positive")]
    fn zero_cap_rejected() {
        let _ = ClusterConfig::new(1).with_per_job_cap(Some(0));
    }
}
