//! The three benchmark workloads: how each is set up from a seed, run as a
//! trial, and checked.
//!
//! * `stream_pcaps` — PCAPS(γ=0.5) over a lazily streamed Alibaba-style DAG
//!   stream on one 100-executor CAISO cluster.  Scheduler-bound: most host
//!   time goes to `Scheduler::on_event`.
//! * `stream_fifo` — the same streams and cluster under Spark-standalone
//!   FIFO, which decides almost nothing per event: workload generation and
//!   the engine dominate.  A scheduler optimisation should not move it.
//! * `fed_serve` — an open loop of independent users: diurnal TPC-H
//!   arrivals served by a six-region federation (CAP-FIFO(B=20) on every
//!   member) through carbon+queue-aware routing, bounded-queue admission,
//!   carbon-delta migration over congested uplinks and Poisson executor
//!   crashes, in 120 s windows.  Engine-bound, and the only workload on the
//!   serve, admission, routing, migration, network and fault paths.
//!
//! One trial runs an *input set*: several independent instances of the
//! workload, each with its own seed derived from the benchmark seed.
//! Simulated outcomes such as PCAPS's mean JCT depend strongly on the
//! carbon trace a seed draws; summing over several traces keeps them from
//! swinging with the benchmark seed.  Within an instance, the trace,
//! workload, scheduler and crash seeds derive from the instance seed the way
//! `ScaleConfig` and `FederationExperimentConfig::member_seed` derive them.

use crate::probe::{
    span, start_recording, stop_recording, Layer, Span, TimedAdmission, TimedMigration,
    TimedRouter, TimedScheduler, TimedSource,
};
use pcaps_carbon::{CarbonAccountant, GridRegion};
use pcaps_cluster::{
    AdmissionPolicy, BoundedQueue, ClusterConfig, ExecutionMode, Federation, JobRecord, Member,
    MigrationPolicy, NetworkTopology, PoissonCrashes, ProfileMode, Router, Scheduler, SimError,
    Simulator, UsageProfile,
};
use pcaps_experiments::alibaba_scale::ScaleConfig;
use pcaps_experiments::multi_region::MigrationSpec;
use pcaps_experiments::reliability::trial_retry_policy;
use pcaps_experiments::streaming::StreamSource;
use pcaps_experiments::{BaseScheduler, FederationExperimentConfig, SchedulerSpec};
use pcaps_metrics::{
    job_footprints, percentile, total_footprint, CompletionEvent, SteadyStateSample,
    WindowedMetrics,
};
use pcaps_schedulers::routing::CarbonQueueAwareRouter;
use pcaps_workloads::{
    DiurnalArrivals, UnboundedStream, WorkloadBuilder, WorkloadKind, WorkloadStream,
};
use std::time::Instant;

/// Carbon-trace seconds per schedule second (the paper's 1 min ↔ 1 h).
const TIME_SCALE: f64 = 60.0;
/// Executors per cluster, on both the stream cluster and every member.
const EXECUTORS: usize = 100;
/// The federation's regions, in member order.
const FED_REGIONS: [GridRegion; 6] = [
    GridRegion::Caiso,
    GridRegion::Germany,
    GridRegion::SouthAfrica,
    GridRegion::Pjm,
    GridRegion::Ontario,
    GridRegion::Nsw,
];
/// Mean inter-arrival of the federation's diurnal stream (schedule s).
const FED_INTERARRIVAL: f64 = 7.5;
/// Day/night swing of the federation's arrival rate.
const FED_AMPLITUDE: f64 = 0.6;
/// One diurnal day in schedule seconds at the 60× time scale.
const DAY: f64 = 1440.0;
/// Serving window (schedule seconds).
const WINDOW: f64 = 120.0;
/// Bounded-queue admission: jobs in system per member (4× its executors).
pub const ADMISSION_BOUND: usize = 4 * EXECUTORS;
/// Capacity of every member's shared uplink (GB per schedule second).
const UPLINK_GB_PER_S: f64 = 0.5;
/// Mean schedule seconds between executor crashes, per member.
const CRASH_MTBF: f64 = 900.0;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PCAPS(γ=0.5) over the Alibaba-style stream.
    StreamPcaps,
    /// Spark-standalone FIFO over the same stream.
    StreamFifo,
    /// The six-region open-loop serving federation.
    FedServe,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::StreamPcaps,
        Workload::StreamFifo,
        Workload::FedServe,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamPcaps => "stream_pcaps",
            Workload::StreamFifo => "stream_fifo",
            Workload::FedServe => "fed_serve",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one trial does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Independent instances in a stream workload's input set.
    pub stream_instances: usize,
    /// Jobs streamed through each stream instance.
    pub stream_jobs: usize,
    /// Independent sessions in `fed_serve`'s input set.
    pub fed_instances: usize,
    /// Serving horizon of each `fed_serve` session (schedule seconds).
    pub fed_horizon: f64,
}

impl Size {
    /// The benchmark's trial size: a few host seconds per trial on a 2-vCPU
    /// x86-64 machine, so one run repeats it several times.  The streams
    /// are many short ones, so that the input set draws many carbon traces;
    /// the federation's sessions are long enough for admission to reject.
    pub const BENCH: Size = Size {
        stream_instances: 64,
        stream_jobs: 62,
        fed_instances: 16,
        fed_horizon: 21_600.0,
    };

    /// Instances in `workload`'s input set.
    pub fn instances(self, workload: Workload) -> usize {
        match workload {
            Workload::FedServe => self.fed_instances,
            _ => self.stream_instances,
        }
    }

    /// The seeds of `workload`'s input set built from benchmark seed
    /// `seed`: disjoint for distinct benchmark seeds.
    pub fn instance_seeds(self, workload: Workload, seed: u64) -> impl Iterator<Item = u64> {
        let n = self.instances(workload) as u64;
        (0..n).map(move |k| seed.wrapping_mul(n).wrapping_add(k))
    }
}

/// What one instance's simulation determined: the same seed and size must
/// give bit-identical values on every repetition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Simulated {
    /// Tasks dispatched (re-dispatches after crashes included).
    pub tasks: u64,
    /// Schedule time of the last completion.
    pub makespan: f64,
    /// Execution carbon plus transfer carbon (kg CO₂eq).
    pub carbon_kg: f64,
    /// Jobs completed.
    pub completed: u64,
    /// Summed JCT of completed jobs (schedule seconds).
    pub jct_sum_s: f64,
    /// p99 queueing delay of the median 120 s window (schedule seconds).
    pub p99_queue_delay_s: f64,
    /// Arrivals offered to the cluster or federation.
    pub arrivals: u64,
    /// Arrivals admitted.
    pub accepted: u64,
    /// Jobs pulled from the workload generator.
    pub pulls: u64,
    /// Scheduler invocations, summed over members.
    pub sched_calls: u64,
    /// Invocations that assigned at least one executor.
    pub sched_useful: u64,
    /// Invocations that asked to be woken later.
    pub sched_deferring: u64,
    /// Migration-policy consultations.
    pub migration_calls: u64,
    /// Migrate and drain verbs emitted.
    pub migration_moves: u64,
    /// Migrations applied.
    pub migrations: u64,
    /// Summed transfer time of applied migrations (schedule seconds).
    pub transfer_s_sum: f64,
    /// GB carried by the federation's links.
    pub network_gb: f64,
    /// Tasks killed by executor crashes.
    pub tasks_failed: u64,
    /// Crashed tasks re-released for dispatch.
    pub retries: u64,
    /// Median jobs in system over the first half of the serving windows.
    pub in_system_first_half: f64,
    /// Median jobs in system over the second half of the serving windows.
    pub in_system_second_half: f64,
}

impl Simulated {
    /// Mean JCT of completed jobs (schedule seconds).
    pub fn avg_jct_s(&self) -> f64 {
        ratio(self.jct_sum_s, self.completed as f64)
    }

    /// The input set's totals: counts, carbon and JCT sums add up; the
    /// windowed figures (p99 delay, jobs in system) average over instances.
    pub fn total(sims: &[Simulated]) -> Simulated {
        let sum_u = |f: fn(&Simulated) -> u64| sims.iter().map(f).sum::<u64>();
        let sum_f = |f: fn(&Simulated) -> f64| sims.iter().map(f).sum::<f64>();
        let mean_f = |f: fn(&Simulated) -> f64| sum_f(f) / sims.len().max(1) as f64;
        Simulated {
            tasks: sum_u(|s| s.tasks),
            makespan: sims.iter().map(|s| s.makespan).fold(0.0, f64::max),
            carbon_kg: sum_f(|s| s.carbon_kg),
            completed: sum_u(|s| s.completed),
            jct_sum_s: sum_f(|s| s.jct_sum_s),
            p99_queue_delay_s: mean_f(|s| s.p99_queue_delay_s),
            arrivals: sum_u(|s| s.arrivals),
            accepted: sum_u(|s| s.accepted),
            pulls: sum_u(|s| s.pulls),
            sched_calls: sum_u(|s| s.sched_calls),
            sched_useful: sum_u(|s| s.sched_useful),
            sched_deferring: sum_u(|s| s.sched_deferring),
            migration_calls: sum_u(|s| s.migration_calls),
            migration_moves: sum_u(|s| s.migration_moves),
            migrations: sum_u(|s| s.migrations),
            transfer_s_sum: sum_f(|s| s.transfer_s_sum),
            network_gb: sum_f(|s| s.network_gb),
            tasks_failed: sum_u(|s| s.tasks_failed),
            retries: sum_u(|s| s.retries),
            in_system_first_half: mean_f(|s| s.in_system_first_half),
            in_system_second_half: mean_f(|s| s.in_system_second_half),
        }
    }
}

/// The outcome a bare run (no wrappers) and a wrapped run must agree on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Schedule time of the last completion.
    pub makespan: f64,
    /// Tasks dispatched.
    pub tasks: u64,
    /// Execution plus transfer carbon (kg CO₂eq).
    pub carbon_kg: f64,
    /// Mean JCT of completed jobs (schedule seconds).
    pub avg_jct_s: f64,
}

impl From<&Simulated> for Outcome {
    fn from(s: &Simulated) -> Self {
        Outcome {
            makespan: s.makespan,
            tasks: s.tasks,
            carbon_kg: s.carbon_kg,
            avg_jct_s: s.avg_jct_s(),
        }
    }
}

/// One trial's measurements.
#[derive(Debug)]
pub struct Trial {
    /// Host seconds from the first intake pull to the accounted result,
    /// summed over the input set.
    pub wall_s: f64,
    /// What the simulation determined, per instance.
    pub sims: Vec<Simulated>,
    /// Spans recorded during the trial (empty when untraced).
    pub spans: Vec<Span>,
}

/// The instances of one input set, built and ready to run one trial.
pub struct InputSet(Vec<Instance>);

impl InputSet {
    /// Builds `workload`'s input set for benchmark seed `seed` (the
    /// benchmark's set-up: traces, cluster or federation and topology,
    /// policies, arrival streams).
    pub fn build(workload: Workload, seed: u64, size: Size) -> InputSet {
        InputSet(
            size.instance_seeds(workload, seed)
                .map(|s| Instance::build(workload, s, size))
                .collect(),
        )
    }

    /// Runs the trial, recording spans when `traced`.  A trial in which an
    /// instance returns a `SimError` or fails an output check is an `Err`.
    pub fn run(self, traced: bool) -> Result<Trial, String> {
        if traced {
            start_recording();
        }
        let mut wall_s = 0.0;
        let mut sims = Vec::with_capacity(self.0.len());
        let run_all = || {
            for instance in self.0 {
                let started = Instant::now();
                let outcome = span(Layer::Trial, || instance.run());
                wall_s += started.elapsed().as_secs_f64();
                // Checked before the next instance runs, so at most one
                // instance's results are resident.
                let (sim, checks) = outcome?;
                checks()?;
                sims.push(sim);
            }
            Ok::<(), String>(())
        };
        let outcome = run_all();
        let spans = if traced { stop_recording() } else { Vec::new() };
        outcome?;
        Ok(Trial {
            wall_s,
            sims,
            spans,
        })
    }
}

/// Runs `workload`'s input set with every policy and the source called
/// directly, without the timing wrappers.
pub fn run_bare(workload: Workload, seed: u64, size: Size) -> Result<Vec<Outcome>, String> {
    size.instance_seeds(workload, seed)
        .map(|s| match workload {
            Workload::FedServe => fed_parts(s, size.fed_horizon).run_bare(),
            _ => stream_parts(s, size.stream_jobs, stream_spec(workload)).run_bare(),
        })
        .collect()
}

/// The untimed check after trial `trial` (counted from 0) of `workload`'s
/// input set, whose simulated outputs are `sims`.
///
/// A `fed_serve` trial drains its completions every window, which clears
/// the members' usage profiles, so its own segment check sees only the last
/// window.  This check serves one instance of the set again, bare and
/// undrained, checks every segment of the whole horizon, and requires the
/// bare run to reproduce the trial's outcome bit for bit.  Successive
/// trials take successive instances.  The streams keep their whole profile
/// and need no second run.
pub fn cross_check(
    workload: Workload,
    seed: u64,
    size: Size,
    trial: usize,
    sims: &[Simulated],
) -> Result<(), String> {
    if workload != Workload::FedServe {
        return Ok(());
    }
    let k = trial % size.fed_instances;
    let instance_seed = size
        .instance_seeds(workload, seed)
        .nth(k)
        .expect("k < instances");
    let bare = fed_parts(instance_seed, size.fed_horizon).run_bare()?;
    let timed = Outcome::from(&sims[k]);
    expect(
        bare == timed,
        format!("instance {k}: the bare run gives {bare:?}, the timed run {timed:?}"),
    )
}

fn stream_spec(workload: Workload) -> SchedulerSpec {
    match workload {
        Workload::StreamFifo => SchedulerSpec::Baseline(BaseScheduler::Fifo),
        _ => SchedulerSpec::pcaps_moderate(),
    }
}

/// Output checks run after the timed part of a trial.
type Checks = Box<dyn FnOnce() -> Result<(), String>>;

enum Instance {
    Stream(StreamInstance),
    Fed(FedInstance),
}

impl Instance {
    fn build(workload: Workload, seed: u64, size: Size) -> Instance {
        match workload {
            Workload::FedServe => {
                Instance::Fed(FedInstance::new(fed_parts(seed, size.fed_horizon)))
            }
            _ => Instance::Stream(StreamInstance::new(
                size.stream_jobs,
                stream_parts(seed, size.stream_jobs, stream_spec(workload)),
            )),
        }
    }

    fn run(self) -> Result<(Simulated, Checks), String> {
        match self {
            Instance::Stream(s) => s.run(),
            Instance::Fed(f) => f.run(),
        }
    }
}

/// A stream instance before wrapping.
struct StreamParts {
    sim: Simulator,
    accountant: CarbonAccountant,
    scheduler: Box<dyn Scheduler>,
    source: StreamSource<WorkloadStream>,
}

fn stream_parts(seed: u64, jobs: usize, spec: SchedulerSpec) -> StreamParts {
    let config = ScaleConfig {
        seed,
        ..ScaleConfig::standard()
    };
    let trace = config.trace();
    let accountant = CarbonAccountant::new(trace.clone()).with_time_scale(TIME_SCALE);
    // Full profile recording: the carbon footprint integrates it.
    let cluster = config.cluster_config().with_profile_mode(ProfileMode::Full);
    let sim = Simulator::streaming(cluster, trace).with_execution_mode(ExecutionMode::Sequential);
    let scheduler = spec.build(config.seed ^ 0x5EED, sim.carbon(), TIME_SCALE);
    let stream = WorkloadBuilder::new(WorkloadKind::Alibaba, config.seed)
        .jobs(jobs)
        .mean_interarrival(config.mean_interarrival)
        .stream();
    StreamParts {
        sim,
        accountant,
        scheduler,
        source: StreamSource::new(stream),
    }
}

impl StreamParts {
    fn run_bare(mut self) -> Result<Outcome, String> {
        let result = self
            .sim
            .run_source(&mut self.source, self.scheduler.as_mut())
            .map_err(sim_error)?;
        Ok(Outcome {
            makespan: result.makespan,
            tasks: result.tasks_dispatched as u64,
            carbon_kg: total_footprint(&result, &self.accountant) / 1000.0,
            avg_jct_s: result.average_jct(),
        })
    }
}

struct StreamInstance {
    jobs: usize,
    sim: Simulator,
    accountant: CarbonAccountant,
    scheduler: TimedScheduler,
    source: TimedSource<StreamSource<WorkloadStream>>,
}

impl StreamInstance {
    fn new(jobs: usize, parts: StreamParts) -> Self {
        StreamInstance {
            jobs,
            sim: parts.sim,
            accountant: parts.accountant,
            scheduler: TimedScheduler::new(parts.scheduler),
            source: TimedSource::new(parts.source),
        }
    }

    fn run(mut self) -> Result<(Simulated, Checks), String> {
        let result = span(Layer::Run, || {
            self.sim.run_source(&mut self.source, &mut self.scheduler)
        })
        .map_err(sim_error)?;
        let (carbon_g, p99_queue_delay_s) = span(Layer::Account, || {
            let mut records: Vec<&JobRecord> = result.jobs.iter().collect();
            records.sort_by(|a, b| a.completion.total_cmp(&b.completion).then(a.id.cmp(&b.id)));
            let mut metrics = WindowedMetrics::new(WINDOW);
            let mut samples = Vec::new();
            let mut window_end = WINDOW;
            for r in records {
                while r.completion >= window_end {
                    samples.push(metrics.sample(window_end, 0));
                    window_end += WINDOW;
                }
                metrics.record_completion(completion_event(r));
            }
            samples.push(metrics.sample(window_end, 0));
            (
                total_footprint(&result, &self.accountant),
                median_window_p99(&samples),
            )
        });
        let pulled = self.source.pulls() as u64;
        let sim = Simulated {
            tasks: result.tasks_dispatched as u64,
            makespan: result.makespan,
            carbon_kg: carbon_g / 1000.0,
            completed: result.jobs.len() as u64,
            jct_sum_s: result.jobs.iter().map(JobRecord::jct).sum(),
            p99_queue_delay_s,
            arrivals: pulled,
            accepted: pulled,
            pulls: pulled,
            sched_calls: self.scheduler.calls,
            sched_useful: self.scheduler.useful,
            sched_deferring: self.scheduler.deferring,
            ..Simulated::default()
        };
        let checks: Checks = Box::new(move || {
            let pulled = self.source.pulls();
            expect(
                pulled == self.jobs,
                format!("pulled {pulled} jobs, expected {}", self.jobs),
            )?;
            expect(
                result.jobs.len() == pulled,
                format!("{} of {pulled} jobs completed", result.jobs.len()),
            )?;
            expect(
                result.tasks_dispatched as u64 == self.source.tasks(),
                format!(
                    "dispatched {} tasks, the pulled DAGs hold {}",
                    result.tasks_dispatched,
                    self.source.tasks()
                ),
            )?;
            check_segments(&result.profile)?;
            let per_job: f64 = job_footprints(&result, &self.accountant).values().sum();
            expect(
                (per_job - carbon_g).abs() <= 1e-6 * carbon_g.abs().max(1.0),
                format!("per-job footprints sum to {per_job} g, the total is {carbon_g} g"),
            )
        });
        Ok((sim, checks))
    }
}

/// A `fed_serve` instance before wrapping.
struct FedParts {
    horizon: f64,
    federation: Federation,
    accountants: Vec<CarbonAccountant>,
    schedulers: Vec<Box<dyn Scheduler>>,
    router: Box<dyn Router>,
    admission: Box<dyn AdmissionPolicy>,
    migration: Box<dyn MigrationPolicy>,
    source: StreamSource<UnboundedStream>,
}

fn fed_parts(seed: u64, horizon: f64) -> FedParts {
    let mut config = FederationExperimentConfig::standard(FED_REGIONS.to_vec(), 0, seed);
    config.executors_per_member = EXECUTORS;
    config.mean_interarrival = FED_INTERARRIVAL;
    let matrix = config.transfer_matrix();
    let topology = (0..FED_REGIONS.len()).fold(NetworkTopology::from_matrix(&matrix), |t, m| {
        t.with_uplink(m, UPLINK_GB_PER_S)
    });
    let traces = config.traces().into_traces();
    let accountants = traces
        .iter()
        .map(|t| CarbonAccountant::new(t.clone()).with_time_scale(TIME_SCALE))
        .collect();
    let members = FED_REGIONS
        .iter()
        .zip(traces)
        .map(|(region, trace)| {
            Member::new(
                region.code(),
                ClusterConfig::new(EXECUTORS).with_time_scale(TIME_SCALE),
                trace,
            )
        })
        .collect();
    let crashes = PoissonCrashes::new(config.seed ^ 0xFA17, CRASH_MTBF).with_horizon(horizon);
    let federation = Federation::streaming(members)
        .with_transfer_matrix(matrix)
        .with_network(topology)
        .with_retry_policy(trial_retry_policy())
        .with_fault_plan(&crashes)
        .with_execution_mode(ExecutionMode::Sequential);
    let cap_fifo = SchedulerSpec::cap_moderate(BaseScheduler::Fifo);
    let schedulers = federation
        .members()
        .iter()
        .enumerate()
        .map(|(i, m)| cap_fifo.build(config.member_seed(i), &m.carbon, TIME_SCALE))
        .collect();
    let arrivals =
        DiurnalArrivals::new(FED_INTERARRIVAL, FED_AMPLITUDE, DAY, config.seed ^ 0xA11CE);
    let stream = WorkloadBuilder::new(config.workload, config.seed).stream_unbounded(arrivals);
    FedParts {
        horizon,
        federation,
        accountants,
        schedulers,
        router: Box::new(CarbonQueueAwareRouter::new()),
        admission: Box::new(BoundedQueue::new(ADMISSION_BOUND)),
        migration: MigrationSpec::CarbonDelta.build(),
        source: StreamSource::new(stream),
    }
}

/// The windows a serving session of `horizon` is advanced through.
fn window_ends(horizon: f64) -> impl Iterator<Item = f64> {
    let windows = (horizon / WINDOW).ceil() as usize;
    (1..=windows).map(move |w| (w as f64 * WINDOW).min(horizon))
}

impl FedParts {
    /// Serves the whole horizon without draining completions, so the final
    /// result still holds every job on the member it completed on and every
    /// member's whole usage profile, whose segments it checks.
    fn run_bare(mut self) -> Result<Outcome, String> {
        let mut session = self.federation.serve(&mut self.source).map_err(sim_error)?;
        let mut schedulers: Vec<&mut dyn Scheduler> = self
            .schedulers
            .iter_mut()
            .map(|s| &mut **s as &mut dyn Scheduler)
            .collect();
        for horizon in window_ends(self.horizon) {
            session
                .run_until_with_migration(
                    horizon,
                    self.router.as_mut(),
                    self.migration.as_mut(),
                    &mut schedulers,
                    Some(self.admission.as_mut()),
                )
                .map_err(sim_error)?;
        }
        let result = session.finish();
        for m in &result.members {
            check_segments(&m.result.profile)?;
        }
        let mut completed: Vec<(usize, &JobRecord)> = result
            .members
            .iter()
            .flat_map(|m| m.result.jobs.iter().map(move |r| (m.member, r)))
            .collect();
        completed.sort_by_key(|(_, r)| r.id);
        let carbon_g: f64 = completed
            .iter()
            .map(|&(m, r)| job_carbon_grams(&self.accountants[m], r))
            .sum::<f64>()
            + result.transfer_carbon_grams();
        Ok(Outcome {
            makespan: completed
                .iter()
                .map(|(_, r)| r.completion)
                .fold(0.0, f64::max),
            tasks: result.tasks_dispatched() as u64,
            carbon_kg: carbon_g / 1000.0,
            avg_jct_s: ratio(
                completed.iter().map(|(_, r)| r.jct()).sum(),
                completed.len() as f64,
            ),
        })
    }
}

struct FedInstance {
    horizon: f64,
    federation: Federation,
    accountants: Vec<CarbonAccountant>,
    schedulers: Vec<TimedScheduler>,
    router: TimedRouter,
    admission: TimedAdmission,
    migration: TimedMigration,
    source: TimedSource<StreamSource<UnboundedStream>>,
}

impl FedInstance {
    fn new(parts: FedParts) -> Self {
        FedInstance {
            horizon: parts.horizon,
            federation: parts.federation,
            accountants: parts.accountants,
            schedulers: parts
                .schedulers
                .into_iter()
                .map(TimedScheduler::new)
                .collect(),
            router: TimedRouter::new(parts.router),
            admission: TimedAdmission::new(parts.admission),
            migration: TimedMigration::new(parts.migration),
            source: TimedSource::new(parts.source),
        }
    }

    fn run(mut self) -> Result<(Simulated, Checks), String> {
        let mut metrics = WindowedMetrics::new(WINDOW);
        let mut samples = Vec::new();
        let mut completed: Vec<JobRecord> = Vec::new();
        let mut session = self.federation.serve(&mut self.source).map_err(sim_error)?;
        let (mut seen, mut rejected) = (0, 0);
        let mut schedulers: Vec<&mut dyn Scheduler> = self
            .schedulers
            .iter_mut()
            .map(|s| s as &mut dyn Scheduler)
            .collect();
        for horizon in window_ends(self.horizon) {
            span(Layer::Slice, || {
                span(Layer::Run, || {
                    session.run_until_with_migration(
                        horizon,
                        &mut self.router,
                        &mut self.migration,
                        &mut schedulers,
                        Some(&mut self.admission),
                    )
                })
                .map_err(sim_error)?;
                let records = span(Layer::Drain, || session.drain_completions());
                span(Layer::Account, || {
                    for _ in seen..session.jobs_seen() {
                        metrics.record_arrival();
                    }
                    seen = session.jobs_seen();
                    for _ in rejected..session.jobs_rejected() {
                        metrics.record_rejection();
                    }
                    rejected = session.jobs_rejected();
                    for r in &records {
                        metrics.record_completion(completion_event(r));
                    }
                    samples.push(metrics.sample(session.time(), session.jobs_in_system()));
                });
                completed.extend(records);
                Ok::<(), String>(())
            })?;
        }
        drop(schedulers);
        let engine_rejected = session.jobs_rejected();
        let in_system_at_end = session.jobs_in_system();
        let result = session.finish();
        let carbon_g = span(Layer::Account, || {
            completed.extend(
                result
                    .members
                    .iter()
                    .flat_map(|m| m.result.jobs.iter().cloned()),
            );
            // Job-id order, so sums round the same way as in a bare run.
            completed.sort_by_key(|r| r.id);
            let mut member = self.router.placement.clone();
            for m in &result.migrations {
                member[m.job.index()] = m.to;
            }
            completed
                .iter()
                .map(|r| job_carbon_grams(&self.accountants[member[r.id.index()]], r))
                .sum::<f64>()
                + result.transfer_carbon_grams()
        });
        let in_system: Vec<f64> = samples.iter().map(|s| s.jobs_in_system as f64).collect();
        let (first, second) = in_system.split_at(in_system.len() / 2);
        let (first, second) = (median(first), median(second));
        let sim = Simulated {
            tasks: result.tasks_dispatched() as u64,
            makespan: completed.iter().map(|r| r.completion).fold(0.0, f64::max),
            carbon_kg: carbon_g / 1000.0,
            completed: completed.len() as u64,
            jct_sum_s: completed.iter().map(JobRecord::jct).sum(),
            p99_queue_delay_s: median_window_p99(&samples),
            arrivals: self.admission.calls(),
            accepted: self.admission.accepted,
            pulls: self.source.pulls() as u64,
            sched_calls: self.schedulers.iter().map(|s| s.calls).sum(),
            sched_useful: self.schedulers.iter().map(|s| s.useful).sum(),
            sched_deferring: self.schedulers.iter().map(|s| s.deferring).sum(),
            migration_calls: self.migration.calls,
            migration_moves: self.migration.moves,
            migrations: result.migrations.len() as u64,
            transfer_s_sum: result.migrations.iter().map(|m| m.transfer_seconds).sum(),
            network_gb: result.links.iter().map(|l| l.gb_carried).sum(),
            tasks_failed: result.tasks_failed() as u64,
            retries: result.retries() as u64,
            in_system_first_half: first,
            in_system_second_half: second,
        };
        let checks: Checks = Box::new(move || {
            let pulled = self.source.pulls() as u64;
            let routed = self.router.calls() as u64;
            let (accepted, rejected) = (self.admission.accepted, self.admission.rejected);
            expect(
                accepted + rejected == routed && (pulled == routed || pulled == routed + 1),
                format!(
                    "{accepted} accepted + {rejected} rejected != {routed} routed arrivals \
                     ({pulled} pulled, at most one waiting past the horizon)"
                ),
            )?;
            expect(
                rejected == engine_rejected as u64,
                format!(
                    "admission rejected {rejected} arrivals, the session counts {engine_rejected}"
                ),
            )?;
            expect(
                completed.len() as u64 + in_system_at_end as u64 == accepted,
                format!(
                    "{} completed + {in_system_at_end} in system != {accepted} accepted",
                    completed.len()
                ),
            )?;
            let tasks_of = |ids: &mut dyn Iterator<Item = usize>| -> u64 {
                ids.map(|i| u64::from(self.source.tasks_per_job[i])).sum()
            };
            let completed_tasks = tasks_of(&mut completed.iter().map(|r| r.id.index()));
            let routed_tasks = tasks_of(&mut (0..routed as usize));
            let dispatched = result.tasks_dispatched() as u64;
            let first_dispatches = dispatched - result.retries() as u64;
            expect(
                completed_tasks <= dispatched && first_dispatches <= routed_tasks,
                format!(
                    "dispatched {dispatched} tasks ({} retries): completed jobs hold \
                     {completed_tasks}, routed jobs {routed_tasks}",
                    result.retries()
                ),
            )?;
            // Only the last window's segments are left after the drains;
            // `cross_check` covers the whole horizon.
            for m in &result.members {
                check_segments(&m.result.profile)?;
            }
            let growth = second - first;
            expect(
                growth <= ADMISSION_BOUND as f64,
                format!(
                    "backlog grows: median jobs in system rose by {growth} from the first half \
                     of the session to the second, more than the admission bound {ADMISSION_BOUND}"
                ),
            )
        });
        Ok((sim, checks))
    }
}

fn sim_error(e: SimError) -> String {
    format!("simulation error: {e}")
}

/// The windowed collector's view of a completion.  Carbon is left out:
/// every workload accounts it once over the whole instance (on `fed_serve`
/// after the session, when the migration log has fixed each job's final
/// member).
fn completion_event(r: &JobRecord) -> CompletionEvent {
    CompletionEvent {
        completion: r.completion,
        queue_delay: r.queue_delay(),
        service_hours: r.executor_seconds / 3600.0,
        carbon_grams: 0.0,
    }
}

/// The p99 queueing delay of the median window, over windows that saw
/// completions.
fn median_window_p99(samples: &[SteadyStateSample]) -> f64 {
    let p99s: Vec<f64> = samples
        .iter()
        .filter(|s| s.completions > 0)
        .map(|s| s.p99_queue_delay)
        .collect();
    median(&p99s)
}

/// Carbon of one completed job: the trace integral over its service span at
/// its average parallelism (the convention of the steady-state experiment).
fn job_carbon_grams(accountant: &CarbonAccountant, r: &JobRecord) -> f64 {
    let span = r.completion - r.first_start;
    if span <= 0.0 || r.executor_seconds <= 0.0 {
        return 0.0;
    }
    accountant.footprint_interval_grams(r.executor_seconds / span, r.first_start, r.completion)
}

/// No executor runs two tasks at once.
fn check_segments(profile: &UsageProfile) -> Result<(), String> {
    let mut segs: Vec<_> = profile
        .segments
        .iter()
        .map(|s| (s.executor, s.start, s.end))
        .collect();
    segs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    for pair in segs.windows(2) {
        let ((e0, s0, t0), (e1, s1, _)) = (pair[0], pair[1]);
        expect(
            e0 != e1 || s1 >= t0 - 1e-9,
            format!("executor {e0} runs [{s0}, {t0}] and a task from {s1}"),
        )?;
    }
    Ok(())
}

fn expect(ok: bool, failure: String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(failure)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(values, 50.0)
}
