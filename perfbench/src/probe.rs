//! Span recording and the timing wrappers placed around each layer's public
//! entry points.
//!
//! Every layer is measured from outside: a wrapper implements the layer's
//! trait, forwards each call to the wrapped policy, counts what the call
//! did, and — while recording is on — records one [`Span`] around it.
//! Spans live in memory until [`stop_recording`] hands them back; nothing
//! is written while a trial runs.
//!
//! The wrappers forward every defaulted trait method too
//! (`ArrivalSource::prevalidated` and `size_hint`,
//! `MigrationPolicy::never_migrates`, every `name`): the engine branches on
//! them, so a wrapper that fell back to the default would put a wrapped run
//! on another path than a bare one.

use pcaps_cluster::{
    AdmissionDecision, AdmissionPolicy, ArrivalSource, DecisionSink, MigrationCandidate,
    MigrationContext, MigrationPolicy, MigrationSink, Router, RoutingContext, SchedEvent,
    Scheduler, SchedulingContext, SubmittedJob,
};
use pcaps_dag::JobId;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// One whole trial: intake through the accounted result.
    Trial,
    /// One call into the engine (`run_source` or
    /// `run_until_with_migration`).  Its self time is the engine's.
    Run,
    /// One serving window: the engine slice, the completion drain and the
    /// window's accounting.
    Slice,
    /// `Scheduler::on_event`.
    OnEvent,
    /// `ArrivalSource::next_job` (workload generation).
    Pull,
    /// `Router::route`.
    Route,
    /// `AdmissionPolicy::admit`.
    Admit,
    /// `MigrationPolicy::on_carbon_change`.
    Consult,
    /// `ServeSession::drain_completions`.
    Drain,
    /// `pcaps_metrics` footprint and windowed accounting.
    Account,
}

impl Layer {
    /// The name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Trial => "trial",
            Layer::Run => "engine.run",
            Layer::Slice => "serve.slice",
            Layer::OnEvent => "schedulers.on_event",
            Layer::Pull => "workloads.next_job",
            Layer::Route => "routing.route",
            Layer::Admit => "admission.admit",
            Layer::Consult => "migration.on_carbon_change",
            Layer::Drain => "serve.drain_completions",
            Layer::Account => "metrics.account",
        }
    }
}

/// One recorded call: which boundary, when (nanoseconds since recording
/// started), and the index of the span that was open around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start, in nanoseconds since [`start_recording`].
    pub start_ns: u64,
    /// End, in nanoseconds since [`start_recording`].
    pub end_ns: u64,
    /// Index (into the same span list) of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Boundary the span was recorded at.
    pub layer: Layer,
}

/// The `parent` of a span recorded outside any other.  A sentinel rather
/// than an `Option` keeps a span at 24 bytes; traced trials record millions.
pub const ROOT: u32 = u32::MAX;

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Spans of the previous recording, reserved up front for the next.
    last_len: usize,
}

thread_local! {
    /// Checked before borrowing the recorder, so an untraced call costs one
    /// flag read.  Per thread, like the recorder: the engine runs its
    /// sequential mode on the calling thread.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        last_len: 0,
    });
}

/// Starts recording spans on this thread, discarding any earlier ones.
pub fn start_recording() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.spans.clear();
        let reserve = r.last_len;
        r.spans.reserve(reserve);
        r.open.clear();
        r.origin = Instant::now();
    });
    RECORDING.set(true);
}

/// Stops recording and returns the spans recorded since
/// [`start_recording`], in start order.
pub fn stop_recording() -> Vec<Span> {
    RECORDING.set(false);
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "recording stopped inside an open span");
        r.last_len = r.spans.len();
        std::mem::take(&mut r.spans)
    })
}

fn open(layer: Layer) -> Option<u32> {
    if !RECORDING.get() {
        return None;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let id = u32::try_from(r.spans.len()).expect("fewer than 2^32 spans per trial");
        let parent = r.open.last().copied().unwrap_or(ROOT);
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        r.open.push(id);
        Some(id)
    })
}

fn close(id: u32) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.origin.elapsed().as_nanos() as u64;
        let closed = r.open.pop();
        debug_assert_eq!(closed, Some(id), "spans must close innermost first");
        r.spans[id as usize].end_ns = end_ns;
    });
}

/// Runs `f` inside a span at `layer` (a plain call while not recording).
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let id = open(layer);
    let out = f();
    if let Some(id) = id {
        close(id);
    }
    out
}

/// Times `Scheduler::on_event` and counts what each call decided.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    /// Invocations.
    pub calls: u64,
    /// Invocations that assigned at least one executor.
    pub useful: u64,
    /// Invocations that asked to be woken later.
    pub deferring: u64,
}

impl TimedScheduler {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Scheduler>) -> Self {
        TimedScheduler {
            inner,
            calls: 0,
            useful: 0,
            deferring: 0,
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_event(
        &mut self,
        event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        span(Layer::OnEvent, || self.inner.on_event(event, ctx, out));
        self.calls += 1;
        if out.assignments().iter().any(|a| a.executors > 0) {
            self.useful += 1;
        }
        if !out.deferrals().is_empty() {
            self.deferring += 1;
        }
    }
}

/// Times `ArrivalSource::next_job` and keeps an independent count of the
/// jobs and tasks pulled, so output checks need not trust the engine's own
/// counters.
pub struct TimedSource<S> {
    inner: S,
    /// Tasks of each pulled job, in pull order (which is job-id order).
    pub tasks_per_job: Vec<u32>,
}

impl<S: ArrivalSource> TimedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            tasks_per_job: Vec::new(),
        }
    }

    /// Jobs pulled so far.
    pub fn pulls(&self) -> usize {
        self.tasks_per_job.len()
    }

    /// Tasks of every job pulled so far.
    pub fn tasks(&self) -> u64 {
        self.tasks_per_job.iter().map(|&t| u64::from(t)).sum()
    }
}

impl<S: ArrivalSource> ArrivalSource for TimedSource<S> {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        let job = span(Layer::Pull, || self.inner.next_job());
        if let Some(job) = &job {
            let tasks =
                u32::try_from(job.dag.num_tasks()).expect("a job has fewer than 2^32 tasks");
            self.tasks_per_job.push(tasks);
        }
        job
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    fn prevalidated(&self) -> bool {
        self.inner.prevalidated()
    }
}

/// Times `Router::route` and remembers where each job was sent.
pub struct TimedRouter {
    inner: Box<dyn Router>,
    /// Member each routed job was sent to, indexed by job id.
    pub placement: Vec<usize>,
}

impl TimedRouter {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Router>) -> Self {
        TimedRouter {
            inner,
            placement: Vec::new(),
        }
    }

    /// Arrivals routed so far.
    pub fn calls(&self) -> usize {
        self.placement.len()
    }
}

impl Router for TimedRouter {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn route(&mut self, id: JobId, job: &SubmittedJob, ctx: &RoutingContext<'_>) -> usize {
        let member = span(Layer::Route, || self.inner.route(id, job, ctx));
        assert_eq!(
            id.index(),
            self.placement.len(),
            "the engine routes jobs in id order"
        );
        self.placement.push(member);
        member
    }
}

/// Times `AdmissionPolicy::admit` and counts its decisions.
pub struct TimedAdmission {
    inner: Box<dyn AdmissionPolicy>,
    /// Arrivals admitted (on the routed member or shed elsewhere).
    pub accepted: u64,
    /// Arrivals turned away.
    pub rejected: u64,
}

impl TimedAdmission {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn AdmissionPolicy>) -> Self {
        TimedAdmission {
            inner,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Consultations so far.
    pub fn calls(&self) -> u64 {
        self.accepted + self.rejected
    }
}

impl AdmissionPolicy for TimedAdmission {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(
        &mut self,
        job: &SubmittedJob,
        target: usize,
        ctx: &RoutingContext<'_>,
    ) -> AdmissionDecision {
        let decision = span(Layer::Admit, || self.inner.admit(job, target, ctx));
        match decision {
            AdmissionDecision::Reject => self.rejected += 1,
            AdmissionDecision::Accept | AdmissionDecision::ShedTo(_) => self.accepted += 1,
        }
        decision
    }
}

/// Times `MigrationPolicy::on_carbon_change` and counts the verbs it emits.
pub struct TimedMigration {
    inner: Box<dyn MigrationPolicy>,
    /// Consultations.
    pub calls: u64,
    /// Migrate and drain verbs emitted.
    pub moves: u64,
}

impl TimedMigration {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn MigrationPolicy>) -> Self {
        TimedMigration {
            inner,
            calls: 0,
            moves: 0,
        }
    }
}

impl MigrationPolicy for TimedMigration {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn never_migrates(&self) -> bool {
        self.inner.never_migrates()
    }

    fn on_carbon_change(
        &mut self,
        ctx: &MigrationContext<'_>,
        candidates: &[MigrationCandidate],
        out: &mut MigrationSink,
    ) {
        span(Layer::Consult, || {
            self.inner.on_carbon_change(ctx, candidates, out)
        });
        self.calls += 1;
        self.moves += out.moves().len() as u64;
    }
}
