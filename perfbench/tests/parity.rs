//! Wrapping a layer must not change what the simulation does: a wrapped
//! run, traced or not, agrees bit for bit with a bare run of the same
//! small input set on every workload.

use pcaps_cluster::{ArrivalSource, MaterializedJobs, MigrationPolicy, NeverMigrate, SubmittedJob};
use pcaps_dag::{JobDagBuilder, Task};
use perfbench::probe::{TimedMigration, TimedSource};
use perfbench::workloads::{run_bare, InputSet, Outcome, Size, Workload};

const SMALL: Size = Size {
    stream_instances: 2,
    stream_jobs: 120,
    fed_instances: 2,
    fed_horizon: 4_800.0,
};

fn bits(o: &Outcome) -> [u64; 4] {
    [
        o.makespan.to_bits(),
        o.tasks,
        o.carbon_kg.to_bits(),
        o.avg_jct_s.to_bits(),
    ]
}

#[test]
fn wrapped_runs_match_bare_runs_bit_for_bit() {
    for workload in Workload::ALL {
        let bare: Vec<_> = run_bare(workload, 7, SMALL)
            .unwrap()
            .iter()
            .map(bits)
            .collect();
        assert!(
            bare.iter().all(|b| b[1] > 0),
            "{}: the instances do work",
            workload.name()
        );
        for traced in [false, true] {
            let trial = InputSet::build(workload, 7, SMALL).run(traced).unwrap();
            let wrapped: Vec<_> = trial.sims.iter().map(|s| bits(&Outcome::from(s))).collect();
            assert_eq!(wrapped, bare, "{} (traced: {traced})", workload.name());
            assert_eq!(trial.spans.is_empty(), !traced);
        }
    }
}

#[test]
fn wrappers_forward_defaulted_methods() {
    let job = JobDagBuilder::new("j")
        .stage("s", vec![Task::new(1.0)])
        .build()
        .unwrap();
    let jobs = MaterializedJobs::new(vec![SubmittedJob::at(0.0, job)]).unwrap();
    let source = TimedSource::new(jobs);
    assert!(source.prevalidated());
    assert_eq!(source.size_hint(), (1, Some(1)));
    let migration = TimedMigration::new(Box::new(NeverMigrate::new()));
    assert!(migration.never_migrates());
    assert_eq!(migration.name(), "never-migrate");
}
