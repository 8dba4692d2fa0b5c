//! The flat DAG constructors against their reference forms.
//!
//! * [`Adjacency::from_edges`] must equal adding the edges one at a time to
//!   per-stage `Vec<Vec<StageId>>` lists: the same child and parent slices
//!   in the same order, and for an invalid list the same first error.
//! * [`JobDag::scale`] must equal the copying form that maps every task
//!   through `Task::scaled`, bit for bit, on generated workloads.

use pcaps_dag::{Adjacency, DagError, JobDag, StageId};
use pcaps_workloads::{AlibabaGenerator, TpchQuery, TpchScale, PAPER_DURATION_SCALE};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Per-stage child and parent lists, filled one edge at a time.
struct Oracle {
    children: Vec<Vec<StageId>>,
    parents: Vec<Vec<StageId>>,
}

impl Oracle {
    fn build(n: usize, edges: &[(StageId, StageId)]) -> Result<Oracle, DagError> {
        let mut o = Oracle {
            children: vec![Vec::new(); n],
            parents: vec![Vec::new(); n],
        };
        for &(from, to) in edges {
            for s in [from, to] {
                if s.index() >= n {
                    return Err(DagError::UnknownStage { stage: s });
                }
            }
            if from == to {
                return Err(DagError::SelfLoop { stage: from });
            }
            if o.children[from.index()].contains(&to) {
                return Err(DagError::DuplicateEdge { from, to });
            }
            o.children[from.index()].push(to);
            o.parents[to.index()].push(from);
        }
        Ok(o)
    }
}

/// A random edge list over `n` stages.  Most edges are fresh and valid;
/// depending on `flaws`, some repeat an earlier edge, loop on one stage, or
/// name a stage past `n`.
fn random_edges(rng: &mut ChaCha8Rng, n: usize, flaws: bool) -> Vec<(StageId, StageId)> {
    let m = rng.gen_range(0..4 * n + 2);
    let mut edges: Vec<(StageId, StageId)> = Vec::with_capacity(m);
    for _ in 0..m {
        let roll = if flaws { rng.gen_range(0..40u32) } else { 39 };
        let edge = match roll {
            0 if !edges.is_empty() => edges[rng.gen_range(0..edges.len())],
            1 => {
                let s = StageId(rng.gen_range(0..n as u32 + 1));
                (s, s)
            }
            2 => (
                StageId(rng.gen_range(0..n as u32 + 3)),
                StageId(rng.gen_range(0..n as u32 + 3)),
            ),
            _ => {
                let from = rng.gen_range(0..n as u32);
                let to = rng.gen_range(0..n as u32);
                if from == to || edges.contains(&(StageId(from), StageId(to))) {
                    continue;
                }
                (StageId(from), StageId(to))
            }
        };
        edges.push(edge);
    }
    edges
}

#[test]
fn from_edges_matches_the_one_edge_at_a_time_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
    let (mut built, mut unknown, mut self_loops, mut duplicates) = (0, 0, 0, 0);
    for case in 0..3000 {
        let n = rng.gen_range(1..16usize);
        let edges = random_edges(&mut rng, n, case % 3 != 0);
        let got = Adjacency::from_edges(n, &edges);
        match Oracle::build(n, &edges) {
            Ok(oracle) => {
                let adj = got.unwrap_or_else(|e| panic!("case {case}: unexpected {e}"));
                assert_eq!(adj.len(), n);
                assert_eq!(adj.num_edges(), edges.len());
                for s in (0..n as u32).map(StageId) {
                    assert_eq!(
                        adj.children(s),
                        &oracle.children[s.index()][..],
                        "case {case}"
                    );
                    assert_eq!(
                        adj.parents(s),
                        &oracle.parents[s.index()][..],
                        "case {case}"
                    );
                }
                built += 1;
            }
            Err(expected) => {
                match expected {
                    DagError::UnknownStage { .. } => unknown += 1,
                    DagError::SelfLoop { .. } => self_loops += 1,
                    DagError::DuplicateEdge { .. } => duplicates += 1,
                    _ => unreachable!(),
                }
                assert_eq!(got, Err(expected), "case {case}: {edges:?}");
            }
        }
    }
    for (what, count) in [
        ("valid lists", built),
        ("unknown-stage errors", unknown),
        ("self-loop errors", self_loops),
        ("duplicate-edge errors", duplicates),
    ] {
        assert!(
            count >= 100,
            "only {count} {what}: the generator lost coverage"
        );
    }
}

#[test]
fn from_edges_on_no_stages() {
    let adj = Adjacency::from_edges(0, &[]).unwrap();
    assert!(adj.is_empty());
    assert_eq!(adj.num_edges(), 0);
    assert_eq!(
        Adjacency::from_edges(0, &[(StageId(0), StageId(1))]),
        Err(DagError::UnknownStage { stage: StageId(0) })
    );
}

/// Every task duration's bits, stage by stage.
fn duration_bits(dag: &JobDag) -> Vec<Vec<u64>> {
    dag.stages
        .iter()
        .map(|s| s.tasks.iter().map(|t| t.duration.to_bits()).collect())
        .collect()
}

fn assert_scale_matches_copying_scaled(dag: &JobDag, factor: f64) {
    let copied: Vec<Vec<u64>> = dag
        .stages
        .iter()
        .map(|s| {
            s.tasks
                .iter()
                .map(|t| t.scaled(factor).duration.to_bits())
                .collect()
        })
        .collect();
    let mut in_place = dag.clone();
    in_place.scale(factor);
    assert_eq!(duration_bits(&in_place), copied, "{} × {factor}", dag.name);
    assert_eq!(
        duration_bits(&dag.scaled(factor)),
        copied,
        "{} × {factor}",
        dag.name
    );
    assert_eq!(in_place.name, dag.name);
    assert_eq!(in_place.adjacency, dag.adjacency);
    for (a, b) in in_place.stages.iter().zip(&dag.stages) {
        assert_eq!((a.id, &a.name), (b.id, &b.name));
        let bytes =
            |s: &pcaps_dag::Stage| s.tasks.iter().map(|t| t.shuffle_bytes).collect::<Vec<_>>();
        assert_eq!(bytes(a), bytes(b));
    }
}

#[test]
fn scale_in_place_matches_the_copying_form_bit_for_bit() {
    let factors = [PAPER_DURATION_SCALE, 1.0, 0.37, 3.0];
    let mut alibaba = AlibabaGenerator::new(19);
    for dag in alibaba.jobs(60) {
        for factor in factors {
            assert_scale_matches_copying_scaled(&dag, factor);
        }
    }
    for (k, q) in TpchQuery::all().into_iter().enumerate() {
        for scale in TpchScale::ALL {
            let dag = q.job(scale, k as u64);
            for factor in factors {
                assert_scale_matches_copying_scaled(&dag, factor);
            }
        }
    }
}
