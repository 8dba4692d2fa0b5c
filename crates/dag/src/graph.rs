//! Adjacency structure and graph algorithms over stage precedence edges.
//!
//! [`Adjacency`] stores the edges of a job DAG in both directions so that
//! schedulers can cheaply ask for parents (prerequisites) and children
//! (dependents) of a stage.  It also provides topological ordering, cycle
//! detection, and reachability queries used by the analysis module.
//!
//! The layout is compressed sparse row (CSR): all child lists live in one
//! `Vec`, with stage `s`'s children at `child_offsets[s]..child_offsets[s +
//! 1]`, and the parent lists likewise.  [`Adjacency::from_edges`] builds
//! both directions from one edge list in a counting pass, so a DAG owns four
//! buffers however many stages and edges it has, and each per-stage list
//! keeps the order its edges had in the input.

use crate::error::DagError;
use crate::ids::StageId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Directed adjacency for a fixed number of stages `0..n`, in CSR form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Adjacency {
    /// `children[child_offsets[s]..child_offsets[s + 1]]` lists the stages
    /// that depend on `s`.  Length `n + 1`.
    child_offsets: Vec<u32>,
    children: Vec<StageId>,
    /// `parents[parent_offsets[s]..parent_offsets[s + 1]]` lists the stages
    /// that `s` depends on.  Length `n + 1`.
    parent_offsets: Vec<u32>,
    parents: Vec<StageId>,
}

impl Adjacency {
    /// Builds the adjacency of `n` stages from `edges` (`from -> to`).
    ///
    /// Each stage's children and parents appear in the order of their
    /// edges in `edges`.  The result, and the error for an invalid list, is
    /// what adding the edges one at a time would give: the first edge in
    /// list order that names a stage outside `0..n`
    /// ([`DagError::UnknownStage`], `from` checked before `to`), is a
    /// self-loop ([`DagError::SelfLoop`]), or repeats an earlier edge
    /// ([`DagError::DuplicateEdge`]) is reported.  Cycles are not checked
    /// here; see [`Adjacency::topological_order`].
    pub fn from_edges(n: usize, edges: &[(StageId, StageId)]) -> Result<Self, DagError> {
        // Edges before the first malformed one are valid on their own; a
        // duplicate among them is the earlier error.
        let first_err = edges.iter().enumerate().find_map(|(k, &(from, to))| {
            let err = if from.index() >= n {
                DagError::UnknownStage { stage: from }
            } else if to.index() >= n {
                DagError::UnknownStage { stage: to }
            } else if from == to {
                DagError::SelfLoop { stage: from }
            } else {
                return None;
            };
            Some((k, err))
        });
        let edges = &edges[..first_err.as_ref().map_or(edges.len(), |(k, _)| *k)];
        let (child_offsets, children) = csr(n, edges.iter().copied());
        let (parent_offsets, parents) = csr(n, edges.iter().map(|&(f, t)| (t, f)));
        let adjacency = Adjacency { child_offsets, children, parent_offsets, parents };
        let has_duplicate = (0..n as u32).map(StageId).any(|s| {
            let list = adjacency.children(s);
            (1..list.len()).any(|i| list[..i].contains(&list[i]))
        });
        if has_duplicate {
            // Error path only: name the first repeat in list order.
            let k = (1..edges.len())
                .find(|&k| edges[..k].contains(&edges[k]))
                .expect("a stage lists a child twice, so some edge repeats");
            let (from, to) = edges[k];
            return Err(DagError::DuplicateEdge { from, to });
        }
        match first_err {
            Some((_, err)) => Err(err),
            None => Ok(adjacency),
        }
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.child_offsets.len() - 1
    }

    /// True if there are no stages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.children.len()
    }

    /// Stages that directly depend on `s`.
    pub fn children(&self, s: StageId) -> &[StageId] {
        let i = s.index();
        &self.children[self.child_offsets[i] as usize..self.child_offsets[i + 1] as usize]
    }

    /// Stages that `s` directly depends on.
    pub fn parents(&self, s: StageId) -> &[StageId] {
        let i = s.index();
        &self.parents[self.parent_offsets[i] as usize..self.parent_offsets[i + 1] as usize]
    }

    /// Stages with no parents (ready as soon as the job arrives).
    pub fn sources(&self) -> Vec<StageId> {
        (0..self.len() as u32)
            .map(StageId)
            .filter(|s| self.parents(*s).is_empty())
            .collect()
    }

    /// Stages with no children (the job completes when these complete).
    pub fn sinks(&self) -> Vec<StageId> {
        (0..self.len() as u32)
            .map(StageId)
            .filter(|s| self.children(*s).is_empty())
            .collect()
    }

    /// Kahn's algorithm.  Returns a topological order or an error naming a
    /// stage that is part of (or blocked behind) a cycle.
    pub fn topological_order(&self) -> Result<Vec<StageId>, DagError> {
        let n = self.len();
        let mut indeg: Vec<u32> = self.parent_offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let mut queue: VecDeque<StageId> = (0..n as u32)
            .map(StageId)
            .filter(|s| indeg[s.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(s) = queue.pop_front() {
            order.push(s);
            for &c in self.children(s) {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    queue.push_back(c);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            let stuck = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| StageId(i as u32))
                .expect("some stage must have positive in-degree if order is incomplete");
            Err(DagError::CycleDetected { stage: stuck })
        }
    }

    /// Returns `true` if `to` is reachable from `from` by following edges.
    pub fn reachable(&self, from: StageId, to: StageId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(s) = stack.pop() {
            for &c in self.children(s) {
                if c == to {
                    return true;
                }
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    stack.push(c);
                }
            }
        }
        false
    }

    /// All stages reachable from `s` (excluding `s` itself): its transitive
    /// dependents.
    pub fn descendants(&self, s: StageId) -> Vec<StageId> {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![s];
        let mut out = Vec::new();
        while let Some(u) = stack.pop() {
            for &c in self.children(u) {
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    out.push(c);
                    stack.push(c);
                }
            }
        }
        out.sort();
        out
    }

    /// All stages from which `s` is reachable (excluding `s` itself): its
    /// transitive prerequisites.
    pub fn ancestors(&self, s: StageId) -> Vec<StageId> {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![s];
        let mut out = Vec::new();
        while let Some(u) = stack.pop() {
            for &p in self.parents(u) {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    out.push(p);
                    stack.push(p);
                }
            }
        }
        out.sort();
        out
    }
}

/// One direction of a CSR adjacency: counts each key's entries, turns the
/// counts into offsets, then places every `(key, value)` pair in input
/// order.  Keys must be below `n`.
fn csr(
    n: usize,
    pairs: impl Iterator<Item = (StageId, StageId)> + Clone,
) -> (Vec<u32>, Vec<StageId>) {
    // `offsets[s + 1]` counts key `s`; the prefix sum makes `offsets[s]`
    // the start of `s`'s run.  Filling advances `offsets[s]` to the end of
    // the run, and the final shift restores the starts.
    let mut offsets = vec![0u32; n + 1];
    let mut len = 0;
    for (key, _) in pairs.clone() {
        offsets[key.index() + 1] += 1;
        len += 1;
    }
    for s in 1..=n {
        offsets[s] += offsets[s - 1];
    }
    let mut values = vec![StageId(0); len];
    for (key, value) in pairs {
        let slot = &mut offsets[key.index()];
        values[*slot as usize] = value;
        *slot += 1;
    }
    offsets.copy_within(0..n, 1);
    offsets[0] = 0;
    (offsets, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(u32, u32)]) -> Vec<(StageId, StageId)> {
        pairs.iter().map(|&(f, t)| (StageId(f), StageId(t))).collect()
    }

    /// Diamond: 0 -> {1,2} -> 3
    fn diamond() -> Adjacency {
        Adjacency::from_edges(4, &edges(&[(0, 1), (0, 2), (1, 3), (2, 3)])).unwrap()
    }

    #[test]
    fn sources_and_sinks() {
        let a = diamond();
        assert_eq!(a.sources(), vec![StageId(0)]);
        assert_eq!(a.sinks(), vec![StageId(3)]);
        assert_eq!(a.num_edges(), 4);
    }

    #[test]
    fn parents_and_children() {
        let a = diamond();
        assert_eq!(a.children(StageId(0)), &[StageId(1), StageId(2)]);
        assert_eq!(a.parents(StageId(3)), &[StageId(1), StageId(2)]);
        assert!(a.parents(StageId(0)).is_empty());
    }

    #[test]
    fn topological_order_respects_edges() {
        let a = diamond();
        let order = a.topological_order().unwrap();
        let pos = |s: StageId| order.iter().position(|&x| x == s).unwrap();
        assert!(pos(StageId(0)) < pos(StageId(1)));
        assert!(pos(StageId(0)) < pos(StageId(2)));
        assert!(pos(StageId(1)) < pos(StageId(3)));
        assert!(pos(StageId(2)) < pos(StageId(3)));
    }

    #[test]
    fn cycle_detection() {
        let a = Adjacency::from_edges(3, &edges(&[(0, 1), (1, 2), (2, 0)])).unwrap();
        match a.topological_order() {
            Err(DagError::CycleDetected { .. }) => {}
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn self_loop_rejected() {
        assert_eq!(
            Adjacency::from_edges(2, &edges(&[(1, 1)])),
            Err(DagError::SelfLoop { stage: StageId(1) })
        );
    }

    #[test]
    fn duplicate_edge_rejected() {
        assert_eq!(
            Adjacency::from_edges(2, &edges(&[(0, 1), (0, 1)])),
            Err(DagError::DuplicateEdge {
                from: StageId(0),
                to: StageId(1)
            })
        );
    }

    #[test]
    fn unknown_stage_rejected() {
        assert_eq!(
            Adjacency::from_edges(2, &edges(&[(0, 5)])),
            Err(DagError::UnknownStage { stage: StageId(5) })
        );
    }

    #[test]
    fn reachability_and_closure() {
        let a = diamond();
        assert!(a.reachable(StageId(0), StageId(3)));
        assert!(!a.reachable(StageId(1), StageId(2)));
        assert!(a.reachable(StageId(2), StageId(2)));
        assert_eq!(a.descendants(StageId(0)), vec![StageId(1), StageId(2), StageId(3)]);
        assert_eq!(a.ancestors(StageId(3)), vec![StageId(0), StageId(1), StageId(2)]);
        assert!(a.descendants(StageId(3)).is_empty());
        assert!(a.ancestors(StageId(0)).is_empty());
    }

    #[test]
    fn empty_graph() {
        let a = Adjacency::from_edges(0, &[]).unwrap();
        assert!(a.is_empty());
        assert!(a.topological_order().unwrap().is_empty());
    }
}
