//! Placement search: deterministic greedy construction plus
//! first-improvement local search over the analytic estimator.
//!
//! The search space is the assignment of every `(stage, instance)` to a
//! node, subject to pins (data residency) and the functor's placement
//! contract. Moves are *migrate* (one instance to another feasible
//! node) and *swap* (exchange the nodes of two instances of different
//! stages); *re-replicate* is handled one level up by
//! [`plan_best`](crate::search::plan_best), which scores one fully
//! planned candidate per replication degree. The search has no RNG:
//! same spec + shape → byte-identical placement and report.

use crate::estimate::{estimate_residual, Estimate};
use crate::model::{PlanError, PlanSpec};
use lmas_core::ClusterShape;
use crate::report::PlanReport;
use crate::residual::ResidualCapacity;
use lmas_core::placement::{NodeId, Placement, StageId};

/// A finished plan: the validated placement plus its report.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The assignment, ready for the emulator.
    pub placement: Placement,
    /// Machine-readable account of the decision.
    pub report: PlanReport,
    /// Raw per-stage, per-instance node assignment.
    pub assignment: Vec<Vec<NodeId>>,
    /// The estimator's verdict on the final assignment.
    pub estimate: Estimate,
}

/// Search knobs (fixed defaults keep runs identical across sessions).
const MAX_ROUNDS: usize = 8;
const MAX_MOVES: usize = 512;
/// Improvement threshold in nanoseconds: moves must beat the incumbent
/// by a full nanosecond to be taken, so f64 dust cannot flip decisions.
const EPS_NS: f64 = 1.0;

/// Secondary objective: sum of squared per-node CPU demand. The
/// makespan is a *max* over node bounds, so unloading one of several
/// equally saturated nodes leaves it flat — a plateau first-improvement
/// search cannot cross (moving each of four overloaded instances helps
/// only once all four have moved). Accepting makespan-neutral moves
/// that strictly reduce this imbalance walks the search off such
/// plateaus deterministically.
fn imbalance(e: &Estimate) -> f64 {
    e.node_cpu_ns.iter().map(|(_, c)| c * c).sum()
}

/// Feasible nodes for a stage, in planner order (hosts, then ASUs).
fn candidates(
    spec: &PlanSpec,
    shape: &ClusterShape,
    s: usize,
) -> Vec<NodeId> {
    let st = &spec.stages[s];
    if st.kind.asu_placeable(shape.asu_mem) {
        shape.nodes()
    } else {
        (0..shape.hosts).map(NodeId::Host).collect()
    }
}

/// Plan a single spec: seed an assignment, refine it, validate it.
pub fn plan(
    spec: &PlanSpec,
    shape: &ClusterShape,
) -> Result<PlanOutcome, PlanError> {
    plan_residual(spec, shape, &ResidualCapacity::full(shape.total_nodes()))
}

/// [`plan`], but scored against the residual capacity of a cluster
/// with other jobs running (see
/// [`estimate_residual`](crate::estimate::estimate_residual)): the
/// search places this job *around* the occupied nodes. A
/// [`ResidualCapacity::full`] view reproduces [`plan`] bit for bit.
pub fn plan_residual(
    spec: &PlanSpec,
    shape: &ClusterShape,
    res: &ResidualCapacity,
) -> Result<PlanOutcome, PlanError> {
    if res.len() != shape.total_nodes() {
        return Err(PlanError::ResidualShape {
            expected: shape.total_nodes(),
            got: res.len(),
        });
    }
    let estimate = |spec: &PlanSpec,
                    shape: &ClusterShape,
                    asg: &[Vec<NodeId>],
                    topo: &[usize]|
     -> Estimate { estimate_residual(spec, shape, asg, topo, res) };
    let topo = spec.topo_order()?;
    let nstages = spec.stages.len();

    // Feasibility and pin validation up front.
    let cands: Vec<Vec<NodeId>> =
        (0..nstages).map(|s| candidates(spec, shape, s)).collect();
    for (s, st) in spec.stages.iter().enumerate() {
        if cands[s].is_empty() {
            return Err(PlanError::NoFeasibleNode { stage: s });
        }
        for pin in st.pinned.iter().flatten() {
            let in_cluster = match *pin {
                NodeId::Host(i) => i < shape.hosts,
                NodeId::Asu(i) => i < shape.asus,
            };
            if !in_cluster || (pin.is_asu() && !st.kind.asu_placeable(shape.asu_mem))
            {
                return Err(PlanError::BadPin { stage: s });
            }
        }
    }

    // Greedy seed: stages in topo order, instances dealt round-robin
    // across the feasible nodes. Pins win outright.
    let mut asg: Vec<Vec<NodeId>> = vec![Vec::new(); nstages];
    for &s in &topo {
        let st = &spec.stages[s];
        asg[s] = (0..st.replication)
            .map(|i| {
                st.pinned
                    .get(i)
                    .copied()
                    .flatten()
                    .unwrap_or(cands[s][i % cands[s].len()])
            })
            .collect();
    }

    // First-improvement local search: migrate, then swap, to fixpoint.
    // A move is taken when it beats the incumbent makespan, or holds it
    // while strictly evening out per-node CPU demand (plateau escape).
    let mut best = estimate(spec, shape, &asg, &topo);
    let mut best_imb = imbalance(&best);
    let mut moves_applied = 0usize;
    let pinned = |s: usize, i: usize| -> bool {
        spec.stages[s].pinned.get(i).copied().flatten().is_some()
    };
    let accepts = |e: &Estimate, best: &Estimate, best_imb: f64| -> bool {
        e.makespan_ns < best.makespan_ns - EPS_NS
            || (e.makespan_ns < best.makespan_ns + EPS_NS
                && imbalance(e) < best_imb - 1.0)
    };
    'search: for _round in 0..MAX_ROUNDS {
        let mut improved = false;
        // Migrate: every unpinned instance tries every other node.
        for s in 0..nstages {
            for i in 0..spec.stages[s].replication {
                if pinned(s, i) {
                    continue;
                }
                let cur = asg[s][i];
                for &cand in &cands[s] {
                    if cand == cur {
                        continue;
                    }
                    asg[s][i] = cand;
                    let e = estimate(spec, shape, &asg, &topo);
                    if accepts(&e, &best, best_imb) {
                        best_imb = imbalance(&e);
                        best = e;
                        improved = true;
                        moves_applied += 1;
                        if moves_applied >= MAX_MOVES {
                            break 'search;
                        }
                        break; // keep this node, rescan later
                    }
                    asg[s][i] = cur;
                }
            }
        }
        // Swap: exchange nodes across stage pairs (useful when both
        // stages are at their per-stage optimum but contend on a node).
        for s in 0..nstages {
            for t in (s + 1)..nstages {
                for i in 0..spec.stages[s].replication {
                    for j in 0..spec.stages[t].replication {
                        if pinned(s, i) || pinned(t, j) {
                            continue;
                        }
                        let (a, b) = (asg[s][i], asg[t][j]);
                        if a == b
                            || !cands[s].contains(&b)
                            || !cands[t].contains(&a)
                        {
                            continue;
                        }
                        asg[s][i] = b;
                        asg[t][j] = a;
                        let e = estimate(spec, shape, &asg, &topo);
                        if accepts(&e, &best, best_imb) {
                            best_imb = imbalance(&e);
                            best = e;
                            improved = true;
                            moves_applied += 1;
                            if moves_applied >= MAX_MOVES {
                                break 'search;
                            }
                        } else {
                            asg[s][i] = a;
                            asg[t][j] = b;
                        }
                    }
                }
            }
        }
        // Rehome: a stage straddling slow nodes can sit behind a
        // multi-move barrier — migrating any single replica off a slow
        // node looks worse until the *last* one leaves, because the
        // slowest remaining replica still paces the whole stage while
        // the fast node's backlog grows. Jumping every unpinned replica
        // of the stage onto the host candidates (round-robin) crosses
        // that barrier as one compound move.
        for s in 0..nstages {
            let hosts: Vec<NodeId> = cands[s]
                .iter()
                .copied()
                .filter(|n| !n.is_asu())
                .collect();
            if hosts.is_empty() {
                continue;
            }
            let saved = asg[s].clone();
            let mut dealt = 0usize;
            for (i, slot) in asg[s].iter_mut().enumerate() {
                if !pinned(s, i) {
                    *slot = hosts[dealt % hosts.len()];
                    dealt += 1;
                }
            }
            if asg[s] == saved {
                continue;
            }
            let e = estimate(spec, shape, &asg, &topo);
            if accepts(&e, &best, best_imb) {
                best_imb = imbalance(&e);
                best = e;
                improved = true;
                moves_applied += 1;
                if moves_applied >= MAX_MOVES {
                    break 'search;
                }
            } else {
                asg[s] = saved;
            }
        }
        if !improved {
            break;
        }
    }

    // Canonical form: instances of one stage are symmetric in the model
    // (each carries the same share of records), so permuting a stage's
    // nodes across its unpinned instances estimates identically. Sort
    // each stage's unpinned nodes (hosts first, then ASUs, index
    // ascending) so tied layouts always materialize the same way —
    // e.g. k = 1 all-on-hosts becomes the paper's contiguous static
    // assignment instead of an artifact of move order. Re-score so the
    // report describes exactly the assignment handed out.
    for (s, stage_nodes) in asg.iter_mut().enumerate() {
        let unpinned: Vec<usize> = (0..spec.stages[s].replication)
            .filter(|&i| !pinned(s, i))
            .collect();
        let mut nodes: Vec<NodeId> =
            unpinned.iter().map(|&i| stage_nodes[i]).collect();
        nodes.sort_by_key(|n| match *n {
            NodeId::Host(i) => (0, i),
            NodeId::Asu(i) => (1, i),
        });
        for (&i, &n) in unpinned.iter().zip(&nodes) {
            stage_nodes[i] = n;
        }
    }
    best = estimate(spec, shape, &asg, &topo);

    // Materialize and self-check: an invalid placement is a typed
    // planner bug, never an artifact handed to the caller.
    let mut placement = Placement::new();
    for (s, nodes) in asg.iter().enumerate() {
        for (i, &node) in nodes.iter().enumerate() {
            placement.assign(StageId(s), i, node);
        }
    }
    placement
        .validate(&spec.placement_rows(), shape.asu_mem)
        .map_err(PlanError::Invalid)?;

    let report = PlanReport::from_plan(spec, shape, &asg, &best, moves_applied);
    Ok(PlanOutcome {
        placement,
        report,
        assignment: asg,
        estimate: best,
    })
}

/// Plan every candidate spec (e.g. one per replication degree) and keep
/// the one with the lowest predicted makespan; ties go to the earliest
/// candidate. Returns the winning index and its outcome, with the
/// report's candidate counters filled in.
pub fn plan_best(
    specs: &[PlanSpec],
    shape: &ClusterShape,
) -> Result<(usize, PlanOutcome), PlanError> {
    plan_best_residual(specs, shape, &ResidualCapacity::full(shape.total_nodes()))
}

/// [`plan_best`], scored against residual capacity (see
/// [`plan_residual`]); the winning candidate minimizes the predicted
/// makespan *on the shared cluster*.
pub fn plan_best_residual(
    specs: &[PlanSpec],
    shape: &ClusterShape,
    res: &ResidualCapacity,
) -> Result<(usize, PlanOutcome), PlanError> {
    if specs.is_empty() {
        return Err(PlanError::EmptySpec);
    }
    let mut winner: Option<(usize, PlanOutcome)> = None;
    let mut rejected = 0usize;
    let mut last_err = None;
    for (k, spec) in specs.iter().enumerate() {
        match plan_residual(spec, shape, res) {
            Ok(outcome) => {
                let better = winner
                    .as_ref()
                    .map(|(_, w)| {
                        outcome.estimate.makespan_ns
                            < w.estimate.makespan_ns - EPS_NS
                    })
                    .unwrap_or(true);
                if better {
                    if winner.is_some() {
                        rejected += 1;
                    }
                    winner = Some((k, outcome));
                } else {
                    rejected += 1;
                }
            }
            Err(e) => {
                rejected += 1;
                last_err = Some(e);
            }
        }
    }
    match winner {
        Some((k, mut outcome)) => {
            outcome.report.candidates_considered = specs.len();
            outcome.report.candidates_rejected = rejected;
            Ok((k, outcome))
        }
        None => Err(last_err.unwrap_or(PlanError::EmptySpec)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PlanEdge, StageSpec};
    use lmas_core::cost::Work;
    use lmas_core::functor::FunctorKind;

    fn eligible() -> FunctorKind {
        FunctorKind::AsuEligible { max_state_bytes: 0 }
    }

    /// A source on ASUs feeding a CPU-heavy stage: the planner must put
    /// the heavy stage on the fast hosts, not the 1/8-speed ASUs.
    #[test]
    fn planner_moves_heavy_work_to_hosts() {
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("scan", 2, eligible())
                    .with_source(128 * 400_000)
                    .with_work(Work::moves(1), 400_000)
                    .pinned_per_asu(2),
                StageSpec::new("crunch", 2, eligible())
                    .with_work(Work::compares(32) + Work::moves(1), 400_000),
            ],
            edges: vec![PlanEdge { from: 0, to: 1 }],
        };
        let shape = ClusterShape::era_2002(2, 2, 8.0);
        let out = plan(&spec, &shape).expect("plans");
        for i in 0..2 {
            let node = out.placement.node_of(StageId(1), i).unwrap();
            assert!(
                !node.is_asu(),
                "heavy stage instance {i} landed on {node}"
            );
        }
        // Pins survived.
        assert_eq!(
            out.placement.node_of(StageId(0), 1),
            Some(NodeId::Asu(1))
        );
    }

    /// Light relay work next to pinned data should stay on the ASU
    /// rather than drag every record across a slow link twice.
    #[test]
    fn planner_keeps_light_work_near_data() {
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("scan", 1, eligible())
                    .with_source(128 * 2_000_000)
                    .with_work(Work::ZERO, 2_000_000)
                    .pinned_per_asu(1),
                StageSpec::new("relay", 1, eligible())
                    .with_work(Work::ZERO, 2_000_000),
                StageSpec::new("store", 1, eligible())
                    .with_work(Work::ZERO, 2_000_000)
                    .with_sink_bytes(128 * 2_000_000)
                    .pinned_per_asu(1),
            ],
            edges: vec![
                PlanEdge { from: 0, to: 1 },
                PlanEdge { from: 1, to: 2 },
            ],
        };
        // A 10 MB/s link makes off-node routing ruinously expensive.
        let shape = ClusterShape {
            link_rate: 10.0e6,
            ..ClusterShape::era_2002(1, 1, 8.0)
        };
        let out = plan(&spec, &shape).expect("plans");
        let relay = out.placement.node_of(StageId(1), 0).unwrap();
        assert!(
            relay.is_asu(),
            "zero-cost relay left the data path: {relay}"
        );
    }

    #[test]
    fn host_only_stage_on_hostless_cluster_is_typed_error() {
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![StageSpec::new("m", 1, FunctorKind::HostOnly)],
            edges: vec![],
        };
        let shape = ClusterShape::era_2002(0, 2, 8.0);
        assert_eq!(
            plan(&spec, &shape).unwrap_err(),
            PlanError::NoFeasibleNode { stage: 0 }
        );
    }

    #[test]
    fn bad_pin_rejected() {
        // Pin onto an ASU that does not exist.
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![StageSpec::new("s", 1, eligible())
                .with_pins(vec![Some(NodeId::Asu(7))])],
            edges: vec![],
        };
        let shape = ClusterShape::era_2002(1, 2, 8.0);
        assert_eq!(
            plan(&spec, &shape).unwrap_err(),
            PlanError::BadPin { stage: 0 }
        );
        // Pin a host-only stage onto an ASU.
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![StageSpec::new("m", 1, FunctorKind::HostOnly)
                .with_pins(vec![Some(NodeId::Asu(0))])],
            edges: vec![],
        };
        assert_eq!(
            plan(&spec, &shape).unwrap_err(),
            PlanError::BadPin { stage: 0 }
        );
    }

    #[test]
    fn plan_is_deterministic() {
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("a", 3, eligible())
                    .with_source(128 * 90_000)
                    .with_work(Work::compares(2), 90_000),
                StageSpec::new("b", 4, eligible())
                    .with_work(Work::compares(9) + Work::moves(1), 90_000),
                StageSpec::new("c", 2, eligible())
                    .with_work(Work::moves(1), 90_000)
                    .with_sink_bytes(128 * 90_000),
            ],
            edges: vec![
                PlanEdge { from: 0, to: 1 },
                PlanEdge { from: 1, to: 2 },
            ],
        };
        let shape = ClusterShape::era_2002(2, 3, 8.0);
        let a = plan(&spec, &shape).expect("plans");
        let b = plan(&spec, &shape).expect("plans");
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(
            a.estimate.makespan_ns.to_bits(),
            b.estimate.makespan_ns.to_bits()
        );
        assert_eq!(a.report.render_json(), b.report.render_json());
    }

    #[test]
    fn residual_search_places_around_loaded_hosts() {
        // Two identical hosts; host 0 is 90% busy with someone else's
        // job. The empty-cluster plan is free to use host 0; the
        // residual plan must put the heavy stage on host 1.
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("scan", 1, eligible())
                    .with_source(128 * 400_000)
                    .with_work(Work::moves(1), 400_000)
                    .pinned_per_asu(1),
                StageSpec::new("crunch", 1, FunctorKind::HostOnly)
                    .with_work(Work::compares(32) + Work::moves(1), 400_000),
            ],
            edges: vec![PlanEdge { from: 0, to: 1 }],
        };
        let shape = ClusterShape::era_2002(2, 1, 8.0);
        let mut res = ResidualCapacity::full(shape.total_nodes());
        res.occupy(0, 0.9, 0.9, 0.9);
        let out = plan_residual(&spec, &shape, &res).expect("plans");
        assert_eq!(
            out.placement.node_of(StageId(1), 0),
            Some(NodeId::Host(1)),
            "crunch must avoid the saturated host"
        );
        // Full residual reproduces plan() exactly.
        let a = plan(&spec, &shape).expect("plans");
        let b = plan_residual(&spec, &shape, &ResidualCapacity::full(shape.total_nodes()))
            .expect("plans");
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.estimate.makespan_ns.to_bits(), b.estimate.makespan_ns.to_bits());
    }

    #[test]
    fn residual_shape_mismatch_is_typed_error() {
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![StageSpec::new("s", 1, eligible())],
            edges: vec![],
        };
        let shape = ClusterShape::era_2002(2, 2, 8.0);
        assert_eq!(
            plan_residual(&spec, &shape, &ResidualCapacity::full(3)).unwrap_err(),
            PlanError::ResidualShape { expected: 4, got: 3 }
        );
    }

    #[test]
    fn plan_best_prefers_lower_makespan_and_counts_rejects() {
        let mk = |repl: usize| PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("src", 2, eligible())
                    .with_source(128 * 500_000)
                    .pinned_per_asu(2),
                StageSpec::new("work", repl, FunctorKind::HostOnly)
                    .with_work(Work::compares(24) + Work::moves(1), 500_000),
            ],
            edges: vec![PlanEdge { from: 0, to: 1 }],
        };
        let shape = ClusterShape::era_2002(4, 2, 8.0);
        let specs: Vec<PlanSpec> = (1..=4).map(mk).collect();
        let (k, out) = plan_best(&specs, &shape).expect("plans");
        assert!(k > 0, "more host parallelism must beat one instance");
        assert_eq!(out.report.candidates_considered, 4);
        assert!(out.report.candidates_rejected >= 1);
    }
}
