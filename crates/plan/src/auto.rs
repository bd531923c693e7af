//! `Placement::auto(...)` — plan a placement straight from a
//! `FlowGraph`.
//!
//! The graph already declares structure (stages, replication, edges,
//! functor kinds, sources); what it cannot know is *volume* — how many
//! records will flow, at what per-record cost, with which instances
//! pinned to resident data. [`GraphHints`] carries exactly that
//! per-stage annotation; [`AutoPlace::auto`] fuses graph + hints into a
//! [`PlanSpec`](crate::model::PlanSpec), runs the planner, and returns
//! a validated placement with its report.

use crate::model::{PlanEdge, PlanError, PlanSpec, StageSpec};
use crate::search::{plan, PlanOutcome};
use lmas_core::ClusterShape;
use lmas_core::cost::Work;
use lmas_core::graph::FlowGraph;
use lmas_core::placement::{NodeId, Placement};
use lmas_core::record::Record;

/// Volume annotation for one stage (parallel to `FlowGraph::stages()`).
#[derive(Debug, Clone, Default)]
pub struct StageHint {
    /// CPU work per record through one instance.
    pub per_record: Work,
    /// Total records entering the stage.
    pub records: u64,
    /// Bytes read from disk (sources).
    pub bytes_in: u64,
    /// Bytes written to disk (sinks).
    pub bytes_out: u64,
    /// Records per inbound packet.
    pub packet_records: u64,
    /// Per-instance flush work.
    pub flush_per_instance: Work,
    /// True when the stage emits only at flush.
    pub blocking: bool,
    /// Data-residency pins; empty = planner's choice.
    pub pinned: Vec<Option<NodeId>>,
}

impl StageHint {
    /// A hint for a streaming stage of `records` at `per_record` each.
    pub fn streaming(per_record: Work, records: u64) -> StageHint {
        StageHint {
            per_record,
            records,
            packet_records: 1024,
            ..StageHint::default()
        }
    }

    /// Mark as a disk source.
    pub fn source(mut self, bytes_in: u64) -> StageHint {
        self.bytes_in = bytes_in;
        self
    }

    /// Mark disk output.
    pub fn sink(mut self, bytes_out: u64) -> StageHint {
        self.bytes_out = bytes_out;
        self
    }

    /// Set the packet grain.
    pub fn packets_of(mut self, records: u64) -> StageHint {
        self.packet_records = records.max(1);
        self
    }

    /// Declare flush work / barrier behavior.
    pub fn flushing(mut self, flush: Work, blocking: bool) -> StageHint {
        self.flush_per_instance = flush;
        self.blocking = blocking;
        self
    }

    /// Pin instance `i` to `Asu(i % asus)`.
    pub fn per_asu(mut self, replication: usize, asus: usize) -> StageHint {
        self.pinned = (0..replication)
            .map(|i| Some(NodeId::Asu(i % asus)))
            .collect();
        self
    }

    /// Pin every instance explicitly.
    pub fn pins(mut self, pins: Vec<Option<NodeId>>) -> StageHint {
        self.pinned = pins;
        self
    }
}

/// Per-stage volume hints for a whole graph, in stage order.
#[derive(Debug, Clone)]
pub struct GraphHints {
    /// Record size in bytes (usually `R::SIZE`).
    pub record_bytes: u64,
    /// One hint per graph stage, in `StageId` order.
    pub stages: Vec<StageHint>,
}

impl GraphHints {
    /// Hints sized for records of `record_bytes`.
    pub fn new(record_bytes: u64) -> GraphHints {
        GraphHints {
            record_bytes,
            stages: Vec::new(),
        }
    }

    /// Append the next stage's hint (call once per stage, in order).
    pub fn stage(mut self, hint: StageHint) -> GraphHints {
        self.stages.push(hint);
        self
    }
}

/// Build a [`PlanSpec`] from a graph and its volume hints.
pub fn spec_from_graph<R: Record>(
    graph: &FlowGraph<R>,
    hints: &GraphHints,
) -> Result<PlanSpec, PlanError> {
    let stages = graph.stages();
    if hints.stages.len() != stages.len() {
        return Err(PlanError::HintMismatch {
            expected: stages.len(),
            got: hints.stages.len(),
        });
    }
    let specs = stages
        .iter()
        .enumerate()
        .zip(&hints.stages)
        .map(|((i, st), h)| StageSpec {
            name: st.name.clone(),
            replication: st.replication,
            kind: st.kind,
            is_source: st.is_source,
            per_record: h.per_record,
            records: h.records,
            bytes_in: h.bytes_in,
            bytes_out: h.bytes_out,
            packet_records: h.packet_records.max(1),
            flush_per_instance: h.flush_per_instance,
            blocking: h.blocking,
            pinned: h.pinned.clone(),
            // The coded broadcast-group size rides the graph's inbound
            // edge; the plan model keys it on the receiving stage.
            coded_group: graph
                .edges()
                .iter()
                .find(|e| e.to.0 == i)
                .map(|e| e.coded_group)
                .unwrap_or(1),
        })
        .collect();
    let edges = graph
        .edges()
        .iter()
        .map(|e| PlanEdge {
            from: e.from.0,
            to: e.to.0,
        })
        .collect();
    Ok(PlanSpec {
        record_bytes: hints.record_bytes,
        stages: specs,
        edges,
    })
}

/// Extension trait putting the planner behind `Placement::auto(...)`.
pub trait AutoPlace {
    /// Plan a placement for `graph` on `shape` using `hints`, returning
    /// the placement together with the plan report.
    fn auto<R: Record>(
        graph: &FlowGraph<R>,
        hints: &GraphHints,
        shape: &ClusterShape,
    ) -> Result<PlanOutcome, PlanError>;
}

impl AutoPlace for Placement {
    fn auto<R: Record>(
        graph: &FlowGraph<R>,
        hints: &GraphHints,
        shape: &ClusterShape,
    ) -> Result<PlanOutcome, PlanError> {
        let spec = spec_from_graph(graph, hints)?;
        plan(&spec, shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmas_core::container::Packet;
    use lmas_core::functor::{Emit, Functor, FunctorKind};
    use lmas_core::graph::EdgeKind;
    use lmas_core::record::Rec128;
    use lmas_core::routing::RoutingPolicy;

    struct Noop(&'static str);
    impl Functor<Rec128> for Noop {
        fn name(&self) -> String {
            self.0.to_string()
        }
        fn kind(&self) -> FunctorKind {
            FunctorKind::AsuEligible { max_state_bytes: 0 }
        }
        fn process(&mut self, input: Packet<Rec128>, out: &mut Emit<Rec128>) {
            out.push0(input);
        }
        fn flush(&mut self, _out: &mut Emit<Rec128>) {}
        fn cost(&self, _input: &Packet<Rec128>) -> Work {
            Work::ZERO
        }
    }

    fn two_stage_graph() -> FlowGraph<Rec128> {
        let mut g = FlowGraph::new();
        let a = g.add_source_stage(2, |_| Box::new(Noop("scan")));
        let b = g.add_stage(2, |_| Box::new(Noop("crunch")));
        g.connect(a, b, RoutingPolicy::RoundRobin, EdgeKind::Set)
            .expect("edge connects");
        g
    }

    #[test]
    fn auto_produces_valid_placement_with_report() {
        let g = two_stage_graph();
        let hints = GraphHints::new(128)
            .stage(
                StageHint::streaming(Work::moves(1), 50_000)
                    .source(128 * 50_000)
                    .per_asu(2, 2),
            )
            .stage(StageHint::streaming(
                Work::compares(16) + Work::moves(1),
                50_000,
            ));
        let shape = ClusterShape::era_2002(1, 2, 8.0);
        let out =
            Placement::auto(&g, &hints, &shape).expect("auto-placement");
        out.placement
            .validate(&g.placement_rows(), shape.asu_mem)
            .expect("planner output validates");
        assert!(out.report.predicted_makespan_ns > 0);
        assert_eq!(out.report.assignments.len(), 2);
    }

    #[test]
    fn hint_count_mismatch_is_typed() {
        let g = two_stage_graph();
        let hints = GraphHints::new(128)
            .stage(StageHint::streaming(Work::ZERO, 1));
        let shape = ClusterShape::era_2002(1, 2, 8.0);
        assert_eq!(
            Placement::auto(&g, &hints, &shape).unwrap_err(),
            PlanError::HintMismatch {
                expected: 2,
                got: 1
            }
        );
    }
}
