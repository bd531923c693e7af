//! Machine-readable account of a planning decision.
//!
//! The report exists so experiments can assert *why* a placement looks
//! the way it does: predicted phase rates, the binding resource, how
//! many candidates were weighed and rejected, and the final
//! per-instance assignment. Rendering is hand-built JSON with fixed
//! number formatting — byte-identical across same-input runs.

use crate::estimate::Estimate;
use crate::model::PlanSpec;
use lmas_core::ClusterShape;
use lmas_core::placement::NodeId;
use std::fmt::Write as _;

/// Predicted throughput of one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRate {
    /// Stage name.
    pub name: String,
    /// Chosen replication degree.
    pub replication: usize,
    /// Predicted records/sec through the stage (0 for no-work stages).
    pub records_per_sec: f64,
    /// Stage occupancy in nanoseconds.
    pub busy_ns: u64,
}

/// Which resource binds one stage, and by how much: the per-resource
/// occupancy (ns) on the stage's most loaded node.
#[derive(Debug, Clone, PartialEq)]
pub struct StageBinding {
    /// Stage name.
    pub name: String,
    /// CPU occupancy on the most loaded node.
    pub cpu_ns: u64,
    /// Disk occupancy (coded replicated writes included).
    pub disk_ns: u64,
    /// Outbound NIC occupancy of the stage's out-edge.
    pub nic_ns: u64,
    /// The binding resource class: `cpu`, `disk`, or `nic`.
    pub binds: String,
}

/// One point of the coded-shuffle tradeoff curve: what the estimator
/// predicts for a candidate broadcast-group size `r`.
#[derive(Debug, Clone, PartialEq)]
pub struct CodedPoint {
    /// Candidate broadcast-group size.
    pub r: usize,
    /// Best predicted makespan at this `r` (ns).
    pub predicted_makespan_ns: u64,
    /// Predicted shuffle payload bytes on the wire (≈ uncoded / r).
    pub predicted_nic_bytes: u64,
    /// Extra replicated-write bytes the senders pay for this `r`.
    pub extra_disk_bytes: u64,
}

/// The planner's decision record.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// Predicted makespan, nanoseconds.
    pub predicted_makespan_ns: u64,
    /// The binding resource, e.g. `cpu:asu0` or `pipeline:collect`.
    pub bottleneck: String,
    /// Per-stage predicted rates.
    pub stage_rates: Vec<StageRate>,
    /// Per-stage resource attribution (which of CPU/disk/NIC binds).
    pub stage_bindings: Vec<StageBinding>,
    /// Aggregate CPU nanoseconds per node (planner node order).
    pub node_cpu_ns: Vec<(String, u64)>,
    /// Aggregate disk nanoseconds per node (planner node order).
    pub node_disk_ns: Vec<(String, u64)>,
    /// Aggregate outbound NIC nanoseconds per node (planner node order).
    pub node_nic_ns: Vec<(String, u64)>,
    /// Predicted coded-shuffle tradeoff curve (empty when no r-sweep
    /// ran); the winning `r` is the curve's minimum makespan.
    pub coded_curve: Vec<CodedPoint>,
    /// Final assignment: stage name → node name per instance.
    pub assignments: Vec<(String, Vec<String>)>,
    /// Candidate specs weighed (≥ 1; > 1 when replication was
    /// enumerated).
    pub candidates_considered: usize,
    /// Candidates discarded for a worse predicted makespan (or a
    /// planning error).
    pub candidates_rejected: usize,
    /// Local-search moves (migrate/swap) the refiner applied.
    pub moves_applied: usize,
}

impl PlanReport {
    /// Build the report for a finished plan.
    pub fn from_plan(
        spec: &PlanSpec,
        _shape: &ClusterShape,
        asg: &[Vec<NodeId>],
        est: &Estimate,
        moves_applied: usize,
    ) -> PlanReport {
        let stage_rates = spec
            .stages
            .iter()
            .enumerate()
            .map(|(s, st)| {
                let rate = est.stage_rate(spec, s);
                StageRate {
                    name: st.name.clone(),
                    replication: st.replication,
                    records_per_sec: if rate.is_finite() { rate } else { 0.0 },
                    busy_ns: est.stage_busy_ns[s] as u64,
                }
            })
            .collect();
        PlanReport {
            predicted_makespan_ns: est.makespan_ns as u64,
            bottleneck: est.bottleneck.to_string(),
            stage_rates,
            stage_bindings: spec
                .stages
                .iter()
                .zip(&est.stage_resources)
                .map(|(st, res)| StageBinding {
                    name: st.name.clone(),
                    cpu_ns: res.cpu_ns as u64,
                    disk_ns: res.disk_ns as u64,
                    nic_ns: res.nic_ns as u64,
                    binds: res.binds().to_string(),
                })
                .collect(),
            node_cpu_ns: est
                .node_cpu_ns
                .iter()
                .map(|(n, ns)| (n.to_string(), *ns as u64))
                .collect(),
            node_disk_ns: est
                .node_disk_ns
                .iter()
                .map(|(n, ns)| (n.to_string(), *ns as u64))
                .collect(),
            node_nic_ns: est
                .node_nic_ns
                .iter()
                .map(|(n, ns)| (n.to_string(), *ns as u64))
                .collect(),
            coded_curve: Vec::new(),
            assignments: spec
                .stages
                .iter()
                .zip(asg)
                .map(|(st, nodes)| {
                    (
                        st.name.clone(),
                        nodes.iter().map(|n| n.to_string()).collect(),
                    )
                })
                .collect(),
            candidates_considered: 1,
            candidates_rejected: 0,
            moves_applied,
        }
    }

    /// Render as deterministic JSON.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"predicted_makespan_ns\": {},",
            self.predicted_makespan_ns
        );
        let _ = writeln!(out, "  \"bottleneck\": \"{}\",", self.bottleneck);
        let _ = writeln!(
            out,
            "  \"candidates\": {{ \"considered\": {}, \"rejected\": {} }},",
            self.candidates_considered, self.candidates_rejected
        );
        let _ = writeln!(out, "  \"moves_applied\": {},", self.moves_applied);
        out.push_str("  \"stages\": [\n");
        for (i, r) in self.stage_rates.iter().enumerate() {
            let comma = if i + 1 < self.stage_rates.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{ \"name\": \"{}\", \"replication\": {}, \
                 \"records_per_sec\": {:.1}, \"busy_ns\": {} }}{comma}",
                r.name, r.replication, r.records_per_sec, r.busy_ns
            );
        }
        out.push_str("  ],\n  \"stage_bindings\": [\n");
        for (i, b) in self.stage_bindings.iter().enumerate() {
            let comma = if i + 1 < self.stage_bindings.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{ \"name\": \"{}\", \"cpu_ns\": {}, \"disk_ns\": {}, \
                 \"nic_ns\": {}, \"binds\": \"{}\" }}{comma}",
                b.name, b.cpu_ns, b.disk_ns, b.nic_ns, b.binds
            );
        }
        out.push_str("  ],\n  \"coded_curve\": [\n");
        for (i, p) in self.coded_curve.iter().enumerate() {
            let comma = if i + 1 < self.coded_curve.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{ \"r\": {}, \"predicted_makespan_ns\": {}, \
                 \"predicted_nic_bytes\": {}, \"extra_disk_bytes\": {} }}{comma}",
                p.r, p.predicted_makespan_ns, p.predicted_nic_bytes, p.extra_disk_bytes
            );
        }
        out.push_str("  ],\n  \"node_cpu_ns\": {\n");
        for (i, (n, ns)) in self.node_cpu_ns.iter().enumerate() {
            let comma = if i + 1 < self.node_cpu_ns.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{n}\": {ns}{comma}");
        }
        out.push_str("  },\n  \"node_disk_ns\": {\n");
        for (i, (n, ns)) in self.node_disk_ns.iter().enumerate() {
            let comma = if i + 1 < self.node_disk_ns.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{n}\": {ns}{comma}");
        }
        out.push_str("  },\n  \"node_nic_ns\": {\n");
        for (i, (n, ns)) in self.node_nic_ns.iter().enumerate() {
            let comma = if i + 1 < self.node_nic_ns.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{n}\": {ns}{comma}");
        }
        out.push_str("  },\n  \"assignments\": {\n");
        for (i, (stage, nodes)) in self.assignments.iter().enumerate() {
            let comma = if i + 1 < self.assignments.len() { "," } else { "" };
            let list = nodes
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "    \"{stage}\": [{list}]{comma}");
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PlanEdge, StageSpec};
    use crate::search::plan;
    use lmas_core::cost::Work;
    use lmas_core::functor::FunctorKind;

    #[test]
    fn report_json_is_well_formed_and_stable() {
        let spec = PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new(
                    "src",
                    2,
                    FunctorKind::AsuEligible { max_state_bytes: 0 },
                )
                .with_source(128 * 10_000)
                .with_work(Work::moves(1), 10_000)
                .pinned_per_asu(2),
                StageSpec::new("sink", 1, FunctorKind::HostOnly)
                    .with_work(Work::compares(4), 10_000),
            ],
            edges: vec![PlanEdge { from: 0, to: 1 }],
        };
        let shape = ClusterShape::era_2002(1, 2, 8.0);
        let out = plan(&spec, &shape).expect("plans");
        let json = out.report.render_json();
        for needle in [
            "\"predicted_makespan_ns\"",
            "\"bottleneck\"",
            "\"candidates\"",
            "\"stages\"",
            "\"stage_bindings\"",
            "\"binds\"",
            "\"coded_curve\"",
            "\"node_disk_ns\"",
            "\"node_nic_ns\"",
            "\"assignments\"",
            "\"src\": [\"asu0\", \"asu1\"]",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Every stage carries an attribution verdict.
        assert_eq!(out.report.stage_bindings.len(), 2);
        for b in &out.report.stage_bindings {
            assert!(["cpu", "disk", "nic"].contains(&b.binds.as_str()));
        }
        assert_eq!(json, out.report.render_json());
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced JSON:\n{json}");
    }
}
