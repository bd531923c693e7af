//! Analytic bottleneck-makespan estimator.
//!
//! Scores a candidate assignment without running the emulator. The
//! model is a pipelined critical path over the stage DAG, tightened by
//! per-node resource bounds:
//!
//! * **fill** — `ready(s)`: when the first packet reaches stage `s`
//!   (source read time, plus one packet of upstream processing and a
//!   link hop per edge; a *blocking* upstream stage forwards nothing
//!   until it has drained completely);
//! * **busy** — `busy(s)`: the stage's steady-state occupancy, the max
//!   over nodes of the CPU (and, for sources, disk) time its instances
//!   spend there;
//! * **drain** — `done(s)`: the later of "filled + busy" and "last
//!   upstream packet processed and flushed through `s`";
//! * **node bounds** — no schedule beats the total CPU / disk / NIC
//!   time any single node must serve, offset by when that node first
//!   has work.
//!
//! All arithmetic is f64 over integer inputs in a fixed order — the
//! estimate is a pure deterministic function of (spec, shape,
//! assignment).

use crate::model::PlanSpec;
use lmas_core::ClusterShape;
use crate::residual::ResidualCapacity;
use lmas_core::placement::NodeId;
use std::fmt;

/// What binds the predicted makespan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bottleneck {
    /// The pipelined critical path through a sink stage.
    Pipeline {
        /// Name of the binding sink stage.
        stage: String,
    },
    /// Aggregate CPU demand on one node.
    Cpu {
        /// The saturated node.
        node: NodeId,
    },
    /// Aggregate disk demand on one node.
    Disk {
        /// The saturated node.
        node: NodeId,
    },
    /// Aggregate outbound link demand on one node.
    Link {
        /// The saturated node.
        node: NodeId,
    },
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bottleneck::Pipeline { stage } => write!(f, "pipeline:{stage}"),
            Bottleneck::Cpu { node } => write!(f, "cpu:{node}"),
            Bottleneck::Disk { node } => write!(f, "disk:{node}"),
            Bottleneck::Link { node } => write!(f, "link:{node}"),
        }
    }
}

/// Per-stage demand on each resource class: the max over the nodes the
/// stage's instances occupy of the CPU / disk / outbound-NIC time they
/// spend there. The largest of the three is what binds the stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageResource {
    /// CPU occupancy (ns) on the stage's most loaded node.
    pub cpu_ns: f64,
    /// Disk occupancy (ns), including any coded replicated writes.
    pub disk_ns: f64,
    /// Outbound NIC occupancy (ns) of the stage's out-edge.
    pub nic_ns: f64,
}

impl StageResource {
    /// Which resource class binds this stage.
    pub fn binds(&self) -> &'static str {
        if self.cpu_ns >= self.disk_ns && self.cpu_ns >= self.nic_ns {
            "cpu"
        } else if self.disk_ns >= self.nic_ns {
            "disk"
        } else {
            "nic"
        }
    }
}

/// The estimator's verdict on one assignment.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Predicted makespan in nanoseconds.
    pub makespan_ns: f64,
    /// The binding resource.
    pub bottleneck: Bottleneck,
    /// Per-stage steady-state occupancy (ns), indexed like the spec.
    pub stage_busy_ns: Vec<f64>,
    /// Per-stage completion time (ns), indexed like the spec.
    pub stage_done_ns: Vec<f64>,
    /// Aggregate CPU time per node (planner node order).
    pub node_cpu_ns: Vec<(NodeId, f64)>,
    /// Aggregate disk time per node (planner node order).
    pub node_disk_ns: Vec<(NodeId, f64)>,
    /// Aggregate outbound NIC time per node (planner node order).
    pub node_nic_ns: Vec<(NodeId, f64)>,
    /// Per-stage resource attribution, indexed like the spec.
    pub stage_resources: Vec<StageResource>,
}

impl Estimate {
    /// Predicted throughput of stage `s` in records/sec (its record
    /// volume over its occupancy); infinite for stages with no work.
    pub fn stage_rate(&self, spec: &PlanSpec, s: usize) -> f64 {
        let busy = self.stage_busy_ns[s];
        if busy <= 0.0 {
            f64::INFINITY
        } else {
            spec.stages[s].records as f64 / (busy / 1e9)
        }
    }
}

/// Per-instance record share under even dealing.
fn recs_per_instance(records: u64, replication: usize) -> f64 {
    records as f64 / replication as f64
}

/// Score `asg` (node of every `(stage, instance)`) for `spec` on
/// `shape`. `topo` is the spec's topological order.
pub fn estimate(
    spec: &PlanSpec,
    shape: &ClusterShape,
    asg: &[Vec<NodeId>],
    topo: &[usize],
) -> Estimate {
    estimate_residual(
        spec,
        shape,
        asg,
        topo,
        &ResidualCapacity::full(shape.total_nodes()),
    )
}

/// [`estimate`], but against the *residual* capacity of a cluster with
/// other jobs already running: every node's CPU speed, disk rate, and
/// outbound link rate is scaled by its headroom fraction in `res`
/// (planner node order). `ResidualCapacity::full` reproduces
/// [`estimate`] bit for bit — a rate times 1.0 is the rate.
pub fn estimate_residual(
    spec: &PlanSpec,
    shape: &ClusterShape,
    asg: &[Vec<NodeId>],
    topo: &[usize],
    res: &ResidualCapacity,
) -> Estimate {
    debug_assert_eq!(res.len(), shape.total_nodes());
    let nstages = spec.stages.len();
    let nodes = shape.nodes();
    let node_index = |node: NodeId| -> usize {
        match node {
            NodeId::Host(i) => i,
            NodeId::Asu(i) => shape.hosts + i,
        }
    };
    // Work → ns on a given node, per record and per flush.
    let per_rec_ns = |s: usize, node: NodeId| -> f64 {
        shape
            .cost
            .charge(
                spec.stages[s].per_record,
                shape.node_speed(node) * res.cpu[node_index(node)],
            )
            .as_nanos() as f64
    };
    let flush_ns = |s: usize, node: NodeId| -> f64 {
        shape
            .cost
            .charge(
                spec.stages[s].flush_per_instance,
                shape.node_speed(node) * res.cpu[node_index(node)],
            )
            .as_nanos() as f64
    };
    let disk_ns_per_byte = |node: NodeId| -> f64 {
        1e9 / (shape.disk_rate(node) * res.disk[node_index(node)])
    };
    let link_ns_per_byte =
        |node: NodeId| -> f64 { 1e9 / (shape.link_rate * res.nic[node_index(node)]) };

    // Slowest node hosting each stage (the pipeline's pace setter) and
    // the worst-case flush.
    let slowest_per_rec: Vec<f64> = (0..nstages)
        .map(|s| {
            asg[s]
                .iter()
                .map(|&u| per_rec_ns(s, u))
                .fold(0.0, f64::max)
        })
        .collect();
    let slowest_flush: Vec<f64> = (0..nstages)
        .map(|s| {
            asg[s].iter().map(|&u| flush_ns(s, u)).fold(0.0, f64::max)
        })
        .collect();

    // Per-node aggregates: CPU, disk, outbound NIC, across all stages.
    let mut node_cpu = vec![0.0f64; nodes.len()];
    let mut node_disk = vec![0.0f64; nodes.len()];
    let mut node_nic = vec![0.0f64; nodes.len()];
    for (s, stage_nodes) in asg.iter().enumerate() {
        let st = &spec.stages[s];
        let recs = recs_per_instance(st.records, st.replication);
        for &u in stage_nodes {
            let ui = node_index(u);
            node_cpu[ui] += recs * per_rec_ns(s, u) + flush_ns(s, u);
            if st.bytes_in > 0 {
                node_disk[ui] += st.bytes_in as f64
                    / st.replication as f64
                    * disk_ns_per_byte(u);
            }
            if st.bytes_out > 0 {
                node_disk[ui] += st.bytes_out as f64
                    / st.replication as f64
                    * disk_ns_per_byte(u);
            }
        }
    }
    // Outbound NIC: each record leaving stage `s` for a remote instance
    // of `t` is charged at the sender. With routing spreading records
    // across destinations, the remote fraction for a sender on node `u`
    // is the share of destination instances not on `u`. A coded edge
    // (receiver's `coded_group = r > 1`) coalesces every r remote
    // records into one frame — 1/r of the NIC bytes — and charges the
    // sender an (r-1)-way replicated disk write for the side
    // information.
    let mut stage_nic_on = vec![vec![0.0f64; nodes.len()]; nstages];
    let mut stage_coded_disk_on = vec![vec![0.0f64; nodes.len()]; nstages];
    for e in &spec.edges {
        let st = &spec.stages[e.from];
        let recs = recs_per_instance(st.records, st.replication);
        let dests = &asg[e.to];
        let r = spec.stages[e.to].coded_group.max(1);
        for &u in &asg[e.from] {
            let ui = node_index(u);
            let remote =
                dests.iter().filter(|&&d| d != u).count() as f64
                    / dests.len() as f64;
            let nic = recs * remote * spec.record_bytes as f64
                * link_ns_per_byte(u)
                / r as f64;
            node_nic[ui] += nic;
            stage_nic_on[e.from][ui] += nic;
            if r > 1 {
                let extra = recs
                    * remote
                    * spec.record_bytes as f64
                    * (r - 1) as f64
                    * disk_ns_per_byte(u);
                node_disk[ui] += extra;
                stage_coded_disk_on[e.from][ui] += extra;
            }
        }
    }

    // Per-stage busy: max over nodes of the time this stage's instances
    // occupy that node (CPU overlapped with local disk for sources; a
    // coded out-edge adds its replicated writes to the disk share).
    // Attribution (cpu/disk/nic maxes) is recorded alongside.
    let mut stage_busy = vec![0.0f64; nstages];
    let mut stage_resources = Vec::with_capacity(nstages);
    for s in 0..nstages {
        let st = &spec.stages[s];
        let recs = recs_per_instance(st.records, st.replication);
        let mut cpu_on = vec![0.0f64; nodes.len()];
        let mut disk_on = vec![0.0f64; nodes.len()];
        for &u in &asg[s] {
            let ui = node_index(u);
            cpu_on[ui] += recs * per_rec_ns(s, u) + flush_ns(s, u);
            disk_on[ui] += (st.bytes_in + st.bytes_out) as f64
                / st.replication as f64
                * disk_ns_per_byte(u);
        }
        for ui in 0..nodes.len() {
            disk_on[ui] += stage_coded_disk_on[s][ui];
            // The replicated side-information writes share the device
            // with everything else the node's disk serves (source
            // reads, co-resident sink writes): once coding competes
            // for the disk, the stage cannot finish before the whole
            // device drains.
            if stage_coded_disk_on[s][ui] > 0.0 {
                disk_on[ui] = disk_on[ui].max(node_disk[ui]);
            }
        }
        stage_busy[s] = cpu_on
            .iter()
            .zip(&disk_on)
            .map(|(&c, &d)| c.max(d))
            .fold(0.0, f64::max);
        stage_resources.push(StageResource {
            cpu_ns: cpu_on.iter().copied().fold(0.0, f64::max),
            disk_ns: disk_on.iter().copied().fold(0.0, f64::max),
            nic_ns: stage_nic_on[s].iter().copied().fold(0.0, f64::max),
        });
    }

    // Fill/drain recurrence in topo order.
    let mut ready = vec![0.0f64; nstages];
    let mut done = vec![0.0f64; nstages];
    for &s in topo {
        let st = &spec.stages[s];
        let packet_bytes =
            st.packet_records as f64 * spec.record_bytes as f64;
        let mut rdy = 0.0f64;
        if st.is_source {
            // First packet is one disk read away on the slowest source
            // node.
            rdy = asg[s]
                .iter()
                .map(|&u| packet_bytes * disk_ns_per_byte(u))
                .fold(0.0, f64::max);
        }
        let mut drain_floor = 0.0f64;
        for e in spec.in_edges(s) {
            let up = e.from;
            // A packet pays the link in proportion to how often routing
            // sends it off-node: the fraction of (sender, dest) instance
            // pairs living on different nodes.
            let pairs = (asg[up].len() * asg[s].len()) as f64;
            let remote = asg[up]
                .iter()
                .flat_map(|&a| asg[s].iter().map(move |&b| (a, b)))
                .filter(|(a, b)| a != b)
                .count() as f64
                / pairs;
            // A coded inbound edge ships full-width frames (the byte
            // savings are in frame *count*, charged in `node_nic`), and
            // the first frame only forms once r packets have been
            // produced upstream.
            let rcv = st.coded_group.max(1) as f64;
            // Charged at the slowest sender's residual-scaled link.
            let up_link_ns = asg[up]
                .iter()
                .map(|&u| link_ns_per_byte(u))
                .fold(0.0, f64::max);
            let link = remote
                * (packet_bytes * up_link_ns + shape.link_latency_ns);
            let step =
                spec.stages[up].packet_records as f64 * slowest_per_rec[up];
            let feed = if spec.stages[up].blocking {
                done[up] + link
            } else {
                ready[up] + rcv * step + link
            };
            rdy = rdy.max(feed);
            // Last upstream packet still has to pass through `s`.
            let tail = done[up]
                + link
                + st.packet_records as f64 * slowest_per_rec[s]
                + slowest_flush[s];
            drain_floor = drain_floor.max(tail);
        }
        ready[s] = rdy;
        done[s] = (rdy + stage_busy[s]).max(drain_floor);
    }

    // Critical path: sinks plus their final disk write.
    let mut cp = 0.0f64;
    let mut cp_stage = 0usize;
    for s in 0..nstages {
        if !spec.is_sink(s) {
            continue;
        }
        let st = &spec.stages[s];
        let tail = if st.bytes_out > 0 {
            let packet_bytes =
                st.packet_records as f64 * spec.record_bytes as f64;
            asg[s]
                .iter()
                .map(|&u| packet_bytes * disk_ns_per_byte(u))
                .fold(0.0, f64::max)
        } else {
            0.0
        };
        let t = done[s] + tail;
        if t > cp {
            cp = t;
            cp_stage = s;
        }
    }

    // Node bounds: a node cannot finish before its first work arrives
    // plus everything it must serve.
    let mut first_ready = vec![f64::INFINITY; nodes.len()];
    for s in 0..nstages {
        for &u in &asg[s] {
            let ui = node_index(u);
            first_ready[ui] = first_ready[ui].min(ready[s]);
        }
    }
    let mut best = cp;
    let mut bottleneck = Bottleneck::Pipeline {
        stage: spec.stages[cp_stage].name.clone(),
    };
    for (ui, &node) in nodes.iter().enumerate() {
        if !first_ready[ui].is_finite() {
            continue;
        }
        let base = first_ready[ui];
        for (total, mk) in [
            (node_cpu[ui], 0),
            (node_disk[ui], 1),
            (node_nic[ui], 2),
        ] {
            let bound = base + total;
            if bound > best {
                best = bound;
                bottleneck = match mk {
                    0 => Bottleneck::Cpu { node },
                    1 => Bottleneck::Disk { node },
                    _ => Bottleneck::Link { node },
                };
            }
        }
    }

    Estimate {
        makespan_ns: best,
        bottleneck,
        stage_busy_ns: stage_busy,
        stage_done_ns: done,
        node_cpu_ns: nodes
            .iter()
            .copied()
            .zip(node_cpu.iter().copied())
            .collect(),
        node_disk_ns: nodes
            .iter()
            .copied()
            .zip(node_disk.iter().copied())
            .collect(),
        node_nic_ns: nodes
            .iter()
            .copied()
            .zip(node_nic.iter().copied())
            .collect(),
        stage_resources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PlanEdge, StageSpec};
    use lmas_core::cost::Work;
    use lmas_core::functor::FunctorKind;

    fn two_stage_spec(records: u64) -> PlanSpec {
        let eligible = FunctorKind::AsuEligible { max_state_bytes: 0 };
        PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("read", 1, eligible)
                    .with_source(records * 128)
                    .with_work(Work::moves(1), records),
                StageSpec::new("crunch", 1, FunctorKind::HostOnly)
                    .with_work(Work::compares(8) + Work::moves(1), records),
            ],
            edges: vec![PlanEdge { from: 0, to: 1 }],
        }
    }

    #[test]
    fn offloading_compute_to_slow_node_costs_time() {
        let spec = two_stage_spec(100_000);
        let shape = ClusterShape::era_2002(1, 1, 8.0);
        let topo = spec.topo_order().unwrap();
        let on_host = vec![vec![NodeId::Asu(0)], vec![NodeId::Host(0)]];
        let on_asu = vec![vec![NodeId::Asu(0)], vec![NodeId::Asu(0)]];
        let fast = estimate(&spec, &shape, &on_host, &topo);
        let slow = estimate(&spec, &shape, &on_asu, &topo);
        assert!(
            slow.makespan_ns > 2.0 * fast.makespan_ns,
            "8× slower CPU must dominate: host {} vs asu {}",
            fast.makespan_ns,
            slow.makespan_ns
        );
        assert!(matches!(slow.bottleneck, Bottleneck::Cpu { .. }));
    }

    #[test]
    fn replication_divides_busy_time() {
        let eligible = FunctorKind::AsuEligible { max_state_bytes: 0 };
        let mk = |repl: usize| PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("src", 1, eligible)
                    .with_source(128 * 1_000_000),
                StageSpec::new("work", repl, FunctorKind::HostOnly)
                    .with_work(Work::compares(16), 1_000_000),
            ],
            edges: vec![PlanEdge { from: 0, to: 1 }],
        };
        let shape = ClusterShape::era_2002(4, 1, 8.0);
        let s1 = mk(1);
        let s4 = mk(4);
        let topo = s1.topo_order().unwrap();
        let a1 = vec![vec![NodeId::Asu(0)], vec![NodeId::Host(0)]];
        let a4 = vec![
            vec![NodeId::Asu(0)],
            (0..4).map(NodeId::Host).collect(),
        ];
        let e1 = estimate(&s1, &shape, &a1, &topo);
        let e4 = estimate(&s4, &shape, &a4, &topo);
        assert!(
            e4.stage_busy_ns[1] < e1.stage_busy_ns[1] / 3.0,
            "4-way replication must cut stage occupancy"
        );
        assert!(e4.makespan_ns < e1.makespan_ns);
    }

    #[test]
    fn blocking_stage_serializes_downstream() {
        let eligible = FunctorKind::AsuEligible { max_state_bytes: 0 };
        let mk = |blocking: bool| PlanSpec {
            record_bytes: 128,
            stages: vec![
                StageSpec::new("src", 1, eligible)
                    .with_source(128 * 200_000)
                    .with_work(Work::moves(1), 200_000)
                    .with_flush(Work::ZERO, blocking),
                StageSpec::new("down", 1, FunctorKind::HostOnly)
                    .with_work(Work::moves(1), 200_000),
            ],
            edges: vec![PlanEdge { from: 0, to: 1 }],
        };
        let shape = ClusterShape::era_2002(1, 1, 8.0);
        let topo = mk(false).topo_order().unwrap();
        let asg = vec![vec![NodeId::Asu(0)], vec![NodeId::Host(0)]];
        let streamed = estimate(&mk(false), &shape, &asg, &topo);
        let barrier = estimate(&mk(true), &shape, &asg, &topo);
        assert!(
            barrier.makespan_ns > streamed.makespan_ns,
            "a barrier stage must lengthen the pipeline"
        );
    }

    #[test]
    fn full_residual_estimate_is_bit_identical() {
        let spec = two_stage_spec(77_000);
        let shape = ClusterShape::era_2002(2, 3, 8.0);
        let topo = spec.topo_order().unwrap();
        let asg = vec![vec![NodeId::Asu(1)], vec![NodeId::Host(0)]];
        let raw = estimate(&spec, &shape, &asg, &topo);
        let res = ResidualCapacity::full(shape.total_nodes());
        let full = estimate_residual(&spec, &shape, &asg, &topo, &res);
        assert_eq!(raw.makespan_ns.to_bits(), full.makespan_ns.to_bits());
        assert_eq!(raw.bottleneck, full.bottleneck);
        for (a, b) in raw.node_cpu_ns.iter().zip(&full.node_cpu_ns) {
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        for (a, b) in raw.node_nic_ns.iter().zip(&full.node_nic_ns) {
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn occupied_node_inflates_estimate() {
        let spec = two_stage_spec(100_000);
        let shape = ClusterShape::era_2002(1, 1, 8.0);
        let topo = spec.topo_order().unwrap();
        let asg = vec![vec![NodeId::Asu(0)], vec![NodeId::Host(0)]];
        let empty = estimate(&spec, &shape, &asg, &topo);
        let mut res = ResidualCapacity::full(shape.total_nodes());
        res.occupy(0, 0.75, 0.0, 0.0); // host 0 CPU three-quarters busy
        let shared = estimate_residual(&spec, &shape, &asg, &topo, &res);
        assert!(
            shared.makespan_ns > empty.makespan_ns,
            "losing 3/4 of the host CPU must slow the crunch: {} vs {}",
            shared.makespan_ns,
            empty.makespan_ns
        );
    }

    #[test]
    fn estimate_is_deterministic() {
        let spec = two_stage_spec(12345);
        let shape = ClusterShape::era_2002(2, 3, 8.0);
        let topo = spec.topo_order().unwrap();
        let asg = vec![vec![NodeId::Asu(2)], vec![NodeId::Host(1)]];
        let a = estimate(&spec, &shape, &asg, &topo);
        let b = estimate(&spec, &shape, &asg, &topo);
        assert_eq!(a.makespan_ns.to_bits(), b.makespan_ns.to_bits());
        assert_eq!(a.bottleneck, b.bottleneck);
    }
}
