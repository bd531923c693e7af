//! The dataflow runtime: compiles a (graph, placement) pair onto the
//! emulated cluster and executes it.
//!
//! Every functor instance becomes a simulation actor on its assigned
//! node. Functor code runs *for real* (records are genuinely
//! transformed); virtual time is charged per the declared cost bounds
//! through the node's FCFS CPU resource, so co-located instances contend
//! naturally. Packets crossing nodes serialize on the sender's NIC and
//! arrive one link latency later; source instances stream their input
//! from the local disk model; sink outputs are written back to the local
//! disk and captured for the caller.
//!
//! End-of-stream follows the classic dataflow protocol: an instance that
//! has consumed its input and all upstream EOS marks flushes its functor,
//! forwards the flush outputs, then broadcasts EOS downstream. Because
//! EOS rides the same FCFS NIC as data, it can never overtake packets
//! from the same sender.
//!
//! ## Fault-masked delivery
//!
//! [`run_job_with_faults`] layers a failure model on top (see
//! [`crate::fault`]): a controller replays the [`FaultSpec`]'s plan in
//! virtual time, flipping node health, and a precomputed
//! [`DetectedTimeline`] stands in for the heartbeat failure detector
//! (detections land on the first heartbeat tick past the timeout after
//! each crash). Delivery becomes optimistic-with-recovery: a packet
//! arriving at a down node bounces back as a NACK; the sender re-routes
//! it through [`Router::pick_available`] masked by the *detected* node
//! health, after a deterministic exponential backoff. Down nodes are
//! thus masked, not fatal — and with an empty plan the whole layer
//! vanishes: no controller actor, all-up masks (identical RNG draws),
//! byte-identical virtual times to [`run_job`].
//!
//! Because the detector and link-loss schedules are static timelines and
//! every remaining protocol message (NACK bounces, fence EOS, balancer
//! reports and weight updates) travels with at least the minimum
//! cross-node delay, faulted and balanced runs partition cleanly: the
//! parallel engine replays them byte-identically (see
//! [`EmulationReport::par_fallback`] for the few shapes clamped to one
//! partition).
//!
//! Every job, whatever its shape or thread count, is built by one
//! partition worker per partition (`EmWorker`); a one-partition run
//! executes that single build inline on the sequential calendar.

use crate::balance;
use crate::config::ClusterConfig;
use crate::fault::{
    node_index, DetectedTimeline, FatalFault, FaultSpec, FaultStats, LossTimeline, NodeHealth,
};
use crate::metrics::{Metrics, SinkOutputs, StageGauge, StageQueueStats, StageUsage};
use crate::multi::{GateDecision, SchedEvent, SchedEventKind, SchedGate};
use crate::node::{nic_service, NodeRes};
use crate::repair::{
    repair_timeline, RepairCmd, RepairEngine, RepairEv, RepairJob, RepairSample, RepairStats,
};
use lmas_core::{
    Emit, FlowGraph, Functor, GraphError, NodeId, Packet, Placement, PlacementError, Record,
    Router, StageFactory, StageId, UpMask,
};
use lmas_sim::{
    run_partitioned, ActorId, BackoffPolicy, Ctx, DetRng, FaultEvent, LogHist, ParOps,
    PartitionWorker, SimDuration, SimTime, Simulation, Trace,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// A complete job: what to run, where, and on which data.
pub struct Job<R: Record> {
    /// The dataflow program.
    pub graph: FlowGraph<R>,
    /// Instance → node assignment.
    pub placement: Placement,
    /// External input per **source** stage instance: the packets stored
    /// on that instance's node, streamed in through the disk model.
    pub inputs: BTreeMap<(usize, usize), Vec<Packet<R>>>,
}

/// Why a job could not run (or could not finish).
#[derive(Debug)]
pub enum JobError {
    /// The graph failed validation.
    Graph(GraphError),
    /// The placement failed validation.
    Placement(PlacementError),
    /// Input supplied for an instance that is not a source.
    InputForNonSource {
        /// Stage index.
        stage: usize,
        /// Instance index.
        instance: usize,
    },
    /// A non-source stage has no incoming edge (it would never start).
    DisconnectedStage(StageId),
    /// An instance has no node assigned (surfaced as a typed error so a
    /// fault-injected run never aborts the process).
    UnplacedInstance {
        /// Stage index.
        stage: usize,
        /// Instance index.
        instance: usize,
    },
    /// A fault-plan event names a node outside the cluster.
    FaultPlanNode {
        /// The offending node index (valid indices are
        /// `0..hosts + asus`).
        node: usize,
    },
    /// The repair spec does not fit the cluster (see
    /// [`RepairSpec::validate`](crate::repair::RepairSpec::validate)).
    RepairConfig(&'static str),
    /// An active fault spec has a zero
    /// [`FaultSpec::heartbeat_period`]: the failure detector would never
    /// tick.
    ZeroHeartbeatPeriod,
    /// [`run_jobs`](crate::multi::run_jobs) was given no jobs.
    NoJobs,
    /// Every replica of a stage was unreachable and the retry budget was
    /// exhausted with [`FaultSpec::fail_fast`] set. Partial progress is
    /// reported so callers can decide how much work was lost.
    AllReplicasDown {
        /// The stage whose replicas were all down.
        stage: usize,
        /// Virtual time the run gave up.
        at: SimTime,
        /// Records processed before the failure.
        records_processed: u64,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Graph(e) => write!(f, "graph error: {e}"),
            JobError::Placement(e) => write!(f, "placement error: {e}"),
            JobError::InputForNonSource { stage, instance } => {
                write!(
                    f,
                    "input supplied for non-source stage {stage} instance {instance}"
                )
            }
            JobError::DisconnectedStage(s) => {
                write!(f, "non-source stage {s:?} has no incoming edge")
            }
            JobError::UnplacedInstance { stage, instance } => {
                write!(f, "stage {stage} instance {instance} has no node assigned")
            }
            JobError::FaultPlanNode { node } => {
                write!(
                    f,
                    "fault plan names node {node}, which is not in the cluster"
                )
            }
            JobError::RepairConfig(why) => write!(f, "repair spec invalid: {why}"),
            JobError::ZeroHeartbeatPeriod => {
                write!(f, "fault spec heartbeat period must be positive")
            }
            JobError::NoJobs => write!(f, "run_jobs needs at least one job"),
            JobError::AllReplicasDown {
                stage,
                at,
                records_processed,
            } => write!(
                f,
                "all replicas of stage {stage} down at t={}ns after {records_processed} records",
                at.as_nanos()
            ),
        }
    }
}

impl std::error::Error for JobError {}

impl From<GraphError> for JobError {
    fn from(e: GraphError) -> Self {
        JobError::Graph(e)
    }
}

impl From<PlacementError> for JobError {
    fn from(e: PlacementError) -> Self {
        JobError::Placement(e)
    }
}

/// Summary of one node after a run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Which node.
    pub id: NodeId,
    /// Mean CPU utilization over the run.
    pub mean_cpu_util: f64,
    /// Total CPU busy time.
    pub cpu_busy: SimDuration,
    /// CPU utilization per [`ClusterConfig::util_bin`] bin.
    pub cpu_series: Vec<f64>,
    /// Records processed on this node.
    pub records: u64,
    /// Disk counters: (reads, writes, bytes read, bytes written),
    /// aggregated across the node's spindles.
    pub disk: (u64, u64, u64, u64),
    /// Per-spindle transfer counters (one entry per disk; a single entry
    /// for unstriped nodes).
    pub per_disk: Vec<lmas_storage::BteStats>,
    /// Per-spindle media busy time, parallel to `per_disk`.
    pub per_disk_busy: Vec<SimDuration>,
    /// Buffer-pool counters (all zero when the pool is disabled).
    pub pool: lmas_storage::PoolStats,
    /// NIC busy time.
    pub nic_busy: SimDuration,
    /// Payload bytes this node put on the wire (frame overhead and
    /// zero-byte EOS marks excluded) — the measured shuffle volume a
    /// coded edge divides by `r`.
    pub nic_bytes_tx: u64,
    /// Peak functor-state bytes observed.
    pub peak_state_bytes: usize,
    /// Health at the end of the run.
    pub health: NodeHealth,
}

/// The result of running a [`Job`].
#[derive(Debug)]
pub struct EmulationReport<R: Record> {
    /// Job completion time (all CPUs drained, disks quiesced).
    pub makespan: SimDuration,
    /// Per-node summaries: hosts first, then ASUs.
    pub nodes: Vec<NodeReport>,
    /// Declared work per stage, with stage names.
    pub stage_work: Vec<(String, lmas_core::Work)>,
    /// Records entering each stage.
    pub stage_records_in: Vec<u64>,
    /// Resource attribution per stage (indexed by stage id): CPU grant
    /// busy/wait, disk bytes and read latency, NIC payload bytes and
    /// serialization time charged on the stage's behalf. Observational
    /// only — identical virtual times with or without it — and the
    /// basis for per-job accounting in multi-tenant runs.
    pub stage_usage: Vec<StageUsage>,
    /// Sink outputs keyed by `(stage, instance)`, `(port, packet)` pairs.
    pub sink_outputs: SinkOutputs<R>,
    /// Total records processed.
    pub records_processed: u64,
    /// Memory-contract violations (empty on a clean run).
    pub mem_violations: Vec<String>,
    /// Simulator events dispatched while running the job.
    pub dispatched: u64,
    /// Event trace of the run (empty unless
    /// [`ClusterConfig::trace_capacity`] asked for one).
    pub trace: Trace,
    /// Nodes still down when the run ended (hosts-then-ASUs ids).
    /// Orchestration layers use this to tell which sink outputs were
    /// lost with their node.
    pub down_nodes: Vec<NodeId>,
    /// Fault-layer activity counters (all zero on a fault-free run).
    pub fault: FaultStats,
    /// Time-weighted per-instance queue-depth statistics, one entry per
    /// stage (sources never queue, so theirs stay zero). This is the
    /// signal the runtime balancer samples.
    pub queue_stats: Vec<StageQueueStats>,
    /// Times the runtime balancer re-weighted replica routing (zero
    /// when disabled or never outside its deadband — in which case the
    /// run is byte-identical to a balancer-free one in virtual time).
    pub reweights: u64,
    /// Background re-replication counters (quiet unless the fault spec
    /// carried a [`RepairSpec`](crate::repair::RepairSpec)).
    pub repair: RepairStats,
    /// Replica-distribution trajectory: the blocks-per-copy-count
    /// histogram sampled every
    /// [`RepairSpec::sample_every`](crate::repair::RepairSpec::sample_every)
    /// (empty when sampling is off or repair never ran).
    pub repair_trajectory: Vec<RepairSample>,
    /// Final replica histogram, `hist[k]` = blocks with `k` available
    /// copies for `k = 0..=target` (empty when repair is off).
    pub replica_hist: Vec<u64>,
    /// Repair bytes *sourced* per ASU ordinal — the quantity the
    /// per-node repair-bandwidth cap paces (empty when repair is off).
    pub repair_src_bytes: Vec<u64>,
    /// Parallel-execution counters, present only when the job ran on
    /// two or more partitions ([`ClusterConfig::threads`] > 1, more than
    /// one host, and the run was eligible). Everything *else* in the
    /// report is byte-identical either way; this field is the only trace
    /// the parallel kernel leaves.
    pub par: Option<ParRunStats>,
    /// Why a `threads > 1` run was clamped to one partition anyway, or
    /// `None` when it was eligible (or never asked for threads). The
    /// reasons: `"scheduler"` (a gate holds source seeds back until it
    /// dispatches them), `"backlog routing"` (a backlog-sensitive policy
    /// reads live cross-partition queue depths), `"zero latency"` (no
    /// minimum cross-node delay, hence no lookahead), `"fault plan"` (a
    /// `fail_fast` spec needs a global early stop). Always `None` at
    /// `threads == 1`.
    pub par_fallback: Option<&'static str>,
}

/// How the partitioned engine executed a run (see
/// [`ClusterConfig::with_threads`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParRunStats {
    /// Partitions (worker threads) actually used — `min(threads, hosts)`.
    pub partitions: usize,
    /// Conservative lookahead windows executed.
    pub windows: u64,
    /// Critical-path dispatches: `Σ_w max_p dispatches(p, w)`. The
    /// virtual-parallelism floor — `dispatched / critical_dispatched` is
    /// the model speedup an ideally parallel host could reach.
    pub critical_dispatched: u64,
    /// Cross-partition messages exchanged.
    pub remote_messages: u64,
    /// Log2 histogram of conservative window widths (virtual ns).
    /// Deterministic: same run, same histogram.
    pub window_width_hist: LogHist,
    /// Log2 histogram of per-window barrier waits (wall-clock ns).
    /// **Not** deterministic — scheduling noise; never diff it.
    pub barrier_wait_hist: LogHist,
}

impl<R: Record> EmulationReport<R> {
    /// The captured sink packets in `(stage, instance)` then emission
    /// order, borrowed — no records are copied. Packets arrive here by
    /// move from the sink actors, so the whole capture path is zero-copy.
    pub fn sink_packets(&self) -> impl Iterator<Item = &Packet<R>> {
        self.sink_outputs.values().flatten().map(|(_, p)| p)
    }

    /// All records captured at sinks, in `(stage, instance)` then
    /// emission order. Copies every record; prefer
    /// [`sink_packets`](EmulationReport::sink_packets) for read-only
    /// access or [`into_sink_records`](EmulationReport::into_sink_records)
    /// when the report is no longer needed.
    pub fn sink_records(&self) -> Vec<R> {
        self.sink_packets()
            .flat_map(|p| p.records().iter().cloned())
            .collect()
    }

    /// Consume the report into the flattened sink records. Packets whose
    /// buffers are uniquely owned (the usual case — sinks receive them by
    /// move) give up their records without copying.
    pub fn into_sink_records(self) -> Vec<R> {
        let total: usize = self
            .sink_outputs
            .values()
            .flatten()
            .map(|(_, p)| p.len())
            .sum();
        let mut out = Vec::with_capacity(total);
        for (_, p) in self.sink_outputs.into_values().flatten() {
            out.append(&mut p.into_records());
        }
        out
    }

    /// CPU utilization series of host `i`, or `None` when no such host
    /// was part of the run.
    pub fn try_host_cpu_series(&self, i: usize) -> Option<&[f64]> {
        self.nodes
            .iter()
            .find(|nr| nr.id == NodeId::Host(i))
            .map(|nr| nr.cpu_series.as_slice())
    }

    /// CPU utilization series of host `i`; empty when no such host was
    /// part of the run (see
    /// [`try_host_cpu_series`](EmulationReport::try_host_cpu_series) to
    /// distinguish that case).
    pub fn host_cpu_series(&self, i: usize) -> &[f64] {
        self.try_host_cpu_series(i).unwrap_or(&[])
    }
}

/// Routing/retry metadata carried with a delivery so a bounced packet
/// can find its way back to the sender and out again.
#[derive(Debug, Clone, Copy)]
struct DeliveryMeta {
    /// The sending instance actor (NACKs return here).
    sender: ActorId,
    /// The emission port (re-routing stays within the port's group).
    port: usize,
    /// Destination instance index (for backlog-gauge rollback).
    dest: usize,
    /// Delivery attempts so far (0 = first send).
    attempt: u32,
}

enum Msg<R: Record> {
    /// A data packet. `meta` is `Some` only under an active fault spec;
    /// fault-free runs carry `None` and skip all bounce bookkeeping.
    Arrive {
        p: Packet<R>,
        meta: Option<DeliveryMeta>,
    },
    /// A delivery bounced (down node or lossy link); returned to sender.
    Nack {
        p: Packet<R>,
        meta: DeliveryMeta,
    },
    /// Backoff expired: sender re-routes the packet.
    Retry {
        p: Packet<R>,
        meta: DeliveryMeta,
    },
    Eos,
    /// A CPU service window completed. The epoch stamp discards windows
    /// that belonged to a life of this instance before a crash.
    Work(u64),
    SourceNext,
    /// Controller → instance: your node crashed. Volatile state dies.
    Kill,
    /// Controller → instance: your node recovered (fresh state).
    Revive,
    /// Controller: apply plan event `i`.
    FaultStep(usize),
    /// Controller: the failure detector's (precomputed) verdict that
    /// `node` is down lands now — fence its unflushed instances.
    Detect(usize),
    /// Instance: sample own backlog and report it to the balancer.
    SampleTick,
    /// Instance → balancer: one backlog sample, taken on the sampling
    /// grid and shipped with a fixed delay (snapshot protocol).
    DepthReport {
        /// Reporting stage.
        stage: usize,
        /// Reporting replica within the stage.
        replica: usize,
        /// Queued records at the replica when sampled.
        depth: u64,
        /// Node CPU backlog (ns past the sampling instant).
        cpu_ns: u64,
    },
    /// Balancer → senders: new routing weights for a stage.
    WeightUpdate {
        /// Destination stage the weights apply to.
        stage: usize,
        /// One weight per replica.
        weights: Vec<f64>,
    },
    /// Balancer self-message: a snapshot batch landed; recompute weights.
    Rebalance,
    /// Repair coordinator: apply precomputed timeline entry `i` (a
    /// crash / recover / detect on a replica-holding ASU).
    RepairStep(usize),
    /// Coordinator → source agent: queue this transfer.
    RepairFetch(RepairJob),
    /// Coordinator → source agent: drop the queued assignment with this
    /// id, if it is still queued (a timely recovery made it moot).
    RepairCancel(u64),
    /// Repair agent self-message: dispatch the next queued transfer
    /// (the pacing chain).
    RepairNext,
    /// Source agent → destination agent: the block's bytes arrive.
    RepairWrite(RepairJob),
    /// Destination agent → coordinator: the transfer landed (`ok`) or
    /// bounced off a down destination (`!ok`).
    RepairDone {
        /// Assignment id.
        id: u64,
        /// Block repaired.
        block: u64,
        /// Destination ASU ordinal.
        dest: u32,
        /// Whether the copy was written.
        ok: bool,
    },
    /// Source agent → coordinator: a queued assignment bounced off this
    /// (now down) source; pick another.
    RepairBounce {
        /// Assignment id.
        id: u64,
        /// Block whose repair bounced.
        block: u64,
    },
    /// Coordinator: record one replica-histogram trajectory sample.
    RepairSampleTick,
    /// Scheduler: job `j` (of a multi-tenant run) reaches the admission
    /// gate at its arrival instant.
    JobArrive(usize),
    /// Sink instance → scheduler: one sink instance of job `j` flushed.
    /// The scheduler counts these to detect job completion.
    SinkFlushed(usize),
    /// Coordinator self-message: apply the completions buffered at this
    /// instant in canonical (assignment-id) order. Engine decisions
    /// depend on mutable load state, so same-instant completions must
    /// reach it in an arrival-order-independent sequence — the flush
    /// fires after every other message at the instant in both engines
    /// (seeds sort first; runtime sends carry strictly earlier send
    /// times because the control delay is positive).
    RepairFlush,
    /// Agent self-message: charge the destination writes that arrived
    /// at this instant through the disk in canonical (assignment-id)
    /// order. The disk ledger is FCFS, so same-instant arrivals from
    /// different sources must charge it in an arrival-order-independent
    /// sequence — like [`Msg::RepairFlush`], the sentinel fires after
    /// every other message at the instant in both engines.
    RepairWriteFlush,
}

enum Unit<R: Record> {
    Process(Packet<R>),
    Flush,
}

/// Read-ahead pipeline state of a source instance (present only when the
/// storage buffer pool is enabled; legacy sources stream unbounded).
///
/// The source may hold at most `window = read_ahead + 1` packets between
/// disk arrival and CPU completion: one being processed plus `read_ahead`
/// staged in pool frames. A frame is freed only when its packet's
/// processing unit *completes*, so `read_ahead == 0` is genuinely serial
/// demand paging (read, process, read, …) while `read_ahead >= 1`
/// overlaps the next packet's media time with this packet's CPU time.
#[derive(Debug)]
struct RaState {
    /// Staging window in packets (`read_ahead + 1`).
    window: usize,
    /// Packets arrived from disk whose processing has not completed.
    staged: usize,
    /// A disk read is in flight.
    pending: bool,
    /// EOS already sent (the input stream is exhausted).
    eos_sent: bool,
}

/// Per-instance fencing/flush flags shared between the instances and
/// the fault controller.
#[derive(Debug, Clone, Copy, Default)]
struct InstFlags {
    /// The instance flushed (its own EOS has been broadcast).
    flushed: bool,
    /// The controller broadcast EOS on this instance's behalf; it must
    /// never broadcast its own, even if revived.
    fenced: bool,
}

struct Downstream<R: Record> {
    actors: Vec<ActorId>,
    /// Node of each destination instance. Identity only — the remote
    /// node *object* may live on another partition; everything delivery
    /// needs (same-node test, capacity) derives from the id and config.
    node_ids: Vec<NodeId>,
    /// Dense node index per destination instance (fault-mask lookups).
    node_idx: Vec<usize>,
    capacities: Vec<f64>,
    router: Router,
    gauge: Rc<RefCell<StageGauge>>,
    /// This sender's routing weights for the destination stage, set by
    /// the balancer's `WeightUpdate`s; empty until (unless) the first
    /// reweight, so an untouched run draws identically to the weightless
    /// router path.
    weights: Vec<f64>,
    /// Instances per port group (= replication for global scope).
    group_size: usize,
    /// Destination stage id (for `AllReplicasDown` reporting).
    dest_stage: usize,
    /// Coded broadcast-group size of this edge (1 = plain delivery).
    /// With `r > 1` the destinations partition into groups of `r`
    /// consecutive instances; every r-th remote packet ships as one
    /// multicast frame (one NIC charge at the frame's max payload) and
    /// the sender pays an `(r-1)`-fold replicated side-information disk
    /// write per packet.
    coded_r: usize,
    /// Per-group staging buffers of `(dest, packet)` awaiting a full
    /// coded frame (empty and untouched when `coded_r == 1`).
    coded_buf: Vec<Vec<(usize, Packet<R>)>>,
    _marker: std::marker::PhantomData<fn(R)>,
}

/// Fault-layer state held by each instance actor (present only when the
/// spec is active — `None` keeps the fault-free path allocation- and
/// draw-identical to the pre-fault runtime).
///
/// Detector verdicts and link-loss probabilities are *timelines* —
/// immutable, precomputed, shared by `Arc` — so an instance samples
/// them at any virtual instant without cross-partition state. The loss
/// and backoff draws come from a per-instance seed stream (derived from
/// the global instance index), identical however the run is
/// partitioned.
struct InstanceFault<R: Record> {
    detected: Arc<DetectedTimeline>,
    loss: Arc<LossTimeline>,
    flags: Rc<RefCell<Vec<InstFlags>>>,
    backoff: BackoffPolicy,
    fail_fast: bool,
    my_node: usize,
    my_global: usize,
    factory: StageFactory<R>,
    /// Private stream: loss draws and backoff jitter.
    rng: DetRng,
}

/// Snapshot-balancer sampling state of one watched instance: it samples
/// its own backlog on the `k·period` grid and ships the reading to the
/// balancer with a fixed delay, so the balancer reweights from the
/// *previous* window's snapshot in both engines.
struct SampleState {
    period: SimDuration,
    /// Shipping delay of a report: `period.max(ctl)` — uniform for all
    /// replicas, and at least the cross-partition lookahead.
    report_delay: SimDuration,
    balancer: ActorId,
    /// A `SampleTick` is in flight (guards against double-arming on
    /// revive).
    armed: bool,
}

struct InstanceActor<R: Record> {
    stage: usize,
    instance: usize,
    functor: Box<dyn Functor<R>>,
    node: Rc<RefCell<NodeRes>>,
    queue: VecDeque<Packet<R>>,
    pending: Option<Unit<R>>,
    eos_expected: usize,
    eos_seen: usize,
    flushed: bool,
    down: Option<Downstream<R>>,
    source_data: VecDeque<Packet<R>>,
    is_source: bool,
    /// False once a crash kills the source read chain.
    source_live: bool,
    /// Windowed read-ahead staging (pool-enabled sources only).
    ra: Option<RaState>,
    /// Globally unique instance tag: identifies this instance's output
    /// stream to the disk scheduler (runs never merge across tags).
    global_tag: u64,
    /// Incremented on crash; stale `Work` from a previous life is
    /// discarded by the stamp.
    epoch: u64,
    my_gauge: Option<(Rc<RefCell<StageGauge>>, usize)>,
    metrics: Rc<RefCell<Metrics<R>>>,
    link_rate: f64,
    latency: SimDuration,
    /// Minimum cross-node delay (latency + NIC frame-overhead service):
    /// every control message (NACK bounce, fence EOS, weight update)
    /// travels with at least this much, which is exactly the parallel
    /// engine's lookahead.
    ctl: SimDuration,
    fault: Option<InstanceFault<R>>,
    /// Snapshot-balancer sampling (watched instances only).
    sample: Option<SampleState>,
    /// Multi-tenant runs only: `(scheduler actor, owning job)` of a
    /// *sink* instance, which notifies the scheduler when it flushes.
    /// `None` everywhere else — single-job runs carry no scheduler.
    sched: Option<(ActorId, usize)>,
}

impl<R: Record> InstanceActor<R> {
    fn is_down(&self) -> bool {
        self.fault.is_some() && self.node.borrow().is_down()
    }

    fn is_fenced(&self) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|f| f.flags.borrow()[f.my_global].fenced)
    }

    fn try_start(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        if self.pending.is_some() || self.is_down() {
            return;
        }
        if let Some(p) = self.queue.pop_front() {
            if let Some((gauge, idx)) = &self.my_gauge {
                gauge
                    .borrow_mut()
                    .sub(*idx, p.len() as u64, ctx.now(), par_key(ctx));
            }
            let cost = self.functor.cost(&p);
            {
                let mut m = self.metrics.borrow_mut();
                m.stage_work[self.stage] += cost;
                m.stage_records_in[self.stage] += p.len() as u64;
            }
            let grant = self.node.borrow_mut().charge_cpu(ctx.now(), cost);
            {
                let mut m = self.metrics.borrow_mut();
                let u = &mut m.stage_usage[self.stage];
                u.cpu_busy_ns += grant.end.since(grant.start).as_nanos();
                u.cpu_wait_ns += grant.queue_delay(ctx.now()).as_nanos();
            }
            self.pending = Some(Unit::Process(p));
            ctx.send_at(ctx.me(), grant.end, Msg::Work(self.epoch));
        } else if self.eos_seen >= self.eos_expected && !self.flushed && !self.is_fenced() {
            let cost = self.functor.flush_cost();
            self.metrics.borrow_mut().stage_work[self.stage] += cost;
            let grant = self.node.borrow_mut().charge_cpu(ctx.now(), cost);
            {
                let mut m = self.metrics.borrow_mut();
                let u = &mut m.stage_usage[self.stage];
                u.cpu_busy_ns += grant.end.since(grant.start).as_nanos();
                u.cpu_wait_ns += grant.queue_delay(ctx.now()).as_nanos();
            }
            self.pending = Some(Unit::Flush);
            ctx.send_at(ctx.me(), grant.end, Msg::Work(self.epoch));
        }
    }

    fn complete_unit(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        let Some(unit) = self.pending.take() else {
            // A stale Work stamp from before a crash (already filtered by
            // the epoch check) or a unit discarded by Kill.
            debug_assert!(self.fault.is_some(), "Work without a pending unit");
            return;
        };
        let mut emit = Emit::new(self.functor.out_ports());
        let mut just_flushed = false;
        match unit {
            Unit::Process(p) => {
                // The packet's staging frame frees only now, at CPU
                // completion — read-ahead depth really bounds memory.
                if let Some(ra) = &mut self.ra {
                    ra.staged = ra.staged.saturating_sub(1);
                }
                let n = p.len() as u64;
                self.node.borrow_mut().note_records(n);
                let (stage, instance) = (self.stage, self.instance);
                let key = par_key(ctx);
                let mut m = self.metrics.borrow_mut();
                m.records_processed += n;
                m.note_activity(ctx.now());
                m.trace.record_with_key(ctx.now(), key, || {
                    (format!("s{stage}.i{instance}"), format!("proc {n} recs"))
                });
                drop(m);
                self.functor.process(p, &mut emit);
            }
            Unit::Flush => {
                self.functor.flush(&mut emit);
                self.flushed = true;
                just_flushed = true;
                let (stage, instance) = (self.stage, self.instance);
                let key = par_key(ctx);
                let mut m = self.metrics.borrow_mut();
                m.note_activity(ctx.now());
                m.trace.record_with_key(ctx.now(), key, || {
                    (format!("s{stage}.i{instance}"), "flush")
                });
                drop(m);
                if let Some(f) = &self.fault {
                    f.flags.borrow_mut()[f.my_global].flushed = true;
                }
            }
        }
        let state = self.functor.state_bytes();
        {
            let mut node = self.node.borrow_mut();
            node.note_state_bytes(state);
            if state > node.mem_bytes {
                let id = node.id;
                drop(node);
                self.metrics.borrow_mut().note_violation_keyed(
                    ctx.now(),
                    par_key(ctx),
                    format!(
                        "stage {} instance {} exceeds {} memory: {} bytes of functor state",
                        self.stage, self.instance, id, state
                    ),
                );
            }
        }
        self.route_outputs(ctx, emit.take());
        if just_flushed {
            self.broadcast_eos(ctx);
            // A multi-tenant sink reports its flush to the scheduler at
            // the flush instant (sink writes were charged above, so the
            // job's disk traffic is already accounted). Scheduler runs
            // are always one partition; a zero-delay control send is safe.
            if let Some((sched, job)) = self.sched {
                ctx.send_now(sched, Msg::SinkFlushed(job));
            }
        }
        self.try_start(ctx);
        if self.ra.is_some() {
            // A frame freed: see whether the read pipeline can refill.
            self.source_next(ctx);
        }
    }

    fn route_outputs(&mut self, ctx: &mut Ctx<'_, Msg<R>>, outputs: Vec<(usize, Packet<R>)>) {
        if self.down.is_some() {
            for (port, p) in outputs {
                self.route_packet(ctx, port, p, 0);
            }
        } else {
            // Sink: write results to the local disk (staged through the
            // scheduler/pool when the substrate is on) and capture them.
            let now = ctx.now();
            let mut node = self.node.borrow_mut();
            let mut m = self.metrics.borrow_mut();
            for (port, p) in outputs {
                let bytes = p.bytes() as u64;
                node.disk_write_sink(now, self.global_tag, bytes);
                m.note_activity(now);
                m.stage_usage[self.stage].disk_write_bytes += bytes;
                m.sink_outputs
                    .entry((self.stage, self.instance))
                    .or_default()
                    .push((port, p));
            }
        }
    }

    /// Route one packet downstream. `attempt` is 0 for fresh emissions
    /// and counts prior failed deliveries for retries.
    fn route_packet(&mut self, ctx: &mut Ctx<'_, Msg<R>>, port: usize, p: Packet<R>, attempt: u32) {
        // Invariant, not user input: emissions only route here when the
        // stage has an out edge (sink outputs go to disk in `emit`), and
        // the graph is validated before any actor exists. A miss would
        // be a runtime bug; degrade by dropping the packet rather than
        // aborting a run that is otherwise healthy.
        let Some(d) = self.down.as_mut() else {
            debug_assert!(false, "route_packet needs a downstream");
            return;
        };
        // A port is confined to its instance group; the policy picks
        // within it (group == whole stage for Global).
        let groups = d.actors.len() / d.group_size;
        let base = (port % groups) * d.group_size;
        let picked = {
            let now = ctx.now();
            let up = match &self.fault {
                Some(f) => UpMask::from_fn(d.group_size, |j| {
                    f.detected.is_up(d.node_idx[base + j], now)
                }),
                None => UpMask::All,
            };
            let gauge = d.gauge.borrow();
            let backlog = gauge.depths();
            // Empty until the balancer's first reweight: `pick_routed`
            // then takes the exact `pick_available` path (same draws).
            let wslice: &[f64] = if d.weights.is_empty() {
                &[]
            } else {
                &d.weights[base..base + d.group_size]
            };
            d.router.pick_routed(
                d.group_size,
                port / groups,
                &backlog[base..base + d.group_size],
                &d.capacities[base..base + d.group_size],
                wslice,
                &up,
            )
        };
        let Some(rel) = picked else {
            // No replica is (detected) live. Hold the packet through the
            // backoff schedule — a recovery may land — then give up.
            let meta = DeliveryMeta {
                sender: ctx.me(),
                port,
                dest: usize::MAX,
                attempt,
            };
            self.redeliver(ctx, p, meta);
            return;
        };
        let dest = base + rel;
        // Optimistic backlog charge; a NACK rolls it back.
        d.gauge
            .borrow_mut()
            .add(dest, p.len() as u64, ctx.now(), par_key(ctx));
        // Coded delivery (fault-free runs only: coded frames have no
        // per-packet NACK identity). Same-node packets are free as in
        // the plain path; remote packets pay the (r-1)-way replicated
        // side-information write immediately, then wait in the group's
        // staging buffer until r packets form a frame — one NIC charge
        // at the frame's widest payload, all members delivered at the
        // grant.
        if d.coded_r > 1 && self.fault.is_none() {
            let now = ctx.now();
            let my_id = self.node.borrow().id;
            if d.node_ids[dest] == my_id {
                ctx.send_at(d.actors[dest], now, Msg::Arrive { p, meta: None });
                return;
            }
            let r = d.coded_r;
            self.node
                .borrow_mut()
                .disk_write(now, (r as u64 - 1) * p.bytes() as u64);
            self.metrics.borrow_mut().stage_usage[self.stage].disk_write_bytes +=
                (r as u64 - 1) * p.bytes() as u64;
            let group = dest / r;
            d.coded_buf[group].push((dest, p));
            if d.coded_buf[group].len() == r {
                let frame = d.coded_buf[group]
                    .iter()
                    .map(|(_, q)| q.bytes() as u64)
                    .max()
                    .unwrap_or(0);
                let grant = self.node.borrow_mut().charge_nic(now, frame, self.link_rate);
                {
                    let mut m = self.metrics.borrow_mut();
                    let u = &mut m.stage_usage[self.stage];
                    u.nic_bytes += frame;
                    u.nic_busy_ns += grant.end.since(grant.start).as_nanos();
                }
                let at = grant.end + self.latency;
                for (di, q) in d.coded_buf[group].drain(..) {
                    ctx.send_at(d.actors[di], at, Msg::Arrive { p: q, meta: None });
                }
            }
            return;
        }
        let (deliver_at, nic_busy) = delivery_time(
            ctx.now(),
            &self.node,
            d.node_ids[dest],
            p.bytes() as u64,
            self.link_rate,
            self.latency,
        );
        if let Some(busy) = nic_busy {
            let mut m = self.metrics.borrow_mut();
            let u = &mut m.stage_usage[self.stage];
            u.nic_bytes += p.bytes() as u64;
            u.nic_busy_ns += busy.as_nanos();
        }
        let to_actor = d.actors[dest];
        match &mut self.fault {
            None => {
                ctx.send_at(to_actor, deliver_at, Msg::Arrive { p, meta: None });
            }
            Some(f) => {
                let meta = DeliveryMeta {
                    sender: ctx.me(),
                    port,
                    dest,
                    attempt,
                };
                let prob = f.loss.prob(f.my_node, d.node_idx[dest], ctx.now());
                if prob > 0.0 && f.rng.gen_f64() < prob {
                    // The frame left the NIC but never arrived; the loss
                    // surfaces as a NACK one control delay later (the
                    // receiver's link-level reject), and the retry path
                    // takes over.
                    self.metrics.borrow_mut().fault.drops += 1;
                    ctx.send_at(ctx.me(), deliver_at + self.ctl, Msg::Nack { p, meta });
                } else {
                    ctx.send_at(
                        to_actor,
                        deliver_at,
                        Msg::Arrive {
                            p,
                            meta: Some(meta),
                        },
                    );
                }
            }
        }
    }

    /// Schedule a retry for a failed delivery, or give up when the
    /// attempt budget is exhausted.
    fn redeliver(&mut self, ctx: &mut Ctx<'_, Msg<R>>, p: Packet<R>, mut meta: DeliveryMeta) {
        if self.is_down() {
            // The sender itself died while the bounce was in flight; the
            // packet dies with it (a repair pass recovers the records).
            self.metrics.borrow_mut().fault.lost_queued_records += p.len() as u64;
            return;
        }
        // Invariant, not user input: NACKs and retries carry delivery
        // metadata, which is only ever attached under an active fault
        // spec — the same condition that populates `self.fault`. If the
        // pairing ever broke, the honest degradation is the one the
        // fault layer already defines for undeliverable packets: count
        // the records lost and move on.
        let Some(f) = self.fault.as_mut() else {
            debug_assert!(false, "redeliver requires fault mode");
            self.metrics.borrow_mut().fault.lost_queued_records += p.len() as u64;
            return;
        };
        meta.attempt += 1;
        match f.backoff.delay(meta.attempt, &mut f.rng) {
            Some(delay) => {
                self.metrics.borrow_mut().fault.retries += 1;
                ctx.send(ctx.me(), delay, Msg::Retry { p, meta });
            }
            None => {
                let fail_fast = f.fail_fast;
                let stage = self
                    .down
                    .as_ref()
                    .map(|d| d.dest_stage)
                    .unwrap_or(self.stage);
                let mut m = self.metrics.borrow_mut();
                m.fault.abandoned_records += p.len() as u64;
                if fail_fast && m.fatal.is_none() {
                    m.fatal = Some(FatalFault {
                        stage,
                        at: ctx.now(),
                    });
                    drop(m);
                    ctx.request_stop();
                }
            }
        }
    }

    /// Ship every partially-filled coded frame (end of stream: no more
    /// packets will complete them). Charged before the EOS batch so the
    /// FCFS NIC keeps data ahead of the EOS marks.
    fn flush_coded(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        let Some(d) = self.down.as_mut() else { return };
        if d.coded_r <= 1 {
            return;
        }
        let now = ctx.now();
        for group in 0..d.coded_buf.len() {
            if d.coded_buf[group].is_empty() {
                continue;
            }
            let frame = d.coded_buf[group]
                .iter()
                .map(|(_, q)| q.bytes() as u64)
                .max()
                .unwrap_or(0);
            let grant = self.node.borrow_mut().charge_nic(now, frame, self.link_rate);
            {
                let mut m = self.metrics.borrow_mut();
                let u = &mut m.stage_usage[self.stage];
                u.nic_bytes += frame;
                u.nic_busy_ns += grant.end.since(grant.start).as_nanos();
            }
            let at = grant.end + self.latency;
            for (di, q) in d.coded_buf[group].drain(..) {
                ctx.send_at(d.actors[di], at, Msg::Arrive { p: q, meta: None });
            }
        }
    }

    fn broadcast_eos(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        if self.is_fenced() {
            // The controller already spoke for this instance.
            return;
        }
        self.flush_coded(ctx);
        if let Some(d) = &mut self.down {
            // EOS rides the NIC (zero payload) so it stays behind data.
            // Every remote mark serializes zero bytes, so one batched NIC
            // charge stands in for the per-destination charges: k
            // zero-length grants at the same instant share one window and
            // leave `free_at` where a lone charge would (the ledger sees
            // no busy time either way).
            let now = ctx.now();
            let my_id = self.node.borrow().id;
            let remote = d.node_ids.iter().filter(|&&id| id != my_id).count();
            let deliver_remote = if remote > 0 {
                let g =
                    self.node
                        .borrow_mut()
                        .charge_nic_batch(now, 0, self.link_rate, remote as u64);
                g.end + self.latency
            } else {
                now
            };
            let (stage, instance, fanout) = (self.stage, self.instance, d.actors.len());
            let key = par_key(ctx);
            self.metrics
                .borrow_mut()
                .trace
                .record_with_key(now, key, || {
                    (format!("s{stage}.i{instance}"), format!("eos -> {fanout}"))
                });
            for i in 0..d.actors.len() {
                let at = if d.node_ids[i] == my_id {
                    now
                } else {
                    deliver_remote
                };
                ctx.send_at(d.actors[i], at, Msg::Eos);
            }
        }
    }

    fn source_next(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        if !self.source_live {
            return;
        }
        if let Some(ra) = &mut self.ra {
            // Windowed streaming: at most one read in flight, at most
            // `window` packets staged between disk arrival and CPU
            // completion. Called again on every arrival and completion,
            // so the pipeline refills as frames free up.
            if ra.pending || ra.staged >= ra.window {
                return;
            }
            if let Some(p) = self.source_data.pop_front() {
                ra.pending = true;
                let ready = self
                    .node
                    .borrow_mut()
                    .disk_read(ctx.now(), p.bytes() as u64);
                {
                    let mut m = self.metrics.borrow_mut();
                    m.note_activity(ready);
                    let u = &mut m.stage_usage[self.stage];
                    u.disk_read_bytes += p.bytes() as u64;
                    u.disk_wait_ns += ready.saturating_since(ctx.now()).as_nanos();
                }
                ctx.send_at(ctx.me(), ready, Msg::Arrive { p, meta: None });
            } else if !ra.eos_sent {
                ra.eos_sent = true;
                ctx.send_at(ctx.me(), ctx.now(), Msg::Eos);
            }
            return;
        }
        if let Some(p) = self.source_data.pop_front() {
            let ready = self
                .node
                .borrow_mut()
                .disk_read(ctx.now(), p.bytes() as u64);
            {
                let mut m = self.metrics.borrow_mut();
                m.note_activity(ready);
                let u = &mut m.stage_usage[self.stage];
                u.disk_read_bytes += p.bytes() as u64;
                u.disk_wait_ns += ready.saturating_since(ctx.now()).as_nanos();
            }
            ctx.send_at(ctx.me(), ready, Msg::Arrive { p, meta: None });
            ctx.send_at(ctx.me(), ready, Msg::SourceNext);
        } else {
            ctx.send_at(ctx.me(), ctx.now(), Msg::Eos);
        }
    }

    /// The node crashed: volatile state (queue, in-flight unit, functor
    /// state) is lost; the functor is rebuilt from its factory so a
    /// revived instance restarts clean.
    fn kill(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        debug_assert!(self.fault.is_some(), "Kill outside fault mode");
        self.epoch += 1;
        let mut lost = 0u64;
        if let Some(Unit::Process(p)) = self.pending.take() {
            lost += p.len() as u64;
        }
        for p in self.queue.drain(..) {
            lost += p.len() as u64;
        }
        if let Some((gauge, idx)) = &self.my_gauge {
            gauge.borrow_mut().clear(*idx, ctx.now(), par_key(ctx));
        }
        self.source_live = false;
        if let Some(ra) = &mut self.ra {
            // Staged packets died with the node; the read chain is dead
            // (source_live above), so the pipeline never refills.
            ra.staged = 0;
            ra.pending = false;
        }
        if let Some(f) = &self.fault {
            self.functor = (f.factory)(self.instance);
        }
        let (stage, instance) = (self.stage, self.instance);
        let key = par_key(ctx);
        let mut m = self.metrics.borrow_mut();
        m.fault.lost_queued_records += lost;
        m.trace.record_with_key(ctx.now(), key, || {
            (
                format!("s{stage}.i{instance}"),
                format!("killed, lost {lost} recs"),
            )
        });
    }

    /// `SampleTick`: sample own backlog and ship a `DepthReport` to the
    /// balancer; re-arm on the sampling grid. Stops (without reporting
    /// or re-arming) once the instance has flushed or its node went
    /// down, so a drained job's calendar actually empties. Sampling
    /// never restarts after a crash — see the `Revive` handler.
    fn sample_tick(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        let s = self
            .sample
            .as_mut()
            .expect("SampleTick without sampling state");
        s.armed = false;
        if self.node.borrow().is_down() || self.flushed {
            return;
        }
        let depth: u64 = self.queue.iter().map(|p| p.len() as u64).sum();
        let now = ctx.now();
        let cpu_ns = self
            .node
            .borrow()
            .cpu_free_at()
            .as_nanos()
            .saturating_sub(now.as_nanos());
        ctx.send(
            s.balancer,
            s.report_delay,
            Msg::DepthReport {
                stage: self.stage,
                replica: self.instance,
                depth,
                cpu_ns,
            },
        );
        ctx.send(ctx.me(), s.period, Msg::SampleTick);
        s.armed = true;
    }
}

/// Arrival instant of a packet, plus the NIC serialization time charged
/// for it (`None` for a same-node hand-off, which never touches the NIC).
fn delivery_time(
    now: SimTime,
    from: &Rc<RefCell<NodeRes>>,
    to: NodeId,
    bytes: u64,
    link_rate: f64,
    latency: SimDuration,
) -> (SimTime, Option<SimDuration>) {
    let same_node = from.borrow().id == to;
    if same_node {
        (now, None)
    } else {
        let grant = from.borrow_mut().charge_nic(now, bytes, link_rate);
        (grant.end + latency, Some(grant.end.since(grant.start)))
    }
}

/// The dispatch ordering key of the current event — `(0, 0)` on a
/// one-partition run's sequential calendar, where side effects are
/// already totally ordered.
fn par_key<M>(ctx: &Ctx<'_, M>) -> (u64, u64) {
    ctx.par_key().unwrap_or((0, 0))
}

impl<R: Record> lmas_sim::Actor<Msg<R>> for InstanceActor<R> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::Arrive { p, meta } => {
                if self.is_down() {
                    match meta {
                        Some(meta) => {
                            // Bounce: a control-plane NACK back to the
                            // sender, one control delay later (the
                            // minimum cross-node delay, so the parallel
                            // engine's lookahead always covers it).
                            self.metrics.borrow_mut().fault.nacks += 1;
                            ctx.send(meta.sender, self.ctl, Msg::Nack { p, meta });
                        }
                        None => {
                            // A source self-delivery racing the crash;
                            // the records stay durable on disk and are
                            // recovered by a repair pass.
                            self.metrics.borrow_mut().fault.lost_queued_records += p.len() as u64;
                        }
                    }
                    return;
                }
                if let Some(ra) = &mut self.ra {
                    // A source self-delivery: the in-flight read landed
                    // and now occupies a staging frame.
                    ra.pending = false;
                    ra.staged += 1;
                }
                self.queue.push_back(p);
                self.try_start(ctx);
                if self.ra.is_some() {
                    self.source_next(ctx);
                }
            }
            Msg::Nack { p, meta } => {
                // Roll back the optimistic backlog charge, then retry.
                if meta.dest != usize::MAX {
                    if let Some(d) = &self.down {
                        d.gauge.borrow_mut().sub(
                            meta.dest,
                            p.len() as u64,
                            ctx.now(),
                            par_key(ctx),
                        );
                    }
                }
                self.redeliver(ctx, p, meta);
            }
            Msg::Retry { p, meta } => {
                if self.is_down() {
                    self.metrics.borrow_mut().fault.lost_queued_records += p.len() as u64;
                    return;
                }
                self.route_packet(ctx, meta.port, p, meta.attempt);
            }
            Msg::Eos => {
                self.eos_seen += 1;
                debug_assert!(
                    self.eos_seen <= self.eos_expected,
                    "stage {} instance {} saw too many EOS",
                    self.stage,
                    self.instance
                );
                self.try_start(ctx);
            }
            Msg::Work(epoch) => {
                if epoch == self.epoch {
                    self.complete_unit(ctx);
                }
                // Stale stamps belong to a pre-crash life of this
                // instance; the service window died with the node.
            }
            Msg::SourceNext => {
                debug_assert!(self.is_source);
                self.source_next(ctx);
            }
            Msg::Kill => self.kill(ctx),
            Msg::Revive => {
                debug_assert!(self.fault.is_some(), "Revive outside fault mode");
                // Fresh volatile state; process whatever arrives from now
                // on. Source read chains do not resume (their unread
                // extent is re-dispatched by orchestration-level repair).
                self.try_start(ctx);
                // Sampling does NOT resume: a revived instance may
                // never see another EOS (its pre-crash incarnation
                // consumed them), so a perpetual sampling chain would
                // keep the calendar alive forever. The balancer's
                // zero-filled snapshot reads the revived replica as
                // unloaded — the clean slate it actually has.
            }
            Msg::SampleTick => self.sample_tick(ctx),
            Msg::WeightUpdate { stage, weights } => {
                if let Some(d) = &mut self.down {
                    debug_assert_eq!(d.dest_stage, stage, "weight update for the wrong stage");
                    d.weights = weights;
                }
            }
            Msg::FaultStep(_)
            | Msg::Detect(_)
            | Msg::Rebalance
            | Msg::DepthReport { .. }
            | Msg::JobArrive(_)
            | Msg::SinkFlushed(_)
            | Msg::RepairStep(_)
            | Msg::RepairFetch(_)
            | Msg::RepairCancel(_)
            | Msg::RepairNext
            | Msg::RepairWrite(_)
            | Msg::RepairDone { .. }
            | Msg::RepairBounce { .. }
            | Msg::RepairSampleTick
            | Msg::RepairFlush
            | Msg::RepairWriteFlush => {
                unreachable!("controller message delivered to an instance")
            }
        }
    }
}

/// The fault controller: replays the plan's node-health steps and the
/// detector timeline's precomputed verdicts. The parallel engine runs
/// one controller per partition, each seeded only with the events whose
/// node it owns; a one-partition run has a single controller owning
/// every node. Every send it makes is either node-local (`send_now` to
/// instances resident on the event's node) or carries the control
/// delay, so replay is byte-identical however the actors partition.
struct FaultController<R: Record> {
    events: Vec<FaultEvent>,
    /// Node objects this controller owns (dense index; `None` = another
    /// partition's node, which this controller is never asked about).
    nodes: Vec<Option<Rc<RefCell<NodeRes>>>>,
    flags: Rc<RefCell<Vec<InstFlags>>>,
    /// Global instance indices resident on each node.
    instances_on: Vec<Vec<usize>>,
    inst_actor: Vec<ActorId>,
    /// Downstream `(actor, dense node)` fencing targets per global
    /// instance.
    inst_downstream: Vec<Option<Vec<(ActorId, usize)>>>,
    /// Minimum cross-node delay (the parallel lookahead); fence EOS to
    /// other nodes travels with it.
    ctl: SimDuration,
    metrics: Rc<RefCell<Metrics<R>>>,
}

impl<R: Record> FaultController<R> {
    /// The node a step names — always owned by this controller: plan
    /// events are bounds-checked against the cluster before the run
    /// starts, a one-partition run's controller owns every node, and a
    /// partition's controller is seeded only with steps for nodes it
    /// owns. A miss is a seeding bug, not a user-reachable state, so it
    /// degrades to skipping the step instead of aborting the run.
    fn node(&self, n: usize) -> Option<&Rc<RefCell<NodeRes>>> {
        let nd = self.nodes[n].as_ref();
        debug_assert!(nd.is_some(), "fault event on an unowned node");
        nd
    }

    /// EOS on behalf of every unflushed instance on a detected-down
    /// node, so downstream consumers stop waiting for the dead. Marks
    /// for consumers on the dead node itself land immediately (the
    /// node-local convention); marks for other nodes travel one control
    /// delay, like any cross-node control message.
    fn fence_node(&mut self, ctx: &mut Ctx<'_, Msg<R>>, node: usize) {
        for i in 0..self.instances_on[node].len() {
            let gi = self.instances_on[node][i];
            let already = {
                let f = self.flags.borrow();
                f[gi].flushed || f[gi].fenced
            };
            if already {
                continue;
            }
            self.flags.borrow_mut()[gi].fenced = true;
            self.metrics.borrow_mut().fault.fenced_instances += 1;
            if let Some(targets) = &self.inst_downstream[gi] {
                for &(a, target_node) in targets {
                    if target_node == node {
                        ctx.send_now(a, Msg::Eos);
                    } else {
                        ctx.send(a, self.ctl, Msg::Eos);
                    }
                }
            }
        }
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, Msg<R>>, i: usize) {
        let now = ctx.now();
        let key = par_key(ctx);
        match self.events[i] {
            FaultEvent::Crash { node, .. } => {
                let Some(nd) = self.node(node) else { return };
                nd.borrow_mut().set_health(NodeHealth::Down);
                for j in 0..self.instances_on[node].len() {
                    let gi = self.instances_on[node][j];
                    ctx.send_now(self.inst_actor[gi], Msg::Kill);
                }
                self.metrics
                    .borrow_mut()
                    .trace
                    .record_with_key(now, key, || ("fault", format!("crash node {node}")));
            }
            FaultEvent::Recover { node, .. } => {
                let Some(nd) = self.node(node) else { return };
                nd.borrow_mut().set_health(NodeHealth::Up);
                for j in 0..self.instances_on[node].len() {
                    let gi = self.instances_on[node][j];
                    ctx.send_now(self.inst_actor[gi], Msg::Revive);
                }
                self.metrics
                    .borrow_mut()
                    .trace
                    .record_with_key(now, key, || ("fault", format!("recover node {node}")));
            }
            FaultEvent::Degrade {
                node,
                cpu_factor,
                disk_factor,
                ..
            } => {
                let Some(nd) = self.node(node) else { return };
                nd.borrow_mut().set_health(NodeHealth::Degraded {
                    cpu_factor,
                    disk_factor,
                });
                self.metrics
                    .borrow_mut()
                    .trace
                    .record_with_key(now, key, || ("fault", format!("degrade node {node}")));
            }
            FaultEvent::LinkLoss { .. } => {
                // Senders sample the loss timeline directly; loss steps
                // are never seeded as controller events.
                unreachable!("LinkLoss is not a controller step")
            }
        }
    }

    /// A precomputed detection verdict lands: count it and fence. The
    /// routing masks flip on their own (instances sample the timeline).
    fn detect(&mut self, ctx: &mut Ctx<'_, Msg<R>>, node: usize) {
        let now = ctx.now();
        let key = par_key(ctx);
        {
            let mut m = self.metrics.borrow_mut();
            m.fault.detections += 1;
            m.trace
                .record_with_key(now, key, || ("fault", format!("detected node {node} down")));
        }
        self.fence_node(ctx, node);
    }
}

impl<R: Record> lmas_sim::Actor<Msg<R>> for FaultController<R> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::FaultStep(i) => self.apply(ctx, i),
            Msg::Detect(n) => self.detect(ctx, n),
            _ => unreachable!("non-fault message delivered to the controller"),
        }
    }
}

/// One stage the snapshot balancer re-weights: its replication (for
/// zero-filling missing reports) and the upstream sender instances that
/// receive `WeightUpdate`s.
struct SnapTarget {
    stage: usize,
    replication: usize,
    senders: Vec<ActorId>,
}

/// The runtime load balancer (Section 8's feedback loop; see
/// [`crate::balance`]). Purely reactive — it holds no timer and reads no
/// shared state: watched instances self-sample on
/// the `k·period` grid and ship [`Msg::DepthReport`]s with a fixed
/// delay; a batch of reports triggers one reweight from the snapshot
/// they form, and changed weights travel to the senders as
/// [`Msg::WeightUpdate`]s with the control delay. The balancer thus
/// always acts on the *previous* window's backlog — one window of
/// staleness buys an actor protocol the partitioned engine replays
/// byte-identically.
struct SnapshotBalancer<R: Record> {
    spec: balance::BalanceSpec,
    targets: Vec<SnapTarget>,
    /// Latest report per `(stage, replica)`: `(depth, cpu_ns)`.
    snap: BTreeMap<(usize, usize), (u64, u64)>,
    /// A `Rebalance` is queued for the batch currently landing.
    pending: bool,
    /// Minimum cross-node delay; weight updates travel with it.
    ctl: SimDuration,
    /// Weights currently in force per stage (absent = never reweighted).
    cur: BTreeMap<usize, Vec<f64>>,
    metrics: Rc<RefCell<Metrics<R>>>,
}

impl<R: Record> SnapshotBalancer<R> {
    fn rebalance(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        let now = ctx.now();
        for t in &self.targets {
            let mut depths = Vec::with_capacity(t.replication);
            let mut cpu = Vec::with_capacity(t.replication);
            for j in 0..t.replication {
                let (d, c) = self.snap.get(&(t.stage, j)).copied().unwrap_or((0, 0));
                depths.push(d);
                cpu.push(c);
            }
            let new = balance::reweight(
                &depths,
                &cpu,
                self.spec.deadband,
                self.spec.cpu_deadband.as_nanos(),
                self.spec.min_weight,
            );
            if let Some(w) = new {
                if self.cur.get(&t.stage) != Some(&w) {
                    let stage = t.stage;
                    let key = par_key(ctx);
                    let mut m = self.metrics.borrow_mut();
                    m.reweights += 1;
                    m.trace.record_with_key(now, key, || {
                        ("balance", format!("reweight stage {stage}: {w:?}"))
                    });
                    drop(m);
                    for &a in &t.senders {
                        ctx.send(
                            a,
                            self.ctl,
                            Msg::WeightUpdate {
                                stage,
                                weights: w.clone(),
                            },
                        );
                    }
                    self.cur.insert(stage, w);
                }
            }
        }
    }
}

impl<R: Record> lmas_sim::Actor<Msg<R>> for SnapshotBalancer<R> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::DepthReport {
                stage,
                replica,
                depth,
                cpu_ns,
            } => {
                self.snap.insert((stage, replica), (depth, cpu_ns));
                if !self.pending {
                    // Reweight once the whole batch is in: reports of a
                    // grid instant all arrive at the same virtual time
                    // (uniform shipping delay), so a 1 ns deferral runs
                    // after the last of them and before anything else.
                    self.pending = true;
                    ctx.send(ctx.me(), SimDuration::from_nanos(1), Msg::Rebalance);
                }
            }
            Msg::Rebalance => {
                self.pending = false;
                self.rebalance(ctx);
            }
            _ => unreachable!("non-balance message delivered to the balancer"),
        }
    }
}

/// The background re-replication coordinator (see [`crate::repair`]):
/// replays the precomputed repair timeline through the pure
/// [`RepairEngine`] and exchanges transfer commands with the per-ASU
/// repair agents. Exactly like the fault controller, every input is
/// either pre-seeded static data or a message that travelled at least
/// one control delay, so repair runs partition cleanly (the coordinator
/// lives on partition 0).
///
/// The engine is the ground truth for replica state; transfers are
/// *optimistic* — a source that crashes after dispatch still delivers
/// (the bytes were on the wire), and completions are validated by
/// assignment id at credit time. A crashed agent hands its queue back
/// within one pacing interval, so no assignment is ever stranded.
/// A completion buffered at the coordinator until the instant's
/// [`Msg::RepairFlush`]: either a landed/failed transfer or a bounce.
enum RepairOutcome {
    Done {
        id: u64,
        block: u64,
        dest: u32,
        ok: bool,
    },
    Bounce {
        id: u64,
        block: u64,
    },
}

impl RepairOutcome {
    /// Assignment id — unique per outcome, the canonical flush order.
    fn id(&self) -> u64 {
        match *self {
            RepairOutcome::Done { id, .. } | RepairOutcome::Bounce { id, .. } => id,
        }
    }
}

struct RepairCoordinator<R: Record> {
    engine: RepairEngine,
    timeline: Arc<Vec<(SimTime, RepairEv)>>,
    /// Repair agent of ASU ordinal `d`.
    agents: Vec<ActorId>,
    ctl: SimDuration,
    /// Trajectory recording on (`RepairSpec::sample_every > 0`).
    sampling: bool,
    /// Completions awaiting this instant's flush. The engine's source
    /// and destination choices read mutable load state, so same-instant
    /// completions are applied in assignment-id order at the flush —
    /// never in arrival order, which the sequential and partitioned
    /// engines do not agree on.
    buf: Vec<RepairOutcome>,
    /// Instant the pending [`Msg::RepairFlush`] was scheduled for (at
    /// most one is ever in flight).
    flush_at: SimTime,
    metrics: Rc<RefCell<Metrics<R>>>,
}

impl<R: Record> RepairCoordinator<R> {
    /// Ship the engine's commands and mirror its state into the run
    /// metrics (the report reads the mirror after the drain).
    fn emit(&mut self, ctx: &mut Ctx<'_, Msg<R>>, cmds: Vec<RepairCmd>) {
        for c in cmds {
            match c {
                RepairCmd::Fetch { src, job } => {
                    ctx.send(self.agents[src as usize], self.ctl, Msg::RepairFetch(job));
                }
                RepairCmd::Cancel { src, id } => {
                    ctx.send(self.agents[src as usize], self.ctl, Msg::RepairCancel(id));
                }
            }
        }
        let mut m = self.metrics.borrow_mut();
        m.repair = self.engine.stats;
        m.replica_hist = self.engine.hist().to_vec();
    }

    /// Buffer a completion and make sure this instant's flush is
    /// scheduled. The flush self-message fires after every other repair
    /// message at the instant in both engines, so applying the buffer
    /// there (in id order) erases any arrival-order difference between
    /// the sequential and partitioned runs.
    fn defer(&mut self, ctx: &mut Ctx<'_, Msg<R>>, o: RepairOutcome) {
        self.buf.push(o);
        let now = ctx.now();
        if self.flush_at != now {
            self.flush_at = now;
            ctx.send_now(ctx.me(), Msg::RepairFlush);
        }
    }

    /// Record a trajectory point, coalescing same-instant entries (the
    /// last write at an instant wins). All same-instant engine updates
    /// are applied by the canonical-order flush, so the surviving entry
    /// — the post-instant state — is identical across thread counts.
    fn record(&mut self, now: SimTime) {
        if !self.sampling {
            return;
        }
        let s = self.engine.sample(now);
        let mut m = self.metrics.borrow_mut();
        if let Some(last) = m.repair_samples.last_mut() {
            if last.at == s.at {
                *last = s;
                return;
            }
        }
        m.repair_samples.push(s);
    }
}

impl<R: Record> lmas_sim::Actor<Msg<R>> for RepairCoordinator<R> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::RepairStep(i) => {
                let (_, ev) = self.timeline[i];
                let cmds = self.engine.on_event(ev);
                self.emit(ctx, cmds);
                self.record(ctx.now());
            }
            Msg::RepairDone {
                id,
                block,
                dest,
                ok,
            } => {
                self.defer(
                    ctx,
                    RepairOutcome::Done {
                        id,
                        block,
                        dest,
                        ok,
                    },
                );
            }
            Msg::RepairBounce { id, block } => {
                self.defer(ctx, RepairOutcome::Bounce { id, block });
            }
            Msg::RepairFlush => {
                let mut buf = std::mem::take(&mut self.buf);
                buf.sort_unstable_by_key(RepairOutcome::id);
                for o in buf {
                    let cmds = match o {
                        RepairOutcome::Done {
                            id,
                            block,
                            dest,
                            ok,
                        } => self.engine.on_done(id, block, dest, ok),
                        RepairOutcome::Bounce { id, block } => self.engine.on_bounce(id, block),
                    };
                    self.emit(ctx, cmds);
                }
                self.record(ctx.now());
            }
            Msg::RepairSampleTick => self.record(ctx.now()),
            _ => unreachable!("non-repair message delivered to the coordinator"),
        }
    }
}

/// One repair agent per ASU: queues the transfers the coordinator
/// assigns to this ASU as a *source*, paces dispatches to the per-node
/// repair-bandwidth cap, and charges every transfer through the node's
/// real disk and NIC — repair contends with foreground work on the same
/// FCFS resources (and repair writes extend the disk-quiesce horizon,
/// so the makespan honestly includes trailing re-replication).
struct RepairAgent<R: Record> {
    /// This agent's ASU ordinal.
    ordinal: usize,
    node: Rc<RefCell<NodeRes>>,
    coord: ActorId,
    /// Actor id of ASU ordinal 0's agent (destination `d` is `base + d`).
    agents_base: usize,
    queue: VecDeque<RepairJob>,
    /// A pacing chain ([`Msg::RepairNext`]) is in flight.
    busy: bool,
    /// Earliest instant the next transfer may start (the pacing cap:
    /// one block per `pace` per node).
    next_slot: SimTime,
    /// Destination writes that arrived at the current instant, buffered
    /// until its [`Msg::RepairWriteFlush`].
    wbuf: Vec<RepairJob>,
    /// Instant the pending [`Msg::RepairWriteFlush`] was scheduled for.
    wflush_at: SimTime,
    pace: SimDuration,
    link_rate: f64,
    latency: SimDuration,
    ctl: SimDuration,
    metrics: Rc<RefCell<Metrics<R>>>,
}

impl<R: Record> RepairAgent<R> {
    fn bounce(&mut self, ctx: &mut Ctx<'_, Msg<R>>, job: RepairJob) {
        ctx.send(
            self.coord,
            self.ctl,
            Msg::RepairBounce {
                id: job.id,
                block: job.block,
            },
        );
    }

    /// Dispatch the next queued transfer, respecting the pacing cap. At
    /// most one chain event is ever outstanding (`busy`), so a queue is
    /// revisited within one pacing interval — in particular, a crashed
    /// agent hands its whole queue back to the coordinator by then.
    fn pump(&mut self, ctx: &mut Ctx<'_, Msg<R>>) {
        let now = ctx.now();
        if self.node.borrow().is_down() {
            while let Some(job) = self.queue.pop_front() {
                self.bounce(ctx, job);
            }
            self.busy = false;
            return;
        }
        if now < self.next_slot {
            ctx.send_at(ctx.me(), self.next_slot, Msg::RepairNext);
            return;
        }
        let Some(job) = self.queue.pop_front() else {
            self.busy = false;
            return;
        };
        self.next_slot = now + self.pace;
        let (ready, grant_end) = {
            let mut n = self.node.borrow_mut();
            let ready = n.disk_read(now, job.bytes);
            let grant = n.charge_nic(ready, job.bytes, self.link_rate);
            (ready, grant.end)
        };
        self.metrics.borrow_mut().repair_src_bytes[self.ordinal] += job.bytes;
        // Arrival pays the full NIC serialization plus the link latency,
        // so even an agent-local hop travels at least one control delay
        // (the frame overhead is inside the grant) — the partitioned
        // lookahead holds for every repair message.
        ctx.send_at(
            ActorId(self.agents_base + job.dest as usize),
            grant_end + self.latency,
            Msg::RepairWrite(job),
        );
        ctx.send_at(ctx.me(), ready.max(self.next_slot), Msg::RepairNext);
    }
}

impl<R: Record> lmas_sim::Actor<Msg<R>> for RepairAgent<R> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::RepairFetch(job) => {
                if self.node.borrow().is_down() {
                    self.bounce(ctx, job);
                    return;
                }
                if job.critical {
                    // Blocks more than one copy down jump the queue:
                    // they sit after earlier critical jobs but ahead of
                    // every single-copy-down repair. Insertion order is
                    // deterministic (one coordinator feeds each agent).
                    let pos = self
                        .queue
                        .iter()
                        .position(|j| !j.critical)
                        .unwrap_or(self.queue.len());
                    self.queue.insert(pos, job);
                } else {
                    self.queue.push_back(job);
                }
                if !self.busy {
                    self.busy = true;
                    self.pump(ctx);
                }
            }
            Msg::RepairCancel(id) => {
                self.queue.retain(|j| j.id != id);
            }
            Msg::RepairNext => self.pump(ctx),
            Msg::RepairWrite(job) => {
                self.wbuf.push(job);
                let now = ctx.now();
                if self.wflush_at != now {
                    self.wflush_at = now;
                    ctx.send_now(ctx.me(), Msg::RepairWriteFlush);
                }
            }
            Msg::RepairWriteFlush => {
                let now = ctx.now();
                let mut wbuf = std::mem::take(&mut self.wbuf);
                wbuf.sort_unstable_by_key(|j| j.id);
                for job in wbuf {
                    let ok = !self.node.borrow().is_down();
                    let done_at = if ok {
                        // The new copy pays the destination's disk; the
                        // run only quiesces once it is durable.
                        self.node.borrow_mut().disk_write(now, job.bytes).max(now)
                    } else {
                        now
                    };
                    ctx.send_at(
                        self.coord,
                        done_at + self.ctl,
                        Msg::RepairDone {
                            id: job.id,
                            block: job.block,
                            dest: job.dest,
                            ok,
                        },
                    );
                }
            }
            _ => unreachable!("non-repair message delivered to a repair agent"),
        }
    }
}

/// Multi-tenant admission/dispatch controller (see [`crate::multi`]).
///
/// One extra actor that replays the arrival schedule through the
/// embedding's [`SchedGate`] and gates each job's source chains: the
/// sources of a gated run are *not* seeded at time zero — the scheduler
/// sends their first [`Msg::SourceNext`] at the dispatch instant, so a
/// queued job holds no emulated resources until admitted. Sink
/// instances report back with [`Msg::SinkFlushed`]; a job completes
/// once every one of its sink instances has flushed.
struct SchedActor<R: Record> {
    gate: Box<dyn SchedGate>,
    /// Source instance actors per job, in dispatch (seeding) order.
    sources: Vec<Vec<ActorId>>,
    /// Sink-instance flushes each job must collect to complete.
    sinks_expected: Vec<usize>,
    sinks_seen: Vec<usize>,
    done: Vec<bool>,
    /// Shared with the [`crate::multi::run_jobs`] caller, which reads
    /// the decisions back into per-job statistics after the run.
    log: Arc<Mutex<Vec<SchedEvent>>>,
    metrics: Rc<RefCell<Metrics<R>>>,
}

impl<R: Record> SchedActor<R> {
    fn note(&mut self, ctx: &Ctx<'_, Msg<R>>, job: usize, kind: SchedEventKind) {
        let now = ctx.now();
        self.log
            .lock()
            .expect("scheduler log poisoned")
            .push(SchedEvent { at: now, job, kind });
        self.metrics
            .borrow_mut()
            .trace
            .record_with(now, || ("sched", format!("job {job} {kind:?}")));
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, Msg<R>>, job: usize) {
        self.note(ctx, job, SchedEventKind::Dispatch);
        for i in 0..self.sources[job].len() {
            let actor = self.sources[job][i];
            ctx.send_now(actor, Msg::SourceNext);
        }
    }
}

impl<R: Record> lmas_sim::Actor<Msg<R>> for SchedActor<R> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::JobArrive(j) => {
                self.note(ctx, j, SchedEventKind::Arrive);
                match self.gate.on_arrival(j, ctx.now()) {
                    GateDecision::Dispatch => self.dispatch(ctx, j),
                    GateDecision::Queue => self.note(ctx, j, SchedEventKind::Queued),
                    GateDecision::Reject => self.note(ctx, j, SchedEventKind::Rejected),
                }
            }
            Msg::SinkFlushed(j) => {
                self.sinks_seen[j] += 1;
                debug_assert!(
                    self.sinks_seen[j] <= self.sinks_expected[j],
                    "job {j} over-reported sink flushes"
                );
                if self.sinks_seen[j] == self.sinks_expected[j] && !self.done[j] {
                    self.done[j] = true;
                    self.note(ctx, j, SchedEventKind::Complete);
                    for k in self.gate.on_completion(j, ctx.now()) {
                        self.dispatch(ctx, k);
                    }
                }
            }
            _ => unreachable!("non-scheduler message delivered to the scheduler"),
        }
    }
}

/// Run `job` on the cluster described by `cfg` with no faults.
pub fn run_job<R: Record>(
    cfg: &ClusterConfig,
    job: Job<R>,
) -> Result<EmulationReport<R>, JobError> {
    run_job_with_faults(cfg, &FaultSpec::none(), job)
}

/// Run `job` on the cluster described by `cfg` under the fault plan in
/// `spec`. With an inactive spec (empty plan) this is exactly
/// [`run_job`]: no controller, no masks, byte-identical timings.
pub fn run_job_with_faults<R: Record>(
    cfg: &ClusterConfig,
    spec: &FaultSpec,
    job: Job<R>,
) -> Result<EmulationReport<R>, JobError> {
    run_partitioned_job(cfg, spec, job, None)
}

/// Everything the runtime needs to run a merged multi-job graph under a
/// scheduler (constructed by [`crate::multi::run_jobs`]).
pub(crate) struct SchedSetup {
    /// Arrival instant per job id (each seeds one [`Msg::JobArrive`]).
    pub arrivals: Vec<SimTime>,
    /// Owning job of each stage in the merged graph.
    pub stage_job: Vec<usize>,
    /// Source `(stage, instance)` pairs per job, in the same stage-major
    /// order the direct path seeds, so a lone job dispatched at its
    /// arrival replays the direct run's source order exactly.
    pub sources: Vec<Vec<(usize, usize)>>,
    /// Sink-instance flush count each job must reach to complete.
    pub sinks: Vec<usize>,
    /// The pluggable admission/fairness gate.
    pub gate: Box<dyn SchedGate>,
    /// Shared event log the embedding reads back after the run.
    pub log: Arc<Mutex<Vec<SchedEvent>>>,
}

/// Run a merged multi-job graph under a scheduler gate. Fault-free by
/// construction (completion detection counts sink flushes, which the
/// fault layer's fencing would starve) and always one partition
/// (`threads > 1` records the `"scheduler"` fallback reason).
pub(crate) fn run_job_sched<R: Record>(
    cfg: &ClusterConfig,
    job: Job<R>,
    setup: SchedSetup,
) -> Result<EmulationReport<R>, JobError> {
    run_partitioned_job(cfg, &FaultSpec::none(), job, Some(setup))
}

/// The stages the runtime balancer watches: replicated stages fed
/// through a policy with routing freedom (anything but Static), sorted
/// and deduped.
fn watched_stages<R: Record>(graph: &FlowGraph<R>) -> Vec<usize> {
    let mut watched: Vec<usize> = graph
        .edges()
        .iter()
        .filter(|e| e.routing != lmas_core::RoutingPolicy::Static)
        .map(|e| e.to.0)
        .filter(|&to| graph.stages()[to].replication > 1)
        .collect();
    watched.sort_unstable();
    watched.dedup();
    watched
}

/// Whether the partitioned engine can reproduce this graph's routing
/// draws bit-for-bit. Backlog-sensitive policies (LoadAware, power of
/// two choices) read the stage's whole backlog at pick time, which a
/// partition's gauge (it sees only its own mutations) cannot provide;
/// they run on one partition.
/// Single-instance groups never exercise a choice, so any policy is fine
/// there.
fn parallel_eligible<R: Record>(graph: &FlowGraph<R>) -> bool {
    use lmas_core::RoutingPolicy::{RoundRobin, SimpleRandomization, Static};
    graph.edges().iter().all(|e| {
        let group_size = match e.scope {
            lmas_core::RouteScope::Global => graph.stages()[e.to.0].replication,
            lmas_core::RouteScope::PortGroups { group_size } => group_size,
        };
        group_size <= 1 || matches!(e.routing, Static | RoundRobin | SimpleRandomization)
    })
}

/// The partition a node belongs to: hosts are split into `P` contiguous
/// blocks (host `h` → partition `h·P/H`), and ASU `a` is co-located
/// with host `a mod H` — the host that era-style placements pair it
/// with — so the dominant ASU→host data streams stay partition-local
/// and only inter-host traffic (which always pays
/// [`ClusterConfig::link_latency`], the lookahead) crosses threads.
///
/// Blocks, not `h mod P`: placements that stride hosts (e.g. Static
/// mode's `α` sorters at hosts `i·H/α`) collide onto one partition
/// whenever the stride is a multiple of `P`, serialising the run. A
/// contiguous split spreads any stride narrower than a block evenly.
/// (For `H ≤ 2` the two mappings coincide.)
fn node_partition(hosts: usize, nparts: usize, id: NodeId) -> u32 {
    if nparts == 1 {
        return 0;
    }
    let h = match id {
        NodeId::Host(h) => h,
        NodeId::Asu(a) => a % hosts,
    };
    (h * nparts / hosts) as u32
}

/// One row of the global instance table shared by every partition
/// worker: the build order (stage-major), so index == global actor id ==
/// global instance tag.
struct InstSpec {
    stage: usize,
    instance: usize,
    node: NodeId,
    part: u32,
}

/// What one partition hands back after the fleet drains.
struct EmPartOut<R: Record> {
    /// The run's end instant (identical on every partition — it is the
    /// result of a collective max-reduction).
    end: SimTime,
    /// Reports for the nodes this partition owns, keyed by dense node
    /// index for the final hosts-then-ASUs ordering.
    nodes: Vec<(usize, NodeReport)>,
    metrics: Metrics<R>,
    /// This partition's gauge of each stage (its share of the ops).
    gauges: Vec<StageGauge>,
}

/// Thread-local state carried from build to finish (`Rc` handles shared
/// with the actors; never crosses threads).
struct EmBuilt<R: Record> {
    /// Owned nodes, indexed by dense node index (`None` = another
    /// partition's node).
    nodes: Vec<Option<Rc<RefCell<NodeRes>>>>,
    gauges: Vec<Rc<RefCell<StageGauge>>>,
    metrics: Rc<RefCell<Metrics<R>>>,
    /// A scheduler gates the sources (the makespan then starts from the
    /// last application activity, not a trailing rejected arrival).
    gated: bool,
}

/// Builds and harvests one partition of an emulation (the only one at
/// `P = 1`).
struct EmWorker<R: Record> {
    part: u32,
    nparts: usize,
    cfg: ClusterConfig,
    spec: FaultSpec,
    /// The fault layer is on (a controller slot exists per partition).
    active: bool,
    /// Precomputed fault timelines, shared by every partition.
    detected: Arc<DetectedTimeline>,
    loss: Arc<LossTimeline>,
    /// Snapshot-balancer watched stages (empty = balancer off).
    watched: Arc<Vec<usize>>,
    /// Minimum cross-node delay — the lookahead and control delay.
    ctl: SimDuration,
    /// Precomputed repair-coordinator event feed (empty when repair is
    /// off; the spec itself rides in `spec.repair`).
    repair_tl: Arc<Vec<(SimTime, RepairEv)>>,
    graph: Arc<FlowGraph<R>>,
    specs: Arc<Vec<InstSpec>>,
    /// First global instance index of each stage.
    stage_base: Arc<Vec<usize>>,
    eos_expected: Arc<Vec<usize>>,
    /// Source inputs for instances this partition owns.
    inputs: BTreeMap<(usize, usize), Vec<Packet<R>>>,
    /// Multi-tenant gate of a scheduled run (always a one-partition
    /// run): installed on this partition, taken by `build`.
    sched: Option<SchedSetup>,
}

impl<R: Record> EmWorker<R> {
    /// Does this partition own dense node index `n`?
    fn owns_node(&self, n: usize) -> bool {
        let id = if n < self.cfg.hosts {
            NodeId::Host(n)
        } else {
            NodeId::Asu(n - self.cfg.hosts)
        };
        node_partition(self.cfg.hosts, self.nparts, id) == self.part
    }
}

impl<R: Record> PartitionWorker<Msg<R>, EmPartOut<R>> for EmWorker<R> {
    type Built = EmBuilt<R>;

    fn build(&mut self, sim: &mut Simulation<Msg<R>>) -> EmBuilt<R> {
        let cfg = &self.cfg;
        let graph = &self.graph;
        let n_inst = self.specs.len();
        let n_ctrl = if self.active { self.nparts } else { 0 };
        let has_bal = !self.watched.is_empty();
        let repair_spec = if self.active { self.spec.repair } else { None };
        let n_repair = if repair_spec.is_some() {
            cfg.asus + 1
        } else {
            0
        };
        let sched = self.sched.take();
        // One fault-controller slot per partition right after the
        // instances, then the (partition-0-owned) balancer slot, the
        // repair slots, and the scheduler slot last.
        let bal_actor = ActorId(n_inst + n_ctrl);
        let sched_actor = ActorId(n_inst + n_ctrl + usize::from(has_bal) + n_repair);
        sim.reserve_to(sched_actor.0 + usize::from(sched.is_some()));

        // Every node is instantiated by exactly one partition (reports
        // cover idle nodes too); only owned actors ever touch it.
        let mut nodes: Vec<Option<Rc<RefCell<NodeRes>>>> = Vec::new();
        for id in (0..cfg.hosts)
            .map(NodeId::Host)
            .chain((0..cfg.asus).map(NodeId::Asu))
        {
            nodes.push(
                (node_partition(cfg.hosts, self.nparts, id) == self.part)
                    .then(|| Rc::new(RefCell::new(NodeRes::new(id, cfg)))),
            );
        }
        let gauges: Vec<Rc<RefCell<StageGauge>>> = graph
            .stages()
            .iter()
            .map(|s| Rc::new(RefCell::new(StageGauge::new(s.replication))))
            .collect();
        let metrics = Rc::new(RefCell::new(Metrics::<R>::new(graph.stages().len())));
        if cfg.trace_capacity > 0 {
            // Full capacity per partition: each ring then retains a
            // suffix of its own pushes that is guaranteed to cover its
            // share of the global tail window (see `Trace::merge`).
            metrics.borrow_mut().trace = Trace::enabled(cfg.trace_capacity);
        }
        // Fencing/flush flags: global-length per partition, but only
        // owned instances (and the partition's own controller) ever
        // read or write an entry — instance partition == node partition
        // by construction, so every flag access stays partition-local.
        let flags = Rc::new(RefCell::new(vec![InstFlags::default(); n_inst]));

        for (idx, sp) in self.specs.iter().enumerate() {
            if sp.part != self.part {
                continue;
            }
            let stage = &graph.stages()[sp.stage];
            let down = graph.out_edge(StageId(sp.stage)).map(|e| {
                let to = e.to.0;
                let to_stage = &graph.stages()[to];
                let base = self.stage_base[to];
                let node_ids: Vec<NodeId> = (0..to_stage.replication)
                    .map(|j| self.specs[base + j].node)
                    .collect();
                let node_idx = node_ids.iter().map(|&id| node_index(cfg, id)).collect();
                let capacities = node_ids.iter().map(|&id| cfg.node_speed(id)).collect();
                let group_size = match e.scope {
                    lmas_core::RouteScope::Global => to_stage.replication,
                    lmas_core::RouteScope::PortGroups { group_size } => group_size,
                };
                Downstream {
                    actors: (0..to_stage.replication)
                        .map(|j| ActorId(base + j))
                        .collect(),
                    node_ids,
                    node_idx,
                    capacities,
                    // Per-sender stream keyed by global instance index,
                    // so SR draws align however the run partitions.
                    router: Router::new(e.routing, cfg.seed, idx as u64),
                    gauge: gauges[to].clone(),
                    weights: Vec::new(),
                    group_size,
                    dest_stage: to,
                    coded_r: e.coded_group,
                    coded_buf: if e.coded_group > 1 {
                        vec![
                            Vec::new();
                            to_stage.replication.div_ceil(e.coded_group)
                        ]
                    } else {
                        Vec::new()
                    },
                    _marker: std::marker::PhantomData,
                }
            });
            let source_data: VecDeque<Packet<R>> = self
                .inputs
                .remove(&(sp.stage, sp.instance))
                .map(Into::into)
                .unwrap_or_default();
            let actor = InstanceActor {
                stage: sp.stage,
                instance: sp.instance,
                functor: stage.instantiate(sp.instance),
                node: nodes[node_index(cfg, sp.node)]
                    .as_ref()
                    .expect("instance placed on an owned node")
                    .clone(),
                queue: VecDeque::new(),
                pending: None,
                eos_expected: self.eos_expected[sp.stage],
                eos_seen: 0,
                flushed: false,
                down,
                source_data,
                is_source: stage.is_source,
                source_live: true,
                ra: (cfg.storage.pool_frames > 0 && stage.is_source).then(|| RaState {
                    window: cfg.storage.read_ahead + 1,
                    staged: 0,
                    pending: false,
                    eos_sent: false,
                }),
                global_tag: idx as u64,
                epoch: 0,
                my_gauge: (!stage.is_source).then(|| (gauges[sp.stage].clone(), sp.instance)),
                metrics: metrics.clone(),
                link_rate: cfg.link_bytes_per_sec,
                latency: cfg.link_latency,
                ctl: self.ctl,
                fault: self.active.then(|| InstanceFault {
                    detected: self.detected.clone(),
                    loss: self.loss.clone(),
                    flags: flags.clone(),
                    backoff: self.spec.backoff,
                    fail_fast: self.spec.fail_fast,
                    my_node: node_index(cfg, sp.node),
                    my_global: idx,
                    factory: stage.factory_handle(),
                    // Keyed by global instance index: the same stream
                    // whichever partition hosts the instance.
                    rng: DetRng::stream(cfg.seed, (1u64 << 62) | idx as u64),
                }),
                sample: (has_bal && self.watched.binary_search(&sp.stage).is_ok()).then(|| {
                    SampleState {
                        period: cfg.balance.period,
                        report_delay: cfg.balance.period.max(self.ctl),
                        balancer: bal_actor,
                        armed: true,
                    }
                }),
                // Sink instances of a gated run report their flush to
                // the scheduler so it can detect job completion.
                sched: sched
                    .as_ref()
                    .filter(|_| graph.out_edge(StageId(sp.stage)).is_none())
                    .map(|ss| (sched_actor, ss.stage_job[sp.stage])),
            };
            let watched_here = actor.sample.is_some();
            sim.install(ActorId(idx), Box::new(actor));
            // Gated runs hold source seeds back: the scheduler sends the
            // first `SourceNext` at each job's dispatch instant.
            if stage.is_source && sched.is_none() {
                // Ascending actor-id order (the iteration order), as the
                // partitioned seeding contract requires.
                sim.seed_message(ActorId(idx), SimTime::ZERO, Msg::SourceNext);
            }
            if watched_here {
                sim.seed_message(
                    ActorId(idx),
                    SimTime(cfg.balance.period.as_nanos()),
                    Msg::SampleTick,
                );
            }
        }

        if self.active {
            // This partition's fault controller: seeded only with the
            // plan steps and detection verdicts whose node it owns, so
            // every event is dispatched exactly once globally and all
            // node/instance touches are partition-local.
            let ctrl = ActorId(n_inst + self.part as usize);
            let events = self.spec.plan.sorted_events();
            for (i, ev) in events.iter().enumerate() {
                if matches!(ev, FaultEvent::LinkLoss { .. }) {
                    continue;
                }
                if self.owns_node(ev.node()) {
                    sim.seed_message(ctrl, ev.at(), Msg::FaultStep(i));
                }
            }
            for &(node, at) in self.detected.detections() {
                if self.owns_node(node) {
                    sim.seed_message(ctrl, at, Msg::Detect(node));
                }
            }
            let total_nodes = cfg.total_nodes();
            let mut instances_on: Vec<Vec<usize>> = vec![Vec::new(); total_nodes];
            let mut inst_actor: Vec<ActorId> = Vec::with_capacity(n_inst);
            let mut inst_downstream: Vec<Option<Vec<(ActorId, usize)>>> =
                Vec::with_capacity(n_inst);
            for (gi, sp) in self.specs.iter().enumerate() {
                instances_on[node_index(cfg, sp.node)].push(gi);
                inst_actor.push(ActorId(gi));
                inst_downstream.push(graph.out_edge(StageId(sp.stage)).map(|e| {
                    let to = e.to.0;
                    let base = self.stage_base[to];
                    (0..graph.stages()[to].replication)
                        .map(|j| {
                            (
                                ActorId(base + j),
                                node_index(cfg, self.specs[base + j].node),
                            )
                        })
                        .collect()
                }));
            }
            sim.install(
                ctrl,
                Box::new(FaultController {
                    events,
                    nodes: nodes.clone(),
                    flags: flags.clone(),
                    instances_on,
                    inst_actor,
                    inst_downstream,
                    ctl: self.ctl,
                    metrics: metrics.clone(),
                }),
            );
        }

        if has_bal && self.part == 0 {
            let targets: Vec<SnapTarget> = self
                .watched
                .iter()
                .map(|&s| SnapTarget {
                    stage: s,
                    replication: graph.stages()[s].replication,
                    senders: graph
                        .edges()
                        .iter()
                        .filter(|e| e.to.0 == s)
                        .flat_map(|e| {
                            let base = self.stage_base[e.from.0];
                            (0..graph.stages()[e.from.0].replication)
                                .map(move |j| ActorId(base + j))
                        })
                        .collect(),
                })
                .collect();
            sim.install(
                bal_actor,
                Box::new(SnapshotBalancer {
                    spec: cfg.balance,
                    targets,
                    snap: BTreeMap::new(),
                    pending: false,
                    ctl: self.ctl,
                    cur: BTreeMap::new(),
                    metrics: metrics.clone(),
                }),
            );
        }

        if let Some(rs) = repair_spec {
            // Agents for ASU ordinals 0..D (each on its node's
            // partition), then the coordinator on partition 0.
            let agents_base = n_inst + n_ctrl + usize::from(has_bal);
            let coord = ActorId(agents_base + cfg.asus);
            metrics.borrow_mut().repair_src_bytes = vec![0; cfg.asus];
            for d in 0..cfg.asus {
                if !self.owns_node(cfg.hosts + d) {
                    continue;
                }
                sim.install(
                    ActorId(agents_base + d),
                    Box::new(RepairAgent {
                        ordinal: d,
                        node: nodes[cfg.hosts + d]
                            .as_ref()
                            .expect("agent placed on an owned ASU")
                            .clone(),
                        coord,
                        agents_base,
                        queue: VecDeque::new(),
                        busy: false,
                        next_slot: SimTime::ZERO,
                        wbuf: Vec::new(),
                        wflush_at: SimTime::NEVER,
                        pace: rs.pace(),
                        link_rate: cfg.link_bytes_per_sec,
                        latency: cfg.link_latency,
                        ctl: self.ctl,
                        metrics: metrics.clone(),
                    }),
                );
            }
            if self.part == 0 {
                let engine = RepairEngine::new(rs, cfg.asus);
                metrics.borrow_mut().replica_hist = engine.hist().to_vec();
                for (i, &(at, _)) in self.repair_tl.iter().enumerate() {
                    sim.seed_message(coord, at, Msg::RepairStep(i));
                }
                if rs.sample_every.as_nanos() > 0 {
                    if let Some(&(last, _)) = self.repair_tl.last() {
                        let mut k = 0u64;
                        loop {
                            let at = SimTime(k.saturating_mul(rs.sample_every.as_nanos()));
                            if at > last {
                                break;
                            }
                            sim.seed_message(coord, at, Msg::RepairSampleTick);
                            k += 1;
                        }
                    }
                }
                sim.install(
                    coord,
                    Box::new(RepairCoordinator {
                        engine,
                        timeline: self.repair_tl.clone(),
                        agents: (0..cfg.asus).map(|d| ActorId(agents_base + d)).collect(),
                        ctl: self.ctl,
                        sampling: rs.sample_every.as_nanos() > 0,
                        buf: Vec::new(),
                        flush_at: SimTime::NEVER,
                        metrics: metrics.clone(),
                    }),
                );
            }
        }
        // Multi-tenant gate: one `JobArrive` per job at its arrival
        // instant. A lone job arriving at time zero replays the direct
        // path exactly — its `JobArrive` is the only seed at zero, and
        // dispatching enqueues the job's `SourceNext`s in the same
        // stage-major order the instance loop seeds them ungated.
        let gated = sched.is_some();
        if let Some(ss) = sched {
            debug_assert_eq!(ss.stage_job.len(), graph.stages().len());
            for (j, &at) in ss.arrivals.iter().enumerate() {
                sim.seed_message(sched_actor, at, Msg::JobArrive(j));
            }
            let n_jobs = ss.arrivals.len();
            let sources: Vec<Vec<ActorId>> = ss
                .sources
                .iter()
                .map(|srcs| {
                    srcs.iter()
                        .map(|&(s, i)| ActorId(self.stage_base[s] + i))
                        .collect()
                })
                .collect();
            sim.install(
                sched_actor,
                Box::new(SchedActor {
                    gate: ss.gate,
                    sources,
                    sinks_expected: ss.sinks,
                    sinks_seen: vec![0; n_jobs],
                    done: vec![false; n_jobs],
                    log: ss.log,
                    metrics: metrics.clone(),
                }),
            );
        }
        EmBuilt {
            nodes,
            gauges,
            metrics,
            gated,
        }
    }

    fn finish(self, built: EmBuilt<R>, sim: Simulation<Msg<R>>, ops: &ParOps<'_>) -> EmPartOut<R> {
        // Makespan: last dispatch anywhere, every CPU queue drained,
        // every disk quiesced — collective max-reductions over the
        // partitions (the identity at P = 1). Plan events with no
        // application effect (a recovery after the data drained), the
        // balancer's trailing sample tick and a trailing arrival the
        // gate rejected must not count: under faults, a balancer or a
        // gate, start from the last *application* activity instead of
        // the last dispatch. The global last activity is the max of the
        // partition-local ones, which the reduction folds in.
        let mut local = if self.active || self.cfg.balance.is_active() || built.gated {
            built.metrics.borrow().last_activity
        } else {
            sim.now()
        };
        for n in built.nodes.iter().flatten() {
            let n = n.borrow();
            local = local.max(n.cpu_free_at()).max(n.disk_quiesce());
        }
        let mut end = SimTime(ops.allreduce_max(local.as_nanos()));
        if !self.cfg.storage.is_plain() {
            // Flush staged storage (scheduler residue, dirty pool
            // frames): the job only completes once write-behind data is
            // durable. All nodes drain from the same (agreed) base
            // instant, so neither node nor partition order can matter.
            // Skipped for the plain spec, which never stages anything.
            let base = end;
            let mut local = end;
            for n in built.nodes.iter().flatten() {
                local = local.max(n.borrow_mut().storage_drain(base));
            }
            end = SimTime(ops.allreduce_max(local.as_nanos()));
        }
        // Release the actors (and their Rc clones of metrics/gauges).
        drop(sim);

        let nodes = built
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(ni, n)| n.as_ref().map(|n| (ni, n)))
            .map(|(ni, n)| {
                let n = n.borrow();
                (
                    ni,
                    NodeReport {
                        id: n.id,
                        mean_cpu_util: n.mean_cpu_utilization(end),
                        cpu_busy: n.cpu_busy(),
                        cpu_series: n.cpu_utilization(end),
                        records: n.records_processed(),
                        disk: n.disk_counters(),
                        per_disk: n.per_disk_stats(),
                        per_disk_busy: n.per_disk_busy(),
                        pool: n.pool_stats(),
                        nic_busy: n.nic_busy(),
                        nic_bytes_tx: n.nic_bytes_tx(),
                        peak_state_bytes: n.peak_state_bytes(),
                        health: n.health(),
                    },
                )
            })
            .collect();
        let metrics = match Rc::try_unwrap(built.metrics) {
            Ok(cell) => cell.into_inner(),
            Err(rc) => {
                debug_assert!(false, "metrics still shared after the simulation dropped");
                rc.borrow().clone()
            }
        };
        EmPartOut {
            end,
            nodes,
            metrics,
            gauges: built
                .gauges
                .into_iter()
                .map(|g| {
                    Rc::try_unwrap(g).map_or_else(|rc| rc.borrow().clone(), RefCell::into_inner)
                })
                .collect(),
        }
    }
}

/// The one driver behind [`run_job`], [`run_job_with_faults`] and
/// [`run_job_sched`]: validate the job, choose the partition count, build
/// every partition through [`EmWorker`], run, and assemble the report.
///
/// `P = min(threads, hosts)` when the run is eligible; otherwise `P = 1`
/// and [`EmulationReport::par_fallback`] records why. A one-partition run
/// executes inline on the sequential calendar (`request_stop` for
/// `fail_fast`) and its partition's metrics are the report's, with no
/// merge. At `P > 1` the partition shares
/// merge back into exactly that report — same virtual times, dispatch
/// counts, merged trace and gauge history — and [`EmulationReport::par`]
/// records how the run was parallelized.
fn run_partitioned_job<R: Record>(
    cfg: &ClusterConfig,
    spec: &FaultSpec,
    job: Job<R>,
    mut sched: Option<SchedSetup>,
) -> Result<EmulationReport<R>, JobError> {
    let Job {
        graph,
        placement,
        mut inputs,
    } = job;
    graph.validate()?;
    placement.validate(&graph.placement_rows(), cfg.asu_mem_bytes)?;
    for (s, stage) in graph.stages().iter().enumerate() {
        if !stage.is_source && graph.in_degree(StageId(s)) == 0 {
            return Err(JobError::DisconnectedStage(StageId(s)));
        }
    }
    for &(s, i) in inputs.keys() {
        if !graph.stages()[s].is_source {
            return Err(JobError::InputForNonSource {
                stage: s,
                instance: i,
            });
        }
    }
    let active = spec.is_active();
    let total_nodes = cfg.total_nodes();
    if active {
        if spec.heartbeat_period.as_nanos() == 0 {
            return Err(JobError::ZeroHeartbeatPeriod);
        }
        for ev in spec.plan.sorted_events() {
            let bad = match ev {
                FaultEvent::LinkLoss { from, to, .. } => from.max(to),
                other => other.node(),
            };
            if bad >= total_nodes {
                return Err(JobError::FaultPlanNode { node: bad });
            }
        }
    }
    // Background re-replication engages only with the fault layer on
    // (without a plan there is nothing to repair), but a spec that does
    // not fit the cluster is a typed error either way, before anything
    // runs.
    if let Some(rs) = &spec.repair {
        if let Err(why) = rs.validate(cfg.asus) {
            return Err(JobError::RepairConfig(why));
        }
    }
    let repair_on = active && spec.repair.is_some();

    // The control delay: the minimum cross-node delay (link latency
    // plus the NIC's per-frame overhead service), which is exactly the
    // partitioned engine's lookahead. Every cross-node control message
    // (NACK bounce, fence EOS, depth report, weight update) travels
    // with at least this much, so the protocol partitions cleanly.
    let ctl = SimDuration::from_nanos(
        cfg.link_latency.as_nanos()
            + nic_service(cfg.nic_frame_overhead_bytes, cfg.link_bytes_per_sec).as_nanos(),
    );
    // The shapes more than one partition cannot reproduce run at P = 1
    // and record why: gated runs (the scheduler holds source seeds back
    // until it dispatches them — cross-partition control flow with no
    // lookahead), backlog-sensitive routing (reads live cross-partition
    // queue depths), a zero minimum cross-node delay (no lookahead), and
    // `fail_fast` specs (a global early stop).
    let par_fallback: Option<&'static str> = if cfg.threads <= 1 {
        None
    } else if sched.is_some() {
        Some("scheduler")
    } else if !parallel_eligible(&graph) {
        Some("backlog routing")
    } else if ctl.as_nanos() == 0 {
        Some("zero latency")
    } else if active && spec.fail_fast {
        Some("fault plan")
    } else {
        None
    };
    let nparts = if par_fallback.is_some() {
        1
    } else {
        cfg.threads.min(cfg.hosts).max(1)
    };

    let detected = Arc::new(DetectedTimeline::build(
        &spec.plan,
        spec.heartbeat_period,
        spec.heartbeat_timeout,
        total_nodes,
    ));
    let loss = Arc::new(LossTimeline::build(&spec.plan, total_nodes));
    let watched: Arc<Vec<usize>> = Arc::new(if cfg.balance.is_active() {
        watched_stages(&graph)
    } else {
        Vec::new()
    });

    // Global instance table in build order (stage-major); index ==
    // actor id == instance tag.
    let mut specs: Vec<InstSpec> = Vec::new();
    let mut stage_base: Vec<usize> = Vec::with_capacity(graph.stages().len());
    for (s, stage) in graph.stages().iter().enumerate() {
        stage_base.push(specs.len());
        for i in 0..stage.replication {
            let node = placement
                .node_of(StageId(s), i)
                .ok_or(JobError::UnplacedInstance {
                    stage: s,
                    instance: i,
                })?;
            let part = node_partition(cfg.hosts, nparts, node);
            specs.push(InstSpec {
                stage: s,
                instance: i,
                node,
                part,
            });
        }
    }
    // Actor-ownership table: the instances, then (under faults) one
    // controller slot per partition, then the balancer slot on
    // partition 0, the repair slots (each agent on its ASU's partition,
    // the coordinator on partition 0), and last the scheduler slot.
    let mut owner_vec: Vec<u32> = specs.iter().map(|sp| sp.part).collect();
    if active {
        owner_vec.extend(0..nparts as u32);
    }
    if !watched.is_empty() {
        owner_vec.push(0);
    }
    if repair_on {
        for d in 0..cfg.asus {
            owner_vec.push(node_partition(cfg.hosts, nparts, NodeId::Asu(d)));
        }
        owner_vec.push(0);
    }
    if sched.is_some() {
        owner_vec.push(0);
    }
    let repair_tl: Arc<Vec<(SimTime, RepairEv)>> = Arc::new(if repair_on {
        repair_timeline(&spec.plan, &detected, cfg.hosts, cfg.asus)
    } else {
        Vec::new()
    });
    let owners: Arc<Vec<u32>> = Arc::new(owner_vec);
    let eos_expected: Vec<usize> = (0..graph.stages().len())
        .map(|s| {
            let stage = &graph.stages()[s];
            let from_edges: usize = graph
                .edges()
                .iter()
                .filter(|e| e.to == StageId(s))
                .map(|e| graph.stages()[e.from.0].replication)
                .sum();
            from_edges + usize::from(stage.is_source)
        })
        .collect();

    // Split the source inputs by owning partition.
    type PartInputs<R> = BTreeMap<(usize, usize), Vec<Packet<R>>>;
    let mut inputs_by_part: Vec<PartInputs<R>> = (0..nparts).map(|_| BTreeMap::new()).collect();
    for sp in &specs {
        if let Some(v) = inputs.remove(&(sp.stage, sp.instance)) {
            inputs_by_part[sp.part as usize].insert((sp.stage, sp.instance), v);
        }
    }

    let nstages = graph.stages().len();
    let graph = Arc::new(graph);
    let specs = Arc::new(specs);
    let stage_base = Arc::new(stage_base);
    let eos_expected = Arc::new(eos_expected);
    let workers: Vec<EmWorker<R>> = inputs_by_part
        .into_iter()
        .enumerate()
        .map(|(p, inputs)| EmWorker {
            part: p as u32,
            nparts,
            cfg: *cfg,
            spec: spec.clone(),
            active,
            detected: detected.clone(),
            loss: loss.clone(),
            watched: watched.clone(),
            ctl,
            repair_tl: repair_tl.clone(),
            graph: graph.clone(),
            specs: specs.clone(),
            stage_base: stage_base.clone(),
            eos_expected: eos_expected.clone(),
            inputs,
            // Gated runs are one partition, so this is partition 0.
            sched: sched.take(),
        })
        .collect();

    let outcome = run_partitioned(cfg.seed, owners, ctl, workers);

    // Assemble the report from the partition shares (at P = 1, the one
    // share as is).
    let end = outcome.results.first().map_or(SimTime::ZERO, |r| r.end);
    debug_assert!(outcome.results.iter().all(|r| r.end == end));
    let mut node_reports: Vec<(usize, NodeReport)> = Vec::with_capacity(total_nodes);
    let mut metrics_parts: Vec<Metrics<R>> = Vec::with_capacity(nparts);
    let mut gauge_parts: Vec<Vec<StageGauge>> = (0..nstages).map(|_| Vec::new()).collect();
    for part in outcome.results {
        node_reports.extend(part.nodes);
        metrics_parts.push(part.metrics);
        for (s, g) in part.gauges.into_iter().enumerate() {
            gauge_parts[s].push(g);
        }
    }
    node_reports.sort_by_key(|&(ni, _)| ni);
    debug_assert_eq!(node_reports.len(), total_nodes, "every node reported once");
    let m = Metrics::merge(metrics_parts);
    // Only a one-partition run can stop early (`fail_fast` specs never
    // partition), so a fatal fault is always the whole story.
    if let Some(FatalFault { stage, at }) = m.fatal {
        return Err(JobError::AllReplicasDown {
            stage,
            at,
            records_processed: m.records_processed,
        });
    }
    let down_nodes: Vec<NodeId> = node_reports
        .iter()
        .filter(|(_, r)| matches!(r.health, NodeHealth::Down))
        .map(|(_, r)| r.id)
        .collect();

    let stage_work = graph
        .stages()
        .iter()
        .zip(&m.stage_work)
        .map(|(s, &w)| (s.name.clone(), w))
        .collect();
    let queue_stats = graph
        .stages()
        .iter()
        .zip(gauge_parts)
        .map(|(st, shares)| StageQueueStats {
            stage: st.name.clone(),
            instances: StageGauge::stats(shares, end),
        })
        .collect();

    Ok(EmulationReport {
        makespan: end.since(SimTime::ZERO),
        nodes: node_reports.into_iter().map(|(_, r)| r).collect(),
        stage_work,
        stage_records_in: m.stage_records_in,
        stage_usage: m.stage_usage,
        sink_outputs: m.sink_outputs,
        records_processed: m.records_processed,
        mem_violations: m.mem_violations,
        dispatched: outcome.dispatched,
        trace: m.trace,
        down_nodes,
        fault: m.fault,
        queue_stats,
        reweights: m.reweights,
        repair: m.repair,
        repair_trajectory: m.repair_samples,
        replica_hist: m.replica_hist,
        repair_src_bytes: m.repair_src_bytes,
        par: (nparts > 1).then_some(ParRunStats {
            partitions: nparts,
            windows: outcome.windows,
            critical_dispatched: outcome.critical_dispatched,
            remote_messages: outcome.remote_messages,
            window_width_hist: outcome.window_width_hist,
            barrier_wait_hist: outcome.barrier_wait_hist,
        }),
        par_fallback,
    })
}
