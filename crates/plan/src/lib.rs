//! # lmas-plan — the load-management planner
//!
//! The paper's thesis is that declared functor costs let *the system*
//! decide placement, replication, and routing (Sections 3.3, 8). This
//! crate is that decision-maker, offline half: given a dataflow graph,
//! per-stage declared [`Work`](lmas_core::Work), functor memory
//! contracts, and the cluster model (H, D, c, disk/link rates), it
//!
//! 1. enumerates replication degrees ([`plan_best`] scores one
//!    candidate per degree),
//! 2. scores host/ASU assignments with an analytic bottleneck-makespan
//!    [`estimate`](estimate::estimate) (pipelined fill/busy/drain
//!    critical path, tightened by per-node CPU/disk/link bounds),
//! 3. refines greedily with deterministic local search (migrate and
//!    swap moves, first improvement, no RNG), and
//! 4. emits a validated [`Placement`](lmas_core::Placement) plus a
//!    machine-readable [`PlanReport`].
//!
//! The *runtime* half — the feedback balancer that re-weights replica
//! routing from observed queue depths — lives in the emulator
//! (`lmas-emulator::balance`), consuming the
//! [`Router::pick_routed`](lmas_core::Router::pick_routed) weight
//! channel this planner's placements are scored against.
//!
//! Entry points: [`AutoPlace::auto`] (`Placement::auto(...)`) for graph
//! + hints, or [`plan`]/[`plan_best`] on an explicit [`PlanSpec`].

#![warn(missing_docs)]

pub mod auto;
pub mod estimate;
pub mod model;
pub mod report;
pub mod residual;
pub mod search;

pub use auto::{spec_from_graph, AutoPlace, GraphHints, StageHint};
pub use estimate::{estimate, estimate_residual, Bottleneck, Estimate, StageResource};
pub use lmas_core::ClusterShape;
pub use model::{PlanEdge, PlanError, PlanSpec, StageSpec};
pub use report::{CodedPoint, PlanReport, StageBinding, StageRate};
pub use residual::ResidualCapacity;
pub use search::{plan, plan_best, plan_best_residual, plan_residual, PlanOutcome};
