//! # lmas-core — the load-managed active storage programming model
//!
//! The paper's primary contribution (HPDC 2002, Wickremesinghe–Chase–
//! Vitter): applications are specified as networks of bounded-cost
//! **functors** over containers of fixed-size records, exposing
//! parallelism, ordering constraints, and computation costs so the
//! *system* can map work onto hosts and Active Storage Units (ASUs) and
//! balance load dynamically.
//!
//! - [`record`]: fixed-size records ([`Rec128`]: the paper's 128-byte /
//!   4-byte-key experimental record) and workload key distributions;
//! - [`container`]: sets (unordered, system-routable), streams (ordered),
//!   arrays (random access), packets (indivisible groups);
//! - [`functor`]: the [`Functor`] contract and the standard library
//!   (map, filter, tally, distribute, block-sort, merge);
//! - [`kernels`]: verified in-memory kernels with comparison audits;
//! - [`graph`]: dataflow graphs of replicated stages;
//! - [`routing`]: static / round-robin / simple-randomization /
//!   load-aware routing across replicated instances;
//! - [`placement`]: the functor-instance → node assignment, validated
//!   against ASU memory bounds and functor eligibility;
//! - [`cost`]: work vectors and the calibrated cost model;
//! - [`adapt`]: the cluster machine model ([`ClusterShape`]: H, D, c,
//!   disk and link rates) and the analytic pipeline model on it that
//!   picks α and the γ split to balance phases (the "adaptive" series of
//!   Figure 9).
//!
//! Execution lives in `lmas-emulator`, which compiles a
//! ([`FlowGraph`], [`Placement`]) pair onto an emulated cluster.

#![warn(missing_docs)]

pub mod adapt;
pub mod container;
pub mod cost;
pub mod functor;
pub mod graph;
pub mod kernels;
pub mod placement;
pub mod record;
pub mod routing;

pub use adapt::ClusterShape;
pub use container::{packetize, ArrayC, Packet, PacketTicket, SetC, StreamC};
pub use cost::{log2_ceil, CostModel, Work};
pub use functor::{Emit, Functor, FunctorKind};
pub use graph::{Edge, EdgeKind, FlowGraph, GraphError, RouteScope, Stage, StageFactory};
pub use placement::{NodeId, Placement, PlacementError, StageId};
pub use record::{generate_rec128, generate_rec8, KeyDist, Rec128, Rec8, Record};
pub use routing::{Router, RoutingPolicy, UpMask};
