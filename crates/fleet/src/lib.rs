//! # gpm-fleet — datacenter-scale fleet simulation with a power-capped
//! cluster governor
//!
//! Scales the single-GPU pipeline (Guerreiro et al., HPCA 2018) to a
//! simulated datacenter: thousands of nodes drawn from the three paper
//! GPUs plus synthetic V100m/A100m/H100m classes, each with per-instance
//! physics jitter, its class's fitted [`gpm_core::PowerModel`], and a
//! seeded kernel arrival stream from `gpm-workloads`.
//!
//! The pipeline has two phases:
//!
//! 1. **Preparation** ([`FleetSim::prepare`]) — fit one model per device
//!    class, then fan node preparation over `gpm-par`: instantiate the
//!    device (optionally behind a `gpm-faults` decorator for degraded
//!    sensors), profile its kernels, sweep timings across the V-F grid,
//!    and condense everything into a power [`Ladder`] per kernel.
//! 2. **Campaign** ([`FleetSim::campaign`]) — a sequential, table-driven
//!    epoch loop. Each epoch the [`ClusterGovernor`][crate::assign]
//!    waterfills the global power cap over the alive nodes' ladders:
//!    everyone starts at their deadline-aware desired configuration and
//!    the governor repeatedly takes the cheapest marginal-energy-per-watt
//!    down-step until the fleet fits under the cap. A min-heap of each
//!    node's next down-step finds that step in O(log N) for N alive
//!    nodes, not by rescanning the fleet. Ladders end in an Off rung, so
//!    any cap is satisfiable by shedding load.
//!
//! Determinism is a contract: the same [`FleetConfig`] produces a
//! byte-identical [`FleetTrace`] (chained FNV-1a digests over every
//! epoch) at any `gpm-par` thread count, including campaigns with
//! injected node failures and degraded sensors.

mod config;
mod governor;
mod node;
mod sim;
mod trace;

pub use config::{class_spec, FleetConfig, FleetError, CLASS_SLUGS};
pub use governor::{assign, oracle_assign, Assignment};
pub use node::{ClassContext, Ladder, NodeState, Rung};
pub use sim::FleetSim;
pub use trace::{EpochRecord, FleetTrace, Fnv};
