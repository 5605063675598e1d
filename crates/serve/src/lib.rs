//! **vnpu_serve** — the online serving runtime over the vNPU stack.
//!
//! The paper evaluates topology-aware virtualization statically: vNPUs
//! are provisioned once, run, and the chip is torn down. This crate adds
//! the regime a production NPU pool actually operates in — *continuous
//! churn* over a *fleet*: requests arrive over time, a
//! [`vnpu::cluster::Cluster`] of hypervisor-managed chips places them
//! (heterogeneous chip models allowed), virtual NPUs are created and
//! destroyed under fragmentation, mappings are recomputed (or, mostly,
//! *remembered* via the cluster's shared
//! [`vnpu_topo::cache::MappingCache`]) per arrival, and execution
//! interleaves with placement.
//!
//! Three modules implement the loop:
//!
//! * [`arrivals`] — a deterministic seeded traffic model: Poisson-ish
//!   inter-arrival gaps, a weighted mix of virtual-topology shapes
//!   (meshes, chains, awkward core counts) and geometric lifetimes.
//! * [`scheduler`] — the runtime itself, **step-driven**: each
//!   [`ServeRuntime::step`] runs an ordered list of phase functions over
//!   one shared tick context — departures, fault recovery, arrivals, one
//!   pass of the cluster admission queue ([`vnpu::admission`]; the
//!   cluster's is the only one) under the configured
//!   [`vnpu::AdmissionPolicy`] and [`vnpu::ChipPlacement`] trait objects,
//!   maintenance (one budgeted [`vnpu::Cluster::drain_tick`]),
//!   defragmentation ([`vnpu::Cluster::defrag_pass`]), the fragmentation
//!   sample, one machine epoch per loaded chip
//!   ([`vnpu_sim::machine::Machine::run_epoch_makespan`], reused while
//!   the chip's inputs are unchanged) and the optional fleet audit. Every
//!   phase runs through a single wrapper, the only owner of the
//!   per-phase stopwatch ([`ServeConfig::time_phases`]). The tick is
//!   single-threaded: per-chip work (machine epochs; drain and defrag
//!   planning inside the cluster) is a loop in chip order. Callers
//!   interleave inspection and policy swaps between steps;
//!   [`ServeRuntime::run`] is the thin batch loop over `step` + drain.
//! * [`report`] — the [`ServeReport`]: accepted/rejected/queued counts,
//!   p50/p99 time-to-placement in controller cycles, shared-cache hit
//!   rate, the fragmentation trajectory, per-chip breakdowns
//!   ([`ChipReport`]), and leak accounting (a correct run ends with zero
//!   cores and zero HBM bytes still allocated on every chip).
//!
//! Every state transition the loop commits is also emitted exactly once
//! as a [`vnpu_temporal::TraceEvent`]: the report's run counters are
//! folded from that stream (via [`vnpu_temporal::TraceFold`]), the
//! streaming `TEMP-*` temporal checker consumes the same stream when
//! [`ServeConfig::temporal`] is on
//! ([`ServeRuntime::temporal_findings`]), and
//! [`ServeConfig::record_trace`] records it for offline verification
//! with [`vnpu_temporal::check_trace`]
//! ([`ServeRuntime::trace`] / [`ServeRuntime::trace_with_claim`]).
//! One stream, three consumers — the numbers the report claims and the
//! temporal properties guarding them cannot drift apart. It is also the
//! run's one record: two runs that must agree (the same seed twice,
//! instrumentation on and off) are compared on their recorded traces,
//! their per-tick [`TickEvents`] and their reports.
//!
//! # Example
//!
//! ```
//! use vnpu_serve::{ServeConfig, ServeRuntime};
//!
//! let report = ServeRuntime::new(ServeConfig::standard(42, 20))
//!     .run()
//!     .expect("serving runtime completes");
//! assert_eq!(report.leaked_cores, 0);
//! assert_eq!(report.leaked_hbm_bytes, 0);
//! ```
//!
//! Step-driven, over two heterogeneous chips, with a mid-run policy
//! swap:
//!
//! ```
//! use std::sync::Arc;
//! use vnpu::admission::SmallestFirst;
//! use vnpu::cluster::LeastLoaded;
//! use vnpu_serve::{ServeConfig, ServeRuntime};
//! use vnpu_sim::SocConfig;
//!
//! let small = SocConfig { mesh_width: 4, mesh_height: 4, ..SocConfig::sim() };
//! let cfg = ServeConfig::cluster(7, 20, vec![SocConfig::sim(), small]);
//! let mut rt = ServeRuntime::new(cfg);
//! for _ in 0..10 {
//!     rt.step().expect("tick");
//! }
//! rt.set_admission_policy(Arc::new(SmallestFirst));
//! rt.set_placement(Arc::new(LeastLoaded));
//! for _ in 0..10 {
//!     rt.step().expect("tick");
//! }
//! rt.drain().expect("drain");
//! assert_eq!(rt.report().leaked_cores, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod report;
pub mod scheduler;

pub use arrivals::{Arrival, ArrivalGenerator, Shape, TrafficConfig};
pub use report::{ChipReport, FragSample, ServeReport};
pub use scheduler::{ChipSpec, ServeConfig, ServeRuntime, TickEvents};
