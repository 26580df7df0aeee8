//! A deterministic discrete-event network simulator.
//!
//! The paper's protocols are *inhibitory*: they decide when the
//! controllable events (send `x.s`, delivery `x.r`) may execute. The
//! simulator gives them an adversarial but reproducible environment:
//!
//! - **non-FIFO channels** — per-message latency drawn from a pluggable
//!   [`LatencyModel`], so messages reorder freely in transit;
//! - **user vs control traffic** — protocol [`Frame`]s are either user
//!   messages (whose four events are recorded) or control messages
//!   (counted and costed, invisible in the user's view);
//! - **full run capture** — the kernel logs `x.s*`, `x.s`, `x.r*`,
//!   `x.r` into a live [`StreamingRun`](msgorder_runs::StreamingRun) as
//!   the simulation executes; [`Simulation::run`] materializes it into
//!   a [`SystemRun`](msgorder_runs::SystemRun) afterwards, while
//!   [`Simulation::run_streaming`] feeds every event to a
//!   [`RunObserver`] the moment it executes (online monitoring,
//!   early-exit on violation) and never builds the closure at all;
//! - **determinism** — all randomness flows from one seed; event ties
//!   break on a monotone sequence number.
//!
//! # Example
//!
//! ```
//! use msgorder_simnet::{Simulation, SimConfig, LatencyModel, Workload, Protocol, Ctx, Frame};
//! use msgorder_runs::{MessageId, ProcessId};
//!
//! /// The do-nothing (tagless, asynchronous) protocol.
//! struct Async;
//! impl Protocol for Async {
//!     fn on_send_request(&mut self, ctx: &mut Ctx<'_>, msg: MessageId) {
//!         ctx.send_user(msg, Vec::new());
//!     }
//!     fn on_user_frame(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: MessageId, _tag: Vec<u8>) {
//!         ctx.deliver(msg);
//!     }
//! }
//!
//! let workload = Workload::uniform_random(3, 20, 0xfeed);
//! let config = SimConfig::new(3, LatencyModel::Uniform { lo: 1, hi: 100 }, 1);
//! let result = Simulation::run_uniform(config, workload, |_| Async).expect("no protocol bug");
//! assert!(result.run.is_quiescent());
//! assert_eq!(result.stats.control_messages, 0);
//! ```
//!
//! Faulty networks (loss, duplication, partitions, crashes) are opt-in
//! via [`FaultModel`]; protocol implementation bugs surface as
//! [`SimError`] counterexamples instead of aborting the process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod explore;
mod faults;
mod frame;
mod host;
mod kernel;
mod latency;
mod liveness;
mod realtime;
mod slab_map;
mod stats;
mod workload;

pub use error::{SimError, SimErrorKind, SimOutcome};
pub use explore::{
    explore_monitored_with, explore_parallel_with, DedupMode, Exploration, ExploreOptions,
    PrefixMonitor,
};
pub use faults::{AdversarialModel, CrashSchedule, FaultConfigError, FaultModel, Partition};
pub use frame::Frame;
pub use host::{HostAction, HostEnv, HostEvent, ProtocolHost};
pub use kernel::{
    Ctx, DropReason, FaultRecord, ForgedFrame, KernelEvent, PayloadKind, Protocol, RejectReason,
    RunObserver, SimConfig, SimResult, Simulation, StreamResult, TransmitDecision, WireRecord,
};
pub use latency::{LatencyModel, LatencyOverflow};
pub use liveness::{Blame, LivenessVerdict, StuckCause, StuckMessage, StuckStage};
pub use realtime::{
    DriftStats, HostDriver, HostError, InProcessHost, MonotonicClock, RealtimeKernel,
    RealtimeOutcome, WallClock,
};
pub use slab_map::SortedSlab;
pub use stats::Stats;
pub use workload::{SendSpec, Workload};
