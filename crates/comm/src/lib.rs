//! A thread-based distributed-memory message-passing substrate.
//!
//! The paper evaluates on an IBM SP2 with MPI over the High Performance
//! Switch. This crate substitutes that testbed with *simulated processors*:
//! each rank is an OS thread with private state, and ranks communicate
//! exclusively through byte messages over per-pair channels — the same
//! matched send/receive semantics MPI point-to-point provides.
//!
//! Two quantities drive every comparison in the paper:
//!
//! * **exact message byte counts** — recorded per rank by
//!   [`TrafficStats`], giving the maximum-received-message-size metric
//!   `M_max` of Section 4;
//! * **modeled communication time** — `T_s + bytes · T_c` per message via
//!   a [`CostModel`], with an [SP2 preset](CostModel::sp2) calibrated to
//!   the HPS (≈ 40 µs latency, ≈ 35 MB/s bandwidth).
//!
//! Computation time is handled separately (measured per-thread CPU time
//! or modeled from operation counts); see `slsvr-core`.

pub mod collectives;
pub mod cost;
pub mod endpoint;
pub mod fault;
pub mod frame;
pub mod group;
pub mod reliable;
pub mod stats;
mod transport;
pub mod vclock;

pub use collectives::{broadcast, gather_tolerant, scatter};
pub use cost::CostModel;
pub use endpoint::{
    CommError, Endpoint, Message, RecvError, SendError, SendErrorKind, Tag, DEFAULT_RECV_DEADLINE,
};
pub use fault::{
    splitmix64, FaultAction, FaultConfig, FaultPlan, KillSpec, StreamClass, TargetedFault,
};
pub use frame::{crc32, read_frame, write_frame, Frame, FrameError, StreamError, HEADER_LEN};
pub use group::{run_group, run_group_with, GroupOptions, GroupRun};
pub use reliable::ReliabilityConfig;
pub use stats::TrafficStats;
pub use vclock::{explore_schedules, ChoicePoint, ScheduleSpec, ScheduleTrace, SimNet};
