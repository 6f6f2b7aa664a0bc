#![warn(missing_docs)]
//! # fuxi-cluster
//!
//! The end-to-end harness: builds a simulated cluster (lock service,
//! FuxiMaster pair, one FuxiAgent per machine, a client), wires the
//! JobMaster/TaskWorker factories, and offers experiment drivers for the
//! paper's evaluation scenarios.
//!
//! * [`harness`] — [`harness::Cluster`]: construction, job submission,
//!   run-loop helpers, failover and fault controls;
//! * [`scenario`] — the §5.2 synthetic-load driver and §5.4 fault plans;
//! * [`report`] — table/series printers used by the experiment binaries.

pub mod deploy;
pub mod harness;
pub mod report;
pub mod scenario;

pub use deploy::{ActorGroup, DeployTopology, NodeRole, NodeSpec, PlacedActor};
pub use harness::{Client, ClientLog, Cluster, ClusterConfig, JobState, SubmitOpts};
pub use scenario::{fault_plan, FaultRatios, SyntheticRunStats};
