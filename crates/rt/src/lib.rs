#![warn(missing_docs)]
//! # fuxi-rt
//!
//! A live multi-threaded runtime that runs the *unchanged* production
//! actors — FuxiMaster, FuxiAgent, JobMaster, TaskWorker, the Apsara
//! services — on a fixed pool of worker threads with real clocks. The
//! deterministic kernel in `fuxi-sim` answers "is the protocol correct";
//! this crate answers "does the same code hold up under real concurrency
//! and wall-clock time".
//!
//! * [`runtime`] — [`runtime::LiveRuntime`]: ready actors run off one FIFO
//!   run queue on one worker per core, at most one worker per actor; a
//!   hashed timer wheel and wall-clock flow engine on a dedicated clock
//!   thread;
//! * [`cluster`] — [`cluster::LiveCluster`]: the full Fuxi stack wired
//!   exactly like the simulated harness, driven by the same config;
//! * [`scrape`] — an HTTP endpoint (`/metrics` Prometheus text, `/json`)
//!   serving the live cluster view;
//! * [`mailbox`] — per-actor mailboxes: lazily grown queues with the
//!   actor's scheduling flag and the backpressure bound;
//! * [`timer`] — the clock thread's timer wheel;
//! * [`transport`] — the versioned, framed deployment transport (HELLO
//!   handshake, typed version rejection, TCP | in-proc channel).

pub mod cluster;
pub mod mailbox;
pub mod runtime;
pub mod scrape;
pub mod timer;
pub mod transport;

pub use cluster::LiveCluster;
pub use mailbox::{MailboxGauges, PushOutcome};
pub use runtime::{LiveRuntime, RuntimeConfig};
pub use timer::TimerWheel;
pub use transport::{ChannelTransport, Frame, TcpTransport, Transport, TransportListener};
