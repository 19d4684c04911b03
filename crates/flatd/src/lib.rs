//! flatd: a persistent compile-and-execute service for incremental
//! flattening.
//!
//! `flatc exec` pays the full pipeline — parse, elaborate, flatten into
//! a multi-version program, compile to VM bytecode — on every
//! invocation, which dwarfs the runtime of small programs and makes the
//! compiler useless as a backing service. This crate keeps the compiler
//! *resident*: a threaded TCP daemon ([`server`]) holds a content-hash
//! compile cache ([`cache::CompileCache`]) mapping source hashes to
//! compiled multi-version programs, a per-device tuning cache
//! ([`cache::TuningCache`]) warm-started from execution samples, and a
//! bounded admission queue ([`admit`]) that sheds load instead of
//! queueing unboundedly.
//!
//! The wire protocol ([`proto`]) is length-prefixed JSON with results
//! streamed as chunked little-endian bit patterns, so remote results
//! are **bitwise identical** to a local `flatc exec --backend vm` run —
//! floats included. [`client`] is the synchronous client behind
//! `flatc remote exec`, and [`bench`] holds the reference workload the
//! `flat-ledger` benchmark sends to the daemon.
//!
//! See `docs/SERVICE.md` for the protocol grammar, cache-key and
//! invalidation rules, the admission-control policy, and deployment
//! knobs.

pub mod admit;
pub mod bench;
pub mod cache;
pub mod client;
pub mod proto;
pub mod server;

pub use admit::{AdmitQueue, Job};
pub use cache::{program_hash, CompileCache, SampleStore, TuningCache};
pub use client::{Client, ClientError, ExecReply, ExecSpec};
pub use proto::{read_frame, write_frame, FrameError, ServiceError, MAX_FRAME};
pub use server::{start, Daemon, ServerConfig, ServerHandle};
