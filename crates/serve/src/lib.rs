//! `mmio-serve` — the fault-tolerant certification service.
//!
//! The batch CLI answers one question per process. This crate keeps the
//! answers: a newline-delimited-JSON service over a Unix socket
//! ([`server`]) in front of a bounded job queue with panic-isolated
//! workers ([`engine`], [`queue`]), backed by a process-wide memo tier
//! sharded by `(algo, k)` with content-hash keys and crash-safe disk
//! persistence ([`cache`]).
//!
//! The contract, in one sentence: **a successful response is byte-identical
//! to the batch CLI at any concurrency, and every failure — malformed
//! request, panicking job, expired deadline, wedged worker, saturated
//! queue, corrupt or dying disk — is a typed response with a stable
//! `MMIO-Fxxx` code, never a hang, never a crash, never a wrong answer.**
//!
//! The first half of the contract is structural: the CLI and the server
//! render through the same [`ops`] functions. The second half is *proved*,
//! not hoped: the deterministic fault-injection layer ([`faults`]) tears
//! writes, flips bits, kills the process mid-persist, wedges workers, and
//! saturates the queue, and the harness in `tests/` asserts zero hangs,
//! zero corrupt responses, and exact diagnostic codes under every one of
//! those insults.
//!
//! Diagnostic codes live in the workspace registry
//! (`mmio-analyze::codes`, the `MMIO-Fxxx` family) and are re-exported
//! from [`codes`].

#![forbid(unsafe_code)]

pub mod cache;
pub mod codes;
pub mod engine;
pub mod faults;
pub mod ops;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{CacheKey, DiskCache, RecoveryReport, ServeDiag};
pub use engine::{Engine, EngineConfig};
pub use faults::{FaultHook, FaultPlan, NoFaults, PersistFault, ReadFault, ScriptedFaults};
pub use protocol::{Op, ParseError, Request, Response, Status};
pub use server::{Client, Server};
