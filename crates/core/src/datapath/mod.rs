//! The Nezha data plane, decomposed by role (§3.2):
//!
//! * [`dispatch`] — the `Event` match, the arrival gate, and the NSH
//!   demux that routes each packet to its role handler;
//! * [`be`] — the stateful backend: TX origination, RX-carry
//!   consumption, notify absorption, and direct-RX bouncing;
//! * [`fe`] — the stateless frontends: TX-carry finalization and RX
//!   pre-action lookup, plus notify emission;
//! * [`ctx`] — the [`ctx::HandlerCtx`] borrowed view every handler works
//!   through.
//!
//! # The `HandlerCtx` contract
//!
//! Handlers contain *protocol logic only*. Every cross-cutting concern —
//! metrics, packet tracing, profiler spans, fault queries, CPU-cycle
//! charging, loss/deny/completion accounting — goes through
//! [`ctx::HandlerCtx`]; the plumbing exists once, in `ctx.rs`. Inside
//! `datapath/` (except `ctx.rs` itself) direct access to `Cluster::tel`,
//! `.metrics()` or `.profiler()` (the per-packet recorder) is a lint
//! error (rule D7).
//!
//! A handler MAY:
//! * read/mutate protocol state through `ctx.cl` (switches, sessions,
//!   FEs, BE metadata, gateway, topology, engine scheduling);
//! * call any `HandlerCtx` method.
//!
//! A handler MUST NOT:
//! * touch `tel`, the registry, or the recorder directly;
//! * draw from the RNG (only `lose_packet`'s jitter does, inside the
//!   driver);
//! * panic on broken invariants — degrade to a counted misroute/loss.

pub(crate) mod be;
pub(crate) mod ctx;
pub(crate) mod dispatch;
pub(crate) mod fe;
