//! The client–server wire layer (paper §5.1).
//!
//! "sqalpel is built as a client-server, web-based software platform" —
//! this module is the actual wire, split into a **brain** and two
//! **muscles**:
//!
//! * [`proto`] — the brain: pure, I/O-free codecs. The typed
//!   [`Request`]/[`Reply`] surface shared by every protocol version,
//!   the v1 JSON/HTTP codec ([`proto::v1`]) and the v2 framed binary
//!   codec ([`proto::v2`]) with its columnar result encoding.
//! * [`transport`] — the muscles: byte movers only. A minimal HTTP/1.1
//!   subset ([`transport::http`], one request per connection) and the
//!   persistent framed-TCP connection ([`transport::framed`]).
//! * [`dispatch`] — the one execution path: both servers decode into
//!   the same [`Request`] and call [`dispatch::dispatch`], so v1/v2
//!   behavioral equivalence is structural, not disciplined.
//!
//! [`WireServer`] serves v1 over HTTP with a bounded thread pool;
//! [`V2Server`] serves v2 frames with a readiness-driven sharded event
//! loop over epoll ([`poll`]; thousands of idle connections cost buffers,
//! not threads or CPU) and
//! supports **pipelining** — many tagged requests in flight on one
//! connection. [`WireClient`], built via [`WireClient::builder`], speaks
//! either protocol behind one typed API and implements
//! [`crate::server::Platform`], so the driver loop and
//! [`crate::workers::run_worker_pool`] run unchanged in-process, over
//! HTTP, or over frames.
//!
//! Design points:
//!
//! * **Typed errors on the wire.** Every [`crate::PlatformError`] carries
//!   a stable machine-readable code ([`ErrorCode`]); v1 maps variants to
//!   HTTP statuses, v2 to a status byte, and both clients reconstruct
//!   the exact variant, so `match`-based error handling is
//!   transport-agnostic.
//! * **Retry without double-counting.** The client retries connect
//!   failures, I/O errors and 5xx/transport responses with bounded
//!   deterministic backoff. The server keeps claim and report
//!   **idempotent** per contributor key, so a retried request whose
//!   original response was lost hands back the same task / the same
//!   record index. A v2 connection that fails mid-call is torn down and
//!   rebuilt — a half-written frame is discarded by the server, never
//!   dispatched.
//! * **Plan-cache aware execution.** [`Request::Execute`] carries an
//!   optional plan fingerprint; a warm server-side
//!   [`sqalpel_engine::PlanCache`] skips parse/bind on hits, surfaced
//!   per-response as [`CacheStatus`] and in aggregate as
//!   `plan_cache.*` counters at `GET /v1/metrics`.

pub mod client;
pub mod dispatch;
pub(crate) mod poll;
pub mod proto;
pub mod server;
pub mod transport;

pub use client::{Proto, RemoteWaiter, RetryPolicy, WireClient, WireClientBuilder};
pub use dispatch::ExecBackend;
pub use proto::{CacheStatus, ErrorCode, ExecOutcome, Reply, Request, WireResultSet, WireValue};
pub use server::{V2Config, V2Server, WireConfig, WireServer};
