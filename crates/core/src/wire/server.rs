//! The wire servers: v1 HTTP (bounded thread pool) and v2 framed
//! (readiness-driven sharded event loop).
//!
//! [`WireServer`] is the original HTTP/1.1 muscle: one acceptor thread
//! feeds accepted connections into a bounded channel drained by a fixed
//! pool of handler threads — one request per connection, enough
//! concurrency for a crowd of contributors without unbounded thread
//! growth.
//!
//! [`V2Server`] serves the framed binary protocol. Connections are
//! persistent and cheap: the acceptor deals them round-robin to a small
//! set of shard threads, and each shard multiplexes *all* its
//! connections with nonblocking I/O — ten thousand mostly-idle
//! contributors cost buffers, not threads. Each shard owns an epoll set
//! and an eventfd waker ([`crate::wire::poll`]) and blocks in
//! `epoll_wait` with no timeout, so an idle shard burns no CPU and a
//! request is served the moment it arrives. A ready connection is
//! serviced — flush pending writes, read available bytes, dispatch every
//! complete frame, flush — and its registration follows its buffers:
//! readable (plus peer hang-up) while it may read, writable only while
//! replies wait. The waker fires when the acceptor hands the shard a
//! connection, when the push hub queues a notification for one of its
//! subscribers, and at shutdown. A connection holding more than
//! `max_frame` unsent bytes is not read (TCP pushes back on its peer); a
//! push subscriber in that state is dropped (`wire.slow_consumer_drops`).
//! A partial frame left at disconnect is discarded **without
//! dispatching** — the drop-injection suite depends on that.
//!
//! Both servers execute ops through the one shared
//! [`dispatch`](crate::wire::dispatch::dispatch), optionally with an
//! attached [`ExecBackend`] for `Execute`. Shutdown is graceful and
//! deterministic for both; dropping a server shuts it down.

use crate::driver::RunOutcome;
use crate::queue::TaskId;
use crate::server::SqalpelServer;
use crate::wire::dispatch::ExecBackend;
use crate::wire::poll::{Poller, Waker, READ, WRITE};
use crate::wire::proto::v1;
use crate::wire::proto::v2::{self, DecodedRequest};
use crate::wire::proto::{status_metric, ErrorCode, Reply, Request};
use crate::wire::transport::http::{read_request, write_response, Response};
use crate::PlatformError;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables of a [`WireServer`].
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Handler threads (concurrent in-flight requests).
    pub workers: usize,
    /// Per-request body cap in bytes.
    pub max_body: usize,
    /// Socket read/write timeout — a stalled peer cannot pin a handler.
    pub io_timeout: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            workers: 4,
            max_body: 1 << 20,
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// A running v1 HTTP server. Bind with [`WireServer::start`], read the
/// actual address with [`WireServer::local_addr`] (use port 0 to let the
/// OS pick), stop with [`WireServer::shutdown`] or by dropping.
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

impl WireServer {
    /// Bind `addr` and start serving `server` in background threads.
    pub fn start(
        server: Arc<SqalpelServer>,
        addr: impl ToSocketAddrs,
        config: WireConfig,
    ) -> io::Result<WireServer> {
        WireServer::start_with_backend(server, None, addr, config)
    }

    /// Like [`WireServer::start`], with a SQL execution backend attached
    /// so `POST /v1/execute` works.
    pub fn start_with_backend(
        server: Arc<SqalpelServer>,
        backend: Option<ExecBackend>,
        addr: impl ToSocketAddrs,
        config: WireConfig,
    ) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        // Bounded: if every handler is busy and the backlog fills, the
        // acceptor blocks and the kernel queue applies backpressure.
        let (tx, rx) = sync_channel::<TcpStream>(config.workers * 2);
        let rx = Arc::new(Mutex::new(rx));

        let handlers = (0..config.workers.max(1))
            .map(|_| {
                let server = Arc::clone(&server);
                let backend = backend.clone();
                let rx = Arc::clone(&rx);
                let config = config.clone();
                std::thread::spawn(move || handler_loop(&server, backend.as_ref(), &rx, &config))
            })
            .collect();

        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || acceptor_loop(&listener, &tx, &stop))
        };

        Ok(WireServer {
            addr: local,
            stop,
            acceptor: Some(acceptor),
            handlers,
        })
    }

    /// The bound address (the OS-picked port when started with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight requests, join every thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept() with a throwaway
        // connection to ourselves; it sees the flag and exits, dropping
        // the channel sender, which in turn stops the handlers.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn acceptor_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, stop: &AtomicBool) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            // The wake-up connection (or whatever arrived with it) is
            // dropped unanswered; clients treat that as a transport error.
            return;
        }
        match conn {
            Ok((stream, _)) => {
                if tx.send(stream).is_err() {
                    return;
                }
            }
            // Transient accept failures (EMFILE, aborted handshake): keep
            // serving.
            Err(_) => continue,
        }
    }
}

fn handler_loop(
    server: &SqalpelServer,
    backend: Option<&ExecBackend>,
    rx: &Mutex<Receiver<TcpStream>>,
    config: &WireConfig,
) {
    loop {
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let mut stream = match stream {
            Ok(s) => s,
            // Channel closed: the acceptor exited, shutdown is underway.
            Err(_) => return,
        };
        let _ = stream.set_read_timeout(Some(config.io_timeout));
        let _ = stream.set_write_timeout(Some(config.io_timeout));
        let response = match read_request(&mut stream, config.max_body) {
            Ok(req) => v1::handle(server, backend, &req),
            // Unparseable request: answer 400 if the socket still works.
            Err(e) => Response::text(400, format!("bad request: {e}")),
        };
        // The peer may have vanished (drop-injection clients do this on
        // purpose); a failed write only affects this connection.
        let _ = write_response(&mut stream, &response);
    }
}

// ================================================================== v2

/// Tunables of a [`V2Server`].
#[derive(Debug, Clone)]
pub struct V2Config {
    /// Shard threads; each multiplexes its share of all connections.
    pub shards: usize,
    /// Per-frame body cap in bytes. Also caps a connection's unsent
    /// replies: above it the server stops reading that connection, and a
    /// push subscriber above it is dropped.
    pub max_frame: usize,
}

impl Default for V2Config {
    fn default() -> Self {
        V2Config {
            shards: 2,
            max_frame: v2::DEFAULT_MAX_FRAME,
        }
    }
}

/// A running v2 framed server (see the module docs for the I/O model).
pub struct V2Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// One per shard; shutdown writes each so a blocked shard sees `stop`.
    wakers: Vec<Arc<Waker>>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
}

impl V2Server {
    /// Bind `addr` and start serving the framed protocol.
    pub fn start(
        server: Arc<SqalpelServer>,
        backend: Option<ExecBackend>,
        addr: impl ToSocketAddrs,
        config: V2Config,
    ) -> io::Result<V2Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        // Open every shard's fds before starting any thread, so a failure
        // leaves nothing running.
        let mut inboxes = Vec::new();
        let mut shards = Vec::new();
        for _ in 0..config.shards.max(1) {
            let (tx, rx) = sync_channel::<TcpStream>(64);
            let waker = Arc::new(Waker::new()?);
            let poller = Poller::new()?;
            poller.add(waker.raw_fd(), WAKE, READ)?;
            inboxes.push(ShardInbox {
                tx,
                waker: Arc::clone(&waker),
            });
            shards.push(Shard {
                ctx: ShardCtx {
                    server: Arc::clone(&server),
                    backend: backend.clone(),
                    waker,
                    max_frame: config.max_frame,
                },
                poller,
                rx,
                conns: HashMap::new(),
                next_token: WAKE + 1,
            });
        }
        let wakers = inboxes.iter().map(|i| Arc::clone(&i.waker)).collect();
        let shards = shards
            .into_iter()
            .map(|shard| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || shard.run(&stop))
            })
            .collect();

        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || v2_acceptor_loop(&listener, &inboxes, &stop))
        };

        Ok(V2Server {
            addr: local,
            stop,
            wakers,
            acceptor: Some(acceptor),
            shards,
        })
    }

    /// The bound address (the OS-picked port when started with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every connection, join every thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for waker in &self.wakers {
            waker.wake();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
    }
}

impl Drop for V2Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The acceptor's handle on one shard: where to hand a stream over, and
/// the waker that makes the shard take it.
struct ShardInbox {
    tx: SyncSender<TcpStream>,
    waker: Arc<Waker>,
}

fn v2_acceptor_loop(listener: &TcpListener, shards: &[ShardInbox], stop: &AtomicBool) {
    let mut next = 0usize;
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok((stream, _)) => {
                // Round-robin; a closed shard channel means shutdown.
                let shard = &shards[next % shards.len()];
                if shard.tx.send(stream).is_err() {
                    return;
                }
                shard.waker.wake();
                next = next.wrapping_add(1);
            }
            Err(_) => continue,
        }
    }
}

/// The epoll token of a shard's own waker; connections count up from 1.
const WAKE: u64 = 0;

/// What every connection on one shard shares.
struct ShardCtx {
    server: Arc<SqalpelServer>,
    backend: Option<ExecBackend>,
    /// Handed to the push hub with each subscription made on this shard.
    waker: Arc<Waker>,
    max_frame: usize,
}

/// One shard thread: its epoll set, its intake channel and its
/// connections keyed by epoll token.
struct Shard {
    ctx: ShardCtx,
    poller: Poller,
    rx: Receiver<TcpStream>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl Shard {
    /// Block until something is ready, service exactly that, repeat. The
    /// waker fires for intake, push notifications and shutdown.
    fn run(mut self, stop: &AtomicBool) {
        let mut ready = Vec::new();
        while self.poller.wait(&mut ready).is_ok() {
            let mut woken = false;
            for &token in &ready {
                if token == WAKE {
                    woken = true;
                } else if let Some(conn) = self.conns.get_mut(&token) {
                    conn.service(&self.ctx);
                    self.rearm(token);
                }
            }
            if woken {
                // Reset before looking, so a wake that lands while this
                // pass runs fires again.
                self.ctx.waker.reset();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                self.intake();
                self.deliver_push();
            }
        }
        // Subscriptions hold this shard's waker: release them with the
        // connections (the poller and the waker close when dropped).
        for conn in self.conns.values() {
            if let Some(sub) = conn.sub {
                self.ctx.server.push_hub().unsubscribe(sub);
            }
        }
    }

    /// Adopt every stream the acceptor handed over.
    fn intake(&mut self) {
        while let Ok(stream) = self.rx.try_recv() {
            let Some(conn) = Conn::adopt(stream) else {
                continue;
            };
            let token = self.next_token;
            self.next_token += 1;
            let fd = conn.stream.as_raw_fd();
            if self.poller.add(fd, token, READ).is_ok() {
                self.conns.insert(token, conn);
            }
        }
    }

    /// Move pending notifications into the subscribed connections'
    /// output. A subscriber still holding more than `max_frame` unsent
    /// bytes after a flush is not reading: it is unsubscribed and closed.
    fn deliver_push(&mut self) {
        let (server, max_frame) = (&self.ctx.server, self.ctx.max_frame);
        let mut touched = Vec::new();
        for (&token, conn) in &mut self.conns {
            let Some(sub) = conn.sub else {
                continue;
            };
            let notes = server.push_hub().drain(sub);
            if notes.is_empty() {
                continue;
            }
            for n in &notes {
                conn.outbuf
                    .extend_from_slice(&v2::encode_notification_frame(n));
            }
            server.metrics().add("wire.push_frames", notes.len() as u64);
            conn.flush();
            if conn.outbuf.len() > max_frame {
                server.metrics().incr("wire.slow_consumer_drops");
                conn.fail();
            }
            touched.push(token);
        }
        for token in touched {
            self.rearm(token);
        }
    }

    /// Register the interest a serviced connection's buffers call for;
    /// close it once it is dead and flushed.
    fn rearm(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = conn.interest(self.ctx.max_frame);
        if want == conn.armed {
            return;
        }
        if want != 0
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.armed = want;
            return;
        }
        // Dropping the stream closes its fd, which leaves the epoll set.
        if let Some(sub) = self.conns.remove(&token).and_then(|c| c.sub) {
            self.ctx.server.push_hub().unsubscribe(sub);
        }
    }
}

/// Per-connection state inside a shard: the stream (nonblocking) plus
/// an input buffer of not-yet-complete frames and an output buffer of
/// not-yet-flushed response bytes.
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Read no more (EOF, lost framing, refused handshake); closed once
    /// the output buffer drains.
    dead: bool,
    /// The epoll interest currently registered.
    armed: u32,
    /// Push-hub subscription id, once the connection subscribed.
    sub: Option<u64>,
    /// Bulk continuation frames buffered per tag, awaiting the summary
    /// frame. Dropped wholesale — undispatched — if the connection dies
    /// mid-sequence.
    parts: HashMap<u32, Vec<(TaskId, RunOutcome)>>,
}

/// Most reports one connection may buffer across an in-flight bulk
/// sequence before the server refuses and hangs up.
const MAX_BATCH_PAIRS: usize = 1 << 22;

impl Conn {
    fn adopt(stream: TcpStream) -> Option<Conn> {
        stream.set_nonblocking(true).ok()?;
        stream.set_nodelay(true).ok()?;
        Some(Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            dead: false,
            armed: READ,
            sub: None,
            parts: HashMap::new(),
        })
    }

    /// Service a ready connection: flush what we can, read what's there,
    /// dispatch every complete frame, flush. While the output buffer
    /// holds more than `max_frame` bytes the peer is not taking its
    /// replies: reading and dispatching pause, so TCP pushes back on it
    /// instead of the buffer growing.
    fn service(&mut self, ctx: &ShardCtx) {
        loop {
            self.flush();
            if !self.dead && self.outbuf.len() <= ctx.max_frame {
                self.fill(ctx.max_frame);
            }
            // Dispatch complete frames even when the read marked the conn
            // dead: everything fully framed before EOF still counts. A
            // *partial* frame left in the buffer is dropped undispatched.
            let mut held = false;
            loop {
                if self.outbuf.len() > ctx.max_frame {
                    held = true;
                    break;
                }
                match v2::take_frame(&mut self.inbuf, ctx.max_frame) {
                    Ok(Some((tag, body))) => self.respond(ctx, tag, &body),
                    Ok(None) => break,
                    Err(_) => {
                        // Malformed header: framing is lost, close.
                        self.dead = true;
                        self.inbuf.clear();
                        break;
                    }
                }
            }
            self.flush();
            // Frames held back by the cap must go as soon as a flush makes
            // room: no read event will announce them again.
            if !held || self.outbuf.len() > ctx.max_frame {
                return;
            }
        }
    }

    /// The epoll interest the buffers call for; 0 once the connection is
    /// dead and flushed (close it).
    fn interest(&self, max_frame: usize) -> u32 {
        let read = if !self.dead && self.outbuf.len() <= max_frame {
            READ
        } else {
            0
        };
        let write = if self.outbuf.is_empty() { 0 } else { WRITE };
        read | write
    }

    fn respond(&mut self, ctx: &ShardCtx, tag: u32, body: &[u8]) {
        let (server, backend) = (&*ctx.server, ctx.backend.as_ref());
        let frame = match v2::decode_request(body) {
            Ok(DecodedRequest::Hello { version }) if version == v2::PROTO_VERSION => {
                v2::encode_hello_ok_frame(tag)
            }
            Ok(DecodedRequest::Hello { version }) => {
                // Version mismatch: answer typed, then hang up.
                self.dead = true;
                v2::encode_reply_frame(
                    tag,
                    &Err(PlatformError::Invalid(format!(
                        "unsupported protocol version {version}, server speaks {}",
                        v2::PROTO_VERSION
                    ))),
                )
            }
            Ok(DecodedRequest::Op(op)) => v2::encode_reply_frame(tag, &handle_v2(server, backend, &op)),
            Ok(DecodedRequest::BatchPart(pairs)) => {
                let buffered = self.parts.entry(tag).or_default();
                if buffered.len() + pairs.len() > MAX_BATCH_PAIRS {
                    // Sequence state is lost; answer typed and hang up.
                    self.parts.remove(&tag);
                    self.dead = true;
                    v2::encode_reply_frame(
                        tag,
                        &Err(PlatformError::Invalid(format!(
                            "bulk sequence exceeds {MAX_BATCH_PAIRS} buffered reports"
                        ))),
                    )
                } else {
                    buffered.extend(pairs);
                    // Continuation frames are never acked individually;
                    // the summary frame answers for the whole sequence.
                    return;
                }
            }
            Ok(DecodedRequest::BatchEnd { key, total, inline }) => {
                let mut reports = self.parts.remove(&tag).unwrap_or_default();
                reports.extend(inline);
                if reports.len() != total as usize {
                    v2::encode_reply_frame(
                        tag,
                        &Err(PlatformError::Invalid(format!(
                            "bulk summary declared {total} reports, sequence carried {}",
                            reports.len()
                        ))),
                    )
                } else {
                    let op = Request::ReportBatch { key, reports };
                    v2::encode_reply_frame(tag, &handle_v2(server, backend, &op))
                }
            }
            Ok(DecodedRequest::Subscribe { key }) => {
                // Re-subscribing replaces the previous registration.
                if let Some(old) = self.sub.take() {
                    server.push_hub().unsubscribe(old);
                }
                let waker = Some(Arc::clone(&ctx.waker));
                self.sub = Some(server.push_hub().subscribe_with(&key.0, waker));
                v2::encode_reply_frame(tag, &Ok(Reply::Unit))
            }
            // A complete frame whose payload doesn't decode: the framing
            // is intact, so answer typed and keep the connection.
            Err(e) => v2::encode_reply_frame(
                tag,
                &Err(PlatformError::Invalid(format!("undecodable request: {e}"))),
            ),
        };
        self.outbuf.extend_from_slice(&frame);
    }

    /// Nonblocking read of whatever is available, up to what completes a
    /// largest frame; level-triggered readiness reports the rest. EOF or
    /// a hard error marks the connection dead.
    fn fill(&mut self, max_frame: usize) {
        let mut chunk = [0u8; 16 * 1024];
        while self.inbuf.len() < v2::HEADER_LEN + max_frame {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Nonblocking flush of pending response bytes.
    fn flush(&mut self) {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => return self.fail(),
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return self.fail(),
            }
        }
    }

    /// The peer can take no more bytes: drop everything buffered, so the
    /// connection closes at its next rearm.
    fn fail(&mut self) {
        self.dead = true;
        self.inbuf.clear();
        self.outbuf.clear();
        self.parts.clear();
    }
}

/// Dispatch one v2 op with the same metrics instrumentation the v1
/// handler applies, under protocol-qualified labels. Every metric name
/// is a static string: instrumenting allocates nothing.
fn handle_v2(
    server: &SqalpelServer,
    backend: Option<&ExecBackend>,
    op: &Request,
) -> crate::error::PlatformResult<crate::wire::proto::Reply> {
    let start = std::time::Instant::now();
    let outcome = crate::wire::dispatch::dispatch(server, backend, op);
    let metrics = server.metrics();
    let (route, latency) = op.v2_metric_names();
    metrics.incr("wire.requests");
    metrics.incr(route);
    let status = match &outcome {
        Ok(_) => 200,
        Err(e) => ErrorCode::of(e).http_status(),
    };
    metrics.incr(status_metric(status));
    metrics.observe_nanos(latency, start.elapsed().as_nanos() as u64);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::transport::framed::FramedConn;
    use crate::wire::transport::http::{read_response, write_request};
    use crate::wire::proto::Reply;

    #[test]
    fn serves_requests_and_shuts_down_cleanly() {
        let server = Arc::new(SqalpelServer::new());
        let mut wire =
            WireServer::start(Arc::clone(&server), "127.0.0.1:0", WireConfig::default()).unwrap();
        let addr = wire.local_addr();

        // A plain socket-level round trip against the queue endpoint.
        let mut s = TcpStream::connect(addr).unwrap();
        write_request(&mut s, "GET", "/v1/queue/summary", b"").unwrap();
        let (status, body) = read_response(&mut s, 1 << 20).unwrap();
        assert_eq!(status, 200);
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(v["queued"].as_i64(), Some(0));

        // A garbage request gets a 400, not a hung or killed handler.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let (status, _) = read_response(&mut s, 1 << 20).unwrap();
        assert_eq!(status, 400);

        wire.shutdown();
        wire.shutdown(); // idempotent
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn v2_serves_frames_and_survives_garbage() {
        let server = Arc::new(SqalpelServer::new());
        let mut wire =
            V2Server::start(Arc::clone(&server), None, "127.0.0.1:0", V2Config::default())
                .unwrap();
        let addr = wire.local_addr().to_string();

        // Handshake + one op on a persistent connection.
        let mut conn = FramedConn::connect(
            &addr,
            Duration::from_secs(2),
            Duration::from_secs(5),
            v2::DEFAULT_MAX_FRAME,
        )
        .unwrap();
        match conn.call(&Request::QueueSummary).unwrap().unwrap() {
            Reply::Queue(q) => assert_eq!(q.total(), 0),
            other => panic!("{other:?}"),
        }
        // Several more ops on the same connection: persistence works.
        for _ in 0..3 {
            assert!(conn.call(&Request::DbmsLabels).unwrap().is_ok());
        }

        // A half-written frame followed by disconnect must not panic the
        // shard, and other connections keep working.
        let mut half = FramedConn::connect(
            &addr,
            Duration::from_secs(2),
            Duration::from_secs(5),
            v2::DEFAULT_MAX_FRAME,
        )
        .unwrap();
        half.send_truncated(&Request::QueueSummary).unwrap();
        assert!(conn.call(&Request::QueueSummary).unwrap().is_ok());

        wire.shutdown();
        wire.shutdown(); // idempotent
    }

    #[test]
    fn v2_handles_many_idle_connections() {
        let server = Arc::new(SqalpelServer::new());
        let mut wire =
            V2Server::start(Arc::clone(&server), None, "127.0.0.1:0", V2Config::default())
                .unwrap();
        let addr = wire.local_addr().to_string();

        // Far more connections than shard threads, all alive at once.
        let mut conns: Vec<FramedConn> = (0..64)
            .map(|_| {
                FramedConn::connect(
                    &addr,
                    Duration::from_secs(2),
                    Duration::from_secs(5),
                    v2::DEFAULT_MAX_FRAME,
                )
                .unwrap()
            })
            .collect();
        // Every one of them still answers.
        for conn in conns.iter_mut() {
            assert!(conn.call(&Request::QueueSummary).unwrap().is_ok());
        }
        wire.shutdown();
    }
}
