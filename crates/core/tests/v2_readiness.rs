//! The v2 server's readiness contract. Shards block in `epoll_wait`
//! instead of polling, so: idle connections cost no CPU; a parked
//! subscriber hears about new work at once; intake and shutdown wake
//! blocked shards; no fd outlives a server; a peer that stops reading
//! is pushed back on (or, as a push subscriber, dropped) instead of
//! growing the server's buffers; and hostile JSON nesting inside a frame
//! gets a typed reply instead of overflowing a shard's stack.
//!
//! Every test holds `SERIAL`: CPU time and the fd count are per process.

use sqalpel_core::wire::proto::v2;
use sqalpel_core::wire::transport::framed::{read_frame, write_frame, FramedConn};
use sqalpel_core::wire::{Reply, Request};
use sqalpel_core::{
    ContributorKey, ExperimentId, LoadAvg, Notification, PlatformError, ProjectId, RunOutcome,
    SqalpelServer, TaskId, UserId, V2Config, V2Server, Visibility,
};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn start(server: &Arc<SqalpelServer>, config: V2Config) -> (V2Server, String) {
    let wire = V2Server::start(Arc::clone(server), None, "127.0.0.1:0", config).unwrap();
    let addr = wire.local_addr().to_string();
    (wire, addr)
}

fn connect(addr: &str) -> FramedConn {
    FramedConn::connect(
        addr,
        Duration::from_secs(2),
        Duration::from_secs(5),
        v2::DEFAULT_MAX_FRAME,
    )
    .unwrap()
}

/// A plain socket that has completed the Hello handshake, for tests that
/// need to control exactly what is read and written.
fn raw_connect(addr: &str) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_frame(&mut s, &v2::encode_hello_frame(0)).unwrap();
    read_frame(&mut s, v2::DEFAULT_MAX_FRAME).unwrap();
    s
}

/// This process's CPU time, user plus system, from `getrusage`.
fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: getrusage fills the struct it is given.
    let ru = unsafe {
        assert_eq!(getrusage(RUSAGE_SELF, ru.as_mut_ptr()), 0);
        ru.assume_init()
    };
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(&ru.utime) + us(&ru.stime))
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// A server with one project whose experiment has a seeded pool, ready
/// for its owner to enqueue, and a contributor key.
struct Fixture {
    server: Arc<SqalpelServer>,
    owner: UserId,
    project: ProjectId,
    exp: ExperimentId,
    key: ContributorKey,
}

fn project_server() -> Fixture {
    let server = Arc::new(SqalpelServer::new());
    let owner = server.register_user("owner", "o@x.test").unwrap();
    let project = server
        .create_project(owner, "ready", "readiness", Visibility::Public)
        .unwrap();
    server
        .set_targets(
            project,
            owner,
            vec!["rowstore-2.0".into()],
            vec!["bench-server".into()],
        )
        .unwrap();
    let exp = server
        .add_experiment(
            project,
            owner,
            "nation",
            "select count(*) from nation where n_name = 'BRAZIL'",
            None,
            1_000,
            100,
        )
        .unwrap();
    server.seed_pool(project, exp, owner, 3, 7).unwrap();
    let key = server.issue_key(owner).unwrap();
    Fixture {
        server,
        owner,
        project,
        exp,
        key,
    }
}

#[test]
fn idle_connections_burn_no_cpu() {
    let _g = serial();
    let server = Arc::new(SqalpelServer::new());
    let (mut wire, addr) = start(&server, V2Config::default());
    let mut conns: Vec<FramedConn> = (0..256).map(|_| connect(&addr)).collect();
    for conn in &mut conns {
        assert!(conn.call(&Request::QueueSummary).unwrap().is_ok());
    }
    std::thread::sleep(Duration::from_millis(50));

    let (cpu0, t0) = (cpu_time(), Instant::now());
    std::thread::sleep(Duration::from_millis(500));
    let (cpu, wall) = (cpu_time() - cpu0, t0.elapsed());
    let share = cpu.as_secs_f64() / wall.as_secs_f64();
    assert!(
        share < 0.02,
        "256 idle connections burned {cpu:?} of CPU in {wall:?} ({:.1}% of a core)",
        share * 100.0
    );

    // Still serving after the quiet spell.
    for conn in conns.iter_mut().step_by(17) {
        assert!(conn.call(&Request::QueueSummary).unwrap().is_ok());
    }
    wire.shutdown();
}

#[test]
fn parked_subscriber_hears_an_enqueue_within_50ms() {
    let _g = serial();
    let Fixture {
        server,
        owner,
        project,
        exp,
        key,
    } = project_server();
    let (mut wire, addr) = start(&server, V2Config::default());
    // Two subscribers: the round-robin acceptor puts them on both shards.
    let mut subs: Vec<FramedConn> = (0..2).map(|_| connect(&addr)).collect();
    for sub in &mut subs {
        sub.subscribe(&key).unwrap();
    }
    // Let every shard go back to blocking in epoll_wait.
    std::thread::sleep(Duration::from_millis(100));

    let t0 = Instant::now();
    assert!(server.enqueue_experiment(project, exp, owner).unwrap() > 0);
    for sub in &mut subs {
        let got = sub.recv_notification(Duration::from_secs(2)).unwrap();
        let waited = t0.elapsed();
        assert_eq!(got, Some(Notification::QueueReady { project }));
        assert!(
            waited < Duration::from_millis(50),
            "QueueReady took {waited:?}"
        );
    }
    assert_eq!(server.metrics().counter("wire.push_frames"), 2);
    wire.shutdown();
}

#[test]
fn connection_accepted_while_every_shard_blocks_is_answered_promptly() {
    let _g = serial();
    let server = Arc::new(SqalpelServer::new());
    let (mut wire, addr) = start(&server, V2Config::default());
    // One shard with an idle connection, one with none; both blocked.
    let _idle = connect(&addr);
    std::thread::sleep(Duration::from_millis(100));
    for _ in 0..4 {
        let t0 = Instant::now();
        let mut conn = connect(&addr);
        assert!(conn.call(&Request::QueueSummary).unwrap().is_ok());
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "first reply took {took:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    wire.shutdown();
}

#[test]
fn shutdown_joins_blocked_shards_within_a_second() {
    let _g = serial();
    let Fixture { server, key, .. } = project_server();
    let (mut wire, addr) = start(
        &server,
        V2Config {
            shards: 4,
            ..V2Config::default()
        },
    );
    let mut idle: Vec<FramedConn> = (0..6).map(|_| connect(&addr)).collect();
    idle[0].subscribe(&key).unwrap();
    assert_eq!(server.push_hub().subscriber_count(), 1);
    std::thread::sleep(Duration::from_millis(100));

    let t0 = Instant::now();
    wire.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    // The shards released their subscriptions and closed every connection.
    assert_eq!(server.push_hub().subscriber_count(), 0);
    for conn in &mut idle {
        assert!(conn.call(&Request::QueueSummary).is_err());
    }
}

#[test]
fn start_stop_cycles_leak_no_fds() {
    let _g = serial();
    let Fixture { server, key, .. } = project_server();
    let cycle = || {
        let (mut wire, addr) = start(&server, V2Config::default());
        let mut sub = connect(&addr);
        sub.subscribe(&key).unwrap();
        let mut conn = connect(&addr);
        assert!(conn.call(&Request::QueueSummary).unwrap().is_ok());
        wire.shutdown();
        drop(wire);
        assert_eq!(server.push_hub().subscriber_count(), 0);
    };
    cycle();
    let before = open_fds();
    for _ in 0..50 {
        cycle();
    }
    assert_eq!(open_fds(), before, "fds leaked over 50 start/stop cycles");
}

#[test]
fn pipelining_client_that_never_reads_is_pushed_back() {
    let _g = serial();
    let server = Arc::new(SqalpelServer::new());
    let max_frame = 64 * 1024;
    let (mut wire, addr) = start(
        &server,
        V2Config {
            shards: 1,
            max_frame,
        },
    );
    let mut s = raw_connect(&addr);
    s.set_nonblocking(true).unwrap();

    // Pipeline QueueSummary requests, never reading a reply, until the
    // socket has refused bytes for 300 ms: the server stopped reading.
    let frame_len = v2::encode_request_frame(1, &Request::QueueSummary).len();
    let mut pending: Vec<u8> = Vec::new();
    let (mut written, mut next_tag) = (0usize, 1u32);
    let mut stalled_since: Option<Instant> = None;
    while stalled_since.is_none_or(|t| t.elapsed() < Duration::from_millis(300)) {
        assert!(
            written < 256 << 20,
            "256 MiB accepted: the server never pushed back"
        );
        if pending.is_empty() {
            for _ in 0..1000 {
                pending
                    .extend_from_slice(&v2::encode_request_frame(next_tag, &Request::QueueSummary));
                next_tag += 1;
            }
        }
        match s.write(&pending) {
            Ok(n) => {
                pending.drain(..n);
                written += n;
                stalled_since = None;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                stalled_since.get_or_insert_with(Instant::now);
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("write failed: {e}"),
        }
    }
    let sent_frames = written.div_ceil(frame_len);
    let route = "wire.route.V2 queue_summary";
    let answered = server.metrics().counter(route);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        server.metrics().counter(route),
        answered,
        "kept dispatching"
    );
    assert!(
        (answered as usize) < sent_frames,
        "answered all {answered} of {sent_frames}: nothing was held back"
    );

    // Once the client reads, the server resumes and answers every request
    // exactly once, in order.
    s.set_nonblocking(false).unwrap();
    let mut reader = s.try_clone().unwrap();
    let drain = std::thread::spawn(move || {
        for tag in 1..=sent_frames as u32 {
            let (got, body) = read_frame(&mut reader, v2::DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(got, tag);
            assert!(v2::decode_reply(&body).is_ok());
        }
    });
    // Finish the partly written frame, if any.
    let tail = (frame_len - written % frame_len) % frame_len;
    s.write_all(&pending[..tail]).unwrap();
    drain.join().unwrap();
    assert_eq!(server.metrics().counter(route), sent_frames as u64);
    wire.shutdown();
}

#[test]
fn push_subscriber_that_never_reads_is_dropped() {
    let _g = serial();
    let server = Arc::new(SqalpelServer::new());
    let (mut wire, addr) = start(
        &server,
        V2Config {
            shards: 1,
            max_frame: 4096,
        },
    );

    // A subscriber that stops reading after its ack, and one that keeps
    // reading on its own thread until it sees the final marker.
    let mut slow = raw_connect(&addr);
    write_frame(
        &mut slow,
        &v2::encode_subscribe_frame(1, &ContributorKey("ck_slow".into())),
    )
    .unwrap();
    read_frame(&mut slow, v2::DEFAULT_MAX_FRAME).unwrap();
    let mut good = connect(&addr);
    good.subscribe(&ContributorKey("ck_good".into())).unwrap();
    let marker = Notification::ExperimentFinished {
        project: ProjectId(7),
        experiment: ExperimentId(7),
    };
    let want = marker.clone();
    let reader = std::thread::spawn(move || loop {
        match good.recv_notification(Duration::from_secs(10)).unwrap() {
            Some(n) if n == want => return good,
            Some(_) => {}
            None => panic!("the reading subscriber went quiet before the marker"),
        }
    });

    let hub = server.push_hub();
    let ready = Notification::QueueReady {
        project: ProjectId(1),
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.metrics().counter("wire.slow_consumer_drops") == 0 {
        assert!(
            Instant::now() < deadline,
            "the stalled subscriber was never dropped"
        );
        for _ in 0..200 {
            hub.notify(&ready);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    hub.notify(&marker);
    let _good = reader.join().unwrap();
    assert_eq!(server.metrics().counter("wire.slow_consumer_drops"), 1);
    assert_eq!(
        hub.subscriber_count(),
        1,
        "only the stalled subscriber went"
    );

    // The dropped subscriber finds its connection closed once it reads
    // what was already sent.
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match slow.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    wire.shutdown();
}

#[test]
fn deeply_nested_extras_get_a_typed_reply_and_the_connection_lives() {
    let _g = serial();
    let server = Arc::new(SqalpelServer::new());
    let (mut wire, addr) = start(&server, V2Config::default());

    // A ReportResult whose extras JSON is 100k arrays deep (~200 KB, far
    // under the frame cap): splice it over a placeholder's JSON text.
    let outcome = RunOutcome {
        times_ms: vec![1.0],
        rows: 1,
        error: None,
        load_before: LoadAvg::default(),
        load_after: LoadAvg::default(),
        extras: serde_json::Value::String("PLACEHOLDER".into()),
        fingerprint: None,
        profile: None,
    };
    let req = Request::ReportResult {
        key: ContributorKey("ck_x".into()),
        task: TaskId(1),
        outcome,
    };
    let frame = v2::encode_request_frame(9, &req);
    let text = b"\"PLACEHOLDER\"";
    let mut needle = (text.len() as u32).to_le_bytes().to_vec();
    needle.extend_from_slice(text);
    let at = frame
        .windows(needle.len())
        .position(|w| w == needle.as_slice())
        .expect("placeholder extras in the frame");
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    let mut body = frame[v2::HEADER_LEN..at].to_vec();
    body.extend_from_slice(&(deep.len() as u32).to_le_bytes());
    body.extend_from_slice(deep.as_bytes());
    body.extend_from_slice(&frame[at + needle.len()..]);
    let mut hostile = (body.len() as u32).to_le_bytes().to_vec();
    hostile.extend_from_slice(&9u32.to_le_bytes());
    hostile.extend_from_slice(&body);

    let mut s = raw_connect(&addr);
    write_frame(&mut s, &hostile).unwrap();
    let (tag, reply) = read_frame(&mut s, v2::DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(tag, 9);
    match v2::decode_reply(&reply).unwrap() {
        v2::DecodedReply::Outcome(Err(PlatformError::Invalid(msg))) => {
            assert!(msg.contains("nesting deeper than 128"), "{msg}")
        }
        other => panic!("expected a typed invalid reply, got {other:?}"),
    }
    // Same connection, next request: served.
    write_frame(
        &mut s,
        &v2::encode_request_frame(10, &Request::QueueSummary),
    )
    .unwrap();
    let (tag, reply) = read_frame(&mut s, v2::DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(tag, 10);
    assert!(matches!(
        v2::decode_reply(&reply).unwrap(),
        v2::DecodedReply::Outcome(Ok(Reply::Queue(_)))
    ));
    wire.shutdown();
}
