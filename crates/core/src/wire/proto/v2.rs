//! Protocol v2: the length-framed binary codec. Pure — no I/O anywhere
//! in this module; transports move the byte vectors it produces.
//!
//! # Frame layout
//!
//! Every message (either direction) is one frame:
//!
//! ```text
//! [len: u32 LE] [tag: u32 LE] [body: len bytes]
//! request  body = [opcode: u8] [payload]
//! response body = [status: u8] [payload]
//! ```
//!
//! `len` counts the body only (opcode/status byte included), so a reader
//! needs exactly 8 header bytes to know the frame boundary. `tag` is an
//! opaque client-chosen correlation id echoed verbatim in the response —
//! a client may keep many frames in flight on one connection
//! (pipelining) and match responses by tag.
//!
//! `status` 0 means OK and the payload starts with a reply-kind byte
//! (responses are self-describing, so a pipelined client never needs
//! request context to decode). Any other status is an [`ErrorCode`] byte
//! and the payload is the typed error detail — the exact
//! [`PlatformError`] variant is reconstructed, same as v1's JSON bodies.
//!
//! Opcode 0 is `Hello`: sent once per connection with the protocol
//! version; the server answers with its own version (reply kind 0)
//! before any op is accepted. A version mismatch is a hard error.
//!
//! # Scalar encodings
//!
//! The primitives and the record codecs (tasks, run outcomes, result
//! records, catalog entries) are the shared [`crate::codec`] — the WAL
//! and snapshots write the same bytes. Little-endian fixed-width
//! integers and floats; strings are a u32 length followed by UTF-8
//! bytes; options are a presence byte. Metrics snapshots and the
//! open-ended `extras` object travel as JSON text inside the frame.
//!
//! # Columnar results
//!
//! `Vec<ResultRecord>` and [`WireResultSet`] are encoded as per-column
//! typed vectors rather than per-row tagged tuples: one type tag and one
//! null bitmap per column, then the packed values. A result-set column
//! of mixed types, or one so sparse that this typed form would take less
//! than a byte per row, is written per cell instead: the reserved tag
//! `0xFF`, then a tag (`0` for a null) and a payload per cell. Decoded,
//! every cell is a whole `WireValue`, so the decoder charges what it
//! allocates against 32 bytes per frame byte (+32 KiB) and refuses a set
//! that overdraws; the per-cell fallback keeps every encoded set within
//! that budget.
//!
//! # Bulk frames
//!
//! A [`Request::ReportBatch`] may stream: the client sends any number of
//! continuation frames (`OP_BATCH_PART`, columnar `(task, outcome)`
//! pairs) followed by one summary frame (`OP_REPORT_BATCH` carrying the
//! contributor key, the expected total, and any inline tail of pairs),
//! **all under the same tag**. The server assembles parts per tag and
//! dispatches once the summary arrives, answering with a single
//! [`Reply::Batch`] ack. A connection dropped mid-sequence discards the
//! whole partial batch — nothing partial is ever dispatched.
//!
//! # Push frames
//!
//! A connection that sent `OP_SUBSCRIBE` (carrying its contributor key)
//! receives unsolicited notification frames on **tag 0** — a tag no
//! request ever uses (client tags start at 1) — with reply kind
//! `RK_NOTIFICATION`: `QueueReady` when work lands on a queue,
//! `ExperimentFinished` when an experiment's last task goes terminal.

use super::{CacheStatus, ErrorCode, ExecOutcome, Reply, Request, WireResultSet, WireValue};
use crate::codec::{
    bit, read_dbms, read_host, read_outcome, read_records, read_report_pairs, read_strs,
    read_task, read_u64s, read_visibility, write_dbms, write_host, write_outcome, write_records,
    write_report_pairs, write_strs, write_task, write_u64s, write_visibility, D, R, W,
};
use crate::driver::RunOutcome;
use crate::error::{PlatformError, PlatformResult};
use crate::pool::QueryId;
use crate::project::{ExperimentId, ProjectId, Role};
use crate::push::Notification;
use crate::queue::{QueueSummary, TaskId};
use crate::user::{ContributorKey, UserId};

/// The version this codec speaks, exchanged in the Hello handshake.
pub const PROTO_VERSION: u8 = 3;
/// Frame header: u32 length + u32 tag.
pub const HEADER_LEN: usize = 8;
/// Default cap on one frame body — matches the v1 client's response cap.
pub const DEFAULT_MAX_FRAME: usize = 1 << 24;

/// Opcode 0: the connection handshake.
const OP_HELLO: u8 = 0;

// Request opcodes 1..=25 follow the Request enum order.
const OP_REGISTER_USER: u8 = 1;
const OP_ISSUE_KEY: u8 = 2;
const OP_ADD_DBMS: u8 = 3;
const OP_ADD_HOST: u8 = 4;
const OP_DBMS_LABELS: u8 = 5;
const OP_CREATE_PROJECT: u8 = 6;
const OP_INVITE: u8 = 7;
const OP_SET_TARGETS: u8 = 8;
const OP_COMMENT: u8 = 9;
const OP_TAKE_DOWN: u8 = 10;
const OP_ROLE_OF: u8 = 11;
const OP_ADD_EXPERIMENT: u8 = 12;
const OP_SEED_POOL: u8 = 13;
const OP_MORPH_POOL: u8 = 14;
const OP_ENQUEUE_EXPERIMENT: u8 = 15;
const OP_RESULTS_FOR_KEY: u8 = 16;
const OP_EXPORT_CSV: u8 = 17;
const OP_HIDE_RESULT: u8 = 18;
const OP_REQUEST_TASK: u8 = 19;
const OP_REPORT_RESULT: u8 = 20;
const OP_QUEUE_SUMMARY: u8 = 21;
const OP_REAP_STUCK: u8 = 22;
const OP_REQUEUE: u8 = 23;
const OP_METRICS: u8 = 24;
const OP_EXECUTE: u8 = 25;
/// Bulk summary frame: key + expected total + inline tail of pairs.
const OP_REPORT_BATCH: u8 = 26;
/// Bulk continuation frame: columnar `(task, outcome)` pairs.
const OP_BATCH_PART: u8 = 27;
/// Subscribe this connection to server-push notifications.
const OP_SUBSCRIBE: u8 = 28;

// Reply kinds.
const RK_HELLO: u8 = 0;
const RK_UNIT: u8 = 1;
const RK_USER: u8 = 2;
const RK_KEY: u8 = 3;
const RK_LABELS: u8 = 4;
const RK_PROJECT: u8 = 5;
const RK_ROLE: u8 = 6;
const RK_EXPERIMENT: u8 = 7;
const RK_SEEDED: u8 = 8;
const RK_ADDED: u8 = 9;
const RK_ENQUEUED: u8 = 10;
const RK_RESULTS: u8 = 11;
const RK_CSV: u8 = 12;
const RK_HANDOUT: u8 = 13;
const RK_INDEX: u8 = 14;
const RK_QUEUE: u8 = 15;
const RK_REAPED: u8 = 16;
const RK_METRICS: u8 = 17;
const RK_EXECUTION: u8 = 18;
const RK_BATCH: u8 = 19;
/// Unsolicited server-push frame (always tag 0).
const RK_NOTIFICATION: u8 = 20;

/// Notification kind bytes inside an `RK_NOTIFICATION` payload.
const NK_QUEUE_READY: u8 = 0;
const NK_EXPERIMENT_FINISHED: u8 = 1;

// Cell type tags for columnar vectors. 0 marks an all-null column (no
// values follow) or, per cell, a null; 0xFF marks a column written per
// cell.
const CT_ALL_NULL: u8 = 0;
const CT_BOOL: u8 = 1;
const CT_INT: u8 = 2;
const CT_FLOAT: u8 = 3;
const CT_DECIMAL: u8 = 4;
const CT_STR: u8 = 5;
const CT_DATE: u8 = 6;
const CT_INTERVAL: u8 = 7;
const CT_PER_CELL: u8 = 0xFF;

// ---------------------------------------------------------- frame split

/// Try to split one complete frame off the front of `buf`. Returns
/// `Ok(None)` when more bytes are needed, `Ok(Some((tag, body)))` when a
/// frame was extracted (and drained from `buf`), and `Err` when the
/// header is malformed (oversized frame) — the connection should close.
pub fn take_frame(buf: &mut Vec<u8>, max_frame: usize) -> Result<Option<(u32, Vec<u8>)>, String> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len == 0 || len > max_frame {
        return Err(format!("frame body of {len} bytes outside (0, {max_frame}]"));
    }
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let tag = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let body = buf[HEADER_LEN..HEADER_LEN + len].to_vec();
    buf.drain(..HEADER_LEN + len);
    Ok(Some((tag, body)))
}

fn frame(tag: u32, body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&body);
    out
}

// ------------------------------------------------------- request encode

/// Encode the connection handshake frame.
pub fn encode_hello_frame(tag: u32) -> Vec<u8> {
    frame(tag, vec![OP_HELLO, PROTO_VERSION])
}

/// Encode one request as a complete frame (header included).
pub fn encode_request_frame(tag: u32, req: &Request) -> Vec<u8> {
    let mut w = W::default();
    match req {
        Request::RegisterUser { nickname, email } => {
            w.u8(OP_REGISTER_USER);
            w.str(nickname);
            w.str(email);
        }
        Request::IssueKey { user } => {
            w.u8(OP_ISSUE_KEY);
            w.u64(user.0);
        }
        Request::AddDbms { entry } => {
            w.u8(OP_ADD_DBMS);
            write_dbms(&mut w, entry);
        }
        Request::AddHost { entry } => {
            w.u8(OP_ADD_HOST);
            write_host(&mut w, entry);
        }
        Request::DbmsLabels => w.u8(OP_DBMS_LABELS),
        Request::CreateProject {
            owner,
            title,
            synopsis,
            visibility,
        } => {
            w.u8(OP_CREATE_PROJECT);
            w.u64(owner.0);
            w.str(title);
            w.str(synopsis);
            write_visibility(&mut w, *visibility);
        }
        Request::Invite { project, owner, user } => {
            w.u8(OP_INVITE);
            w.u64(project.0);
            w.u64(owner.0);
            w.u64(user.0);
        }
        Request::SetTargets {
            project,
            actor,
            dbms_labels,
            hosts,
        } => {
            w.u8(OP_SET_TARGETS);
            w.u64(project.0);
            w.u64(actor.0);
            write_strs(&mut w, dbms_labels);
            write_strs(&mut w, hosts);
        }
        Request::Comment { project, author, text } => {
            w.u8(OP_COMMENT);
            w.u64(project.0);
            w.u64(author.0);
            w.str(text);
        }
        Request::TakeDown { project } => {
            w.u8(OP_TAKE_DOWN);
            w.u64(project.0);
        }
        Request::RoleOf { project, user } => {
            w.u8(OP_ROLE_OF);
            w.u64(project.0);
            w.u64(user.0);
        }
        Request::AddExperiment {
            project,
            actor,
            title,
            baseline_sql,
            grammar,
            template_cap,
            pool_cap,
        } => {
            w.u8(OP_ADD_EXPERIMENT);
            w.u64(project.0);
            w.u64(actor.0);
            w.str(title);
            w.str(baseline_sql);
            w.opt_str(grammar.as_deref());
            w.u64(*template_cap);
            w.u64(*pool_cap);
        }
        Request::SeedPool {
            project,
            experiment,
            actor,
            n_random,
            seed,
        } => {
            w.u8(OP_SEED_POOL);
            w.u64(project.0);
            w.u64(experiment.0);
            w.u64(actor.0);
            w.u64(*n_random);
            w.u64(*seed);
        }
        Request::MorphPool {
            project,
            experiment,
            actor,
            strategy,
            steps,
            seed,
        } => {
            w.u8(OP_MORPH_POOL);
            w.u64(project.0);
            w.u64(experiment.0);
            w.u64(actor.0);
            w.opt_str(strategy.as_deref());
            w.u64(*steps);
            w.u64(*seed);
        }
        Request::EnqueueExperiment {
            project,
            experiment,
            actor,
        } => {
            w.u8(OP_ENQUEUE_EXPERIMENT);
            w.u64(project.0);
            w.u64(experiment.0);
            w.u64(actor.0);
        }
        Request::ResultsForKey { project, key } => {
            w.u8(OP_RESULTS_FOR_KEY);
            w.u64(project.0);
            w.str(&key.0);
        }
        Request::ExportCsv { project, viewer } => {
            w.u8(OP_EXPORT_CSV);
            w.u64(project.0);
            w.u64(viewer.0);
        }
        Request::HideResult {
            project,
            actor,
            index,
            hidden,
        } => {
            w.u8(OP_HIDE_RESULT);
            w.u64(project.0);
            w.u64(actor.0);
            w.u64(*index);
            w.bool(*hidden);
        }
        Request::RequestTask {
            key,
            dbms_label,
            host,
            claim,
        } => {
            w.u8(OP_REQUEST_TASK);
            w.str(&key.0);
            w.str(dbms_label);
            w.str(host);
            w.opt_u64(*claim);
        }
        Request::ReportResult { key, task, outcome } => {
            w.u8(OP_REPORT_RESULT);
            w.str(&key.0);
            w.u64(task.0);
            write_outcome(&mut w, outcome);
        }
        Request::ReportBatch { key, reports } => {
            // The single-frame form: total == inline count, no parts.
            // Streaming clients use `encode_batch_part_frame` +
            // `encode_batch_end_frame` under one tag instead.
            w.u8(OP_REPORT_BATCH);
            w.str(&key.0);
            w.u32(reports.len() as u32);
            write_report_pairs(&mut w, reports);
        }
        Request::QueueSummary => w.u8(OP_QUEUE_SUMMARY),
        Request::ReapStuck { timeout_ms } => {
            w.u8(OP_REAP_STUCK);
            w.u64(*timeout_ms);
        }
        Request::Requeue { task } => {
            w.u8(OP_REQUEUE);
            w.u64(task.0);
        }
        Request::Metrics => w.u8(OP_METRICS),
        Request::Execute { sql, fingerprint } => {
            w.u8(OP_EXECUTE);
            w.str(sql);
            w.opt_u64(*fingerprint);
        }
    }
    frame(tag, w.buf)
}

/// A decoded inbound frame body: either the handshake, a platform op
/// (boxed — [`Request`] is a wide enum, the handshake arm is two bytes),
/// or one of the connection-level bulk/push frames that never reach
/// dispatch on their own.
#[derive(Debug)]
pub enum DecodedRequest {
    Hello { version: u8 },
    Op(Box<Request>),
    /// A bulk continuation frame; the server buffers it under the
    /// frame's tag until the matching [`DecodedRequest::BatchEnd`].
    BatchPart(Vec<(TaskId, RunOutcome)>),
    /// The bulk summary frame. `total` is the expected pair count over
    /// the whole sequence (parts + `inline`); a mismatch after assembly
    /// is a protocol error.
    BatchEnd {
        key: ContributorKey,
        total: u32,
        inline: Vec<(TaskId, RunOutcome)>,
    },
    /// Subscribe this connection to server-push notifications.
    Subscribe { key: ContributorKey },
}

/// Encode a standalone bulk continuation frame.
pub fn encode_batch_part_frame(tag: u32, reports: &[(TaskId, RunOutcome)]) -> Vec<u8> {
    let mut w = W::default();
    w.u8(OP_BATCH_PART);
    write_report_pairs(&mut w, reports);
    frame(tag, w.buf)
}

/// Encode the bulk summary frame closing a streamed sequence: the
/// continuation frames already sent under `tag` carry the pairs, this
/// frame carries the key, the expected `total`, and an (often empty)
/// inline tail.
pub fn encode_batch_end_frame(
    tag: u32,
    key: &ContributorKey,
    total: u32,
    inline: &[(TaskId, RunOutcome)],
) -> Vec<u8> {
    let mut w = W::default();
    w.u8(OP_REPORT_BATCH);
    w.str(&key.0);
    w.u32(total);
    write_report_pairs(&mut w, inline);
    frame(tag, w.buf)
}

/// Encode the subscribe frame (acked with `RK_UNIT`).
pub fn encode_subscribe_frame(tag: u32, key: &ContributorKey) -> Vec<u8> {
    let mut w = W::default();
    w.u8(OP_SUBSCRIBE);
    w.str(&key.0);
    frame(tag, w.buf)
}

/// Decode one request frame body (everything after the 8-byte header).
pub fn decode_request(body: &[u8]) -> Result<DecodedRequest, String> {
    let mut r = R::new(body);
    let op = r.u8()?;
    let req = match op {
        OP_HELLO => {
            let version = r.u8()?;
            r.done()?;
            return Ok(DecodedRequest::Hello { version });
        }
        OP_REGISTER_USER => Request::RegisterUser {
            nickname: r.str()?,
            email: r.str()?,
        },
        OP_ISSUE_KEY => Request::IssueKey {
            user: UserId(r.u64()?),
        },
        OP_ADD_DBMS => Request::AddDbms {
            entry: read_dbms(&mut r)?,
        },
        OP_ADD_HOST => Request::AddHost {
            entry: read_host(&mut r)?,
        },
        OP_DBMS_LABELS => Request::DbmsLabels,
        OP_CREATE_PROJECT => Request::CreateProject {
            owner: UserId(r.u64()?),
            title: r.str()?,
            synopsis: r.str()?,
            visibility: read_visibility(&mut r)?,
        },
        OP_INVITE => Request::Invite {
            project: ProjectId(r.u64()?),
            owner: UserId(r.u64()?),
            user: UserId(r.u64()?),
        },
        OP_SET_TARGETS => Request::SetTargets {
            project: ProjectId(r.u64()?),
            actor: UserId(r.u64()?),
            dbms_labels: read_strs(&mut r)?,
            hosts: read_strs(&mut r)?,
        },
        OP_COMMENT => Request::Comment {
            project: ProjectId(r.u64()?),
            author: UserId(r.u64()?),
            text: r.str()?,
        },
        OP_TAKE_DOWN => Request::TakeDown {
            project: ProjectId(r.u64()?),
        },
        OP_ROLE_OF => Request::RoleOf {
            project: ProjectId(r.u64()?),
            user: UserId(r.u64()?),
        },
        OP_ADD_EXPERIMENT => Request::AddExperiment {
            project: ProjectId(r.u64()?),
            actor: UserId(r.u64()?),
            title: r.str()?,
            baseline_sql: r.str()?,
            grammar: r.opt_str()?,
            template_cap: r.u64()?,
            pool_cap: r.u64()?,
        },
        OP_SEED_POOL => Request::SeedPool {
            project: ProjectId(r.u64()?),
            experiment: ExperimentId(r.u64()?),
            actor: UserId(r.u64()?),
            n_random: r.u64()?,
            seed: r.u64()?,
        },
        OP_MORPH_POOL => Request::MorphPool {
            project: ProjectId(r.u64()?),
            experiment: ExperimentId(r.u64()?),
            actor: UserId(r.u64()?),
            strategy: r.opt_str()?,
            steps: r.u64()?,
            seed: r.u64()?,
        },
        OP_ENQUEUE_EXPERIMENT => Request::EnqueueExperiment {
            project: ProjectId(r.u64()?),
            experiment: ExperimentId(r.u64()?),
            actor: UserId(r.u64()?),
        },
        OP_RESULTS_FOR_KEY => Request::ResultsForKey {
            project: ProjectId(r.u64()?),
            key: ContributorKey(r.str()?),
        },
        OP_EXPORT_CSV => Request::ExportCsv {
            project: ProjectId(r.u64()?),
            viewer: UserId(r.u64()?),
        },
        OP_HIDE_RESULT => Request::HideResult {
            project: ProjectId(r.u64()?),
            actor: UserId(r.u64()?),
            index: r.u64()?,
            hidden: r.bool()?,
        },
        OP_REQUEST_TASK => Request::RequestTask {
            key: ContributorKey(r.str()?),
            dbms_label: r.str()?,
            host: r.str()?,
            claim: r.opt_u64()?,
        },
        OP_REPORT_RESULT => Request::ReportResult {
            key: ContributorKey(r.str()?),
            task: TaskId(r.u64()?),
            outcome: read_outcome(&mut r)?,
        },
        OP_REPORT_BATCH => {
            let key = ContributorKey(r.str()?);
            let total = r.u32()?;
            let inline = read_report_pairs(&mut r)?;
            r.done()?;
            return Ok(DecodedRequest::BatchEnd { key, total, inline });
        }
        OP_BATCH_PART => {
            let pairs = read_report_pairs(&mut r)?;
            r.done()?;
            return Ok(DecodedRequest::BatchPart(pairs));
        }
        OP_SUBSCRIBE => {
            let key = ContributorKey(r.str()?);
            r.done()?;
            return Ok(DecodedRequest::Subscribe { key });
        }
        OP_QUEUE_SUMMARY => Request::QueueSummary,
        OP_REAP_STUCK => Request::ReapStuck { timeout_ms: r.u64()? },
        OP_REQUEUE => Request::Requeue {
            task: TaskId(r.u64()?),
        },
        OP_METRICS => Request::Metrics,
        OP_EXECUTE => Request::Execute {
            sql: r.str()?,
            fingerprint: r.opt_u64()?,
        },
        other => return Err(format!("unknown opcode {other}")),
    };
    r.done()?;
    Ok(DecodedRequest::Op(Box::new(req)))
}

// --------------------------------------------------------- reply encode

/// Encode the server's handshake answer.
pub fn encode_hello_ok_frame(tag: u32) -> Vec<u8> {
    frame(tag, vec![0, RK_HELLO, PROTO_VERSION])
}

/// Encode one dispatched outcome as a complete response frame.
pub fn encode_reply_frame(tag: u32, outcome: &PlatformResult<Reply>) -> Vec<u8> {
    let mut w = W::default();
    match outcome {
        Err(err) => {
            w.u8(ErrorCode::of(err).as_u8());
            write_error_detail(&mut w, err);
        }
        Ok(reply) => {
            w.u8(0);
            match reply {
                Reply::Unit => w.u8(RK_UNIT),
                Reply::User(u) => {
                    w.u8(RK_USER);
                    w.u64(u.0);
                }
                Reply::Key(k) => {
                    w.u8(RK_KEY);
                    w.str(&k.0);
                }
                Reply::Labels(ls) => {
                    w.u8(RK_LABELS);
                    write_strs(&mut w, ls);
                }
                Reply::Project(p) => {
                    w.u8(RK_PROJECT);
                    w.u64(p.0);
                }
                Reply::Role(role) => {
                    w.u8(RK_ROLE);
                    w.u8(match role {
                        Role::None => 0,
                        Role::Reader => 1,
                        Role::Contributor => 2,
                        Role::Owner => 3,
                    });
                }
                Reply::Experiment(e) => {
                    w.u8(RK_EXPERIMENT);
                    w.u64(e.0);
                }
                Reply::Seeded(n) => {
                    w.u8(RK_SEEDED);
                    w.u64(*n);
                }
                Reply::Added(ids) => {
                    w.u8(RK_ADDED);
                    write_u64s(&mut w, ids.iter().map(|id| id.0));
                }
                Reply::Enqueued(n) => {
                    w.u8(RK_ENQUEUED);
                    w.u64(*n);
                }
                Reply::Results(records) => {
                    w.u8(RK_RESULTS);
                    write_records(&mut w, records);
                }
                Reply::Csv(text) => {
                    w.u8(RK_CSV);
                    w.str(text);
                }
                Reply::Handout(task) => {
                    w.u8(RK_HANDOUT);
                    match task {
                        Some(t) => {
                            w.u8(1);
                            write_task(&mut w, t);
                        }
                        None => w.u8(0),
                    }
                }
                Reply::Index(n) => {
                    w.u8(RK_INDEX);
                    w.u64(*n);
                }
                Reply::Batch(indices) => {
                    w.u8(RK_BATCH);
                    write_u64s(&mut w, indices.iter().copied());
                }
                Reply::Queue(q) => {
                    w.u8(RK_QUEUE);
                    w.u64(q.queued as u64);
                    w.u64(q.running as u64);
                    w.u64(q.finished as u64);
                    w.u64(q.failed as u64);
                    w.u64(q.timed_out as u64);
                }
                Reply::Reaped(ids) => {
                    w.u8(RK_REAPED);
                    write_u64s(&mut w, ids.iter().map(|id| id.0));
                }
                Reply::Metrics(snap) => {
                    w.u8(RK_METRICS);
                    w.json(snap);
                }
                Reply::Execution(out) => {
                    w.u8(RK_EXECUTION);
                    write_result_set(&mut w, &out.result);
                    w.u64(out.fingerprint);
                    w.u8(out.cache.as_u8());
                }
            }
        }
    }
    frame(tag, w.buf)
}

/// A decoded response frame body.
#[derive(Debug)]
pub enum DecodedReply {
    Hello { version: u8 },
    Outcome(PlatformResult<Reply>),
    /// An unsolicited server-push frame (always tag 0).
    Notification(Notification),
}

/// Encode an unsolicited server-push frame. Always tag 0 — client
/// request tags start at 1, so a pipelining client can never confuse a
/// push frame with a response it is waiting for.
pub fn encode_notification_frame(n: &Notification) -> Vec<u8> {
    let mut w = W::default();
    w.u8(0);
    w.u8(RK_NOTIFICATION);
    match n {
        Notification::QueueReady { project } => {
            w.u8(NK_QUEUE_READY);
            w.u64(project.0);
        }
        Notification::ExperimentFinished { project, experiment } => {
            w.u8(NK_EXPERIMENT_FINISHED);
            w.u64(project.0);
            w.u64(experiment.0);
        }
    }
    frame(0, w.buf)
}

/// Decode one response frame body. Responses are self-describing: the
/// status byte selects OK vs a typed error, the kind byte selects the
/// reply variant — no request context needed (pipelining relies on it).
pub fn decode_reply(body: &[u8]) -> Result<DecodedReply, String> {
    let mut r = R::new(body);
    let status = r.u8()?;
    if status != 0 {
        let code = ErrorCode::from_u8(status).ok_or(format!("bad status byte {status}"))?;
        let err = read_error_detail(&mut r, code)?;
        r.done()?;
        return Ok(DecodedReply::Outcome(Err(err)));
    }
    let kind = r.u8()?;
    let reply = match kind {
        RK_HELLO => {
            let version = r.u8()?;
            r.done()?;
            return Ok(DecodedReply::Hello { version });
        }
        RK_UNIT => Reply::Unit,
        RK_USER => Reply::User(UserId(r.u64()?)),
        RK_KEY => Reply::Key(ContributorKey(r.str()?)),
        RK_LABELS => Reply::Labels(read_strs(&mut r)?),
        RK_PROJECT => Reply::Project(ProjectId(r.u64()?)),
        RK_ROLE => Reply::Role(match r.u8()? {
            0 => Role::None,
            1 => Role::Reader,
            2 => Role::Contributor,
            3 => Role::Owner,
            b => return Err(format!("bad role byte {b}")),
        }),
        RK_EXPERIMENT => Reply::Experiment(ExperimentId(r.u64()?)),
        RK_SEEDED => Reply::Seeded(r.u64()?),
        RK_ADDED => Reply::Added(read_u64s(&mut r)?.into_iter().map(QueryId).collect()),
        RK_ENQUEUED => Reply::Enqueued(r.u64()?),
        RK_RESULTS => Reply::Results(read_records(&mut r)?),
        RK_CSV => Reply::Csv(r.str()?),
        RK_HANDOUT => Reply::Handout(if r.bool()? {
            Some(read_task(&mut r)?)
        } else {
            None
        }),
        RK_INDEX => Reply::Index(r.u64()?),
        RK_BATCH => Reply::Batch(read_u64s(&mut r)?),
        RK_NOTIFICATION => {
            let n = match r.u8()? {
                NK_QUEUE_READY => Notification::QueueReady {
                    project: ProjectId(r.u64()?),
                },
                NK_EXPERIMENT_FINISHED => Notification::ExperimentFinished {
                    project: ProjectId(r.u64()?),
                    experiment: ExperimentId(r.u64()?),
                },
                b => return Err(format!("bad notification kind {b}")),
            };
            r.done()?;
            return Ok(DecodedReply::Notification(n));
        }
        RK_QUEUE => Reply::Queue(QueueSummary {
            queued: r.u64()? as usize,
            running: r.u64()? as usize,
            finished: r.u64()? as usize,
            failed: r.u64()? as usize,
            timed_out: r.u64()? as usize,
        }),
        RK_REAPED => Reply::Reaped(read_u64s(&mut r)?.into_iter().map(TaskId).collect()),
        RK_METRICS => Reply::Metrics(r.json("metrics snapshot")?),
        RK_EXECUTION => {
            let result = read_result_set(&mut r)?;
            Reply::Execution(ExecOutcome {
                result,
                fingerprint: r.u64()?,
                cache: CacheStatus::from_u8(r.u8()?)?,
            })
        }
        other => return Err(format!("unknown reply kind {other}")),
    };
    r.done()?;
    Ok(DecodedReply::Outcome(Ok(reply)))
}

// ------------------------------------------------------- error details

fn write_error_detail(w: &mut W, err: &PlatformError) {
    match err {
        PlatformError::Invalid(m)
        | PlatformError::AccessDenied(m)
        | PlatformError::Grammar(m)
        | PlatformError::Publication(m)
        | PlatformError::Transport(m)
        | PlatformError::Throttled(m) => {
            w.u8(0);
            w.str(m);
        }
        PlatformError::UnknownUser(id)
        | PlatformError::UnknownProject(id)
        | PlatformError::UnknownExperiment(id)
        | PlatformError::UnknownTask(id)
        | PlatformError::UnknownQuery(id) => {
            w.u8(1);
            w.u64(*id);
        }
        PlatformError::PoolFull(cap) => {
            w.u8(1);
            w.u64(*cap as u64);
        }
    }
}

fn read_error_detail(r: &mut R<'_>, code: ErrorCode) -> D<PlatformError> {
    let detail = match r.u8()? {
        0 => serde::Value::from(r.str()?),
        1 => serde::Value::from(r.u64()? as i64),
        b => return Err(format!("bad error detail kind {b}")),
    };
    PlatformError::from_code(code.as_str(), &detail)
}

// ---------------------------------------------- columnar: result sets

fn cell_tag(v: &WireValue) -> u8 {
    match v {
        WireValue::Null => CT_ALL_NULL,
        WireValue::Bool(_) => CT_BOOL,
        WireValue::Int(_) => CT_INT,
        WireValue::Float(_) => CT_FLOAT,
        WireValue::Decimal { .. } => CT_DECIMAL,
        WireValue::Str(_) => CT_STR,
        WireValue::Date(_) => CT_DATE,
        WireValue::Interval { .. } => CT_INTERVAL,
    }
}

fn write_cell_payload(w: &mut W, v: &WireValue) {
    match v {
        WireValue::Null => {}
        WireValue::Bool(b) => w.bool(*b),
        WireValue::Int(i) => w.i64(*i),
        WireValue::Float(f) => w.f64(*f),
        WireValue::Decimal { raw, scale } => {
            w.i128(*raw);
            w.u8(*scale);
        }
        WireValue::Str(s) => w.str(s),
        WireValue::Date(d) => w.i32(*d),
        WireValue::Interval { months, days } => {
            w.i32(*months);
            w.i32(*days);
        }
    }
}

fn read_cell_payload(r: &mut R<'_>, tag: u8, budget: &mut usize) -> D<WireValue> {
    Ok(match tag {
        CT_BOOL => WireValue::Bool(r.bool()?),
        CT_INT => WireValue::Int(r.i64()?),
        CT_FLOAT => WireValue::Float(r.f64()?),
        CT_DECIMAL => WireValue::Decimal {
            raw: r.i128()?,
            scale: r.u8()?,
        },
        CT_STR => WireValue::Str(read_str(r, budget)?),
        CT_DATE => WireValue::Date(r.i32()?),
        CT_INTERVAL => WireValue::Interval {
            months: r.i32()?,
            days: r.i32()?,
        },
        other => return Err(format!("bad cell tag {other}")),
    })
}

/// Bytes a non-null cell of type `tag` takes in a typed column, string
/// contents aside.
fn fixed_size(tag: u8) -> usize {
    match tag {
        CT_BOOL => 1,
        CT_STR | CT_DATE => 4,
        CT_INT | CT_FLOAT | CT_INTERVAL => 8,
        CT_DECIMAL => 17,
        _ => 0,
    }
}

/// One column. Typed, `[tag][null bitmap][packed values]`: `tag` is the
/// uniform cell type of the column, `0` if all null. Per cell, `[0xFF]`
/// then `[cell tag][payload]` for every cell, a null being a bare `0`:
/// for mixed columns, and for columns whose typed form, string contents
/// aside, would take less than a byte per row. Decoded, every cell is a
/// 32-byte `WireValue`; a byte per cell keeps the column within
/// [`read_result_set`]'s budget of 32 decoded bytes per frame byte.
fn write_column(w: &mut W, col: &[WireValue]) {
    let mut uniform: Option<u8> = None;
    let mut present = 0;
    let mut mixed = false;
    for v in col.iter().filter(|v| !matches!(v, WireValue::Null)) {
        present += 1;
        match uniform {
            None => uniform = Some(cell_tag(v)),
            Some(t) => mixed |= t != cell_tag(v),
        }
    }
    let tag = uniform.unwrap_or(CT_ALL_NULL);
    if !mixed && 1 + col.len().div_ceil(8) + present * fixed_size(tag) >= col.len() {
        w.u8(tag);
        w.bitmap(col.len(), |i| !matches!(col[i], WireValue::Null));
        for v in col {
            write_cell_payload(w, v);
        }
    } else {
        w.u8(CT_PER_CELL);
        for v in col {
            w.u8(cell_tag(v));
            write_cell_payload(w, v);
        }
    }
}

fn read_column(r: &mut R<'_>, rows: usize, budget: &mut usize) -> D<Vec<WireValue>> {
    let tag = r.u8()?;
    spend(budget, rows.saturating_mul(std::mem::size_of::<WireValue>()))?;
    let mut col = Vec::with_capacity(rows);
    if tag == CT_PER_CELL {
        for _ in 0..rows {
            col.push(match r.u8()? {
                CT_ALL_NULL => WireValue::Null,
                cell_tag => read_cell_payload(r, cell_tag, budget)?,
            });
        }
    } else {
        let present = r.bitmap(rows)?;
        for i in 0..rows {
            col.push(if bit(present, i) {
                read_cell_payload(r, tag, budget)?
            } else {
                WireValue::Null
            });
        }
    }
    Ok(col)
}

/// Charge `n` decoded bytes to a result set's budget.
fn spend(budget: &mut usize, n: usize) -> D<()> {
    *budget = budget
        .checked_sub(n)
        .ok_or("result set decodes past 32x its frame bytes")?;
    Ok(())
}

/// A string, its bytes charged to the budget before they are copied.
fn read_str(r: &mut R<'_>, budget: &mut usize) -> D<String> {
    let n = r.u32()? as usize;
    spend(budget, n)?;
    String::from_utf8(r.take(n)?.to_vec()).map_err(|e| format!("non-UTF-8 string: {e}"))
}

fn write_result_set(w: &mut W, rs: &WireResultSet) {
    w.u32(rs.columns.len() as u32);
    w.u32(rs.rows() as u32);
    for name in &rs.columns {
        w.str(name);
    }
    for col in &rs.data {
        write_column(w, col);
    }
}

fn read_result_set(r: &mut R<'_>) -> D<WireResultSet> {
    // A column costs at least its name length and a tag byte.
    let ncols = r.count(5)?;
    let nrows = r.u32()? as usize;
    // Decoded, a cell is a 32-byte `WireValue` however few bits it took
    // on the wire. Every allocation below is charged, before it is made,
    // to 32 bytes per frame byte left (+32 KiB), so a set decodes within
    // the 32x + 64 KiB every decoder meets; `write_column` spends at
    // least a byte per cell, so every set it encodes fits.
    let mut budget = r.remaining().saturating_mul(32) + (32 << 10);
    spend(&mut budget, ncols * 2 * std::mem::size_of::<Vec<u8>>())?;
    let columns = (0..ncols)
        .map(|_| read_str(r, &mut budget))
        .collect::<D<_>>()?;
    let data = (0..ncols)
        .map(|_| read_column(r, nrows, &mut budget))
        .collect::<D<_>>()?;
    Ok(WireResultSet { columns, data })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Visibility;
    use crate::driver::OperatorProfile;
    use crate::queue::{Task, TaskState};
    use crate::results::{LoadAvg, ResultRecord};
    use serde::Value;

    fn round_trip_request(req: Request) -> Request {
        let frame = encode_request_frame(7, &req);
        let mut buf = frame.clone();
        let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(tag, 7);
        assert!(buf.is_empty());
        match decode_request(&body).unwrap() {
            DecodedRequest::Op(r) => *r,
            other => panic!("expected an op, got {other:?}"),
        }
    }

    fn round_trip_reply(outcome: PlatformResult<Reply>) -> PlatformResult<Reply> {
        let frame = encode_reply_frame(3, &outcome);
        let mut buf = frame;
        let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(tag, 3);
        match decode_reply(&body).unwrap() {
            DecodedReply::Outcome(o) => o,
            other => panic!("expected an outcome, got {other:?}"),
        }
    }

    fn sample_outcome() -> RunOutcome {
        RunOutcome {
            times_ms: vec![1.5, 2.25, 3.125],
            rows: 42,
            error: None,
            load_before: LoadAvg { one: 0.5, five: 0.25, fifteen: 0.125 },
            load_after: LoadAvg { one: 1.5, five: 1.25, fifteen: 1.125 },
            extras: serde_json::json!({"cache": "warm"}),
            fingerprint: Some(0xdead_beef_cafe_f00d),
            profile: Some(vec![OperatorProfile {
                op: "scan lineitem".into(),
                rows_in: 100,
                rows_out: 60,
                batches: 2,
                nanos: 12345,
                chunks_scanned: 3,
                chunks_skipped: 9,
            }]),
        }
    }

    fn sample_record(i: u64) -> ResultRecord {
        ResultRecord {
            task: i,
            project: 1,
            experiment: 2,
            query: 10 + i,
            dbms_label: "rowstore-2.0".into(),
            host: "bench-server".into(),
            contributor: format!("ck_{i}"),
            times_ms: vec![1.0 + i as f64, 2.0],
            rows: 5,
            error: (i % 2 == 1).then(|| "boom".to_string()),
            load_before: LoadAvg::default(),
            load_after: LoadAvg { one: 0.1, five: 0.2, fifteen: 0.3 },
            extras: serde_json::json!({"i": i as i64}),
            hidden: i.is_multiple_of(3),
            fingerprint: i.is_multiple_of(2).then_some(0xfeed + i),
            profile: (i == 2).then(|| sample_outcome().profile.unwrap()),
        }
    }

    #[test]
    fn every_request_round_trips() {
        let reqs = vec![
            Request::RegisterUser { nickname: "mlk".into(), email: "mlk@cwi.nl".into() },
            Request::IssueKey { user: UserId(3) },
            Request::DbmsLabels,
            Request::CreateProject {
                owner: UserId(1),
                title: "t".into(),
                synopsis: "s".into(),
                visibility: Visibility::Private,
            },
            Request::Invite { project: ProjectId(1), owner: UserId(2), user: UserId(3) },
            Request::SetTargets {
                project: ProjectId(1),
                actor: UserId(2),
                dbms_labels: vec!["a".into(), "b".into()],
                hosts: vec!["h".into()],
            },
            Request::Comment { project: ProjectId(1), author: UserId(2), text: "hi".into() },
            Request::TakeDown { project: ProjectId(9) },
            Request::RoleOf { project: ProjectId(1), user: UserId(2) },
            Request::AddExperiment {
                project: ProjectId(1),
                actor: UserId(2),
                title: "e".into(),
                baseline_sql: "select 1 from t".into(),
                grammar: Some("Q:= select $a from t\n$a:= x | y".into()),
                template_cap: 100,
                pool_cap: 10,
            },
            Request::SeedPool {
                project: ProjectId(1),
                experiment: ExperimentId(0),
                actor: UserId(2),
                n_random: 5,
                seed: 42,
            },
            Request::MorphPool {
                project: ProjectId(1),
                experiment: ExperimentId(0),
                actor: UserId(2),
                strategy: None,
                steps: 3,
                seed: 7,
            },
            Request::EnqueueExperiment {
                project: ProjectId(1),
                experiment: ExperimentId(0),
                actor: UserId(2),
            },
            Request::ResultsForKey { project: ProjectId(1), key: ContributorKey("ck_x".into()) },
            Request::ExportCsv { project: ProjectId(1), viewer: UserId(2) },
            Request::HideResult { project: ProjectId(1), actor: UserId(2), index: 4, hidden: true },
            Request::RequestTask {
                key: ContributorKey("ck_y".into()),
                dbms_label: "rowstore-2.0".into(),
                host: "bench-server".into(),
                claim: None,
            },
            Request::RequestTask {
                key: ContributorKey("ck_y".into()),
                dbms_label: "rowstore-2.0".into(),
                host: "bench-server".into(),
                claim: Some(0xfeed_beef),
            },
            Request::ReportResult {
                key: ContributorKey("ck_y".into()),
                task: TaskId(8),
                outcome: sample_outcome(),
            },
            Request::QueueSummary,
            Request::ReapStuck { timeout_ms: 30_000 },
            Request::Requeue { task: TaskId(5) },
            Request::Metrics,
            Request::Execute { sql: "select count(*) from region".into(), fingerprint: Some(99) },
        ];
        for req in reqs {
            let back = round_trip_request(req.clone());
            // Compare via the JSON debug form — RunOutcome has no PartialEq.
            assert_eq!(format!("{back:?}"), format!("{req:?}"));
        }
    }

    #[test]
    fn replies_and_errors_round_trip() {
        let mut task = Task {
            id: TaskId(1),
            project: ProjectId(2),
            experiment: ExperimentId(3),
            query: QueryId(4),
            sql: "select 1 from t".into(),
            dbms_label: "rowstore-2.0".into(),
            host: "bench-server".into(),
            state: TaskState::Running { contributor: ContributorKey("ck_1".into()) },
            started: None,
        };
        let replies = vec![
            Reply::Unit,
            Reply::User(UserId(1)),
            Reply::Key(ContributorKey("ck_z".into())),
            Reply::Labels(vec!["a".into(), "b".into()]),
            Reply::Project(ProjectId(2)),
            Reply::Role(Role::Contributor),
            Reply::Experiment(ExperimentId(3)),
            Reply::Seeded(5),
            Reply::Added(vec![QueryId(1), QueryId(9)]),
            Reply::Enqueued(12),
            Reply::Results(vec![sample_record(0), sample_record(1), sample_record(2)]),
            Reply::Csv("a,b\n1,2\n".into()),
            Reply::Handout(Some(task.clone())),
            Reply::Handout(None),
            Reply::Index(7),
            Reply::Queue(QueueSummary { queued: 1, running: 2, finished: 3, failed: 4, timed_out: 5 }),
            Reply::Reaped(vec![TaskId(3)]),
            Reply::Execution(ExecOutcome {
                result: WireResultSet {
                    columns: vec!["n".into(), "s".into()],
                    data: vec![
                        vec![WireValue::Int(1), WireValue::Null, WireValue::Int(3)],
                        vec![
                            WireValue::Str("x".into()),
                            WireValue::Str("y".into()),
                            WireValue::Null,
                        ],
                    ],
                },
                fingerprint: 0xabcd,
                cache: CacheStatus::Hit,
            }),
        ];
        for reply in replies {
            let back = round_trip_reply(Ok(reply.clone())).unwrap();
            assert_eq!(format!("{back:?}"), format!("{reply:?}"));
        }
        // Every TaskState variant travels.
        for state in [
            TaskState::Queued,
            TaskState::Done,
            TaskState::Failed("x".into()),
            TaskState::TimedOut,
        ] {
            task.state = state.clone();
            let back = round_trip_reply(Ok(Reply::Handout(Some(task.clone())))).unwrap();
            match back {
                Reply::Handout(Some(t)) => assert_eq!(t.state, state),
                other => panic!("{other:?}"),
            }
        }
        // Errors reconstruct the exact typed variant.
        for err in [
            PlatformError::Invalid("bad".into()),
            PlatformError::UnknownProject(42),
            PlatformError::AccessDenied("nope".into()),
            PlatformError::PoolFull(10),
            PlatformError::Transport("io".into()),
            PlatformError::Throttled("in-flight bound".into()),
        ] {
            let back = round_trip_reply(Err(err.clone()));
            assert_eq!(back.unwrap_err(), err);
        }
    }

    #[test]
    fn mixed_and_typed_columns_both_encode() {
        let rs = WireResultSet {
            columns: vec!["mixed".into(), "ints".into(), "nulls".into()],
            data: vec![
                vec![
                    WireValue::Int(1),
                    WireValue::Str("two".into()),
                    WireValue::Float(3.0),
                    WireValue::Decimal { raw: 12345, scale: 2 },
                ],
                vec![
                    WireValue::Int(10),
                    WireValue::Null,
                    WireValue::Int(30),
                    WireValue::Int(40),
                ],
                vec![WireValue::Null, WireValue::Null, WireValue::Null, WireValue::Null],
            ],
        };
        let out = ExecOutcome { result: rs.clone(), fingerprint: 1, cache: CacheStatus::Bypass };
        match round_trip_reply(Ok(Reply::Execution(out))).unwrap() {
            Reply::Execution(back) => assert_eq!(back.result, rs),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn null_heavy_result_sets_round_trip_and_inflated_ones_are_refused() {
        let round_trip = |data: Vec<Vec<WireValue>>| {
            let result = WireResultSet {
                columns: (0..data.len()).map(|c| format!("c{c}")).collect(),
                data,
            };
            let outcome = Ok(Reply::Execution(ExecOutcome {
                result: result.clone(),
                fingerprint: 1,
                cache: CacheStatus::Hit,
            }));
            match round_trip_reply(outcome) {
                Ok(Reply::Execution(back)) => assert_eq!(back.result, result),
                other => panic!("{other:?}"),
            }
        };
        let rows = 1 << 16;
        let nulls = vec![WireValue::Null; rows];
        let sparse = |every: usize, v: fn(usize) -> WireValue| -> Vec<WireValue> {
            (0..rows)
                .map(|i| if i % every == 0 { v(i) } else { WireValue::Null })
                .collect()
        };
        // All null, one Int in sixteen, half-null Bools, a lone long
        // string among nulls, and a mixed column: all decode as sent.
        round_trip(vec![nulls.clone()]);
        round_trip(vec![sparse(16, |i| WireValue::Int(i as i64))]);
        round_trip(vec![sparse(2, |i| WireValue::Bool(i % 4 == 0))]);
        round_trip(vec![sparse(rows, |_| WireValue::Str("x".repeat(1 << 15)))]);
        round_trip(vec![
            sparse(3, |i| WireValue::Date(i as i32)),
            sparse(5, |_| WireValue::Str("y".into())),
            (0..rows)
                .map(|i| match i % 3 {
                    0 => WireValue::Int(i as i64),
                    1 => WireValue::Str("z".into()),
                    _ => WireValue::Null,
                })
                .collect(),
        ]);
        // The same cells hand-written in the typed form, a bitmap bit
        // per null, would decode at ~256x (all null) or ~51x (one Int in
        // sixteen) their bytes: refused, not inflated.
        for (tag, every, payload) in [(CT_ALL_NULL, 0, 0), (CT_INT, 16, 8)] {
            let mut w = W::default();
            w.u32(1);
            w.u32(rows as u32);
            w.str("c0");
            w.u8(tag);
            w.bitmap(rows, |i| every != 0 && i % every == 0);
            let present = rows.checked_div(every).unwrap_or(0);
            w.buf.extend(vec![0u8; present * payload]);
            let err = read_result_set(&mut R::new(&w.buf)).unwrap_err();
            assert!(err.contains("past 32x"), "{err}");
        }
    }

    #[test]
    fn hello_frames_round_trip() {
        let mut buf = encode_hello_frame(0);
        let (_, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        match decode_request(&body).unwrap() {
            DecodedRequest::Hello { version } => assert_eq!(version, PROTO_VERSION),
            other => panic!("{other:?}"),
        }
        let mut buf = encode_hello_ok_frame(0);
        let (_, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        match decode_reply(&body).unwrap() {
            DecodedReply::Hello { version } => assert_eq!(version, PROTO_VERSION),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn partial_frames_wait_and_bad_headers_fail() {
        let full = encode_request_frame(1, &Request::QueueSummary);
        // Feed the frame byte by byte: no frame until the last byte.
        let mut buf = Vec::new();
        for (i, b) in full.iter().enumerate() {
            buf.push(*b);
            let got = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap();
            if i + 1 < full.len() {
                assert!(got.is_none(), "premature frame at byte {i}");
            } else {
                assert!(got.is_some());
            }
        }
        assert!(buf.is_empty());
        // Two frames back to back: both extracted in order.
        let mut buf = encode_request_frame(1, &Request::QueueSummary);
        buf.extend(encode_request_frame(2, &Request::Metrics));
        assert_eq!(take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap().0, 1);
        assert_eq!(take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap().0, 2);
        // An oversized length field is a hard protocol error.
        let mut buf = vec![0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0];
        assert!(take_frame(&mut buf, DEFAULT_MAX_FRAME).is_err());
        // Truncated payloads are decode errors, not panics.
        let mut buf = encode_request_frame(1, &Request::RegisterUser {
            nickname: "a".into(),
            email: "b".into(),
        });
        let (_, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert!(decode_request(&body[..body.len() - 1]).is_err());
        // Trailing garbage is rejected too.
        let mut extended = body.clone();
        extended.push(0);
        assert!(decode_request(&extended).is_err());
    }

    #[test]
    fn report_batch_summary_frame_round_trips() {
        // OP_REPORT_BATCH decodes to BatchEnd (the server assembles
        // sequences itself), so it gets its own round trip instead of
        // joining `every_request_round_trips`.
        let key = ContributorKey("ck_bulk".into());
        let reports: Vec<(TaskId, RunOutcome)> = (0..4)
            .map(|i| {
                let mut o = sample_outcome();
                o.rows = i as usize;
                (TaskId(100 + i), o)
            })
            .collect();
        let req = Request::ReportBatch { key: key.clone(), reports: reports.clone() };
        let mut buf = encode_request_frame(9, &req);
        let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(tag, 9);
        match decode_request(&body).unwrap() {
            DecodedRequest::BatchEnd { key: k, total, inline } => {
                assert_eq!(k, key);
                assert_eq!(total, 4);
                assert_eq!(format!("{inline:?}"), format!("{reports:?}"));
            }
            other => panic!("{other:?}"),
        }
        // The Batch reply round trips like any other.
        match round_trip_reply(Ok(Reply::Batch(vec![0, 7, 3]))).unwrap() {
            Reply::Batch(idx) => assert_eq!(idx, vec![0, 7, 3]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_part_and_end_frames_stream_under_one_tag() {
        let key = ContributorKey("ck_stream".into());
        let pairs: Vec<(TaskId, RunOutcome)> =
            (0..3).map(|i| (TaskId(i), sample_outcome())).collect();
        let mut buf = encode_batch_part_frame(5, &pairs[..2]);
        buf.extend(encode_batch_end_frame(5, &key, 3, &pairs[2..]));
        let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(tag, 5);
        match decode_request(&body).unwrap() {
            DecodedRequest::BatchPart(p) => {
                assert_eq!(format!("{p:?}"), format!("{:?}", &pairs[..2]))
            }
            other => panic!("{other:?}"),
        }
        let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(tag, 5);
        match decode_request(&body).unwrap() {
            DecodedRequest::BatchEnd { key: k, total, inline } => {
                assert_eq!(k, key);
                assert_eq!(total, 3);
                assert_eq!(inline.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        // An empty part frame is legal (and decodes to zero pairs).
        let mut buf = encode_batch_part_frame(5, &[]);
        let (_, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        match decode_request(&body).unwrap() {
            DecodedRequest::BatchPart(p) => assert!(p.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn subscribe_and_notification_frames_round_trip() {
        let key = ContributorKey("ck_sub".into());
        let mut buf = encode_subscribe_frame(2, &key);
        let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(tag, 2);
        match decode_request(&body).unwrap() {
            DecodedRequest::Subscribe { key: k } => assert_eq!(k, key),
            other => panic!("{other:?}"),
        }
        for n in [
            Notification::QueueReady { project: ProjectId(4) },
            Notification::ExperimentFinished {
                project: ProjectId(4),
                experiment: ExperimentId(2),
            },
        ] {
            let mut buf = encode_notification_frame(&n);
            let (tag, body) = take_frame(&mut buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
            assert_eq!(tag, 0, "push frames always ride tag 0");
            match decode_reply(&body).unwrap() {
                DecodedReply::Notification(back) => assert_eq!(back, n),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn decimal_and_extras_survive_binary() {
        let out = RunOutcome {
            extras: Value::Null,
            ..sample_outcome()
        };
        let req = Request::ReportResult {
            key: ContributorKey("ck".into()),
            task: TaskId(0),
            outcome: out,
        };
        let back = round_trip_request(req.clone());
        assert_eq!(format!("{back:?}"), format!("{req:?}"));
    }
}
