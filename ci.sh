#!/bin/sh
# Tier-1 gate: what must stay green on every commit.
#
#   ./ci.sh                          full gate
#   ./ci.sh explain-goldens          only the EXPLAIN golden check
#   ./ci.sh explain-goldens --bless  regenerate the goldens after an
#                                    intentional rewriter/plan change
#   ./ci.sh plan-goldens [--bless]   the join-order goldens: Q5/Q7/Q8/Q9/Q21
#                                    chosen order + estimated vs actual
#                                    cardinalities (timings masked)
set -eux

explain_goldens() {
    if [ "${1:-}" = "--bless" ]; then
        SQALPEL_BLESS=1 cargo test -q --release -p sqalpel-engine --test explain_goldens
        SQALPEL_BLESS=1 cargo test -q --release -p sqalpel-engine --test explain_analyze_goldens analyze_slice
        # Re-check: blessed goldens must round-trip clean.
        cargo test -q --release -p sqalpel-engine --test explain_goldens
        cargo test -q --release -p sqalpel-engine --test explain_analyze_goldens
    else
        cargo test -q --release -p sqalpel-engine --test explain_goldens
        cargo test -q --release -p sqalpel-engine --test explain_analyze_goldens
    fi
}

plan_goldens() {
    if [ "${1:-}" = "--bless" ]; then
        SQALPEL_BLESS=1 cargo test -q --release -p sqalpel-engine --test plan_goldens adaptive_plans
        cargo test -q --release -p sqalpel-engine --test plan_goldens
    else
        cargo test -q --release -p sqalpel-engine --test plan_goldens
    fi
}

if [ "${1:-}" = "explain-goldens" ]; then
    shift
    explain_goldens "$@"
    exit 0
fi

if [ "${1:-}" = "plan-goldens" ]; then
    shift
    plan_goldens "$@"
    exit 0
fi

cargo build --release
cargo test -q
# Every test in the workspace: each crate's unit tests (the durability
# and codec tests live in sqalpel-core's lib) and every integration suite,
# including the ones named individually below.
cargo test -q --release --workspace
# The wire layer's loopback e2e suite: concurrent clients with injected
# connection drops must drain the queue with zero double-reports.
cargo test -q -p sqalpel-core --test wire_loopback
# The v1-vs-v2 differential wall: one server over both transports must
# answer with identical decoded values everywhere (replies, typed
# errors, CSV, pipelined-vs-serial), v2 mid-frame drops never double-
# report, and warm plan-cache hits return byte-identical results.
cargo test -q -p sqalpel-core --test wire_differential
# EXPLAIN plans for the full TPC-H + SSB flights are pinned: any drift in
# the binder/rewriter/ir output fails here until re-blessed.
explain_goldens
# The cost-based optimizer's plan goldens: chosen join order plus
# estimated-vs-actual cardinalities for the five join-heavy queries,
# including the adaptive second pass.
plan_goldens
# Every logical rewrite must be result-preserving, byte-for-byte, on both
# engines at 1 and 4 workers.
cargo test -q --release -p sqalpel-engine --test rewriter_equivalence
# Join reordering must be result-preserving too: optimizer on vs off,
# both engines, 1 and 4 workers, identical row sets and fingerprints.
cargo test -q --release -p sqalpel-engine --test optimizer_equivalence
# The cardinality estimator's invariants (selectivity in [0,1], conjunct
# monotonicity) under random predicates and degenerate statistics.
cargo test -q --release -p sqalpel-engine --test cost_props
# Profiling must be observation-only: both flights, both engines, 1 and 4
# workers, profiler on vs off — identical results and row counts.
cargo test -q --release -p sqalpel-engine --test metrics_invariance
# The merge algebra under the profiler and the metrics histograms.
cargo test -q --release -p sqalpel-engine --test profile_props
cargo test -q --release -p sqalpel-core --test metrics_props
# Compressed storage: dict/FoR round-trips and zone-map soundness (a
# skipped chunk must hold no qualifying row, checked against raw data).
cargo test -q --release -p sqalpel-engine --test storage_props
# Selection-vector filters and dict probes must stay allocation-lean.
cargo test -q --release -p sqalpel-engine --test alloc_discipline
# Clippy over the whole workspace, including the ir module (bind/rewrite/
# explain) that both engines now lower from.
cargo clippy --workspace --all-targets -- -D warnings
# The engine's hot loops must stay allocation-lean: these lints catch the
# collect-then-iterate and clone-a-key patterns the radix kernels removed.
cargo clippy -p sqalpel-engine --all-targets -- -D warnings -D clippy::needless_collect -D clippy::redundant_clone
# Smoke the parallel repro harness end to end (tiny scale, one rep, no
# BENCH_parallel.json rewrite).
cargo run --release -p sqalpel-bench --bin repro -- parallel --smoke
# Smoke the optimizer repro harness (tiny scale, one rep, no
# BENCH_optimizer.json rewrite): exercises the syntactic/cold/adaptive
# three-way measurement including the plan-cache reoptimization path.
cargo run --release -p sqalpel-bench --bin repro -- optimizer --smoke
# Smoke the multi-tenant scale harness (miniature populate/load/recovery
# phases, no BENCH_scale.json rewrite): drains a sharded queue through
# the v2 wire under admission control and times a WAL-tail replay.
cargo run --release -p sqalpel-bench --bin repro -- scale --smoke
# Admission-control invariants (the per-user in-flight bound is exact and
# every release path — report, error, reaper — returns the slot).
cargo test -q --release -p sqalpel-core --test admission_props
# Bulk-upload differential wall: the same experiment reported per-record
# over v1, per-record over v2 and as one streamed v2 batch must export
# byte-identical CSVs with identical queue counters; a connection killed
# mid-continuation-frame leaves no partial batch and a retry delivers
# exactly once.
cargo test -q --release -p sqalpel-core --test bulk_differential
# Server-push delivery contract: exactly one QueueReady per parked
# subscription per wake event (proptest vs a reference model), nothing to
# closed subscriptions, and push-subscribed worker pools drain late work
# with queue.empty_polls pinned at zero.
cargo test -q --release -p sqalpel-core --test push_props
# The v2 readiness wall: shards block in epoll, so 256 idle connections
# burn < 2% of a core; a parked subscriber hears an enqueue within 50 ms;
# intake and shutdown wake blocked shards; 50 start/stop cycles leak no
# fd; a client that stops reading is pushed back on (a push subscriber
# is dropped); 100k-deep extras JSON gets a typed reply, not a crash.
cargo test -q --release -p sqalpel-core --test v2_readiness
# The vendored JSON parser (not a workspace member, so not covered by
# --workspace) refuses nesting past depth 128.
cargo test -q --release -p serde_json
# The binary durability formats: random WAL records and populated states
# round-trip (WAL only, snapshot, snapshot + tail), a WAL cut anywhere in
# its last frame recovers the intact prefix, a flipped snapshot byte fails
# with InvalidData, and hostile bytes fed to the v2 decoders and the WAL
# parser (null-heavy result sets included) never panic or allocate beyond
# a small multiple of their input.
cargo test -q --release -p sqalpel-core --test durability_codec_props
# Crash-recovery e2e: kill -9 a durable `repro serve` mid-walk, restart,
# and require byte-identical acked results, re-hand-out of the open claim
# to its original key only, and a snapshot on SIGTERM — plus the bulk
# path: an acked batch replays byte-identical from its one
# `reports_accepted` record, a torn one drops the whole batch atomically.
# `repro wal-dump` reads each recovered dir (0 torn, one
# `reports_accepted` record per acked report call), and a format-2 state
# dir is refused by the server and by wal-dump and left byte-identical.
cargo test -q --release -p sqalpel-bench --test crash_recovery
# Smoke the bulk + push wire paths end to end over loopback (one batch
# ack, idempotent retry, a QueueReady frame; no BENCH_wire.json rewrite).
cargo run --release -p sqalpel-bench --bin repro -- wire --bulk-smoke
