#!/usr/bin/env bash
# Tier-1 verification: hermetic build + tests, entirely offline.
#
# The workspace must build and pass its test suite without touching a
# cargo registry. A grep guard keeps it that way: if any manifest
# reintroduces one of the dependencies this repo replaced with in-tree
# substitutes (see "Hermetic build & testkit" in DESIGN.md), verification
# fails before wasting time on a build.
set -euo pipefail
cd "$(dirname "$0")/.."

banned='^(rand|proptest|criterion|crossbeam|parking_lot|bytes|serde)'
if grep -rE "$banned" crates/*/Cargo.toml Cargo.toml; then
    echo "error: registry dependency reintroduced (see matches above)." >&2
    echo "Use the in-tree substitutes: ezp-testkit (rng/proptest/bench)," >&2
    echo "std::sync, std::sync::mpsc, Vec<u8>, ezp-core::json." >&2
    exit 1
fi

# Static analysis lane (see docs/static-analysis.md): ezp-lint enforces
# the invariants the runtime's correctness argument leans on — SAFETY:
# comments on unsafe, ORDERING: justifications on weak atomics, a
# lock-free scheduler hot path, seed-replay determinism in the ezp-check
# modules, hermetic manifests, and live cfg(feature) gates. It runs
# before the build lanes: the linter is std-only and compiles even when
# the rest of the tree is broken, and its findings are cheaper to read
# than a failed tier-2 lane. The JSON report is kept for tooling; on
# failure the human-readable rerun prints the findings.
if ! cargo run -q --offline -p ezp-lint -- --format=json > ci/lint-report.json; then
    cargo run -q --offline -p ezp-lint || true
    echo "error: ezp-lint found violations (report: ci/lint-report.json;" >&2
    echo "       rules + suppression syntax: docs/static-analysis.md)." >&2
    exit 1
fi
# The version-2 report carries per-pass finding counts and wall-times;
# echo them into the log and fail the lane if the whole lint run blew
# its 5-second budget — a cross-file pass regressing into quadratic
# behaviour on workspace growth should be a CI failure, not slow creep.
if command -v python3 >/dev/null 2>&1; then
    python3 - ci/lint-report.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for p in doc["passes"]:
    print(f"verify: lint pass {p['name']}: {p['findings']} finding(s) "
          f"in {p['wall_ms']:.1f} ms")
total = doc["total_ms"]
if total > 5000:
    sys.exit(f"verify: lint run took {total:.0f} ms, over the 5000 ms budget")
print(f"verify: lint lane within budget ({total:.0f} ms of 5000 ms)")
EOF
else
    # Fallback: the three passes must be present in the report; no
    # budget arithmetic without python3.
    for pass_name in atomics-pairing guard-leak counter-registry; do
        grep -q "\"name\": *\"$pass_name\"" ci/lint-report.json
    done
    echo "verify: lint passes present in report (grep fallback, no budget check)"
fi
echo "verify: ezp-lint clean"

# --workspace matters: the root package alone does not pull in the
# easypap-cli binary the smoke test below runs.
cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo build --benches --offline
# The end-to-end benchmark is its own workspace (easybench/) and imports
# public names of ezp-kernels and ezp-sched; build it here so an API
# break fails verification rather than the benchmark run.
cargo build --release --offline --manifest-path easybench/Cargo.toml

# Tier 2: deterministic concurrency checking (see docs/testing.md).
# The ezp-check feature compiles the virtual-scheduler executor and the
# shadow-write race detector, and unlocks the full conformance matrix
# (every kernel x variant x policy x {1,2,4,8} workers). Kept out of the
# workspace-wide run above so tier-1 wall-clock stays flat; the feature
# adds nothing to a default build.
cargo test -q --offline -p ezp-sched -p ezp-core --features ezp-check
cargo test -q --offline -p easypap --features ezp-check
# Conformance smoke at 2 workers, named explicitly so a matrix-wide
# regression is visible in this log even if someone trims the lanes
# above.
cargo test -q --offline -p easypap --features ezp-check \
    --test conformance -- conformance_smoke_two_workers

# Mandel exactness lane: the row function every CPU variant runs (lane
# escape loop + palette) must equal mandel_color(escape_iterations(..))
# pixel by pixel. The property test runs under three fixed seeds beyond
# the default one, and a max_iter above mandel::MAX_ITER_LIMIT must be a
# configuration error, never an allocation.
for seed in 1 0x5eed 0xdeadbeef; do
    EZP_TEST_SEED=$seed cargo test -q --offline -p ezp-kernels \
        prop_row_matches_per_pixel_reference
done
mandel_dir="$(mktemp -d)"
(
    cd "$mandel_dir"
    if "$OLDPWD/target/release/easypap" --kernel mandel --arg 2000000 \
        --size 32 --iterations 1 --no-display 2> mandel_err.out; then
        echo "error: mandel accepted max_iter 2000000" >&2
        exit 1
    fi
    grep -q "configuration error: mandel: max_iter 2000000 exceeds the limit" \
        mandel_err.out || {
        echo "error: mandel max_iter over the limit is not a config error:" >&2
        cat mandel_err.out >&2
        exit 1
    }
    echo "verify: mandel rejects max_iter above its limit"
)
rm -rf "$mandel_dir"

# Scheduler-hot-path bench gate: run the sched bench in smoke mode,
# emit BENCH_sched.json, and diff it against the committed baseline
# (ci/BENCH_sched.json). What is compared is the lock-free/mutex
# throughput *ratio* per metric per worker count — self-normalizing, so
# a slow or noisy CI host does not fail the gate, but the lock-free
# paths regressing >20% relative to the in-run mutex baselines does.
bench_json="$(mktemp)"
EZP_BENCH_SMOKE=1 EZP_BENCH_JSON="$bench_json" \
    cargo bench -q --offline -p ezp-bench --bench sched >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$bench_json" ci/BENCH_sched.json <<'EOF'
import json, sys
cur = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
tol = 0.8  # fail on >20% regression vs the committed baseline ratio
failed = False
for metric in ("regions_per_sec", "tasks_per_sec", "steal_ops_per_sec"):
    for i, w in enumerate(base["workers"]):
        cr = cur["lockfree"][metric][i] / cur["mutex_baseline"][metric][i]
        br = base["lockfree"][metric][i] / base["mutex_baseline"][metric][i]
        status = "ok"
        if cr < tol * br:
            status = "REGRESSION"
            failed = True
        print(f"verify: bench {metric} @{w}w lockfree/mutex "
              f"{cr:.2f}x (baseline {br:.2f}x) {status}")
if failed:
    sys.exit("verify: sched bench regressed >20% vs ci/BENCH_sched.json")
print("verify: sched bench within 20% of committed baseline ratios")
EOF
else
    # Fallback: structural check that the bench emitted all three
    # metrics for both variants.
    for key in regions_per_sec tasks_per_sec steal_ops_per_sec \
               lockfree mutex_baseline; do
        grep -q "\"$key\"" "$bench_json"
    done
    echo "verify: sched bench JSON OK (grep fallback, no ratio diff)"
fi
rm -f "$bench_json"

# Streaming bench gate: same idea for the skeleton engine. The compared
# quantity is the parallel/sequential frames-per-sec ratio per emission
# mode per farm width — self-normalizing against host speed — with the
# same >20% regression tolerance vs ci/BENCH_stream.json.
stream_json="$(mktemp)"
EZP_BENCH_SMOKE=1 EZP_BENCH_JSON="$stream_json" \
    cargo bench -q --offline -p ezp-bench --bench stream >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$stream_json" ci/BENCH_stream.json <<'EOF'
import json, sys
cur = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
tol = 0.8  # fail on >20% regression vs the committed baseline ratio
failed = False
for mode in ("ordered", "unordered"):
    for i, w in enumerate(base["widths"]):
        cr = cur[mode]["frames_per_sec"][i] / cur["seq_baseline"]["frames_per_sec"][0]
        br = base[mode]["frames_per_sec"][i] / base["seq_baseline"]["frames_per_sec"][0]
        status = "ok"
        if cr < tol * br:
            status = "REGRESSION"
            failed = True
        print(f"verify: bench stream {mode} @width {w} par/seq "
              f"{cr:.2f}x (baseline {br:.2f}x) {status}")
if failed:
    sys.exit("verify: stream bench regressed >20% vs ci/BENCH_stream.json")
print("verify: stream bench within 20% of committed baseline ratios")
EOF
else
    for key in widths ordered unordered seq_baseline frames_per_sec; do
        grep -q "\"$key\"" "$stream_json"
    done
    echo "verify: stream bench JSON OK (grep fallback, no ratio diff)"
fi
rm -f "$stream_json"

# Channel bench gate (docs/channels.md): ring vs std::sync::mpsc. Two
# checks: the ring/mpsc throughput *ratio* per shape must not regress
# >20% vs the committed baseline (self-normalizing against host speed),
# and the ring must stay ahead of the mpsc baseline outright on both
# SPSC shapes — the crate's reason to exist.
chan_json="$(mktemp)"
EZP_BENCH_SMOKE=1 EZP_BENCH_JSON="$chan_json" \
    cargo bench -q --offline -p ezp-bench --bench chan >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$chan_json" ci/BENCH_chan.json <<'EOF'
import json, sys
cur = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
tol = 0.8  # fail on >20% regression vs the committed baseline ratio
failed = False
for metric in ("spsc_inline_msgs_per_sec", "spsc_threaded_msgs_per_sec"):
    cr = cur["ring"][metric] / cur["mpsc_baseline"][metric]
    br = base["ring"][metric] / base["mpsc_baseline"][metric]
    status = "ok"
    if cr < tol * br:
        status = "REGRESSION"
        failed = True
    if cr < 1.0:
        status = "SLOWER THAN MPSC"
        failed = True
    print(f"verify: bench chan {metric} ring/mpsc "
          f"{cr:.2f}x (baseline {br:.2f}x) {status}")
for i, t in enumerate(base["threads"]):
    cr = cur["ring"]["mpmc_msgs_per_sec"][i] / cur["mpsc_baseline"]["mpmc_msgs_per_sec"][i]
    br = base["ring"]["mpmc_msgs_per_sec"][i] / base["mpsc_baseline"]["mpmc_msgs_per_sec"][i]
    status = "ok"
    if cr < tol * br:
        status = "REGRESSION"
        failed = True
    print(f"verify: bench chan mpmc @{t}p ring/mpsc "
          f"{cr:.2f}x (baseline {br:.2f}x) {status}")
if failed:
    sys.exit("verify: chan bench regressed vs ci/BENCH_chan.json")
print("verify: chan bench within 20% of committed baseline ratios, ring ahead on SPSC")
EOF
else
    for key in spsc_inline_msgs_per_sec spsc_threaded_msgs_per_sec \
               mpmc_msgs_per_sec ring mpsc_baseline; do
        grep -q "\"$key\"" "$chan_json"
    done
    echo "verify: chan bench JSON OK (grep fallback, no ratio diff)"
fi
rm -f "$chan_json"

# Observability smoke test: a real run must emit a parseable JSON stats
# report with a non-zero task count (the --stats pipeline end to end).
stats_dir="$(mktemp -d)"
trap 'rm -rf "$stats_dir"' EXIT
(
    cd "$stats_dir"
    "$OLDPWD/target/release/easypap" --kernel life --variant omp_tiled \
        --size 64 --tile-size 16 --iterations 3 --threads 2 \
        --no-display --stats=json > stats_run.out
    # The JSON object is the last block of the output; split it off.
    sed -n '/^{/,$p' stats_run.out > stats.json
    if command -v python3 >/dev/null 2>&1; then
        python3 - stats.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = doc["counters"]["counters"]
tasks = next(r for r in rows if r["name"] == "tasks_executed")
assert tasks["total"] > 0, "tasks_executed is zero"
print(f"verify: stats JSON OK ({tasks['total']} tasks executed)")
EOF
    else
        # Fallback: structural grep for a non-zero tasks_executed total.
        grep -q '"name": *"tasks_executed"' stats.json
        grep -A2 '"name": *"tasks_executed"' stats.json \
            | grep -qE '"total": *[1-9]'
        echo "verify: stats JSON OK (grep fallback)"
    fi
)

# Explain lane (docs/profiling.md): record an instrumented trace, then
# run the causal profiler over it. The report must carry the critical
# path, per-cause idle counters, the work/span bound and at least one
# advisor recommendation, and the per-cause idle slices must sum to the
# idle_ns total.
explain_dir="$(mktemp -d)"
(
    cd "$explain_dir"
    "$OLDPWD/target/release/easypap" --kernel mandel --variant omp_tiled \
        --size 64 --tile-size 16 --iterations 2 --threads 2 \
        --no-display --trace --stats=json > explain_run.out
    "$OLDPWD/target/release/easyview" explain trace.ezv > explain.out
    for needle in "work T1" "span Tinf" "task latency" "p99" "# advice:"; do
        grep -qF "$needle" explain.out || {
            echo "error: explain report is missing \"$needle\"" >&2
            exit 1
        }
    done
    grep -qE '\[[a-z-]+\]' explain.out || {
        echo "error: explain report has no advisor recommendation" >&2
        exit 1
    }
    # per-cause attribution: the counter snapshot embedded in the trace
    # carries idle_ns{cause=...} slices that sum exactly to idle_ns
    sed -n '/^{/,$p' explain_run.out > explain_stats.json
    grep -q 'idle_ns{cause=' explain_stats.json || {
        echo "error: per-cause idle counters missing from --stats=json" >&2
        exit 1
    }
    if command -v python3 >/dev/null 2>&1; then
        python3 - explain_stats.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = {r["name"]: r["total"] for r in doc["counters"]["counters"]}
total = rows.get("idle_ns", 0)
causes = sum(v for k, v in rows.items() if k.startswith("idle_ns{cause="))
assert causes == total, f"idle causes sum to {causes}, idle_ns is {total}"
print(f"verify: explain OK (idle breakdown {causes} ns == idle_ns total)")
EOF
    else
        echo "verify: explain OK (grep fallback, no sum check)"
    fi
)
rm -rf "$explain_dir"

# Streaming smoke lane: a 2-worker ordered pipeline run over 16 frames
# must stream end to end and its --stats=json report must carry the
# streaming counters (docs/streaming.md).
stream_dir="$(mktemp -d)"
(
    cd "$stream_dir"
    "$OLDPWD/target/release/easypap" --kernel mandel_zoom --stream=16 \
        --threads 2 --farm-width 2 --size 32 --no-display \
        --stats=json > stream_run.out
    grep -q "16 frames streamed" stream_run.out
    sed -n '/^{/,$p' stream_run.out > stream_stats.json
    for counter in frames_emitted frames_in_flight reorder_buffer_depth \
                   stage_occupancy backpressure_stalls; do
        grep -q "\"name\": *\"$counter\"" stream_stats.json || {
            echo "error: streaming counter $counter missing from --stats=json" >&2
            exit 1
        }
    done
    grep -A2 '"name": *"frames_emitted"' stream_stats.json \
        | grep -qE '"total": *16'
    echo "verify: streaming smoke OK (16 frames, counters present)"

    # Channel lane (docs/channels.md): the emission channel's counters
    # must ride the same stats report — 16 frames through the channel —
    # the wait policy must actually take effect, and the removed
    # --chan-backend flag must be refused.
    for counter in chan_sends chan_recvs chan_full_stalls chan_empty_stalls; do
        grep -q "\"name\": *\"$counter\"" stream_stats.json || {
            echo "error: channel counter $counter missing from --stats=json" >&2
            exit 1
        }
    done
    grep -A2 '"name": *"chan_sends"' stream_stats.json \
        | grep -qE '"total": *16'
    grep -q "emission channel (Park)" stream_run.out
    "$OLDPWD/target/release/easypap" --kernel mandel_zoom --stream=16 \
        --threads 2 --farm-width 2 --size 32 --no-display \
        --wait-policy=yield --stats > chan_run.out
    grep -q "16 frames streamed" chan_run.out
    grep -q "emission channel (Yield): 16 sends, 16 recvs" chan_run.out
    if "$OLDPWD/target/release/easypap" --kernel mandel_zoom --stream=16 \
        --size 32 --no-display --chan-backend=mpsc > /dev/null 2>&1; then
        echo "error: --chan-backend was accepted" >&2
        exit 1
    fi
    echo "verify: channel smoke OK (chan counters in stats, policy takes effect)"
)
rm -rf "$stream_dir"

# Serve lane (docs/serving.md): one persistent daemon, a good job via
# the submit client, an over-quota rejection with a retry-after hint,
# per-tenant counters in the stats JSON, and a clean remote stop.
serve_dir="$(mktemp -d)"
(
    cd "$serve_dir"
    port=39473
    "$OLDPWD/target/release/easypap" serve --port "$port" --workers 1 \
        --slots 1 --queue-cap 1 --max-tenants 4 \
        > serve_summary.out 2> serve.log &
    serve_pid=$!
    up=0
    for _ in $(seq 1 100); do
        if "$OLDPWD/target/release/easypap" submit --port "$port" \
            --server-stats > /dev/null 2>&1; then up=1; break; fi
        sleep 0.1
    done
    if [ "$up" != 1 ]; then
        echo "error: easypap serve never came up" >&2
        cat serve.log >&2
        exit 1
    fi

    "$OLDPWD/target/release/easypap" submit --port "$port" --kernel mandel \
        --variant seq -s 64 -i 2 --tenant ci > submit.out
    grep -q "(tenant ci) done: 2 iteration(s)" submit.out
    grep -qE "digest [0-9a-f]{16}" submit.out

    # over-quota: two stalled jobs occupy the single runner slot and the
    # 1-deep admission lane; the third must bounce with a retry hint
    "$OLDPWD/target/release/easypap" submit --port "$port" --kernel mandel \
        --variant seq -s 64 --tenant ci --stall-us 500000 > bg1.out &
    bg1=$!
    sleep 0.2
    "$OLDPWD/target/release/easypap" submit --port "$port" --kernel mandel \
        --variant seq -s 64 --tenant ci --stall-us 500000 > bg2.out &
    bg2=$!
    sleep 0.2
    if "$OLDPWD/target/release/easypap" submit --port "$port" --kernel mandel \
        --variant seq -s 64 --tenant ci 2> reject.err; then
        echo "error: over-quota submit was not rejected" >&2
        exit 1
    fi
    grep -q "rejected" reject.err
    grep -q "retry after" reject.err
    wait "$bg1" "$bg2"

    "$OLDPWD/target/release/easypap" submit --port "$port" --server-stats \
        > stats.json
    if command -v python3 >/dev/null 2>&1; then
        python3 - stats.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
row = next(t for t in doc["tenants"] if t["tenant"] == "ci")
assert row["jobs_admitted"] == 3, row
assert row["jobs_completed"] == 3, row
assert row["jobs_rejected"] >= 1, row
assert row["tenant_queue_depth"] >= 1, row
assert "tenant_idle_ns" in row, row
print(f"verify: serve per-tenant counters OK ({row['jobs_admitted']} admitted, "
      f"{row['jobs_rejected']} rejected for tenant ci)")
EOF
    else
        for key in jobs_admitted jobs_rejected jobs_completed \
                   tenant_queue_depth tenant_idle_ns; do
            grep -q "\"$key\"" stats.json
        done
        echo "verify: serve per-tenant counters OK (grep fallback)"
    fi

    "$OLDPWD/target/release/easypap" submit --port "$port" --stop > stop.out
    grep -q "acknowledged shutdown" stop.out
    wait "$serve_pid"
    grep -q "served 3 job(s) (3 completed, 0 cancelled, 0 failed), 1 rejected" \
        serve_summary.out
    echo "verify: serve smoke OK (job + rejection + stats + remote stop)"
)
rm -rf "$serve_dir"

# Multi-tenant throughput gate: the synthetic replay bench must show
# >= 1.3x the serialized jobs/sec at 4 concurrent tenants — the shared
# worker-pool mux actually overlapping independent jobs. Absolute
# gate (not baseline-relative): the ratio is self-normalizing.
serve_json="$(mktemp)"
EZP_BENCH_SMOKE=1 EZP_BENCH_JSON="$serve_json" \
    cargo bench -q --offline -p ezp-bench --bench serve >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$serve_json" ci/BENCH_serve.json <<'EOF'
import json, sys
cur = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
speedup = cur["speedup_at_4_tenants"]
print(f"verify: bench serve 4-tenant speedup {speedup:.2f}x "
      f"(baseline {base['speedup_at_4_tenants']:.2f}x, gate 1.30x)")
if speedup < 1.3:
    sys.exit("verify: serve bench below the 1.3x multi-tenant gate")
print("verify: serve bench above the 1.3x multi-tenant gate")
EOF
else
    for key in serialized_jobs_per_sec concurrent_jobs_per_sec \
               speedup_at_4_tenants; do
        grep -q "\"$key\"" "$serve_json"
    done
    echo "verify: serve bench JSON OK (grep fallback, no speedup gate)"
fi
rm -f "$serve_json"

echo "verify: OK (offline build + tests green, no registry deps, stats JSON parses)"
