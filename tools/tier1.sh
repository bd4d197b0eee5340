#!/usr/bin/env sh
# Tier-1 verification: configure, build, run the full test suite.
#
#   tools/tier1.sh          build + ctest (the ROADMAP tier-1 command), then
#                           the perfbench and CLI smokes
#   tools/tier1.sh --tsan   additionally build every target under
#                           -fsanitize=thread and run the enactor-labelled
#                           tests (ThreadedBackend races surface here)
#   tools/tier1.sh --asan   additionally rebuild everything under
#                           -fsanitize=address,undefined (undefined
#                           behaviour fatal) and run the whole suite
set -eu

cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
# One compiler per core: every compile at once can exhaust memory on a cold
# tree.
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j)

# Benchmark smoke: perfbench compiles against src/ and runs every workload on
# a tiny load, so a change that breaks an API it uses fails here.
echo "== perfbench smoke: every workload on a tiny load =="
if command -v python3 >/dev/null 2>&1; then
  python3 perfbench/smoke_test.py
else
  echo "python3 unavailable; skipping the perfbench smoke"
fi

# Observability smoke: a Bronze-Standard run must produce a parseable Chrome
# trace and a metrics snapshot carrying the core series.
echo "== obs smoke: --trace-out / --metrics-out on the Bronze Standard =="
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --trace-out "$obs_dir/trace.json" --metrics-out "$obs_dir/metrics.prom" \
  --obs-summary >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$obs_dir/trace.json" >/dev/null
else
  echo "python3 unavailable; skipping trace JSON validation"
fi
for metric in moteur_submissions_total moteur_invocations_total \
              moteur_ce_latency_seconds_bucket moteur_makespan_seconds; do
  grep -q "^$metric" "$obs_dir/metrics.prom" || {
    echo "missing metric '$metric' in metrics snapshot" >&2
    exit 1
  }
done
grep -q '"cat":"attempt"' "$obs_dir/trace.json" || {
  echo "trace JSON carries no attempt spans" >&2
  exit 1
}
echo "obs smoke OK"

# Fault-containment smoke: a Bronze-Standard run with injected failures under
# --failure-policy continue must exit 0 with partial results, a parseable
# failure report, and skip counts that agree with the timeline CSV.
echo "== fault-containment smoke: partial-result run on the Bronze Standard =="
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --inject-failures 0.35 --grid-attempts 1 --retries 2 \
  --failure-policy continue \
  --breaker-window 6 --breaker-threshold 3 --breaker-cooldown 3600 \
  --failure-report "$obs_dir/failures.json" --csv "$obs_dir/timeline.csv" \
  >/dev/null || {
  echo "partial-result run exited nonzero under --failure-policy continue" >&2
  exit 1
}
if command -v python3 >/dev/null 2>&1; then
  python3 - "$obs_dir/failures.json" "$obs_dir/timeline.csv" <<'EOF'
import csv, json, sys
report = json.load(open(sys.argv[1]))
rows = list(csv.DictReader(open(sys.argv[2])))
skipped_rows = sum(1 for r in rows if r["skipped"] == "1")
assert len(report["skipped"]) == skipped_rows, (
    f'report says {len(report["skipped"])} skipped, CSV has {skipped_rows}')
assert all(r["status"] for r in rows), "empty status cell in timeline CSV"
EOF
else
  echo "python3 unavailable; skipping failure-report validation"
fi
echo "fault-containment smoke OK"

# Multi-tenant smoke: two interleaved Bronze runs on one shared grid through
# the RunService must both finish, write per-run timeline CSVs and failure
# reports, and keep their failure accounting separate.
echo "== multi-tenant smoke: --runs 2 on the Bronze Standard =="
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --runs 2 --max-active 2 --max-inflight 16 \
  --inject-failures 0.2 --grid-attempts 1 --retries 2 \
  --failure-policy continue \
  --failure-report "$obs_dir/mt_failures.json" --csv "$obs_dir/mt_timeline.csv" \
  >/dev/null || {
  echo "multi-run enactment exited nonzero" >&2
  exit 1
}
for k in 1 2; do
  for f in "$obs_dir/mt_failures.run$k.json" "$obs_dir/mt_timeline.run$k.csv"; do
    [ -s "$f" ] || { echo "missing per-run output '$f'" >&2; exit 1; }
  done
done
if command -v python3 >/dev/null 2>&1; then
  python3 - "$obs_dir" <<'EOF'
import csv, json, sys
base = sys.argv[1]
for k in (1, 2):
    json.load(open(f"{base}/mt_failures.run{k}.json"))  # parseable
    rows = list(csv.DictReader(open(f"{base}/mt_timeline.run{k}.csv")))
    assert rows, f"run {k}: empty timeline CSV"
    assert all(r["status"] for r in rows), f"run {k}: empty status cell"
EOF
else
  echo "python3 unavailable; skipping per-run output validation"
fi
echo "multi-tenant smoke OK"

# Data-plane smoke: the same Bronze run enacted twice back-to-back through the
# RunService with the invocation cache on. The second run must be served from
# the cache (hits > 0, fewer grid submissions) and still reconstruct exactly
# the same provenance as the first.
echo "== data-plane smoke: warm-cache rerun with --cache =="
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --runs 2 --max-active 1 --cache \
  --provenance "$obs_dir/cache_prov.xml" \
  --cache-stats-out "$obs_dir/cache_stats.json" \
  --metrics-out "$obs_dir/cache_metrics.prom" >/dev/null || {
  echo "warm-cache rerun exited nonzero" >&2
  exit 1
}
cmp -s "$obs_dir/cache_prov.run1.xml" "$obs_dir/cache_prov.run2.xml" || {
  echo "cached rerun reconstructed different provenance than the first run" >&2
  exit 1
}
if command -v python3 >/dev/null 2>&1; then
  python3 - "$obs_dir/cache_stats.json" "$obs_dir/cache_metrics.prom" <<'EOF'
import json, re, sys
stats = json.load(open(sys.argv[1]))
runs = stats["runs"]
first = next(r for r in runs if r.endswith("-1"))
second = next(r for r in runs if r.endswith("-2"))
assert runs[second]["hits"] > 0, "second run had no cache hits"
assert runs[first]["hits"] == 0, "first run on a cold cache reported hits"
series = {}
for line in open(sys.argv[2]):
    m = re.match(r'moteur_run_submissions_total\{run="([^"]+)"\} (\d+)', line)
    if m:
        series[m.group(1)] = int(m.group(2))
assert series[second] < series[first], (
    f"cached rerun submitted {series[second]} jobs vs {series[first]} cold")
EOF
else
  echo "python3 unavailable; skipping cache-stats validation"
fi
echo "data-plane smoke OK"

# Storage-fault smoke: the Bronze Standard under SE faults. The zero-fault
# path must be byte-identical with recovery on and off (the machinery is
# reachable only under storage fault injection); a run through replica loss
# plus a mid-run se0 outage must exit 0 with recovery reconstructing exactly
# the zero-fault sink provenance; the recovery-off baseline must still exit 0
# under --failure-policy continue but list the unrecoverable files in the
# machine-readable failure report; malformed storage flags must be rejected.
echo "== storage-fault smoke: SE outage + replica loss on the Bronze Standard =="
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --provenance "$obs_dir/sf_clean.xml" --csv "$obs_dir/sf_clean.csv" >/dev/null
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --no-recovery \
  --provenance "$obs_dir/sf_clean_off.xml" --csv "$obs_dir/sf_clean_off.csv" \
  >/dev/null
cmp -s "$obs_dir/sf_clean.xml" "$obs_dir/sf_clean_off.xml" || {
  echo "zero-fault provenance changed when recovery was disabled" >&2
  exit 1
}
cmp -s "$obs_dir/sf_clean.csv" "$obs_dir/sf_clean_off.csv" || {
  echo "zero-fault timeline CSV changed when recovery was disabled" >&2
  exit 1
}
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --se-loss 0.1 --se-outage se0:2000:1500 \
  --provenance "$obs_dir/sf_faulty.xml" >/dev/null || {
  echo "faulty run exited nonzero despite lineage recovery" >&2
  exit 1
}
cmp -s "$obs_dir/sf_clean.xml" "$obs_dir/sf_faulty.xml" || {
  echo "recovery reconstructed different sink provenance than the clean run" >&2
  exit 1
}
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --se-loss 0.1 --se-outage se0:2000:1500 --no-recovery \
  --failure-policy continue \
  --failure-report "$obs_dir/sf_failures.json" >/dev/null || {
  echo "recovery-off run exited nonzero under --failure-policy continue" >&2
  exit 1
}
grep -q '"files":\["lfn://' "$obs_dir/sf_failures.json" || {
  echo "recovery-off failure report names no lost files" >&2
  exit 1
}
if command -v python3 >/dev/null 2>&1; then
  python3 - "$obs_dir/sf_failures.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
lost = [t for t in report["lost"] if t["status"] == "DataLost"]
assert lost, "no DataLost tuples in the recovery-off failure report"
assert all(t["files"] for t in lost), "DataLost tuple without its lost files"
EOF
else
  echo "python3 unavailable; skipping failure-report JSON validation"
fi
if build/tools/moteur_cli run \
    --manifest examples/data/bronze_run.xml \
    --services examples/data/bronze_services.xml \
    --se-loss 1.5 >/dev/null 2>&1; then
  echo "--se-loss 1.5 (not a probability) was accepted" >&2
  exit 1
fi
echo "storage-fault smoke OK"

# Live-telemetry smoke: two Bronze runs through the RunService with the hub
# on. The frame stream must be valid JSONL with first+final frames, the
# scrape endpoint must answer Prometheus text while the CLI lingers, and the
# per-run critical-path phases must sum to the exported run makespan within
# 5% (they partition it exactly; the tolerance absorbs float formatting).
echo "== telemetry smoke: frames + scrape + critical path on the Bronze Standard =="
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --runs 2 --max-active 2 \
  --telemetry-out "$obs_dir/frames.jsonl" --telemetry-port 0 \
  --telemetry-interval 0.2 --telemetry-linger 4 \
  --flight-recorder "$obs_dir/fr_" \
  --critical-path "$obs_dir/cp.json" --metrics-out "$obs_dir/telemetry.prom" \
  > "$obs_dir/telemetry_out.txt" 2>&1 &
telemetry_pid=$!
telemetry_port=""
i=0
while [ $i -lt 100 ]; do
  telemetry_port=$(sed -n 's#.*http://127\.0\.0\.1:\([0-9]*\)/metrics.*#\1#p' \
    "$obs_dir/telemetry_out.txt" 2>/dev/null | head -n 1)
  [ -n "$telemetry_port" ] && break
  sleep 0.1
  i=$((i + 1))
done
[ -n "$telemetry_port" ] || {
  echo "telemetry scrape port never printed" >&2
  cat "$obs_dir/telemetry_out.txt" >&2
  exit 1
}
if command -v python3 >/dev/null 2>&1; then
  python3 - "$telemetry_port" <<'EOF'
import sys, urllib.request
body = urllib.request.urlopen(
    f"http://127.0.0.1:{sys.argv[1]}/metrics", timeout=5).read().decode()
assert "moteur_invocations_total" in body, "scrape body misses core series"
EOF
else
  echo "python3 unavailable; skipping live scrape"
fi
wait "$telemetry_pid" || {
  echo "telemetry-enabled run exited nonzero" >&2
  cat "$obs_dir/telemetry_out.txt" >&2
  exit 1
}
if command -v python3 >/dev/null 2>&1; then
  python3 - "$obs_dir" <<'EOF'
import json, re, sys
base = sys.argv[1]
frames = [json.loads(l) for l in open(f"{base}/frames.jsonl") if l.strip()]
assert len(frames) >= 2, f"expected first+final frames, got {len(frames)}"
assert frames[0]["seq"] == 0
for frame in frames:
    assert {"ts", "seq", "interval_seconds", "metrics", "shards"} <= frame.keys()
assert frames[-1]["shards"][0]["runs"] == 2, "final frame misses retired runs"
makespans = {}
for line in open(f"{base}/telemetry.prom"):
    m = re.match(r'moteur_run_makespan_seconds\{run="([^"]+)"\} ([0-9.e+-]+)', line)
    if m:
        makespans[m.group(1)] = float(m.group(2))
assert len(makespans) == 2, f"expected 2 run makespans, got {makespans}"
for k in (1, 2):
    report = json.load(open(f"{base}/cp.run{k}.json"))
    phases = sum(report["phases"].values())
    makespan = makespans[report["run_id"]]
    assert abs(phases - makespan) <= 0.05 * makespan, (
        f'{report["run_id"]}: critical-path phases sum to {phases}, '
        f"measured makespan {makespan}")
EOF
else
  echo "python3 unavailable; skipping telemetry frame/critical-path validation"
fi
echo "telemetry smoke OK"

# Scale smoke: a small sharded bench_scale sweep must exit 0 (the bench
# cross-checks itself: per-shard counters summing to the handle-reported
# totals is part of its exit status) and the JSON it writes must agree.
echo "== scale smoke: sharded enactment on bench_scale =="
build/bench/bench_scale --runs 40 --items 4 --stages 2 --threads 2 \
  --shards 1,2 --out "$obs_dir/scale.json" >/dev/null || {
  echo "bench_scale smoke exited nonzero (counter mismatch or stuck run)" >&2
  exit 1
}
if command -v python3 >/dev/null 2>&1; then
  python3 - "$obs_dir/scale.json" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
for s in bench["scenarios"]:
    per_shard = sum(d["invocations"] for d in s["shards_detail"])
    assert per_shard == s["invocations"], (
        f'{s["shards"]} shards: shard counters sum to {per_shard}, '
        f'handles report {s["invocations"]}')
    assert sum(d["runs"] for d in s["shards_detail"]) == bench["config"]["runs"]
EOF
else
  echo "python3 unavailable; skipping scale JSON validation"
fi
echo "scale smoke OK"

# Policy smoke: every built-in matchmaking policy must enact the Bronze
# Standard cleanly; the default queue-rank timeline must stay byte-identical
# to the pre-policy-engine golden; the randomized k-choices policy must be
# seed-stable; the decision counters must land in the metrics snapshot; and
# unknown policy names must be rejected before the grid is built.
echo "== policy smoke: pluggable matchmaking on the Bronze Standard =="
for policy in queue-rank data-gravity locality-first k-choices; do
  build/tools/moteur_cli run \
    --manifest examples/data/bronze_run.xml \
    --services examples/data/bronze_services.xml \
    --matchmaking "$policy" --csv "$obs_dir/pol_$policy.csv" >/dev/null || {
    echo "matchmaking policy '$policy' failed to enact the Bronze Standard" >&2
    exit 1
  }
done
cmp -s tests/golden/bronze_timeline.csv "$obs_dir/pol_queue-rank.csv" || {
  echo "queue-rank timeline diverged from the pre-policy-engine golden" >&2
  exit 1
}
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --matchmaking k-choices --csv "$obs_dir/pol_k2.csv" >/dev/null
cmp -s "$obs_dir/pol_k-choices.csv" "$obs_dir/pol_k2.csv" || {
  echo "k-choices produced different timelines across same-seed runs" >&2
  exit 1
}
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --matchmaking data-gravity --admission-policy round-robin --runs 2 \
  --metrics-out "$obs_dir/pol_metrics.prom" >/dev/null
for kind in matchmaking admission; do
  grep -q "^moteur_policy_decisions_total{.*kind=\"$kind\"" \
      "$obs_dir/pol_metrics.prom" || {
    echo "metrics snapshot misses moteur_policy_decisions_total kind=$kind" >&2
    exit 1
  }
done
if build/tools/moteur_cli run \
    --manifest examples/data/bronze_run.xml \
    --services examples/data/bronze_services.xml \
    --matchmaking no-such-policy >/dev/null 2>&1; then
  echo "--matchmaking no-such-policy was accepted" >&2
  exit 1
fi
echo "policy smoke OK"

# Decentralized smoke: `--replication-policy none` must stay byte-identical
# to the centralized golden; a finite orchestrator link must report its UI
# traffic; the proxy-routed policy must move strictly fewer bytes through
# the orchestrator (it leaves the UI counter at zero, i.e. absent); and
# unknown replication policy names must be rejected up front.
echo "== decentralized smoke: proxy-routed SE->SE vs centralized staging =="
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --replication-policy none --csv "$obs_dir/dec_none.csv" >/dev/null
cmp -s tests/golden/bronze_timeline.csv "$obs_dir/dec_none.csv" || {
  echo "--replication-policy none diverged from the centralized golden" >&2
  exit 1
}
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --orchestrator-bw 5 --metrics-out "$obs_dir/dec_central.prom" >/dev/null
central_ui=$(awk '/^moteur_ui_bytes_total/ {print $2}' "$obs_dir/dec_central.prom")
if ! awk -v v="${central_ui:-0}" 'BEGIN {exit !(v + 0 > 0)}'; then
  echo "centralized run on a finite link reported no moteur_ui_bytes_total" >&2
  exit 1
fi
build/tools/moteur_cli run \
  --manifest examples/data/bronze_run.xml \
  --services examples/data/bronze_services.xml \
  --replication-policy push-to-consumer --orchestrator-bw 5 \
  --metrics-out "$obs_dir/dec_peer.prom" >/dev/null
peer_ui=$(awk '/^moteur_ui_bytes_total/ {print $2}' "$obs_dir/dec_peer.prom")
if ! awk -v c="$central_ui" -v p="${peer_ui:-0}" 'BEGIN {exit !(p + 0 < c + 0)}'; then
  echo "proxy-routed run did not move fewer bytes through the orchestrator" \
       "(central $central_ui MB vs peer ${peer_ui:-0} MB)" >&2
  exit 1
fi
if build/tools/moteur_cli run \
    --manifest examples/data/bronze_run.xml \
    --services examples/data/bronze_services.xml \
    --replication-policy gossip >/dev/null 2>&1; then
  echo "--replication-policy gossip was accepted" >&2
  exit 1
fi
echo "decentralized smoke OK"

if [ "${1:-}" = "--tsan" ]; then
  echo "== TSan stage: enactor/retry/run-service tests under -fsanitize=thread =="
  cmake -B build-tsan -S . -DMOTEUR_TSAN=ON >/dev/null
  # Every target, so no hand-kept list has to track the enactor label.
  cmake --build build-tsan -j "$(nproc)"
  (cd build-tsan && ctest --output-on-failure -L enactor)
  echo "== TSan multi-tenant smoke: concurrent runs through the RunService =="
  build-tsan/tools/moteur_cli run \
    --manifest examples/data/bronze_run.xml \
    --services examples/data/bronze_services.xml \
    --runs 2 --max-active 2 --max-inflight 16 >/dev/null
  echo "TSan multi-tenant smoke OK"
fi

if [ "${1:-}" = "--asan" ]; then
  echo "== ASan stage: the whole suite under -fsanitize=address,undefined =="
  cmake -B build-asan -S . -DMOTEUR_ASAN=ON >/dev/null
  # One compiler per core: sanitized compiles of every target at once can
  # exhaust memory.
  cmake --build build-asan -j "$(nproc)"
  (cd build-asan && ctest --output-on-failure -j)
fi
