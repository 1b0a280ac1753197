#!/usr/bin/env bash
# Tier-1 verification plus a ThreadSanitizer pass over the runtime layer.
#
#   tools/check.sh            # full: verify + TSan
#   tools/check.sh --fast     # verify only
#
# Every stage runs once: there is one launch scheduler (the stream
# scheduler), and every serial reference is its in-issue-order schedule,
# forced by the testkit. The tier-1 run is every test's run; the later
# stages add only what ctest does not cover (benches, fuzz legs, tool
# smokes).
#
# The SIMD stage repeats tier-1 plus a fuzz smoke under GOTHIC_SIMD=1
# (AVX2 lane kernels) and GOTHIC_SIMD=0 (scalar oracle) — the two warp
# substrates must be bit-identical.
#
# The observability smoke validates the Perfetto trace (zero dropped
# records), the flight-recorder incident dump left by a fault-injected
# fuzz run, and the bench JSON; the telemetry stage validates the
# GOTHIC_TELEMETRY JSONL stream under each warp substrate; the bench_diff
# gate compares the fresh BENCH reports against the archived trajectory
# in bench-results/ (and self-tests with a synthetic slowdown) before
# promoting them.
#
# The fuzz stage drives gothic_fuzz — seeded + exhaustively enumerated
# interleavings of the step DAG checked bit-identical against the
# in-order reference, plus fault-injection plans (launch-body throws,
# worker stalls) checked for first-wins error propagation and device
# reuse. Its scenario legs sweep seeds whose
# bits also select the workload from the scenario registry, so one
# printed seed reproduces ICs + force law + schedule together.
#
# The scenario stage sweeps bench_scenario and validates one golden-schema
# BENCH_scenario_<name>.json per scenario before the bench_diff gate
# promotes them into bench-results/ (the physics-oracle matrix runs in
# tier-1).
#
# The service stage sweeps the gothic_fuzz service leg (seeded pooled
# fault plans asserting session isolation
# + solo bit-identity; the session-pool suites run in tier-1), smokes
# gothic_serve end-to-end with per-session telemetry/trace/checkpoint
# streams, and validates a golden-schema BENCH_service.json through the
# bench_diff gate.
#
# The e2e stage builds the end-to-end benchmark (bench/e2e, its own CMake
# project) against this tree into build/e2e, runs its unit tests, and
# smokes the two-shard workload with its K=2 bit-identity check.
#
# The TSan stage rebuilds test_runtime, test_walk_tree, test_service,
# test_shard, test_testkit and gothic_fuzz in a separate build tree
# (build-tsan/) with GOTHIC_SANITIZE=thread and runs each once,
# exercising the lane leaders' queue handshake, the cross-stream event
# waits, the shared team's admission and fork/join, the per-launch merge
# locks, the fault-injection paths, the serializing grant pump every
# in-order reference goes through, the session pool's handoff between
# device threads and the sharded engine's K devices with their host-side
# cross-device waits under a real data-race detector.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1 verify =="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== observability smoke (trace + flight + bench JSON) =="
# A traced driver step must emit valid Perfetto JSON with zero dropped
# launch records (a non-zero count means the timeline is silently
# truncated), a figure bench must emit a parseable BENCH_*.json, fig09's
# walk must be op- and force-identical on both warp substrates (its exit
# status), and a fault-injected gothic_fuzz run must leave a valid
# flight-recorder incident dump naming the faulted launch.
(cd build &&
  GOTHIC_TRACE=smoke_trace.json \
    ./tools/gothic_run --model=plummer --n=2048 --steps=2 --metrics \
      >/dev/null &&
  python3 -m json.tool smoke_trace.json >/dev/null &&
  python3 -c "
import json
n = json.load(open('smoke_trace.json'))['otherData']['dropped_records']
assert n == 0, 'trace dropped %d launch records' % n" &&
  rm -f smoke_trace.json &&
  GOTHIC_BENCH_N=4096 GOTHIC_BENCH_STEPS=1 \
    GOTHIC_BENCH_DACC_MIN=2 ./bench/bench_fig04_breakdown_macc \
      >/dev/null &&
  python3 -m json.tool BENCH_fig04_breakdown_macc.json >/dev/null &&
  rm -f BENCH_fig04_breakdown_macc.json &&
  GOTHIC_BENCH_N=4096 GOTHIC_BENCH_STEPS=1 \
    GOTHIC_BENCH_DACC_MIN=2 ./bench/bench_fig09_walktree_flops \
      >/dev/null &&
  rm -f BENCH_fig09_walktree_flops.json &&
  rm -f smoke_flight*.json &&
  GOTHIC_FLIGHT=smoke_flight.json \
    ./tools/gothic_fuzz --schedules=0 --enumerate=0 --faults=4 \
      >/dev/null &&
  python3 -c "
import json
d = json.load(open('smoke_flight.json'))['flight_recorder']
assert d['launches'], 'flight dump holds no launches'
assert 'injected fault' in d['reason'], d['reason']" &&
  rm -f smoke_flight*.json)
echo "observability smoke passed"

echo "== telemetry stream (GOTHIC_SIMD) =="
# GOTHIC_TELEMETRY streams one schema-pinned JSONL record per step plus a
# leading config line; every line must parse, the stream must cover
# every step under each warp substrate, and the config line must log the
# two lanes every device runs and no scheduler mode.
for simd in 1 0; do
  echo "-- GOTHIC_SIMD=$simd --"
  (cd build &&
    rm -f smoke_telemetry.jsonl &&
    GOTHIC_SIMD=$simd GOTHIC_TELEMETRY=smoke_telemetry.jsonl \
      ./tools/gothic_run --model=plummer --n=2048 --steps=3 >/dev/null &&
    python3 -c "
import json
lines = [json.loads(l) for l in open('smoke_telemetry.jsonl') if l.strip()]
assert lines and lines[0]['type'] == 'config', 'missing config line'
cfg = lines[0]
assert cfg['lanes'] == 2, 'config lanes %r' % cfg['lanes']
assert 'async' not in cfg, 'config logs a scheduler mode: %r' % cfg
steps = [l for l in lines if l['type'] == 'step']
assert len(steps) == 3, 'expected 3 step records, got %d' % len(steps)
for s in steps:
    assert 'kernels' in s and 'wall_seconds' in s, sorted(s)" &&
    rm -f smoke_telemetry.jsonl)
done
echo "telemetry stage passed"

echo "== bench smoke: load balancing =="
# bench_balance runs the walk's work queue at a small N over four activity
# fractions, asserts accelerations, potentials and op counts bit-identical
# to a 1-worker run, and must emit a BENCH_balance.json that
# passes both a raw JSON parse and the golden-schema test. 4 workers so
# the imbalance ratio is meaningful on single-core CI runners. Fresh
# reports land in bench-fresh/ (kept on failure as evidence); the
# bench_diff gate below compares them against the archived trajectory in
# bench-results/ and promotes them into it.
rm -rf bench-fresh
mkdir -p bench-fresh
(cd build &&
  GOTHIC_THREADS=4 GOTHIC_BENCH_N=4096 \
    GOTHIC_BENCH_STEPS=2 ./bench/bench_balance >/dev/null &&
  python3 -m json.tool BENCH_balance.json >/dev/null &&
  GOTHIC_BENCH_VALIDATE_JSON=BENCH_balance.json ./tests/test_bench_support \
    --gtest_filter='ExternalReport.*' >/dev/null &&
  mv BENCH_balance.json ../bench-fresh/BENCH_balance.json)
echo "bench smoke passed"

echo "== SIMD substrate: scalar vs AVX2 lane kernels =="
# GOTHIC_SIMD selects the warp substrate at runtime: 1 = the AVX2 lane
# kernels (when compiled in and the CPU reports AVX2), 0 = the scalar
# oracle. Results and op counts are bit-identical by contract (DESIGN.md,
# "SIMD substrate"), so the whole tier-1 suite plus a fuzz smoke run
# under both settings; on a host without AVX2 the =1 leg degrades to the
# scalar path and the stage still passes.
for simd in 1 0; do
  echo "-- GOTHIC_SIMD=$simd --"
  (cd build && GOTHIC_SIMD=$simd ctest --output-on-failure -j)
  GOTHIC_SIMD=$simd ./build/tools/gothic_fuzz --schedules=16 --faults=4
done
echo "SIMD stage passed"

echo "== schedule fuzz + fault injection =="
# Seeded sweep (64 schedules), DFS enumeration, and 8 fault plans; every
# failing seed prints a gothic_fuzz --replay line.
./build/tools/gothic_fuzz --schedules=64 --enumerate=64 --faults=8 \
  --scenarios=6
echo "fuzz stage passed"

echo "== shard stage: K-shard bit-identity + LET traffic =="
# The sharded pipeline's oracle beyond its tier-1 suites (ctest -L shard),
# two ways: bench_shard re-runs the oracle on the M31 workload and must
# emit a golden-schema BENCH_shard.json reporting busy-time imbalance and
# LET traffic; the sharded fuzz legs drive seeded per-shard-device
# schedules plus launch faults injected into one shard (one shard's
# failure must not poison the other shards' devices).
(cd build &&
  GOTHIC_THREADS=4 GOTHIC_BENCH_N=4096 \
    GOTHIC_BENCH_STEPS=8 ./bench/bench_shard >/dev/null &&
  python3 -m json.tool BENCH_shard.json >/dev/null &&
  GOTHIC_BENCH_VALIDATE_JSON=BENCH_shard.json ./tests/test_bench_support \
    --gtest_filter='ExternalReport.*' >/dev/null &&
  mv BENCH_shard.json ../bench-fresh/BENCH_shard.json)
./build/tools/gothic_fuzz --schedules=0 --faults=0 --shards=16 \
  --shard-faults=6
# gothic_run reads GOTHIC_SHARDS as strictly as the telemetry config line
# does: a malformed value warns and runs one shard, and a shard count
# beyond INT_MAX is an error rather than a silent wrap to one shard.
out=$(GOTHIC_SHARDS=4x ./build/tools/gothic_run --model=plummer --n=512 \
  --steps=1 2>&1)
if grep -q "sharded pipeline" <<<"$out"; then
  echo "gothic_run ran sharded under GOTHIC_SHARDS=4x" >&2
  exit 1
fi
if err=$(./build/tools/gothic_run --model=plummer --n=512 --steps=1 \
    --shards=4294967297 2>&1 >/dev/null); then
  echo "gothic_run accepted --shards=4294967297" >&2
  exit 1
fi
grep -q -- "--shards must be <=" <<<"$err"
# gothic_fuzz rejects out-of-range values the same way: a negative count
# or a worker count outside [1, Device::kMaxWorkers] exits 2 with a
# message naming the flag, before any device is built.
for bad in --schedules=-1 --workers=0; do
  status=0
  err=$(./build/tools/gothic_fuzz "$bad" 2>&1 >/dev/null) || status=$?
  if [[ $status -ne 2 ]]; then
    echo "gothic_fuzz $bad exited $status, not 2" >&2
    exit 1
  fi
  grep -q -- "$bad is out of range" <<<"$err"
done
echo "shard stage passed"

echo "== scenario stage: bench_scenario =="
# bench_scenario sweeps the registry and must emit one golden-schema
# BENCH_scenario_<name>.json per scenario — each validated by a raw JSON
# parse plus the ExternalReport schema test and handed to the bench_diff
# gate below (the scale fingerprint carries scenario name + force law, so
# the gate refuses cross-scenario comparisons).
(cd build &&
  rm -f BENCH_scenario_*.json &&
  GOTHIC_THREADS=4 GOTHIC_BENCH_N=2048 GOTHIC_BENCH_STEPS=8 \
    ./bench/bench_scenario >/dev/null)
for f in build/BENCH_scenario_*.json; do
  python3 -m json.tool "$f" >/dev/null
  (cd build && GOTHIC_BENCH_VALIDATE_JSON="$(basename "$f")" \
    ./tests/test_bench_support --gtest_filter='ExternalReport.*' >/dev/null)
  mv "$f" "bench-fresh/$(basename "$f")"
done
echo "scenario stage passed"

echo "== service stage: session pool =="
# The multi-tenant session layer beyond its tier-1 suites (ctest -L
# service): the gothic_fuzz service leg sweeps seeded pooled fault plans;
# gothic_serve drives a
# GOTHIC_SESSIONS-sized registry-cycled batch end-to-end with per-session
# telemetry / trace / checkpoint streams plus the oracle; and
# bench_service must emit a golden-schema BENCH_service.json for the
# bench_diff gate.
./build/tools/gothic_fuzz --schedules=0 --faults=0 --service=6 --n=128 \
  --steps=3
(cd build &&
  rm -rf smoke_serve && mkdir -p smoke_serve &&
  GOTHIC_SESSIONS=6 ./tools/gothic_serve --devices=2 --steps=3 --n=256 \
    --oracle --metrics --telemetry-dir=smoke_serve --trace-dir=smoke_serve \
    --snapshot-every=2 --snapshot-dir=smoke_serve >/dev/null &&
  python3 -c "
import json
lines = [json.loads(l) for l in open('smoke_serve/s0.jsonl') if l.strip()]
assert lines and lines[0]['type'] == 'config', 'missing config line'
steps = [l for l in lines if l['type'] == 'step']
assert len(steps) == 3, 'expected 3 step records, got %d' % len(steps)
json.load(open('smoke_serve/s0.trace.json'))" &&
  test -s smoke_serve/s0.bin &&
  rm -rf smoke_serve)
(cd build &&
  GOTHIC_THREADS=2 GOTHIC_BENCH_N=8192 GOTHIC_BENCH_STEPS=2 \
    ./bench/bench_service >/dev/null &&
  python3 -m json.tool BENCH_service.json >/dev/null &&
  GOTHIC_BENCH_VALIDATE_JSON=BENCH_service.json ./tests/test_bench_support \
    --gtest_filter='ExternalReport.*' >/dev/null &&
  mv BENCH_service.json ../bench-fresh/BENCH_service.json)
echo "service stage passed"

echo "== e2e benchmark: build + smoke against this tree =="
# bench/e2e is its own CMake project, so the tier-1 build never compiles
# it. Build it against this tree, run its unit tests, and smoke the K=2
# workload, whose shard_identity check compares nbody::Simulation with
# K=2 bit for bit.
cmake -S bench/e2e -B build/e2e -DGOTHIC_SOURCE_DIR="$PWD" >/dev/null
cmake --build build/e2e -j --target gothic_e2e e2e_tests
(cd build/e2e && ctest --output-on-failure)
./build/e2e/gothic_e2e --workload=m31-shared-k2 --seed=1 --seconds=0 \
  >/dev/null
echo "e2e stage passed"

echo "== perf-regression gate: bench_diff over the BENCH trajectory =="
# Gate the fresh reports against the archived trajectory in
# bench-results/, then promote them as its newest point
# (--update-baseline refuses the promotion over a regression). Smoke runs
# at N=4096 are noisy, so the CI gate is deliberately loose: more than 4x
# slower AND > 50 ms absolute. The first run on a clean tree simply seeds
# bench-results/.
./build/tools/bench_diff --baseline=bench-results --candidate=bench-fresh \
  --threshold=3.0 --abs-floor=0.05 --json=build/bench_diff.json \
  --update-baseline
python3 -m json.tool build/bench_diff.json >/dev/null

# Negative self-test: a synthetic 100x slowdown injected into one fresh
# report must trip the same gate.
rm -rf build/bench-slow
mkdir -p build/bench-slow
python3 -c "
import glob, json
src = sorted(glob.glob('bench-fresh/BENCH_*.json'))[0]
doc = json.load(open(src))
slowed = 0
for t in doc.get('tables', []):
    headers = [h.lower() for h in t['headers']]
    cols = [i for i, h in enumerate(headers)
            if 'second' in h or 'elapsed' in h or 'time' in h or '[s]' in h]
    for row in t['rows']:
        for c in cols:
            try:
                row[c] = repr(float(row[c]) * 100.0)
                slowed += 1
            except ValueError:
                pass
for p in doc.get('profiles', []):
    for key in ('kernel_seconds', 'wall_seconds'):
        if key in p.get('measured', {}):
            p['measured'][key] *= 100.0
            slowed += 1
assert slowed > 0, 'no timing surface found to slow down in ' + src
json.dump(doc, open('build/bench-slow/' + src.split('/')[-1], 'w'))"
if ./build/tools/bench_diff --baseline=bench-results \
    --candidate=build/bench-slow --threshold=3.0 --abs-floor=0.05 \
    >/dev/null; then
  echo "bench_diff failed to flag a synthetic 100x slowdown" >&2
  exit 1
fi
rm -rf build/bench-slow bench-fresh
echo "bench_diff gate passed"

if [[ "${1:-}" == "--fast" ]]; then
  exit 0
fi

echo "== TSan: runtime + walk_tree + service + shard + testkit + fuzz =="
cmake -B build-tsan -S . -DGOTHIC_SANITIZE=thread \
      -DGOTHIC_BUILD_BENCH=OFF >/dev/null
cmake --build build-tsan -j --target test_runtime test_walk_tree \
      test_service test_shard test_testkit gothic_fuzz
(cd build-tsan &&
  ./tests/test_runtime &&
  ./tests/test_walk_tree &&
  ./tests/test_service &&
  ./tests/test_shard &&
  ./tests/test_testkit &&
  ./tools/gothic_fuzz --schedules=8 --faults=8 --steps=4 --service=4 \
    --n=128)

echo "check.sh: all stages passed"
