#!/usr/bin/env bash
# Tier-1 verification plus AddressSanitizer and ThreadSanitizer passes.
#
#   tools/check.sh            # full: verify + scalar-only + ASan/UBSan + TSan
#   tools/check.sh --fast     # verify only
#
# Every stage runs once: there is one launch scheduler (the stream
# scheduler), and every serial reference is its in-issue-order schedule,
# forced by the testkit. The tier-1 run (GOTHIC_SIMD=1) is every test's
# run; the later stages add only what ctest does not cover (benches, fuzz
# legs, tool smokes) and the suite's one rerun on the other warp
# substrate.
#
# The lane-code check fails when a file under src/gravity/ names an x86
# intrinsic or vector type: the walk's lane kernels are written once over
# the packs of simt/simd.hpp, and such a name is a second, pack-specific
# copy.
#
# The SIMD stage runs tier-1 again under GOTHIC_SIMD=0 (the 1-wide pack)
# and a fuzz smoke under GOTHIC_SIMD=1 (the 8-wide AVX2 pack) and =0 —
# the two warp substrates must be bit-identical.
#
# The observability smoke validates gothic_run's one per-kernel table,
# the Perfetto trace (zero dropped records), the flight-recorder incident
# dump left by a fault-injected fuzz run, and the bench JSON; the
# telemetry stage validates the GOTHIC_TELEMETRY JSONL stream under each
# warp substrate; the bench_diff gate compares the fresh BENCH reports
# against the archived trajectory in bench-results/ (and self-tests with
# a synthetic slowdown) before promoting them.
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
# The scalar-only stage configures the tree without the 8-wide pack and
# without the benches (-DGOTHIC_SIMD=OFF -DGOTHIC_BUILD_BENCH=OFF,
# warnings as errors) into build-scalar/, builds the default target and
# runs test_walk_tree, test_warp_properties (the rinv accuracy test),
# test_shard (the LET's 1-wide mac_accept) and test_quadrupole (the
# quadrupole push): the 1-wide pack then compiles without -mavx2 -mfma,
# so std::fmaf is a library call and rsqrtss comes from the SSE header
# alone.
#
# The ASan stage builds test_trace, test_testkit and test_walk_tree in
# build-asan/ with GOTHIC_SANITIZE=address plus UBSan and runs them: the
# first two's counting allocators replace every form of the global
# operator new/delete, and the walk's vector loads and stores (the spill
# copy, the MAC sweep's sibling-run loads) must stay inside their spans.
#
# The TSan stage rebuilds test_barrier, test_runtime, test_octree,
# test_walk_groups, test_walk_tree, test_service, test_shard, test_testkit
# and gothic_fuzz in a separate build tree (build-tsan/) with
# GOTHIC_SANITIZE=thread and runs each once, exercising the Appendix A
# grid barriers (the lock-free one with its abort and reset), the lane
# leaders' queue handshake, the cross-stream event waits, the shared
# team's admission and fork/join, the cooperative collectives whose
# phases sync on the team's lock-free barrier (calcNode's level sweep,
# the radix sort's passes, a body that throws mid-phase), the tree
# phase's other collectives (bounding-cube reduction, level-by-level
# linking, walk-group compaction), the per-launch merge locks, the
# fault-injection paths, the serializing grant pump every in-order
# reference goes through, the session pool's handoff between device
# threads and the sharded engine's K devices with their host-side
# cross-device waits under a real data-race detector.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lane code in one place: no x86 intrinsics under src/gravity =="
if grep -rnE '_mm|__m256' src/gravity/; then
  echo "src/gravity/ names x86 intrinsics or vector types;" \
    "lane code belongs in simt/simd.hpp" >&2
  exit 1
fi

echo "== tier-1 verify =="
# Warnings are errors here, so a new one fails the check.
cmake -B build -S . -DGOTHIC_WERROR=ON >/dev/null
cmake --build build -j
(cd build && GOTHIC_SIMD=1 ctest --output-on-failure -j)

echo "== observability smoke (trace + flight + bench JSON) =="
# A traced gothic_run must print exactly one per-kernel table, counting
# every walkTree launch (the bootstrap, two energy refreshes and one per
# step), with a busy-worker gauge no larger than the arena's worker
# count, and emit valid Perfetto JSON with zero dropped launch records (a
# non-zero count means the timeline is silently truncated); a figure
# bench must emit a parseable BENCH_*.json, fig09's walk must be op- and
# force-identical on both warp substrates (its exit status), and a
# fault-injected gothic_fuzz run must leave a valid flight-recorder
# incident dump naming the faulted launch.
(cd build &&
  out=$(GOTHIC_TRACE=smoke_trace.json \
    ./tools/gothic_run --model=plummer --n=2048 --steps=2) &&
  python3 -c "
import sys
lines = sys.argv[1].splitlines()
tables = [l for l in lines if l.startswith('## ')]
assert tables == ['## per-kernel launch metrics'], tables
walk = [l.split('|')[2] for l in lines if l.startswith('| walkTree ')]
assert walk and int(walk[0]) == 2 + 3, 'walkTree launches %r' % walk
arena = [int(l.split()[2]) for l in lines if l.startswith('arena gauges:')]
busy = [int(l.split()[3]) for l in lines
        if l.startswith('worker busy time:')]
assert arena and busy and busy[0] <= arena[0], \
    'busy workers %r exceed arena workers %r' % (busy, arena)" \
    "$out" &&
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
# two lanes every device runs and no scheduler mode. A two-shard run's
# config line must log what ran, not the environment: shards 2 and the
# worker count the metrics footer reports for its devices.
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
(cd build &&
  rm -f smoke_telemetry.jsonl &&
  out=$(./tools/gothic_run --model=plummer --n=2048 --steps=2 --shards=2 \
    --telemetry=smoke_telemetry.jsonl) &&
  workers=$(sed -n 's/^arena gauges: \([0-9]*\) workers.*/\1/p' <<<"$out") &&
  python3 -c "
import json, sys
cfg = json.loads(open('smoke_telemetry.jsonl').readline())
assert cfg['type'] == 'config', cfg
assert cfg['shards'] == 2, 'config shards %r, ran 2' % cfg['shards']
assert cfg['threads'] == int(sys.argv[1]), \
    'config threads %r, ran %s' % (cfg['threads'], sys.argv[1])" "$workers" &&
  rm -f smoke_telemetry.jsonl)
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

echo "== SIMD substrate: the 1-wide vs the 8-wide pack =="
# GOTHIC_SIMD selects the lane pack at runtime: 1 = the 8-wide AVX2 pack
# (an AVX2 build, which needs an AVX2 and FMA host), 0 = the 1-wide pack.
# Results and op counts are bit-identical by contract (DESIGN.md, "SIMD
# substrate"), so the whole tier-1 suite runs under both settings (=1 is
# the tier-1 run above, =0 here) and a fuzz smoke under each.
(cd build && GOTHIC_SIMD=0 ctest --output-on-failure -j)
for simd in 1 0; do
  echo "-- GOTHIC_SIMD=$simd --"
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
# gothic_run rejects out-of-range flag values before it builds anything:
# a negative step or particle count, and a shard count beyond INT_MAX
# (an error rather than a silent wrap), exit 2 with a message naming the
# flag.
for bad in --steps=-2 --n=-5 --shards=4294967297; do
  status=0
  err=$(./build/tools/gothic_run --model=plummer --n=512 --steps=1 "$bad" \
    2>&1 >/dev/null) || status=$?
  if [[ $status -ne 2 ]]; then
    echo "gothic_run $bad exited $status, not 2" >&2
    exit 1
  fi
  grep -q -- "$bad is out of range" <<<"$err"
done
# gothic_fuzz applies the same rule (Args::get_in_range): a negative count
# or a worker count outside [1, Device::kMaxWorkers] exits 2 with a
# message naming the flag, before any device is built. Its seeds go
# through Args::get_u64: a value that is not an unsigned 64-bit integer
# exits 2 naming the flag too.
for bad in --schedules=-1 --workers=0; do
  status=0
  err=$(./build/tools/gothic_fuzz "$bad" 2>&1 >/dev/null) || status=$?
  if [[ $status -ne 2 ]]; then
    echo "gothic_fuzz $bad exited $status, not 2" >&2
    exit 1
  fi
  grep -q -- "$bad is out of range" <<<"$err"
done
for bad in --seed=abc --replay=zz --replay-scenario=q; do
  status=0
  err=$(./build/tools/gothic_fuzz "$bad" 2>&1 >/dev/null) || status=$?
  if [[ $status -ne 2 ]]; then
    echo "gothic_fuzz $bad exited $status, not 2" >&2
    exit 1
  fi
  grep -q -- "${bad%%=*} expects an unsigned 64-bit integer" <<<"$err"
done
# gothic_serve applies the same rule to its pool and batch flags.
for bad in --devices=0 --steps=-2; do
  status=0
  err=$(./build/tools/gothic_serve --sessions=1 --n=64 "$bad" 2>&1 \
    >/dev/null) || status=$?
  if [[ $status -ne 2 ]]; then
    echo "gothic_serve $bad exited $status, not 2" >&2
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
# --sessions-sized registry-cycled batch end-to-end with per-session
# telemetry / trace / checkpoint streams plus the oracle; and
# bench_service must emit a golden-schema BENCH_service.json for the
# bench_diff gate.
./build/tools/gothic_fuzz --schedules=0 --faults=0 --service=6 --n=128 \
  --steps=3
(cd build &&
  rm -rf smoke_serve && mkdir -p smoke_serve &&
  ./tools/gothic_serve --sessions=6 --devices=2 --steps=3 --n=256 \
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

echo "== scalar-only build: GOTHIC_SIMD=OFF, no benches =="
cmake -B build-scalar -S . -DGOTHIC_SIMD=OFF -DGOTHIC_BUILD_BENCH=OFF \
      -DGOTHIC_WERROR=ON >/dev/null
cmake --build build-scalar -j
(cd build-scalar &&
  ./tests/test_walk_tree &&
  ./tests/test_warp_properties &&
  ./tests/test_shard &&
  ./tests/test_quadrupole)
echo "scalar-only stage passed"

echo "== ASan+UBSan: test_trace + test_testkit + test_walk_tree =="
# test_trace and test_testkit replace the global operator new/delete
# (every form, the nothrow ones included) to count allocations;
# AddressSanitizer checks that each allocation is released by its
# matching form. test_walk_tree drives the walk's plain vector loads and
# stores (the spill copy, the MAC sweep's sibling-run loads), so one that
# reads or writes past a span's end fails here.
cmake -B build-asan -S . -DGOTHIC_SANITIZE=address \
      -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=undefined" \
      -DGOTHIC_BUILD_BENCH=OFF >/dev/null
cmake --build build-asan -j --target test_trace test_testkit test_walk_tree
(cd build-asan &&
  ./tests/test_trace &&
  ./tests/test_testkit &&
  ./tests/test_walk_tree)

echo "== TSan: barrier + runtime + octree + walk + service + shard + testkit + fuzz =="
cmake -B build-tsan -S . -DGOTHIC_SANITIZE=thread \
      -DGOTHIC_BUILD_BENCH=OFF >/dev/null
cmake --build build-tsan -j --target test_barrier test_runtime test_octree \
      test_walk_groups test_walk_tree test_service test_shard test_testkit \
      gothic_fuzz
(cd build-tsan &&
  ./tests/test_barrier &&
  ./tests/test_runtime &&
  ./tests/test_octree &&
  ./tests/test_walk_groups &&
  ./tests/test_walk_tree &&
  ./tests/test_service &&
  ./tests/test_shard &&
  ./tests/test_testkit &&
  ./tools/gothic_fuzz --schedules=8 --faults=8 --steps=4 --service=4 \
    --n=128)

echo "check.sh: all stages passed"
