#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md in this directory).

  python3 bench/e2e/run.py
      Build, run the unit tests, then every workload untraced (end-to-end
      metrics) and traced (per-layer metrics). Exit 1 if any check fails.
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      One run. The last stdout line is the JSON result
      {"correct", "attempted", "failed", "metrics"}.
  python3 bench/e2e/run.py repeat --sets=2 [--runs=5] [--seed=1]
      Self-agreement: two sets of runs of the same code must agree within
      the bounds on every end-to-end metric and workload.
  python3 bench/e2e/run.py ab --parent=SRC --change=SRC [--pairs=10]
                           [--seed=1] [--claim=WORKLOAD:METRIC]
      Build this benchmark against two engine trees and compare them.

All modes take --workloads=a,b to restrict the workload set and
--seconds=S to override the run length.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
BUILD_ROOT = ROOT / ".bench_build"

# Absolute floors of the bounds: a metric regresses only when it is worse
# by more than its relative bound AND by more than its floor.
FLOORS = {"latency_p50_ms": 1.0, "latency_p90_ms": 1.0, "setup_s": 0.05,
          "peak_rss_mb": 16.0}

# A run must end within 180 s, and the first run of a checkout, which
# builds, within 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def clean_env():
    """The environment of every child: engine policy stays at the
    program's defaults, so no GOTHIC_* override may leak in."""
    return {k: v for k, v in os.environ.items() if not k.startswith("GOTHIC_")}


def revision(src):
    """git revision of an engine tree; 'unknown' outside a repository.
    GIT_CEILING_DIRECTORIES keeps git from searching above `src`."""
    env = clean_env()
    env["GIT_CEILING_DIRECTORIES"] = str(Path(src).resolve().parent)
    try:
        out = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Build:
    """The benchmark built against one engine tree."""

    def __init__(self, src, tag):
        self.src = Path(src).resolve()
        self.dir = BUILD_ROOT / tag
        self.binary = self.dir / "gothic_e2e"
        self.revision = revision(self.src)

    def build(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        logfile = self.dir / "build.log"
        steps = []
        if not (self.dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(self.dir),
                          "-DCMAKE_BUILD_TYPE=Release",
                          f"-DGOTHIC_SOURCE_DIR={self.src}"])
        steps.append(["cmake", "--build", str(self.dir), "-j4", "--target",
                      "gothic_e2e", "e2e_tests"])
        steps.append(["ctest", "--test-dir", str(self.dir),
                      "--output-on-failure"])
        # The compiler's and the tests' scratch files stay in the build
        # directory, so nothing is written outside the checkout.
        tmp = self.dir / "tmp"
        tmp.mkdir(exist_ok=True)
        env = clean_env()
        env["TMPDIR"] = str(tmp)
        env["TEST_TMPDIR"] = str(tmp) + os.sep  # gtest appends file names
        with open(logfile, "w") as out:
            for cmd in steps:
                done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S)
                if done.returncode != 0:
                    out.flush()
                    tail = logfile.read_text().splitlines()[-30:]
                    print("\n".join(tail), file=sys.stderr)
                    raise SystemExit(f"run.py: '{' '.join(cmd[:2])}' failed "
                                     f"(log: {logfile})")

    def run(self, workload, seed, seconds, trace):
        cmd = [str(self.binary), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}"]
        if trace:
            cmd.append(f"--trace={self.dir / f'trace-{workload}.json'}")
        done = subprocess.run(cmd, capture_output=True, text=True,
                              env=clean_env(), timeout=RUN_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr, end="")
        if done.returncode not in (0, 1) or not lines:
            raise SystemExit(f"run.py: {workload} exited {done.returncode}")
        result = json.loads(lines[-1])
        result["fingerprint"]["revision"] = self.revision
        return result


def validate(result, spec):
    """The binary must report exactly the metrics BENCHMARK.json names."""
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if result["traced"]:
        expected_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        got = {k: v["unit"] for k, v in result["layers"].items()}
        if got != expected_layers:
            raise SystemExit(f"run.py: per-layer metrics {sorted(got)} do not "
                             "match BENCHMARK.json")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        raise SystemExit(f"run.py: metrics {sorted(got)} do not match "
                         "BENCHMARK.json")


def print_result(result, metrics):
    print(f"== {result['workload']} seed={result['seed']} "
          f"traced={int(result['traced'])}")
    for c in result["checks"]:
        print(f"   check {c['name']:<16} {'ok ' if c['ok'] else 'FAIL'} "
              f"{c['detail']}")
    for name, m in result[metrics].items():
        print(f"   {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"   ops attempted={result['ops_attempted']} "
          f"failed={result['ops_failed']}")


def fingerprint_key(result):
    return tuple(sorted((k, v) for k, v in result["fingerprint"].items()
                        if k not in ("revision", "seed")))


def require_same_fingerprint(results):
    """Results of one workload may be compared only on one host setup."""
    for w in {r["workload"] for r in results}:
        keys = {fingerprint_key(r) for r in results if r["workload"] == w}
        if len(keys) > 1:
            raise SystemExit(f"run.py: refusing to compare {w} results whose "
                             "fingerprints differ:\n  " +
                             "\n  ".join(str(dict(k)) for k in keys))


def judge(build, metric, parent, change, rule):
    cmd = [str(build.binary), "--judge", f"--rule={rule}",
           f"--metric={metric['name']}",
           f"--better={metric['better']}", f"--bound={metric['bound']}",
           f"--floor={FLOORS.get(metric['name'], 0.0)}",
           "--parent=" + ",".join(repr(v) for v in parent),
           "--change=" + ",".join(repr(v) for v in change)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          env=clean_env())
    return json.loads(done.stdout)


def log_runs(build, mode, results):
    """Keep every run of a comparison, so none goes unreported."""
    path = build.dir / f"{mode}-runs.jsonl"
    with open(path, "w") as f:
        for r in results:
            f.write(json.dumps(r) + "\n")
    print(f"every run: {path}")


def print_verdict(workload, v):
    p, c = v["parent"], v["change"]
    print(f"   {workload:<14} {v['metric']:<15} "
          f"A {p['median']:>11.5g} [{p['q1']:.5g}, {p['q3']:.5g}]  "
          f"B {c['median']:>11.5g} [{c['q1']:.5g}, {c['q3']:.5g}]  "
          f"wins {v['wins']}/{v['wins'] + v['losses']}  {v['label']}")


# --- modes -------------------------------------------------------------------

def single(args, spec):
    build = Build(ROOT, "e2e")
    build.build()
    result = build.run(args.workload, args.seed, args.seconds, args.trace)
    validate(result, spec)
    metrics = "layers" if args.trace else "metrics"
    print_result(result, metrics)
    ok = result["ops_failed"] == 0
    print(json.dumps({"correct": ok, "attempted": result["ops_attempted"],
                      "failed": result["ops_failed"],
                      "metrics": result[metrics]}))
    return 0 if ok else 1


def suite(args, spec):
    build = Build(ROOT, "e2e")
    build.build()
    ok = True
    for w in args.workloads:
        plain = build.run(w, args.seed, args.seconds, False)
        traced = build.run(w, args.seed, args.seconds, True)
        for r in (plain, traced):
            validate(r, spec)
            ok = ok and r["ops_failed"] == 0
        print_result(plain, "metrics")
        print_result(traced, "layers")
        overhead = (traced["metrics"]["updates_per_s"]["value"] /
                    plain["metrics"]["updates_per_s"]["value"] - 1.0)
        print(f"   {'trace.overhead_share':<34} {overhead:>14.6g} 1")
        print(f"   trace: {build.dir / f'trace-{w}.json'}")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def repeat(args, spec):
    build = Build(ROOT, "e2e")
    build.build()
    seeds = [args.seed + i for i in range(args.runs)]
    sets = []
    for k in range(args.sets):
        runs = {w: [build.run(w, seed, args.seconds, False) for seed in seeds]
                for w in args.workloads}
        for rs in runs.values():
            for r in rs:
                r["set"] = k
        sets.append(runs)
    results = [r for runs in sets for rs in runs.values() for r in rs]
    log_runs(build, "repeat", results)
    require_same_fingerprint(results)
    ok = all(r["ops_failed"] == 0 for r in results)
    print(f"repeat: {args.sets} sets x {args.runs} runs, seeds {seeds}")
    for later in sets[1:]:
        for w in args.workloads:
            for m in spec["end_to_end"]:
                first = [r["metrics"][m["name"]]["value"] for r in sets[0][w]]
                other = [r["metrics"][m["name"]]["value"] for r in later[w]]
                v = judge(build, m, first, other, "agreement")
                print_verdict(w, v)
                ok = ok and v["label"] == "agree"
    print("sets agree" if ok else "SETS DISAGREE (or a check failed)")
    return 0 if ok else 1


def ab(args, spec):
    parent = Build(args.parent, "e2e-parent")
    change = Build(args.change, "e2e-change")
    parent.build()
    change.build()
    claim_w, _, claim_m = (args.claim or "").partition(":")
    runs = {w: {"parent": [], "change": []} for w in args.workloads}
    for i in range(args.pairs):
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for w in args.workloads:
            for side, b in order:
                r = b.run(w, args.seed, args.seconds, False)
                r["side"] = side
                runs[w][side].append(r)
    results = [r for sides in runs.values() for rs in sides.values()
               for r in rs]
    log_runs(change, "ab", results)
    require_same_fingerprint(results)
    print(f"ab: {args.pairs} pairs, seed {args.seed}; "
          f"A = parent {parent.revision}, B = change {change.revision}")
    regressed = False
    for w in args.workloads:
        failed = {s: sum(r["ops_failed"] for r in runs[w][s]) for s in runs[w]}
        print(f"-- {w}: failed ops parent={failed['parent']} "
              f"change={failed['change']}")
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in runs[w]["parent"]]
            b = [r["metrics"][m["name"]]["value"] for r in runs[w]["change"]]
            claimed = (w, m["name"]) == (claim_w, claim_m)
            v = judge(parent, m, a, b, "claim" if claimed else "no-regression")
            if claimed and failed["change"] > failed["parent"]:
                v["label"] = "no-gain (more failed ops)"
            print_verdict(w, v)
            regressed = regressed or v["label"] == "regressed"
    return 1 if regressed else 0


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("mode", nargs="?", choices=["repeat", "ab"])
    p.add_argument("--workload", choices=names)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--claim")
    args = p.parse_args()
    args.workloads = args.workloads.split(",")
    unknown = set(args.workloads) - set(names)
    if unknown:
        p.error(f"unknown workloads {sorted(unknown)}")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.mode == "ab" and not (args.parent and args.change):
        p.error("ab needs --parent and --change")
    if args.mode == "repeat" and (args.sets < 2 or args.runs < 2):
        p.error("repeat needs --sets >= 2 and --runs >= 2")
    if args.mode == "ab" and args.pairs < 2:
        p.error("ab needs --pairs >= 2")
    if args.claim:
        w, _, m = args.claim.partition(":")
        if w not in names or m not in [e["name"] for e in spec["end_to_end"]]:
            p.error("--claim must be WORKLOAD:METRIC with an end-to-end metric")
    if args.workload:
        return single(args, spec)
    if args.mode == "repeat":
        return repeat(args, spec)
    if args.mode == "ab":
        return ab(args, spec)
    return suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
