#!/usr/bin/env python3
"""The repository benchmark: four workloads, each measured end to end on the
host clock, with its simulated report checked; a traced run adds the
per-layer metrics.

Run from the root of the repository:

  python3 perfbench/run.py --workload fleet --seed 42 --seconds 10 --trace 0
      Builds perfbench/bench.exe into .bench_build, then starts one process
      per pass until --seconds (default: BENCHMARK.json's run_seconds) have
      been measured.  Prints each metric with
      its unit, then one JSON line: correct, attempted, failed, metrics.
      --trace 1 reports the per-layer metrics instead, each with the
      end-to-end metric and workload it should move.
      --out FILE appends the run's result to FILE (JSON lines) for compare.

  python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
      One row per workload x end-to-end metric: medians, quartiles, pairs
      won, and a verdict judged by the bounds in BENCHMARK.json.

  python3 perfbench/run.py selfcheck
      Every workload once at the default seed (digests and the Figure 8
      golden) and once at a held-out seed (oracles only).

  python3 perfbench/run.py digests
      Records the default seed's report digests in perfbench/digests.json;
      only for a change that announces a new simulated cost model.
"""

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
GOLDEN = os.path.join("test", "golden", "figure8_scale025.golden")
DIGESTS = os.path.join(HERE, "digests.json")
TARGETS = os.path.join(HERE, "targets.json")
SPANS_DIR = os.path.join(BUILD_DIR, "spans")

WORKLOADS = ["fig8", "fleet", "rescue", "mc"]
DEFAULT_SEED = 42
# Timed runs of these do the same work at every seed (bench.ml says why),
# so their digests are checked at every seed.
SEED_FREE = ("rescue", "mc")
HELD_OUT_SEED = 7
CHILD_TIMEOUT_S = 170  # a run must end within 180 s once built


def load_json(path):
    with open(path) as f:
        return json.load(f)


def benchmark_spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def build():
    """Builds the runner from the checkout's sources; exits 2 on failure."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(os.path.join(ROOT, EXE)):
        sys.stderr.write(r.stdout[-4000:])
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


# --- one run ------------------------------------------------------------------


def pass_once(workload, seed, timeout, mode="pass"):
    spawned_at = time.time()
    p = subprocess.Popen([os.path.join(ROOT, EXE), mode, workload, str(seed),
                          repr(spawned_at)],
                         cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return wait_child(p, timeout)


def trace_once(workload, seed, timeout):
    os.makedirs(os.path.join(ROOT, SPANS_DIR), exist_ok=True)
    spans = os.path.join(SPANS_DIR, "%s-%d.jsonl" % (workload, seed))
    p = subprocess.Popen([os.path.join(ROOT, EXE), "trace", workload, str(seed),
                          spans],
                         cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return wait_child(p, timeout)


def wait_child(p, timeout):
    """Reads the child's output and reaps it with wait4, so the peak RSS is
    this process's alone.  Kills and reaps it past [timeout], or when this
    process is interrupted."""
    sel = selectors.DefaultSelector()
    chunks = {p.stdout: [], p.stderr: []}
    try:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        deadline = time.time() + timeout
        open_files = 2
        while open_files:
            left = deadline - time.time()
            if left <= 0:
                raise RuntimeError("bench.exe ran past %d s" % timeout)
            for key, _ in sel.select(timeout=left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    open_files -= 1
    except BaseException:
        p.kill()
        os.wait4(p.pid, 0)
        p.returncode = -9
        raise
    finally:
        sel.close()
    _, status, rusage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    out = b"".join(chunks[p.stdout]).decode()
    if p.returncode != 0:
        err = b"".join(chunks[p.stderr]).decode()
        raise RuntimeError("bench.exe exited %d: %s" % (p.returncode, err[-2000:]))
    d = json.loads(out.strip().splitlines()[-1])
    d["peak_rss_mb"] = rusage.ru_maxrss / 1024.0  # Linux reports KiB
    return d


def digest_checked(workload, seed):
    return seed == DEFAULT_SEED or workload in SEED_FREE


def expected(workload, seed):
    """The recorded digest and, for fig8 at the default seed, the golden
    tables."""
    if not digest_checked(workload, seed):
        return None, None
    digest = load_json(DIGESTS).get(workload) if os.path.exists(DIGESTS) else None
    golden = None
    if workload == "fig8":
        with open(os.path.join(ROOT, GOLDEN)) as f:
            golden = f.read()
    return digest, golden


def check_pass(workload, seed, d, first):
    """Failed operations of one pass: its own count, plus every operation
    when its simulated report differs from the golden, the recorded digest
    or the run's first pass (one seed, one report)."""
    digest, golden = expected(workload, seed)
    problems = []
    if golden is not None and d["report"] != golden:
        problems.append("Figure 8 tables differ from %s" % GOLDEN)
    if digest is not None and d["digest"] != digest:
        problems.append("report digest %s, recorded %s" % (d["digest"], digest))
    if first is not None and d["digest"] != first["digest"]:
        problems.append("report differs between passes of one seed")
    for p in problems:
        sys.stderr.write("perfbench: %s seed %d: %s\n" % (workload, seed, p))
    return d["attempted"] if problems else d["failed"]


def measure(workload, seed, seconds, traced):
    """Passes until the next one would end past [seconds]; at least one."""
    once = trace_once if traced else pass_once
    passes, failed = [], 0
    start = time.time()
    while not passes or (time.time() - start
                         + statistics.mean(d["_s"] for d in passes) <= seconds):
        t0 = time.time()
        d = once(workload, seed, CHILD_TIMEOUT_S)
        d["_s"] = time.time() - t0
        failed += check_pass(workload, seed, d, passes[0] if passes else None)
        if traced and not d["fidelity"]:
            sys.stderr.write("perfbench: %s seed %d: traced run disagrees with "
                             "the untraced one; per-layer numbers refused\n"
                             % (workload, seed))
            failed += d["attempted"]
        failed += d.get("traced_failed", 0)
        passes.append(d)
    return passes, failed


def show(name, value, unit, note=""):
    print("  %-32s %16.6g %-9s %s" % (name, value, unit, note))


def run(args):
    spec = benchmark_spec()
    build()
    passes, failed = measure(args.workload, args.seed, args.seconds, args.trace)
    attempted = sum(d["attempted"] for d in passes)
    held = "digest checked" if digest_checked(args.workload, args.seed) else \
        "held-out seed: oracles only"
    print("perfbench %s  seed %d  %s  passes %d  %s"
          % (args.workload, args.seed, "traced" if args.trace else "untraced",
             len(passes), held))
    metrics = {}
    if args.trace:
        targets = load_json(TARGETS)
        for m in spec["per_layer"]:
            v = statistics.median(d["layers"].get(m["name"], 0.0) for d in passes)
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            ran = any(m["name"] in d["layers"] for d in passes)
            show(m["name"], v, m["unit"],
                 "-> " + ", ".join("%s on %s" % tuple(t) for t in targets[m["name"]])
                 + ("" if ran else "  (layer not run by this workload)"))
    else:
        for m in spec["end_to_end"]:
            xs = [d[m["name"]] for d in passes]
            q1, q3 = quartiles(xs)
            v = statistics.median(xs)
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            show(m["name"], v, m["unit"],
                 "median of %d passes, q1 %.6g q3 %.6g" % (len(xs), q1, q3))
        # Simulated metrics: exact for a seed, identical in every pass.
        for k, mv in passes[0]["sim"].items():
            show(k, mv["value"], mv["unit"], "simulated")
    show("failed_frac", failed / attempted, "frac", "%d of %d" % (failed, attempted))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": int(args.trace),
                                "sim": passes[0]["sim"], "digest": passes[0]["digest"],
                                "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# --- compare ----------------------------------------------------------------------


def verdict(parent, change, bound, lower_better):
    """improved / within bound / worse / unresolved, by the rules of a
    performance claim: a gain needs 9 in 10 pairs won and a median shift
    beyond the parent's own quartile spread."""
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    sign = 1 if lower_better else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    better = (lambda a, b: a < b) if lower_better else (lambda a, b: a > b)
    all_better = all(better(c, p) for c in change for p in parent)
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    spread = (pq3 - pq1) / abs(pm) if pm else 0.0
    if pairs and wins >= 0.9 * len(pairs) and sign * (pm - cm) > (pq3 - pq1):
        v = "improved"
    elif worse_by > bound:
        v = "worse"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "within bound"
    return pm, (pq1, pq3), cm, quartiles(change), wins, len(pairs), v


def read_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                r = json.loads(line)
                if not r.get("trace"):
                    runs.setdefault(r["workload"], []).append(r)
    return runs


def compare(args):
    spec = benchmark_spec()
    parent, change = read_runs(args.parent), read_runs(args.change)
    print("%-7s %-12s %12s %-25s %12s %-25s %7s  %s"
          % ("workload", "metric", "parent", "  [q1, q3]", "change", "  [q1, q3]",
             "won", "verdict"))
    worse = 0
    for w in WORKLOADS:
        if w not in parent or w not in change:
            continue
        # pair runs of the same seed; otherwise in the order they were made
        by_seed = {r["seed"]: r for r in change[w]}
        if all(r["seed"] in by_seed for r in parent[w]):
            ps, cs = parent[w], [by_seed[r["seed"]] for r in parent[w]]
        else:
            ps, cs = parent[w], change[w]
        for m in spec["end_to_end"]:
            pv = [r["result"]["metrics"][m["name"]]["value"] for r in ps]
            cv = [r["result"]["metrics"][m["name"]]["value"] for r in cs]
            n = min(len(pv), len(cv))
            pm, pq, cm, cq, wins, pairs, v = verdict(
                pv[:n], cv[:n], m["bound"], m["better"] == "lower")
            worse += v == "worse"
            print("%-8s %-12s %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g] %3d/%-3d  %s"
                  % (w, m["name"], pm, pq[0], pq[1], cm, cq[0], cq[1], wins, pairs, v))
        same = [(p, c) for p in ps for c in cs if p["seed"] == c["seed"]]
        moved = sum(1 for p, c in same if p["digest"] != c["digest"])
        if same:
            print("%-8s %-12s %s" % (w, "simulated",
                                     "identical on %d seed pairs" % len(same) if not moved
                                     else "CHANGED on %d of %d seed pairs" % (moved, len(same))))
    return 1 if worse else 0


# --- selfcheck and digests ----------------------------------------------------------


def selfcheck(_args):
    """Every workload once at the default seed (golden and digests) and once
    held out: every input drawn from another seed, checked by the oracles
    alone."""
    build()
    bad = 0
    for w in WORKLOADS:
        passes, failed = measure(w, DEFAULT_SEED, 0, False)
        d = passes[0]
        print("%-7s seed %-3d default   failed %d of %d  wall %.2f s  digest %s"
              % (w, DEFAULT_SEED, failed, d["attempted"], d["wall_s"], d["digest"]))
        bad += failed
    for w in WORKLOADS:
        d = pass_once(w, HELD_OUT_SEED, CHILD_TIMEOUT_S, mode="heldout")
        print("%-7s seed %-3d held-out  failed %d of %d  wall %.2f s  %s"
              % (w, HELD_OUT_SEED, d["failed"], d["attempted"], d["wall_s"],
                 " ".join("%s %.6g" % (k, v["value"]) for k, v in d["sim"].items())))
        bad += d["failed"]
    return 1 if bad else 0


def digests(_args):
    build()
    out = {}
    for w in WORKLOADS:
        passes, failed = measure(w, DEFAULT_SEED, 0, False)
        if passes[0]["failed"]:
            sys.exit("perfbench: %s fails its oracles; no digest recorded" % w)
        out[w] = passes[0]["digest"]
    with open(DIGESTS, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(out, indent=2))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("parent")
        ap.add_argument("change")
        return compare(ap.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] in ("selfcheck", "digests"):
        return {"selfcheck": selfcheck, "digests": digests}[sys.argv[1]](None)
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=benchmark_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    return run(ap.parse_args())


if __name__ == "__main__":
    # On SIGTERM, unwind through wait_child, which stops the running pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    sys.exit(main())
