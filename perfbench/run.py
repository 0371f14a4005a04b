"""Benchmark of ``spinhecke``: end-to-end and per-layer metrics on three
seeded workloads.

    python3 perfbench/run.py --workload probe|deep|suite|all --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``.
Each pass of a workload is a fresh interpreter (``worker.py``), so the memo
tables start empty, and passes run one at a time.

``--trace 0`` repeats passes of the same ops until ``--seconds`` is used up
(at least three) and reports the end-to-end metrics: per-op times are the
median over passes, ``setup_s`` and ``peak_rss_mb`` the median of the
passes.  ``--trace 1`` runs one plain pass and one traced pass and reports
the per-layer metrics of the traced one.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the run context and a readable table, including
``failed_ratio``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, ".out")  # span records and self-test files; not committed
WORKLOADS = ("probe", "deep", "suite")
MIN_PASSES = 3
# Times are reported at the CPU speed at which the reference loop of
# worker.py takes this long; the raw wall times are printed alongside.
REF_NOMINAL_MS = 2.0
RUN_LIMIT_S = 150  # start no pass that would end after this; runs must end within 180 s


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPINHECKE_WORKERS", None)  # the benchmark measures the serial path
    env["PYTHONHASHSEED"] = "0"  # per-layer counts repeat exactly
    return env


def run_pass(workload: str, seed: int, trace: int, timeout: float, spans: str | None = None,
             scale: float = 1.0, golden: str | None = None) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--scale", str(scale)]
    if spans:
        cmd += ["--spans", spans]
    if golden:
        cmd += ["--golden", golden]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_wall_s"] = res["setup_end"] - t0
    res["setup_s"] = res["setup_wall_s"] * REF_NOMINAL_MS / res["ref_setup_ms"]
    res["op_ms_scaled"] = [t * REF_NOMINAL_MS / r for t, r in zip(res["op_ms"], res["ref_ms"])]
    res["run_s_scaled"] = sum(res["op_ms_scaled"]) / 1e3
    res["wall_s"] = time.monotonic() - t0
    return res


def quantile(values: list, p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each of
    their n slots.  Unlike a single order statistic it does not jump when
    two ops near the quantile swap places, which matters for the suite's
    few, unlike ops."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):
        # midpoint rule over the slot [i/n, (i+1)/n]
        mids = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
                           for x in mids))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(workload: str, seed: int, seconds: int, started: float, scale: float) -> tuple:
    passes: list = []
    deadline = time.monotonic() + seconds
    while True:
        passes.append(run_pass(workload, seed, 0, started + RUN_LIMIT_S + 20 - time.monotonic(),
                               scale=scale))
        now, last = time.monotonic(), passes[-1]["wall_s"]
        if now + last > started + RUN_LIMIT_S:
            break
        if len(passes) >= MIN_PASSES and now + last > deadline:
            break
    counts = {len(p["op_ms"]) for p in passes}
    if len(counts) != 1:
        raise BenchError(f"passes of one seed ran different op counts: {sorted(counts)}")
    op_ms = [statistics.median(t) for t in zip(*(p["op_ms_scaled"] for p in passes))]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "run_s": sum(op_ms) / 1e3,
        "op_p50_ms": quantile(op_ms, 0.5),
        "op_p90_ms": quantile(op_ms, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "run_wall_s": statistics.median(p["run_s"] for p in passes),
        "setup_wall_s": statistics.median(p["setup_wall_s"] for p in passes),
    }
    return metrics, passes


def traced(workload: str, seed: int, started: float, scale: float) -> tuple:
    plain = run_pass(workload, seed, 0, started + RUN_LIMIT_S + 20 - time.monotonic(), scale=scale)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    tr = run_pass(workload, seed, 1, started + 170 - time.monotonic(), spans, scale=scale)
    metrics = dict(tr["layers"])
    metrics["trace.overhead_ratio"] = tr["run_s_scaled"] / plain["run_s_scaled"]
    return metrics, [plain, tr]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "spinhecke", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: int, trace: int, spec: dict,
                 scale: float = 1.0) -> dict:
    started = time.monotonic()
    if trace:
        values, passes = traced(workload, seed, started, scale)
        wanted = spec["per_layer"]
    else:
        values, passes = end_to_end(workload, seed, seconds, started, scale)
        wanted = spec["end_to_end"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    named = {m["name"] for m in wanted}
    return {
        "workload": workload,
        "passes": len(passes),
        "ops_per_pass": passes[0]["attempted"],
        "op_kinds": passes[0]["op_kinds"],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:5],
        "metrics": metrics,
        "unscaled": {k: v for k, v in values.items() if k not in named},
    }


def load_spec() -> dict | None:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if spec is None or not os.path.isfile(os.path.join(ROOT, "src", "spinhecke", "__init__.py")):
        print("error: run from the root of a spinhecke checkout (src/spinhecke and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    probe = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import spinhecke.cli"],
                           cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        print(f"error: spinhecke does not import: {probe.stderr.strip()[-2000:]}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace, spec) for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    context = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {r["workload"]: {k: r[k] for k in ("passes", "ops_per_pass", "op_kinds", "attempted",
                                                         "failed", "failed_ratio", "failures")}
                      for r in results},
    }
    print("context " + json.dumps(context, sort_keys=True))
    for r in results:
        for name, m in r["metrics"].items():
            print(f"{r['workload']:6s} {name:34s} {m['value']:>16.6f} {m['unit']}")
        for name, value in r["unscaled"].items():
            print(f"{r['workload']:6s} {name:34s} {value:>16.6f} s (wall clock, not scaled)")
        print(f"{r['workload']:6s} {'failed_ratio':34s} {r['failed_ratio']:>16.6f} ratio "
              f"({r['failed']} of {r['attempted']} ops)")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
