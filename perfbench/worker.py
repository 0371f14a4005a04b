"""One pass of a workload in a fresh interpreter, so every memo table of
``spinhecke`` starts empty.

    python3 perfbench/worker.py --workload probe --seed 1 [--trace 1]

Set-up (import, signatures, modules, morphisms, inputs) runs first; the op
list then runs serially, each op timed on its own.  The result is one JSON
line on standard output.  ``setup_end`` is a ``time.monotonic`` reading, a
system-wide clock, so the parent can measure set-up from before it started
this interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# This host's CPU speed drifts by up to 1.8x over tens of seconds.  Between
# ops the worker times a fixed loop that uses no spinhecke code and creates
# no container objects (so it never runs the garbage collector over the
# program's memo tables); the parent scales each op time by the loop's
# nominal time over its measured time.
REF_INTERVAL_S = 0.05
_REF_TABLE = tuple(range(7, 7 + 64 * 13, 13))


def reference() -> float:
    """Seconds for a fixed pure-Python loop of about 2 ms."""
    table = _REF_TABLE
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + table[i & 63]) % 1000003
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None, help="file for the span records of a traced pass")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--golden", default=os.path.join(HERE, "golden.json"))
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(workloads.sh)
    with open(args.golden) as fh:
        golden = json.load(fh)
    ops = workloads.build(args.workload, args.seed, args.scale)
    setup_end = time.monotonic()
    samples = [reference() for _ in range(3)]
    ref_setup = statistics.median(samples)

    if tracer is not None:
        memo_before = tracing.memo_sizes()
        tracer.reset()
    clock = time.perf_counter
    times, results, last_sample = [], [], []
    sampled = clock()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        last_sample.append(len(samples) - 1)
        t0 = clock()
        try:
            res = workloads.execute(op)
        except Exception as exc:  # an op that raises counts as failed
            res = exc
        t1 = clock()
        times.append(t1 - t0)
        results.append(res)
        if t1 - sampled >= REF_INTERVAL_S:
            samples.append(reference())
            sampled = clock()
    samples.append(reference())
    # The reference of an op is the median of the samples around it, so one
    # preempted sample does not skew it.
    ref = [statistics.median(samples[max(0, b - 1): b + 3]) for b in last_sample]

    failures = []
    for op, res in zip(ops, results):
        why = (f"raised {type(res).__name__}: {res}" if isinstance(res, Exception)
               else workloads.check(op, res, golden))
        if why:
            failures.append({"op": op.key, "why": why})
    out = {
        "setup_end": setup_end,
        "run_s": sum(times),
        "op_ms": [t * 1e3 for t in times],
        "ref_ms": [r * 1e3 for r in ref],
        "ref_setup_ms": ref_setup * 1e3,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "op_kinds": {kind: sum(op.kind == kind for op in ops) for kind in ("probe", "cli", "cocycle")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, memo_before, tracing.memo_sizes(), workloads.PROBE_ALGEBRAS)
        out["layers"]["cli.bytes_out"] = sum(len(r[1].encode()) for op, r in zip(ops, results)
                                             if op.kind == "cli" and isinstance(r, tuple))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


def layer_metrics(t, memo_before: dict, memo_after: dict, probe_algebras) -> dict:
    mul_calls = t.calls("engine.mul_mono")
    new_mul = None
    if memo_after["engine.mul_memo_entries"] is not None and memo_before["engine.mul_memo_entries"] is not None:
        new_mul = memo_after["engine.mul_memo_entries"] - memo_before["engine.mul_memo_entries"]
    m = {
        "scalars.mul_calls": t.calls("scalars.mul"),
        "scalars.add_calls": t.calls("scalars.add"),
        "scalars.eq_calls": t.calls("scalars.eq"),
        "scalars.self_s": t.self_s("scalars.mul", "scalars.add", "scalars.eq", "scalars.div"),
        "scalars.qomega_mul_calls": t.counters.get("scalars.qomega_mul", 0),
        "structure.beta_calls": t.calls("structure.beta"),
        "structure.beta_self_s": t.self_s("structure.beta"),
        "structure.beta_by_words_self_s": t.self_s("structure.beta_by_words"),
        "engine.mul_mono_calls": mul_calls,
        "engine.mul_mono_self_s": t.self_s("engine.mul_mono"),
        "engine.mul_memo_hit_ratio": (1 - new_mul / mul_calls) if mul_calls and new_mul is not None else None,
        "engine.elem_mul_self_s": t.self_s("engine.elem_mul"),
        "engine.normalize_calls": t.calls("engine.normalize"),
        "engine.normalize_self_s": t.self_s("engine.normalize"),
        "engine.terms_out": t.counters["engine.terms_out"],
        "algebras.relations_s": t.total_s("algebras.relations"),
        "algebras.verify_relations_s": t.total_s("algebras.verify_relations"),
        "families.center_check_s": t.total_s("families.center_check"),
        "families.embedding_check_s": t.total_s("families.embedding_check"),
        "morphisms.apply_calls": t.calls("morphisms.apply"),
        "morphisms.apply_self_s": t.self_s("morphisms.apply"),
        "morphisms.check_s": t.total_s("morphisms.check"),
        "dunkl.act_calls": t.calls("dunkl.act"),
        "dunkl.act_self_s": t.self_s("dunkl.act"),
        "dunkl.verify_module_s": t.total_s("dunkl.verify_module"),
        "dunkl.oracle_s": t.total_s("dunkl.oracle"),
        "exprparse.parse_calls": t.calls("exprparse.parse"),
        "exprparse.parse_self_s": t.self_s("exprparse.parse"),
        "render.element_str_self_s": t.self_s("render.element_str"),
        "render.chars_out": t.counters["render.chars_out"],
        "cli.main_calls": t.calls("cli.main"),
        "cli.main_self_s": t.self_s("cli.main"),
    }
    for name in probe_algebras:
        m[f"engine.probe_s.{name}"] = t.total_s(f"engine.probe_s.{name}")
    m.update(memo_after)
    return {k: v for k, v in m.items() if v is not None}


if __name__ == "__main__":
    sys.exit(main())
