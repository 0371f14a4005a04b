"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload, that:
  * every end-to-end and per-layer metric named in BENCHMARK.json is emitted
    with its unit, and the shrunken ops all pass;
  * the per-layer counts (calls and memo entries) repeat exactly across two
    traced runs with the same seed;
  * a corrupted golden digest makes ops fail, so the output check is not
    vacuous.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SCALE = 0.05
SEED = 7


def emitted(result: dict, wanted: list) -> list:
    problems = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{m['name']} not emitted")
        elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{m['name']} emitted as {got}")
    return problems


def main() -> int:
    spec = run.load_spec()
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    corrupt = os.path.join(run.OUT, "golden-corrupted.json")
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    with open(corrupt, "w") as fh:
        json.dump({k: v[::-1] for k, v in golden.items()}, fh)

    problems = []
    for w in run.WORKLOADS:
        plain = run.run_workload(w, SEED, 0, 0, spec, SCALE)
        problems += [f"{w}: {p}" for p in emitted(plain, spec["end_to_end"])]
        if plain["failed"]:
            problems.append(f"{w}: {plain['failed']} ops failed: {plain['failures']}")
        first = run.run_workload(w, SEED, 0, 1, spec, SCALE)
        second = run.run_workload(w, SEED, 0, 1, spec, SCALE)
        problems += [f"{w}: {p}" for p in emitted(first, spec["per_layer"])]
        for name in counts:
            a, b = (r["metrics"].get(name, {}).get("value") for r in (first, second))
            if a != b:
                problems.append(f"{w}: {name} differs across runs of one seed: {a} vs {b}")
        bad = run.run_pass(w, SEED, 0, 120, scale=SCALE, golden=corrupt)
        if not bad["failed"] / bad["attempted"] > 0:
            problems.append(f"{w}: a corrupted golden digest did not fail any op")
        print(f"{w}: checked", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
