"""Pin the golden output digests of every op the workloads can generate.

    python3 perfbench/make_golden.py

Run it on the commit whose outputs are the reference; it rewrites
``perfbench/golden.json``.  A later commit must reproduce these digests byte
for byte, or the benchmark counts the op as failed.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    from spinhecke import algebras

    golden = {}
    for name in workloads.PROBE_ALGEBRAS:
        sig = algebras.by_name(name, workloads.PROBE_N)
        op = workloads.Op("probe", workloads.probe_key(sig.name), (sig, 0))
        report = workloads.execute(op)
        if not report.ok:
            raise SystemExit(f"reference probe failed on {sig.name}")
        golden[op.key] = workloads.digest(json.dumps(report.to_json(), sort_keys=True))
    cmds = workloads.deep_pool() + workloads.suite_pool()
    for k, cmd in enumerate(cmds):
        key = workloads.cli_key(cmd)
        rc, text = workloads.execute(workloads.Op("cli", key, tuple(workloads.argv(cmd))))
        if rc != 0:
            raise SystemExit(f"reference op exited {rc}: {key}")
        golden[key] = workloads.digest(text)
        if k % 50 == 0:
            print(f"{k}/{len(cmds)}", file=sys.stderr)
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(golden)} digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
