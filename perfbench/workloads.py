"""The seeded workloads of the benchmark: ``probe``, ``deep`` and ``suite``.

Each workload is a closed loop with one client: one process runs its ops
serially, each op starting when the previous one has returned.  Every input
is derived from the benchmark seed; the same seed gives the same ops.

The ops call only public entry points of ``spinhecke``:
``confluence_probe`` for ``probe``, ``cli.main([...])`` for ``deep`` and
``suite``, and ``spin_group(5).beta`` / ``beta_by_words`` for the cocycle
part of ``suite``.

An op fails when it raises, exits non-zero, prints output whose SHA-256
differs from the digest pinned in ``golden.json``, or an independent oracle
disagrees (associativity and idempotence in ``probe``, the Dunkl-versus-
engine comparison in ``verify-modules``, ``beta`` versus ``beta_by_words``).
Every op an input generator can produce draws from a finite pool, and
``make_golden.py`` pins the digest of every pool member.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import NamedTuple

import spinhecke as sh
import spinhecke.cli  # noqa: F401  (the CLI ops call sh.cli.main)
from spinhecke import algebras, dunkl, morphisms
from spinhecke.engine import random_monomial
from spinhecke.structure import all_perms, compose, spin_group

WORKLOADS = ("probe", "deep", "suite")

# -- probe -------------------------------------------------------------------
# Criterion 02's shape at a smaller size: n = 3, degree bound 3, one trial per
# op.  A few trials cost as much as all the others together, so two variance
# reductions keep seeds comparable: 195 of each algebra's 200 trials are
# common to all seeds, and the rest are stratified on a crossing proxy
# (see ``_crossing_proxy``) so that every seed draws the same mix of cheap and
# costly products.
PROBE_ALGEBRAS = ("DaHCa", "SDaHa", "TrigDaHCa", "TrigSDaHa", "AffineHC")
PROBE_N = 3
PROBE_DEGREE = 3
# Per algebra: trials common to all seeds, and trials drawn from the seed
# with the proxy values of the first PROBE_DRAWN common ones.
PROBE_COMMON = 195
PROBE_DRAWN = 5
PROBE_PROXY_CAP = 20

# -- deep --------------------------------------------------------------------
# High-degree products where every right letter crosses every left letter.
# A shape fixes the algebra, rank, exponents and whether the two letters share
# an index; every index variant of it runs.
_RATIONAL = {
    "dahca": "y{i}^{a}*x{j}^{b}",
    "sdaha": "y{i}^{a}*xi{j}^{b}",
    "trigdahca": "epsv({i})^{a}*e({j})^{b}",
    "trigsdaha": "zeta({i})^{a}*e({j})^{b}",
}
_BASE_LADDER = ((2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (3, 4), (4, 4), (5, 4), (5, 5))
_DEEP_LADDER = {  # (algebra, n) -> exponent pairs; total degree up to 14
    ("dahca", 2): _BASE_LADDER + ((6, 6),),
    ("dahca", 3): _BASE_LADDER[:5],
    ("sdaha", 2): _BASE_LADDER + ((6, 6), (7, 7)),
    ("sdaha", 3): _BASE_LADDER[:7],
    ("trigdahca", 2): _BASE_LADDER,
    ("trigdahca", 3): _BASE_LADDER[:4],
    ("trigsdaha", 2): _BASE_LADDER + ((6, 6), (7, 7)),
    ("trigsdaha", 3): _BASE_LADDER[:5],
}
_AFFINE = {"affinehc": "s(1,{n})*a{j}^{k}", "spinaffine": "tr(1,{n})*b{j}^{k}"}
_AFFINE_K = {3: (2, 4, 6, 8, 10), 4: (2, 4, 6)}
_MAPS = {"Phi": "y{i}^{a}*x{j}^{b}", "PhiTr": "epsv({i})^{a}*e({j})^{b}"}
_MAP_PAIRS = ((2, 2), (3, 3), (4, 3), (4, 4))

# -- suite -------------------------------------------------------------------
SUITE_FIXED = (
    ("verify-relations", "--algebra", "dahca", "--n", "4"),
    ("verify-relations", "--algebra", "sdaha", "--n", "4"),
    ("verify-relations", "--algebra", "trigdahca", "--n", "4"),
    ("verify-relations", "--algebra", "trigsdaha", "--n", "4"),
    ("verify-morphisms", "--n", "3"),
    ("verify-morphisms", "--n", "4"),
    ("verify-modules", "--algebra", "dahca", "--n", "3", "--degree-bound", "3"),
    ("verify-modules", "--algebra", "sdaha", "--n", "3", "--degree-bound", "3"),
    ("embedding-check", "--algebra", "dahca", "--n", "3", "--alpha", "1"),
    ("embedding-check", "--algebra", "sdaha", "--n", "3", "--alpha", "u"),
    ("cocycle-table", "--n", "4"),
)
# One member of each pool joins the fixed commands, chosen by the seed.
SUITE_POOLS = (
    [("center-check", "--algebra", "dahca", "--n", "3", "--expr", e)
     for e in ("y1+y2+y3", "y1^2+y2^2+y3^2", "x1^2+x2^2+x3^2", "y1^3+y2^3+y3^3")]
    + [("center-check", "--algebra", "sdaha", "--n", "3", "--expr", e)
       for e in ("y1+y2+y3", "y1^2+y2^2+y3^2", "xi1^2+xi2^2+xi3^2")],
    [("act", "--op", "dunkl-x", "--i", str(i), "--module", "basic-spin", "--n", "3", "--expr", e)
     for i in (1, 2, 3) for e in ("y1^2*y2", "y2^2*y3", "y1*y2*y3", "y3^3")],
    [("act", "--op", "dunkl-xi", "--i", str(i), "--module", "regular-spin", "--n", "3", "--expr", e)
     for i in (1, 2, 3) for e in ("y1^2*y3", "y2*y3^2", "y1*y2*y3")],
    [("map", "--name", "Phi", "--n", "3", "--expr", e)
     for e in ("x1*y2", "y1*x2*c3", "s1*x1*y3", "x2^2*y1")]
    + [("map", "--name", "PhiTr", "--n", "3", "--expr", e)
       for e in ("epsv(1)*e(2)^2", "e(3)*epsv(2)", "s2*epsv(3)")],
    [("normalize", "--algebra", a, "--n", "3", "--expr", e)
     for a, e in (("dahca", "y1*x2*c3*s1"), ("sdaha", "y1*xi2*t1"), ("trigdahca", "epsv(2)*e(1)*s2"),
                  ("trigsdaha", "zeta(1)*e(3)*t2"), ("affinehc", "s(1,3)*a1^3*c2"))],
)
COCYCLE_N = 5
# Many small chunks, so that the median and 90th-percentile op of the suite
# fall among the cocycle ops, not on one of the few costly CLI commands.
COCYCLE_CHUNKS = 32
COCYCLE_TRIPLES = 15  # per chunk


@dataclass
class Op:
    kind: str  # "probe", "cli" or "cocycle"
    key: str  # golden key, or a label for ops checked by an oracle only
    args: tuple


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def argv(cmd) -> list:
    return list(cmd) + ["--format", "json"]


def cli_key(cmd) -> str:
    return " ".join(argv(cmd))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def probe_key(sig_name: str) -> str:
    return f"probe {sig_name} n={PROBE_N} trials=1 degree={PROBE_DEGREE}"


# -- input generation ------------------------------------------------------------

def _crossing_proxy(sig, op_seed: int) -> int:
    """How much the three monomials of a probe trial must cross: for each
    ordered pair (p, q) of them, (right degree of p + 1)(left degree of q + 1).
    It predicts a trial's cost far better than the total degree does."""
    rng = random.Random(op_seed)
    monos = [random_monomial(sig, rng, PROBE_DEGREE) for _ in range(3)]
    left = [sum(abs(e) for e in m[0]) for m in monos]
    right = [sum(m[3]) for m in monos]
    return sum((right[p] + 1) * (left[q] + 1) for p, q in ((0, 1), (1, 2), (0, 2)))


def _probe_seeds(sig, stream: random.Random, profile: list) -> list:
    """Draw op seeds from ``stream`` until each proxy value of ``profile`` is
    matched once, so every benchmark seed runs the same proxy mix."""
    need: dict = {}
    for v in profile:
        need[v] = need.get(v, 0) + 1
    found: dict = {v: [] for v in need}
    missing = len(profile)
    for _ in range(200 * len(profile)):
        s = stream.getrandbits(31)
        v = _crossing_proxy(sig, s)
        if v in need and len(found[v]) < need[v]:
            found[v].append(s)
            missing -= 1
            if not missing:
                break
    if missing:
        raise RuntimeError(f"probe input generation for {sig.name} did not converge")
    out = [s for v in need for s in found[v]]
    stream.shuffle(out)
    return out


def common_trials(sig, count: int) -> list:
    """(op seed, proxy) of the first ``count`` trials with proxy at most
    ``PROBE_PROXY_CAP`` of a reference stream, the same for every seed."""
    stream = random.Random(f"profile:{sig.name}")
    out = []
    while len(out) < count:
        s = stream.getrandbits(31)
        v = _crossing_proxy(sig, s)
        if v <= PROBE_PROXY_CAP:
            out.append((s, v))
    return out


class Shape(NamedTuple):
    kind: str  # "normalize", "affine" or "map"
    name: str  # algebra or morphism
    n: int
    template: str
    a: int
    b: int
    same: bool  # both letters carry the same index


def _deep_shapes() -> list:
    shapes = []
    for (alg, n), pairs in _DEEP_LADDER.items():
        for a, b in pairs:
            for same in (True, False):
                shapes.append(Shape("normalize", alg, n, _RATIONAL[alg], a, b, same))
    for alg, tmpl in _AFFINE.items():
        for n, ks in _AFFINE_K.items():
            shapes += [Shape("affine", alg, n, tmpl, k, 0, False) for k in ks]
    for name, tmpl in _MAPS.items():
        shapes += [Shape("map", name, 2, tmpl, a, b, False) for a, b in _MAP_PAIRS]
    return shapes


def _shape_variants(shape: Shape) -> list:
    n = shape.n
    if shape.kind == "affine":
        exprs = [shape.template.format(n=n, j=j, k=shape.a) for j in (1, n)]
    else:
        exprs = [shape.template.format(i=i, j=j, a=shape.a, b=shape.b)
                 for i, j in itertools.product(range(1, n + 1), repeat=2) if (i == j) == shape.same]
    if shape.kind == "map":
        return [("map", "--name", shape.name, "--n", str(n), "--expr", e) for e in exprs]
    return [("normalize", "--algebra", shape.name, "--n", str(n), "--expr", e) for e in exprs]


def deep_pool() -> list:
    return [cmd for shape in _deep_shapes() for cmd in _shape_variants(shape)]


def suite_pool() -> list:
    return list(SUITE_FIXED) + [cmd for pool in SUITE_POOLS for cmd in pool]


# -- building the ops (part of set-up) ----------------------------------------------

def build(workload: str, seed: int, scale: float = 1.0) -> list:
    """The op list of one pass; also builds the signatures, modules and
    morphisms the ops use.  ``scale`` shrinks the op counts for self-tests."""
    if workload == "probe":
        ops = []
        common = max(1, round(PROBE_COMMON * scale))
        drawn_count = max(1, round(PROBE_DRAWN * scale))
        for name in PROBE_ALGEBRAS:
            sig = algebras.by_name(name, PROBE_N)
            rng = _rng(seed, name)
            core = common_trials(sig, common)
            drawn = _probe_seeds(sig, rng, [v for _, v in core[:drawn_count]])
            # The common trials run first, in a fixed order, so they fill the
            # memo tables the same way for every seed.
            ops += [Op("probe", probe_key(sig.name), (sig, s)) for s, _ in core]
            ops += [Op("probe", probe_key(sig.name), (sig, s)) for s in drawn]
        return ops
    if workload == "deep":
        rng = _rng(seed, "deep")
        shapes = _deep_shapes()
        if scale < 1:
            shapes = shapes[:: max(1, round(1 / scale))]
        # Every index variant of every shape runs, in order of total degree,
        # so the memo entries a pass computes, and which op pays for the ones
        # ops share, are the same for every seed.  The seed orders the ops of
        # one degree.
        keyed = [(shape.a + shape.b, rng.random(), cmd)
                 for shape in shapes for cmd in _shape_variants(shape)]
        cmds = [cmd for _, _, cmd in sorted(keyed)]
        for cmd in cmds:
            n = int(cmd[4])
            if cmd[0] == "map":
                morphisms.named_morphism(cmd[2], n)
            else:
                algebras.by_name(cmd[2], n)
        return [Op("cli", cli_key(cmd), tuple(argv(cmd))) for cmd in cmds]
    if workload == "suite":
        rng = _rng(seed, "suite")
        cmds = list(SUITE_FIXED) + [rng.choice(pool) for pool in SUITE_POOLS]
        if scale < 1:
            cmds = [c for c in cmds if c[0] not in ("verify-modules", "verify-morphisms")]
        rng.shuffle(cmds)
        for name in ("dahca", "sdaha", "trigdahca", "trigsdaha"):
            algebras.by_name(name, 4)
        for n in (3, 4):
            morphisms.inverse_pairs(n)
        dunkl.basic_spin(3)
        dunkl.regular_spin(3)
        ops = [Op("cli", cli_key(cmd), tuple(argv(cmd))) for cmd in cmds]
        perms = sorted(all_perms(COCYCLE_N))
        sg = spin_group(COCYCLE_N)
        per_chunk = max(1, round(COCYCLE_TRIPLES * scale))
        for c in range(COCYCLE_CHUNKS if scale >= 1 else 2):
            triples = tuple(tuple(rng.choice(perms) for _ in range(3)) for _ in range(per_chunk))
            ops.append(Op("cocycle", f"cocycle n={COCYCLE_N} chunk {c}", (sg, triples)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# -- running and checking --------------------------------------------------------

def execute(op: Op):
    """The timed part of an op; returns its raw result."""
    if op.kind == "probe":
        sig, op_seed = op.args
        return sh.confluence_probe(sig, trials=1, degree_bound=PROBE_DEGREE, seed=op_seed)
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = sh.cli.main(list(op.args))
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue()
    if op.kind == "cocycle":
        return _cocycle(*op.args)
    raise ValueError(f"unknown op kind {op.kind!r}")


def _cocycle(sg, triples) -> list:
    """beta(p,q) beta(pq,r) = beta(q,r) beta(p,qr) for each triple, with every
    beta cross-checked against the word-rewriting oracle; returns the
    triples that disagree."""
    bad = []
    for p, q, r in triples:
        pairs = ((p, q), (compose(p, q), r), (q, r), (p, compose(q, r)))
        vals = [sg.beta(a, b) for a, b in pairs]
        oracle = [sg.beta_by_words(a, b) for a, b in pairs]
        if vals != oracle or vals[0] * vals[1] != vals[2] * vals[3]:
            bad.append((p, q, r))
    return bad


def check(op: Op, result, golden: dict) -> str | None:
    """None when the op's result is correct, else the reason it is not."""
    if op.kind == "probe":
        if not result.ok:
            return "associativity or idempotence probe failed"
        text = json.dumps(result.to_json(), sort_keys=True)
        return None if golden.get(op.key) == digest(text) else "digest differs from golden"
    if op.kind == "cli":
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        if golden.get(op.key) != digest(text):
            return "digest differs from golden"
        if op.args[0].startswith("verify-"):
            summary = json.loads(text)["summary"]
            if summary["fail"] or not summary["pass"]:
                return "verification reported failures or checked nothing"
        return None
    if op.kind == "cocycle":
        return f"cocycle oracle disagrees on {result[:3]}" if result else None
    return f"unknown op kind {op.kind!r}"
