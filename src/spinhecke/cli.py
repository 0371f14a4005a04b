"""Command-line front end: deterministic verification suites and exact
computations over the eight presented algebras.

Every command emits either readable text or the versioned JSON report
schema ``spinhecke-report/1``; repeated runs with identical inputs produce
byte-identical output.  Exit codes: 0 all checks pass, 1 check failures,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

from . import algebras
from . import clifford_family as cf
from . import dunkl as dk
from . import morphisms as mo
from . import spin_family as sf
from .engine import AlgebraError, verify_relations
from .exprparse import ParseError, parse_expression, parse_scalar
from .render import element_json, element_str
from .reports import Report
from .structure import all_perms, spin_group

SCHEMA = "spinhecke-report/1"


_encode_str = json.encoder.encode_basestring_ascii


def _json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)``
    in one pass, for dicts with str keys, lists, tuples and int; ``pad`` is
    the newline and indent of the enclosing level.  A str item is encoded
    in place, as most leaves are; any other leaf goes to ``json.dumps``."""
    inner = pad + " "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            v = obj[k]
            text = _encode_str(v) if type(v) is str else _json(v, inner)
            items.append(_encode_str(k) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_encode_str(v) if type(v) is str else _json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if type(obj) is int:
        return int.__repr__(obj)
    return json.dumps(obj)


def _emit(fmt: str, payload, text_lines) -> None:
    """Print the JSON report or the text lines.  Both are functions of no
    arguments, and only the one for ``fmt`` is called."""
    if fmt == "json":
        print(_json(payload()))
    else:
        for line in text_lines():
            print(line)


def _payload(command: str, algebra: str, n: int, **fields) -> dict:
    return {"schema": SCHEMA, "command": command, "algebra": algebra, "n": n, **fields}


def _report_text(report: Report):
    rep = report.sorted()
    for r in rep.results:
        status = "pass" if r.ok else "FAIL"
        line = f"{status}  {r.id}"
        if not r.ok and r.witness:
            line += f"  [{r.witness}]"
        yield line
    yield f"summary: {rep.n_pass} pass, {rep.n_fail} fail"


def _algebra_from_args(args):
    u = parse_scalar(args.u).constant_value() if args.u is not None else None
    return algebras.by_name(args.algebra, args.n, u)


def _finish_report(args, command: str, sig_name: str, n: int, report: Report) -> int:
    def payload():
        body = report.to_json()
        return _payload(command, sig_name, n, results=body["results"], summary=body["summary"])

    _emit(args.format, payload, lambda: _report_text(report))
    return 0 if report.ok else 1


# -- subcommands -------------------------------------------------------------

def _cmd_normalize(args) -> int:
    sig = _algebra_from_args(args)
    elem = parse_expression(args.expr, sig)
    _emit(
        args.format,
        lambda: _payload("normalize", sig.name, sig.n, result=element_json(elem)),
        lambda: [element_str(elem)],
    )
    return 0


def _cmd_verify_relations(args) -> int:
    sig = _algebra_from_args(args)
    report = verify_relations(sig)
    return _finish_report(args, "verify-relations", sig.name, sig.n, report)


def _cmd_verify_morphisms(args) -> int:
    names = [args.name] if args.name else ["PhiFin", "PhiHat", "Phi", "PhiTr"]
    report = Report(f"morphisms[n={args.n}]")
    for name in names:
        m = mo.named_morphism(name, args.n)
        hom = mo.check_homomorphism(m)
        for r in hom.results:
            report.add(f"{name}:{r.id}", r.ok, r.witness)
    if not args.name:
        for label, f, g, fb in mo.inverse_pairs(args.n):
            inv = mo.check_inverse_pair(f, g, fb)
            for r in inv.results:
                report.add(f"{label}:{r.id}", r.ok, r.witness)
    return _finish_report(args, "verify-morphisms", "-", args.n, report)


def _cmd_verify_modules(args) -> int:
    if args.degree_bound < 0:
        raise ValueError(f"--degree-bound must be non-negative, got {args.degree_bound}")
    family = args.algebra
    make_sig, module, make_module, dim = dk._MODULES[family]
    if args.module not in (None, module):
        raise AlgebraError(f"{family} needs --module {module}")
    sig = make_sig(args.n)  # refuses n < 2 before the module is built
    if args.n > 5:  # dahca at n = 6, degree 2: 7 s and 124 MB; sdaha's module has n! vectors
        raise AlgebraError(
            f"verify-modules checks 2^n or n! module vectors; --n {args.n} exceeds the limit 5")
    # C(n+d, d) polynomials times dim W: sdaha n=5 d=2 has 2520 (3.1 s, 93 MB),
    # dahca n=5 d=4 has 4032 (13.8 s, 159 MB)
    vectors = math.comb(args.n + args.degree_bound, args.degree_bound) * dim(args.n)
    if vectors > 2600:
        raise AlgebraError(
            f"verify-modules checks C(n+d, d) * (2^n or n!) vectors; --n {args.n} "
            f"--degree-bound {args.degree_bound} gives {vectors}, over the limit 2600")
    W = make_module(args.n)
    columns = dk.ColumnTable(W, "y", sig.u_scalar)  # both checks read the same columns
    report = dk.verify_module(family, W, args.degree_bound, columns)
    report.extend(dk.oracle_equivalence(family, W, args.degree_bound, columns=columns))
    return _finish_report(args, "verify-modules", family, args.n, report)


def _cmd_center_check(args) -> int:
    sig = _algebra_from_args(args)
    candidate = parse_expression(args.expr, sig)
    report = cf.center_check(candidate)
    return _finish_report(args, "center-check", sig.name, sig.n, report)


def _cmd_embedding_check(args) -> int:
    alpha = parse_scalar(args.alpha)
    family = args.algebra.lower()
    if family == "sdaha":
        report = sf.spin_affine_embedding_check(alpha, args.n)
    else:
        report = cf.affine_embedding_check(alpha, args.n)
    return _finish_report(args, "embedding-check", family, args.n, report)


def _cmd_cocycle_table(args) -> int:
    if args.n < 2:
        raise AlgebraError("rank n must be at least 2")
    if args.n > 6:  # (n!)^2 rows: 25.4M at n = 7
        raise AlgebraError(f"cocycle-table prints (n!)^2 rows; --n {args.n} exceeds the limit 6")
    sg = spin_group(args.n)
    perms = sorted(all_perms(args.n))
    table = [(p, q, sg.beta(p, q)) for p in perms for q in perms]
    _emit(
        args.format,
        lambda: _payload("cocycle-table", "SpinSym", args.n,
                         result=[{"p": list(p), "q": list(q), "beta": b} for p, q, b in table]),
        lambda: (f"beta{p},{q} = {b:+d}" for p, q, b in table),
    )
    return 0


def _cmd_act(args) -> int:
    family = "sdaha" if args.op == "dunkl-xi" else "dahca"
    make_sig, module, make_module, dim = dk._MODULES[family]
    sig = make_sig(args.n)
    side = "x" if args.op == "dunkl-y" else "y"
    if args.module != module:
        raise AlgebraError(f"{args.op} needs --module {module}")
    if dim(args.n) > 400_000:  # basic-spin at n = 19: 1.8 s and 191 MB, doubling per rank
        raise AlgebraError(f"act builds the {module} module of {dim(args.n)} vectors at "
                           f"--n {args.n}, over the limit 400000")
    W = make_module(args.n)
    if not 1 <= args.i <= args.n:
        raise AlgebraError(f"--i {args.i} out of range 1..{args.n}")
    if not 0 <= args.vector < W.dim():
        raise AlgebraError(f"--vector {args.vector} out of range 0..{W.dim() - 1}")
    poly_elem = parse_expression(args.expr, sig)
    terms = {}
    for (left, grp, cliff, right), coeff in poly_elem.terms.items():
        slot = right if side == "y" else left
        other = left if side == "y" else right
        if any(other) or grp != tuple(range(1, args.n + 1)) or any(cliff):
            raise AlgebraError(f"--expr must be a polynomial in the {side} variables")
        terms[(slot, args.vector)] = coeff
    vec = dk.InducedVector(W, side, terms)
    text = dk.act_token((args.op.split("-")[1], args.i), vec, sig.u_scalar).render()
    _emit(args.format, lambda: _payload("act", sig.name, args.n, result=text), lambda: [text])
    return 0


def _cmd_map(args) -> int:
    m = mo.named_morphism(args.name, args.n)
    elem = parse_expression(args.expr, m.source)
    image = mo.apply_morphism(m, elem)
    _emit(
        args.format,
        lambda: _payload("map", m.target.name, args.n, result=element_json(image),
                         morphism=args.name),
        lambda: [element_str(image)],
    )
    return 0


# -- argument plumbing --------------------------------------------------------

def _add_common(p, algebra=True, expr=False):
    if algebra:
        p.add_argument("--algebra", required=True, help="one of " + ", ".join(algebras.ALGEBRA_NAMES))
    p.add_argument("--n", type=int, required=True, help="rank")
    p.add_argument("--u", default=None, help="specialize u (e.g. 0, 1, 1/2); default symbolic")
    if expr:
        p.add_argument("--expr", required=True, help="expression source text")
    p.add_argument("--format", choices=("text", "json"), default="text")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; each ``parse_args`` call returns a
    fresh namespace, so :func:`main` reuses it."""
    ap = argparse.ArgumentParser(
        prog="spinhecke",
        description="Exact computations in the double affine Hecke algebras of the spin symmetric group.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("normalize", help="PBW normal form of an expression")
    _add_common(p, expr=True)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("verify-relations", help="check every defining relation instance")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_relations)

    p = sub.add_parser("verify-morphisms", help="homomorphism and inverse-pair checks")
    p.add_argument("--name", default=None, help="one of " + ", ".join(mo.MORPHISM_NAMES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify_morphisms)

    p = sub.add_parser("verify-modules", help="Dunkl operator module checks")
    p.add_argument("--algebra", required=True, choices=("dahca", "sdaha"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--module", choices=("basic-spin", "regular-spin"), default=None)
    p.add_argument("--degree-bound", type=int, default=4)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify_modules)

    p = sub.add_parser("center-check", help="is the expression in the even center?")
    _add_common(p, expr=True)
    p.set_defaults(func=_cmd_center_check)

    p = sub.add_parser("embedding-check", help="affine Hecke subalgebra embedding")
    p.add_argument("--algebra", required=True, choices=("dahca", "sdaha"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", default="0", help="the parameter alpha (scalar, e.g. 0, 1, u)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_embedding_check)

    p = sub.add_parser("cocycle-table", help="the full sign cocycle table of CS_n^-")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_cocycle_table)

    p = sub.add_parser("act", help="apply a Dunkl operator to an induced vector")
    p.add_argument("--op", required=True, choices=("dunkl-x", "dunkl-y", "dunkl-xi"))
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--module", default="basic-spin", choices=("basic-spin", "regular-spin"))
    p.add_argument("--vector", type=int, default=0, help="basis index of the W factor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("map", help="apply a named morphism to an expression")
    p.add_argument("--name", required=True, choices=mo.MORPHISM_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_map)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
