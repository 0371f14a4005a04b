"""Spans and counters around the calls into each layer of ``spinhecke``.

The tracer wraps public functions and methods of the package from outside,
after import; the package itself has no tracing hook.  Each wrapped call is
timed; its self time is its duration minus the time of the wrapped calls it
made.  Hot leaf calls (``Scalar`` arithmetic, ``mul_mono``, ``Element``
products, Dunkl actions, cocycle lookups) are aggregated into count, total
and self time; every other call also keeps one span record
``(id, name, start, end, parent, op)`` in memory, written out when the pass
ends.

Memo-table sizes are read from private attributes found on live objects.
When a later version renames a table, the reader returns ``None`` and the
metric is left out; it never fails the run.
"""

from __future__ import annotations

import gc
import json
import sys
import time

# (layer module, owner, attribute, span name, leaf)
# ``owner`` is a class name inside the module, or None for a module function.
TARGETS = (
    ("scalars", "Scalar", "__mul__", "scalars.mul", True),
    ("scalars", "Scalar", "__add__", "scalars.add", True),
    ("scalars", "Scalar", "__sub__", "scalars.add", True),
    ("scalars", "Scalar", "__eq__", "scalars.eq", True),
    ("scalars", "Scalar", "__truediv__", "scalars.div", True),
    ("structure", "SpinGroup", "beta", "structure.beta", True),
    ("structure", "SpinGroup", "beta_by_words", "structure.beta_by_words", True),
    ("engine", "AlgebraSignature", "mul_mono", "engine.mul_mono", True),
    ("engine", "AlgebraSignature", "normalize", "engine.normalize", True),
    ("engine", "Element", "__mul__", "engine.elem_mul", True),
    ("engine", None, "confluence_probe", "engine.probe", False),
    ("engine", "AlgebraSignature", "relations", "algebras.relations", False),
    ("engine", None, "verify_relations", "algebras.verify_relations", False),
    ("clifford_family", None, "center_check", "families.center_check", False),
    ("clifford_family", None, "affine_embedding_check", "families.embedding_check", False),
    ("spin_family", None, "spin_affine_embedding_check", "families.embedding_check", False),
    ("morphisms", None, "apply_morphism", "morphisms.apply", False),
    ("morphisms", None, "_apply_to_terms", "morphisms.apply", False),
    ("morphisms", None, "check_homomorphism", "morphisms.check", False),
    ("morphisms", None, "check_inverse_pair", "morphisms.check", False),
    ("dunkl", None, "act_token", "dunkl.act", True),
    ("dunkl", None, "verify_module", "dunkl.verify_module", False),
    ("dunkl", None, "oracle_equivalence", "dunkl.oracle", False),
    ("dunkl", None, "oracle_equivalence_x", "dunkl.oracle", False),
    ("exprparse", None, "parse_expression", "exprparse.parse", False),
    ("render", None, "element_str", "render.element_str", False),
    ("render", None, "element_json", "render.element_json", False),
    ("cli", None, "main", "cli.main", False),
)

# The QOmega product is only counted: wrapping it in a timer would cost more
# than the product itself, so its time stays with the caller.
COUNTED = (("scalars", "QOmega", "__mul__", "scalars.qomega_mul"),)


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.spans: list = []
        self.counters: dict = {"engine.terms_out": 0, "render.chars_out": 0}
        self.op = -1
        self._acc = [0.0]  # child time of each open call; [0] is the root
        self._ids = [None]  # ids of the open non-leaf spans

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, leaf, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0]) if leaf else None
        acc, ids, spans, clock = self._acc, self._ids, self.spans, time.perf_counter
        tracer = self

        if leaf:
            def wrapper(*args):
                acc.append(0.0)
                t0 = clock()
                try:
                    out = fn(*args)
                finally:
                    dt = clock() - t0
                    child = acc.pop()
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - child
                    acc[-1] += dt
                if after is not None:
                    after(out)
                return out
        else:
            def wrapper(*args, **kwargs):
                span_id = len(spans)
                spans.append(None)
                parent = ids[-1]
                ids.append(span_id)
                acc.append(0.0)
                span_name = name(args) if callable(name) else name
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    child = acc.pop()
                    ids.pop()
                    st = tracer.stats.setdefault(span_name, [0, 0.0, 0.0])
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - child
                    acc[-1] += dt
                    spans[span_id] = (span_id, span_name, t0, t1, parent, tracer.op)
                if after is not None:
                    after(out)
                return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        counters = self.counters
        counters[name] = 0

        def wrapper(*args):
            counters[name] += 1
            return fn(*args)

        return wrapper

    def install(self, package) -> None:
        """Wrap every target found in the loaded ``package`` modules; a target
        that no longer exists is skipped."""
        mods = {k.rsplit(".", 1)[-1]: m for k, m in sys.modules.items()
                if k == package.__name__ or k.startswith(package.__name__ + ".")}
        after = {
            "engine.elem_mul": self._count_terms,
            "render.element_str": self._count_chars,
            "render.element_json": self._count_json_chars,
        }
        for mod_name, owner, attr, name, leaf in TARGETS:
            span_name = _probe_span_name if name == "engine.probe" else name
            self._patch(mods, mod_name, owner, attr,
                        lambda fn, n=span_name, lf=leaf, a=after.get(name): self._wrap(fn, n, lf, a))
        for mod_name, owner, attr, name in COUNTED:
            self._patch(mods, mod_name, owner, attr, lambda fn, n=name: self._count(fn, n))

    def _patch(self, mods, mod_name, owner, attr, make) -> None:
        mod = mods.get(mod_name)
        if owner:
            cls = getattr(mod, owner, None)
            original = vars(cls).get(attr) if isinstance(cls, type) else None
            if original is not None:
                setattr(cls, attr, make(original))
            return
        original = getattr(mod, attr, None)
        if original is None:
            return
        wrapper = make(original)
        for m in mods.values():  # every module that imported the name
            for key, val in list(vars(m).items()):
                if val is original:
                    setattr(m, key, wrapper)

    def reset(self) -> None:
        """Forget what set-up did; memo tables keep their contents."""
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        for k in self.counters:
            self.counters[k] = 0
        self.spans.clear()

    def _count_terms(self, out) -> None:
        self.counters["engine.terms_out"] += len(getattr(out, "terms", ()))

    def _count_chars(self, out) -> None:
        self.counters["render.chars_out"] += len(out)

    def _count_json_chars(self, out) -> None:
        self.counters["render.chars_out"] += sum(
            len(t["coeff"]) + len(t["mono"]) for t in out.get("terms", ()))

    # -- results --------------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, *names) -> float:
        return sum(self.stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def _probe_span_name(args) -> str:
    sig = args[0] if args else None
    return f"engine.probe_s.{getattr(sig, 'name', '?')}"


# -- memo-table readers --------------------------------------------------------

def _instances(package, mod_name, cls_name) -> list | None:
    mod = sys.modules.get(f"{package}.{mod_name}")
    cls = getattr(mod, cls_name, None)
    if not isinstance(cls, type):
        return None
    return [o for o in gc.get_objects() if type(o) is cls]


def _table_total(objs, attr) -> int | None:
    if objs is None:
        return None
    total = 0
    for o in objs:
        table = getattr(o, attr, None)
        if table is None:
            return None
        total += len(table)
    return total


def memo_sizes(package: str = "spinhecke") -> dict:
    """Sizes of the private memo tables; a table that cannot be found reads
    as ``None``."""
    scalars = sys.modules.get(f"{package}.scalars")
    mul_cache = getattr(scalars, "_MUL_CACHE", None)
    sigs = _instances(package, "engine", "AlgebraSignature")
    spin = _instances(package, "structure", "SpinGroup")
    return {
        "scalars.mul_memo_entries": len(mul_cache) if isinstance(mul_cache, dict) else None,
        "engine.norm_memo_entries": _table_total(sigs, "_norm_cache"),
        "engine.mul_memo_entries": _table_total(sigs, "_mul_cache"),
        "morphisms.tensor_memo_entries": _table_total(
            _instances(package, "morphisms", "TensorSignature"), "_mul_cache"),
        "structure.beta_memo_entries": _table_total(spin, "_beta_cache"),
        "structure.kappa_entries": _table_total(spin, "_K"),
        "dunkl.module_cache_entries": _table_total(
            _instances(package, "dunkl", "FiniteModule"), "_cache"),
    }
