"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps the public functions of each traced module of
``multlat`` and rebinds every name under which a package module holds
them (``cli`` imports ``lemma_suite`` by name, for instance). It also wraps
the L-checks, the ``search`` finders, ``MultiplicativeLattice.residual`` and
the getters of the lazy caches, so that a cache's cost is charged to the
cache and not to whichever check touches it first. ``MClosedSet.mask`` and
the ring models' ``ring_elements`` are counted, not timed. Generator
functions are not wrapped: their body runs while the caller iterates, so
its cost stays with the caller.

Each wrapped call adds to its span's call count and self time (its
duration minus that of the wrapped calls it made). Spans are aggregated per
op in memory and written out at the end of the run; an op's time that no
span covers is reported as unattributed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

import multlat
from workloads import SEARCH_PROPERTIES

TRACED_MODULES = (
    "order", "multiplicative", "classify", "lemmas", "ringbridge",
    "search", "report", "specfile", "cli", "corpus",
)

DERIVED_CACHES = ("_radicals", "_prime_mask", "_max_mask", "_nil_mask", "_zdiv_mask")

ORACLE_CALLS = tuple(f"ringbridge.ring_is_{x}_ideal" for x in "rnj")
ORACLE_SPANS = ORACLE_CALLS + tuple(
    f"ringbridge.ring_{x}" for x in ("nilpotents", "jacobson", "zero_divisors")
)


def axiom_tuples(n: int) -> int:
    """Tuples ``attach_multiplication`` examines on an n-element table that passes.

    Entry range n^2, commutativity n(n-1)/2, identity and annihilation 2n,
    distributivity n * n(n-1)/2, associativity n^3, product below meet
    n(n+1)/2. Computed from n, not counted by the library.
    """
    return n * n + n * (n - 1) // 2 + 2 * n + n * n * (n - 1) // 2 + n ** 3 + n * (n + 1) // 2


def _plain(obj):
    # The function behind an lru_cache wrapper, or obj itself.
    return getattr(obj, "__wrapped__", obj) if hasattr(obj, "cache_clear") else obj


class Tracer:
    def __init__(self):
        self._recs: dict[str, list] = {}  # span name -> [calls, self seconds]
        self._stack = [0.0]  # per open span: time spent in its wrapped callees
        self._undo: list = []
        self.axiom_tuples = 0
        self.ops: list[dict] = []  # per-op records since the last reset

    # -- wrappers ------------------------------------------------------------------

    def _rec(self, name: str) -> list:
        return self._recs.setdefault(name, [0, 0.0])

    def timed(self, name: str, fn):
        rec = self._rec(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                rec[0] += 1
                rec[1] += dt - inner

        functools.update_wrapper(traced, _plain(fn))
        return traced

    def counted(self, name: str, fn):
        rec = self._rec(name)

        def count(*args, **kwargs):
            rec[0] += 1
            return fn(*args, **kwargs)

        return count

    def _patch(self, owner, attr: str, new) -> None:
        if isinstance(owner, dict):
            old = owner[attr]
            owner[attr] = new
            self._undo.append(lambda: owner.__setitem__(attr, old))
        else:
            old = vars(owner)[attr]
            setattr(owner, attr, new)
            self._undo.append(lambda: setattr(owner, attr, old))

    # -- install / uninstall ---------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {short: importlib.import_module(f"multlat.{short}") for short in TRACED_MODULES}
        wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                fn = _plain(obj)
                public = not name.startswith("_")
                check = name.startswith("_check_l")
                if not (public or check) or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn):
                    continue
                span = f"lemmas.L{name[8:]}" if check else f"{short}.{name}"
                target = obj
                if span == "multiplicative.attach_multiplication":
                    target = self._count_axioms(obj)
                wrapped[id(obj)] = (obj, self.timed(span, target))
        everywhere = [multlat, *mods.values()]
        for mod in everywhere:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])
        finders = mods["search"]._FINDERS
        for prop, fn in list(finders.items()):
            self._patch(finders, prop, self.timed(f"search.{prop}", fn))

        ML = mods["multiplicative"].MultiplicativeLattice
        self._patch(ML, "residual", self.timed("multiplicative.residual", ML.residual))
        for attr in ("_prod_below", *DERIVED_CACHES):
            old = vars(ML)[attr]
            span = "multiplicative.prod_below" if attr == "_prod_below" else "multiplicative.derived"
            new = functools.cached_property(self.timed(span, old.func))
            new.__set_name__(ML, attr)
            self._patch(ML, attr, new)
        MC = mods["classify"].MClosedSet
        self._patch(MC, "mask", property(self.counted("classify.mask", vars(MC)["mask"].fget)))
        rb = mods["ringbridge"]
        for model in (rb.ZnIdealModel, rb.ProductRingModel):
            self._patch(model, "ring_elements",
                        self.counted("ringbridge.ring_elements", model.ring_elements))

    def _count_axioms(self, attach):
        def attach_counting(lattice, *args, **kwargs):
            M = attach(lattice, *args, **kwargs)
            self.axiom_tuples += axiom_tuples(lattice.size)
            return M

        return attach_counting

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- ops -----------------------------------------------------------------------------

    @contextlib.contextmanager
    def op(self, key: str):
        """Root span of one op; appends the op's aggregated spans to ``ops``."""
        for rec in self._recs.values():
            rec[0] = 0
            rec[1] = 0.0
        self.axiom_tuples = 0
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            inner = self._stack.pop()
            self.ops.append({
                "op": key,
                "wall_s": wall,
                "unattributed_s": wall - inner,
                "axiom_tuples": self.axiom_tuples,
                "spans": {n: list(r) for n, r in self._recs.items() if r[0]},
            })


# -- per-layer metrics ----------------------------------------------------------------


def _self_s(spans: dict, names) -> float:
    return sum(spans[n][1] for n in names if n in spans)


def _calls(spans: dict, names) -> int:
    return sum(spans[n][0] for n in names if n in spans)


def pass_metrics(ops: list[dict], pass_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, from its op records."""
    spans: dict[str, list] = {}
    for rec in ops:
        for name, (calls, self_s) in rec["spans"].items():
            total = spans.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += self_s

    def by_module(short: str) -> list[str]:
        return [n for n in spans if n.startswith(short + ".")]

    out: dict[str, tuple[float, str]] = {}

    def s(metric: str, names) -> None:
        out[f"{metric}.s"] = (_self_s(spans, names), "s")

    def calls(metric: str, names) -> None:
        out[f"{metric}.calls"] = (_calls(spans, names), "count")

    for name in ("order.build_order", "order.validate_lattice",
                 "multiplicative.attach_multiplication", "multiplicative.prod_below",
                 "multiplicative.residual", "multiplicative.derived", "classify.x_witness",
                 "order.mask_of"):
        s(name, [name])
    calls("order.build_order", ["order.build_order"])
    calls("multiplicative.residual", ["multiplicative.residual"])
    calls("classify.x_witness", ["classify.x_witness"])
    calls("classify.mask", ["classify.mask"])
    out["multiplicative.axiom_tuples"] = (sum(r["axiom_tuples"] for r in ops), "computed-tuples")
    for k in range(1, 17):
        s(f"lemmas.L{k}", [f"lemmas.L{k}"])
    s("ringbridge.oracle", ORACLE_SPANS)
    calls("ringbridge.oracle", ORACLE_CALLS)
    calls("ringbridge.ring_elements", ["ringbridge.ring_elements"])
    s("ringbridge.divisors", ["ringbridge.divisors"])
    s("ringbridge.build", ["ringbridge.ideal_lattice_zn", "ringbridge.ideal_lattice_product"])
    for prop in SEARCH_PROPERTIES:
        s(f"search.{prop}", [f"search.{prop}"])
    s("report.classify_lattice", ["report.classify_lattice"])
    s("report.report_to_json", ["report.report_to_json"])
    s("specfile.load_path", by_module("specfile"))  # the layer, entered through load_path
    s("cli.self", by_module("cli"))
    for short in TRACED_MODULES:
        if short not in ("specfile", "cli"):  # named above in full
            s(f"{short}.total", by_module(short))
    op_wall = sum(r["wall_s"] for r in ops)
    out["trace.unattributed.s"] = (sum(r["unattributed_s"] for r in ops), "s")
    out["trace.harness.s"] = (pass_wall - op_wall, "s")
    out["trace.pass_wall.s"] = (pass_wall, "s")
    return out
