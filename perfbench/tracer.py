"""Per-layer tracing of profcalc from outside the program.

`Tracer.install()` replaces each traced public function with a wrapper in
every profcalc module namespace that binds it (so `coend` is caught whether
it is called from colim, presheaf, prof or day), and wraps the `__init__` of
the traced classes.  A wrapper records one span -- name, parent span, start
and end -- and charges its duration, minus the time covered by its child
spans, to the span's self time.  Sizes are read from return values after the
span has ended, and the time spent reading them is not charged to the
parent.  `label_key` is counted without spans.  `uninstall()` restores the
originals, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import statistics
import sys
import time

import profcalc.colim as colim
import profcalc.day as day
import profcalc.fincat as fincat
import profcalc.presheaf as presheaf
import profcalc.prof as prof
import profcalc.relpsm as relpsm
import profcalc.serialize as serialize
import profcalc.suites as suites
import profcalc.symmon as symmon

# Per-layer metric names and units, in report order.
LAYER_METRICS = {
    "fincat.label_key.calls": "count",
    "fincat.FinSet.calls": "count",
    "fincat.FinSet.self_s": "s",
    "fincat.FinFn.calls": "count",
    "fincat.FinFn.self_s": "s",
    "colim.coend.calls": "count",
    "colim.coend.self_s": "s",
    "colim.QuotientSet.calls": "count",
    "colim.QuotientSet.self_s": "s",
    "colim.QuotientSet.carrier": "count",
    "colim.QuotientSet.classes": "count",
    "colim.QuotientSet.classes_per_carrier": "ratio",
    "colim.induced_map.self_s": "s",
    "presheaf.kan_extend.calls": "count",
    "presheaf.kan_extend.distinct_args": "count",
    "presheaf.kan_extend.self_s": "s",
    "presheaf.all_psh_maps.self_s": "s",
    "prof.prof_compose.calls": "count",
    "prof.prof_compose.self_s": "s",
    "prof.kleisli_compose.calls": "count",
    "prof.kleisli_compose.self_s": "s",
    "prof.mu_map.self_s": "s",
    "relpsm.check.self_s": "s",
    "relpsm.enumerate.cells_returned": "count",
    "day.day_convolve.calls": "count",
    "day.day_convolve.self_s": "s",
    "symmon.subst_compose.calls": "count",
    "symmon.subst_compose.self_s": "s",
    "symmon.subst_compose.carrier": "count",
    "symmon.subst_compose.classes": "count",
    "symmon.subst_compose.classes_per_carrier": "ratio",
    "symmon.check_operad.self_s": "s",
    "serialize.loads.self_s": "s",
    "serialize.dumps.self_s": "s",
    "serialize.bytes": "bytes",
    "suites.run_suite.self_s": "s",
    "trace.overhead_frac": "ratio",
}

_MISSING = object()


def _cat_key(cat):
    # FinCat.__hash__ calls label_key, which would inflate its count.
    return (
        cat.objects,
        frozenset(cat.hom.items()),
        frozenset(cat.ids.items()),
        frozenset(cat.comp.items()),
    )


def _psh_key(p):
    return (_cat_key(p.base), frozenset(p.values.items()), frozenset(p.restriction.items()))


def _pvf_key(f):
    return (
        _cat_key(f.source),
        _cat_key(f.target_base),
        frozenset((x, _psh_key(p)) for x, p in f.on_obj.items()),
        frozenset(
            (m, _psh_key(phi.source), _psh_key(phi.target), frozenset(phi.components.items()))
            for m, phi in f.on_mor.items()
        ),
    )


class PassStats:
    """Counters and spans of one traced pass."""

    def __init__(self):
        self.spans: list = []  # index = span id; (parent id, name, start, end)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.sizes: dict[str, int] = {}
        self.label_key_calls = 0
        self.kan_args: set = set()

    def add_size(self, name: str, amount: int) -> None:
        self.sizes[name] = self.sizes.get(name, 0) + amount

    def counts(self) -> dict[str, float]:
        """The count and size metrics, which repeat exactly between traced runs."""

        def ratio(num: str, den: str) -> float:
            total = self.sizes.get(den, 0)
            return self.sizes.get(num, 0) / total if total else 0.0

        out = {"fincat.label_key.calls": self.label_key_calls}
        for name in LAYER_METRICS:
            layer, _, kind = name.rpartition(".")
            if kind == "calls" and layer != "fincat.label_key":
                out[name] = self.calls.get(layer, 0)
        for name in (
            "colim.QuotientSet.carrier",
            "colim.QuotientSet.classes",
            "symmon.subst_compose.carrier",
            "symmon.subst_compose.classes",
            "relpsm.enumerate.cells_returned",
            "serialize.bytes",
        ):
            out[name] = self.sizes.get(name, 0)
        out["colim.QuotientSet.classes_per_carrier"] = ratio(
            "colim.QuotientSet.classes", "colim.QuotientSet.carrier"
        )
        out["symmon.subst_compose.classes_per_carrier"] = ratio(
            "symmon.subst_compose.classes", "symmon.subst_compose.carrier"
        )
        out["presheaf.kan_extend.distinct_args"] = len(self.kan_args)
        return out

    def times(self) -> dict[str, float]:
        return {
            name: self.self_s.get(name.rpartition(".")[0], 0.0)
            for name, unit in LAYER_METRICS.items()
            if unit == "s"
        }


class Tracer:
    """Installs and removes the wrappers; one `PassStats` per traced pass."""

    def __init__(self, extra_modules=()):
        self.stats = PassStats()
        self._stack = [[-1, 0.0]]  # frames: [span id, time covered by children]
        self._patches: list[tuple[object, str, object]] = []
        self._extra_modules = list(extra_modules)

    # -- wrappers -----------------------------------------------------------------

    def _span(self, name: str, layer: str, fn, after=None):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stats = self.stats
            parent = stack[-1]
            frame = [len(stats.spans), 0.0]
            stats.spans.append(None)
            stack.append(frame)
            result = _MISSING
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stats.calls[layer] = stats.calls.get(layer, 0) + 1
                stats.self_s[layer] = stats.self_s.get(layer, 0.0) + (end - start - frame[1])
                stats.spans[frame[0]] = (parent[0], name, start, end)
                if after is not None and result is not _MISSING:
                    after(stats, args, result)
                parent[1] += clock() - start
            return result

        return wrapper

    def _count_label_key(self, fn):
        def counted(label):
            self.stats.label_key_calls += 1
            return fn(label)

        return counted

    # -- size readers (run after the span has ended) ---------------------------------

    @staticmethod
    def _quotient_sizes(stats, args, _result):
        q = args[0]
        stats.add_size("colim.QuotientSet.carrier", len(q.carrier))
        stats.add_size("colim.QuotientSet.classes", len(q.classes))

    @staticmethod
    def _subst_sizes(stats, _args, seq):
        for q in seq.quotients.values():
            stats.add_size("symmon.subst_compose.carrier", len(q.carrier))
            stats.add_size("symmon.subst_compose.classes", len(q.classes))

    @staticmethod
    def _kan_args(stats, args, _result):
        f, p = args
        stats.kan_args.add((_pvf_key(f), _psh_key(p)))

    @staticmethod
    def _cells_returned(stats, _args, cells):
        stats.add_size("relpsm.enumerate.cells_returned", len(cells))

    @staticmethod
    def _bytes_loaded(stats, args, _result):
        stats.add_size("serialize.bytes", len(args[0]))

    @staticmethod
    def _bytes_dumped(stats, _args, text):
        stats.add_size("serialize.bytes", len(text))

    # -- install / uninstall ---------------------------------------------------------

    def _functions(self):
        """(module, function name, span layer, size reader) for every traced function."""
        out = [
            (colim, "coend", "colim.coend", None),
            (colim, "induced_map", "colim.induced_map", None),
            (presheaf, "kan_extend", "presheaf.kan_extend", self._kan_args),
            (presheaf, "all_psh_maps", "presheaf.all_psh_maps", None),
            (prof, "prof_compose", "prof.prof_compose", None),
            (prof, "kleisli_compose", "prof.kleisli_compose", None),
            (prof, "mu_map", "prof.mu_map", None),
            (day, "day_convolve", "day.day_convolve", None),
            (symmon, "subst_compose", "symmon.subst_compose", self._subst_sizes),
            (symmon, "check_operad", "symmon.check_operad", None),
            (serialize, "loads", "serialize.loads", self._bytes_loaded),
            (serialize, "dumps", "serialize.dumps", self._bytes_dumped),
            (suites, "run_suite", "suites.run_suite", None),
        ]
        for attr, value in sorted(vars(relpsm).items()):
            if (
                attr.startswith(("check_", "enumerate_"))
                and callable(value)
                and getattr(value, "__module__", None) == relpsm.__name__
            ):
                sizer = self._cells_returned if attr.startswith("enumerate_") else None
                out.append((relpsm, attr, "relpsm.check", sizer))
        return out

    def _namespaces(self):
        names = [m for m in sys.modules if m == "profcalc" or m.startswith("profcalc.")]
        return [sys.modules[m] for m in sorted(names)] + self._extra_modules

    def _rebind(self, original, replacement) -> None:
        for module in self._namespaces():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr, layer, sizer in self._functions():
            original = getattr(module, attr)
            self._rebind(original, self._span(f"{module.__name__}.{attr}", layer, original, sizer))
        for cls, layer, sizer in (
            (fincat.FinSet, "fincat.FinSet", None),
            (fincat.FinFn, "fincat.FinFn", None),
            (colim.QuotientSet, "colim.QuotientSet", self._quotient_sizes),
        ):
            original = cls.__init__
            cls.__init__ = self._span(f"{cls.__module__}.{cls.__name__}", layer, original, sizer)
            self._patches.append((cls, "__init__", original))
        self._rebind(fincat.label_key, self._count_label_key(fincat.label_key))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def new_pass(self) -> PassStats:
        self.stats = PassStats()
        return self.stats


def layer_metrics(passes: list[PassStats], traced_walls: list[float], plain_walls: list[float]) -> dict:
    """Counts from the first traced pass, self times as medians over traced passes."""
    values = dict(passes[0].counts())
    times = [p.times() for p in passes]
    for name in times[0]:
        values[name] = statistics.median(t[name] for t in times)
    plain = statistics.median(plain_walls)
    values["trace.overhead_frac"] = (statistics.median(traced_walls) - plain) / plain
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
