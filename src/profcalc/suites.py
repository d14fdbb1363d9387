"""Randomized check suites with deterministic, parallelism-independent reports.

Instances are drawn from the seed library with a seeded generator; all
randomness happens up front, so evaluation can be farmed out to a thread
pool and reassembled in instance order.  Reports carry no timing or other
nondeterministic data: identical (seed, config) pairs produce byte-identical
JSON regardless of worker count.

Each instance runs in one `fincat.memo_scope`, opened in the thread that runs
it, so all its checks share the extensions and composites they build.

A fault configuration corrupts one component of a named coherence cell
(mu, eta, theta, or an operad unit/composition witness) before the checks
run; the corruption is a swap of two values, so invertibility survives and
any resulting failure is a genuine coherence violation with a witness.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .day import (
    StrictMonoidalFinCat,
    check_convolution_assoc,
    check_convolution_symmetry,
    check_yoneda_strong_monoidal,
    day_unit_left_iso,
    day_unit_right_iso,
    monoidal_from_monoid,
    one_object_group_monoidal,
    terminal_monoidal,
)
from .fincat import FinCat, FinFn, NonInvertible, memo_scope
from .colim import BifunctorialityViolation
from .presheaf import (
    Presheaf,
    PshValuedFunctor,
    functor_into_presheaves,
    psh_coproduct,
    psh_initial,
    psh_product,
    psh_terminal,
    pvf_coproduct,
    pvf_constant,
    pvf_product,
    yoneda,
)
from .prof import check_pentagon, check_triangle
from .relpsm import (
    TestFamily,
    check_assoc_axiom,
    check_cell_naturality,
    check_derived_coherences,
    check_lax_idempotent,
    check_unit_axiom,
    epsilon_cell,
)
from .report import CheckReport
from .seeds import all_functors, discrete, parallel_pair, seed_library
from .symmon import (
    ColouredOperad,
    associative_operad,
    check_operad,
    check_subst_assoc,
    check_tau_compatibility,
    free_sym_cat,
    representable_seq,
    seq_coproduct,
    subst_compose,
    subst_identity,
    subst_left_unit_iso,
    subst_right_unit_iso,
    terminal_operad,
    unit_operad,
)

SUITE_NAMES = (
    "kleisli-coherence",
    "relpsm-axioms",
    "lax-idempotent",
    "day-monoidal",
    "operad",
)


@dataclass
class SuiteConfig:
    seed: int = 0
    instances: int = 5
    max_objects: int = 4
    max_values: int = 3
    max_arity: int = 3
    workers: int = 1
    fault: str | None = None  # mu | eta | theta | unit | comp
    fault_index: int = 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "instances": self.instances,
            "max_objects": self.max_objects,
            "max_values": self.max_values,
            "max_arity": self.max_arity,
            "fault": self.fault,
            "fault_index": self.fault_index,
        }


def swap_first_two(fn: FinFn) -> FinFn:
    """fn with the images of its first two domain elements exchanged."""
    a, b = fn.domain.elements[0], fn.domain.elements[1]
    table = fn.as_dict()
    table[a], table[b] = table[b], table[a]
    return FinFn(fn.domain, fn.codomain, table)


def make_swap_mutate(kind: str, index: int):
    """Corrupt the index-th corruptible component of the named cell family.

    Components are counted in construction order; a component is corruptible
    when its domain has at least two elements.  The swap exchanges the first
    two outputs, so bijections stay bijections.
    """
    state = {"count": 0, "applied": None}

    def mutate(k: str, key: tuple, fn: FinFn) -> FinFn:
        if k != kind or len(fn.domain) < 2:
            return fn
        if state["applied"] is None:
            if state["count"] != index:
                state["count"] += 1
                return fn
            state["applied"] = key
        elif key != state["applied"]:
            return fn
        # corrupt this key consistently on every construction
        return swap_first_two(fn)

    mutate.state = state
    return mutate


def make_trace_mutate():
    """Record every constructed cell component without altering it."""
    trace: list[tuple[str, tuple, int]] = []

    def mutate(kind: str, key: tuple, fn: FinFn) -> FinFn:
        trace.append((kind, key, len(fn.domain)))
        return fn

    mutate.trace = trace
    return mutate


def make_key_mutate(kind: str, key: tuple):
    """Corrupt every component constructed with exactly this (kind, key).

    Deterministic: repeated constructions of the same component receive the
    same swap, so a corruption models one consistently-wrong table entry.
    """
    state = {"hits": 0}

    def mutate(k: str, key2: tuple, fn: FinFn) -> FinFn:
        if k != kind or key2 != key or len(fn.domain) < 2:
            return fn
        state["hits"] += 1
        return swap_first_two(fn)

    mutate.state = state
    return mutate


def _guarded(name: str, thunk) -> CheckReport:
    """Run one check of an instance, converting construction-time errors into
    failed items.  It opens no memo scope: it runs inside the instance's."""
    try:
        return thunk()
    except (ValueError, NonInvertible, BifunctorialityViolation) as exc:
        report = CheckReport(name)
        report.add(name + "-construction", False, str(exc))
        return report


# -- instance generation ------------------------------------------------------------


_KLEISLI_POOL = ["terminal", "discrete2", "arrow", "parallel_pair", "fork", "chain2", "Z2", "E2"]


def _pick_cat(rng: random.Random, config: SuiteConfig, lib) -> FinCat:
    names = [n for n in _KLEISLI_POOL if len(lib[n].objects) <= config.max_objects]
    return lib[names[rng.randrange(len(names))]]


def random_presheaf(rng: random.Random, cat: FinCat, max_values: int) -> Presheaf:
    objs = list(cat.objects)
    kind = rng.randrange(5)
    if kind == 0:
        return yoneda(cat, objs[rng.randrange(len(objs))])
    if kind == 1:
        p, _, _ = psh_coproduct(
            yoneda(cat, objs[rng.randrange(len(objs))]),
            yoneda(cat, objs[rng.randrange(len(objs))]),
        )
        return p
    if kind == 2:
        return psh_terminal(cat)
    if kind == 3:
        p, _, _ = psh_product(
            yoneda(cat, objs[rng.randrange(len(objs))]),
            yoneda(cat, objs[rng.randrange(len(objs))]),
        )
        return p
    return psh_initial(cat)


def random_kleisli(
    rng: random.Random, source: FinCat, target: FinCat, config: SuiteConfig
) -> PshValuedFunctor:
    functors = all_functors(source, target)
    base = functor_into_presheaves(functors[rng.randrange(len(functors))])
    style = rng.randrange(4)
    if style == 0:
        return base
    if style == 1:
        other = functor_into_presheaves(functors[rng.randrange(len(functors))])
        return pvf_coproduct(base, other)
    if style == 2:
        return pvf_constant(source, random_presheaf(rng, target, config.max_values))
    other = functor_into_presheaves(functors[rng.randrange(len(functors))])
    return pvf_product(base, other)


# -- the five suites -----------------------------------------------------------------


def suite_kleisli_coherence(config: SuiteConfig) -> dict:
    rng = random.Random(config.seed)
    lib = seed_library()
    specs = []
    for i in range(config.instances):
        cats = [_pick_cat(rng, config, lib) for _ in range(5)]
        chain = [
            random_kleisli(rng, cats[j], cats[j + 1], config) for j in range(4)
        ]
        specs.append((i, cats, chain))
    mutate = make_swap_mutate(config.fault, config.fault_index) if config.fault else None

    def run(spec):
        i, cats, chain = spec
        f, g, h, k = chain
        reports = [
            _guarded("pentagon", lambda: check_pentagon(k, h, g, f, mutate=mutate)),
            _guarded("triangle", lambda: check_triangle(g, f, mutate=mutate)),
        ]
        return _instance_dict(f"instance-{i}", [len(c.objects) for c in cats], reports)

    return _assemble("kleisli-coherence", config, specs, run)


def suite_relpsm_axioms(config: SuiteConfig) -> dict:
    rng = random.Random(config.seed)
    lib = seed_library()
    specs = []
    for i in range(config.instances):
        cats = [_pick_cat(rng, config, lib) for _ in range(4)]
        f = random_kleisli(rng, cats[0], cats[1], config)
        g = random_kleisli(rng, cats[1], cats[2], config)
        h = random_kleisli(rng, cats[2], cats[3], config)
        specs.append((i, cats, f, g, h))
    mutate = make_swap_mutate(config.fault, config.fault_index) if config.fault else None

    def run(spec):
        i, cats, f, g, h = spec
        family = TestFamily.default(cats[0])
        reports = [
            _guarded("unit-axiom", lambda: check_unit_axiom(f, family, mutate=mutate)),
            _guarded("assoc-axiom", lambda: check_assoc_axiom(f, g, h, family, mutate=mutate)),
            _guarded(
                "derived-coherences",
                lambda: check_derived_coherences(f, g, family, mutate=mutate),
            ),
            _guarded("epsilon", lambda: epsilon_cell(f, family, mutate=mutate)[1]),
            _guarded(
                "cell-naturality",
                lambda: check_cell_naturality(f, g, family, mutate=mutate),
            ),
        ]
        return _instance_dict(f"instance-{i}", [len(c.objects) for c in cats], reports)

    return _assemble("relpsm-axioms", config, specs, run)


_LAX_POOL = ["terminal", "discrete2", "arrow"]


def suite_lax_idempotent(config: SuiteConfig) -> dict:
    rng = random.Random(config.seed)
    lib = seed_library()
    specs = []
    for i in range(config.instances):
        source = lib[_LAX_POOL[rng.randrange(len(_LAX_POOL))]]
        target = lib[_LAX_POOL[rng.randrange(len(_LAX_POOL))]]
        functors = all_functors(source, target)
        f = functor_into_presheaves(functors[rng.randrange(len(functors))])
        g = random_kleisli(rng, target, _pick_cat(rng, config, lib), config)
        competitors = [f, functor_into_presheaves(functors[rng.randrange(len(functors))])]
        specs.append((i, f, g, competitors))
    mutate = make_swap_mutate(config.fault, config.fault_index) if config.fault else None

    def run(spec):
        i, f, g, competitors = spec
        family = TestFamily.default(f.source)
        reports = [
            _guarded(
                "lax-idempotent",
                lambda: check_lax_idempotent(
                    f, g, family, competitors=competitors, mutate=mutate
                ),
            )
        ]
        return _instance_dict(f"instance-{i}", [len(f.source.objects)], reports)

    return _assemble("lax-idempotent", config, specs, run)


def _monoidal_seeds(config: SuiteConfig) -> list[tuple[str, StrictMonoidalFinCat]]:
    out = [("terminal", terminal_monoidal())]
    z2 = discrete(2)
    out.append(
        (
            "Z2-discrete",
            monoidal_from_monoid(
                z2,
                lambda a, b: f"d{(int(a[1:]) + int(b[1:])) % 2}",
                "d0",
                commutative=True,
            ),
        )
    )
    z3 = discrete(3)
    out.append(
        (
            "Z3-discrete",
            monoidal_from_monoid(
                z3,
                lambda a, b: f"d{(int(a[1:]) + int(b[1:])) % 3}",
                "d0",
                commutative=True,
            ),
        )
    )
    out.append(("BZ2", one_object_group_monoidal(2)))
    return out


def suite_day_monoidal(config: SuiteConfig) -> dict:
    rng = random.Random(config.seed)
    mons = _monoidal_seeds(config)
    specs = []
    for i in range(config.instances):
        name, mon = mons[rng.randrange(len(mons))]
        objs = list(mon.base.objects)
        a1 = objs[rng.randrange(len(objs))]
        a2 = objs[rng.randrange(len(objs))]
        ps = [random_presheaf(rng, mon.base, config.max_values) for _ in range(3)]
        specs.append((i, name, mon, a1, a2, ps))

    def run(spec):
        i, name, mon, a1, a2, ps = spec
        f1, f2, f3 = ps
        reports = [
            _guarded(
                "yoneda-strong-monoidal",
                lambda: check_yoneda_strong_monoidal(mon, a1, a2),
            ),
            _guarded("unit-laws", lambda: _unit_law_report(mon, f1)),
            _guarded("assoc", lambda: check_convolution_assoc(mon, f1, f2, f3)),
            _guarded("symmetry", lambda: check_convolution_symmetry(mon, f1, f2)),
        ]
        return _instance_dict(f"instance-{i}[{name}]", [len(mon.base.objects)], reports)

    return _assemble("day-monoidal", config, specs, run)


def _unit_law_report(mon: StrictMonoidalFinCat, f: Presheaf) -> CheckReport:
    report = CheckReport("unit-laws")
    try:
        day_unit_left_iso(mon, f)
        report.add("left-unit-iso", True)
    except NonInvertible as exc:
        report.add("left-unit-iso", False, str(exc))
    try:
        day_unit_right_iso(mon, f)
        report.add("right-unit-iso", True)
    except NonInvertible as exc:
        report.add("right-unit-iso", False, str(exc))
    return report


def suite_operad(config: SuiteConfig) -> dict:
    rng = random.Random(config.seed)
    arity = min(config.max_arity, 3)
    specs = [(i,) for i in range(config.instances)]

    def corrupt_components(components, index):
        count = 0
        out = dict(components)
        for key in sorted(out, key=lambda k: repr(k)):
            fn = out[key]
            if len(fn.domain) < 2:
                continue
            if count == index:
                out[key] = swap_first_two(fn)
                return out
            count += 1
        return out

    def run(spec):
        (i,) = spec
        rng_i = random.Random((config.seed, i).__hash__())
        reports = []
        if i % 3 == 0:
            operad = terminal_operad(discrete(1), arity)
        elif i % 3 == 1:
            operad = associative_operad(arity)
        else:
            operad = unit_operad(parallel_pair(), min(arity, 2))
        if config.fault in ("unit", "comp"):
            if config.fault == "unit":
                operad = ColouredOperad(
                    operad.seq,
                    corrupt_components(operad.unit_components, config.fault_index),
                    operad.comp_components,
                    operad.m_bound,
                )
            else:
                operad = ColouredOperad(
                    operad.seq,
                    operad.unit_components,
                    corrupt_components(operad.comp_components, config.fault_index),
                    operad.m_bound,
                )
        reports.append(_guarded("operad", lambda: check_operad(operad)))

        sym = free_sym_cat(discrete(1), arity)
        picks = [("d0",), ("d0", "d0")]
        fseq = seq_coproduct(
            representable_seq(sym, discrete(1), {"d0": picks[rng_i.randrange(2)]}),
            representable_seq(sym, discrete(1), {"d0": picks[rng_i.randrange(2)]}),
        )
        gseq = representable_seq(sym, discrete(1), {"d0": picks[rng_i.randrange(2)]})
        reports.append(_guarded("subst-assoc", lambda: check_subst_assoc(gseq, fseq, gseq)))
        unit = subst_identity(sym)
        reports.append(
            _guarded(
                "unit-isos",
                lambda: _subst_unit_report(gseq, unit),
            )
        )
        reports.append(_guarded("tau-compat", lambda: check_tau_compatibility(gseq, fseq)))
        return _instance_dict(f"instance-{i}", [arity], reports)

    return _assemble("operad", config, specs, run)


def _subst_unit_report(g, unit) -> CheckReport:
    report = CheckReport("unit-isos")
    try:
        subst_left_unit_iso(g, subst_compose(unit, g))
        report.add("left-unit-iso", True)
    except (NonInvertible, ValueError) as exc:
        report.add("left-unit-iso", False, str(exc))
    try:
        subst_right_unit_iso(g, subst_compose(g, unit))
        report.add("right-unit-iso", True)
    except (NonInvertible, ValueError) as exc:
        report.add("right-unit-iso", False, str(exc))
    return report


# -- assembly ---------------------------------------------------------------------------


def _instance_dict(description: str, sizes: list, reports: list[CheckReport]) -> dict:
    return {
        "description": description,
        "sizes": sizes,
        "passed": all(r.ok for r in reports),
        "reports": [r.to_dict() for r in reports],
    }


def _assemble(name: str, config: SuiteConfig, specs: list, run) -> dict:
    run = memo_scope()(run)  # one memo per instance, in the thread that runs it
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(run, specs))
    else:
        results = [run(s) for s in specs]
    out = {
        "schema": "profcalc/suite-report@1",
        "suite": name,
        "config": config.to_dict(),
        "passed": all(r["passed"] for r in results),
        "instances": results,
    }
    if config.instances == 0:
        out["warning"] = "zero instances requested; nothing was checked"
    return out


def run_suite(name: str, config: SuiteConfig) -> dict:
    table = {
        "kleisli-coherence": suite_kleisli_coherence,
        "relpsm-axioms": suite_relpsm_axioms,
        "lax-idempotent": suite_lax_idempotent,
        "day-monoidal": suite_day_monoidal,
        "operad": suite_operad,
    }
    if name not in table:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return table[name](config)


def format_suite_text(result: dict, show_witnesses: bool = False) -> str:
    lines = [
        f"suite {result['suite']}: {'PASS' if result['passed'] else 'FAIL'} "
        f"({len(result['instances'])} instances, seed {result['config']['seed']})"
    ]
    if "warning" in result:
        lines.append(f"  warning: {result['warning']}")
    for inst in result["instances"]:
        mark = "ok  " if inst["passed"] else "FAIL"
        lines.append(f"  {mark} {inst['description']}")
        if not inst["passed"] or show_witnesses:
            for rep in inst["reports"]:
                for item in rep["checks"]:
                    if not item["passed"] or show_witnesses:
                        status = "ok" if item["passed"] else "FAIL"
                        lines.append(f"      [{status}] {rep['name']}:{item['name']}")
                        if item.get("witness"):
                            lines.append(f"         witness: {item['witness']}")
    return "\n".join(lines)
