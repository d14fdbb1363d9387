"""Randomized check suites with deterministic reports.

Instances are drawn from the seed library with a seeded generator; all
randomness happens up front, and the instances then run in order on the
calling thread.  Reports carry no timing or other nondeterministic data:
identical (seed, config) pairs produce byte-identical JSON.

Each instance runs in its own `fincat.memo_scope` and `fincat.fault_scope`,
so all its checks share the extensions and composites they build, and no
instance sees another's.  The instances are drawn in one scope of their own
(sharing functor lists and Yoneda embeddings), closed before any of them runs.

A fault configuration corrupts one component of a named coherence cell
(mu, eta, theta, or an operad unit/composition witness) with a
`fincat.Fault`: a swap of two values, so invertibility survives and any
resulting failure is a genuine coherence violation with a witness.  One
fault serves the whole suite and is opened, in a `fincat.fault_scope`,
together with each instance's memo scope; it counts components in
construction order across the instances.  The operad suite instead applies
a fresh one to each instance's operad.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .day import (
    StrictMonoidalFinCat,
    check_convolution_assoc,
    check_convolution_symmetry,
    check_yoneda_strong_monoidal,
    day_bicategory,
    monoidal_from_monoid,
    one_object_group_monoidal,
    terminal_monoidal,
)
from .fincat import Fault, FinCat, NonInvertible, fault_scope, memo_scope
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
from .prof import KLEISLI
from .relpsm import (
    TestFamily,
    check_assoc_axiom,
    check_cell_naturality,
    check_derived_coherences,
    check_lax_idempotent,
    check_unit_axiom,
    epsilon_cell,
)
from .report import CheckReport, check_pentagon, check_triangle
from .seeds import all_functors, discrete, parallel_pair, seed_library
from .symmon import (
    SUBST,
    ColouredOperad,
    associative_operad,
    check_operad,
    check_subst_assoc,
    check_tau_compatibility,
    free_sym_cat,
    representable_seq,
    seq_coproduct,
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
    max_arity: int = 3
    # only 1 is accepted (`run_suite`); perfbench still passes workers=1, so
    # the field goes with the next change to the benchmark
    workers: int = 1
    fault: str | None = None  # mu | eta | theta | unit | comp
    fault_index: int = 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "instances": self.instances,
            "max_objects": self.max_objects,
            "max_values": 3,  # no suite reads it; still written, so suite-report@1 bytes stay the same
            "max_arity": self.max_arity,
            "fault": self.fault,
            "fault_index": self.fault_index,
        }


def _guarded(name: str, thunk) -> CheckReport:
    """Run one check of an instance, converting construction-time errors into
    failed items.  It opens no memo scope: it runs inside the instance's."""
    try:
        return thunk()
    except (ValueError, NonInvertible) as exc:
        report = CheckReport(name)
        report.add(name + "-construction", False, str(exc))
        return report


# -- instance generation ------------------------------------------------------------


_KLEISLI_POOL = ["terminal", "discrete2", "arrow", "parallel_pair", "fork", "chain2", "Z2", "E2"]


def _pick_cat(rng: random.Random, config: SuiteConfig, lib) -> FinCat:
    names = [n for n in _KLEISLI_POOL if len(lib[n].objects) <= config.max_objects]
    return lib[names[rng.randrange(len(names))]]


def random_presheaf(rng: random.Random, cat: FinCat) -> Presheaf:
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


def random_kleisli(rng: random.Random, source: FinCat, target: FinCat) -> PshValuedFunctor:
    functors = all_functors(source, target)
    base = functor_into_presheaves(functors[rng.randrange(len(functors))])
    style = rng.randrange(4)
    if style == 0:
        return base
    if style == 1:
        other = functor_into_presheaves(functors[rng.randrange(len(functors))])
        return pvf_coproduct(base, other)
    if style == 2:
        return pvf_constant(source, random_presheaf(rng, target))
    other = functor_into_presheaves(functors[rng.randrange(len(functors))])
    return pvf_product(base, other)


# -- the five suites -----------------------------------------------------------------


def suite_kleisli_coherence(config: SuiteConfig) -> dict:
    rng = random.Random(config.seed)
    lib = seed_library()
    specs = []
    with memo_scope():
        for i in range(config.instances):
            cats = [_pick_cat(rng, config, lib) for _ in range(5)]
            chain = [random_kleisli(rng, cats[j], cats[j + 1]) for j in range(4)]
            specs.append((i, cats, chain))

    def run(spec):
        i, cats, chain = spec
        f, g, h, k = chain
        reports = [
            _guarded("pentagon", lambda: check_pentagon(KLEISLI, k, h, g, f)),
            _guarded("triangle", lambda: check_triangle(KLEISLI, g, f)),
        ]
        return _instance_dict(f"instance-{i}", [len(c.objects) for c in cats], reports)

    return _assemble("kleisli-coherence", config, specs, run)


def suite_relpsm_axioms(config: SuiteConfig) -> dict:
    rng = random.Random(config.seed)
    lib = seed_library()
    specs = []
    with memo_scope():
        for i in range(config.instances):
            cats = [_pick_cat(rng, config, lib) for _ in range(4)]
            f = random_kleisli(rng, cats[0], cats[1])
            g = random_kleisli(rng, cats[1], cats[2])
            h = random_kleisli(rng, cats[2], cats[3])
            specs.append((i, cats, f, g, h))

    def run(spec):
        i, cats, f, g, h = spec
        family = TestFamily.default(cats[0])
        reports = [
            _guarded("unit-axiom", lambda: check_unit_axiom(f, family)),
            _guarded("assoc-axiom", lambda: check_assoc_axiom(f, g, h, family)),
            _guarded("derived-coherences", lambda: check_derived_coherences(f, g, family)),
            _guarded("epsilon", lambda: epsilon_cell(f, family)[1]),
            _guarded("cell-naturality", lambda: check_cell_naturality(f, g, family)),
        ]
        return _instance_dict(f"instance-{i}", [len(c.objects) for c in cats], reports)

    return _assemble("relpsm-axioms", config, specs, run)


_LAX_POOL = ["terminal", "discrete2", "arrow"]


def suite_lax_idempotent(config: SuiteConfig) -> dict:
    rng = random.Random(config.seed)
    lib = seed_library()
    specs = []
    with memo_scope():
        for i in range(config.instances):
            source = lib[_LAX_POOL[rng.randrange(len(_LAX_POOL))]]
            target = lib[_LAX_POOL[rng.randrange(len(_LAX_POOL))]]
            functors = all_functors(source, target)
            f = functor_into_presheaves(functors[rng.randrange(len(functors))])
            g = random_kleisli(rng, target, _pick_cat(rng, config, lib))
            competitors = [f, functor_into_presheaves(functors[rng.randrange(len(functors))])]
            specs.append((i, f, g, competitors))

    def run(spec):
        i, f, g, competitors = spec
        family = TestFamily.default(f.source)
        reports = [
            _guarded(
                "lax-idempotent",
                lambda: check_lax_idempotent(f, g, family, competitors=competitors),
            )
        ]
        return _instance_dict(f"instance-{i}", [len(f.source.objects)], reports)

    return _assemble("lax-idempotent", config, specs, run)


def _monoidal_seeds() -> list[tuple[str, StrictMonoidalFinCat]]:
    out = [("terminal", terminal_monoidal())]
    for n in (2, 3):
        mon = monoidal_from_monoid(
            discrete(n), lambda a, b, n=n: f"d{(int(a[1:]) + int(b[1:])) % n}", "d0", commutative=True
        )
        out.append((f"Z{n}-discrete", mon))
    out.append(("BZ2", one_object_group_monoidal(2)))
    return out


def suite_day_monoidal(config: SuiteConfig) -> dict:
    rng = random.Random(config.seed)
    mons = [(name, mon) for name, mon in _monoidal_seeds() if len(mon.base.objects) <= config.max_objects]
    specs = []
    with memo_scope():
        for i in range(config.instances):
            name, mon = mons[rng.randrange(len(mons))]
            objs = list(mon.base.objects)
            a1 = objs[rng.randrange(len(objs))]
            a2 = objs[rng.randrange(len(objs))]
            ps = [random_presheaf(rng, mon.base) for _ in range(3)]
            specs.append((i, name, mon, a1, a2, ps))

    def run(spec):
        i, name, mon, a1, a2, ps = spec
        f1, f2, f3 = ps
        day = day_bicategory(mon)
        reports = [
            _guarded(
                "yoneda-strong-monoidal",
                lambda: check_yoneda_strong_monoidal(mon, a1, a2),
            ),
            _unit_isos("unit-laws", lambda: day.lunit(f1, ()), lambda: day.runit(f1, ())),
            _guarded("assoc", lambda: check_convolution_assoc(mon, f1, f2, f3)),
            _guarded("symmetry", lambda: check_convolution_symmetry(mon, f1, f2)),
        ]
        return _instance_dict(f"instance-{i}[{name}]", [len(mon.base.objects)], reports)

    return _assemble("day-monoidal", config, specs, run)


def suite_operad(config: SuiteConfig) -> dict:
    arity = config.max_arity
    specs = [(i,) for i in range(config.instances)]

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
            fault = Fault(config.fault, config.fault_index)

            def faulted(kind, components):
                # counted in repr order of the keys, returned in the dict's own order
                order = sorted(components, key=repr)
                swapped = {key: fault(kind, key, components[key]) for key in order}
                return {key: swapped[key] for key in components}

            operad = ColouredOperad(
                operad.seq,
                faulted("unit", operad.unit_components),
                faulted("comp", operad.comp_components),
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
        reports.append(
            _unit_isos("unit-isos", lambda: SUBST.lunit(gseq, ()), lambda: SUBST.runit(gseq, ()))
        )
        reports.append(_guarded("tau-compat", lambda: check_tau_compatibility(gseq, fseq)))
        return _instance_dict(f"instance-{i}", [arity], reports)

    return _assemble("operad", config, specs, run)


def _unit_isos(name: str, left, right) -> CheckReport:
    """Whether left() and right() build the two unit comparisons, each an item
    that `CheckReport.build` records, so no `_guarded` is needed."""
    report = CheckReport(name)
    report.build("left-unit-iso", left)
    report.build("right-unit-iso", right)
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
    fault = Fault(config.fault, config.fault_index) if config.fault else None

    results = []
    for spec in specs:
        with memo_scope(), fault_scope(fault):
            results.append(run(spec))
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
    if config.fault is None and config.fault_index != 0:
        raise ValueError("a fault index needs a fault kind (--fault)")
    if config.workers != 1:
        raise ValueError(f"SuiteConfig.workers must be 1 (instances run in order), got {config.workers}")
    if config.instances < 0:
        raise ValueError(f"instance count must be non-negative, got {config.instances}")
    if config.max_objects < 1:
        raise ValueError(f"--max-objects must be at least 1, got {config.max_objects}")
    if name == "operad":
        # each instance substitutes representables at the pick ("d0", "d0"), and
        # its unit operads are on the two-object parallel pair
        if config.max_arity < 2:
            raise ValueError(f"the operad suite needs --max-arity at least 2, got {config.max_arity}")
        if config.max_arity > 3:
            raise ValueError(f"the operad suite needs --max-arity at most 3, got {config.max_arity}")
        if config.max_objects < 2:
            raise ValueError(f"the operad suite needs --max-objects at least 2, got {config.max_objects}")
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
