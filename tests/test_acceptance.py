"""Acceptance criteria, one test per criterion.

Every check is exact (elementwise equality of finite functions or verified
bijections); there are no numeric tolerances to calibrate.  Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import random

import pytest

from integrands import as_dict, coyoneda_iso, fubini_iso
from profcalc.day import (
    check_convolution_assoc,
    check_convolution_symmetry,
    check_yoneda_strong_monoidal,
    day_convolve,
    day_unit_left_iso,
    day_unit_right_iso,
    monoidal_from_monoid,
)
from profcalc.fincat import FinFn, FinSet, Functor, NonInvertible, fault_scope, product
from profcalc.presheaf import (
    Presheaf,
    PshMap,
    check_preserves,
    functor_into_presheaves,
    psh_coproduct,
    psh_product,
    psh_terminal,
    pvf_coproduct,
    yoneda,
    yoneda_embedding,
)
from profcalc.prof import (
    KLEISLI,
    ProfCell,
    Profunctor,
    kleisli_compose,
    prof_compose,
    tau,
    tau_inv,
)
from profcalc.relpsm import (
    TestFamily,
    check_assoc_axiom,
    check_cell_naturality,
    check_derived_coherences,
    check_unit_axiom,
)
from profcalc.report import check_triangle
from profcalc.seeds import (
    all_functors,
    arrow_category,
    chain,
    commutative_square,
    discrete,
    fork,
    parallel_pair,
    seed_library,
)
from profcalc import suites
from profcalc.suites import (
    SuiteConfig,
    random_kleisli,
    run_suite,
)
from profcalc.symmon import (
    ColouredOperad,
    associative_operad,
    check_operad,
    check_subst_assoc,
    check_tau_compatibility,
    free_sym_cat,
    representable_seq,
    seq_coproduct,
    subst_left_unit_iso,
    subst_right_unit_iso,
    terminal_operad,
    unit_operad,
)
from tests.test_serialize_cli import reversed_assemble

SEEDS = seed_library()


def report(num, description, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {description}")
    assert passed, f"criterion {num} failed: {description}"


def test_criterion_1_kleisli_coherence():
    result = run_suite("kleisli-coherence", SuiteConfig(seed=2026, instances=20))
    failures = [i["description"] for i in result["instances"] if not i["passed"]]
    report(
        1,
        f"pentagon and triangle identities exact on {len(result['instances'])} "
        f"instances ({len(failures)} failures)",
        result["passed"] and len(result["instances"]) >= 20,
    )


def test_criterion_2_relpsm_axioms():
    result = run_suite("relpsm-axioms", SuiteConfig(seed=2027, instances=20))
    report(
        2,
        f"associativity/unit axioms and the three derived diagrams "
        f"(independently recomputed) on {len(result['instances'])} instances",
        result["passed"] and len(result["instances"]) >= 20,
    )


def test_criterion_3_lax_idempotency():
    result = run_suite("lax-idempotent", SuiteConfig(seed=2028, instances=5))
    has_extension_checks = all(
        any(
            item["name"].startswith("left-extension")
            for rep in inst["reports"]
            for item in rep["checks"]
        )
        for inst in result["instances"]
    )
    report(
        3,
        "counit invertibility, both unit triangles, and the extensional "
        "left-extension bijection with exhaustively enumerated 2-cells "
        f"on {len(result['instances'])} instances",
        result["passed"] and has_extension_checks and len(result["instances"]) >= 5,
    )


def test_criterion_4_prof_equals_kleisli():
    rng = random.Random(2029)
    lib = SEEDS
    pool = ["terminal", "discrete2", "arrow", "parallel_pair", "fork", "chain2"]
    count = 0
    ok = True
    while count < 10:
        src = lib[pool[rng.randrange(len(pool))]]
        mid = lib[pool[rng.randrange(len(pool))]]
        tgt = lib[pool[rng.randrange(len(pool))]]
        f = tau_inv(random_kleisli(rng, src, mid))
        g = tau_inv(random_kleisli(rng, mid, tgt))
        if tau_inv(tau(f)) != f or tau_inv(tau(g)) != g:
            ok = False
            break
        coend_route = prof_compose(g, f)
        kleisli_route = tau_inv(kleisli_compose(tau(g), tau(f)))
        components = {}
        for key, val in coend_route.values.items():
            if set(val.elements) != set(kleisli_route.values[key].elements):
                ok = False
                break
            components[key] = FinFn(val, kleisli_route.values[key], {v: v for v in val})
        if not ok:
            break
        cell = ProfCell(coend_route, kleisli_route, components, check=True)
        if not cell.is_iso():
            ok = False
            break
        count += 1
    report(
        4,
        f"tau round-trips label-exactly and the coend composite matches the "
        f"extension composite via an exhibited natural bijection on {count} instances",
        ok and count >= 10,
    )


def test_criterion_5_discrete_oracles():
    d2 = discrete(2)

    def matrix_prof(mat, name):
        from profcalc.prof import Profunctor

        values = {}
        for i, y in enumerate(["d0", "d1"]):
            for j, x in enumerate(["d0", "d1"]):
                values[(y, x)] = FinSet([f"{name}{i}{j}:{k}" for k in range(mat[i][j])])
        left = {
            (d2.id_of(y), x): FinFn.identity(values[(y, x)])
            for y in d2.objects
            for x in d2.objects
        }
        right = {
            (y, d2.id_of(x)): FinFn.identity(values[(y, x)])
            for y in d2.objects
            for x in d2.objects
        }
        return Profunctor(d2, d2, values, left, right)

    gf = prof_compose(
        matrix_prof([[1, 1], [2, 0]], "g"), matrix_prof([[1, 2], [0, 1]], "f")
    )
    mat = [[len(gf.values[(y, x)]) for x in ["d0", "d1"]] for y in ["d0", "d1"]]
    matrix_ok = mat == [[1, 3], [2, 4]]

    rng = random.Random(5)
    day_ok = True
    for n in (2, 3):
        base = discrete(n)
        mon = monoidal_from_monoid(
            base, lambda a, b, n=n: f"d{(int(a[1:]) + int(b[1:])) % n}", "d0", True
        )
        for _ in range(4):
            sizes1 = {a: rng.randrange(3) for a in base.objects}
            sizes2 = {a: rng.randrange(3) for a in base.objects}

            def mk(sizes, tag):
                values = {
                    a: FinSet([f"{tag}{a}:{i}" for i in range(sizes[a])])
                    for a in base.objects
                }
                return Presheaf(
                    base,
                    values,
                    {m: FinFn.identity(values[base.src(m)]) for m in base.morphisms()},
                    check=False,
                )

            f1, f2 = mk(sizes1, "p"), mk(sizes2, "q")
            conv = day_convolve(mon, f1, f2)
            for a in base.objects:
                graded = sum(
                    sizes1[b] * sizes2[c]
                    for b in base.objects
                    for c in base.objects
                    if mon.ob(b, c) == a
                )
                if len(conv.values[a]) != graded:
                    day_ok = False
    report(
        5,
        "profunctor composition equals matrix products (incl. [[1,3],[2,4]]) "
        "and Day convolution over discrete monoids equals graded convolution",
        matrix_ok and day_ok,
    )


def test_criterion_6_coyoneda_fubini_sweep():
    ok = True
    for name, cat in SEEDS.items():
        presheaves = [yoneda(cat, x) for x in cat.objects]
        objs = list(cat.objects)
        cop, _, _ = psh_coproduct(yoneda(cat, objs[0]), yoneda(cat, objs[-1]))
        presheaves.append(cop)
        presheaves.append(psh_terminal(cat))
        for p in presheaves:
            if any(len(v) > 3 for v in p.values.values()):
                continue
            for x in cat.objects:
                try:
                    _, fn = coyoneda_iso(
                        cat,
                        lambda b, p=p: p.values[b],
                        lambda m, p=p: p.restriction[m],
                        x,
                        covariant=False,
                    )
                except NonInvertible:
                    ok = False

    def two_valued(pair_cat):
        values = {
            (a, b): FinSet([(a, b, 0), (a, b, 1)])
            for a in pair_cat.objects
            for b in pair_cat.objects
        }
        contra, co = {}, {}
        for m in pair_cat.morphisms():
            for b in pair_cat.objects:
                dom = values[(pair_cat.tgt(m), b)]
                contra[(m, b)] = FinFn(
                    dom,
                    values[(pair_cat.src(m), b)],
                    {(x, y, i): (pair_cat.src(m), y, i) for (x, y, i) in dom},
                )
            for a in pair_cat.objects:
                dom = values[(a, pair_cat.src(m))]
                co[(a, m)] = FinFn(
                    dom,
                    values[(a, pair_cat.tgt(m))],
                    {(x, y, i): (x, pair_cat.tgt(m), i) for (x, y, i) in dom},
                )
        return Profunctor(pair_cat, pair_cat, values, contra, co, check=False)

    for left, right in [("terminal", "terminal"), ("discrete2", "discrete2"),
                        ("arrow", "arrow"), ("arrow", "fork"), ("Z2", "arrow")]:
        cl, cr = SEEDS[left], SEEDS[right]
        try:
            _, _, fn = fubini_iso(cl, cr, two_valued(product(cl, cr)))
        except NonInvertible:
            ok = False
    report(6, "co-Yoneda and Fubini bijections across the seed-library sweep", ok)


def test_criterion_7_lifting_positive_and_negative():
    ok = True
    emb = yoneda_embedding(chain(2))
    ok &= check_preserves("terminal", emb, "2").ok
    sq = commutative_square()
    emb_sq = yoneda_embedding(sq)
    ok &= check_preserves(
        "binary_product",
        emb_sq,
        ("01", "10", "00", ("le", "00", "01"), ("le", "00", "10")),
    ).ok

    def meet_functor():
        src = commutative_square()
        tgt = chain(1)
        obj_map = {a: str(min(int(a[0]), int(a[1]))) for a in src.objects}
        mor_map = {
            m: ("le", obj_map[src.src(m)], obj_map[src.tgt(m)])
            for m in src.morphisms()
        }
        return Functor(src, tgt, obj_map, mor_map)

    f = functor_into_presheaves(meet_functor())
    ok &= check_preserves("kan_terminal", f, None).ok
    p, q = yoneda(sq, "01"), yoneda(sq, "10")
    ok &= check_preserves("kan_binary_product", f, (p, q)).ok

    neg_initial = not check_preserves("initial", yoneda_embedding(arrow_category()), "0").ok

    from tests.test_presheaf import fork_counterexample_functor

    fcf = fork_counterexample_functor()
    cat = fcf.source
    qy, qx, qe = FinSet(["q0", "q1"]), FinSet(["q"]), FinSet(["qe"])
    values = {"e": qe, "x": qx, "y": qy}
    restriction = {
        "id_e": FinFn.identity(qe),
        "id_x": FinFn.identity(qx),
        "id_y": FinFn.identity(qy),
        "i": FinFn(qx, qe, {"q": "qe"}),
        "u": FinFn(qy, qx, {"q0": "q", "q1": "q"}),
        "v": FinFn(qy, qx, {"q0": "q", "q1": "q"}),
        "w": FinFn(qy, qe, {"q0": "qe", "q1": "qe"}),
    }
    qpsh = Presheaf(cat, values, restriction)
    ppsh = yoneda(cat, "y")
    phi = PshMap(
        ppsh,
        qpsh,
        {
            "e": FinFn(ppsh.values["e"], qe, {"w": "qe"}),
            "x": FinFn(ppsh.values["x"], qx, {"u": "q", "v": "q"}),
            "y": FinFn(ppsh.values["y"], qy, {"id_y": "q0"}),
        },
    )
    psi = PshMap(
        ppsh,
        qpsh,
        {
            "e": FinFn(ppsh.values["e"], qe, {"w": "qe"}),
            "x": FinFn(ppsh.values["x"], qx, {"u": "q", "v": "q"}),
            "y": FinFn(ppsh.values["y"], qy, {"id_y": "q1"}),
        },
    )
    neg_equalizer = not check_preserves("kan_equalizer", fcf, (phi, psi)).ok

    report(
        7,
        "Yoneda preserves terminal/products, extensions of product-preserving "
        "functors preserve products; initial-object and fork equalizer "
        "counterexamples reproduce",
        ok and neg_initial and neg_equalizer,
    )


def test_criterion_8_day_convolution():
    result = run_suite("day-monoidal", SuiteConfig(seed=2030, instances=8))
    # plus an explicit strong-monoidality sweep over a non-discrete base
    from profcalc.day import one_object_group_monoidal

    bz2 = one_object_group_monoidal(2)
    obj = next(iter(bz2.base.objects))
    extra = check_yoneda_strong_monoidal(bz2, obj, obj).ok
    report(
        8,
        "Yoneda strong monoidality and convolution unit/associativity/symmetry "
        f"isomorphisms verified on {len(result['instances'])} monoidal instances",
        result["passed"] and extra,
    )


def test_criterion_9_free_symmetric_and_operads():
    counts_ok = len(free_sym_cat(discrete(2), 2).cat.objects) == 7
    s13 = free_sym_cat(discrete(1), 3)
    for k in range(4):
        obj = tuple(["d0"] * k)
        counts_ok &= len(s13.cat.hom[(obj, obj)]) == math.factorial(k)

    s = free_sym_cat(discrete(1), 3)
    g = seq_coproduct(
        representable_seq(s, discrete(1), {"d0": ("d0",)}),
        representable_seq(s, discrete(1), {"d0": ("d0", "d0")}),
    )
    units_ok = subst_left_unit_iso(g).is_iso() and subst_right_unit_iso(g).is_iso()

    assoc_ok = check_subst_assoc(g, g, g).ok
    s2 = free_sym_cat(discrete(2), 2)
    f2 = representable_seq(s2, discrete(2), {"d0": ("d0", "d1"), "d1": ("d1",)})
    g2 = representable_seq(s2, discrete(2), {"d0": ("d1",), "d1": ("d0", "d0")})
    assoc_ok &= check_subst_assoc(g2, f2, g2).ok

    operads_ok = (
        check_operad(terminal_operad(discrete(1), 3)).ok
        and check_operad(associative_operad(3)).ok
    )

    tau_count = 0
    tau_ok = True
    picks = [("d0",), ("d0", "d0")]
    seqs = [representable_seq(free_sym_cat(discrete(1), 2), discrete(1), {"d0": p}) for p in picks]
    seqs.append(seq_coproduct(seqs[0], seqs[1]))
    for gg in seqs:
        for ff in seqs:
            if tau_count >= 5:
                break
            tau_ok &= check_tau_compatibility(gg, ff).ok
            tau_count += 1
    report(
        9,
        "free symmetric counts, unit isomorphisms, substitution associativity, "
        "terminal/associative operads, and substitution = extension composition "
        f"via tau on {tau_count} instances",
        counts_ok and units_ok and assoc_ok and operads_ok and tau_ok and tau_count >= 5,
    )


def _swap_first_two(fn):
    a, b = fn.domain.elements[0], fn.domain.elements[1]
    table = as_dict(fn)
    table[a], table[b] = table[b], table[a]
    return FinFn(fn.domain, fn.codomain, table)


def _trace_hook():
    """A fault hook that records every constructed cell component and alters none."""
    trace = []

    def hook(kind, key, fn):
        trace.append((kind, key, len(fn.domain)))
        return fn

    hook.trace = trace
    return hook


def _key_hook(kind, key):
    """A fault hook that corrupts every component constructed with exactly this
    (kind, key), the same way each time: one consistently wrong table."""
    state = {"hits": 0}

    def hook(k, key2, fn):
        if k != kind or key2 != key or len(fn.domain) < 2:
            return fn
        state["hits"] += 1
        return _swap_first_two(fn)

    hook.state = state
    return hook


def _fault_battery(f, g, family, hook):
    reports = []
    try:
        with fault_scope(hook):
            reports.append(check_unit_axiom(f, family))
            reports.append(check_derived_coherences(f, g, family))
            reports.append(check_cell_naturality(f, g, family))
            reports.append(check_triangle(KLEISLI, g, f))
    except (ValueError, NonInvertible) as exc:
        from profcalc.report import CheckReport

        rep = CheckReport("construction")
        rep.add("construction", False, str(exc))
        reports.append(rep)
    return reports


def test_criterion_10_fault_injection():
    src, mid = arrow_category(), fork()
    pool = all_functors(src, mid)
    consts = [fn for fn in pool if len(set(fn.obj_map.values())) == 1]
    f = pvf_coproduct(
        functor_into_presheaves(consts[-1]), functor_into_presheaves(pool[3])
    )
    g = functor_into_presheaves(all_functors(mid, parallel_pair())[2])
    family = TestFamily.default(src)

    tracer = _trace_hook()
    _fault_battery(f, g, family, tracer)
    corruptible = sorted(
        {(kind, key) for kind, key, size in tracer.trace if size >= 2},
        key=repr,
    )
    assert corruptible, "fault instance has no corruptible components"
    undetected = []
    for kind, key in corruptible:
        hook = _key_hook(kind, key)
        reports = _fault_battery(f, g, family, hook)
        if hook.state["hits"] == 0:
            continue
        if all(rep.ok for rep in reports):
            undetected.append((kind, key))
    cells_ok = not undetected

    operad_undetected = []
    for operad in [associative_operad(2), unit_operad(parallel_pair(), 2)]:
        for attr in ["unit_components", "comp_components"]:
            components = getattr(operad, attr)
            for key in sorted(components, key=repr):
                fn = components[key]
                if len(fn.domain) < 2:
                    continue
                mutated = dict(components)
                mutated[key] = _swap_first_two(fn)
                broken = ColouredOperad(
                    operad.seq,
                    mutated if attr == "unit_components" else operad.unit_components,
                    mutated if attr == "comp_components" else operad.comp_components,
                )
                try:
                    if check_operad(broken).ok:
                        operad_undetected.append((attr, key))
                except (ValueError, NonInvertible):
                    pass  # equivariance/iso verification caught it
    operads_ok = not operad_undetected

    report(
        10,
        f"every single-component corruption detected: "
        f"{len(corruptible)} mu/eta/theta components, operad unit/composition "
        f"cells included"
        + ("" if cells_ok and operads_ok else f"; undetected: {undetected + operad_undetected}"),
        cells_ok and operads_ok,
    )


def test_criterion_11_deterministic_reports(monkeypatch):
    ok = True
    for name in ["kleisli-coherence", "relpsm-axioms", "operad"]:
        config = SuiteConfig(seed=99, instances=4)
        first = json.dumps(run_suite(name, config), sort_keys=True)
        rerun = json.dumps(run_suite(name, config), sort_keys=True)
        with monkeypatch.context() as patch:
            patch.setattr(suites, "_assemble", reversed_assemble)
            reordered = json.dumps(run_suite(name, config), sort_keys=True)
        ok = ok and first == rerun == reordered
    report(
        11,
        "identical seeds produce byte-identical reports across reruns and instance order",
        ok,
    )
