import pytest

from integrands import as_dict, psh_copair, psh_equalizer_factor
from profcalc.fincat import FinFn, FinSet, Functor
from profcalc.presheaf import (
    Presheaf,
    PshMap,
    all_psh_maps,
    check_preserves,
    enumerate_families,
    eta_iso,
    functor_into_presheaves,
    kan_extend,
    kan_extend_map,
    presheaf_violations,
    psh_coproduct,
    psh_equalizer,
    psh_initial,
    psh_pair,
    psh_product,
    psh_pullback,
    psh_terminal,
    psh_terminal_map,
    pvf_coproduct,
    pvf_constant,
    pvf_product,
    pvf_violations,
    yoneda,
    yoneda_embedding,
)
from profcalc.seeds import (
    all_functors,
    arrow_category,
    chain,
    commutative_square,
    discrete,
    fork,
    parallel_pair,
    seed_library,
    terminal_category,
)

SEEDS = seed_library()


def test_yoneda_on_terminal_is_constant_singleton():
    cat = terminal_category()
    p = yoneda(cat, "*")
    assert all(len(p.values[a]) == 1 for a in cat.objects)


def test_yoneda_arrow_hom_counts():
    cat = arrow_category()
    p = yoneda(cat, "1")
    assert (len(p.values["0"]), len(p.values["1"])) == (1, 1)
    q = yoneda(cat, "0")
    assert (len(q.values["0"]), len(q.values["1"])) == (1, 0)


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_yoneda_embedding_functorial(name):
    emb = yoneda_embedding(SEEDS[name])
    assert pvf_violations(emb) == []


@pytest.mark.parametrize("name", ["fork", "parallel_pair", "arrow", "Z2"])
def test_yoneda_fully_faithful(name):
    cat = SEEDS[name]
    for a in cat.objects:
        for b in cat.objects:
            maps = all_psh_maps(yoneda(cat, a), yoneda(cat, b))
            assert len(maps) == len(cat.hom[(a, b)])


def test_enumerate_families_checks_an_endomorphism_square_once():
    cat = SEEDS["Z2"]
    (obj,) = cat.objects
    (m,) = [k for k in cat.morphisms() if not cat.is_identity(k)]
    p = yoneda(cat, obj)
    calls = []

    def natural(asg):
        calls.append(asg[obj])
        return p.restriction[m].then(asg[obj]) == asg[obj].then(p.restriction[m])

    slot = (obj, p.values[obj], p.values[obj])
    families = enumerate_families([slot], [([obj, obj], natural)])
    assert len(calls) == len(p.values[obj]) ** len(p.values[obj])  # one per candidate
    assert len(set(calls)) == len(calls)
    assert len(families) == len(all_psh_maps(p, p)) == len(cat.hom[(obj, obj)])


def test_kan_extend_of_representable_is_eta_iso():
    cat = fork()
    emb = yoneda_embedding(SEEDS["parallel_pair"])
    functors = all_functors(cat, SEEDS["parallel_pair"])
    f = functor_into_presheaves(functors[1])
    for x in cat.objects:
        phi = eta_iso(f, x)
        assert phi.is_iso()
        assert phi.violations() == []


def test_kan_extend_discrete_is_tagged_sum():
    src = discrete(2)
    tgt = arrow_category()
    f = functor_into_presheaves(all_functors(src, tgt)[1])
    p, _, _ = psh_coproduct(yoneda(src, "d0"), yoneda(src, "d1"))
    kp = kan_extend(f, p)
    for y in tgt.objects:
        expected = sum(
            len(f.on_obj[x].values[y]) * len(p.values[x]) for x in src.objects
        )
        assert len(kp.values[y]) == expected


def test_kan_extend_empty_argument():
    cat = fork()
    f = functor_into_presheaves(all_functors(cat, arrow_category())[0])
    kp = kan_extend(f, psh_initial(cat))
    assert all(len(v) == 0 for v in kp.values.values())


def test_kan_extend_maps_pshmaps():
    cat = arrow_category()
    f = functor_into_presheaves(all_functors(cat, fork())[2])
    p = yoneda(cat, "0")
    q = psh_terminal(cat)
    phi = psh_terminal_map(p)
    kphi = kan_extend_map(f, phi)
    assert kphi.violations() == []


def test_eta_naturality_across_fork():
    cat = fork()
    f = functor_into_presheaves(all_functors(cat, parallel_pair())[2])
    etas = {x: eta_iso(f, x) for x in cat.objects}
    from profcalc.prof import eta_cell, kleisli_compose

    cell = eta_cell(f)
    assert cell.violations() == []


def test_apply_P_functor_identity_is_iso_to_argument():
    cat = fork()
    from profcalc.fincat import identity_functor

    p, _, _ = psh_coproduct(yoneda(cat, "x"), yoneda(cat, "e"))
    image = kan_extend(functor_into_presheaves(identity_functor(cat)), p)
    from profcalc.prof import theta_map

    th = theta_map(p)
    assert th.source == image
    assert th.is_iso()


def test_apply_P_functor_constant():
    src = arrow_category()
    tgt = fork()
    const = [f for f in all_functors(src, tgt) if len(set(f.obj_map.values())) == 1][0]
    p, _, _ = psh_coproduct(yoneda(src, "0"), yoneda(src, "1"))
    image = kan_extend(functor_into_presheaves(const), p)
    y0 = const.obj_map["0"]
    # concentrated as a quotient of the disjoint sum weighted by hom(-, y0)
    for a in tgt.objects:
        assert len(image.values[a]) <= len(tgt.hom[(a, y0)]) * sum(
            len(p.values[x]) for x in src.objects
        )


def test_apply_P_functor_representable():
    src = arrow_category()
    tgt = fork()
    fun = all_functors(src, tgt)[3]
    for x in src.objects:
        image = kan_extend(functor_into_presheaves(fun), yoneda(src, x))
        target = yoneda(tgt, fun.obj_map[x])
        # co-Yoneda: the image is isomorphic to the representable at the image object
        assert sorted(len(image.values[a]) for a in tgt.objects) == sorted(
            len(target.values[a]) for a in tgt.objects
        )


def test_psh_terminal_and_product_counts():
    cat = fork()
    t = psh_terminal(cat)
    assert all(len(v) == 1 for v in t.values.values())
    p = yoneda(cat, "x")
    q = yoneda(cat, "y")
    prod, pi1, pi2 = psh_product(p, q)
    for a in cat.objects:
        assert len(prod.values[a]) == len(p.values[a]) * len(q.values[a])
    cone = psh_pair(psh_terminal_map(prod).then(PshMap.identity(t)) if False else pi1, pi2)
    assert cone.source == prod


def test_psh_product_universal_property():
    cat = arrow_category()
    p, q = yoneda(cat, "0"), yoneda(cat, "1")
    prod, pi1, pi2 = psh_product(p, q)
    w = yoneda(cat, "0")
    maps_p = all_psh_maps(w, p)
    maps_q = all_psh_maps(w, q)
    for mp in maps_p:
        for mq in maps_q:
            factor = psh_pair(mp, mq, (prod, pi1, pi2))
            assert factor.then(pi1) == mp and factor.then(pi2) == mq
            # uniqueness by exhaustive search
            others = [
                cand
                for cand in all_psh_maps(w, prod)
                if cand.then(pi1) == mp and cand.then(pi2) == mq
            ]
            assert others == [factor]


def test_equalizer_of_id_and_swap_is_empty():
    cat = arrow_category()
    two = FinSet(["s", "t"])
    const2 = Presheaf(
        cat,
        {a: two for a in cat.objects},
        {m: FinFn.identity(two) for m in cat.morphisms()},
    )
    ident = PshMap.identity(const2)
    swap = PshMap(
        const2,
        const2,
        {a: FinFn(two, two, {"s": "t", "t": "s"}) for a in cat.objects},
    )
    eq, incl = psh_equalizer(ident, swap)
    assert all(len(v) == 0 for v in eq.values.values())


def test_equalizer_factoring():
    cat = arrow_category()
    p = yoneda(cat, "1")
    cop, in1, in2 = psh_coproduct(p, p)
    eq, incl = psh_equalizer(in1, in1)
    # equalizer of equal maps is the whole source; factor the identity cone
    factor = psh_equalizer_factor((eq, incl), PshMap.identity(p))
    assert factor.then(incl) == PshMap.identity(p)


def test_pullback_values():
    cat = arrow_category()
    p = yoneda(cat, "1")
    t = psh_terminal(cat)
    pb, pr1, pr2 = psh_pullback(psh_terminal_map(p), psh_terminal_map(p))
    for a in cat.objects:
        assert len(pb.values[a]) == len(p.values[a]) ** 2


def test_psh_copair_universal():
    cat = arrow_category()
    p, q = yoneda(cat, "0"), yoneda(cat, "1")
    cop, in1, in2 = psh_coproduct(p, q)
    t = psh_terminal(cat)
    out = psh_copair(psh_terminal_map(p), psh_terminal_map(q), (cop, in1, in2))
    assert in1.then(out) == psh_terminal_map(p)


# -- preservation checks (the lifting content at instances) ---------------------


def test_yoneda_preserves_terminal_on_chain():
    cat = chain(2)
    emb = yoneda_embedding(cat)
    report = check_preserves("terminal", emb, "2")
    assert report.ok


def test_yoneda_preserves_binary_products_on_square():
    cat = commutative_square()
    emb = yoneda_embedding(cat)
    # meet of '01' and '10' is '00'
    report = check_preserves(
        "binary_product",
        emb,
        ("01", "10", "00", ("le", "00", "01"), ("le", "00", "10")),
    )
    assert report.ok


def test_yoneda_fails_initial_preservation():
    cat = arrow_category()  # 0 is initial
    emb = yoneda_embedding(cat)
    report = check_preserves("initial", emb, "0")
    assert not report.ok


def test_kan_extension_preserves_terminal_when_functor_does():
    src = chain(1)
    tgt = chain(1)
    fun = [
        f
        for f in all_functors(src, tgt)
        if f.obj_map["1"] == "1"  # preserves the terminal object
    ][0]
    f = functor_into_presheaves(fun)
    report = check_preserves("kan_terminal", f, None)
    assert report.ok


def _meet_functor():
    # min of coordinates: a meet-preserving map square -> chain(1)
    src = commutative_square()
    tgt = chain(1)
    obj_map = {a: str(min(int(a[0]), int(a[1]))) for a in src.objects}
    mor_map = {}
    for m in src.morphisms():
        a, b = src.src(m), src.tgt(m)
        mor_map[m] = ("le", obj_map[a], obj_map[b])
    return Functor(src, tgt, obj_map, mor_map)


def test_kan_extension_preserves_products_of_product_preserving():
    fun = _meet_functor()
    f = functor_into_presheaves(fun)
    src = fun.source
    p = yoneda(src, "01")
    q = yoneda(src, "10")
    report = check_preserves("kan_binary_product", f, (p, q))
    assert report.ok
    prod, _, _ = psh_product(p, q)
    report = check_preserves("kan_binary_product", f, (prod, yoneda(src, "11")))
    assert report.ok


def fork_counterexample_functor():
    """Sends the parallel pair to the identity and twist on a 2-element value."""
    cat = fork()
    target = terminal_category()
    two = FinSet([0, 1])
    empty = FinSet()

    def const_psh(val):
        return Presheaf(
            target, {"*": val}, {"id*": FinFn.identity(val)}, check=False
        )

    p_empty, p_two = const_psh(empty), const_psh(two)
    ident = PshMap.identity(p_two)
    twist = PshMap(p_two, p_two, {"*": FinFn(two, two, {0: 1, 1: 0})}, check=False)
    empty_map = PshMap(p_empty, p_two, {"*": FinFn(empty, two, {})}, check=False)
    on_obj = {"e": p_empty, "x": p_two, "y": p_two}
    on_mor = {
        "id_e": PshMap.identity(p_empty),
        "id_x": ident,
        "id_y": ident,
        "i": empty_map,
        "u": ident,
        "v": twist,
        "w": empty_map,
    }
    return PshValuedFunctor_checked(cat, target, on_obj, on_mor)


def PshValuedFunctor_checked(cat, target, on_obj, on_mor):
    from profcalc.presheaf import PshValuedFunctor

    f = PshValuedFunctor(cat, target, on_obj, on_mor, check=True)
    return f


def test_fork_functor_preserves_the_source_equalizer():
    f = fork_counterexample_functor()
    # the equalizer of (u, v) in the fork is e, and F(e) = empty = eq(id, twist)
    two = f.on_obj["x"].values["*"]
    eq_elements = [
        z for z in two if f.on_mor["u"].components["*"](z) == f.on_mor["v"].components["*"](z)
    ]
    assert eq_elements == []
    assert len(f.on_obj["e"].values["*"]) == 0


def _fork_parallel_pair(cat):
    """phi, psi: y(y) -> Q, differing only at y, over the fork."""
    # Q has a two-element value at y whose points are merged over x
    qy = FinSet(["q0", "q1"])
    qx = FinSet(["q"])
    qe = FinSet(["qe"])
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
    q = Presheaf(cat, values, restriction)
    p = yoneda(cat, "y")
    phi = PshMap(
        p,
        q,
        {
            "e": FinFn(p.values["e"], qe, {"w": "qe"}),
            "x": FinFn(p.values["x"], qx, {"u": "q", "v": "q"}),
            "y": FinFn(p.values["y"], qy, {"id_y": "q0"}),
        },
    )
    psi = PshMap(
        p,
        q,
        {
            "e": FinFn(p.values["e"], qe, {"w": "qe"}),
            "x": FinFn(p.values["x"], qx, {"u": "q", "v": "q"}),
            "y": FinFn(p.values["y"], qy, {"id_y": "q1"}),
        },
    )
    return phi, psi


def test_fork_counterexample_breaks_equalizer_preservation():
    f = fork_counterexample_functor()
    report = check_preserves("kan_equalizer", f, _fork_parallel_pair(f.source))
    assert not report.ok


def test_kan_pullback_preservation_holds_for_yoneda_and_fails_for_the_fork_functor():
    f = fork_counterexample_functor()
    cat = f.source
    phi, psi = _fork_parallel_pair(cat)
    square = check_preserves("kan_pullback", yoneda_embedding(cat), (phi, psi))
    assert square.ok and [i.name for i in square.items] == ["comparison-defined", "comparison-iso"]
    product = (psh_terminal_map(yoneda(cat, "y")), psh_terminal_map(yoneda(cat, "x")))
    assert check_preserves("kan_pullback", f, product).ok
    report = check_preserves("kan_pullback", f, (phi, psi))
    assert [(i.name, i.passed) for i in report.items] == [
        ("comparison-defined", True),
        ("comparison-iso", False),
    ]
    assert report.items[1].witness == "component at '*' has |dom|=8, |image|=4, |cod|=4"


def test_kan_extension_preserves_coproducts():
    cat = fork()
    f = functor_into_presheaves(all_functors(cat, parallel_pair())[3])
    p = yoneda(cat, "x")
    q = yoneda(cat, "y")
    cop, in1, in2 = psh_coproduct(p, q)
    kcop = kan_extend(f, cop)
    k1 = kan_extend_map(f, in1)
    k2 = kan_extend_map(f, in2)
    target_cop, j1, j2 = psh_coproduct(kan_extend(f, p), kan_extend(f, q))
    # compare cardinalities and joint surjectivity elementwise
    for a in f.target_base.objects:
        assert len(kcop.values[a]) == len(target_cop.values[a])
        images = {k1.components[a](u) for u in k1.components[a].domain}
        images |= {k2.components[a](u) for u in k2.components[a].domain}
        assert images == set(kcop.values[a].elements)


def test_pvf_combinators_are_functorial():
    cat = arrow_category()
    tgt = fork()
    fs = all_functors(cat, tgt)
    a = functor_into_presheaves(fs[0])
    b = functor_into_presheaves(fs[4])
    assert pvf_violations(pvf_coproduct(a, b)) == []
    assert pvf_violations(pvf_constant(cat, yoneda(tgt, "y"))) == []
    from profcalc.presheaf import pvf_product

    assert pvf_violations(pvf_product(a, b)) == []


def test_universal_property_checks_survive_python_O():
    """psh_pair verifies its factorisation with a raise, not an assert, so a
    mismatched product (projections swapped) is caught under python -O."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = """
import sys
from profcalc.presheaf import psh_pair, psh_product, yoneda
from profcalc.seeds import parallel_pair

assert False, "asserts must be stripped in this run"
p = yoneda(parallel_pair(), "b")
prod, pi1, pi2 = psh_product(p, p)
try:
    psh_pair(pi1, pi2, (prod, pi2, pi1))
except ValueError as exc:
    print("raised:", exc)
    sys.exit(0)
sys.exit(3)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("PYTHONOPTIMIZE", None)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "raised:" in done.stdout


def _all_pairs_presheaf_violations(p: Presheaf) -> list[tuple]:
    """Reference check: the identity and composition laws on every pair."""
    base, out = p.base, []
    for a in base.objects:
        if any(p.restriction[base.id_of(a)](u) != u for u in p.values[a]):
            out.append(("identity", a))
    for g, f in base.composable_pairs():
        gf = p.restriction[base.comp[(g, f)]]
        if any(gf(u) != p.restriction[f](p.restriction[g](u)) for u in gf.domain):
            out.append(("composition", g, f))
    return out


def test_presheaf_composition_check_on_generator_pairs_agrees_with_all_pairs():
    # perturb the restriction along each composite in turn; only the
    # composition law breaks, and 0 -> 3 is seen only as (2 -> 3) . (0 -> 2)
    cat = chain(3)
    objs = cat.objects.elements
    p, _, _ = psh_coproduct(yoneda(cat, objs[0]), yoneda(cat, objs[-1]))
    assert presheaf_violations(p) == [] == _all_pairs_presheaf_violations(p)
    perturbed = []
    for m in cat.morphisms():
        fn = p.restriction[m]
        if cat.is_identity(m) or m in cat.generators() or len(fn.domain) == 0 or len(fn.codomain) < 2:
            continue
        mapping = as_dict(fn)
        x = fn.domain.elements[0]
        mapping[x] = next(c for c in fn.codomain if c != mapping[x])
        restriction = {**p.restriction, m: FinFn(fn.domain, fn.codomain, mapping)}
        broken = Presheaf(cat, p.values, restriction, check=False)
        reference = _all_pairs_presheaf_violations(broken)
        assert reference and all(v[0] == "composition" for v in reference)
        found = presheaf_violations(broken)
        assert found and all("composition" in v for v in found)
        perturbed.append(m)
    assert ("le", "0", "3") in perturbed


def test_pvf_combinators_build_one_presheaf_per_pair_of_images():
    pool = all_functors(arrow_category(), arrow_category())
    const = functor_into_presheaves(pool[0])  # both objects go to "0"
    ident = functor_into_presheaves(pool[1])
    assert const.on_obj["0"] is const.on_obj["1"]
    for combine, pointwise in ((pvf_coproduct, psh_coproduct), (pvf_product, psh_product)):
        shared, mixed = combine(const, const), combine(const, ident)
        assert shared.on_obj["0"] is shared.on_obj["1"]
        assert mixed.on_obj["0"] is not mixed.on_obj["1"]
        for f, second in ((shared, const), (mixed, ident)):
            assert pvf_violations(f) == []
            for x in ("0", "1"):
                assert f.on_obj[x] == pointwise(const.on_obj[x], second.on_obj[x])[0]
