import pytest

from integrands import as_dict, failures
from profcalc.colim import bifunctor_violations
from profcalc.fincat import FinFn, FinSet, NonInvertible, fault_scope
from profcalc.presheaf import (
    functor_into_presheaves,
    psh_coproduct,
    pvf_coproduct,
    yoneda,
    yoneda_embedding,
)
from profcalc.prof import (
    KLEISLI,
    KleisliCell,
    ProfCell,
    Profunctor,
    eta_cell,
    kleisli_associator,
    kleisli_compose,
    kleisli_left_unitor,
    kleisli_right_unitor,
    mu_map,
    prof_compose,
    prof_identity,
    tau,
    tau_inv,
    theta_map,
    whisker_left,
    whisker_right,
)
from profcalc.report import check_pentagon, check_triangle
from profcalc.seeds import (
    all_functors,
    arrow_category,
    discrete,
    fork,
    parallel_pair,
    seed_library,
    terminal_category,
)

SEEDS = seed_library()


def matrix_profunctor(mat, name="m"):
    cat = discrete(len(mat[0]))
    tgt = discrete(len(mat))
    values = {}
    for i, y in enumerate(tgt.objects):
        for j, x in enumerate(cat.objects):
            values[(y, x)] = FinSet([f"{name}{i}{j}:{k}" for k in range(mat[i][j])])
    left = {
        (tgt.id_of(y), x): FinFn.identity(values[(y, x)])
        for y in tgt.objects
        for x in cat.objects
    }
    right = {
        (y, cat.id_of(x)): FinFn.identity(values[(y, x)])
        for y in tgt.objects
        for x in cat.objects
    }
    return Profunctor(cat, tgt, values, left, right)


def test_prof_identity_terminal():
    p = prof_identity(terminal_category())
    assert all(len(v) == 1 for v in p.values.values())


def test_prof_identity_discrete_diagonal():
    p = prof_identity(discrete(3))
    for (y, x), v in p.values.items():
        assert len(v) == (1 if y == x else 0)


def test_prof_identity_arrow_is_hom_table():
    cat = arrow_category()
    p = prof_identity(cat)
    for a in cat.objects:
        for b in cat.objects:
            assert p.values[(a, b)] == cat.hom[(a, b)]


def test_prof_identity_valid_on_seeds():
    for name in ["fork", "S3", "chain2"]:
        assert bifunctor_violations(prof_identity(SEEDS[name])) == []


def test_matrix_composition_cardinalities():
    f = matrix_profunctor([[1, 2], [0, 1]], "f")
    g = matrix_profunctor([[1, 1], [2, 0]], "g")
    gf = prof_compose(g, f)
    mat = [
        [len(gf.values[(y, x)]) for x in f.source.objects]
        for y in g.target.objects
    ]
    assert mat == [[1, 3], [2, 4]]


def test_identity_composition_isomorphic():
    from integrands import label_induced_map

    cat = fork()
    f = tau_inv(functor_into_presheaves(all_functors(arrow_category(), cat)[3]))
    composed = prof_compose(prof_identity(cat), f)
    # Id . F ~ F via co-Yoneda: class (y', (h: y -> y', v)) acts v back along h
    for key in f.values:
        y, x = key

        def rule(elem, y=y, x=x):
            yp, (h, v) = elem
            return f.left_act[(h, x)](v)

        fn = label_induced_map(composed.quotients[key], f.values[key], rule)
        assert fn.is_iso()


def test_compose_with_empty_profunctor():
    cat = arrow_category()
    empty = Profunctor(
        cat,
        cat,
        {(y, x): FinSet() for y in cat.objects for x in cat.objects},
        {(g, x): FinFn(FinSet(), FinSet(), {}) for g in cat.morphisms() for x in cat.objects},
        {(y, f): FinFn(FinSet(), FinSet(), {}) for y in cat.objects for f in cat.morphisms()},
    )
    composed = prof_compose(tau_inv(yoneda_embedding(cat)), empty)
    assert all(len(v) == 0 for v in composed.values.values())


def test_tau_of_identity_is_yoneda():
    for name in ["arrow", "fork", "Z2"]:
        cat = SEEDS[name]
        assert tau(prof_identity(cat)) == yoneda_embedding(cat)


@pytest.mark.parametrize("name", ["arrow", "fork", "parallel_pair", "Z2"])
def test_tau_round_trip_label_exact(name):
    cat = SEEDS[name]
    p = prof_identity(cat)
    assert tau_inv(tau(p)) == p
    f = tau_inv(functor_into_presheaves(all_functors(cat, arrow_category())[0]))
    assert tau_inv(tau(f)) == f


def test_tau_respects_composition():
    src, mid, tgt = arrow_category(), fork(), parallel_pair()
    f = tau_inv(functor_into_presheaves(all_functors(src, mid)[2]))
    g = tau_inv(functor_into_presheaves(all_functors(mid, tgt)[1]))
    coend_route = prof_compose(g, f)
    kleisli_route = tau_inv(kleisli_compose(tau(g), tau(f)))
    # both routes produce the same carriers up to the constructed bijection;
    # here the presentations coincide label-exactly
    for key in coend_route.values:
        assert len(coend_route.values[key]) == len(kleisli_route.values[key])
        fn = FinFn(
            coend_route.values[key],
            kleisli_route.values[key],
            {v: v for v in coend_route.values[key]},
        )
        assert fn.is_iso()


def test_mu_reduces_on_unit_composite():
    cat = arrow_category()
    f = functor_into_presheaves(all_functors(cat, fork())[1])
    i = KLEISLI.identity(cat)
    p = yoneda(cat, "0")
    cell = mu_map(f, i, p)
    assert all(fn.is_iso() for fn in cell.components.values())


def test_theta_on_representable_and_constant():
    cat = arrow_category()
    for x in cat.objects:
        th = theta_map(yoneda(cat, x))
        assert th.is_iso()
    p, _, _ = psh_coproduct(yoneda(cat, "0"), yoneda(cat, "1"))
    th = theta_map(p)
    assert th.is_iso()
    assert th.violations() == []


def test_theta_natural_against_random_pshmap():
    cat = arrow_category()
    p = yoneda(cat, "1")
    cop, in1, _ = psh_coproduct(p, p)
    i = KLEISLI.identity(cat)
    from profcalc.presheaf import kan_extend_map

    th_p = theta_map(p)
    th_cop = theta_map(cop)
    lifted = kan_extend_map(i, in1)
    assert lifted.then(th_cop) == th_p.then(in1)


def test_unitors_and_associator_isos():
    src, mid, tgt = arrow_category(), fork(), parallel_pair()
    f = functor_into_presheaves(all_functors(src, mid)[2])
    g = functor_into_presheaves(all_functors(mid, tgt)[1])
    h = functor_into_presheaves(all_functors(tgt, src)[1])
    alpha = kleisli_associator(h, g, f)
    assert alpha.is_iso()
    assert alpha.violations() == []
    lam = kleisli_left_unitor(f)
    rho = kleisli_right_unitor(f)
    assert lam.is_iso() and rho.is_iso()
    assert lam.violations() == []
    assert rho.violations() == []


def test_unitor_on_identity_morphism_consistent():
    cat = fork()
    i = KLEISLI.identity(cat)
    lam = kleisli_left_unitor(i)
    rho = kleisli_right_unitor(i)
    # lambda_i and rho_i are parallel cells i o i -> i; by the unit coherence
    # they agree (Lemma-level reduction)
    assert lam.source == rho.source
    assert lam == rho


def test_pentagon_and_triangle_discrete_middle():
    cats = [discrete(2), discrete(2), discrete(2), discrete(2), discrete(2)]
    fs = []
    import random

    rng = random.Random(1)
    for i in range(4):
        pool = all_functors(cats[i], cats[i + 1])
        fs.append(functor_into_presheaves(pool[rng.randrange(len(pool))]))
    f, g, h, k = fs
    assert check_pentagon(KLEISLI, k, h, g, f).ok
    assert check_triangle(KLEISLI, g, f).ok


def test_pentagon_with_coproduct_morphisms():
    src, mid = arrow_category(), fork()
    pool = all_functors(src, mid)
    f = pvf_coproduct(
        functor_into_presheaves(pool[0]), functor_into_presheaves(pool[3])
    )
    g = functor_into_presheaves(all_functors(mid, parallel_pair())[2])
    h = functor_into_presheaves(all_functors(parallel_pair(), arrow_category())[1])
    k = functor_into_presheaves(all_functors(arrow_category(), arrow_category())[1])
    assert check_pentagon(KLEISLI, k, h, g, f).ok
    assert check_triangle(KLEISLI, g, f).ok


def test_corrupted_mu_breaks_pentagon_with_witness():
    src, mid = arrow_category(), fork()
    pool = all_functors(src, mid)
    f = pvf_coproduct(
        functor_into_presheaves(pool[0]), functor_into_presheaves(pool[3])
    )
    g = functor_into_presheaves(all_functors(mid, parallel_pair())[2])
    h = functor_into_presheaves(all_functors(parallel_pair(), arrow_category())[1])
    k = functor_into_presheaves(all_functors(arrow_category(), fork())[3])

    state = {"count": 0}

    def corrupt(kind, key, fn):
        if kind != "mu" or len(fn.domain) < 2:
            return fn
        state["count"] += 1
        if state["count"] != 1:
            return fn
        a, b = fn.domain.elements[0], fn.domain.elements[1]
        table = as_dict(fn)
        table[a], table[b] = table[b], table[a]
        return FinFn(fn.domain, fn.codomain, table)

    with fault_scope(corrupt):
        report = check_pentagon(KLEISLI, k, h, g, f)
    assert state["count"] >= 1
    assert not report.ok
    assert failures(report)[0].witness


def test_profcell_validation():
    cat = arrow_category()
    p = prof_identity(cat)
    ident = ProfCell(
        p,
        p,
        {key: FinFn.identity(val) for key, val in p.values.items()},
    )
    assert ident.is_iso()
    bad_components = {
        key: FinFn.identity(val) for key, val in p.values.items()
    }
    bad_components[("0", "1")] = FinFn(
        p.values[("0", "1")], p.values[("0", "1")], {("le", "0", "1"): ("le", "0", "1")}
    )
    # still identity; force a genuine break on a 1-element set is impossible,
    # so corrupt the interchange by rerouting a 2-element hom set instead
    q = prof_identity(fork())
    comps = {key: FinFn.identity(val) for key, val in q.values.items()}
    two = q.values[("x", "y")]
    comps[("x", "y")] = FinFn(two, two, {"u": "v", "v": "u"})
    with pytest.raises(ValueError):
        ProfCell(q, q, comps)
