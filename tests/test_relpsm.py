import pytest

from integrands import as_dict, failures
from profcalc import presheaf
from profcalc.fincat import BoundExceeded, Fault, FinFn, fault_scope
from profcalc.presheaf import (
    all_psh_maps,
    functor_into_presheaves,
    pvf_coproduct,
    yoneda,
    yoneda_embedding,
)
from profcalc.prof import KLEISLI, kleisli_compose
from profcalc.relpsm import (
    TestFamily,
    check_assoc_axiom,
    check_cell_naturality,
    check_derived_coherences,
    check_lax_idempotent,
    check_unit_axiom,
    enumerate_kleisli_cells,
    epsilon_cell,
)
from profcalc.seeds import all_functors, arrow_category, discrete, fork, parallel_pair, seed_library, terminal_category

SEEDS = seed_library()


def _chain(names, picks):
    cats = [SEEDS[n] for n in names]
    out = []
    for i in range(len(cats) - 1):
        pool = all_functors(cats[i], cats[i + 1])
        out.append(functor_into_presheaves(pool[picks[i] % len(pool)]))
    return cats, out


def test_default_family_members():
    fam = TestFamily.default(arrow_category())
    kinds = [name[0] for name, _ in fam.named()]
    assert kinds.count("rep") == 2
    assert "terminal" in kinds and "empty" in kinds and "coprod" in kinds


def test_assoc_axiom_identities():
    cat = fork()
    i = KLEISLI.identity(cat)
    fam = TestFamily.default(cat)
    assert check_assoc_axiom(i, i, i, fam).ok


def test_assoc_axiom_discrete_chain():
    cats, (f, g, h) = _chain(["discrete2", "discrete2", "discrete2", "discrete2"], [1, 2, 3])
    fam = TestFamily.default(cats[0])
    assert check_assoc_axiom(f, g, h, fam).ok


def test_assoc_axiom_random_instance():
    cats, (f, g, h) = _chain(["arrow", "fork", "parallel_pair", "chain2"], [3, 2, 1])
    fam = TestFamily.default(cats[0])
    assert check_assoc_axiom(f, g, h, fam).ok


def test_unit_axiom_identity_and_functorial():
    cat = arrow_category()
    fam = TestFamily.default(cat)
    assert check_unit_axiom(KLEISLI.identity(cat), fam).ok
    f = functor_into_presheaves(all_functors(cat, fork())[4])
    assert check_unit_axiom(f, fam).ok


def test_unit_axiom_fault_injected_theta_reported():
    cat = arrow_category()
    fam = TestFamily.default(cat)
    f = pvf_coproduct(
        functor_into_presheaves(all_functors(cat, fork())[0]),
        functor_into_presheaves(all_functors(cat, fork())[3]),
    )
    fault = Fault("theta")
    try:
        with fault_scope(fault):
            report = check_unit_axiom(f, fam)
        failed = not report.ok
        witness = failures(report)[0].witness if failed else None
    except ValueError as exc:  # ill-defined induced map is also a detection
        failed = True
        witness = str(exc)
    assert fault.applied is not None
    assert failed and witness


def test_derived_coherences_identities():
    cat = parallel_pair()
    i = KLEISLI.identity(cat)
    fam = TestFamily.default(cat)
    assert check_derived_coherences(i, i, fam).ok


def test_derived_coherences_seed_sweep():
    for names, picks in [
        (["arrow", "fork", "parallel_pair"], [2, 1]),
        (["terminal", "arrow", "arrow"], [0, 1]),
        (["discrete2", "chain2", "Z2"], [1, 0]),
    ]:
        cats, (f, g) = _chain(names, picks)
        fam = TestFamily.default(cats[0])
        assert check_derived_coherences(f, g, fam).ok, names


def test_derived_part_i_fails_with_corrupted_eta():
    cats, (f0, g) = _chain(["arrow", "fork", "parallel_pair"], [3, 2])
    pool = all_functors(cats[0], cats[1])
    consts = [fn for fn in pool if len(set(fn.obj_map.values())) == 1]
    f = pvf_coproduct(
        functor_into_presheaves(consts[-1]), functor_into_presheaves(consts[-1])
    )
    fam = TestFamily.default(cats[0])
    fault = Fault("eta")
    with fault_scope(fault):
        report = check_derived_coherences(f, g, fam)
    assert fault.applied is not None
    assert not report.ok
    assert any(item.name.startswith("part-i") for item in failures(report))


def test_epsilon_invertible_on_sweep():
    for names, picks in [(["arrow", "fork"], [2]), (["discrete2", "discrete3"], [1])]:
        cats, (f,) = _chain(names, picks)
        fam = TestFamily.default(cats[0])
        cells, report = epsilon_cell(f, fam)
        assert report.ok


def test_epsilon_on_identity():
    cat = arrow_category()
    fam = TestFamily.default(cat)
    _, report = epsilon_cell(KLEISLI.identity(cat), fam)
    assert report.ok


def test_enumerate_kleisli_cells_matches_hom_count():
    cat = arrow_category()
    emb = yoneda_embedding(cat)
    # 2-cells y(a)-functor -> y(b)-functor correspond to natural families;
    # for the Yoneda embedding to itself these are generated by identities
    cells = enumerate_kleisli_cells(emb, emb)
    assert len(cells) >= 1


def test_enumeration_budget_raises_bound_exceeded(monkeypatch):
    monkeypatch.setattr(presheaf, "NODE_BUDGET", 3)
    emb = yoneda_embedding(arrow_category())
    doubled = pvf_coproduct(emb, emb)  # two-element value sets: four candidates per slot
    with pytest.raises(BoundExceeded, match="more than 3 "):
        all_psh_maps(doubled.on_obj["1"], doubled.on_obj["1"])
    with pytest.raises(BoundExceeded, match="more than 3 "):
        enumerate_kleisli_cells(doubled, doubled)


def test_lax_idempotent_terminal_base():
    term = terminal_category()
    tgt = arrow_category()
    pool = all_functors(term, tgt)
    f = functor_into_presheaves(pool[0])
    g = functor_into_presheaves(all_functors(tgt, tgt)[1])
    competitors = [f, functor_into_presheaves(pool[1])]
    fam = TestFamily.default(term)
    report = check_lax_idempotent(f, g, fam, competitors=competitors)
    assert report.ok
    assert "restriction" in report.meta


def test_lax_idempotent_discrete_base():
    base = discrete(2)
    tgt = arrow_category()
    pool = all_functors(base, tgt)
    f = functor_into_presheaves(pool[0])
    g = functor_into_presheaves(all_functors(tgt, fork())[2])
    competitors = [f, functor_into_presheaves(pool[2])]
    fam = TestFamily.default(base)
    report = check_lax_idempotent(f, g, fam, competitors=competitors)
    assert report.ok


def test_lax_idempotent_corrupted_unit_breaks_bijection():
    term = terminal_category()
    tgt = arrow_category()
    pool = all_functors(term, tgt)
    f = functor_into_presheaves(pool[0])
    g = functor_into_presheaves(all_functors(tgt, tgt)[1])
    fam = TestFamily.default(term)

    state = {"applied": None}

    def corrupt(kind, key, fn):
        # corrupt eta by rerouting one component to a constant, breaking
        # its role as a unit for the extension search
        if kind != "eta" or len(fn.domain) < 2 or len(fn.codomain) < 2:
            return fn
        if state["applied"] is None:
            state["applied"] = key
        if key != state["applied"]:
            return fn
        a, b = fn.domain.elements[0], fn.domain.elements[1]
        table = as_dict(fn)
        table[a], table[b] = table[b], table[a]
        return FinFn(fn.domain, fn.codomain, table)

    f2 = pvf_coproduct(f, f)
    with fault_scope(corrupt):
        report = check_lax_idempotent(f2, g, fam, competitors=[f2])
    assert state["applied"] is not None
    # the triangles involving eta must notice the swap
    assert not report.ok


def test_cell_naturality_sweep():
    cats, (f, g) = _chain(["arrow", "fork", "parallel_pair"], [2, 1])
    fam = TestFamily.default(cats[0])
    assert check_cell_naturality(f, g, fam).ok
