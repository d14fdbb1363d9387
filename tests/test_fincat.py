import itertools
import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from integrands import opposite
from profcalc.fincat import (
    Cell,
    EndpointMismatch,
    Fault,
    FinCat,
    FinFn,
    FinSet,
    Functor,
    NatTrans,
    NonInvertible,
    cell_difference,
    corrupt,
    fault_scope,
    functor_compose,
    identity_functor,
    label_key,
    product,
    validate_category,
)
from profcalc.seeds import (
    all_functors,
    arrow_category,
    cyclic_group_category,
    discrete,
    fork,
    parallel_pair,
    seed_library,
    sym3_category,
    terminal_category,
)

SEEDS = seed_library()


def test_finset_is_canonically_ordered():
    s = FinSet(["b", "a", "c"])
    assert s.elements == ("a", "b", "c")
    t = FinSet([("x", 1), 3, "a"])
    assert t.elements == (3, "a", ("x", 1))


labels = st.recursive(
    st.integers(min_value=-3, max_value=3) | st.text(alphabet="ab", max_size=2),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
finsets = st.lists(labels, max_size=4, unique=True).map(FinSet)


@settings(max_examples=80, deadline=None)
@given(finsets, finsets, finsets, st.lists(st.booleans(), min_size=4, max_size=4))
def test_constructors_match_sorting_over_the_same_elements(a, b, c, keep):
    assert FinSet.product(a, b).elements == FinSet((x, y) for x in a for y in b).elements
    assert (
        FinSet.product(a, b, c).elements
        == FinSet((x, y, z) for x in a for y in b for z in c).elements
    )
    fibres = (b, c, a, FinSet())

    def fibre(i):
        return fibres[a.elements.index(i) % len(fibres)]

    assert FinSet.sigma(a, fibre).elements == FinSet((i, x) for i in a for x in fibre(i)).elements
    chosen = {x for x, k in zip(a, keep) if k}
    assert a.subset(chosen.__contains__).elements == FinSet(chosen).elements
    assert FinSet.sigma(range(2), (a, b).__getitem__).elements == FinSet(
        [(0, x) for x in a] + [(1, y) for y in b]
    ).elements
    if len(b):
        # an index that repeats a label gives repeated pairs
        with pytest.raises(ValueError, match="pairwise distinct"):
            FinSet.sigma([0, 0], lambda i: b)


def test_finset_rejects_duplicates():
    with pytest.raises(ValueError):
        FinSet(["a", "a"])


def test_finfn_totality_and_codomain():
    s, t = FinSet([0, 1]), FinSet(["x"])
    with pytest.raises(ValueError):
        FinFn(s, t, {0: "x"})
    with pytest.raises(ValueError):
        FinFn(s, t, {0: "x", 1: "y"})
    fn = FinFn(s, t, {0: "x", 1: "x"})
    assert fn(0) == "x"


def test_finfn_inverse():
    s = FinSet([0, 1])
    swap = FinFn(s, s, {0: 1, 1: 0})
    assert swap.inverse() == swap
    collapse = FinFn(s, s, {0: 0, 1: 0})
    with pytest.raises(NonInvertible):
        collapse.inverse()


@st.composite
def _maps(draw):
    """Three sets and two label tables, domain -> middle -> codomain, as dicts
    in a drawn insertion order: the reference a positional FinFn must match."""
    dom, mid, cod = draw(finsets), draw(finsets.filter(len)), draw(finsets.filter(len))
    f = {x: draw(st.sampled_from(mid.elements)) for x in draw(st.permutations(dom.elements))}
    g = {y: draw(st.sampled_from(cod.elements)) for y in draw(st.permutations(mid.elements))}
    return dom, mid, cod, f, g


@settings(max_examples=120, deadline=None)
@given(_maps(), st.data())
def test_a_finfn_by_position_agrees_with_its_label_table(maps, data):
    dom, mid, cod, f, g = maps
    fn, gn = FinFn(dom, mid, f), FinFn(mid, cod, g)
    assert [fn(x) for x in dom] == [f[x] for x in dom]
    assert fn.mapping == tuple((x, f[x]) for x in dom.elements) and fn.as_dict() == f
    assert fn.then(gn).mapping == tuple((x, g[f[x]]) for x in dom.elements)
    assert FinFn.identity(dom).as_dict() == {x: x for x in dom} and fn.then(FinFn.identity(mid)) == fn
    iso = len(set(f.values())) == len(mid) == len(dom)
    assert fn.is_iso() == iso
    if iso:
        inv = fn.inverse()
        assert inv.as_dict() == {y: x for x, y in f.items()} and fn.then(inv) == FinFn.identity(dom)
    else:
        with pytest.raises(NonInvertible):
            fn.inverse()
    # equality and hashing follow the tables, whatever the insertion order
    other = dict(data.draw(st.permutations(list(f.items()))))
    if dom:
        x = data.draw(st.sampled_from(dom.elements))
        other[x] = data.draw(st.sampled_from(mid.elements))
    twin = FinFn(dom, mid, other)
    assert (twin == fn) == (other == f) and (twin != fn) == (other != f)
    if other == f:
        assert hash(twin) == hash(fn)
    # refusals: totality first, then the first image outside the codomain in the mapping's own order
    bad = {x: ("absent", i) if i % 2 == 0 else y for i, (x, y) in enumerate(f.items())}
    for table in (bad, dict(reversed(bad.items()))):
        first = next((y for y in table.values() if y not in mid), None)
        if first is not None:
            with pytest.raises(ValueError, match=f"^image label {re.escape(repr(first))} not in codomain$"):
                FinFn(dom, mid, table)
            with pytest.raises(ValueError, match="^mapping must be total on the domain$"):
                FinFn(dom, mid, dict(list(table.items())[1:]))
    # a fault swaps the images of the first two domain elements, the same two labels as the table
    with fault_scope(Fault("k")):
        hit = corrupt("k", ("key",), fn)
    if len(dom) < 2:
        assert hit is fn
    else:
        a, b = dom.elements[:2]
        assert hit.as_dict() == f | {a: f[b], b: f[a]}
        assert hit.domain is dom and hit.codomain is mid


def test_terminal_category_valid():
    assert validate_category(terminal_category()) == []


def test_sigma2_monoid_valid():
    from profcalc.seeds import cyclic_group_category

    assert validate_category(cyclic_group_category(2)) == []


def test_corrupted_fork_names_offending_triple():
    cat = fork()
    comp = dict(cat.comp)
    comp[("u", "i")] = "w"
    comp[("v", "i")] = "w"
    # break associativity indirectly: reroute id_y . w
    comp[("id_y", "w")] = "w"
    comp[("u", "id_x")] = "v"  # wrong unit
    broken = FinCat(cat.objects, cat.hom, cat.ids, comp)
    violations = validate_category(broken)
    assert violations
    assert any("'u'" in v for v in violations)


@pytest.mark.parametrize("name", list(SEEDS))
def test_seed_library_valid(name):
    assert validate_category(SEEDS[name]) == []


def test_opposite_terminal_is_itself():
    cat = terminal_category()
    assert opposite(cat) == cat


def test_opposite_reverses_arrow():
    cat = arrow_category()
    op = opposite(cat)
    assert len(op.hom[("1", "0")]) == 1
    assert len(op.hom[("0", "1")]) == 0


@pytest.mark.parametrize("name", ["fork", "parallel_pair", "chain2", "S3"])
def test_opposite_involution_label_exact(name):
    cat = SEEDS[name]
    assert opposite(opposite(cat)) == cat
    assert validate_category(opposite(cat)) == []


def test_product_with_terminal():
    cat = arrow_category()
    prod = product(cat, terminal_category())
    assert len(prod.objects) == len(cat.objects)
    assert sum(1 for _ in prod.morphisms()) == sum(1 for _ in cat.morphisms())


def test_product_counts():
    prod = product(discrete(2), discrete(3))
    assert len(prod.objects) == 6
    arrow = arrow_category()
    assert sum(1 for _ in product(arrow, arrow).morphisms()) == 9


@pytest.mark.parametrize("a,b", [("arrow", "fork"), ("parallel_pair", "Z2")])
def test_opposite_commutes_with_product(a, b):
    ca, cb = SEEDS[a], SEEDS[b]
    assert opposite(product(ca, cb)) == product(opposite(ca), opposite(cb))


def _double_loop_comp(c, d):
    """The composition table of the product c x d as a double loop over both tables fills it."""
    comp = {}
    for (g1, f1), h1 in c.comp.items():
        for (g2, f2), h2 in d.comp.items():
            comp[((g1, g2), (f1, f2))] = (h1, h2)
    return comp


@pytest.mark.parametrize("left, right", [*itertools.product(sorted(SEEDS), repeat=2), ("Z4", "Z4")])
def test_product_composes_by_rule_as_the_double_loop_table(left, right):
    c, d = (SEEDS[name] if name in SEEDS else cyclic_group_category(4) for name in (left, right))
    prod = product(c, d)
    table = _double_loop_comp(c, d)
    assert list(prod.comp.items()) == list(table.items())
    assert len(prod.comp) == len(table)
    assert validate_category(prod) == []
    tabulated = FinCat(prod.objects, prod.hom, prod.ids, table)
    assert prod == tabulated and tabulated == prod
    assert prod == product(c, d)  # a second rule product, outside any memo scope
    morphisms = list(prod.morphisms())
    g = morphisms[-1]
    strays = [(g, f) for f in morphisms if (g, f) not in table] + [(g[0], g[0]), (g, "x"), (g,), "gf"]
    for key in strays:
        assert key not in prod.comp
        with pytest.raises(KeyError):
            prod.comp[key]


def test_identity_functor_laws():
    cat = fork()
    functors = all_functors(cat, arrow_category())
    ident = identity_functor(cat)
    for fun in functors[:3]:
        assert functor_compose(fun, ident) == fun


def test_constant_functor_composition():
    cat = parallel_pair()
    consts = [f for f in all_functors(cat, fork()) if len(set(f.obj_map.values())) == 1]
    other = all_functors(fork(), arrow_category())[0]
    for c in consts:
        comp = functor_compose(other, c)
        assert len(set(comp.obj_map.values())) == 1


def test_functor_composite_revalidated_on_fork():
    f = all_functors(fork(), parallel_pair())[1]
    g = all_functors(parallel_pair(), arrow_category())[1]
    comp = functor_compose(g, f)
    # re-run the functor laws explicitly
    from profcalc.fincat import functor_violations

    assert functor_violations(comp) == []


def test_functor_endpoint_mismatch():
    f = all_functors(fork(), parallel_pair())[0]
    with pytest.raises(EndpointMismatch):
        functor_compose(f, f)


def test_nat_trans_naturality_enforced():
    cat = parallel_pair()
    fs = all_functors(cat, cat)
    ident = identity_functor(cat)
    # the identity transformation always works
    NatTrans(ident, ident, {a: cat.id_of(a) for a in cat.objects})
    with pytest.raises(ValueError):
        NatTrans(ident, ident, {"a": "id_a", "b": "u"})


# -- cell algebra ------------------------------------------------------------


def _cell(mapping_by_key):
    comps = {}
    for key, (dom, cod, table) in mapping_by_key.items():
        comps[key] = FinFn(FinSet(dom), FinSet(cod), table)
    return Cell(None, None, comps)


def test_invert_identity_cell():
    cell = _cell({"k": ([0, 1], [0, 1], {0: 0, 1: 1})})
    assert cell.inverse() == cell


def test_vcompose_inverse_law():
    cell = _cell({"k": ([0, 1], [0, 1], {0: 1, 1: 0})})
    composed = cell.then(cell.inverse())
    assert composed == _cell({"k": ([0, 1], [0, 1], {0: 0, 1: 1})})


def test_invert_names_bad_component():
    cell = _cell({"bad": ([0, 1], [0, 1], {0: 0, 1: 0})})
    with pytest.raises(NonInvertible) as err:
        cell.inverse()
    assert "bad" in str(err.value)


@st.composite
def random_cells(draw):
    size = draw(st.integers(min_value=0, max_value=3))
    dom = list(range(size))
    table1 = {i: draw(st.integers(min_value=0, max_value=2)) for i in dom}
    table2 = {i: draw(st.integers(min_value=0, max_value=2)) for i in range(3)}
    table3 = {i: draw(st.integers(min_value=0, max_value=2)) for i in range(3)}
    rng = FinSet([0, 1, 2])
    a = Cell(None, None, {"k": FinFn(FinSet(dom), rng, table1)})
    b = Cell(None, None, {"k": FinFn(rng, rng, table2)})
    c = Cell(None, None, {"k": FinFn(rng, rng, table3)})
    return a, b, c


@settings(max_examples=40, deadline=None)
@given(random_cells())
def test_vcompose_associative_and_unital(cells):
    a, b, c = cells
    assert a.then(b).then(c) == a.then(b.then(c))
    ident = Cell(None, None, {"k": FinFn.identity(a.components["k"].codomain)})
    assert a.then(ident) == a
    ident_dom = Cell(None, None, {"k": FinFn.identity(a.components["k"].domain)})
    assert ident_dom.then(a) == a


def _nested(tables):
    """A Kleisli-shaped cell: outer keys map to cells of FinFns on {0, 1}."""
    s = FinSet([0, 1])
    comps = {
        x: Cell(None, None, {obj: FinFn(s, s, t) for obj, t in inner.items()})
        for x, inner in tables.items()
    }
    return Cell(None, None, comps)


def test_cell_difference_names_key_path_and_element():
    a = _nested({"x": {"p": {0: 0, 1: 1}}, "y": {"p": {0: 0, 1: 1}, "q": {0: 1, 1: 0}}})
    b = _nested({"x": {"p": {0: 0, 1: 1}}, "y": {"p": {0: 0, 1: 1}, "q": {0: 1, 1: 1}}})
    assert cell_difference(a, a) is None
    assert cell_difference(a, b) == "at 'y', at 'q', element 1: 0 vs 1"


def test_cell_difference_missing_component():
    a = _nested({"x": {"p": {0: 0, 1: 1}, "q": {0: 0, 1: 1}}})
    b = _nested({"x": {"p": {0: 0, 1: 1}}})
    assert cell_difference(a, b) == "at 'x', missing component at 'q'"
    assert cell_difference(_nested({"z": {}}), b) == "missing component at 'z'"


def test_cell_difference_domains_differ():
    a = _nested({"x": {"p": {0: 0, 1: 1}}})
    shorter = FinFn(FinSet([0]), FinSet([0, 1]), {0: 0})
    b = Cell(None, None, {"x": Cell(None, None, {"p": shorter})})
    assert cell_difference(a, b) == "at 'x', at 'p': domains differ"


def test_iso_witness_at_non_bijective_leaf():
    a = _nested({"x": {"p": {0: 1, 1: 0}}, "y": {"p": {0: 0, 1: 1}, "q": {0: 1, 1: 1}}})
    assert a.iso_witness() == "at 'y', component at 'q' has |dom|=2, |image|=1, |cod|=2"
    assert not a.is_iso()
    with pytest.raises(NonInvertible, match="at 'y', component at 'q'"):
        a.inverse()
    assert _nested({"x": {"p": {0: 1, 1: 0}}}).iso_witness() is None


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(SEEDS)))
def test_all_composable_scans_pass_on_seeds(name):
    cat = SEEDS[name]
    assert validate_category(cat) == []


# -- generating sets ---------------------------------------------------------------


def _closure(cat, gens):
    """Identities plus every composite of generators, by plain fixpoint iteration."""
    reached = set(cat.ids.values()) | set(gens)
    while True:
        new = {
            cat.comp[(g, f)]
            for g in reached
            for f in reached
            if cat.tgt(f) == cat.src(g)
        } - reached
        if not new:
            return reached
        reached |= new


def _generator_cases():
    from profcalc.day import one_object_group_monoidal
    from profcalc.seeds import chain, idempotent_monoid_category
    from profcalc.symmon import free_sym_cat

    cases = {f"seed:{name}": cat for name, cat in SEEDS.items()}
    cases.update({f"chain({n})": chain(n) for n in (1, 2, 4, 6)})
    cases.update({f"Z{n}": one_object_group_monoidal(n).base for n in (2, 3, 5, 6)})
    cases["E2"] = idempotent_monoid_category()
    cases["sym(1 colour, 4)"] = free_sym_cat(discrete(1), 4).cat
    cases["sym(arrow, 2)"] = free_sym_cat(arrow_category(), 2).cat
    cases["chain(2) x Z3"] = product(SEEDS["chain2"], SEEDS["Z3"])
    return cases


GENERATOR_CASES = _generator_cases()


@pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
def test_generators_close_to_every_morphism(name):
    cat = GENERATOR_CASES[name]
    gens = cat.generators()
    assert len(set(gens)) == len(gens)
    assert not any(cat.is_identity(g) for g in gens)
    assert _closure(cat, gens) == set(cat.morphisms())
    assert cat.generators() is gens  # cached on the instance


def test_generators_of_a_chain_are_its_covering_relations():
    from profcalc.seeds import chain

    cat = chain(6)
    assert {(cat.src(g), cat.tgt(g)) for g in cat.generators()} == {
        (str(i), str(i + 1)) for i in range(6)
    }


def test_generators_of_groups_and_idempotents():
    from profcalc.day import one_object_group_monoidal
    from profcalc.seeds import idempotent_monoid_category

    # no morphism of Z5 is irreducible (each is a composite of two
    # non-identities), yet a single element generates it
    z5 = one_object_group_monoidal(5).base
    assert len(z5.generators()) == 1
    # a = a . a is composite, but nothing else reaches it
    e2 = idempotent_monoid_category()
    assert e2.generators() == ("E2:a",)
    # S4 needs three generators under the greedy rule, not all 23 non-identities
    from profcalc.symmon import free_sym_cat

    sym = free_sym_cat(discrete(1), 4).cat
    four = ("d0",) * 4
    assert len([g for g in sym.generators() if sym.src(g) == four]) == 3


def test_a_fault_swaps_one_key_shared_by_threads():
    # more threads than cores and a short switch interval; a lost update of the
    # count or of the key would swap a second key, or none
    two = FinSet(["a", "b"])
    fn = FinFn(two, two, {"a": "a", "b": "b"})
    fault = Fault("mu", 40)
    swapped = []

    def work(t):
        with fault_scope(fault):
            for j in range(200):
                if corrupt("mu", (t, j), fn) is not fn:
                    swapped.append((t, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert swapped == [fault.applied] and fault.count == 40
    # outside every scope nothing is corrupted; a negative index is refused
    assert corrupt("mu", fault.applied, fn) is fn
    with pytest.raises(ValueError, match="non-negative"):
        Fault("mu", -1)
