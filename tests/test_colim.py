import itertools

import pytest
from hypothesis import given, settings, strategies as st

from integrands import (
    coyoneda_iso, fubini_iso, label_coend, label_induced_map, label_relations, opposite, product_label_relations,
)
from profcalc.colim import (
    bifunctor_violations, coend, induced_components, label_pairs, layout, quotient,
)
from profcalc.fincat import FinCat, FinFn, FinSet, NonInvertible, label_key, product
from profcalc.presheaf import yoneda
from profcalc.prof import Profunctor
from profcalc.seeds import arrow_category, chain, discrete, seed_library, terminal_category

SEEDS = seed_library()


# coproducts are `FinSet.sigma`s, tagging x in the i-th summand as (i, x)


def test_coproduct_empty():
    assert len(FinSet.sigma(range(0), [].__getitem__)) == 0


def test_coproduct_singletons():
    total = FinSet.sigma(range(2), [FinSet(["a"]), FinSet(["b"])].__getitem__)
    assert len(total) == 2
    assert total.elements == ((0, "a"), (1, "b"))


def test_coproduct_counts():
    sets = [FinSet(range(2)), FinSet(range(3)), FinSet(range(5))]
    total = FinSet.sigma(range(3), sets.__getitem__)
    assert len(total) == 10
    images = {(i, x) for i, s in enumerate(sets) for x in s}
    assert len(images) == 10 and images == set(total)


# the coequalizer of f, g: A -> B is the quotient of B by the pairs (f(a), g(a))


def test_coequalizer_equal_maps_is_discrete():
    s = FinSet([0, 1, 2])
    f = FinFn(s, s, {0: 1, 1: 2, 2: 0})
    q = quotient(s, [(f(a), f(a)) for a in s])
    assert q.classes == ((0,), (1,), (2,))


def test_coequalizer_swap_single_class():
    s = FinSet([0, 1])
    q = quotient(s, [(0, 1), (1, 0)])
    assert q.classes == ((0, 1),)


def test_coequalizer_chain_closure():
    dom = FinSet(["g1", "g2"])
    cod = FinSet(["a", "b", "c"])
    f = FinFn(dom, cod, {"g1": "a", "g2": "b"})
    g = FinFn(dom, cod, {"g1": "b", "g2": "c"})
    q = quotient(cod, label_pairs(cod, [(f(a), g(a)) for a in dom]))
    assert q.classes == (("a", "b", "c"),)
    assert q.representative("c") == "a"


def test_factor_through_quotient_unique():
    s = FinSet([0, 1])
    q = quotient(s, [(0, 1), (1, 0)])
    h = FinFn(s, FinSet(["x"]), {0: "x", 1: "x"})
    factored = label_induced_map(q, h.codomain, h)
    assert factored(q.representative(0)) == "x"
    bad = FinFn(s, FinSet(["x", "y"]), {0: "x", 1: "y"})
    with pytest.raises(ValueError):
        label_induced_map(q, bad.codomain, bad)


def test_quotient_names_a_related_label_outside_the_carrier():
    carrier = FinSet(["a", "b"])
    with pytest.raises(ValueError, match="'z' is not in the carrier"):
        quotient(carrier, label_pairs(carrier, [("a", "b"), ("b", "z")]))


@pytest.mark.parametrize("pair", [(0, 2), (2, 0), (-1, 0), (1, -2)])
def test_union_find_refuses_a_position_outside_the_carrier(pair):
    # a negative position would otherwise index from the end of the parent list
    with pytest.raises(ValueError, match="not both in a carrier of 2 elements"):
        quotient(FinSet(["a", "b"]), [(0, 1), pair])


def test_kan_extend_names_a_restriction_image_outside_its_value():
    from profcalc.presheaf import Presheaf, kan_extend, yoneda_embedding

    cat = arrow_category()
    gen, = cat.generators()
    values = {"0": FinSet(["a"]), "1": FinSet(["b"])}
    restriction = {m: FinFn.identity(values[cat.src(m)]) for m in cat.morphisms() if cat.is_identity(m)}
    restriction[gen] = FinFn(values["1"], FinSet(["stray"]), {"b": "stray"})  # not into p("0")
    p = Presheaf(cat, values, restriction, check=False)
    with pytest.raises(ValueError, match="'stray'"):
        kan_extend(yoneda_embedding(cat), p)


def test_quotient_set_roots_must_be_class_minima():
    from profcalc.colim import QuotientSet

    carrier = FinSet(["a", "b", "c"])
    q = QuotientSet(carrier, [0, 0, 2])
    assert q.classes == (("a", "b"), ("c",)) and q.quotient.elements == ("a", "c")
    for roots in ([1, 1, 2], [0, 0, 1], [0, 1], [0, -1, 2]):
        with pytest.raises(ValueError):
            QuotientSet(carrier, roots)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_coequalizer_matches_naive_closure(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    k = data.draw(st.integers(min_value=0, max_value=4))
    cod = FinSet(range(n))
    dom = FinSet(range(k))
    f = FinFn(dom, cod, {i: data.draw(st.integers(0, n - 1)) for i in range(k)})
    g = FinFn(dom, cod, {i: data.draw(st.integers(0, n - 1)) for i in range(k)})
    q = quotient(cod, [(f(i), g(i)) for i in dom])
    # the same relation, each pair swapped and given in reverse order
    q_kernel = quotient(cod, [(g(i), f(i)) for i in reversed(dom.elements)])
    assert q_kernel.classes == q.classes
    # and in a drawn order: the classes do not depend on the order of the pairs
    shuffled = data.draw(st.permutations([(f(i), g(i)) for i in dom]))
    assert quotient(cod, shuffled).classes == q.classes
    # naive reflexive-symmetric-transitive closure
    related = {(x, x) for x in cod}
    related |= {(f(i), g(i)) for i in dom} | {(g(i), f(i)) for i in dom}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(related), repeat=2):
            if b == c and (a, d) not in related:
                related.add((a, d))
                changed = True
    for x in cod:
        for y in cod:
            same = q.representative(x) == q.representative(y)
            assert same == ((x, y) in related)
    for x in cod:
        assert q.representative(x) == min(
            (y for y in cod if (x, y) in related), key=label_key
        )


def _hom_times_functor(cat, value_at, act, x, covariant=True):
    """The co-Yoneda integrand at x as a whole profunctor, elements (hom
    morphism, value): H(y', y) = cat[y', x] x F(y) for covariant F, and
    H(y', y) = F(y') x cat[x, y] for a presheaf F; act(f) is F's action."""
    values = {
        (a, b): FinSet.product(cat.hom[(a, x)] if covariant else cat.hom[(x, b)], value_at(b if covariant else a))
        for a in cat.objects
        for b in cat.objects
    }
    contra = {}
    co = {}
    for f in cat.morphisms():
        for b in cat.objects:
            dom = values[(cat.tgt(f), b)]
            contra[(f, b)] = FinFn(dom, values[(cat.src(f), b)], {
                (m, v): (cat.comp[(m, f)], v) if covariant else (m, act(f)(v)) for (m, v) in dom
            })
        for a in cat.objects:
            dom = values[(a, cat.src(f))]
            co[(a, f)] = FinFn(dom, values[(a, cat.tgt(f))], {
                (m, v): (m, act(f)(v)) if covariant else (cat.comp[(f, m)], v) for (m, v) in dom
            })
    return Profunctor(cat, cat, values, contra, co, check=False)


_SETS = st.integers(0, 3).map(lambda n: FinSet(range(n)))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.lists(st.one_of(_SETS, st.lists(_SETS, max_size=3).map(tuple)), max_size=3), _SETS),
                max_size=4))
def test_layout_positions_are_carrier_indices(shapes):
    """Over random runs -- factor sets and groups of sets, then the hom set,
    empty ones included, so empty runs too, and no runs at all -- `layout`
    lists each run's members (*key, *w) in itertools.product order, and the
    shares of a member's digits, one per set, sum to its index in the carrier."""
    runs = {(f"r{i}",): (*factors, homs) for i, (factors, homs) in enumerate(shapes)}
    carrier, axes = layout(runs)
    expected, digits = [], []
    for key, factors in runs.items():
        members = [tuple(itertools.product(*f)) if isinstance(f, tuple) else f.elements for f in factors]
        expected += [(*key, *w) for w in itertools.product(*members)]
        sets = [s for f in factors for s in (f if isinstance(f, tuple) else [f])]
        assert [len(axis) for axis in axes[key]] == [len(s) for s in sets]
        digits += [(key, ks) for ks in itertools.product(*(range(len(s)) for s in sets))]
    assert list(carrier.elements) == expected
    assert list(axes) == list(runs)
    for index, (key, ks) in enumerate(digits):
        assert sum(axis[k] for axis, k in zip(axes[key], ks)) == index


def test_coend_terminal_category():
    cat = terminal_category()
    vals = FinSet(["p", "q"])
    h = Profunctor(
        cat,
        cat,
        {("*", "*"): vals},
        {("id*", "*"): FinFn.identity(vals)},
        {("*", "id*"): FinFn.identity(vals)},
        check=True,
    )
    result = coend(h)
    assert len(result.quotient) == 2


def test_coend_discrete_is_disjoint_union():
    cat = discrete(3)
    sizes = {"d0": 1, "d1": 2, "d2": 3}
    values = {
        (a, b): FinSet([f"{a}|{b}|{i}" for i in range(sizes[a] if a == b else 1)])
        for a in cat.objects
        for b in cat.objects
    }
    contra = {
        (cat.id_of(a), b): FinFn.identity(values[(a, b)])
        for a in cat.objects
        for b in cat.objects
    }
    co = {
        (a, cat.id_of(b)): FinFn.identity(values[(a, b)])
        for a in cat.objects
        for b in cat.objects
    }
    result = coend(Profunctor(cat, cat, values, contra, co, check=True))
    assert len(result.quotient) == 1 + 2 + 3


def test_coend_arrow_coyoneda_instance():
    cat = arrow_category()
    f_tables = {"0": FinSet(["u0", "u1"]), "1": FinSet(["w0", "w1"])}
    action = {
        ("le", "0", "1"): FinFn(f_tables["0"], f_tables["1"], {"u0": "w0", "u1": "w1"}),
        ("le", "0", "0"): FinFn.identity(f_tables["0"]),
        ("le", "1", "1"): FinFn.identity(f_tables["1"]),
    }
    h = _hom_times_functor(cat, lambda b: f_tables[b], lambda m: action[m], "1")
    assert bifunctor_violations(h) == []
    result = coend(h)
    assert len(result.quotient) == len(f_tables["1"])


def test_coend_validates_bifunctoriality():
    cat = arrow_category()
    vals = FinSet([0, 1])
    values = {(a, b): vals for a in cat.objects for b in cat.objects}
    contra = {(m, b): FinFn.identity(vals) for m in cat.morphisms() for b in cat.objects}
    co = {(a, m): FinFn.identity(vals) for a in cat.objects for m in cat.morphisms()}
    # break contra functoriality on the non-identity morphism
    contra[(("le", "0", "1"), "0")] = FinFn(vals, vals, {0: 1, 1: 1})
    with pytest.raises(ValueError) as err:
        Profunctor(cat, cat, values, contra, co, check=True)
    assert "le" in str(err.value) or "interchange" in str(err.value)


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_coyoneda_sweep_presheaf_case(name):
    cat = SEEDS[name]
    for x in cat.objects:
        p = yoneda(cat, x)
        for target in cat.objects:
            result, fn = coyoneda_iso(
                cat,
                lambda b: p.values[b],
                lambda m: p.restriction[m],
                target,
                covariant=False,
            )
            assert fn.is_iso()
            assert len(result.quotient) == len(p.values[target])


@pytest.mark.parametrize("name", ["terminal", "arrow", "fork", "Z2", "chain2"])
def test_coyoneda_covariant_case(name):
    cat = SEEDS[name]
    op = opposite(cat)
    for x in cat.objects:
        q = yoneda(op, x)  # covariant functor on cat

        def act(m):
            return q.restriction[m]

        for target in cat.objects:
            _, fn = coyoneda_iso(cat, lambda b: q.values[b], act, target, covariant=True)
            assert fn.is_iso()


def test_coyoneda_naturality_squares():
    cat = SEEDS["fork"]
    p = yoneda(cat, "y")
    results, isos = {}, {}
    for target in cat.objects:
        results[target], isos[target] = coyoneda_iso(
            cat, lambda b: p.values[b], lambda m: p.restriction[m], target, covariant=False
        )
    # naturality in x: for m: a -> b, a class (y, (g, v)) at b moved to (y, (g . m, v))
    # at a and then reduced equals it reduced at b and then restricted along m
    squares = 0
    for m in cat.morphisms():
        a, b = cat.src(m), cat.tgt(m)
        for cls in results[b].classes:
            y, (g, v) = cls[0]
            moved = results[a].representative((y, (cat.comp[(g, m)], v)))
            assert isos[a](moved) == p.restriction[m](isos[b](cls[0]))
            squares += 1
    assert squares == sum(len(p.values[cat.tgt(m)]) for m in cat.morphisms())


def _two_valued_bifunctor(pair_cat):
    values = {}
    for a in pair_cat.objects:
        for b in pair_cat.objects:
            values[(a, b)] = FinSet([(a, b, 0), (a, b, 1)])
    contra = {}
    co = {}
    for m in pair_cat.morphisms():
        for b in pair_cat.objects:
            dom = values[(pair_cat.tgt(m), b)]
            cod = values[(pair_cat.src(m), b)]
            contra[(m, b)] = FinFn(dom, cod, {(x, y, i): (pair_cat.src(m), y, i) for (x, y, i) in dom})
        for a in pair_cat.objects:
            dom = values[(a, pair_cat.src(m))]
            cod = values[(a, pair_cat.tgt(m))]
            co[(a, m)] = FinFn(dom, cod, {(x, y, i): (x, pair_cat.tgt(m), i) for (x, y, i) in dom})
    return Profunctor(pair_cat, pair_cat, values, contra, co, check=False)


def test_fubini_terminal():
    t = terminal_category()
    prod = product(t, t)
    h = _two_valued_bifunctor(prod)
    joint, outer, fn = fubini_iso(t, t, h)
    assert fn.is_iso()


def test_fubini_discrete_tagging():
    a, b = discrete(2), discrete(2)
    prod = product(a, b)
    h = _two_valued_bifunctor(prod)
    joint, outer, fn = fubini_iso(a, b, h)
    assert fn.is_iso()
    assert len(joint.quotient) == 8  # four diagonal objects, two elements each


def test_fubini_arrow_arrow_double_brute_force():
    a = arrow_category()
    prod = product(a, a)
    h = _two_valued_bifunctor(prod)
    joint, outer, fn = fubini_iso(a, a, h)
    assert fn.is_iso()
    # iterate in the other order and compare via the joint coend
    transposed_prod = product(a, a)
    values = {
        ((b1, a1), (b2, a2)): h.values[((a1, b1), (a2, b2))]
        for (a1, b1) in prod.objects
        for (a2, b2) in prod.objects
    }
    contra = {
        (((n, m)), (b2, a2)): h.left_act[((m, n), (a2, b2))]
        for (m, n) in transposed_prod.morphisms()
        for (a2, b2) in prod.objects
    }
    co = {
        ((b1, a1), (n, m)): h.right_act[((a1, b1), (m, n))]
        for (b1, a1) in transposed_prod.objects
        for (m, n) in transposed_prod.morphisms()
    }
    h_t = Profunctor(transposed_prod, transposed_prod, values, contra, co, check=False)
    joint_t, outer_t, fn_t = fubini_iso(a, a, h_t)
    assert fn_t.is_iso()
    assert len(joint.quotient) == len(joint_t.quotient)
    # the composite outer-one-way . inverse(outer-other-way) equals the direct
    # comparison induced by re-tagging the joint carriers
    direct = {}
    for ((pair), w) in joint.carrier:
        a1, b1 = pair
        direct[joint.representative((pair, w))] = joint_t.representative(
            ((b1, a1), w)
        )
    composite = fn.inverse().then(
        FinFn(joint.quotient, joint_t.quotient, direct).then(fn_t)
    )
    # composite: outer(a-first) -> joint -> joint-transposed -> outer(b-first)
    assert all(composite(x) is not None for x in composite.domain)
    assert composite.is_iso()


# -- coend against a reference that relates along every morphism ---------------


def _reference_coend_classes(base, h):
    """Classes of the diagonal union closed under the coend relation along
    *all* morphisms, with a plain dictionary union-find."""
    carrier = [(y, w) for y in base.objects for w in h.values[(y, y)]]
    parent = {x: x for x in carrier}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for f in base.morphisms():
        y, y1 = base.src(f), base.tgt(f)
        for w in h.values[(y1, y)]:
            a = find((y, h.left_act[(f, y)](w)))
            b = find((y1, h.right_act[(y1, f)](w)))
            parent[a] = b
    groups = {}
    for x in carrier:
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


def _tensor_plus_hom(cat, p, q, with_hom):
    """H(a, b) = P(a) x Q(b), plus cat(a, b) when with_hom: a bifunctor for any
    presheaf P and covariant Q (a presheaf on the opposite category)."""
    values = {}
    for a in cat.objects:
        for b in cat.objects:
            elems = [(0, (u, v)) for u in p.values[a] for v in q.values[b]]
            if with_hom:
                elems += [(1, k) for k in cat.hom[(a, b)]]
            values[(a, b)] = FinSet(elems)

    def move(tagged, on_pair, on_hom):
        tag, x = tagged
        return (0, on_pair(*x)) if tag == 0 else (1, on_hom(x))

    contra, co = {}, {}
    for m in cat.morphisms():
        s, t = cat.src(m), cat.tgt(m)
        for b in cat.objects:
            dom = values[(t, b)]
            contra[(m, b)] = FinFn(dom, values[(s, b)], {
                x: move(x, lambda u, v: (p.restriction[m](u), v), lambda k: cat.comp[(k, m)])
                for x in dom
            })
        for a in cat.objects:
            dom = values[(a, s)]
            co[(a, m)] = FinFn(dom, values[(a, t)], {
                x: move(x, lambda u, v: (u, q.restriction[m](v)), lambda k: cat.comp[(m, k)])
                for x in dom
            })
    return Profunctor(cat, cat, values, contra, co, check=False)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(SEEDS)),
    st.integers(min_value=0, max_value=2**32),
    st.booleans(),
)
def test_coend_matches_all_morphism_reference(name, seed, with_hom):
    import random

    from profcalc.suites import random_presheaf

    cat = SEEDS[name]
    rng = random.Random(seed)
    p = random_presheaf(rng, cat)
    q = random_presheaf(rng, opposite(cat))
    h = _tensor_plus_hom(cat, p, q, with_hom)
    assert bifunctor_violations(h) == []
    result = coend(h)
    assert {frozenset(c) for c in result.classes} == _reference_coend_classes(cat, h)
    for c in result.classes:
        assert list(c) == sorted(c, key=label_key)
    names = [c[0] for c in result.classes]
    assert names == sorted(names, key=label_key)


# -- whole integrands ---------------------------------------------------------------


def _max_monoidal(cat):
    """A chain ("0" < "1" < ...) under max: a strict monoidal poset, unit "0"."""
    from profcalc.day import StrictMonoidalFinCat
    from profcalc.fincat import Functor

    prod = product(cat, cat)

    def top(a, b):
        return max(a, b, key=int)

    tensor = Functor(
        prod,
        cat,
        {(a, b): top(a, b) for (a, b) in prod.objects},
        {(m, n): ("le", top(m[1], n[1]), top(m[2], n[2])) for (m, n) in prod.morphisms()},
    )
    return StrictMonoidalFinCat(cat, tensor, "0")


def _integrands(name):
    """(base, whole-integrand thunk, table-read coend) for every integrand
    over a small seed: the engine computes each of these coends -- Kan
    extension, composition, Day convolution and both co-Yoneda cases -- from
    relations read off its input tables."""
    from integrands import compose_bifunctor, day_bifunctor, kan_bifunctor
    from profcalc.day import day_convolve, one_object_group_monoidal
    from profcalc.presheaf import kan_extend, psh_coproduct, pvf_coproduct, yoneda_embedding
    from profcalc.prof import prof_compose, prof_identity, tau_inv

    if name == "Z3":
        mon = one_object_group_monoidal(3)
        cat = mon.base
    else:
        cat = chain(3) if name == "chain3" else arrow_category()
        mon = _max_monoidal(cat)
    objs = cat.objects.elements
    emb = yoneda_embedding(cat)
    doubled = pvf_coproduct(emb, emb)
    p, _, _ = psh_coproduct(yoneda(cat, objs[0]), yoneda(cat, objs[-1]))
    g, f = tau_inv(doubled), prof_identity(cat)
    q = yoneda(opposite(cat), objs[0])  # covariant on cat
    kan, composite, conv = kan_extend(doubled, p), prof_compose(g, f), day_convolve(mon, p, p)
    out = []
    for y in objs:
        out.append((cat, lambda y=y: kan_bifunctor(doubled, p, y), kan.quotients[y]))
        out.append((cat, lambda y=y: compose_bifunctor(g, f, objs[-1], y), composite.quotients[(objs[-1], y)]))
        out.append((product(cat, cat), lambda y=y: day_bifunctor(mon, p, p, y), conv.quotients[y]))
        for r, covariant in ((p, False), (q, True)):
            out.append((
                cat,
                lambda y=y, r=r, covariant=covariant: _hom_times_functor(
                    cat, r.values.__getitem__, r.restriction.__getitem__, y, covariant
                ),
                coyoneda_iso(cat, r.values.__getitem__, r.restriction.__getitem__, y, covariant)[0],
            ))
    return out


@pytest.mark.parametrize("name", ["chain3", "arrow", "Z3"])
def test_lazy_integrands_are_bifunctors_with_unchanged_coends(name):
    for base, build, table_read in _integrands(name):
        full = build()
        assert bifunctor_violations(full) == []
        checked = coend(full)
        assert len(full.values) == len(base.objects) ** 2
        assert coend(build()) == checked
        assert table_read == checked


@pytest.mark.parametrize("name", ["chain5", "Z4"])
def test_table_read_coends_build_no_product_sets(name, monkeypatch):
    from profcalc.day import day_convolve, one_object_group_monoidal
    from profcalc.presheaf import kan_extend, psh_coproduct, yoneda_embedding
    from profcalc.prof import prof_compose, prof_identity

    mon = one_object_group_monoidal(4) if name == "Z4" else _max_monoidal(chain(5))
    cat = mon.base
    objs = cat.objects.elements
    emb, ident = yoneda_embedding(cat), prof_identity(cat)
    p, _, _ = psh_coproduct(yoneda(cat, objs[0]), yoneda(cat, objs[-1]))
    calls = []

    def counted(*factors):
        calls.append(factors)
        return FinSet(itertools.product(*factors))

    monkeypatch.setattr(FinSet, "product", staticmethod(counted))
    kan_extend(emb, p)
    prof_compose(ident, ident)
    day_convolve(mon, p, p)
    assert calls == []


class _ReadLog(dict):
    """A table that records every key it is read at."""

    def __init__(self, table, log):
        super().__init__(table)
        self.log = log

    def __getitem__(self, key):
        self.log.append(key)
        return super().__getitem__(key)


def test_coend_reads_only_the_diagonal_and_generator_slices():
    cat = chain(5)
    values = {(a, b): FinSet([((a, b), 0), ((a, b), 1)]) for a in cat.objects for b in cat.objects}
    contra, co = {}, {}
    for m in cat.morphisms():
        for b in cat.objects:
            dom = values[(cat.tgt(m), b)]
            contra[(m, b)] = FinFn(dom, values[(cat.src(m), b)], {(k, i): ((cat.src(m), b), i) for (k, i) in dom})
        for a in cat.objects:
            dom = values[(a, cat.src(m))]
            co[(a, m)] = FinFn(dom, values[(a, cat.tgt(m))], {(k, i): ((a, cat.tgt(m)), i) for (k, i) in dom})
    full = Profunctor(cat, cat, values, contra, co, check=False)
    asked = {"values": [], "left": [], "right": []}
    logged = Profunctor(
        cat, cat, _ReadLog(values, asked["values"]), _ReadLog(contra, asked["left"]),
        _ReadLog(co, asked["right"]), check=False,
    )
    read = coend(logged)
    gens = cat.generators()
    assert len(gens) == 5
    # the diagonal values and, along each generator f: y -> y', the slice p(y', y) and its two actions
    slices = {(cat.tgt(f), cat.src(f)) for f in gens}
    assert set(asked["values"]) == {(y, y) for y in cat.objects} | slices
    assert sorted(asked["left"]) == sorted((f, cat.src(f)) for f in gens)
    assert sorted(asked["right"]) == sorted((cat.tgt(f), f) for f in gens)
    assert bifunctor_violations(full) == []
    # the coend of the full profunctor: relations along every morphism, from labels
    everywhere = label_coend(
        cat, lambda y: values[(y, y)],
        lambda f: ((contra[(f, cat.src(f))](w), co[(cat.tgt(f), f)](w)) for w in values[(cat.tgt(f), cat.src(f))]),
        cat.morphisms(),
    )
    assert read == everywhere == coend(full)
    assert len(read.quotient) == 2


def _relations_passed_to_quotient(monkeypatch, build):
    """build()'s result, and the position pairs of each quotient it takes
    through `colim.quotient`, as label pairs of its carrier, in call order."""
    from profcalc import colim

    calls, real = [], colim.quotient

    def recording(carrier, pairs):
        pairs = list(pairs)
        calls.append([(carrier.elements[a], carrier.elements[b]) for a, b in pairs])
        return real(carrier, pairs)

    monkeypatch.setattr(colim, "quotient", recording)
    try:
        return build(), calls
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_each_builder_relates_the_label_rule_pairs_in_order(name, monkeypatch):
    from profcalc.presheaf import kan_extend, psh_coproduct, pvf_coproduct, yoneda_embedding
    from profcalc.prof import prof_compose, prof_identity, tau_inv

    cat = SEEDS[name]
    objs = cat.objects.elements
    emb = yoneda_embedding(cat)
    f = pvf_coproduct(emb, emb)
    p, _, _ = psh_coproduct(yoneda(cat, objs[0]), yoneda(cat, objs[-1]))
    kp, captured = _relations_passed_to_quotient(monkeypatch, lambda: kan_extend(f, p))
    related = {
        y: lambda m, y=y: product_label_relations(f.on_mor[m].components[y], p.restriction[m])
        for y in cat.objects
    }
    assert captured == [list(label_relations(cat, related[y])) for y in cat.objects]
    assert any(captured) or not cat.generators()  # the comparison is not vacuous
    for y in cat.objects:
        diagonal = lambda x, y=y: FinSet.product(f.on_obj[x].values[y], p.values[x])
        assert kp.quotients[y] == label_coend(cat, diagonal, related[y]), y
    g, ident = tau_inv(f), prof_identity(cat)
    gf, captured = _relations_passed_to_quotient(monkeypatch, lambda: prof_compose(g, ident))
    keys = [(z, x) for z in cat.objects for x in cat.objects]
    related = {
        (z, x): lambda m, z=z, x=x: product_label_relations(g.right_act[(z, m)], ident.left_act[(m, x)])
        for z, x in keys
    }
    assert captured == [list(label_relations(cat, related[key])) for key in keys]
    for z, x in keys:
        diagonal = lambda y, z=z, x=x: FinSet.product(g.values[(z, y)], ident.values[(y, x)])
        assert gf.quotients[(z, x)] == label_coend(cat, diagonal, related[(z, x)]), (z, x)
    q, captured = _relations_passed_to_quotient(monkeypatch, lambda: coend(gf))

    def slices(m):
        y, y1 = cat.src(m), cat.tgt(m)
        return ((gf.left_act[(m, y)](w), gf.right_act[(y1, m)](w)) for w in gf.values[(y1, y)])

    assert captured == [list(label_relations(cat, slices))]
    assert q == label_coend(cat, lambda y: gf.values[(y, y)], slices)


def test_coend_and_kan_extend_never_sort_labels(monkeypatch):
    from profcalc import fincat
    from profcalc.presheaf import kan_extend, psh_coproduct, pvf_coproduct, yoneda_embedding

    cat = chain(5)
    top = cat.objects.elements[-1]
    p = yoneda(cat, top)
    h = _hom_times_functor(cat, p.values.__getitem__, p.restriction.__getitem__, top, covariant=False)
    z2 = SEEDS["Z2"]
    emb = yoneda_embedding(z2)
    doubled = pvf_coproduct(emb, emb)
    star = z2.objects.elements[0]
    q, _, _ = psh_coproduct(yoneda(z2, star), yoneda(z2, star))
    calls = []
    real = fincat.label_key
    monkeypatch.setattr(fincat, "label_key", lambda label: calls.append(label) or real(label))
    result = coend(h)
    kp = kan_extend(doubled, q)
    assert calls == []
    monkeypatch.undo()
    assert len(result.quotient) == 1  # co-Yoneda: p(top) is a point
    assert len(kp.values[star]) == 8  # two copies of q, each |Z2| + |Z2|


def _all_pairs_violations(h: Profunctor) -> list[str]:
    """Reference check on an endo-profunctor: every law on every morphism and
    every pair of morphisms, comparing composites elementwise."""
    c = h.target
    values, contra, co = h.values, h.left_act, h.right_act
    out = []
    for (a, b), s in values.items():
        for fn in (contra[(c.id_of(a), b)], co[(a, c.id_of(b))]):
            if any(fn(w) != w for w in s):
                out.append(("identity", a, b))
    for g, f in c.composable_pairs():
        gf = c.comp[(g, f)]
        for b in c.objects:
            if any(contra[(gf, b)](w) != contra[(f, b)](contra[(g, b)](w)) for w in values[(c.tgt(g), b)]):
                out.append(("contra", g, f, b))
            if any(co[(b, gf)](w) != co[(b, g)](co[(b, f)](w)) for w in values[(b, c.src(f))]):
                out.append(("co", g, f, b))
    for m in c.morphisms():
        for n in c.morphisms():
            a0, a1 = c.src(m), c.tgt(m)
            for w in values[(a1, c.src(n))]:
                lhs = co[(a0, n)](contra[(m, c.src(n))](w))
                rhs = contra[(m, c.tgt(n))](co[(a1, n)](w))
                if lhs != rhs:
                    out.append(("interchange", m, n))
                    break
    return out


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["arrow", "chain3", "Z2", "parallel_pair"]),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_generator_interchange_check_agrees_with_all_pairs(name, on_contra, at, elem, shift):
    from profcalc.presheaf import psh_coproduct

    cat = chain(3) if name == "chain3" else arrow_category() if name == "arrow" else SEEDS[name]
    objs = cat.objects.elements
    p, _, _ = psh_coproduct(yoneda(cat, objs[0]), yoneda(cat, objs[-1]))
    h = _hom_times_functor(cat, p.values.__getitem__, p.restriction.__getitem__, objs[-1], covariant=False)
    assert bifunctor_violations(h) == [] == _all_pairs_violations(h)
    values, contra, co = dict(h.values), dict(h.left_act), dict(h.right_act)
    table = contra if on_contra else co
    key = sorted(table, key=label_key)[at % len(table)]
    fn = table[key]
    if len(fn.domain) == 0 or len(fn.codomain) < 2:
        return
    mapping = fn.as_dict()
    x = fn.domain.elements[elem % len(fn.domain)]
    cod = fn.codomain.elements
    mapping[x] = cod[(cod.index(mapping[x]) + shift % (len(cod) - 1) + 1) % len(cod)]
    table[key] = FinFn(fn.domain, fn.codomain, mapping)
    perturbed = Profunctor(cat, cat, values, contra, co, check=False)
    # some entries are unconstrained (nothing composes through them), so
    # either verdict can be right; the two checks must reach the same one
    assert bool(bifunctor_violations(perturbed)) == bool(_all_pairs_violations(perturbed))


@pytest.mark.parametrize("on_contra", [True, False])
def test_composition_check_on_generator_pairs_agrees_with_all_pairs(on_contra):
    # perturb the action of each composite (neither an identity nor a
    # generator) in turn; the identity law still holds, so the composition
    # check must see it, and it sees 0 -> 3 in chain(3) only as (2 -> 3) . (0 -> 2),
    # a generator after a composite: generator pairs alone would miss it
    from profcalc.presheaf import psh_coproduct

    cat = chain(3)
    objs = cat.objects.elements
    op = opposite(cat)
    q, _, _ = psh_coproduct(yoneda(op, objs[0]), yoneda(op, objs[0]))  # covariant on cat
    h = _hom_times_functor(cat, q.values.__getitem__, q.restriction.__getitem__, objs[-1], covariant=True)
    assert bifunctor_violations(h) == [] == _all_pairs_violations(h)
    values, contra, co = dict(h.values), dict(h.left_act), dict(h.right_act)
    table = contra if on_contra else co
    perturbed_keys = []
    for key in sorted(table, key=label_key):
        m = key[0] if on_contra else key[1]
        fn = table[key]
        if cat.is_identity(m) or m in cat.generators() or len(fn.domain) == 0:
            continue
        mapping = fn.as_dict()
        x = fn.domain.elements[0]
        mapping[x] = next(c for c in fn.codomain if c != mapping[x])
        broken = {**table, key: FinFn(fn.domain, fn.codomain, mapping)}
        perturbed = Profunctor(cat, cat, values, *((broken, co) if on_contra else (contra, broken)), check=False)
        reference = _all_pairs_violations(perturbed)
        assert any(v[0] in ("contra", "co") for v in reference)
        assert any("composition fails" in v for v in bifunctor_violations(perturbed))
        perturbed_keys.append(key)
    assert any(key[0 if on_contra else 1] == ("le", "0", "3") for key in perturbed_keys)


def test_interchange_alone_failing_is_found_on_generators():
    # both actions of Z2's generator are involutions, so both functoriality
    # laws hold, but the transpositions (0 1) and (1 2) do not commute
    z2 = SEEDS["Z2"]
    star = z2.objects.elements[0]
    three = FinSet([0, 1, 2])
    g = z2.generators()[0]

    def action(swapped):
        return {
            m: FinFn(three, three, {x: swapped.get(x, x) for x in three}) if m == g else FinFn.identity(three)
            for m in z2.morphisms()
        }

    contra, co = action({0: 1, 1: 0}), action({1: 2, 2: 1})
    tables = {(star, star): three}, {(m, star): fn for m, fn in contra.items()}, {(star, m): fn for m, fn in co.items()}
    h = Profunctor(z2, z2, *tables, check=False)
    reference = _all_pairs_violations(h)
    assert reference and all(v[0] == "interchange" for v in reference)
    assert bifunctor_violations(h) == [f"interchange fails at ({g!r}, {g!r})"]
    with pytest.raises(ValueError, match="interchange"):
        Profunctor(z2, z2, *tables, check=True)


def test_induced_components_keep_key_order_and_check_every_component():
    pqr = FinSet(["p", "q", "r"])
    # keys in non-canonical order; at "b" the class {p, q} is named p
    quotients = {"b": quotient(pqr, label_pairs(pqr, [("p", "q")])), "a": quotient(pqr, [])}
    codomains = {"b": FinSet(["p", "r"]), "a": pqr}
    seen = []

    def merge_q(key, x):
        seen.append(key)
        return "p" if key == "b" and x == "q" else x

    comps = induced_components(quotients, codomains, merge_q, bijection="merge")
    assert list(comps) == ["b", "a"]
    assert seen == ["b", "b", "b", "a", "a", "a"]  # every member of every class
    assert comps["b"] == FinFn(codomains["b"], codomains["b"], {"p": "p", "r": "r"})
    assert comps["a"] == FinFn.identity(pqr)
    # the rule x -> x splits the class {p, q} at "b"
    with pytest.raises(ValueError, match="not constant on class"):
        induced_components(quotients, {"b": pqr, "a": pqr}, lambda key, x: x)
    # both components of a constant rule fail to be bijections; the first key is named
    constant = induced_components(quotients, codomains, lambda key, x: "p")
    assert [fn.is_iso() for fn in constant.values()] == [False, False]
    with pytest.raises(NonInvertible) as err:
        induced_components(quotients, codomains, lambda key, x: "p", bijection="collapse")
    assert str(err.value) == "collapse at 'b' is not a bijection"


def test_induced_components_into_coends_match_the_label_oracle():
    pqr = FinSet(["p", "q", "r"])
    quotients = {"b": quotient(pqr, label_pairs(pqr, [("p", "q")])), "a": quotient(pqr, [])}
    # coend targets: the rule returns a member of each target's carrier, which names its class
    targets = {key: quotient(pqr, label_pairs(pqr, [pair])) for key, pair in (("b", ("q", "r")), ("a", ("p", "r")))}
    cycle = {"p": "q", "q": "r", "r": "p"}

    def rule(key, x):
        return cycle[x] if key == "b" else x

    comps = induced_components(quotients, targets, rule)
    assert list(comps) == ["b", "a"]
    for key, fn in comps.items():
        tgt = targets[key]
        assert fn == label_induced_map(quotients[key], tgt.quotient, lambda x: tgt.representative(rule(key, x)))
    assert comps["b"].as_dict() == {"p": "q", "r": "p"} and comps["b"].is_iso()
    assert comps["a"].as_dict() == {"p": "p", "q": "q", "r": "p"}
    # x -> x splits the class {p, q} at "b" across the target classes named p and q
    with pytest.raises(ValueError) as err:
        induced_components(quotients, targets, lambda key, x: x)
    with pytest.raises(ValueError) as expected:
        label_induced_map(quotients["b"], targets["b"].quotient, targets["b"].representative)
    message = "elementwise rule is not constant on class ('p', 'q'): [\"'p'\", \"'q'\"]"
    assert str(err.value) == str(expected.value) == message
    # when two classes split, the first in class order is named, though a later one splits first in carrier order
    abcd = FinSet(["a", "b", "c", "d"])
    crossed = quotient(abcd, label_pairs(abcd, [("a", "d"), ("b", "c")]))
    with pytest.raises(ValueError) as err:
        induced_components({0: crossed}, {0: abcd}, lambda key, x: x)
    with pytest.raises(ValueError) as expected:
        label_induced_map(crossed, abcd, lambda x: x)
    assert str(err.value) == str(expected.value) and "class ('a', 'd')" in str(err.value)
