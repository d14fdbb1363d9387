import hashlib
import itertools
import math

import pytest

from profcalc import serialize
from profcalc.colim import bifunctor_violations, coend_relations, label_pairs, layout, quotient
from profcalc.fincat import (
    BoundExceeded,
    FinFn,
    FinSet,
    generators_by_source,
    label_key,
    sort_labels,
    validate_category,
)
from profcalc.prof import prof_compose
from profcalc.seeds import arrow_category, discrete, parallel_pair
from profcalc.symmon import (
    ColouredOperad,
    SymSeq,
    _compose_heads,
    _layout_relations,
    _runs,
    associative_operad,
    check_operad,
    check_subst_assoc,
    check_tau_compatibility,
    free_sym_cat,
    perm_compose,
    perm_identity,
    perm_inverse,
    representable_seq,
    seq_coproduct,
    subst_compose,
    subst_extension,
    subst_identity,
    subst_left_unit_iso,
    subst_right_unit_iso,
    sym_mult,
    sym_unit,
    terminal_operad,
    unit_operad,
    wreath_composition,
)

D1 = discrete(1)


def trivial_action_seq(sym, sizes):
    """Single-colour sequence with the trivial permutation action."""
    y0 = next(iter(sym.base.objects))
    values = {
        (xs, y0): FinSet([("v", len(xs), i) for i in range(sizes.get(len(xs), 0))])
        for xs in sym.cat.objects
    }
    left = {}
    for m in sym.cat.morphisms():
        src, tgt, _, _ = m
        left[(m, y0)] = FinFn(values[(tgt, y0)], values[(src, y0)], {v: v for v in values[(tgt, y0)]})
    right = {
        (xs, sym.base.id_of(y0)): FinFn.identity(values[(xs, y0)])
        for xs in sym.cat.objects
    }
    return SymSeq(sym, sym.base, values, left, right, check=True)


# references for the morphisms that S's multiplication flattens, built from
# block offsets and sharing no code with `sym_mult`


def _block_permutation(lengths, sigma):
    """Move block i (of the given length) to slot sigma[i], preserving inner order."""
    m = len(lengths)
    inv = perm_inverse(sigma)
    tgt_offsets = [0] * m
    for j in range(1, m):
        tgt_offsets[j] = tgt_offsets[j - 1] + lengths[inv[j - 1]]
    return tuple(tgt_offsets[sigma[i]] + r for i in range(m) for r in range(lengths[i]))


def _concat_mor(sym, *mors):
    """The tuple morphisms side by side: each permutation shifted by the
    length of the blocks before it, the components concatenated."""
    src = sym.concat_obj(*[m[0] for m in mors])
    tgt = sym.concat_obj(*[m[1] for m in mors])
    sigma = []
    offset = 0
    for m in mors:
        sigma.extend(offset + m[2][i] for i in range(len(m[2])))
        offset += len(m[0])
    return (src, tgt, tuple(sigma), tuple(c for m in mors for c in m[3]))


def test_perm_helpers():
    assert perm_compose((1, 0), (1, 0)) == (0, 1)
    assert perm_inverse((2, 0, 1)) == (1, 2, 0)
    assert _block_permutation((2, 1), (1, 0)) == (1, 2, 0)
    assert free_sym_cat(D1, 3).block_perm_mor((("d0", "d0"), ("d0",)), (1, 0))[2] == (1, 2, 0)
    assert wreath_composition((0,), (2,), ((1, 0),)) == (1, 0)


def test_free_sym_cat_object_counts():
    assert len(free_sym_cat(discrete(2), 2).cat.objects) == 1 + 2 + 4
    assert len(free_sym_cat(discrete(2), 3).cat.objects) == 1 + 2 + 4 + 8
    assert len(free_sym_cat(discrete(3), 1).cat.objects) == 1 + 3


def test_free_sym_cat_factorial_endos():
    s = free_sym_cat(D1, 3)
    for k in range(4):
        obj = tuple(["d0"] * k)
        assert len(s.cat.hom[(obj, obj)]) == math.factorial(k)


@pytest.mark.parametrize(
    "base,bound",
    [(discrete(1), 3), (discrete(2), 2), (arrow_category(), 2), (parallel_pair(), 2)],
)
def test_free_sym_cat_valid(base, bound):
    assert validate_category(free_sym_cat(base, bound).cat) == []


def test_empty_tuple_is_strict_unit():
    s = free_sym_cat(discrete(2), 2)
    for obj in s.cat.objects:
        assert s.concat_obj((), obj) == obj
        assert s.concat_obj(obj, ()) == obj


def test_concat_bound_exceeded():
    s = free_sym_cat(discrete(2), 2)
    with pytest.raises(BoundExceeded):
        s.concat_obj(("d0", "d0"), ("d1",))


def test_sym_unit_then_mult_is_identity():
    s = free_sym_cat(discrete(2), 3)
    unit = sym_unit(s)
    mult = sym_mult(s)
    for x in s.base.objects:
        assert mult.on_object((unit.obj_map[x],)) == (x,)


def test_flattening_example():
    s = free_sym_cat(discrete(2), 3)
    mult = sym_mult(s)
    assert mult.on_object((("d0",), ("d1", "d0"))) == ("d0", "d1", "d0")


def test_monad_unit_triangles_exhaustive():
    s = free_sym_cat(discrete(2), 3)
    mult = sym_mult(s)
    for obj in s.cat.objects:
        assert mult.on_object(tuple((x,) for x in obj)) == obj
        assert mult.on_object((obj,)) == obj
    for m in s.cat.morphisms():
        src, tgt, sigma, comps = m
        assert mult.on_morphism(((src,), (tgt,), (0,), (m,))) == m
        inner = tuple(
            ((src[i],), (tgt[sigma[i]],), (0,), (comps[i],)) for i in range(len(src))
        )
        nested = (tuple((x,) for x in src), tuple((x,) for x in tgt), sigma, inner)
        assert mult.on_morphism(nested) == m


def _flatten_by_offsets(outer):
    """The permutation of a flattened outer morphism, block offsets read off
    the target blocks: position r of source block i goes to the offset of
    target block sigma[i] plus that block's inner permutation at r."""
    src_nested, tgt_nested, sigma, inner_mors = outer
    tgt_offsets = [sum(len(b) for b in tgt_nested[:j]) for j in range(len(tgt_nested))]
    return tuple(
        tgt_offsets[sigma[i]] + inner_mors[i][2][r]
        for i in range(len(src_nested)) for r in range(len(src_nested[i]))
    )


# the discrete(2) cases keep bare ids, so their test ids stay stable
_FLATTEN_CASES = [pytest.param(discrete(2), b, id=str(b)) for b in range(4)] + [
    pytest.param(base(), b, id=f"{base.__name__}-{b}")
    for base in (arrow_category, parallel_pair) for b in range(4)
]


@pytest.mark.parametrize("base,bound", _FLATTEN_CASES)
def test_flattening_a_morphism_is_the_wreath_composition(base, bound):
    # every outer morphism whose blocks flatten within the bound: a tuple of
    # at most `bound` blocks, a block permutation, and one inner morphism per
    # block; the whole flattened label is checked against block offsets
    s = free_sym_cat(base, bound)
    mult = sym_mult(s)
    out_of = {obj: [m for m in s.cat.morphisms() if m[0] == obj] for obj in s.cat.objects}
    count = 0
    for m in range(bound + 1):
        for src_nested in itertools.product(s.cat.objects, repeat=m):
            if sum(map(len, src_nested)) > bound:
                continue
            for sigma in itertools.permutations(range(m)):
                inv = perm_inverse(sigma)
                for inner in itertools.product(*[out_of[b] for b in src_nested]):
                    tgt_nested = tuple(inner[i][1] for i in inv)
                    outer = (src_nested, tgt_nested, sigma, inner)
                    flat = mult.on_morphism(outer)
                    assert flat == (
                        tuple(x for b in src_nested for x in b),
                        tuple(x for b in tgt_nested for x in b),
                        _flatten_by_offsets(outer),
                        tuple(c for mor in inner for c in mor[3]),
                    )
                    assert flat in s.cat.hom[(flat[0], flat[1])]
                    count += 1
    assert count > 0


def test_flattening_associativity_within_bounds():
    s = free_sym_cat(discrete(2), 3)
    mult = sym_mult(s)
    # ((a),(b)),((a)) flattened in either grouping
    nested2 = ((("d0",), ("d1",)), (("d0",),))
    once = tuple(mult.on_object(layer) for layer in nested2)
    assert mult.on_object(once) == ("d0", "d1", "d0")
    flat_inner = tuple(block for layer in nested2 for block in layer)
    assert mult.on_object(flat_inner) == ("d0", "d1", "d0")


def test_subst_identity_tables():
    s = free_sym_cat(arrow_category(), 2)
    unit = subst_identity(s)
    assert bifunctor_violations(unit) == []
    for xs in s.cat.objects:
        for y in s.base.objects:
            if len(xs) == 1:
                assert unit.values[(xs, y)] == s.base.hom[(xs[0], y)]
            else:
                assert len(unit.values[(xs, y)]) == 0
    d = free_sym_cat(discrete(2), 2)
    unit_d = subst_identity(d)
    for xs in d.cat.objects:
        if len(xs) == 1:
            assert len(unit_d.values[(xs, xs[0])]) == 1


def test_subst_unit_isos_both_sides():
    s = free_sym_cat(D1, 3)
    g = trivial_action_seq(s, {1: 1, 2: 2, 3: 1})
    assert subst_left_unit_iso(g).is_iso()
    assert subst_right_unit_iso(g).is_iso()
    s2 = free_sym_cat(discrete(2), 2)
    g2 = representable_seq(s2, discrete(2), {"d0": ("d0", "d1"), "d1": ("d1",)})
    assert subst_left_unit_iso(g2).is_iso()
    assert subst_right_unit_iso(g2).is_iso()


def test_arity_one_composition_cardinality():
    s = free_sym_cat(D1, 3)
    c = 2
    f = trivial_action_seq(s, {1: c})
    g = trivial_action_seq(s, {0: 0, 1: 1, 2: 2, 3: 1})
    gf = subst_compose(g, f)
    for k in range(4):
        obj = tuple(["d0"] * k)
        assert len(gf.values[(obj, "d0")]) == len(g.values[(obj, "d0")]) * c**k
    assert bifunctor_violations(gf) == []


def test_empty_factor_composes_to_empty():
    s = free_sym_cat(D1, 2)
    f = trivial_action_seq(s, {})
    g = trivial_action_seq(s, {1: 1, 2: 1})
    gf = subst_compose(g, f)
    # g has no nullary part, so composing with empty f removes everything at
    # positive arities; arity 0 stays empty because f is empty there too
    assert all(len(v) == 0 for v in gf.values.values())


def test_sigma_equivariance_is_group_action():
    s = free_sym_cat(D1, 3)
    aop = associative_operad(3)
    seq = aop.seq
    for k in range(1, 4):
        obj = tuple(["d0"] * k)
        endos = s.cat.hom[(obj, obj)]
        for m1 in endos:
            for m2 in endos:
                composed = s.cat.comp[(m1, m2)]
                lhs = seq.left_act[(composed, "d0")]
                rhs = seq.left_act[(m1, "d0")].then(seq.left_act[(m2, "d0")])
                assert lhs == rhs


def test_truncation_stability_under_bound_increase():
    sizes = {1: 1, 2: 2}
    s2 = free_sym_cat(D1, 2)
    s3 = free_sym_cat(D1, 3)
    f2, g2 = trivial_action_seq(s2, sizes), trivial_action_seq(s2, sizes)
    f3, g3 = trivial_action_seq(s3, sizes), trivial_action_seq(s3, sizes)
    gf2 = subst_compose(g2, f2)
    gf3 = subst_compose(g3, f3)
    for k in range(3):
        obj = tuple(["d0"] * k)
        assert gf2.values[(obj, "d0")] == gf3.values[(obj, "d0")]


def test_nullary_support_searches_blocks_up_to_the_middle_bound():
    s = free_sym_cat(D1, 2)
    f = trivial_action_seq(s, {0: 1, 1: 1})
    g = trivial_action_seq(s, {1: 1, 2: 1})
    composed = subst_compose(g, f)
    assert composed.bounded_search
    # at output arity 0 every block is the nullary value, one or two of them:
    # more blocks than the output arity, as many as the middle bound allows
    assert sorted(m for m, *_ in composed.quotients[((), "d0")].carrier) == [1, 2]
    assert not subst_compose(g, trivial_action_seq(s, {1: 1})).bounded_search


def test_bound_exceeded_reports_sound_bound():
    s3 = free_sym_cat(D1, 3)
    s2 = free_sym_cat(D1, 2)
    f = trivial_action_seq(s3, {1: 1})
    g = trivial_action_seq(s2, {1: 1, 2: 1})
    with pytest.raises(BoundExceeded) as err:
        subst_compose(g, f)
    assert "m <= output arity" in str(err.value)


def test_nullary_self_substitution_keeps_the_empty_block_count():
    # y(()) o y(()): the one outer value takes no blocks, so the search starts at m = 0
    s = free_sym_cat(D1, 2)
    f = representable_seq(s, D1, {"d0": ()})
    assert f.has_nullary_support()
    composed = subst_compose(f, f)
    assert composed.bounded_search
    assert [len(composed.values[(xs, "d0")]) for xs in ((), ("d0",), ("d0", "d0"))] == [1, 0, 0]


def _nullary_pair():
    """(g, f) with f = y(()) + y(("d0",)) nullary and g = y(("d0", "d0")), at arity bound 2."""
    s = free_sym_cat(D1, 2)
    f = seq_coproduct(representable_seq(s, D1, {"d0": ()}), representable_seq(s, D1, {"d0": ("d0",)}))
    return representable_seq(s, D1, {"d0": ("d0", "d0")}), f


def test_nullary_extension_needs_no_bound_and_matches_at_the_full_bound():
    # at (xs, ys) there are exactly len(ys) blocks, so nothing is unbounded
    g, f = _nullary_pair()
    assert f.has_nullary_support()
    ext = subst_extension(f, g.source_sym)
    assert [len(ext.values[((), ys)]) for ys in ((), ("d0",), ("d0", "d0"))] == [1, 1, 1]
    assert check_tau_compatibility(g, f).ok


def _nullary_instances():
    """(bound, name, g, f) with f = y(()) + y(("d0",)) and g each representable
    pick at that arity bound, or f itself, at the bounds 2 and 3."""
    for bound in (2, 3):
        s = free_sym_cat(D1, bound)
        f = seq_coproduct(representable_seq(s, D1, {"d0": ()}), representable_seq(s, D1, {"d0": ("d0",)}))
        for k in range(bound + 1):
            yield bound, f"y(d0^{k})", representable_seq(s, D1, {"d0": ("d0",) * k}), f
        yield bound, "f", f, f


@pytest.mark.parametrize(
    "bound, g, f", [(b, g, f) for b, _, g, f in _nullary_instances()],
    ids=[f"{name}-bound{b}" for b, name, _, _ in _nullary_instances()],
)
def test_nullary_substitution_is_a_bounded_search_that_matches_the_kleisli_composite(bound, g, f):
    # the composite counts blocks up to the middle arity bound, as the Kleisli composite does
    gf = subst_compose(g, f)
    assert gf.bounded_search
    assert max(m for q in gf.quotients.values() for m, *_ in q.carrier) <= bound
    assert check_tau_compatibility(g, f).ok


def test_representable_pick_above_the_bound_is_refused():
    with pytest.raises(BoundExceeded, match=r"pick \('d0', 'd0'\) at 'd0' is longer than the arity bound 1"):
        representable_seq(free_sym_cat(D1, 1), D1, {"d0": ("d0", "d0")})


# -- the independent species oracle ------------------------------------------------


def species_oracle(g_sizes, f_sizes, k):
    """Enumerate (m, block partition, elements, permutation) and quotient by
    explicitly generated relabelings; trivial group actions on values."""
    elements = []
    for m in range(0, k + 1):
        for lengths in _compositions_oracle(k, m):
            for gi in range(g_sizes.get(m, 0)):
                pools = [range(f_sizes.get(l, 0)) for l in lengths]
                for vs in itertools.product(*pools):
                    for pi in itertools.permutations(range(k)):
                        elements.append((m, lengths, gi, vs, pi))
    parent = {e: e for e in elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for (m, lengths, gi, vs, pi) in elements:
        offsets = [sum(lengths[:i]) for i in range(m)]
        # inner relabelings: block-diagonal permutations absorbed into pi
        for i in range(m):
            for rho in itertools.permutations(range(lengths[i])):
                blockdiag = list(range(k))
                for r in range(lengths[i]):
                    blockdiag[offsets[i] + r] = offsets[i] + rho[r]
                moved = tuple(pi[blockdiag[p]] for p in range(k))
                union((m, lengths, gi, vs, pi), (m, lengths, gi, vs, moved))
        # outer relabelings: permute blocks (trivial action on values)
        for sigma in itertools.permutations(range(m)):
            inv = [0] * m
            for i, j in enumerate(sigma):
                inv[j] = i
            new_lengths = tuple(lengths[inv[j]] for j in range(m))
            new_vs = tuple(vs[inv[j]] for j in range(m))
            block = _block_permutation(lengths, sigma)
            moved = tuple(pi[_inv_perm(block)[p]] for p in range(k))
            union((m, lengths, gi, vs, pi), (m, new_lengths, gi, new_vs, moved))
    return len({find(e) for e in elements})


def _inv_perm(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return out


def _compositions_oracle(total, m):
    if m == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(1, total + 1):
        for rest in _compositions_oracle(total - first, m - 1):
            out.append((first,) + rest)
    return out


def test_species_substitution_matches_oracle():
    g_sizes = {1: 1, 2: 2, 3: 1}
    f_sizes = {1: 2, 2: 1}
    s = free_sym_cat(D1, 3)
    f = trivial_action_seq(s, f_sizes)
    g = trivial_action_seq(s, g_sizes)
    gf = subst_compose(g, f)
    for k in range(4):
        obj = tuple(["d0"] * k)
        got = len(gf.values[(obj, "d0")])
        expected = species_oracle(g_sizes, f_sizes, k)
        assert got == expected, (k, got, expected)


def test_ass_ass_counts_match_the_closed_form():
    # Ass(n) = n! has EGF x/(1-x), so Ass o Ass has EGF x/(1-2x): n! 2^(n-1) at n >= 1
    operad = associative_operad(5)
    sizes = [0] * 6
    for (xs, _), fn in operad.comp_components.items():
        sizes[len(xs)] += len(fn.domain)
    assert sizes == [0] + [math.factorial(n) * 2 ** (n - 1) for n in range(1, 6)]
    assert sizes[5] == 1920


# sha256 of the wire bytes of Ass(4) o Ass(4) and of the extension of Ass(4), recorded
# before substitution computed its relations and actions by carrier position
SUBST_WIRE_SHA256 = {
    "compose": "4a4c5f66b5df904a6bd16e3ef85b83b3c431ca9449ba0e0547c187c2811dca47",
    "extension": "ed463b07f736de18bf8d74aae44ce6204340a1ce4e23a5222e2a18e2a8d1dc4b",
}


def test_ass4_substitution_wire_bytes_are_pinned():
    a = associative_operad(4).seq
    built = {"compose": subst_compose(a, a), "extension": subst_extension(a, a.source_sym)}
    for name, value in built.items():
        digest = hashlib.sha256(serialize.dumps(value).encode()).hexdigest()
        assert digest == SUBST_WIRE_SHA256[name], name


def test_subst_carriers_are_built_in_canonical_order_without_sorting(monkeypatch):
    from profcalc import fincat

    two = terminal_operad(discrete(2), 3).seq
    calls = []
    real = fincat.label_key
    monkeypatch.setattr(fincat, "label_key", lambda label: calls.append(label) or real(label))
    gf = subst_compose(two, two)
    ext = subst_extension(two, two.source_sym)
    assert calls == []
    monkeypatch.undo()
    carriers = [q.carrier.elements for q in [*gf.quotients.values(), *ext.quotients.values()]]
    assert all(c == sort_labels(c) for c in carriers)

    # over two colours, ordering blocks by length first is not canonical:
    # ('d0',) < ('d0', 'd0') < ('d1',)
    def lengths_first(elem):
        m, ys, blocks, *rest = elem
        return label_key((m, ys, tuple(map(len, blocks)), blocks, *rest))

    assert any(
        list(q.carrier.elements) != sorted(q.carrier.elements, key=lengths_first)
        for q in gf.quotients.values()
    )


# -- associativity, operads, tau, duality ------------------------------------------


def test_subst_assoc_single_and_two_colours():
    s1 = free_sym_cat(D1, 3)
    f = seq_coproduct(
        representable_seq(s1, D1, {"d0": ("d0",)}),
        representable_seq(s1, D1, {"d0": ("d0", "d0")}),
    )
    g = representable_seq(s1, D1, {"d0": ("d0", "d0")})
    assert check_subst_assoc(f, g, f).ok
    s2 = free_sym_cat(discrete(2), 2)
    f2 = representable_seq(s2, discrete(2), {"d0": ("d0", "d1"), "d1": ("d1",)})
    g2 = representable_seq(s2, discrete(2), {"d0": ("d1",), "d1": ("d0", "d0")})
    h2 = representable_seq(s2, discrete(2), {"d0": ("d0",), "d1": ("d1", "d0")})
    assert check_subst_assoc(h2, g2, f2).ok


def test_subst_assoc_identity_comparison():
    s = free_sym_cat(D1, 2)
    unit = subst_identity(s)
    assert check_subst_assoc(unit, unit, unit).ok


def test_terminal_operad_passes():
    assert check_operad(terminal_operad(discrete(1), 3)).ok


def test_associative_operad_passes():
    assert check_operad(associative_operad(3)).ok


def test_unit_operad_over_parallel_pair_passes():
    assert check_operad(unit_operad(parallel_pair(), 2)).ok


def test_broken_composition_cell_fails_with_witness():
    aop = associative_operad(2)
    comp = dict(aop.comp_components)
    key = next(
        k for k, fn in comp.items() if len(fn.domain) >= 2
    )
    fn = comp[key]
    a, b = fn.domain.elements[0], fn.domain.elements[1]
    table = fn.as_dict()
    table[a], table[b] = table[b], table[a]
    comp[key] = FinFn(fn.domain, fn.codomain, table)
    broken = ColouredOperad(aop.seq, aop.unit_components, comp)
    try:
        report = check_operad(broken)
        assert not report.ok
        assert any(item.witness for item in report.failures())
    except ValueError as exc:
        assert str(exc)  # equivariance of the corrupted cell already fails


def test_tau_compatibility_instances():
    s = free_sym_cat(D1, 2)
    picks = [("d0",), ("d0", "d0")]
    seqs = [representable_seq(s, D1, {"d0": p}) for p in picks]
    seqs.append(seq_coproduct(seqs[0], seqs[1]))
    count = 0
    for g in seqs:
        for f in seqs:
            if count >= 5:
                break
            assert check_tau_compatibility(g, f).ok
            count += 1
    assert count >= 5


def test_prof_compose_with_the_extension_is_substitution():
    # a sequence is a profunctor, so it composes with the extension of another
    s = free_sym_cat(D1, 3)
    picks = [representable_seq(s, D1, {"d0": p}) for p in [("d0",), ("d0", "d0")]]
    ass = associative_operad(3).seq
    for g, f, sizes in [
        (picks[1], seq_coproduct(*picks), [0, 0, 2, 12]),
        (ass, ass, [0, 1, 4, 24]),
    ]:
        gf = subst_compose(g, f)
        composite = prof_compose(subst_extension(f, g.source_sym), g)
        assert [len(v) for v in gf.values.values()] == sizes
        assert {k: len(v) for k, v in composite.values.items()} == {
            k: len(v) for k, v in gf.values.items()
        }


def test_subst_extension_is_a_profunctor():
    s = free_sym_cat(D1, 2)
    f = representable_seq(s, D1, {"d0": ("d0", "d0")})
    ext = subst_extension(f, s)
    assert bifunctor_violations(ext) == []


# -- substitution against a reference that relates along every morphism ----------


def _reference_partition(carrier, relations):
    parent = {x: x for x in carrier}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in relations:
        ra, rb = find(a), find(b)
        parent[ra] = rb
    groups = {}
    for x in carrier:
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(c) for c in groups.values()}


def _all_block_moves(f, ys, blocks, vs, h):
    """Block relations along every tuple morphism out of every block."""
    sym_x = f.source_sym
    for i in range(len(blocks)):
        for mu in sym_x.cat.morphisms():
            if sym_x.cat.src(mu) != blocks[i]:
                continue
            t = sym_x.cat.tgt(mu)
            embed = _concat_mor(
                sym_x, *[mu if j == i else sym_x.cat.id_of(b) for j, b in enumerate(blocks)]
            )
            for v_prime in f.values[(t, ys[i])]:
                yield (
                    (blocks, vs[:i] + (f.left_act[(mu, ys[i])](v_prime),) + vs[i + 1:], h),
                    (blocks[:i] + (t,) + blocks[i + 1:], vs[:i] + (v_prime,) + vs[i + 1:],
                     sym_x.cat.comp[(embed, h)]),
                )


def _all_subst_moves(g, f, z, carrier):
    sym_x, sym_y = f.source_sym, g.source_sym
    for m, ys, blocks, gamma, vs, h in carrier:
        for (b0, v0, h0), (b1, v1, h1) in _all_block_moves(f, ys, blocks, vs, h):
            yield (m, ys, b0, gamma, v0, h0), (m, ys, b1, gamma, v1, h1)
        for phi in sym_y.cat.morphisms():
            if m == 0 or sym_y.cat.src(phi) != ys:
                continue
            _, ys_tgt, sigma, gbar = phi
            inv = perm_inverse(sigma)
            new_blocks = tuple(blocks[inv[j]] for j in range(m))
            new_vs = tuple(f.right_act[(blocks[inv[j]], gbar[inv[j]])](vs[inv[j]]) for j in range(m))
            glued = sym_x.cat.comp[(sym_x.block_perm_mor(blocks, sigma), h)]
            for gamma_tgt in g.values[(ys_tgt, z)]:
                yield (
                    (m, ys, blocks, g.left_act[(phi, z)](gamma_tgt), vs, h),
                    (m, ys_tgt, new_blocks, gamma_tgt, new_vs, glued),
                )


def _assert_canonical(q):
    for c in q.classes:
        assert list(c) == sorted(c, key=label_key)
    names = [c[0] for c in q.classes]
    assert names == sorted(names, key=label_key)


def _subst_reference_cases():
    s1 = free_sym_cat(D1, 3)
    ass = associative_operad(3).seq
    f1 = seq_coproduct(
        representable_seq(s1, D1, {"d0": ("d0",)}),
        representable_seq(s1, D1, {"d0": ("d0", "d0")}),
    )
    s2 = free_sym_cat(discrete(2), 2)
    f2 = representable_seq(s2, discrete(2), {"d0": ("d0", "d1"), "d1": ("d1",)})
    g2 = representable_seq(s2, discrete(2), {"d0": ("d1",), "d1": ("d0", "d0")})
    unit_pp = subst_identity(free_sym_cat(parallel_pair(), 2))
    unit_arrow = subst_identity(free_sym_cat(arrow_category(), 2))
    return {
        "Ass o Ass": (ass, ass),
        "Ass o (y + y^2)": (ass, f1),
        "two colours": (g2, f2),
        "unit o unit, parallel pair": (unit_pp, unit_pp),
        "unit o unit, arrow": (unit_arrow, unit_arrow),
    }


SUBST_REFERENCE_CASES = _subst_reference_cases()


@pytest.mark.parametrize("name", sorted(SUBST_REFERENCE_CASES))
def test_subst_compose_matches_all_morphism_reference(name):
    g, f = SUBST_REFERENCE_CASES[name]
    gf = subst_compose(g, f)
    for (xs, z), q in gf.quotients.items():
        expected = _reference_partition(q.carrier, _all_subst_moves(g, f, z, q.carrier))
        assert {frozenset(c) for c in q.classes} == expected, (xs, z)
        _assert_canonical(q)


@pytest.mark.parametrize("name", sorted(SUBST_REFERENCE_CASES))
def test_subst_extension_matches_all_morphism_reference(name):
    g, f = SUBST_REFERENCE_CASES[name]
    ext = subst_extension(f, g.source_sym)
    for (xs, ys), q in ext.quotients.items():
        relations = (
            pair for blocks, vs, h in q.carrier
            for pair in _all_block_moves(f, ys, blocks, vs, h)
        )
        assert {frozenset(c) for c in q.classes} == _reference_partition(q.carrier, relations)
        _assert_canonical(q)


# -- per-shape tables and the run-wise relation generator -------------------------------------


def _fresh_embedding(sym, blocks, i, mu):
    """The embedding of mu into block i, built from scratch on every call."""
    return _concat_mor(sym, *[mu if j == i else sym.cat.id_of(b) for j, b in enumerate(blocks)])


def _fresh_block_perm(sym, blocks, sigma):
    """The whole-block permutation, built from scratch on every call."""
    src = sym.concat_obj(*blocks)
    inv = perm_inverse(sigma)
    tgt = sym.concat_obj(*[blocks[inv[j]] for j in range(len(blocks))])
    perm = _block_permutation(tuple(len(b) for b in blocks), sigma)
    return (src, tgt, perm, tuple(sym.base.id_of(x) for x in src))


def _old_block_pairs(f, gens_x, ys, blocks, vs, h):
    """Block relations at one carrier element, built element by element."""
    sym_x = f.source_sym
    for i, s in enumerate(blocks):
        if vs[i] != f.values[(s, ys[i])].elements[0]:
            continue
        for mu in gens_x[s]:
            t = sym_x.cat.tgt(mu)
            glued = sym_x.cat.comp[(_fresh_embedding(sym_x, blocks, i, mu), h)]
            moved_blocks = blocks[:i] + (t,) + blocks[i + 1:]
            pull = f.left_act[(mu, ys[i])]
            for v_prime in f.values[(t, ys[i])]:
                yield (
                    (blocks, vs[:i] + (pull(v_prime),) + vs[i + 1:], h),
                    (moved_blocks, vs[:i] + (v_prime,) + vs[i + 1:], glued),
                )


def _old_subst_relations(g, f, z, carrier, gens_x, gens_y):
    """Block and outer relations of a substitution quotient, element by element."""
    sym_x = f.source_sym
    for m, ys, blocks, gamma, vs, h in carrier:
        for (b0, v0, h0), (b1, v1, h1) in _old_block_pairs(f, gens_x, ys, blocks, vs, h):
            yield (m, ys, b0, gamma, v0, h0), (m, ys, b1, gamma, v1, h1)
        if m == 0 or gamma != g.values[(ys, z)].elements[0]:
            continue
        for phi in gens_y[ys]:
            _, _, sigma, gbar = phi
            inv = perm_inverse(sigma)
            new_blocks = tuple(blocks[j] for j in inv)
            new_vs = tuple(f.right_act[(blocks[j], gbar[j])](vs[j]) for j in inv)
            glued = sym_x.cat.comp[(_fresh_block_perm(sym_x, blocks, sigma), h)]
            pull = g.left_act[(phi, z)]
            for gamma_tgt in g.values[(phi[1], z)]:
                yield (
                    (m, ys, blocks, pull(gamma_tgt), vs, h),
                    (m, phi[1], new_blocks, gamma_tgt, new_vs, glued),
                )


RUN_CASES = dict(SUBST_REFERENCE_CASES, **{
    "Ass o Ass, arity 4": (associative_operad(4).seq,) * 2,
    # bounded searches at arity bound 2: m = 0 runs, and empty blocks
    "y(d0, d0) o (y() + y(d0)), bound 2": _nullary_pair(),
    "(y() + y(d0)) o (y() + y(d0)), bound 2": (_nullary_pair()[1],) * 2,
})


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_run_wise_relations_match_the_per_element_sequence(name):
    g, f = RUN_CASES[name]
    gens_x = generators_by_source(f.source_sym.cat)
    gens_y = generators_by_source(g.source_sym.cat)
    gf = subst_compose(g, f)
    emitted = 0
    for (xs, z), q in gf.quotients.items():
        runs = _runs(f, xs, _compose_heads(g, f, xs, z), f.has_nullary_support())
        carrier, axes = layout(runs)
        assert carrier == q.carrier
        positions = list(coend_relations(_layout_relations(f, gens_x, runs, axes, z, (g, gens_y))))
        reference = label_pairs(q.carrier, _old_subst_relations(g, f, z, q.carrier, gens_x, gens_y))
        # the kernel emits the relations block by block, so only the order differs
        assert sorted(positions) == sorted(reference), (xs, z)
        emitted += len(positions)
    # a quotient with fewer classes than elements was made by relations
    assert emitted > 0 or all(len(q.classes) == len(q.carrier) for q in gf.quotients.values())


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_extension_quotients_match_the_per_element_relations(name):
    g, f = RUN_CASES[name]
    gens_x = generators_by_source(f.source_sym.cat)
    ext = subst_extension(f, g.source_sym)
    for (xs, ys), q in ext.quotients.items():
        relations = (
            pair for blocks, vs, h in q.carrier
            for pair in _old_block_pairs(f, gens_x, ys, blocks, vs, h)
        )
        assert quotient(q.carrier, label_pairs(q.carrier, relations)).classes == q.classes, (xs, ys)


def _block_tuples(sym):
    for m in range(sym.max_len + 1):
        for blocks in itertools.product(sym.cat.objects, repeat=m):
            if sum(map(len, blocks)) <= sym.max_len:
                yield blocks


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_structural_tables_hold_fresh_morphisms_built_once(name):
    g, f = RUN_CASES[name]
    sym = f.source_sym
    subst_compose(g, f)  # fills the tables along the way
    filled = dict(sym._structural)
    assert filled
    checked = 0
    for blocks in _block_tuples(sym):
        for i, b in enumerate(blocks):
            for mu in sym.cat.morphisms():
                if sym.cat.src(mu) != b:
                    continue
                mor = sym.block_embedding(blocks, i, mu)
                assert mor == _fresh_embedding(sym, blocks, i, mu), (blocks, i, mu)
                assert mor in sym.cat.hom[(mor[0], mor[1])]
                assert sym.block_embedding(blocks, i, mu) is mor
                checked += 1
        for sigma in itertools.permutations(range(len(blocks))):
            mor = sym.block_perm_mor(blocks, sigma)
            assert mor == _fresh_block_perm(sym, blocks, sigma), (blocks, sigma)
            assert mor in sym.cat.hom[(mor[0], mor[1])]
            assert sym.block_perm_mor(blocks, sigma) is mor
    assert checked > 0
    # the entries the composite made are the ones a later call reads
    for key, mor in filled.items():
        assert sym._structural[key] is mor


def test_structural_tables_do_not_change_equality_or_hash():
    a, b = free_sym_cat(D1, 3), free_sym_cat(D1, 3)
    a.block_perm_mor((("d0",), ("d0", "d0")), (1, 0))
    assert a == b and hash(a) == hash(b)
    assert "_structural" not in repr(a)
