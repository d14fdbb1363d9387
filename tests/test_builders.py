"""The table builders: every presheaf, presheaf map, profunctor, sequence and
operad cell built from an elementwise rule is lawful on every seed category,
and a rule whose image leaves the codomain is refused, naming that image."""

import pytest

from integrands import psh_copair, psh_equalizer_factor
from profcalc.colim import bifunctor_violations
from profcalc.fincat import FinSet, components, identity_functor, memo_scope
from profcalc.presheaf import (
    PshMap,
    eta_iso,
    functor_into_presheaves,
    presheaf_from_rule,
    presheaf_violations,
    psh_coproduct,
    psh_equalizer,
    psh_initial,
    psh_initial_map,
    psh_pair,
    psh_product,
    psh_terminal,
    psh_terminal_map,
    pshmap_from_rule,
    pvf_coproduct,
    pvf_product,
    pvf_violations,
    yoneda,
    yoneda_embedding,
)
from profcalc.prof import action_tables, prof_identity
from profcalc.seeds import arrow_category, discrete, seed_library
from profcalc.symmon import (
    SymSeqCell,
    associative_operad,
    free_sym_cat,
    representable_seq,
    seq_coproduct,
    subst_compose,
    subst_identity,
    terminal_operad,
)

SEEDS = seed_library()


def _few_morphisms(cat) -> bool:
    # the free symmetric category on such a base stays under 200 morphisms at arity 3
    return len(list(cat.morphisms())) <= 3


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_presheaf_builders_are_lawful(name):
    cat = SEEDS[name]
    objs = list(cat.objects)
    ya, yb = yoneda(cat, objs[0]), yoneda(cat, objs[-1])
    prod, pi1, pi2 = psh_product(ya, yb)
    cop, in1, in2 = psh_coproduct(ya, yb)
    square = psh_product(ya, ya)
    eq, incl = psh_equalizer(square[1], square[2])
    diagonal = psh_pair(PshMap.identity(ya), PshMap.identity(ya), square)
    presheaves = [yoneda(cat, x) for x in objs] + [psh_terminal(cat), psh_initial(cat), prod, cop, eq]
    maps = [
        psh_terminal_map(ya), psh_initial_map(ya), pi1, pi2, in1, in2, incl, diagonal,
        psh_pair(pi1, pi2), psh_copair(in1, in2), psh_equalizer_factor((eq, incl), diagonal),
    ]
    for p in presheaves:
        assert presheaf_violations(p) == []
    for phi in maps:
        assert phi.violations() == []
    emb = yoneda_embedding(cat)
    # factors whose values differ in shape, so a rule that reads the wrong factor fails
    other = pvf_coproduct(emb, functor_into_presheaves(identity_functor(cat)))
    for f in (emb, other, pvf_product(emb, other), pvf_coproduct(other, emb)):
        assert pvf_violations(f) == []
        for phi in f.on_mor.values():
            assert phi.violations() == []
    for x in objs:
        assert eta_iso(emb, x).is_iso()


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_sequence_builders_are_lawful(name):
    cat = SEEDS[name]
    sym = free_sym_cat(cat, 3 if _few_morphisms(cat) else 2)
    objs = list(cat.objects)
    unit = subst_identity(sym)
    one = representable_seq(sym, discrete(1), {"d0": (objs[0],)})
    two = representable_seq(sym, discrete(1), {"d0": (objs[0], objs[-1])})
    for seq in (prof_identity(cat), unit, one, two, seq_coproduct(one, two), seq_coproduct(unit, unit)):
        assert bifunctor_violations(seq) == []


def _assert_operad_tables_lawful(operad):
    seq = operad.seq
    assert bifunctor_violations(seq) == []
    unit = subst_identity(seq.source_sym)
    oo = subst_compose(seq, seq, operad.m_bound)
    assert SymSeqCell(unit, seq, operad.unit_components, check=False).violations() == []
    assert SymSeqCell(oo, seq, operad.comp_components, check=False).violations() == []


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_terminal_operad_tables_are_lawful(name):
    cat = SEEDS[name]
    with memo_scope():  # the check reuses the operad's own composite
        _assert_operad_tables_lawful(terminal_operad(cat, 2 if _few_morphisms(cat) else 1))


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_associative_operad_tables_are_lawful(arity):
    with memo_scope():
        _assert_operad_tables_lawful(associative_operad(arity))


def test_representable_seq_refuses_a_target_with_non_identities():
    sym = free_sym_cat(discrete(1), 2)
    with pytest.raises(ValueError, match="identity-only targets"):
        representable_seq(sym, arrow_category(), {"0": ("d0",), "1": ("d0", "d0")})


# -- a rule that leaves the codomain ------------------------------------------------


def test_components_refuses_a_stray_image():
    s = FinSet(["a", "b"])
    with pytest.raises(ValueError, match="'stray'"):
        components({"k": s}, {"k": s}, lambda key, u: "stray" if u == "b" else u)


def test_presheaf_from_rule_refuses_a_stray_image():
    cat = arrow_category()
    values = {a: cat.hom[(a, "1")] for a in cat.objects}
    with pytest.raises(ValueError, match="'stray'"):
        presheaf_from_rule(cat, values, lambda m, h: "stray")


def test_pshmap_from_rule_refuses_a_stray_image():
    y = yoneda(arrow_category(), "1")
    with pytest.raises(ValueError, match="'stray'"):
        pshmap_from_rule(y, y, lambda a, h: "stray")


@pytest.mark.parametrize("side", ["left", "right"])
def test_action_tables_refuse_a_stray_image(side):
    cat = arrow_category()
    values = {(a, b): cat.hom[(a, b)] for a in cat.objects for b in cat.objects}

    def left(g, x, h):
        return "stray" if side == "left" else cat.comp[(h, g)]

    def right(y, f, h):
        return "stray" if side == "right" else cat.comp[(f, h)]

    with pytest.raises(ValueError, match="'stray'"):
        action_tables(cat, cat, values, left, right)
