"""The structural cells of substitution and Day convolution, read off run
layouts (`colim.run_components`), against their label rules (`integrands`)
applied to every member of every class.

Each cell's components must equal, map for map, those that its label rule
induces through `label_induced_map`: on every substitution reference case,
`Ass o Ass` at arity 4 and two bounded searches with nullary values (runs of
no block, and empty blocks), on every Day case, and on every case of the
Kan extension's monoidal comparison, whose Day target is laid out.
"""

import pytest

from integrands import (
    day_assoc_rule,
    day_convolve_map_rule,
    day_symmetry_rule,
    day_unit_left_rule,
    day_unit_right_rule,
    kan_monoidal_rule,
    label_components,
    subst_assoc_rule,
    subst_left_unit_rule,
    subst_right_unit_rule,
    subst_whisker_inner_rule,
    subst_whisker_outer_rule,
    tau_rule,
    yoneda_comparison_rule,
)
from profcalc.day import (
    _kan_monoidal_comparison,
    _yoneda_comparison,
    day_assoc_iso,
    day_convolve,
    day_convolve_map,
    day_symmetry_iso,
    day_unit_left_iso,
    day_unit_right_iso,
)
from profcalc.fincat import memo_scope
from profcalc.presheaf import kan_extend, psh_coproduct, psh_terminal_map
from profcalc.prof import kleisli_compose, tau
from profcalc.symmon import (
    SymSeqCell,
    associative_operad,
    subst_assoc_iso,
    subst_compose,
    subst_extension,
    subst_identity,
    subst_left_unit_iso,
    subst_right_unit_iso,
    subst_whisker_inner,
    subst_whisker_outer,
    tau_comparison,
)
from tests.test_day import KAN_MONOIDAL_CASES
from tests.test_induced_actions import DAY_CASES, _day_case
from tests.test_symmon import RUN_CASES as SUBST_CASES


def _same(cell, rule):
    assert cell.components == label_components(cell.source.quotients, _targets(cell.target), rule)


def _targets(target):
    return target.quotients or target.values


@pytest.mark.parametrize("name", sorted(SUBST_CASES))
def test_substitution_cells_match_their_label_rules(name):
    g, f = SUBST_CASES[name]
    with memo_scope():
        # on the bounded search y(d0, d0) o (y() + y(d0)), (g o g) o f -> g o (g o f) is no bijection
        _same(subst_assoc_iso(g, f, f), subst_assoc_rule(g, f, f, subst_compose(f, f)))
        _same(subst_left_unit_iso(f), subst_left_unit_rule(f))
        _same(subst_right_unit_iso(g), subst_right_unit_rule(g))
        outer, inner = subst_right_unit_iso(g), subst_left_unit_iso(f)
        _same(subst_whisker_outer(outer, f), subst_whisker_outer_rule(outer))
        _same(subst_whisker_inner(g, inner), subst_whisker_inner_rule(inner))
        gf, component = tau_comparison(g, f)
        ext = subst_extension(f, g.source_sym)
        composite = kleisli_compose(tau(ext), tau(g))
        for (xs, z), q in gf.quotients.items():
            key, target = (xs, z), composite.on_obj[z].quotients[xs]
            assert component(key) == label_components({key: q}, {key: target}, tau_rule(ext))[key], key


def test_operad_whiskers_at_arity_4_match_their_label_rules():
    operad = associative_operad(4)
    o = operad.seq
    with memo_scope():
        comp = SymSeqCell(subst_compose(o, o), o, operad.comp_components, check=False)
        unit = SymSeqCell(subst_identity(o.source_sym), o, operad.unit_components, check=False)
        for cell in (comp, unit):
            _same(subst_whisker_outer(cell, o), subst_whisker_outer_rule(cell))
            _same(subst_whisker_inner(o, cell), subst_whisker_inner_rule(cell))


@pytest.mark.parametrize("name", DAY_CASES)
def test_day_cells_match_their_label_rules(name):
    mon, f1, f2 = _day_case(name)
    objects = mon.base.objects.elements
    with memo_scope():
        _, into, _ = psh_coproduct(f1, f2)
        to_one = psh_terminal_map(f2)
        _same(day_convolve_map(mon, into, to_one), day_convolve_map_rule(into, to_one))
        _same(day_unit_left_iso(mon, f1), day_unit_left_rule(mon, f1))
        _same(day_unit_right_iso(mon, f2), day_unit_right_rule(mon, f2))
        _same(_yoneda_comparison(mon, objects[0], objects[-1]), yoneda_comparison_rule(mon))
        _same(day_assoc_iso(mon, f1, f2, f1), day_assoc_rule(mon, day_convolve(mon, f2, f1)))
        if mon.symmetry:
            _same(day_symmetry_iso(mon, f1, f2), day_symmetry_rule(mon))


@pytest.mark.parametrize("name", sorted(KAN_MONOIDAL_CASES))
def test_kan_monoidal_comparison_matches_its_label_rule(name):
    mf, p, q = KAN_MONOIDAL_CASES[name]()
    with memo_scope():
        kp, kq = kan_extend(mf.functor, p), kan_extend(mf.functor, q)
        _same(_kan_monoidal_comparison(mf, p, q), kan_monoidal_rule(mf, kp, kq))
