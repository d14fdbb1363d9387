"""One pentagon and one triangle checker over three bicategories.

`report.check_pentagon` and `report.check_triangle` read a `report.Bicategory`
record.  The Kleisli bicategory, Day convolution at every monoidal base of
the day-monoidal suite, and substitution at arity <= 3 must pass both; a
record whose associator or unitor has one component swapped must fail them
with a witness.
"""

import dataclasses

import pytest

from profcalc.day import day_bicategory
from profcalc.fincat import Cell, FinFn, label_key
from profcalc.presheaf import functor_into_presheaves, psh_coproduct, pvf_coproduct, yoneda
from profcalc.prof import KLEISLI
from profcalc.report import check_pentagon, check_triangle
from profcalc.seeds import all_functors, arrow_category, discrete, fork, parallel_pair
from profcalc.suites import _monoidal_seeds
from profcalc.symmon import (
    SUBST,
    associative_operad,
    free_sym_cat,
    representable_seq,
    seq_coproduct,
)


def _kleisli():
    pool = all_functors(arrow_category(), fork())
    f = pvf_coproduct(functor_into_presheaves(pool[0]), functor_into_presheaves(pool[3]))
    g = functor_into_presheaves(all_functors(fork(), parallel_pair())[2])
    h = functor_into_presheaves(all_functors(parallel_pair(), arrow_category())[1])
    k = functor_into_presheaves(all_functors(arrow_category(), arrow_category())[1])
    return KLEISLI, (k, h, g, f)


def _day(name):
    mon = dict(_monoidal_seeds())[name]
    objs = list(mon.base.objects)

    def pair_sum(i):
        a, b = objs[i % len(objs)], objs[(i + 1) % len(objs)]
        return psh_coproduct(yoneda(mon.base, a), yoneda(mon.base, b))[0]

    return day_bicategory(mon), tuple(pair_sum(i) for i in range(4))


def _subst(name, arity):
    if name == "Ass":
        o = associative_operad(arity).seq
        return SUBST, (o, o, o, o)
    # the sequences of the operad suite
    sym = free_sym_cat(discrete(1), arity)
    one, two = (representable_seq(sym, discrete(1), {"d0": pick}) for pick in [("d0",), ("d0", "d0")])
    f = seq_coproduct(one, two)
    return SUBST, (f, two, f, f)


INSTANCES = {
    "kleisli": _kleisli,
    **{f"day-{name}": (lambda name=name: _day(name)) for name, _ in _monoidal_seeds()},
    **{
        f"subst-{name}-{arity}": (lambda name=name, arity=arity: _subst(name, arity))
        for name in ("Ass", "suite-seqs")
        for arity in (2, 3)
    },
}


def _swap_one(cell):
    """cell with the first two images swapped in its first leaf component, in
    `label_key` order, whose domain has two elements or more; None if none has."""
    for key in sorted(cell.components, key=label_key):
        c = cell.components[key]
        if isinstance(c, Cell):
            swapped = _swap_one(c)
        elif len(c.domain) >= 2:
            a, b = c.domain.elements[0], c.domain.elements[1]
            table = c.as_dict()
            table[a], table[b] = table[b], table[a]
            swapped = FinFn(c.domain, c.codomain, table)
        else:
            swapped = None
        if swapped is not None:
            return type(cell)(cell.source, cell.target, {**cell.components, key: swapped}, check=False)
    return None


def _swapping(build, at_tag):
    """A builder of structural cells like `build` that swaps one component of
    the cell built under `at_tag`."""

    def faulty(*args):
        cell = build(*args)
        if args[-1] != at_tag:
            return cell
        swapped = _swap_one(cell)
        assert swapped is not None, f"no component of {at_tag} has two elements"
        return swapped

    return faulty


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_pentagon_and_triangles_hold_and_catch_a_swapped_component(name):
    B, (k, h, g, f) = INSTANCES[name]()
    assert check_pentagon(B, k, h, g, f).ok
    assert check_triangle(B, g, f).ok

    bad_assoc = dataclasses.replace(B, assoc=_swapping(B.assoc, ("kh,g,f",)))
    (item,) = check_pentagon(bad_assoc, k, h, g, f).failures()
    assert item.name == "pentagon-equality" and item.witness

    bad_lunit = dataclasses.replace(B, lunit=_swapping(B.lunit, ("lam_gf",)))
    failed = check_triangle(bad_lunit, g, f).failures()
    assert any(item.name.startswith("triangle-") and item.witness for item in failed)
