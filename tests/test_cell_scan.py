"""The naturality scan of every kind of 2-cell: pinned messages, in order.

Each cell here is an identity cell with one component corrupted (its first
two images swapped, or removed), so the scan has exactly one place to fail
from and the messages it returns are fixed.
"""

import pytest

from profcalc.fincat import FinFn
from profcalc.presheaf import PshMap, psh_coproduct, pvf_constant, yoneda
from profcalc.prof import KleisliCell, ProfCell, prof_identity
from profcalc.seeds import arrow_category, chain, cyclic_group_category
from profcalc.symmon import SymSeqCell, associative_operad


def _swapped(fn: FinFn) -> FinFn:
    a, b = fn.domain.elements[:2]
    table = fn.as_dict()
    table[a], table[b] = table[b], table[a]
    return FinFn(fn.domain, fn.codomain, table)


def _two_copies_of_y1():
    cat = arrow_category()
    p, _, _ = psh_coproduct(yoneda(cat, "1"), yoneda(cat, "1"))
    comps = dict(PshMap.identity(p).components)
    comps["0"] = _swapped(comps["0"])
    return cat, p, PshMap(p, p, comps, check=False)


def test_pshmap_scan_names_the_morphism_it_fails_along():
    _, p, phi = _two_copies_of_y1()
    assert phi.violations() == ["naturality fails along ('le', '0', '1')"]
    with pytest.raises(ValueError) as err:
        PshMap(p, p, phi.components, check=True)
    assert str(err.value) == "not natural: naturality fails along ('le', '0', '1')"


def test_kleisli_cell_scan_names_the_source_morphism():
    cat, p, phi = _two_copies_of_y1()
    f = pvf_constant(cat, p)
    comps = {x: PshMap.identity(p) for x in cat.objects}
    comps["0"] = phi
    assert KleisliCell(f, f, comps, check=False).violations() == [
        "naturality fails at ('le', '0', '1')"
    ]
    with pytest.raises(ValueError) as err:
        KleisliCell(f, f, comps, check=True)
    assert str(err.value) == "not a Kleisli 2-cell: naturality fails at ('le', '0', '1')"


def test_symseq_cell_scan_reports_the_left_action_first():
    seq = associative_operad(3).seq
    key = (("d0", "d0", "d0"), "d0")
    comps = {k: FinFn.identity(v) for k, v in seq.values.items()}
    comps[key] = _swapped(comps[key])
    with pytest.raises(ValueError) as err:
        SymSeqCell(seq, seq, comps, check=True)
    assert str(err.value) == (
        "not equivariant: left action not respected at "
        "((('d0', 'd0', 'd0'), ('d0', 'd0', 'd0'), (1, 0, 2), ('id_d0', 'id_d0', 'id_d0')), 'd0')"
    )
    assert len(SymSeqCell(seq, seq, comps, check=False).violations()) == 4


def test_prof_cell_scan_lists_left_squares_then_right_squares():
    p = prof_identity(cyclic_group_category(3))
    comps = {k: FinFn.identity(v) for k, v in p.values.items()}
    comps[("*Z3", "*Z3")] = _swapped(comps[("*Z3", "*Z3")])
    assert ProfCell(p, p, comps, check=False).violations() == [
        "left action not respected at ('Z3:1', '*Z3')",
        "left action not respected at ('Z3:2', '*Z3')",
        "right action not respected at ('*Z3', 'Z3:1')",
        "right action not respected at ('*Z3', 'Z3:2')",
    ]


def test_prof_cell_with_a_missing_component_is_refused():
    p = prof_identity(chain(2))
    comps = {k: FinFn.identity(v) for k, v in p.values.items()}
    del comps[("0", "1")]
    with pytest.raises(ValueError) as err:
        ProfCell(p, p, comps, check=True)
    assert str(err.value) == "not a profunctor cell: missing component at ('0', '1')"
