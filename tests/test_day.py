import pytest

from integrands import fubini_iso
from profcalc.day import (
    StrictMonoidalFinCat,
    check_convolution_assoc,
    check_convolution_symmetry,
    check_kan_monoidal,
    check_yoneda_strong_monoidal,
    day_convolve,
    day_symmetry_iso,
    day_unit,
    day_unit_left_iso,
    day_unit_right_iso,
    monoidal_from_monoid,
    monoidal_from_strict_functor,
    monoidal_violations,
    one_object_group_monoidal,
    terminal_monoidal,
)
from profcalc.fincat import FinFn, FinSet, Functor, product
from profcalc.presheaf import Presheaf, psh_coproduct, psh_initial, yoneda
from profcalc.seeds import discrete


def z_monoidal(n, commutative=True):
    base = discrete(n)
    return monoidal_from_monoid(
        base, lambda a, b: f"d{(int(a[1:]) + int(b[1:])) % n}", "d0", commutative
    )


def noncommutative_monoidal():
    # left-absorbing multiplication on {1, x, y}: x*z = x, y*z = y for z != 1
    base = discrete(3)  # d0 = unit, d1 = x, d2 = y

    def mult(a, b):
        if a == "d0":
            return b
        return a

    return monoidal_from_monoid(base, mult, "d0", commutative=False)


def psh_sizes(base, sizes):
    values = {a: FinSet([f"{a}:{i}" for i in range(sizes[a])]) for a in base.objects}
    return Presheaf(
        base,
        values,
        {m: FinFn.identity(values[base.src(m)]) for m in base.morphisms()},
        check=False,
    )


def test_monoidal_seeds_valid():
    assert monoidal_violations(terminal_monoidal()) == []
    assert monoidal_violations(z_monoidal(3)) == []
    assert monoidal_violations(one_object_group_monoidal(2)) == []
    assert monoidal_violations(noncommutative_monoidal()) == []


def test_terminal_monoidal_convolution_is_cartesian():
    mon = terminal_monoidal()
    f1 = psh_sizes(mon.base, {"*": 2})
    f2 = psh_sizes(mon.base, {"*": 3})
    conv = day_convolve(mon, f1, f2)
    assert len(conv.values["*"]) == 6


def test_discrete_monoid_graded_convolution():
    mon = z_monoidal(3)
    f1 = psh_sizes(mon.base, {"d0": 1, "d1": 2, "d2": 0})
    f2 = psh_sizes(mon.base, {"d0": 2, "d1": 1, "d2": 1})
    conv = day_convolve(mon, f1, f2)
    for a in mon.base.objects:
        expected = sum(
            len(f1.values[b]) * len(f2.values[c])
            for b in mon.base.objects
            for c in mon.base.objects
            if mon.ob(b, c) == a
        )
        assert len(conv.values[a]) == expected


def test_empty_factor_gives_empty():
    mon = z_monoidal(2)
    f1 = psh_initial(mon.base)
    f2 = psh_sizes(mon.base, {"d0": 2, "d1": 1})
    conv = day_convolve(mon, f1, f2)
    assert all(len(v) == 0 for v in conv.values.values())


def test_day_unit_is_representable_at_unit():
    mon = z_monoidal(3)
    u = day_unit(mon)
    assert u == yoneda(mon.base, "d0")
    # indicator of the monoid unit on a discrete base
    assert len(u.values["d0"]) == 1
    assert len(u.values["d1"]) == 0


def test_unit_laws_via_coyoneda():
    mon = z_monoidal(2)
    f = psh_sizes(mon.base, {"d0": 2, "d1": 1})
    assert day_unit_left_iso(mon, f).is_iso()
    assert day_unit_right_iso(mon, f).is_iso()
    bz2 = one_object_group_monoidal(2)
    obj = next(iter(bz2.base.objects))
    g = yoneda(bz2.base, obj)
    assert day_unit_left_iso(bz2, g).is_iso()


def test_yoneda_strong_monoidal_unit_case():
    mon = z_monoidal(3)
    assert check_yoneda_strong_monoidal(mon, "d0", "d2").ok


def test_yoneda_strong_monoidal_generators():
    mon = z_monoidal(3)
    for a in mon.base.objects:
        for b in mon.base.objects:
            assert check_yoneda_strong_monoidal(mon, a, b).ok


def test_yoneda_strong_monoidal_group_base():
    bz2 = one_object_group_monoidal(2)
    obj = next(iter(bz2.base.objects))
    assert check_yoneda_strong_monoidal(bz2, obj, obj).ok


def test_convolution_assoc_terminal_and_discrete():
    mon = terminal_monoidal()
    f = psh_sizes(mon.base, {"*": 2})
    assert check_convolution_assoc(mon, f, f, f).ok
    mon2 = z_monoidal(2)
    f1 = psh_sizes(mon2.base, {"d0": 1, "d1": 2})
    f2 = psh_sizes(mon2.base, {"d0": 2, "d1": 0})
    f3 = psh_sizes(mon2.base, {"d0": 1, "d1": 1})
    assert check_convolution_assoc(mon2, f1, f2, f3).ok


def test_convolution_symmetry_discrete_commutative():
    mon = z_monoidal(2)
    f1 = psh_sizes(mon.base, {"d0": 1, "d1": 2})
    f2 = psh_sizes(mon.base, {"d0": 2, "d1": 1})
    report = check_convolution_symmetry(mon, f1, f2)
    assert report.ok
    braid = day_symmetry_iso(mon, f1, f2)
    assert braid.is_iso()


def test_convolution_symmetry_skipped_without_symmetry():
    mon = noncommutative_monoidal()
    f1 = psh_sizes(mon.base, {"d0": 1, "d1": 1, "d2": 1})
    report = check_convolution_symmetry(mon, f1, f1)
    assert report.ok
    assert report.meta.get("skipped")


def test_braiding_against_a_convolution_is_invertible():
    mon = z_monoidal(2)
    f1 = psh_sizes(mon.base, {"d0": 1, "d1": 1})
    f2 = psh_sizes(mon.base, {"d0": 2, "d1": 0})
    f3 = psh_sizes(mon.base, {"d0": 0, "d1": 1})
    c23 = day_convolve(mon, f2, f3)
    assert day_symmetry_iso(mon, f1, c23).is_iso()


def test_double_coend_matches_iterated_computation():
    # the convolution is defined as one coend over the product category;
    # Fubini gives the iterated computation and the comparison is bijective
    mon = z_monoidal(2)
    f1 = psh_sizes(mon.base, {"d0": 1, "d1": 2})
    f2 = psh_sizes(mon.base, {"d0": 2, "d1": 1})
    from integrands import day_bifunctor

    for a in mon.base.objects:
        h = day_bifunctor(mon, f1, f2, a)
        joint, outer, fn = fubini_iso(mon.base, mon.base, h)
        assert fn.is_iso()
        conv = day_convolve(mon, f1, f2)
        assert len(joint.quotient) == len(conv.values[a])


def test_kan_monoidal_via_monoid_hom():
    mon2 = z_monoidal(2)
    mon4 = monoidal_from_monoid(
        discrete(4), lambda a, b: f"d{(int(a[1:]) + int(b[1:])) % 4}", "d0", True
    )
    # doubling homomorphism Z2 -> Z4
    g = Functor(
        mon2.base,
        mon4.base,
        {"d0": "d0", "d1": "d2"},
        {m: mon4.base.id_of("d0" if mon2.base.src(m) == "d0" else "d2") for m in mon2.base.morphisms()},
    )
    mf = monoidal_from_strict_functor(mon2, mon4, g)
    p = psh_sizes(mon2.base, {"d0": 1, "d1": 2})
    q = psh_sizes(mon2.base, {"d0": 2, "d1": 1})
    report = check_kan_monoidal(mf, p, q)
    assert report.ok


def test_kan_monoidal_representable_arguments():
    mon = z_monoidal(2)
    g = Functor(
        mon.base,
        mon.base,
        {a: a for a in mon.base.objects},
        {m: m for m in mon.base.morphisms()},
    )
    mf = monoidal_from_strict_functor(mon, mon, g)
    report = check_kan_monoidal(mf, yoneda(mon.base, "d1"), yoneda(mon.base, "d1"))
    assert report.ok


def test_kan_monoidal_group_base():
    bz2 = one_object_group_monoidal(2)
    obj = next(iter(bz2.base.objects))
    ident = Functor(
        bz2.base,
        bz2.base,
        {obj: obj},
        {m: m for m in bz2.base.morphisms()},
    )
    mf = monoidal_from_strict_functor(bz2, bz2, ident)
    p = yoneda(bz2.base, obj)
    q, _, _ = psh_coproduct(p, p)
    report = check_kan_monoidal(mf, p, q)
    assert report.ok
