"""A record built with check=True runs its law scan in `__post_init__` and
raises the exact message pinned here.  `Functor` and `NatTrans` join every
violation; the other records name the first.  `CheckReport.build` turns such
an error into a failed item."""

import pytest

from profcalc.day import StrictMonoidalFinCat, MonoidalPshFunctor, monoidal_from_strict_functor, one_object_group_monoidal
from profcalc.fincat import FinFn, FinSet, Functor, NatTrans, NonInvertible, identity_functor
from profcalc.presheaf import Presheaf, PshMap, PshValuedFunctor, psh_initial, pshmap_from_rule, yoneda_embedding
from profcalc.report import CheckReport
from profcalc.seeds import cyclic_group_category, parallel_pair
from profcalc.suites import _monoidal_seeds
from test_law_scans import _unit_plus_group_monoidal

PAIR = parallel_pair()  # objects a, b; u, v: a -> b
Z2 = cyclic_group_category(2)


def _refusal(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize(
    "obj_map, mor_map, message",
    [
        ({"a": "a"}, {}, "object 'b' not mapped into target"),
        ({"a": "a", "b": "b"}, {"id_a": "id_a", "u": "u", "id_b": "id_b"}, "morphism 'v' not mapped"),
        (
            {"a": "a", "b": "b"},
            {"id_a": "id_a", "u": "id_a", "v": "id_b", "id_b": "id_b"},
            "morphism 'u' image 'id_a' has wrong endpoints; morphism 'v' image 'id_b' has wrong endpoints",
        ),
    ],
)
def test_functor_refusals(obj_map, mor_map, message):
    assert _refusal(lambda: Functor(PAIR, PAIR, obj_map, mor_map)) == "not a functor: " + message


def test_a_non_natural_transformation_lists_every_failing_square():
    to_z2 = {"a": "*Z2", "b": "*Z2"}
    f = Functor(PAIR, Z2, to_z2, {m: "Z2:0" for m in PAIR.morphisms()})
    g = Functor(PAIR, Z2, to_z2, {"id_a": "Z2:0", "u": "Z2:1", "v": "Z2:1", "id_b": "Z2:0"})
    assert _refusal(lambda: NatTrans(f, g, {"a": "Z2:0", "b": "Z2:0"})) == (
        "not natural: naturality square fails at 'u'; naturality square fails at 'v'"
    )


def test_a_presheaf_whose_identity_restricts_nontrivially_is_refused():
    s = FinSet([0, 1])
    swap = FinFn(s, s, {0: 1, 1: 0})
    assert _refusal(lambda: Presheaf(Z2, {"*Z2": s}, {"Z2:0": swap, "Z2:1": swap})) == (
        "not a presheaf: identity restriction fails at '*Z2'"
    )


@pytest.mark.parametrize(
    "images, message",
    [
        ({"Z3:0": "Z3:1"}, "identity not preserved at '*Z3'"),
        ({"Z3:2": "Z3:1"}, "composition not preserved at ('Z3:1', 'Z3:1')"),
    ],
)
def test_a_non_functorial_presheaf_valued_functor_is_refused(images, message):
    # the Yoneda embedding of Z/3 with the action on some morphisms replaced by that on others
    base = cyclic_group_category(3)
    emb = yoneda_embedding(base)
    on_mor = {m: emb.on_mor[images.get(m, m)] for m in base.morphisms()}
    assert _refusal(lambda: PshValuedFunctor(base, base, emb.on_obj, on_mor)) == "not functorial: " + message


def _identity_symmetry(mon) -> dict:
    return {(a, b): mon.base.id_of(mon.ob(a, b)) for a in mon.base.objects for b in mon.base.objects}


def _without(table: dict, key) -> dict:
    return {k: v for k, v in table.items() if k != key}


MONOIDAL = dict(_monoidal_seeds())
Z2_DISCRETE = MONOIDAL["Z2-discrete"]  # objects d0, d1 under addition mod 2
BZ2, BZ3 = one_object_group_monoidal(2), one_object_group_monoidal(3)
PROJECTION = _unit_plus_group_monoidal(1, 0)  # m (x) k = m on Z/3: not symmetric on morphisms


@pytest.mark.parametrize(
    "mon, symmetry, message",
    [
        (Z2_DISCRETE, _without(Z2_DISCRETE.symmetry, ("d1", "d0")), "missing symmetry at ('d1','d0')"),
        (
            Z2_DISCRETE,
            {**Z2_DISCRETE.symmetry, ("d0", "d1"): Z2_DISCRETE.base.id_of("d0")},
            "symmetry at ('d0','d1') has wrong endpoints",
        ),
        (BZ3, {("*Z3", "*Z3"): "Z3:1"}, "symmetry not self-inverse at ('*Z3','*Z3')"),
        (PROJECTION, _identity_symmetry(PROJECTION), "symmetry not natural at ('x:0','x:1')"),
        (BZ2, {("*Z2", "*Z2"): "Z2:1"}, "hexagon fails at ('*Z2','*Z2','*Z2')"),
    ],
)
def test_symmetry_refusals(mon, symmetry, message):
    # each base is strict monoidal, so the symmetry scan runs and names its first failure
    assert _refusal(lambda: StrictMonoidalFinCat(mon.base, mon.tensor, mon.unit, symmetry)) == (
        "not strict monoidal: " + message
    )


def _inverted(p) -> PshMap:
    """The bijection h -> h^-1 on the representable of Z/3: not natural."""
    (x,) = p.base.objects
    s = p.values[x]
    return PshMap(p, p, {x: FinFn(s, s, {h: f"Z3:{-int(h[3:]) % 3}" for h in s})}, check=False)


@pytest.mark.parametrize(
    "change, message",
    [
        (
            lambda c: pshmap_from_rule(psh_initial(c.source.base), c.target, lambda a, u: u),
            "constraint at ('*Z3','*Z3') not invertible",
        ),
        (lambda c: c.then(_inverted(c.target)), "constraint not natural at ('Z3:0','Z3:1')"),
    ],
)
def test_monoidal_functor_refusals(change, message):
    mf = monoidal_from_strict_functor(BZ3, BZ3, identity_functor(BZ3.base))
    constraint = {key: change(c) for key, c in mf.constraint.items()}
    assert _refusal(
        lambda: MonoidalPshFunctor(mf.source_mon, mf.target_mon, mf.functor, constraint, mf.unit_cell)
    ) == "not strong monoidal: " + message


@pytest.mark.parametrize("error", [ValueError, NonInvertible])
def test_a_failed_build_is_a_failed_item_with_its_error(error):
    def construct():
        raise error("no comparison")

    report = CheckReport("r")
    assert report.build("comparison", construct, natural="comparison-natural") is None
    assert report.to_dict()["checks"] == [{"name": "comparison", "passed": False, "witness": "no comparison"}]
