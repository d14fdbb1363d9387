"""Law scans along generators: `validate_category`, `functor_violations`,
`monoidal_violations` and `bifunctor_violations` check their laws on
generators first, and must report exactly what a full scan reports.  Each is
compared here with a full-scan reference on corrupted seeds and products, and
the generators that `product` declares are checked to generate."""

import itertools
import random

import pytest

from profcalc import serialize
from profcalc.colim import _is_composite, bifunctor_violations
from profcalc.day import StrictMonoidalFinCat, monoidal_violations, one_object_group_monoidal
from profcalc.fincat import (
    FinCat,
    FinFn,
    Functor,
    functor_violations,
    identity_functor,
    product,
    validate_category,
)
from profcalc.prof import Profunctor, prof_identity
from profcalc.seeds import cyclic_group_category, seed_library
from profcalc.suites import _monoidal_seeds

SEEDS = seed_library()
SMALL = sorted(name for name, cat in SEEDS.items() if len(cat.objects) <= 4)
PAIRS = list(itertools.combinations_with_replacement(SMALL, 2))
FACTORS = {f"{a}x{b}": (SEEDS[a], SEEDS[b]) for a, b in PAIRS}
CATS = {**SEEDS, **{name: product(c, d) for name, (c, d) in FACTORS.items()}}


# -- full-scan references -------------------------------------------------------


def ref_validate(cat: FinCat) -> list[str]:
    out = []
    for g, f in cat.composable_pairs():
        if (g, f) not in cat.comp:
            out.append(f"missing composite ({g!r}, {f!r})")
            continue
        if cat.comp[(g, f)] not in cat.hom[(cat.src(f), cat.tgt(g))]:
            out.append(f"composite ({g!r}, {f!r}) = {cat.comp[(g, f)]!r} lands outside hom set")
    for g, f in cat.comp:
        if f not in cat._mor_endpoints or g not in cat._mor_endpoints:
            out.append(f"composition table mentions unknown morphism in {(g, f)!r}")
        elif cat.tgt(f) != cat.src(g):
            out.append(f"composition table keyed by non-composable pair {(g, f)!r}")
    if out:
        return out
    for m in cat.morphisms():
        if cat.comp[(m, cat.ids[cat.src(m)])] != m:
            out.append(f"right unit law fails on {m!r}")
        if cat.comp[(cat.ids[cat.tgt(m)], m)] != m:
            out.append(f"left unit law fails on {m!r}")
    for g, f in cat.composable_pairs():
        for d in cat.objects:
            for h in cat.hom[(cat.tgt(g), d)]:
                if cat.comp[(h, cat.comp[(g, f)])] != cat.comp[(cat.comp[(h, g)], f)]:
                    out.append(f"associativity fails on triple ({h!r}, {g!r}, {f!r})")
    return out


def ref_functor(fun: Functor) -> list[str]:
    src, tgt, fmor = fun.source, fun.target, fun.mor_map
    for a in src.objects:
        if a not in fun.obj_map or fun.obj_map[a] not in tgt.objects:
            return [f"object {a!r} not mapped into target"]
    out = []
    for m in src.morphisms():
        if m not in fmor:
            return [f"morphism {m!r} not mapped"]
        if fmor[m] not in tgt.hom[(fun.obj_map[src.src(m)], fun.obj_map[src.tgt(m)])]:
            out.append(f"morphism {m!r} image {fmor[m]!r} has wrong endpoints")
    if out:
        return out
    for a in src.objects:
        if fmor[src.ids[a]] != tgt.ids[fun.obj_map[a]]:
            out.append(f"identity on {a!r} not preserved")
    for g, f in src.composable_pairs():
        if fmor[src.comp[(g, f)]] != tgt.comp[(fmor[g], fmor[f])]:
            out.append(f"composition not preserved on ({g!r}, {f!r})")
    return out


def ref_monoidal(mon: StrictMonoidalFinCat) -> list[str]:
    base, ob, mor = mon.base, mon.ob, mon.mor
    if mon.tensor.source != product(base, base) or mon.tensor.target != base:
        return ["tensor functor has wrong endpoints"]
    bad = ref_functor(mon.tensor)
    if bad:
        return [f"tensor {v}" for v in bad]
    out = []
    for a in base.objects:
        if ob(mon.unit, a) != a or ob(a, mon.unit) != a:
            out.append(f"strict unit fails at {a!r}")
        for b in base.objects:
            for c in base.objects:
                if ob(ob(a, b), c) != ob(a, ob(b, c)):
                    out.append(f"strict associativity fails at ({a!r},{b!r},{c!r})")
    unit_id = base.id_of(mon.unit)
    for m in base.morphisms():
        if mor(unit_id, m) != m or mor(m, unit_id) != m:
            out.append(f"strict unit fails on morphism {m!r}")
    for m in base.morphisms():
        for n in base.morphisms():
            for k in base.morphisms():
                if mor(mor(m, n), k) != mor(m, mor(n, k)):
                    out.append(f"strict associativity fails on ({m!r},{n!r},{k!r})")
                    break
    if out or mon.symmetry is None:
        return out
    sym = mon.symmetry
    for a in base.objects:
        for b in base.objects:
            if (a, b) not in sym:
                return [f"missing symmetry at ({a!r},{b!r})"]
            if base.src(sym[(a, b)]) != ob(a, b) or base.tgt(sym[(a, b)]) != ob(b, a):
                out.append(f"symmetry at ({a!r},{b!r}) has wrong endpoints")
    if out:
        return out
    for a in base.objects:
        for b in base.objects:
            if base.comp[(sym[(b, a)], sym[(a, b)])] != base.id_of(ob(a, b)):
                out.append(f"symmetry not self-inverse at ({a!r},{b!r})")
    for m in base.morphisms():
        for n in base.morphisms():
            lhs = base.comp[(sym[(base.tgt(m), base.tgt(n))], mor(m, n))]
            if lhs != base.comp[(mor(n, m), sym[(base.src(m), base.src(n))])]:
                out.append(f"symmetry not natural at ({m!r},{n!r})")
    for a in base.objects:
        for b in base.objects:
            for c in base.objects:
                step1, step2 = mor(sym[(a, b)], base.id_of(c)), mor(base.id_of(b), sym[(a, c)])
                if sym[(a, ob(b, c))] != base.comp[(step2, step1)]:
                    out.append(f"hexagon fails at ({a!r},{b!r},{c!r})")
    return out


def ref_bifunctor(p, generators_only: bool = True) -> list[str]:
    """The composition and interchange laws on the pairs whose first morphism
    is a generator, filtered from every composable pair; every pair when
    generators_only is False."""
    contra, co, left, right = p.target, p.source, p.left_act, p.right_act
    out = []
    for (a, b), s in p.values.items():
        if left[(contra.id_of(a), b)] != FinFn.identity(s):
            out.append(f"contra identity fails at ({a!r}, {b!r})")
        if right[(a, co.id_of(b))] != FinFn.identity(s):
            out.append(f"co identity fails at ({a!r}, {b!r})")
    firsts = {
        cat: set(cat.generators()) if generators_only else set(cat.morphisms()) for cat in (contra, co)
    }
    for g, f in contra.composable_pairs():
        if g in firsts[contra]:
            for b in co.objects:
                if not _is_composite(left[(contra.comp[(g, f)], b)], left[(g, b)], left[(f, b)]):
                    out.append(f"contra composition fails at ({g!r}, {f!r}) with {b!r}")
    for g, f in co.composable_pairs():
        if g in firsts[co]:
            for a in contra.objects:
                if not _is_composite(right[(a, co.comp[(g, f)])], right[(a, f)], right[(a, g)]):
                    out.append(f"co composition fails at ({g!r}, {f!r}) with {a!r}")
    for m in contra.morphisms() if not generators_only else contra.generators():
        for n in co.morphisms() if not generators_only else co.generators():
            a0, a1 = contra.src(m), contra.tgt(m)
            lhs = left[(m, co.src(n))].then(right[(a0, n)])
            if lhs != right[(a1, n)].then(left[(m, co.tgt(n))]):
                out.append(f"interchange fails at ({m!r}, {n!r})")
    return out


# -- corruptions ----------------------------------------------------------------------


def _non_identities(cat: FinCat) -> list:
    return [m for m in cat.morphisms() if not cat.is_identity(m)]


def _with_composite(cat: FinCat, key, value) -> FinCat:
    comp = dict(cat.comp)
    comp[key] = value
    return FinCat(cat.objects, cat.hom, cat.ids, comp)


def broken_categories(name: str, cat: FinCat, limit: int = 2) -> list[FinCat]:
    """Up to `limit` copies of cat, each with one composite g.f of two
    non-identities changed to another morphism of its hom set, so that closure
    and the unit laws still hold; changes that leave a valid category are skipped."""
    nonid = _non_identities(cat)
    changes = [
        ((g, f), h)
        for g in nonid
        for f in nonid
        if (g, f) in cat.comp
        for h in cat.hom[(cat.src(f), cat.tgt(g))]
        if h != cat.comp[(g, f)]
    ]
    random.Random(name).shuffle(changes)
    out = []
    for key, h in changes:
        broken = _with_composite(cat, key, h)
        if ref_validate(broken):
            out.append(broken)
            if len(out) == limit:
                break
    return out


BROKEN = {name: broken_categories(name, cat) for name, cat in CATS.items()}


@pytest.mark.parametrize("name", sorted(CATS))
def test_validate_matches_full_scan_on_broken_composites(name):
    assert validate_category(CATS[name]) == ref_validate(CATS[name]) == []
    for broken in BROKEN[name]:
        violations = validate_category(broken)
        assert violations
        assert violations == ref_validate(broken)


def test_broken_composites_cover_groups_and_their_products():
    assert {name for name, broken in BROKEN.items() if broken} >= {"S3", "Z3", "S3xZ3", "Z2xZ3", "S3xarrow"}


@pytest.mark.parametrize("bad_name", ["Z3", "S3"])
@pytest.mark.parametrize("other", ["terminal", "arrow", "Z2", "fork"])
def test_validate_matches_full_scan_on_products_of_a_broken_factor(bad_name, other):
    """A product declares its generators from its factors' own; with one factor
    unital but not associative, the generator scan must still find the fault."""
    for bad in BROKEN[bad_name]:
        for cat in (product(bad, SEEDS[other]), product(SEEDS[other], bad)):
            violations = validate_category(cat)
            assert violations
            assert violations == ref_validate(cat)


def _with_image(fun: Functor, m, image) -> Functor:
    return Functor(fun.source, fun.target, fun.obj_map, {**fun.mor_map, m: image}, check=False)


def functors_of(name: str) -> list[Functor]:
    cat = CATS[name]
    out = [identity_functor(cat)]
    if name in FACTORS:
        for i, factor in enumerate(FACTORS[name]):
            out.append(
                Functor(
                    cat,
                    factor,
                    {o: o[i] for o in cat.objects},
                    {m: m[i] for m in cat.morphisms()},
                    check=False,
                )
            )
    return out


@pytest.mark.parametrize("name", sorted(CATS))
def test_functor_scan_matches_full_scan_on_changed_images(name):
    rng = random.Random(name)
    for fun in functors_of(name):
        assert functor_violations(fun) == ref_functor(fun) == []
        src, tgt = fun.source, fun.target
        changes = [
            (m, n)
            for m in src.morphisms()
            for n in tgt.hom[(fun.obj_map[src.src(m)], fun.obj_map[src.tgt(m)])]
            if n != fun.mor_map[m]
        ]
        for m, n in rng.sample(changes, min(3, len(changes))):
            broken = _with_image(fun, m, n)
            assert functor_violations(broken) == ref_functor(broken)


MONOIDAL = dict(_monoidal_seeds())


@pytest.mark.parametrize("name", sorted(MONOIDAL))
def test_monoidal_scan_matches_full_scan_on_changed_tensor_images(name):
    mon = MONOIDAL[name]
    assert monoidal_violations(mon) == ref_monoidal(mon) == []
    base, tensor = mon.base, mon.tensor
    for key, image in tensor.mor_map.items():
        for other in base.morphisms():
            if other != image:
                broken_tensor = _with_image(tensor, key, other)
                broken = StrictMonoidalFinCat(base, broken_tensor, mon.unit, mon.symmetry, check=False)
                got = monoidal_violations(broken)
                assert got and got == ref_monoidal(broken)


def _affine_group_monoidal(n: int, a: int, b: int) -> StrictMonoidalFinCat:
    """Z/n with m (x) k = a*m + b*k: a functor on Z/n x Z/n for every a, b, but
    unital and associative only for a = b = 1."""
    base = cyclic_group_category(n)
    (obj,) = base.objects
    prod = product(base, base)

    def val(m) -> int:
        return int(m.split(":")[1])

    mor_map = {(m, k): f"Z{n}:{(a * val(m) + b * val(k)) % n}" for m, k in prod.morphisms()}
    tensor = Functor(prod, base, {o: obj for o in prod.objects}, mor_map, check=False)
    return StrictMonoidalFinCat(base, tensor, obj, check=False)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_monoidal_scan_matches_full_scan_on_functorial_tensors(n):
    failing = 0
    for a in range(n):
        for b in range(n):
            mon = _affine_group_monoidal(n, a, b)
            assert ref_functor(mon.tensor) == []
            got = monoidal_violations(mon)
            assert got == ref_monoidal(mon)
            assert (got == []) == (a == b == 1)
            failing += any("strict associativity fails on" in v for v in got)
    assert failing


def _unit_plus_group_monoidal(a: int, b: int) -> StrictMonoidalFinCat:
    """The unit object u beside a copy x of Z/3, x (x) x = x, and on Z/3
    m (x) k = a*m + b*k: a functor, strictly unital and associative on objects
    for every a, b, and associative on morphisms only for a, b in {0, 1}."""
    hom = {("u", "u"): ["u:0"], ("x", "x"): ["x:0", "x:1", "x:2"]}
    comp = {("u:0", "u:0"): "u:0"}
    comp.update({(f"x:{i}", f"x:{j}"): f"x:{(i + j) % 3}" for i in range(3) for j in range(3)})
    base = FinCat(["u", "x"], hom, {"u": "u:0", "x": "x:0"}, comp)
    prod = product(base, base)
    obj_map = {(o, p): "x" if "x" in (o, p) else "u" for o, p in prod.objects}
    mor_map = {}
    for m, k in prod.morphisms():
        if "u:0" in (m, k):
            mor_map[(m, k)] = k if m == "u:0" else m
        else:
            mor_map[(m, k)] = f"x:{(a * int(m[2:]) + b * int(k[2:])) % 3}"
    tensor = Functor(prod, base, obj_map, mor_map, check=False)
    return StrictMonoidalFinCat(base, tensor, "u", check=False)


def test_monoidal_scan_matches_full_scan_on_unital_functorial_tensors():
    """Units and objects pass here, so the scan along the generators of C^3
    runs, and the fallback must list every failing triple."""
    for a in range(3):
        for b in range(3):
            mon = _unit_plus_group_monoidal(a, b)
            assert validate_category(mon.base) == [] and ref_functor(mon.tensor) == []
            got = monoidal_violations(mon)
            assert got == ref_monoidal(mon)
            assert (got == []) == (a in (0, 1) and b in (0, 1))


def test_a_tensor_that_is_not_a_functor_is_rejected():
    mon = one_object_group_monoidal(3)
    broken = _with_image(mon.tensor, ("Z3:1", "Z3:1"), "Z3:0")
    expected = "not strict monoidal: tensor composition not preserved on"
    assert functor_violations(broken)
    with pytest.raises(ValueError, match=expected):
        StrictMonoidalFinCat(mon.base, broken, mon.unit, mon.symmetry)
    payload = serialize.dumps(StrictMonoidalFinCat(mon.base, broken, mon.unit, mon.symmetry, check=False))
    with pytest.raises(ValueError, match=expected):
        serialize.loads(payload)


def _swapped(fn: FinFn) -> FinFn | None:
    """fn with its first two images swapped, or its only image moved; None if no change exists."""
    table = dict(fn.mapping)
    keys, others = list(table), [y for y in fn.codomain if y not in table.values()]
    if len(keys) >= 2 and table[keys[0]] != table[keys[1]]:
        table[keys[0]], table[keys[1]] = table[keys[1]], table[keys[0]]
    elif keys and others:
        table[keys[0]] = others[0]
    else:
        return None
    return FinFn(fn.domain, fn.codomain, table)


@pytest.mark.parametrize("name", sorted(CATS))
def test_bifunctor_scan_matches_filtered_scan_on_changed_actions(name):
    p = prof_identity(CATS[name])
    assert bifunctor_violations(p) == ref_bifunctor(p) == []
    rng = random.Random(name)
    for side in ("left_act", "right_act"):
        table = getattr(p, side)
        changes = [(key, fn) for key, fn in ((key, _swapped(fn)) for key, fn in table.items()) if fn is not None]
        for key, fn in rng.sample(changes, min(2, len(changes))):
            tables = {"left_act": p.left_act, "right_act": p.right_act}
            tables[side] = {**table, key: fn}
            broken = Profunctor(p.source, p.target, p.values, check=False, **tables)
            got = bifunctor_violations(broken)
            assert got == ref_bifunctor(broken)
            assert bool(got) == bool(ref_bifunctor(broken, generators_only=False))


# -- declared generators -----------------------------------------------------------


@pytest.mark.parametrize("left, right", PAIRS)
def test_products_declare_generators_that_generate(left, right):
    cat = product(SEEDS[left], SEEDS[right])
    gens = cat.generators()
    assert not any(cat.is_identity(g) for g in gens)
    reached = set(cat.ids.values())
    work = list(reached)
    while work:
        r = work.pop()
        for g in gens:
            if cat.src(g) == cat.tgt(r) and cat.comp[(g, r)] not in reached:
                reached.add(cat.comp[(g, r)])
                work.append(cat.comp[(g, r)])
    assert reached == set(cat.morphisms())
