"""Day convolution on strict monoidal finite categories.

The convolution of two presheaves is the coend, over the product of the base
with itself, of F1(a1) x F2(a2) x hom(a, a1 (x) a2).  Only strict monoidal
bases are supported: associativity and unit laws of the tensor hold as
object/morphism equalities, so iterated convolutions share endpoints on the
nose and coherence comparisons can be tested for exact equality.
Its carrier has the shape of substitution's, values times a hom set into a
tensor, and is laid out, related and restricted by the same `colim` pieces.
`day_bicategory` presents convolution as a one-object `report.Bicategory`,
whose pentagon and triangles the shared `report` checkers test.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

from .colim import (
    coend_relations, gather, induced_actions, induced_map, layout, postcompose, precompose_image, quotient,
    run_components, run_positions,
)
from .fincat import (
    EndpointMismatch,
    FinCat,
    Functor,
    Label,
    NonInvertible,
    cell_difference,
    functor_violations,
    memo_scope,
    memoised,
    product,
    require_lawful,
)
from .presheaf import (
    Presheaf,
    PshMap,
    PshValuedFunctor,
    functor_into_presheaves,
    kan_extend,
    yoneda,
)
from .report import Bicategory, CheckReport
from .seeds import cyclic_group_category, terminal_category


@dataclass(frozen=True)
class StrictMonoidalFinCat:
    """A finite category with a strictly associative, strictly unital tensor.

    The optional symmetry is a family of isomorphisms a (x) b -> b (x) a,
    natural, self-inverse after swapping, and satisfying the strict hexagon.
    An empty symmetry, like None, means there is none.
    """

    base: FinCat
    tensor: Functor  # from product(base, base) to base
    unit: Label
    symmetry: dict[tuple[Label, Label], Label] | None = None
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if check:
            require_lawful(monoidal_violations(self), "not strict monoidal")

    def ob(self, a: Label, b: Label) -> Label:
        return self.tensor.obj_map[(a, b)]

    def mor(self, m: Label, n: Label) -> Label:
        return self.tensor.mor_map[(m, n)]


def monoidal_violations(mon: StrictMonoidalFinCat) -> list[str]:
    """The tensor's functor laws first.  Given them on a valid base, (x)((x) x 1)
    and (x)(1 x (x)) are functors C^3 -> C, equal if equal on objects and on the
    generators of C^3: one generator of C and two identities.  Those triples are
    checked first; otherwise, or on a violation, every triple is."""
    base = mon.base
    if mon.tensor.source != product(base, base) or mon.tensor.target != base:
        return ["tensor functor has wrong endpoints"]
    out = [f"tensor {v}" for v in functor_violations(mon.tensor)]
    if out:
        return out
    for a in base.objects:
        if mon.ob(mon.unit, a) != a or mon.ob(a, mon.unit) != a:
            out.append(f"strict unit fails at {a!r}")
        for b in base.objects:
            for c in base.objects:
                if mon.ob(mon.ob(a, b), c) != mon.ob(a, mon.ob(b, c)):
                    out.append(f"strict associativity fails at ({a!r},{b!r},{c!r})")
    unit_id = base.id_of(mon.unit)
    for m in base.morphisms():
        if mon.mor(unit_id, m) != m or mon.mor(m, unit_id) != m:
            out.append(f"strict unit fails on morphism {m!r}")

    def assoc(m, n, k) -> bool:
        return mon.mor(mon.mor(m, n), k) == mon.mor(m, mon.mor(n, k))

    def associativity(generators_only: bool) -> list[str]:
        # (m, n, the k to try): each pair reports its first failing k
        if generators_only:
            gens, ids = base.generators(), [base.id_of(a) for a in base.objects]
            rows = [(m, n, ids) for g in gens for i in ids for m, n in ((g, i), (i, g))]
            rows += [(i, j, gens) for i in ids for j in ids]
        else:
            mors = list(base.morphisms())
            rows = [(m, n, mors) for m in mors for n in mors]
        fails = ((m, n, next((k for k in ks if not assoc(m, n, k)), None)) for m, n, ks in rows)
        return [f"strict associativity fails on ({m!r},{n!r},{k!r})" for m, n, k in fails if k is not None]

    out += [] if not out and not associativity(True) else associativity(False)
    if out:
        return out
    if mon.symmetry:
        sym = mon.symmetry
        for a in base.objects:
            for b in base.objects:
                s = sym.get((a, b))
                if s is None:
                    return [f"missing symmetry at ({a!r},{b!r})"]
                if base.src(s) != mon.ob(a, b) or base.tgt(s) != mon.ob(b, a):
                    out.append(f"symmetry at ({a!r},{b!r}) has wrong endpoints")
        if out:
            return out
        for a in base.objects:
            for b in base.objects:
                if base.comp[(sym[(b, a)], sym[(a, b)])] != base.id_of(mon.ob(a, b)):
                    out.append(f"symmetry not self-inverse at ({a!r},{b!r})")
        for m in mon.base.morphisms():
            for n in mon.base.morphisms():
                a0, b0 = base.src(m), base.src(n)
                a1, b1 = base.tgt(m), base.tgt(n)
                lhs = base.comp[(sym[(a1, b1)], mon.mor(m, n))]
                rhs = base.comp[(mon.mor(n, m), sym[(a0, b0)])]
                if lhs != rhs:
                    out.append(f"symmetry not natural at ({m!r},{n!r})")
        for a in base.objects:
            for b in base.objects:
                for c in base.objects:
                    # strict hexagon: sigma_{a, b@c} = (1_b @ sigma_{a,c}) . (sigma_{a,b} @ 1_c)
                    lhs = sym[(a, mon.ob(b, c))]
                    step1 = mon.mor(sym[(a, b)], base.id_of(c))
                    step2 = mon.mor(base.id_of(b), sym[(a, c)])
                    if lhs != base.comp[(step2, step1)]:
                        out.append(f"hexagon fails at ({a!r},{b!r},{c!r})")
    return out


# -- seeds ------------------------------------------------------------------------


def monoidal_from_monoid(base: FinCat, mult, unit_obj: Label, commutative: bool = False) -> StrictMonoidalFinCat:
    """Discrete strict monoidal category on a monoid of objects."""
    prod = product(base, base)
    obj_map = {(a, b): mult(a, b) for (a, b) in prod.objects}
    mor_map = {}
    for (m, n) in prod.morphisms():
        a, b = base.src(m), base.src(n)
        mor_map[(m, n)] = base.id_of(mult(a, b))
    tensor = Functor(prod, base, obj_map, mor_map, check=False)
    symmetry = None
    if commutative:
        symmetry = {(a, b): base.id_of(mult(a, b)) for (a, b) in prod.objects}
    return StrictMonoidalFinCat(base, tensor, unit_obj, symmetry)


def terminal_monoidal() -> StrictMonoidalFinCat:
    return monoidal_from_monoid(terminal_category(), lambda a, b: "*", "*", commutative=True)


def one_object_group_monoidal(n: int = 2) -> StrictMonoidalFinCat:
    """The cyclic group as a one-object strict monoidal category (tensor = multiplication)."""
    base = cyclic_group_category(n)
    obj = next(iter(base.objects))
    prod = product(base, base)
    # in a one-object commutative group the tensor on morphisms is composition
    mor_map = {(m, k): base.comp[(m, k)] for (m, k) in prod.morphisms()}
    tensor = Functor(prod, base, {o: obj for o in prod.objects}, mor_map, check=False)
    # only the identity satisfies the strict hexagon, so the symmetry is trivial
    return StrictMonoidalFinCat(base, tensor, obj, {(obj, obj): base.id_of(obj)})


# -- convolution --------------------------------------------------------------------


@memoised
def day_convolve(mon: StrictMonoidalFinCat, f1: Presheaf, f2: Presheaf) -> Presheaf:
    """The coend over (b1, b2) of F1(b1) x F2(b2) x hom(a, b1 (x) b2) at each a,
    kept in `quotients[a]` with carrier elements ((b1, b2), (s, t, h)): one
    run per (b1, b2) with hom(a, b1 (x) b2) inhabited (`colim.layout`), whose
    relations (`_day_relations`) and restriction h -> h . m
    (`colim.precompose_image`) are index arithmetic.  A run with no hom
    would have no member, and no relation or restriction leads into one: its
    morphisms would compose with h.  `induced_actions` checks every member
    of every class.
    """
    base = mon.base
    if f1.base != base or f2.base != base:
        raise EndpointMismatch("presheaves must live on the monoidal base")
    quotients, ob = {}, mon.tensor.obj_map
    for a in base.objects:
        runs = {
            (bb,): ((f1.values[bb[0]], f2.values[bb[1]], homs),)
            for bb in mon.tensor.source.objects for homs in (base.hom[(a, ob[bb])],) if homs
        }
        carrier = layout(runs)
        quotients[a] = quotient(carrier, coend_relations(_day_relations(mon, f1, f2, runs, carrier.axes)))
    restriction = induced_actions(base, quotients.__getitem__, lambda m, q0, q1: precompose_image(
        base, m, q0.carrier, q1.carrier
    ), contravariant=True)
    return Presheaf(base, {a: q.quotient for a, q in quotients.items()}, restriction, check=False, quotients=quotients)


def _day_relations(mon: StrictMonoidalFinCat, f1: Presheaf, f2: Presheaf, runs: dict, axes: dict):
    """The relation blocks of the Day coend at a, laid out in `runs` on `axes`:
    along a generator (m1, m2): (b1, b2) -> (b1', b2'), W = F1(b1') x F2(b2') x
    hom(a, b1 (x) b2) relates (F1(m1)s, F2(m2)t, h) to (s, t, (m1 (x) m2) . h).
    A run left out has no hom, so its W is empty."""
    prod, base = mon.tensor.source, mon.base
    for m1, m2 in prod.generators():
        (b1, b2), (c1, c2) = prod.src((m1, m2)), prod.tgt((m1, m2))
        if ((b1, b2),) not in runs:
            continue
        (s, t, hs), (s1, t1, to) = axes[((b1, b2),)], axes[((c1, c2),)]
        pulled = gather(s, f1.restriction[m1], f1.values[c1], f1.values[b1])
        pulled2 = gather(t, f2.restriction[m2], f2.values[c2], f2.values[b2])
        homs, to_homs = runs[((b1, b2),)][0][2], runs[((c1, c2),)][0][2]
        yield [pulled, pulled2, hs], [s1, t1, postcompose(to, base, mon.mor(m1, m2), homs, to_homs)]


def day_unit(mon: StrictMonoidalFinCat) -> Presheaf:
    return yoneda(mon.base, mon.unit)


@memo_scope()
def day_convolve_map(mon: StrictMonoidalFinCat, phi: PshMap, psi: PshMap) -> PshMap:
    """Functoriality of convolution in both arguments: (s, t, h) goes to
    (phi(s), psi(t), h) in the run of the same (b1, b2)."""
    src = day_convolve(mon, phi.source, psi.source)
    tgt = day_convolve(mon, phi.target, psi.target)

    def run_image(a, run, factors):
        ((b1, b2),), ((s1, s2, _),) = run, factors
        to, ((t1, t2, _),) = tgt.quotients[a].carrier, tgt.quotients[a].carrier.runs[run]
        ts, tt, th = to.axes[run]
        return run_positions([gather(ts, phi.components[b1], s1, t1), gather(tt, psi.components[b2], s2, t2), th])

    return PshMap(src, tgt, run_components(src.quotients, tgt.quotients, run_image), check=False)


@memo_scope()
def day_unit_left_iso(mon: StrictMonoidalFinCat, f: Presheaf) -> PshMap:
    """Unit law: y(I) (x) F -> F by acting with (u (x) 1) . h."""
    src = day_convolve(mon, day_unit(mon), f)
    base = mon.base

    def run_image(a, run, factors):
        ((_, b2),), ((us, ts, homs),) = run, factors
        # u: b1 -> I, so (u (x) 1_{b2}) . h : a -> b2 by strict unitality
        acts = [[f.restriction[base.comp[(mon.mor(u, base.id_of(b2)), h)]].images for h in homs] for u in us]
        return [act[t] for row in acts for t in range(len(ts)) for act in row]

    comps = run_components(src.quotients, f.values, run_image, bijection="unit comparison")
    return PshMap(src, f, comps, check=True)


@memo_scope()
def day_unit_right_iso(mon: StrictMonoidalFinCat, f: Presheaf) -> PshMap:
    src = day_convolve(mon, f, day_unit(mon))
    base = mon.base

    def run_image(a, run, factors):
        ((b1, _),), ((ss, us, homs),) = run, factors
        acts = [f.restriction[base.comp[(mon.mor(base.id_of(b1), u), h)]].images for u in us for h in homs]
        return [act[s] for s in range(len(ss)) for act in acts]

    comps = run_components(src.quotients, f.values, run_image, bijection="unit comparison")
    return PshMap(src, f, comps, check=True)


def _yoneda_comparison(mon: StrictMonoidalFinCat, b1: Label, b2: Label) -> PshMap:
    """y(b1) (x) y(b2) -> y(b1 (x) b2): the class of (u, v, h) goes to (u (x) v) . h."""
    base = mon.base
    conv = day_convolve(mon, yoneda(base, b1), yoneda(base, b2))
    target = yoneda(base, mon.ob(b1, b2))

    def run_image(a, run, factors):
        ((us, vs, homs),), to = factors, target.values[a]
        return [p for u in us for v in vs for p in postcompose(range(len(to)), base, mon.mor(u, v), homs, to)]

    comps = run_components(conv.quotients, target.values, run_image)
    return PshMap(conv, target, comps, check=False)


@memo_scope()
def check_yoneda_strong_monoidal(mon: StrictMonoidalFinCat, a1: Label, a2: Label) -> CheckReport:
    """Exhibit and verify y(a1) (x) y(a2) = y(a1 (x) a2)."""
    report = CheckReport("yoneda-strong-monoidal")
    report.build(
        "comparison-bijective", lambda: _bijective(_yoneda_comparison(mon, a1, a2)),
        natural="comparison-natural",
    )
    return report


def _bijective(cmp_map: PshMap) -> PshMap:
    """cmp_map, unless some component is not a bijection: NonInvertible names the first."""
    for a, fn in cmp_map.components.items():
        if not fn.is_iso():
            raise NonInvertible(f"comparison at {a!r} not bijective")
    return cmp_map


@memo_scope()
def day_assoc_iso(
    mon: StrictMonoidalFinCat, f1: Presheaf, f2: Presheaf, f3: Presheaf
) -> PshMap:
    """(F1 (x) F2) (x) F3 -> F1 (x) (F2 (x) F3), re-tagging on representatives:
    with xi the class of ((b1, b2), (s, t, k)), (xi, r, h) goes to (s, eta,
    (k (x) 1) . h), eta the class of ((b2, b3), (t, r, 1)).  Each class xi is
    decoded once per run; r and h move along digit maps."""
    base = mon.base
    src = day_convolve(mon, day_convolve(mon, f1, f2), f3)
    c23 = day_convolve(mon, f2, f3)
    tgt = day_convolve(mon, f1, c23)

    def run_image(a, run, factors):
        ((_, b3),), ((xis, _, homs),), to = run, factors, tgt.quotients[a].carrier
        out = []
        for (b1, b2), (s, t, k) in xis:  # k: c -> b1 (x) b2
            d = mon.ob(b2, b3)
            to_run, inner = ((b1, d),), c23.quotients[d]
            (ss, _, to_homs), = to.runs[to_run]
            at, ar, ah = inner.carrier.axes[((b2, b3),)]
            (ts, _, ids), = inner.carrier.runs[((b2, b3),)]
            fixed = at[ts._index[t]] + ah[ids._index[base.id_of(d)]]
            to_s, to_eta, to_h = to.axes[to_run]
            etas = [to_eta[inner._classes[fixed + share]] for share in ar]
            moved = postcompose(to_h, base, mon.mor(k, base.id_of(b3)), homs, to_homs)
            out += run_positions([[to_s[ss._index[s]]], etas, moved])
        return out

    comps = run_components(src.quotients, tgt.quotients, run_image, bijection="associator")
    return PshMap(src, tgt, comps, check=False)


@memo_scope()
def check_convolution_assoc(
    mon: StrictMonoidalFinCat, f1: Presheaf, f2: Presheaf, f3: Presheaf
) -> CheckReport:
    report = CheckReport("convolution-assoc")
    report.build("associator-iso", day_assoc_iso, mon, f1, f2, f3, natural="associator-natural")
    return report


def day_bicategory(mon: StrictMonoidalFinCat) -> Bicategory:
    """Convolution on presheaves over mon as a one-object bicategory:
    compose(g, f) is g (x) f, the identity is y(I), and a whiskering convolves
    a map with an identity.  No component is corruptible; tags are ignored."""
    return Bicategory(
        compose=lambda g, f: day_convolve(mon, g, f),
        identity=lambda _: day_unit(mon),
        src=lambda _: mon,
        tgt=lambda _: mon,
        assoc=lambda h, g, f, tag: day_assoc_iso(mon, h, g, f),
        lunit=lambda f, tag: day_unit_left_iso(mon, f),
        runit=lambda f, tag: day_unit_right_iso(mon, f),
        whisker_left=lambda g, cell: day_convolve_map(mon, PshMap.identity(g), cell),
        whisker_right=lambda cell, f: day_convolve_map(mon, cell, PshMap.identity(f)),
    )


@memo_scope()
def day_symmetry_iso(mon: StrictMonoidalFinCat, f1: Presheaf, f2: Presheaf) -> PshMap:
    """F1 (x) F2 -> F2 (x) F1: (s, t, h) goes to (t, s, sigma . h) in the run
    of (b2, b1), sigma the symmetry at (b1, b2)."""
    if not mon.symmetry:
        raise ValueError("base category carries no symmetry")
    base = mon.base
    src = day_convolve(mon, f1, f2)
    tgt = day_convolve(mon, f2, f1)

    def run_image(a, run, factors):
        ((b1, b2),), ((_, _, homs),), to = run, factors, tgt.quotients[a].carrier
        to_run = ((b2, b1),)
        (tt, ts, th), ((_, _, to_homs),) = to.axes[to_run], to.runs[to_run]
        return run_positions([ts, tt, postcompose(th, base, mon.symmetry[(b1, b2)], homs, to_homs)])

    comps = run_components(src.quotients, tgt.quotients, run_image, bijection="symmetry comparison")
    return PshMap(src, tgt, comps, check=False)


@memo_scope()
def check_convolution_symmetry(mon: StrictMonoidalFinCat, f1: Presheaf, f2: Presheaf) -> CheckReport:
    report = CheckReport("convolution-symmetry")
    if not mon.symmetry:
        report.add("skipped-no-symmetry", True)
        report.meta["skipped"] = "base category carries no symmetry"
        return report
    c12 = day_convolve(mon, f1, f2)
    braids = report.build(
        "braiding-iso", lambda: (day_symmetry_iso(mon, f1, f2), day_symmetry_iso(mon, f2, f1))
    )
    if braids is not None:
        braid, braid_back = braids
        involution = braid.then(braid_back)
        report.record("braiding-involutive", cell_difference(involution, PshMap.identity(c12)))
        report.record("braiding-natural", braid.violations())
    return report


# -- monoidal structure on Kleisli morphisms --------------------------------------------


@dataclass(frozen=True)
class MonoidalPshFunctor:
    """A functor into presheaves with verified strong-monoidal constraint cells."""

    source_mon: StrictMonoidalFinCat
    target_mon: StrictMonoidalFinCat
    functor: PshValuedFunctor
    constraint: dict[tuple[Label, Label], PshMap]  # F(a1) (x) F(a2) -> F(a1 (x) a2)
    unit_cell: PshMap  # y(I_B) -> F(I_A)
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if check:
            require_lawful(monoidal_functor_violations(self), "not strong monoidal")


def monoidal_functor_violations(mf: MonoidalPshFunctor) -> list[str]:
    out = []
    a_base = mf.source_mon.base
    f = mf.functor
    if not mf.unit_cell.is_iso():
        out.append("unit cell not invertible")
    for (a1, a2), cell in mf.constraint.items():
        if not cell.is_iso():
            out.append(f"constraint at ({a1!r},{a2!r}) not invertible")
    if out:
        return out
    for m1 in a_base.morphisms():
        for m2 in a_base.morphisms():
            a1, a2 = a_base.src(m1), a_base.src(m2)
            b1, b2 = a_base.tgt(m1), a_base.tgt(m2)
            lhs = day_convolve_map(mf.target_mon, f.on_mor[m1], f.on_mor[m2]).then(
                mf.constraint[(b1, b2)]
            )
            rhs = mf.constraint[(a1, a2)].then(f.on_mor[mf.source_mon.mor(m1, m2)])
            if lhs != rhs:
                out.append(f"constraint not natural at ({m1!r},{m2!r})")
                return out
    return out


@memo_scope()
def monoidal_from_strict_functor(
    source_mon: StrictMonoidalFinCat, target_mon: StrictMonoidalFinCat, g: Functor
) -> MonoidalPshFunctor:
    """Yoneda after a strict monoidal functor, with the canonical constraints."""
    f = functor_into_presheaves(g)
    constraint = {
        (a1, a2): _yoneda_comparison(target_mon, g.obj_map[a1], g.obj_map[a2])
        for a1 in source_mon.base.objects
        for a2 in source_mon.base.objects
    }
    unit_cell = PshMap.identity(yoneda(target_mon.base, g.obj_map[source_mon.unit]))
    return MonoidalPshFunctor(source_mon, target_mon, f, constraint, unit_cell, check=True)


def _kan_monoidal_comparison(mf: MonoidalPshFunctor, p: Presheaf, q: Presheaf) -> PshMap:
    """F*(p (x) q) -> F*(p) (x) F*(q): the class of (a, (u, xi)), with xi the
    class of ((a1, a2), (s, t, h)), goes to the class of ((b1, b2), (alpha,
    beta, k)), where ((b1, b2), (u1, u2, k)) is the inverted constraint at
    (a1, a2) applied to F(h)u, and alpha and beta are the classes of
    (a1, (u1, s)) in F*(p) and (a2, (u2, t)) in F*(q).  The Day target is
    laid out in runs, so each image is a position read off its run layout;
    `induced_map` checks every member."""
    f = mf.functor
    lhs = kan_extend(f, day_convolve(mf.source_mon, p, q))
    kp, kq = kan_extend(f, p), kan_extend(f, q)
    rhs = day_convolve(mf.target_mon, kp, kq)
    inverted = {key: cell.inverse() for key, cell in mf.constraint.items()}

    def component(b):
        source, target = lhs.quotients[b], rhs.quotients[b]
        axes, runs = target.carrier.axes, target.carrier.runs

        def position(pair):
            a, (u, xi) = pair
            (a1, a2), (s, t, h) = xi  # h: a -> a1 (x) a2 in the source base
            moved = f.on_mor[h].components[b](u)  # now in F(a1 (x) a2)(b)
            (b1, b2), (u1, u2, k) = inverted[(a1, a2)].components[b](moved)
            (to_s, to_t, to_h), ((alphas, betas, homs),) = axes[((b1, b2),)], runs[((b1, b2),)]
            alpha = kp.quotients[b1].representative((a1, (u1, s)))
            beta = kq.quotients[b2].representative((a2, (u2, t)))
            return to_s[alphas._index[alpha]] + to_t[betas._index[beta]] + to_h[homs._index[k]]

        return induced_map(source, target.quotient, [target._classes[position(x)] for x in source.carrier.elements])

    return PshMap(lhs, rhs, {b: component(b) for b in lhs.quotients}, check=False)


@memo_scope()
def check_kan_monoidal(
    mf: MonoidalPshFunctor, p: Presheaf, q: Presheaf
) -> CheckReport:
    """Exhibit and verify F*(p (x) q) = F*(p) (x) F*(q) at the given arguments."""
    report = CheckReport("kan-monoidal")
    report.build(
        "comparison-bijective",
        lambda: _bijective(_kan_monoidal_comparison(mf, p, q)),
        natural="comparison-natural",
    )
    return report
