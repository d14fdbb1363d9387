"""Test-side oracles for the engine's coends and pointwise (co)limits.

The engine computes every coend's relations by carrier position, from digit
maps gathered off its input tables (`colim.coend_relations`).  The builders here
state the integrands of Kan extension, profunctor composition and Day
convolution in full instead -- every value set and every action map, as the
tables of a `Profunctor` -- so that `colim.bifunctor_violations` can verify
their laws and `colim.coend` of each serves as an oracle for the table-read
coends.  `label_coend` computes a coend from label relations, through
`colim.quotient` and `colim.label_pairs` alone, and shares no relation code
with the engine; `label_induced_map` induces a map of classes from an
elementwise label rule, and shares no position code with the engine's
`colim.induced_map`; `product_label_relations` states the label relations of a
coend of a product of two functors, as `kan_extend` and `prof_compose` take
it.

Two theorems that every coend must satisfy are checked as bijections:
`coyoneda_iso`, the density (co-Yoneda) isomorphism, and `fubini_iso`, the
interchange of a coend over a product with the iterated coend (Mac Lane,
*CWM* IX; Loregian, *(Co)end Calculus*, LMS LN 468, 2021).
`psh_copair` and `psh_equalizer_factor` witness the universal properties of
the engine's pointwise coproduct and equalizer of presheaves.  `opposite`
reverses a category's arrows, for covariant integrands; the engine never
needs it.
"""

import functools
import itertools

from profcalc.colim import bifunctor_violations, coend, label_pairs, quotient
from profcalc.fincat import EndpointMismatch, FinCat, FinFn, FinSet, NonInvertible, product, require_lawful
from profcalc.presheaf import psh_coproduct, pshmap_from_rule
from profcalc.prof import Profunctor


def opposite(cat: FinCat) -> FinCat:
    """Reverse all arrows; labels are kept, so opposite(opposite(C)) == C."""
    hom = {(a, b): cat.hom[(b, a)] for a in cat.objects for b in cat.objects}
    comp = {(f, g): h for (g, f), h in cat.comp.items()}
    return FinCat(cat.objects, hom, cat.ids, comp)


def label_relations(base, related, morphisms=None):
    """The label pairs ((y, a), (y', b)) for each (a, b) in related(f), along
    each f: y -> y' of `morphisms` (by default the generators of base)."""
    for f in base.generators() if morphisms is None else morphisms:
        y, y1 = base.src(f), base.tgt(f)
        for a, b in related(f):
            yield (y, a), (y1, b)


def label_coend(base, diagonal, related, morphisms=None):
    """The coend of a bifunctor H over base from its label relations:
    diagonal(y) lists H(y, y) in canonical order, and related(f) yields the
    pairs (H(f, 1)w, H(1, f)w) for w in H(y', y) along f: y -> y'.  The
    carrier {(y, w)} modulo those pairs along `morphisms` (the generators,
    unless given), closed by `quotient`."""
    carrier = FinSet.sigma(base.objects, diagonal)
    return quotient(carrier, label_pairs(carrier, label_relations(base, related, morphisms)))


def label_induced_map(source, target_codomain, elementwise):
    """The map on the classes of `source` into `target_codomain` by an
    elementwise rule on its carrier, from labels: the set of images of every
    class, checked to be one label, and a label table of class names.  The
    engine's `colim.induced_map` takes positions instead; this states the
    same map and the same message with no position code."""
    table = {}
    for cls in source.classes:
        images = {elementwise(x) for x in cls}
        if len(images) > 1:
            raise ValueError(
                f"elementwise rule is not constant on class {cls!r}: {sorted(map(repr, images))}"
            )
        table[cls[0]] = next(iter(images))
    return FinFn(source.quotient, target_codomain, table)


def product_label_relations(first, second):
    """The related pairs ((u, second(v)), (first(u), v)) for u in first.domain
    and v in second.domain, in that order: the relations along one generator
    of a coend of a product of a covariant and a contravariant factor, whose
    actions along it are first and second."""
    return (((u, second(v)), (first(u), v)) for u in first.domain for v in second.domain)


def _tabulate(base, value, contra, co):
    """The endo-profunctor on base with value((a, b)), contra((m, b)) and
    co((a, m)) at every key; a Profunctor takes its covariant side first."""
    values = {(a, b): value((a, b)) for a in base.objects for b in base.objects}
    contra_act = {(m, b): contra((m, b)) for m in base.morphisms() for b in base.objects}
    co_act = {(a, m): co((a, m)) for a in base.objects for m in base.morphisms()}
    return Profunctor(base, base, values, contra_act, co_act, check=False)


def kan_bifunctor(f, p, y):
    """H(x-, x+) = f(x+)(y) x p(x-), the integrand of kan_extend(f, p) at y."""
    src = f.source

    @functools.cache
    def value(key):
        xm, xp = key
        return FinSet.product(f.on_obj[xp].values[y], p.values[xm])

    def contra(key):
        m, xp = key
        pm = p.restriction[m]
        dom = value((src.tgt(m), xp))
        return FinFn(dom, value((src.src(m), xp)), {(u, v): (u, pm(v)) for (u, v) in dom})

    def co(key):
        xm, m = key
        fn = f.on_mor[m].components[y]
        dom = value((xm, src.src(m)))
        return FinFn(dom, value((xm, src.tgt(m))), {(u, v): (fn(u), v) for (u, v) in dom})

    return _tabulate(src, value, contra, co)


def compose_bifunctor(g, f, z, x):
    """H(y-, y+) = g(z, y+) x f(y-, x), the integrand of prof_compose(g, f) at (z, x)."""
    mid = f.target

    @functools.cache
    def value(key):
        ym, yp = key
        return FinSet.product(g.values[(z, yp)], f.values[(ym, x)])

    def contra(key):
        m, yp = key
        fv = f.left_act[(m, x)]
        dom = value((mid.tgt(m), yp))
        return FinFn(dom, value((mid.src(m), yp)), {(u, v): (u, fv(v)) for (u, v) in dom})

    def co(key):
        ym, m = key
        gv = g.right_act[(z, m)]
        dom = value((ym, mid.src(m)))
        return FinFn(dom, value((ym, mid.tgt(m))), {(u, v): (gv(u), v) for (u, v) in dom})

    return _tabulate(mid, value, contra, co)


def day_bifunctor(mon, f1, f2, a):
    """H((a1-, a2-), (b1, b2)) = F1(a1-) x F2(a2-) x hom(a, b1 (x) b2), the
    integrand of day_convolve(mon, f1, f2) at a, over the base squared."""
    base = mon.base
    prod = product(base, base)

    @functools.cache
    def value(key):
        (a1m, a2m), (b1, b2) = key
        return FinSet.product(f1.values[a1m], f2.values[a2m], base.hom[(a, mon.ob(b1, b2))])

    def contra(key):
        (m1, m2), pp = key
        r1, r2 = f1.restriction[m1], f2.restriction[m2]
        dom = value(((base.tgt(m1), base.tgt(m2)), pp))
        cod = value(((base.src(m1), base.src(m2)), pp))
        return FinFn(dom, cod, {(s, t, h): (r1(s), r2(t), h) for (s, t, h) in dom})

    def co(key):
        pm, (m1, m2) = key
        tm = mon.mor(m1, m2)
        dom = value((pm, (base.src(m1), base.src(m2))))
        cod = value((pm, (base.tgt(m1), base.tgt(m2))))
        return FinFn(dom, cod, {(s, t, h): (s, t, base.comp[(tm, h)]) for (s, t, h) in dom})

    return _tabulate(prod, value, contra, co)


# -- the co-Yoneda and Fubini bijections ----------------------------------------


def coyoneda_iso(base, value_at, act, x, covariant=True):
    """The density bijection at x, as (coend, comparison).

    Covariant F:  int^y base[y, x] x F(y)  -> F(x),   class(y,(g,v)) -> F(g)(v).
    Presheaf  F:  int^y base[x, y] x F(y)  -> F(x),   class(y,(g,v)) -> F(g)(v).

    `act(f)` must be F's action: F(src f) -> F(tgt f) in the covariant case
    and F(tgt f) -> F(src f) in the presheaf case.  Bijectivity is verified.
    """

    def diagonal(y):
        return itertools.product(base.hom[(y, x) if covariant else (x, y)].elements, value_at(y).elements)

    def related(f):
        y, y1 = base.src(f), base.tgt(f)
        fv = act(f)
        if covariant:  # w = (m, v) in base[y', x] x F(y)
            return (((base.comp[(m, f)], v), (m, fv(v))) for m in base.hom[(y1, x)] for v in value_at(y))
        # w = (m, v) in base[x, y] x F(y')
        return (((m, fv(v)), (base.comp[(f, m)], v)) for m in base.hom[(x, y)] for v in value_at(y1))

    result = label_coend(base, diagonal, related)

    def rule(pair):
        y, (g, v) = pair
        return act(g)(v)

    fn = label_induced_map(result, value_at(x), rule)
    if not fn.is_iso():
        raise NonInvertible(f"co-Yoneda comparison at {x!r} is not a bijection")
    return result, fn


def fubini_iso(base_left, base_right, joint):
    """Single coend over base_left x base_right versus iterated (inner right, outer left).

    joint is an endo-profunctor on the product category (`prof.Profunctor`);
    `bifunctor_violations` runs on it first.  Returns (joint coend,
    outer coend, bijection joint -> iterated) where the iterated result's
    elements are classes of (a, class of (b, w)).
    """
    prod = product(base_left, base_right)
    if joint.target != prod or joint.source != prod:
        raise EndpointMismatch("joint bifunctor must live over the product category")
    require_lawful(bifunctor_violations(joint), joint.invalid)
    joint_result = coend(joint)
    left, right = joint.left_act, joint.right_act

    @functools.cache
    def inner(key):
        # the coend over base_right of joint((a-, -), (a+, -)), at key (a-, a+)
        a_minus, a_plus = key
        id_minus, id_plus = base_left.id_of(a_minus), base_left.id_of(a_plus)

        def related(f):
            y, y1 = base_right.src(f), base_right.tgt(f)
            lf = left[((id_minus, f), (a_plus, y))]
            rf = right[((a_minus, y1), (id_plus, f))]
            return ((lf(w), rf(w)) for w in joint.values[((a_minus, y1), (a_plus, y))])

        return label_coend(base_right, lambda y: joint.values[((a_minus, y), (a_plus, y))], related)

    # the outer coend over base_left of K(a-, a+) = inner((a-, a+)), with the
    # actions along each generator induced from the joint ones
    def outer_related(m):
        a, a1 = base_left.src(m), base_left.tgt(m)
        dom, left_cod, right_cod = inner((a1, a)), inner((a, a)), inner((a1, a1))

        def left_rule(pair):
            y, w = pair
            return left_cod.representative((y, left[((m, base_right.id_of(y)), (a, y))](w)))

        def right_rule(pair):
            y, w = pair
            return right_cod.representative((y, right[((a1, y), (m, base_right.id_of(y)))](w)))

        lf = label_induced_map(dom, left_cod.quotient, left_rule)
        rf = label_induced_map(dom, right_cod.quotient, right_rule)
        return ((lf(k), rf(k)) for k in dom.quotient)

    outer_result = label_coend(base_left, lambda a: inner((a, a)).quotient, outer_related)

    def comparison(pair):
        (a, b), w = pair
        return outer_result.representative((a, inner((a, a)).representative((b, w))))

    fn = label_induced_map(joint_result, outer_result.quotient, comparison)
    if not fn.is_iso():
        raise NonInvertible("Fubini comparison is not a bijection")
    return joint_result, outer_result, fn


# -- universal properties of the pointwise (co)limits ------------------------------


def psh_equalizer_factor(eq_data, cone):
    """Unique factoring of an equalizing cone through the equalizer (witnessed)."""
    eq, incl = eq_data
    factor = pshmap_from_rule(cone.source, eq, lambda a, w: cone.components[a](w))
    if factor.then(incl) != cone:
        raise ValueError("factor does not recover the cone through the equalizer")
    return factor


def psh_copair(leg1, leg2, cop_data=None):
    """Unique factoring out of the pointwise coproduct (witnessed)."""
    if leg1.target != leg2.target:
        raise EndpointMismatch("cocone legs have different nadir")
    cop, in1, in2 = cop_data if cop_data else psh_coproduct(leg1.source, leg2.source)
    out = pshmap_from_rule(
        cop, leg1.target, lambda a, tu: (leg1, leg2)[tu[0]].components[a](tu[1])
    )
    if in1.then(out) != leg1 or in2.then(out) != leg2:
        raise ValueError("copairing does not factor the cocone through the coproduct")
    return out
