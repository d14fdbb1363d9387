"""The coend integrands of Kan extension, profunctor composition and Day
convolution, built as whole endo-profunctors.

The engine computes these coends from relations read off its input tables
(`colim.coend_from`).  These builders state each integrand in full instead
-- every value set and every action map, as the tables of a `Profunctor` --
so that `coend(check=True)` can verify the bifunctor laws and its result
serves as an oracle for the table-read coends.
"""

import functools

from profcalc.fincat import FinFn, FinSet, product
from profcalc.prof import Profunctor


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
