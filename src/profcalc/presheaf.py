"""Presheaves on finite categories and the left Kan extension along Yoneda.

The extension operation sends a functor-into-presheaves F and a presheaf p
to the presheaf whose value at y is the coend over x of F(x)(y) x p(x).
Elements of these values are canonical quotient-class names, so maps between
Kan-extended presheaves are always defined elementwise on carriers and
verified well-defined on classes.

Pointwise limits (terminal, binary product, pullback, equalizer) use the
lexicographic pair set as the chosen product; this makes the chosen-limit
structure strict on the nose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .colim import Bifunctor, CoendResult, coend, induced_map
from .fincat import (
    EndpointMismatch,
    FinCat,
    FinFn,
    FinSet,
    Functor,
    Label,
    NonInvertible,
    label_key,
)
from .report import CheckReport


@dataclass(frozen=True)
class Presheaf:
    """Contravariant finite-set-valued functor given by explicit tables."""

    base: FinCat
    values: dict[Label, FinSet]
    restriction: dict[Label, FinFn]  # morphism m -> values[tgt m] -> values[src m]

    def __init__(self, base, values, restriction, check: bool = True):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "values", dict(values))
        object.__setattr__(self, "restriction", dict(restriction))
        if check:
            bad = presheaf_violations(self)
            if bad:
                raise ValueError("not a presheaf: " + bad[0])

    def value(self, a: Label) -> FinSet:
        return self.values[a]

    def restrict(self, m: Label) -> FinFn:
        return self.restriction[m]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presheaf)
            and self.base == other.base
            and self.values == other.values
            and self.restriction == other.restriction
        )


def presheaf_violations(p: Presheaf) -> list[str]:
    out = []
    base = p.base
    for a in base.objects:
        if a not in p.values:
            return [f"missing value set at {a!r}"]
    for m in base.morphisms():
        fn = p.restriction.get(m)
        if fn is None:
            return [f"missing restriction along {m!r}"]
        if fn.domain != p.values[base.tgt(m)] or fn.codomain != p.values[base.src(m)]:
            out.append(f"restriction along {m!r} has wrong endpoints")
    if out:
        return out
    for a in base.objects:
        if p.restriction[base.id_of(a)] != FinFn.identity(p.values[a]):
            out.append(f"identity restriction fails at {a!r}")
    for g, f in base.composable_pairs():
        # contravariance: restrict(g . f) = restrict(f) after restrict(g)
        if p.restriction[base.comp[(g, f)]] != p.restriction[g].then(p.restriction[f]):
            out.append(f"composition restriction fails at ({g!r}, {f!r})")
    return out


@dataclass(frozen=True)
class PshMap:
    """Natural transformation between presheaves on the same base."""

    source: Presheaf
    target: Presheaf
    components: dict[Label, FinFn]

    def __init__(self, source, target, components, check: bool = True):
        if source.base != target.base:
            raise EndpointMismatch("presheaves live on different bases")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", dict(components))
        if check:
            bad = pshmap_violations(self)
            if bad:
                raise ValueError("not natural: " + bad[0])

    def at(self, a: Label) -> FinFn:
        return self.components[a]

    def then(self, other: PshMap) -> PshMap:
        if self.target != other.source:
            raise EndpointMismatch("PshMap endpoints do not match")
        return PshMap(
            self.source,
            other.target,
            {a: fn.then(other.components[a]) for a, fn in self.components.items()},
            check=False,
        )

    def is_iso(self) -> bool:
        return all(fn.is_bijective() for fn in self.components.values())

    def inverse(self) -> PshMap:
        if not self.is_iso():
            bad = next(
                a for a in sorted(self.components, key=label_key)
                if not self.components[a].is_bijective()
            )
            raise NonInvertible(f"component at {bad!r} is not a bijection")
        return PshMap(
            self.target,
            self.source,
            {a: fn.inverse() for a, fn in self.components.items()},
            check=False,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PshMap)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    @staticmethod
    def identity(p: Presheaf) -> PshMap:
        return PshMap(
            p, p, {a: FinFn.identity(s) for a, s in p.values.items()}, check=False
        )


def pshmap_violations(phi: PshMap) -> list[str]:
    out = []
    base = phi.source.base
    for a in base.objects:
        fn = phi.components.get(a)
        if fn is None:
            return [f"missing component at {a!r}"]
        if fn.domain != phi.source.values[a] or fn.codomain != phi.target.values[a]:
            out.append(f"component at {a!r} has wrong endpoints")
    if out:
        return out
    for m in base.morphisms():
        a, b = base.src(m), base.tgt(m)
        lhs = phi.source.restriction[m].then(phi.components[a])
        rhs = phi.components[b].then(phi.target.restriction[m])
        if lhs != rhs:
            out.append(f"naturality fails along {m!r}")
    return out


@dataclass(frozen=True)
class PshValuedFunctor:
    """Functor from a finite category into presheaves on another finite category.

    These are the morphisms JX -> TY of the artifact: the objects of the
    Kleisli hom-categories.
    """

    source: FinCat
    target_base: FinCat
    on_obj: dict[Label, Presheaf]
    on_mor: dict[Label, PshMap]

    def __init__(self, source, target_base, on_obj, on_mor, check: bool = True):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target_base", target_base)
        object.__setattr__(self, "on_obj", dict(on_obj))
        object.__setattr__(self, "on_mor", dict(on_mor))
        if check:
            bad = pvf_violations(self)
            if bad:
                raise ValueError("not functorial: " + bad[0])

    def ob(self, x: Label) -> Presheaf:
        return self.on_obj[x]

    def mor(self, m: Label) -> PshMap:
        return self.on_mor[m]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PshValuedFunctor)
            and self.source == other.source
            and self.target_base == other.target_base
            and self.on_obj == other.on_obj
            and self.on_mor == other.on_mor
        )


def pvf_violations(f: PshValuedFunctor) -> list[str]:
    out = []
    src = f.source
    for x in src.objects:
        p = f.on_obj.get(x)
        if p is None or p.base != f.target_base:
            return [f"object {x!r} not sent to a presheaf on the target base"]
    for m in src.morphisms():
        phi = f.on_mor.get(m)
        if phi is None:
            return [f"missing action on morphism {m!r}"]
        if phi.source != f.on_obj[src.src(m)] or phi.target != f.on_obj[src.tgt(m)]:
            out.append(f"action on {m!r} has wrong endpoints")
    if out:
        return out
    for x in src.objects:
        if f.on_mor[src.id_of(x)] != PshMap.identity(f.on_obj[x]):
            out.append(f"identity not preserved at {x!r}")
    for g, m in src.composable_pairs():
        if f.on_mor[src.comp[(g, m)]] != f.on_mor[m].then(f.on_mor[g]):
            out.append(f"composition not preserved at ({g!r}, {m!r})")
    return out


# -- Yoneda -------------------------------------------------------------------


def yoneda(base: FinCat, x: Label) -> Presheaf:
    """Representable presheaf: value at a is base[a, x], restriction by precomposition."""
    values = {a: base.hom[(a, x)] for a in base.objects}
    restriction = {}
    for m in base.morphisms():
        a, b = base.src(m), base.tgt(m)
        restriction[m] = FinFn(
            values[b], values[a], {h: base.comp[(h, m)] for h in values[b]}
        )
    return Presheaf(base, values, restriction, check=False)


def yoneda_embedding(base: FinCat) -> PshValuedFunctor:
    on_obj = {x: yoneda(base, x) for x in base.objects}
    on_mor = {}
    for f in base.morphisms():
        x, x1 = base.src(f), base.tgt(f)
        comps = {
            a: FinFn(
                on_obj[x].values[a],
                on_obj[x1].values[a],
                {h: base.comp[(f, h)] for h in on_obj[x].values[a]},
            )
            for a in base.objects
        }
        on_mor[f] = PshMap(on_obj[x], on_obj[x1], comps, check=False)
    return PshValuedFunctor(base, base, on_obj, on_mor, check=False)


def functor_into_presheaves(f: Functor) -> PshValuedFunctor:
    """Compose a plain functor with the Yoneda embedding of its target."""
    emb = yoneda_embedding(f.target)
    return PshValuedFunctor(
        f.source,
        f.target,
        {x: emb.on_obj[f.obj_map[x]] for x in f.source.objects},
        {m: emb.on_mor[f.mor_map[m]] for m in f.source.morphisms()},
        check=False,
    )


# -- Kan extension -------------------------------------------------------------


@dataclass(frozen=True)
class KanPresheaf(Presheaf):
    """A presheaf produced by kan_extend, remembering its per-object coends.

    Structurally equal to the plain Presheaf with the same tables; the extra
    fields only provide class lookups for elements (x, (u, v)).
    """

    coends: dict[Label, CoendResult] = field(compare=False, default_factory=dict)

    def __init__(self, base, values, restriction, coends):
        Presheaf.__init__(self, base, values, restriction, check=False)
        object.__setattr__(self, "coends", dict(coends))

    def cls(self, y: Label, x: Label, u: Label, v: Label) -> Label:
        """Class name of the carrier element (x, (u, v)) at target object y."""
        return self.coends[y].quotient.representative((x, (u, v)))


def _kan_bifunctor(f: PshValuedFunctor, p: Presheaf, y: Label) -> Bifunctor:
    src = f.source
    values = {}
    for xm in src.objects:
        for xp in src.objects:
            values[(xm, xp)] = FinSet(
                (u, v) for u in f.on_obj[xp].values[y] for v in p.values[xm]
            )
    contra_act = {}
    co_act = {}
    for m in src.morphisms():
        x0, x1 = src.src(m), src.tgt(m)
        pm = p.restriction[m]
        for xp in src.objects:
            dom = values[(x1, xp)]
            cod = values[(x0, xp)]
            contra_act[(m, xp)] = FinFn(dom, cod, {(u, v): (u, pm(v)) for (u, v) in dom})
        for xm in src.objects:
            fn = f.on_mor[m].components[y]
            dom = values[(xm, x0)]
            cod = values[(xm, x1)]
            co_act[(xm, m)] = FinFn(dom, cod, {(u, v): (fn(u), v) for (u, v) in dom})
    return Bifunctor(src, src, values, contra_act, co_act)


def kan_extend(f: PshValuedFunctor, p: Presheaf) -> KanPresheaf:
    """Left Kan extension along Yoneda, applied to p: value at y is the coend
    over x of f(x)(y) x p(x)."""
    if p.base != f.source:
        raise EndpointMismatch("argument presheaf must live on the functor's source")
    target = f.target_base
    coends = {y: coend(f.source, _kan_bifunctor(f, p, y), check=False) for y in target.objects}
    values = {y: coends[y].value for y in target.objects}
    restriction = {}
    for g in target.morphisms():
        y0, y1 = target.src(g), target.tgt(g)

        def rule(pair, g=g, y0=y0):
            x, (u, v) = pair
            return coends[y0].quotient.representative((x, (f.on_obj[x].restriction[g](u), v)))

        restriction[g] = induced_map(coends[y1].quotient, values[y0], rule)
    return KanPresheaf(target, values, restriction, coends)


def kan_extend_map(
    f: PshValuedFunctor,
    phi: PshMap,
    source_kan: KanPresheaf | None = None,
    target_kan: KanPresheaf | None = None,
) -> PshMap:
    """Functoriality of the extension in its presheaf argument."""
    kp = source_kan if source_kan is not None else kan_extend(f, phi.source)
    kq = target_kan if target_kan is not None else kan_extend(f, phi.target)
    comps = {}
    for y in f.target_base.objects:

        def rule(pair, y=y):
            x, (u, v) = pair
            return kq.cls(y, x, u, phi.components[x](v))

        comps[y] = induced_map(kp.coends[y].quotient, kq.values[y], rule)
    return PshMap(kp, kq, comps, check=False)


def eta_iso(f: PshValuedFunctor, x: Label, target_kan: KanPresheaf | None = None) -> PshMap:
    """The invertible comparison f(x) -> kan_extend(f, yoneda(x)): u -> [x, (u, id)]."""
    src = f.source
    kp = target_kan if target_kan is not None else kan_extend(f, yoneda(src, x))
    idx = src.id_of(x)
    comps = {}
    for y in f.target_base.objects:
        dom = f.on_obj[x].values[y]
        comps[y] = FinFn(dom, kp.values[y], {u: kp.cls(y, x, u, idx) for u in dom})
    phi = PshMap(f.on_obj[x], kp, comps, check=True)
    if not phi.is_iso():
        raise NonInvertible(f"unit comparison at {x!r} is not invertible")
    return phi


def apply_P_functor(f: Functor, p: Presheaf) -> KanPresheaf:
    """Action of the presheaf construction on a functor: extend Yoneda-after-f."""
    return kan_extend(functor_into_presheaves(f), p)


# -- pointwise limits and colimits ---------------------------------------------


def psh_terminal(base: FinCat) -> Presheaf:
    one = FinSet([()])
    return Presheaf(
        base,
        {a: one for a in base.objects},
        {m: FinFn.identity(one) for m in base.morphisms()},
        check=False,
    )


def psh_initial(base: FinCat) -> Presheaf:
    empty = FinSet()
    return Presheaf(
        base,
        {a: empty for a in base.objects},
        {m: FinFn.identity(empty) for m in base.morphisms()},
        check=False,
    )


def psh_terminal_map(p: Presheaf) -> PshMap:
    t = psh_terminal(p.base)
    return PshMap(
        p,
        t,
        {a: FinFn.constant(p.values[a], t.values[a], ()) for a in p.base.objects},
        check=False,
    )


def psh_initial_map(p: Presheaf) -> PshMap:
    i = psh_initial(p.base)
    return PshMap(i, p, {a: FinFn(FinSet(), p.values[a], {}) for a in p.base.objects}, check=False)


def psh_product(p: Presheaf, q: Presheaf) -> tuple[Presheaf, PshMap, PshMap]:
    """Pointwise product on lexicographic pair sets, with projections."""
    if p.base != q.base:
        raise EndpointMismatch("presheaves live on different bases")
    values = {
        a: FinSet((u, v) for u in p.values[a] for v in q.values[a])
        for a in p.base.objects
    }
    restriction = {}
    for m in p.base.morphisms():
        a, b = p.base.src(m), p.base.tgt(m)
        pm, qm = p.restriction[m], q.restriction[m]
        restriction[m] = FinFn(
            values[b], values[a], {(u, v): (pm(u), qm(v)) for (u, v) in values[b]}
        )
    prod = Presheaf(p.base, values, restriction, check=False)
    pi1 = PshMap(
        prod,
        p,
        {a: FinFn(values[a], p.values[a], {(u, v): u for (u, v) in values[a]}) for a in p.base.objects},
        check=False,
    )
    pi2 = PshMap(
        prod,
        q,
        {a: FinFn(values[a], q.values[a], {(u, v): v for (u, v) in values[a]}) for a in p.base.objects},
        check=False,
    )
    return prod, pi1, pi2


def psh_pair(cone1: PshMap, cone2: PshMap, prod_data=None) -> PshMap:
    """Unique factoring of a cone through the pointwise product (witnessed)."""
    if cone1.source != cone2.source:
        raise EndpointMismatch("cone legs have different apex")
    prod, pi1, pi2 = prod_data if prod_data else psh_product(cone1.target, cone2.target)
    comps = {
        a: FinFn(
            cone1.source.values[a],
            prod.values[a],
            {w: (cone1.components[a](w), cone2.components[a](w)) for w in cone1.source.values[a]},
        )
        for a in prod.base.objects
    }
    factor = PshMap(cone1.source, prod, comps, check=False)
    if factor.then(pi1) != cone1 or factor.then(pi2) != cone2:
        raise ValueError("pairing does not factor the cone through the product")
    return factor


def psh_equalizer(phi: PshMap, psi: PshMap) -> tuple[Presheaf, PshMap]:
    """Pointwise equalizer subpresheaf with its inclusion."""
    if phi.source != psi.source or phi.target != psi.target:
        raise EndpointMismatch("equalizer needs a parallel pair")
    p = phi.source
    values = {
        a: FinSet(u for u in p.values[a] if phi.components[a](u) == psi.components[a](u))
        for a in p.base.objects
    }
    restriction = {}
    for m in p.base.morphisms():
        a, b = p.base.src(m), p.base.tgt(m)
        table = {}
        for u in values[b]:
            moved = p.restriction[m](u)
            if moved not in values[a]:
                raise ValueError(f"equalizer not closed under restriction along {m!r}")
            table[u] = moved
        restriction[m] = FinFn(values[b], values[a], table)
    eq = Presheaf(p.base, values, restriction, check=False)
    incl = PshMap(
        eq,
        p,
        {a: FinFn(values[a], p.values[a], {u: u for u in values[a]}) for a in p.base.objects},
        check=False,
    )
    return eq, incl


def psh_equalizer_factor(eq_data: tuple[Presheaf, PshMap], cone: PshMap) -> PshMap:
    """Unique factoring of an equalizing cone through the equalizer (witnessed)."""
    eq, incl = eq_data
    comps = {}
    for a in eq.base.objects:
        table = {}
        for w in cone.source.values[a]:
            image = cone.components[a](w)
            if image not in eq.values[a]:
                raise ValueError(f"cone is not equalizing at {a!r}: {image!r}")
            table[w] = image
        comps[a] = FinFn(cone.source.values[a], eq.values[a], table)
    factor = PshMap(cone.source, eq, comps, check=False)
    if factor.then(incl) != cone:
        raise ValueError("factor does not recover the cone through the equalizer")
    return factor


def psh_pullback(phi: PshMap, psi: PshMap) -> tuple[Presheaf, PshMap, PshMap]:
    """Pointwise pullback of phi: p -> r and psi: q -> r, with projections."""
    if phi.target != psi.target:
        raise EndpointMismatch("pullback needs a cospan")
    p, q = phi.source, psi.source
    values = {
        a: FinSet(
            (u, v)
            for u in p.values[a]
            for v in q.values[a]
            if phi.components[a](u) == psi.components[a](v)
        )
        for a in p.base.objects
    }
    restriction = {}
    for m in p.base.morphisms():
        a, b = p.base.src(m), p.base.tgt(m)
        pm, qm = p.restriction[m], q.restriction[m]
        restriction[m] = FinFn(
            values[b], values[a], {(u, v): (pm(u), qm(v)) for (u, v) in values[b]}
        )
    pb = Presheaf(p.base, values, restriction, check=False)
    pr1 = PshMap(
        pb,
        p,
        {a: FinFn(values[a], p.values[a], {(u, v): u for (u, v) in values[a]}) for a in p.base.objects},
        check=False,
    )
    pr2 = PshMap(
        pb,
        q,
        {a: FinFn(values[a], q.values[a], {(u, v): v for (u, v) in values[a]}) for a in p.base.objects},
        check=False,
    )
    return pb, pr1, pr2


def psh_coproduct(p: Presheaf, q: Presheaf) -> tuple[Presheaf, PshMap, PshMap]:
    """Pointwise tagged union with injections."""
    if p.base != q.base:
        raise EndpointMismatch("presheaves live on different bases")
    values = {
        a: FinSet(
            [(0, u) for u in p.values[a]] + [(1, v) for v in q.values[a]]
        )
        for a in p.base.objects
    }
    restriction = {}
    for m in p.base.morphisms():
        a, b = p.base.src(m), p.base.tgt(m)
        table = {}
        for tag, u in values[b]:
            table[(tag, u)] = (tag, (p if tag == 0 else q).restriction[m](u))
        restriction[m] = FinFn(values[b], values[a], table)
    cop = Presheaf(p.base, values, restriction, check=False)
    in1 = PshMap(
        p,
        cop,
        {a: FinFn(p.values[a], values[a], {u: (0, u) for u in p.values[a]}) for a in p.base.objects},
        check=False,
    )
    in2 = PshMap(
        q,
        cop,
        {a: FinFn(q.values[a], values[a], {v: (1, v) for v in q.values[a]}) for a in p.base.objects},
        check=False,
    )
    return cop, in1, in2


def psh_copair(leg1: PshMap, leg2: PshMap, cop_data=None) -> PshMap:
    """Unique factoring out of the pointwise coproduct (witnessed)."""
    if leg1.target != leg2.target:
        raise EndpointMismatch("cocone legs have different nadir")
    cop, in1, in2 = cop_data if cop_data else psh_coproduct(leg1.source, leg2.source)
    comps = {}
    for a in cop.base.objects:
        table = {}
        for tag, u in cop.values[a]:
            table[(tag, u)] = (leg1 if tag == 0 else leg2).components[a](u)
        comps[a] = FinFn(cop.values[a], leg1.target.values[a], table)
    out = PshMap(cop, leg1.target, comps, check=False)
    if in1.then(out) != leg1 or in2.then(out) != leg2:
        raise ValueError("copairing does not factor the cocone through the coproduct")
    return out


# -- combinators for functors into presheaves -------------------------------------


def pvf_constant(source: FinCat, p: Presheaf) -> PshValuedFunctor:
    return PshValuedFunctor(
        source,
        p.base,
        {x: p for x in source.objects},
        {m: PshMap.identity(p) for m in source.morphisms()},
        check=False,
    )


def pvf_coproduct(a: PshValuedFunctor, b: PshValuedFunctor) -> PshValuedFunctor:
    """Pointwise coproduct; functorial because the injections are natural."""
    if a.source != b.source or a.target_base != b.target_base:
        raise EndpointMismatch("functors are not parallel")
    on_obj = {}
    for x in a.source.objects:
        cop, _, _ = psh_coproduct(a.on_obj[x], b.on_obj[x])
        on_obj[x] = cop
    on_mor = {}
    for m in a.source.morphisms():
        x0, x1 = a.source.src(m), a.source.tgt(m)
        comps = {}
        for obj in a.target_base.objects:
            dom = on_obj[x0].values[obj]
            table = {
                (tag, u): (tag, (a if tag == 0 else b).on_mor[m].components[obj](u))
                for (tag, u) in dom
            }
            comps[obj] = FinFn(dom, on_obj[x1].values[obj], table)
        on_mor[m] = PshMap(on_obj[x0], on_obj[x1], comps, check=False)
    return PshValuedFunctor(a.source, a.target_base, on_obj, on_mor, check=False)


def pvf_product(a: PshValuedFunctor, b: PshValuedFunctor) -> PshValuedFunctor:
    """Pointwise product on lexicographic pair sets."""
    if a.source != b.source or a.target_base != b.target_base:
        raise EndpointMismatch("functors are not parallel")
    on_obj = {}
    for x in a.source.objects:
        prod, _, _ = psh_product(a.on_obj[x], b.on_obj[x])
        on_obj[x] = prod
    on_mor = {}
    for m in a.source.morphisms():
        x0, x1 = a.source.src(m), a.source.tgt(m)
        comps = {}
        for obj in a.target_base.objects:
            dom = on_obj[x0].values[obj]
            table = {
                (u, v): (
                    a.on_mor[m].components[obj](u),
                    b.on_mor[m].components[obj](v),
                )
                for (u, v) in dom
            }
            comps[obj] = FinFn(dom, on_obj[x1].values[obj], table)
        on_mor[m] = PshMap(on_obj[x0], on_obj[x1], comps, check=False)
    return PshValuedFunctor(a.source, a.target_base, on_obj, on_mor, check=False)


# -- exhaustive enumeration of natural maps -------------------------------------


def all_psh_maps(p: Presheaf, q: Presheaf, node_budget: int = 2_000_000) -> list[PshMap]:
    """Every natural transformation p -> q, by backtracking over components.

    Naturality squares are checked as soon as both endpoints are assigned,
    which prunes the search enough for desk-scale value sets.
    """
    base = p.base
    objs = list(base.objects)
    mors = [m for m in base.morphisms() if not base.is_identity(m)]
    results: list[PshMap] = []
    assigned: dict[Label, FinFn] = {}
    nodes = 0

    def consistent(a: Label) -> bool:
        for m in mors:
            s, t = base.src(m), base.tgt(m)
            if s in assigned and t in assigned and (s == a or t == a):
                lhs = p.restriction[m].then(assigned[s])
                rhs = assigned[t].then(q.restriction[m])
                if lhs != rhs:
                    return False
        return True

    def extend(i: int) -> None:
        nonlocal nodes
        if i == len(objs):
            results.append(PshMap(p, q, dict(assigned), check=False))
            return
        a = objs[i]
        dom, cod = p.values[a], q.values[a]
        if len(dom) == 0:
            assigned[a] = FinFn(dom, cod, {})
            if consistent(a):
                extend(i + 1)
            del assigned[a]
            return
        if len(cod) == 0:
            return  # no map from nonempty into empty
        for images in itertools.product(list(cod), repeat=len(dom)):
            nodes += 1
            if nodes > node_budget:
                raise RuntimeError("natural-map enumeration budget exceeded")
            assigned[a] = FinFn(dom, cod, dict(zip(dom.elements, images)))
            if consistent(a):
                extend(i + 1)
            del assigned[a]

    extend(0)
    return results


# -- preservation checks ---------------------------------------------------------


def comparison_to_terminal(f: PshValuedFunctor, t: Label) -> PshMap:
    return psh_terminal_map(f.on_obj[t])


def check_preserves(kind: str, f: PshValuedFunctor, instance) -> CheckReport:
    """Does f (or its Kan extension) send the given (co)limit instance to one?

    kind/instance combinations:
      'terminal', t: object of f.source with a terminal witness
      'initial', o: object of f.source with an initial witness
      'binary_product', (a, b, axb, pi1, pi2): product diagram in f.source
      'kan_terminal', None: extension applied to the terminal presheaf
      'kan_binary_product', (p, q): extension applied to a pointwise product
      'kan_equalizer', (phi, psi): extension applied to a pointwise equalizer
      'kan_pullback', (phi, psi): extension applied to a pointwise pullback
    Negative outcomes are reported, not raised.
    """
    report = CheckReport(f"preserves-{kind}")
    if kind == "terminal":
        t = instance
        cmp_map = comparison_to_terminal(f, t)
        report.add(
            "comparison-iso",
            cmp_map.is_iso(),
            f"value sets of F({t!r}) are not all singletons",
        )
    elif kind == "initial":
        o = instance
        image = f.on_obj[o]
        nonempty = [a for a in image.base.objects if len(image.values[a]) > 0]
        report.add(
            "image-empty",
            not nonempty,
            f"F({o!r}) has nonempty value at {nonempty[0]!r}" if nonempty else None,
        )
    elif kind == "binary_product":
        a, b, axb, pi1, pi2 = instance
        prod, _, _ = psh_product(f.on_obj[a], f.on_obj[b])
        cmp_map = psh_pair(
            f.on_mor[pi1], f.on_mor[pi2], psh_product(f.on_obj[a], f.on_obj[b])
        )
        if cmp_map.source != f.on_obj[axb] or cmp_map.target != prod:
            raise ValueError(f"comparison map at {axb!r} has the wrong endpoints")
        report.add(
            "comparison-iso",
            cmp_map.is_iso(),
            f"F({axb!r}) -> F({a!r}) x F({b!r}) not bijective",
        )
    elif kind == "kan_terminal":
        image = kan_extend(f, psh_terminal(f.source))
        cmp_map = psh_terminal_map(image)
        report.add("comparison-iso", cmp_map.is_iso(), "extension of terminal is not terminal")
    elif kind == "kan_binary_product":
        p, q = instance
        prod, pi1, pi2 = psh_product(p, q)
        kprod = kan_extend(f, prod)
        target_prod_data = psh_product(kan_extend(f, p), kan_extend(f, q))
        cmp_map = psh_pair(
            kan_extend_map(f, pi1, source_kan=kprod),
            kan_extend_map(f, pi2, source_kan=kprod),
            target_prod_data,
        )
        report.add("comparison-iso", cmp_map.is_iso(), _iso_witness(cmp_map))
    elif kind == "kan_equalizer":
        phi, psi = instance
        eq, incl = psh_equalizer(phi, psi)
        keq = kan_extend(f, eq)
        kphi = kan_extend_map(f, phi)
        kpsi = kan_extend_map(f, psi)
        target_eq, target_incl = psh_equalizer(kphi, kpsi)
        kincl = kan_extend_map(f, incl, source_kan=keq)
        # the comparison lands in the pointwise equalizer of the extended pair
        comps = {}
        ok = True
        witness = None
        for a in f.target_base.objects:
            table = {}
            for u in keq.values[a]:
                image = kincl.components[a](u)
                if kphi.components[a](image) != kpsi.components[a](image):
                    ok = False
                    witness = f"image of {u!r} at {a!r} is not equalized"
                    break
                table[u] = image
            if not ok:
                break
            comps[a] = FinFn(keq.values[a], target_eq.values[a], table)
        report.add("comparison-defined", ok, witness)
        if ok:
            cmp_map = PshMap(keq, target_eq, comps, check=False)
            report.add("comparison-iso", cmp_map.is_iso(), _iso_witness(cmp_map))
    elif kind == "kan_pullback":
        phi, psi = instance
        pb, pr1, pr2 = psh_pullback(phi, psi)
        kpb = kan_extend(f, pb)
        kphi = kan_extend_map(f, phi)
        kpsi = kan_extend_map(f, psi)
        tgt_pb, tgt_pr1, tgt_pr2 = psh_pullback(kphi, kpsi)
        k1 = kan_extend_map(f, pr1, source_kan=kpb)
        k2 = kan_extend_map(f, pr2, source_kan=kpb)
        comps = {}
        ok = True
        witness = None
        for a in f.target_base.objects:
            table = {}
            for u in kpb.values[a]:
                pair = (k1.components[a](u), k2.components[a](u))
                if pair not in tgt_pb.values[a]:
                    ok = False
                    witness = f"image of {u!r} at {a!r} not in the pullback"
                    break
                table[u] = pair
            if not ok:
                break
            comps[a] = FinFn(kpb.values[a], tgt_pb.values[a], table)
        report.add("comparison-defined", ok, witness)
        if ok:
            cmp_map = PshMap(kpb, tgt_pb, comps, check=False)
            report.add("comparison-iso", cmp_map.is_iso(), _iso_witness(cmp_map))
    else:
        raise ValueError(f"unknown preservation kind {kind!r}")
    return report


def _iso_witness(phi: PshMap) -> str | None:
    for a in sorted(phi.components, key=label_key):
        fn = phi.components[a]
        if not fn.is_bijective():
            return (
                f"component at {a!r} has |dom|={len(fn.domain)}, "
                f"|image|={len({v for _, v in fn.mapping})}, |cod|={len(fn.codomain)}"
            )
    return None
