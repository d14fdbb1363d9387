"""Profunctors at finite scale and the coherence cells of their Kleisli presentation.

Composition of Kleisli morphisms (functors into presheaves) is extension-
then-apply; the symmetric coend composition of profunctors is a separate
code path, and the two are *tested* isomorphic rather than identified.

All coherence cells (mu, eta, theta, the associator and unitors) are
materialized as explicit families of bijections between value sets.  Their
construction is elementwise on canonical quotient representatives; every
induced map is verified well-defined, and every cell claimed invertible is
verified bijective.  Equality of composite cells is label-exact equality of
component functions, so a commuting diagram means exact equality, not
isomorphism-up-to-renaming.

Corruptible construction: the cell builders accept an optional `mutate`
hook, used by the fault-injection suites to corrupt single components and
demonstrate that the checkers notice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .colim import Bifunctor, CoendResult, coend, induced_map
from .fincat import (
    EndpointMismatch,
    FinCat,
    FinFn,
    FinSet,
    Label,
    NonInvertible,
    label_key,
)
from .presheaf import (
    KanPresheaf,
    Presheaf,
    PshMap,
    PshValuedFunctor,
    eta_iso,
    kan_extend,
    kan_extend_map,
    yoneda,
    yoneda_embedding,
)
from .report import CheckReport

MutateHook = Callable[[str, tuple, FinFn], FinFn]


def _mut(mutate: MutateHook | None, kind: str, key: tuple, fn: FinFn) -> FinFn:
    return mutate(kind, key, fn) if mutate is not None else fn


# -- profunctors ----------------------------------------------------------------


@dataclass(frozen=True)
class Profunctor:
    """Finite-set-valued bifunctor on (target)^op x source.

    values[(y, x)] is contravariant in y (left action by target morphisms)
    and covariant in x (right action by source morphisms).
    """

    source: FinCat
    target: FinCat
    values: dict[tuple[Label, Label], FinSet]
    left_act: dict[tuple[Label, Label], FinFn]   # (target morphism g, x): values[tgt g, x] -> values[src g, x]
    right_act: dict[tuple[Label, Label], FinFn]  # (y, source morphism f): values[y, src f] -> values[y, tgt f]
    coends: dict = field(compare=False, default_factory=dict, repr=False)

    def __init__(self, source, target, values, left_act, right_act, check=True, coends=None):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "values", dict(values))
        object.__setattr__(self, "left_act", dict(left_act))
        object.__setattr__(self, "right_act", dict(right_act))
        object.__setattr__(self, "coends", dict(coends) if coends else {})
        if check:
            bad = profunctor_violations(self)
            if bad:
                raise ValueError("not a profunctor: " + bad[0])

    def value(self, y: Label, x: Label) -> FinSet:
        return self.values[(y, x)]

    def as_bifunctor(self) -> Bifunctor:
        return Bifunctor(self.target, self.source, self.values, self.left_act, self.right_act)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Profunctor)
            and self.source == other.source
            and self.target == other.target
            and self.values == other.values
            and self.left_act == other.left_act
            and self.right_act == other.right_act
        )


def profunctor_violations(p: Profunctor) -> list[str]:
    from .colim import bifunctor_violations

    return bifunctor_violations(p.as_bifunctor())


@dataclass(frozen=True)
class ProfCell:
    """2-cell of Prof: a family of functions commuting with both actions."""

    source: Profunctor
    target: Profunctor
    components: dict[tuple[Label, Label], FinFn]

    def __init__(self, source, target, components, check: bool = True):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", dict(components))
        if check:
            bad = profcell_violations(self)
            if bad:
                raise ValueError("not a profunctor cell: " + bad[0])

    def at(self, y: Label, x: Label) -> FinFn:
        return self.components[(y, x)]

    def is_iso(self) -> bool:
        return all(fn.is_bijective() for fn in self.components.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, ProfCell) and self.components == other.components


def profcell_violations(cell: ProfCell) -> list[str]:
    out = []
    src, tgt = cell.source, cell.target
    for key, fn in cell.components.items():
        if fn.domain != src.values[key] or fn.codomain != tgt.values[key]:
            out.append(f"component at {key!r} has wrong endpoints")
    if out:
        return out
    for g in src.target.morphisms():
        for x in src.source.objects:
            y0, y1 = src.target.src(g), src.target.tgt(g)
            lhs = src.left_act[(g, x)].then(cell.components[(y0, x)])
            rhs = cell.components[(y1, x)].then(tgt.left_act[(g, x)])
            if lhs != rhs:
                out.append(f"left action not respected at ({g!r}, {x!r})")
    for y in src.target.objects:
        for f in src.source.morphisms():
            lhs = src.right_act[(y, f)].then(cell.components[(y, src.source.tgt(f))])
            rhs = cell.components[(y, src.source.src(f))].then(tgt.right_act[(y, f)])
            if lhs != rhs:
                out.append(f"right action not respected at ({y!r}, {f!r})")
    return out


def prof_identity(base: FinCat) -> Profunctor:
    """Identity profunctor: value at (a, b) is the hom set a -> b."""
    values = {(a, b): base.hom[(a, b)] for a in base.objects for b in base.objects}
    left_act = {}
    right_act = {}
    for g in base.morphisms():
        for x in base.objects:
            a0, a1 = base.src(g), base.tgt(g)
            dom = values[(a1, x)]
            left_act[(g, x)] = FinFn(
                dom, values[(a0, x)], {h: base.comp[(h, g)] for h in dom}
            )
    for y in base.objects:
        for f in base.morphisms():
            b0, b1 = base.src(f), base.tgt(f)
            dom = values[(y, b0)]
            right_act[(y, f)] = FinFn(
                dom, values[(y, b1)], {h: base.comp[(f, h)] for h in dom}
            )
    return Profunctor(base, base, values, left_act, right_act, check=False)


def _compose_bifunctor(g: Profunctor, f: Profunctor, z: Label, x: Label) -> Bifunctor:
    mid = f.target
    values = {}
    for ym in mid.objects:
        for yp in mid.objects:
            values[(ym, yp)] = FinSet(
                (u, v) for u in g.values[(z, yp)] for v in f.values[(ym, x)]
            )
    contra_act = {}
    co_act = {}
    for m in mid.morphisms():
        y0, y1 = mid.src(m), mid.tgt(m)
        fv = f.left_act[(m, x)]
        for yp in mid.objects:
            dom = values[(y1, yp)]
            contra_act[(m, yp)] = FinFn(
                dom, values[(y0, yp)], {(u, v): (u, fv(v)) for (u, v) in dom}
            )
        gv = g.right_act[(z, m)]
        for ym in mid.objects:
            dom = values[(ym, y0)]
            co_act[(ym, m)] = FinFn(
                dom, values[(ym, y1)], {(u, v): (gv(u), v) for (u, v) in dom}
            )
    return Bifunctor(mid, mid, values, contra_act, co_act)


def prof_compose(g: Profunctor, f: Profunctor) -> Profunctor:
    """Symmetric coend formula: value at (z, x) is the coend over the middle
    category of g(z, y) x f(y, x)."""
    if f.target != g.source:
        raise EndpointMismatch("profunctor endpoints do not match")
    coends: dict[tuple[Label, Label], CoendResult] = {}
    for z in g.target.objects:
        for x in f.source.objects:
            coends[(z, x)] = coend(
                f.target, _compose_bifunctor(g, f, z, x), check=False
            )
    values = {key: res.value for key, res in coends.items()}
    left_act = {}
    right_act = {}
    for m in g.target.morphisms():
        z0, z1 = g.target.src(m), g.target.tgt(m)
        for x in f.source.objects:

            def rule(pair, m=m, z0=z0, x=x):
                y, (u, v) = pair
                return coends[(z0, x)].cls(y, (g.left_act[(m, y)](u), v))

            left_act[(m, x)] = induced_map(
                coends[(z1, x)].quotient, values[(z0, x)], rule
            )
    for z in g.target.objects:
        for m in f.source.morphisms():
            x0, x1 = f.source.src(m), f.source.tgt(m)

            def rule(pair, m=m, z=z, x1=x1):
                y, (u, v) = pair
                return coends[(z, x1)].cls(y, (u, f.right_act[(y, m)](v)))

            right_act[(z, m)] = induced_map(
                coends[(z, x0)].quotient, values[(z, x1)], rule
            )
    return Profunctor(
        f.source, g.target, values, left_act, right_act, check=False, coends=coends
    )


# -- the tau correspondence -------------------------------------------------------


def tau(p: Profunctor) -> PshValuedFunctor:
    """Exponential transpose: tau(F)(x) is the presheaf y -> F(y, x)."""
    on_obj = {}
    for x in p.source.objects:
        values = {y: p.values[(y, x)] for y in p.target.objects}
        restriction = {g: p.left_act[(g, x)] for g in p.target.morphisms()}
        on_obj[x] = Presheaf(p.target, values, restriction, check=False)
    on_mor = {}
    for f in p.source.morphisms():
        x0, x1 = p.source.src(f), p.source.tgt(f)
        on_mor[f] = PshMap(
            on_obj[x0],
            on_obj[x1],
            {y: p.right_act[(y, f)] for y in p.target.objects},
            check=False,
        )
    return PshValuedFunctor(p.source, p.target, on_obj, on_mor, check=False)


def tau_inv(k: PshValuedFunctor) -> Profunctor:
    values = {
        (y, x): k.on_obj[x].values[y]
        for y in k.target_base.objects
        for x in k.source.objects
    }
    left_act = {
        (g, x): k.on_obj[x].restriction[g]
        for g in k.target_base.morphisms()
        for x in k.source.objects
    }
    right_act = {
        (y, f): k.on_mor[f].components[y]
        for y in k.target_base.objects
        for f in k.source.morphisms()
    }
    return Profunctor(k.source, k.target_base, values, left_act, right_act, check=False)


# -- Kleisli 1- and 2-cells ---------------------------------------------------------


@dataclass(frozen=True)
class KleisliCell:
    """2-cell between parallel Kleisli morphisms: an object-indexed family of PshMaps."""

    source: PshValuedFunctor
    target: PshValuedFunctor
    components: dict[Label, PshMap]

    def __init__(self, source, target, components, check: bool = True):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", dict(components))
        if check:
            bad = kleisli_cell_violations(self)
            if bad:
                raise ValueError("not a Kleisli 2-cell: " + bad[0])

    def at(self, x: Label) -> PshMap:
        return self.components[x]

    def is_iso(self) -> bool:
        return all(phi.is_iso() for phi in self.components.values())

    def then(self, other: KleisliCell) -> KleisliCell:
        return KleisliCell(
            self.source,
            other.target,
            {x: phi.then(other.components[x]) for x, phi in self.components.items()},
            check=False,
        )

    def invert(self) -> KleisliCell:
        for x in sorted(self.components, key=label_key):
            if not self.components[x].is_iso():
                raise NonInvertible(f"component at {x!r} is not invertible")
        return KleisliCell(
            self.target,
            self.source,
            {x: phi.inverse() for x, phi in self.components.items()},
            check=False,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, KleisliCell) and self.components == other.components

    @staticmethod
    def identity(k: PshValuedFunctor) -> KleisliCell:
        return KleisliCell(
            k, k, {x: PshMap.identity(p) for x, p in k.on_obj.items()}, check=False
        )


def kleisli_cell_violations(cell: KleisliCell) -> list[str]:
    out = []
    for x in cell.source.source.objects:
        phi = cell.components.get(x)
        if phi is None:
            return [f"missing component at {x!r}"]
        if phi.source != cell.source.on_obj[x] or phi.target != cell.target.on_obj[x]:
            out.append(f"component at {x!r} has wrong endpoints")
    if out:
        return out
    for m in cell.source.source.morphisms():
        x0, x1 = cell.source.source.src(m), cell.source.source.tgt(m)
        lhs = cell.source.on_mor[m].then(cell.components[x1])
        rhs = cell.components[x0].then(cell.target.on_mor[m])
        if lhs != rhs:
            out.append(f"naturality fails at {m!r}")
    return out


def kleisli_identity(base: FinCat) -> PshValuedFunctor:
    return yoneda_embedding(base)


def kleisli_compose(g: PshValuedFunctor, f: PshValuedFunctor) -> PshValuedFunctor:
    """Extension-then-apply composition: x goes to the extension of g at f(x)."""
    if f.target_base != g.source:
        raise EndpointMismatch("Kleisli morphisms do not compose")
    on_obj = {x: kan_extend(g, f.on_obj[x]) for x in f.source.objects}
    on_mor = {}
    for m in f.source.morphisms():
        x0, x1 = f.source.src(m), f.source.tgt(m)
        on_mor[m] = kan_extend_map(
            g, f.on_mor[m], source_kan=on_obj[x0], target_kan=on_obj[x1]
        )
    return PshValuedFunctor(f.source, g.target_base, on_obj, on_mor, check=False)


def star_cell(
    psi: KleisliCell,
    q: Presheaf,
    source_kan: KanPresheaf | None = None,
    target_kan: KanPresheaf | None = None,
) -> PshMap:
    """The extension operation applied to a 2-cell, evaluated at the argument q."""
    kp = source_kan if source_kan is not None else kan_extend(psi.source, q)
    kq = target_kan if target_kan is not None else kan_extend(psi.target, q)
    comps = {}
    for v in psi.source.target_base.objects:

        def rule(pair, v=v):
            z, (u, w) = pair
            return kq.cls(v, z, psi.components[z].components[v](u), w)

        comps[v] = induced_map(kp.coends[v].quotient, kq.values[v], rule)
    return PshMap(kp, kq, comps, check=False)


def whisker_right(
    psi: KleisliCell,
    f: PshValuedFunctor,
    source_comp: PshValuedFunctor | None = None,
    target_comp: PshValuedFunctor | None = None,
) -> KleisliCell:
    """psi * 1_f: precompose both sides with f; components are starred cells."""
    uf = source_comp if source_comp is not None else kleisli_compose(psi.source, f)
    vf = target_comp if target_comp is not None else kleisli_compose(psi.target, f)
    comps = {
        x: star_cell(psi, f.on_obj[x], source_kan=uf.on_obj[x], target_kan=vf.on_obj[x])
        for x in f.source.objects
    }
    return KleisliCell(uf, vf, comps, check=False)


def whisker_left(
    g: PshValuedFunctor,
    phi: KleisliCell,
    source_comp: PshValuedFunctor | None = None,
    target_comp: PshValuedFunctor | None = None,
) -> KleisliCell:
    """1_g * phi: apply the extension of g to every component of phi."""
    gf = source_comp if source_comp is not None else kleisli_compose(g, phi.source)
    gf2 = target_comp if target_comp is not None else kleisli_compose(g, phi.target)
    comps = {
        x: kan_extend_map(
            g, phi.components[x], source_kan=gf.on_obj[x], target_kan=gf2.on_obj[x]
        )
        for x in phi.source.source.objects
    }
    return KleisliCell(gf, gf2, comps, check=False)


# -- the structural cells: theta, eta, mu ----------------------------------------------


def theta_map(
    base: FinCat,
    p: Presheaf,
    source_kan: KanPresheaf | None = None,
    mutate: MutateHook | None = None,
    tag: tuple = (),
) -> PshMap:
    """Co-Yoneda reduction (yoneda)^*(p) -> p: class (x, (h, v)) -> p(h)(v)."""
    kp = source_kan if source_kan is not None else kan_extend(yoneda_embedding(base), p)
    comps = {}
    for a in base.objects:

        def rule(pair):
            x, (h, v) = pair
            return p.restriction[h](v)

        fn = induced_map(kp.coends[a].quotient, p.values[a], rule)
        if not fn.is_bijective():
            raise NonInvertible(f"theta component at {a!r} is not a bijection")
        comps[a] = _mut(mutate, "theta", tag + (a,), fn)
    return PshMap(kp, p, comps, check=False)


def eta_cell(
    f: PshValuedFunctor,
    f_unit: PshValuedFunctor | None = None,
    mutate: MutateHook | None = None,
    tag: tuple = (),
) -> KleisliCell:
    """eta_f: f -> f o i, the invertible unit comparison, componentwise co-Yoneda."""
    base = f.source
    fi = f_unit if f_unit is not None else kleisli_compose(f, yoneda_embedding(base))
    comps = {}
    for x in base.objects:
        phi = eta_iso(f, x, target_kan=fi.on_obj[x])
        if mutate is not None:
            phi = PshMap(
                phi.source,
                phi.target,
                {
                    a: _mut(mutate, "eta", tag + (x, a), fn)
                    for a, fn in phi.components.items()
                },
                check=False,
            )
        comps[x] = phi
    return KleisliCell(f, fi, comps, check=False)


def mu_map(
    g: PshValuedFunctor,
    f: PshValuedFunctor,
    p: Presheaf,
    lhs_kan: KanPresheaf | None = None,
    f_kan: KanPresheaf | None = None,
    rhs_kan: KanPresheaf | None = None,
    gf: PshValuedFunctor | None = None,
    mutate: MutateHook | None = None,
    tag: tuple = (),
) -> PshMap:
    """mu_{g,f} at argument p: (g o f)^*(p) -> g^*(f^*(p)).

    Sends the class of (x, (xi, w)) with xi = class of (y, (u, v)) to the
    class of (y, (u, class of (x, (v, w)))).  Verified well-defined and
    bijective.
    """
    gf = gf if gf is not None else kleisli_compose(g, f)
    lhs = lhs_kan if lhs_kan is not None else kan_extend(gf, p)
    fp = f_kan if f_kan is not None else kan_extend(f, p)
    rhs = rhs_kan if rhs_kan is not None else kan_extend(g, fp)
    comps = {}
    for z in g.target_base.objects:

        def rule(pair, z=z):
            x, (xi, w) = pair
            y, (u, v) = xi
            return rhs.cls(z, y, u, fp.cls(y, x, v, w))

        fn = induced_map(lhs.coends[z].quotient, rhs.values[z], rule)
        if not fn.is_bijective():
            raise NonInvertible(f"mu component at {z!r} is not a bijection")
        comps[z] = _mut(mutate, "mu", tag + (z,), fn)
    return PshMap(lhs, rhs, comps, check=False)


# -- associator and unitors ------------------------------------------------------------


def kleisli_associator(
    h: PshValuedFunctor,
    g: PshValuedFunctor,
    f: PshValuedFunctor,
    mutate: MutateHook | None = None,
    tag: tuple = (),
    hg: PshValuedFunctor | None = None,
    gf: PshValuedFunctor | None = None,
    source_comp: PshValuedFunctor | None = None,
    target_comp: PshValuedFunctor | None = None,
) -> KleisliCell:
    """alpha_{h,g,f}: (h o g) o f -> h o (g o f), i.e. mu_{h,g} whiskered by f."""
    hg = hg if hg is not None else kleisli_compose(h, g)
    gf = gf if gf is not None else kleisli_compose(g, f)
    src = source_comp if source_comp is not None else kleisli_compose(hg, f)
    tgt = target_comp if target_comp is not None else kleisli_compose(h, gf)
    comps = {}
    for x in f.source.objects:
        comps[x] = mu_map(
            h,
            g,
            f.on_obj[x],
            lhs_kan=src.on_obj[x],
            f_kan=gf.on_obj[x],
            rhs_kan=tgt.on_obj[x],
            gf=hg,
            mutate=mutate,
            tag=tag + (x,),
        )
    return KleisliCell(src, tgt, comps, check=False)


def kleisli_left_unitor(
    f: PshValuedFunctor,
    source_comp: PshValuedFunctor | None = None,
    mutate: MutateHook | None = None,
    tag: tuple = (),
) -> KleisliCell:
    """lambda_f: i o f -> f, componentwise co-Yoneda reduction."""
    base_t = f.target_base
    i_f = source_comp if source_comp is not None else kleisli_compose(yoneda_embedding(base_t), f)
    comps = {
        x: theta_map(base_t, f.on_obj[x], source_kan=i_f.on_obj[x], mutate=mutate,
                     tag=tag + (x,))
        for x in f.source.objects
    }
    return KleisliCell(i_f, f, comps, check=False)


def kleisli_right_unitor(
    f: PshValuedFunctor,
    source_comp: PshValuedFunctor | None = None,
    mutate: MutateHook | None = None,
    tag: tuple = (),
) -> KleisliCell:
    """rho_f: f o i -> f, the inverse of the unit comparison eta_f."""
    f_i = source_comp if source_comp is not None else kleisli_compose(f, yoneda_embedding(f.source))
    eta = eta_cell(f, f_unit=f_i, mutate=mutate, tag=tag)
    return eta.invert()


# -- coherence checks --------------------------------------------------------------------


def _cells_equal_witness(a: KleisliCell, b: KleisliCell) -> str | None:
    for x in sorted(a.components, key=label_key):
        pa, pb = a.components[x], b.components.get(x)
        if pb is None:
            return f"missing component at {x!r}"
        for obj in sorted(pa.components, key=label_key):
            if pa.components[obj] != pb.components[obj]:
                fa, fb = pa.components[obj], pb.components[obj]
                for e in fa.domain:
                    if fa(e) != fb(e):
                        return (
                            f"at object {x!r}, value object {obj!r}, element {e!r}: "
                            f"{fa(e)!r} vs {fb(e)!r}"
                        )
                return f"at object {x!r}, value object {obj!r}: domains differ"
    return None


def check_pentagon(
    k: PshValuedFunctor,
    h: PshValuedFunctor,
    g: PshValuedFunctor,
    f: PshValuedFunctor,
    mutate: MutateHook | None = None,
) -> CheckReport:
    """Both composite associator paths around the pentagon, compared exactly."""
    report = CheckReport("pentagon")
    kh = kleisli_compose(k, h)
    hg = kleisli_compose(h, g)
    gf = kleisli_compose(g, f)
    kh_g = kleisli_compose(kh, g)
    h_gf = kleisli_compose(h, gf)
    k_hg = kleisli_compose(k, hg)
    khg_f = kleisli_compose(kh_g, f)
    k_h_gf = kleisli_compose(k, h_gf)

    a1 = whisker_right(
        kleisli_associator(k, h, g, mutate=mutate, tag=("khg",), hg=kh, gf=hg,
                           source_comp=kh_g, target_comp=k_hg),
        f,
        source_comp=khg_f,
    )
    a2 = kleisli_associator(
        k, hg, f, mutate=mutate, tag=("k,hg,f",), hg=k_hg, source_comp=a1.target
    )
    a3 = whisker_left(
        k,
        kleisli_associator(h, g, f, mutate=mutate, tag=("hgf",), hg=hg, gf=gf,
                           source_comp=kleisli_compose(hg, f), target_comp=h_gf),
        source_comp=a2.target,
        target_comp=k_h_gf,
    )
    b1 = kleisli_associator(
        kh, g, f, mutate=mutate, tag=("kh,g,f",), gf=gf, source_comp=khg_f
    )
    b2 = kleisli_associator(
        k, h, gf, mutate=mutate, tag=("k,h,gf",), hg=kh, source_comp=b1.target,
        target_comp=k_h_gf,
    )
    left = a1.then(a2).then(a3)
    right = b1.then(b2)
    witness = _cells_equal_witness(left, right)
    report.add("pentagon-equality", witness is None, witness)
    return report


def check_triangle(
    g: PshValuedFunctor,
    f: PshValuedFunctor,
    mutate: MutateHook | None = None,
) -> CheckReport:
    """The unit coherence triangle plus the derived left/right unit triangles."""
    report = CheckReport("triangle")
    mid = g.source
    i_mid = yoneda_embedding(mid)
    gf = kleisli_compose(g, f)

    # middle: (rho_g * 1_f) = (1_g * lambda_f) . alpha_{g, i, f}
    g_i = kleisli_compose(g, i_mid)
    gi_f = kleisli_compose(g_i, f)
    i_f = kleisli_compose(i_mid, f)
    rho_g = kleisli_right_unitor(g, source_comp=g_i, mutate=mutate, tag=("rho_g",))
    lam_f = kleisli_left_unitor(f, source_comp=i_f, mutate=mutate, tag=("lam_f",))
    alpha = kleisli_associator(
        g, i_mid, f, mutate=mutate, tag=("g,i,f",), hg=g_i, gf=i_f, source_comp=gi_f
    )
    path1 = whisker_right(rho_g, f, source_comp=gi_f, target_comp=gf)
    path2 = alpha.then(whisker_left(g, lam_f, source_comp=alpha.target, target_comp=gf))
    witness = _cells_equal_witness(path1, path2)
    report.add("triangle-middle", witness is None, witness)

    # left: lambda_{g o f} . alpha_{i, g, f} = lambda_g * 1_f
    i_tgt = yoneda_embedding(g.target_base)
    ig = kleisli_compose(i_tgt, g)
    ig_f = kleisli_compose(ig, f)
    lam_g = kleisli_left_unitor(g, source_comp=ig, mutate=mutate, tag=("lam_g",))
    alpha_l = kleisli_associator(
        i_tgt, g, f, mutate=mutate, tag=("i,g,f",), hg=ig, gf=gf, source_comp=ig_f
    )
    lam_gf = kleisli_left_unitor(gf, source_comp=alpha_l.target, mutate=mutate, tag=("lam_gf",))
    lhs = alpha_l.then(lam_gf)
    rhs = whisker_right(lam_g, f, source_comp=ig_f, target_comp=gf)
    witness = _cells_equal_witness(lhs, rhs)
    report.add("triangle-left", witness is None, witness)

    # right: rho_{g o f} = (1_g * rho_f) . alpha_{g, f, i}
    i_src = yoneda_embedding(f.source)
    f_i = kleisli_compose(f, i_src)
    gf_i = kleisli_compose(gf, i_src)
    rho_gf = kleisli_right_unitor(gf, source_comp=gf_i, mutate=mutate, tag=("rho_gf",))
    alpha_r = kleisli_associator(
        g, f, i_src, mutate=mutate, tag=("g,f,i",), hg=gf, gf=f_i, source_comp=gf_i
    )
    rho_f = kleisli_right_unitor(f, source_comp=f_i, mutate=mutate, tag=("rho_f",))
    rhs2 = alpha_r.then(whisker_left(g, rho_f, source_comp=alpha_r.target, target_comp=gf))
    witness = _cells_equal_witness(rho_gf, rhs2)
    report.add("triangle-right", witness is None, witness)

    # unit laws: the unitors are invertible cells Id o f ~ f and f o Id ~ f
    report.add("left-unitor-iso", lam_f.is_iso(), "lambda not invertible")
    report.add("right-unitor-iso", rho_f.is_iso(), "rho not invertible")
    for label, cell in [
        ("lam_f", lam_f), ("lam_g", lam_g), ("lam_gf", lam_gf),
        ("rho_f", rho_f), ("rho_g", rho_g), ("rho_gf", rho_gf),
    ]:
        bad = kleisli_cell_violations(cell)
        report.add(f"{label}-natural", not bad, bad[0] if bad else None)
    return report
