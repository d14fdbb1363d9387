"""Presheaves on finite categories and the left Kan extension along Yoneda.

The extension operation sends a functor-into-presheaves F and a presheaf p
to the presheaf whose value at y is the coend over x of F(x)(y) x p(x).
Elements of these values are canonical quotient-class names, so maps between
Kan-extended presheaves are always defined elementwise on carriers and
verified well-defined on classes.

Pointwise limits (terminal, binary product, pullback, equalizer) use the
lexicographic pair set as the chosen product; this makes the chosen-limit
structure strict on the nose.

Every presheaf and presheaf map that is not a Kan extension is built by one
of two builders from its value sets and an elementwise rule:
`presheaf_from_rule(base, values, restrict)` and
`pshmap_from_rule(source, target, image)`.  They alone know the key order and
the endpoints of each component; both go through `fincat.components`, so
every component is a `FinFn` checked total and into its codomain.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .colim import QuotientSet, coend_from, induced_actions, induced_components
from .fincat import (
    BoundExceeded,
    Cell,
    EndpointMismatch,
    FinCat,
    FinFn,
    FinSet,
    Functor,
    Label,
    components,
    memo_scope,
    memoised,
    require_lawful,
)
from .report import CheckReport


@dataclass(frozen=True)
class Presheaf:
    """Contravariant finite-set-valued functor given by explicit tables."""

    base: FinCat
    values: dict[Label, FinSet]
    restriction: dict[Label, FinFn]  # morphism m -> values[tgt m] -> values[src m]
    quotients: dict[Label, QuotientSet] = field(compare=False, default_factory=dict, repr=False)

    def __init__(self, base, values, restriction, check: bool = True, quotients=None):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "values", dict(values))
        object.__setattr__(self, "restriction", dict(restriction))
        object.__setattr__(self, "quotients", dict(quotients) if quotients else {})
        if check:
            require_lawful(presheaf_violations(self), "not a presheaf")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presheaf)
            and self.base == other.base
            and self.values == other.values
            and self.restriction == other.restriction
        )


def presheaf_violations(p: Presheaf) -> list[str]:
    """The endpoint, identity and composition laws that p fails.

    Composition is checked on the pairs (g, f) with g a generator
    (`FinCat.generators`) only.  With the identity law that is exact, by
    induction on a generator word g1 . g' for g: restrict(g . f) =
    restrict(f) restrict(g') restrict(g1) = restrict(f) restrict(g).
    """
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
    gens = set(base.generators())
    for g, f in base.composable_pairs():
        # contravariance: restrict(g . f) = restrict(f) after restrict(g)
        if g in gens and (
            p.restriction[base.comp[(g, f)]] != p.restriction[g].then(p.restriction[f])
        ):
            out.append(f"composition restriction fails at ({g!r}, {f!r})")
    return out


class PshMap(Cell):
    """Natural transformation between presheaves on the same base."""

    source: Presheaf
    target: Presheaf
    components: dict[Label, FinFn]

    invalid = "not natural"

    def __init__(self, source, target, components, check: bool = True):
        if source.base != target.base:
            raise EndpointMismatch("presheaves live on different bases")
        Cell.__init__(self, source, target, components, check)

    def value_table(self):
        return self.source.base.objects, self.source.values, self.target.values

    def squares(self):
        base = self.source.base
        law = ("naturality fails along", self.source.restriction, self.target.restriction)
        return ((law, m, base.tgt(m), base.src(m)) for m in base.morphisms())

    @staticmethod
    def identity(p: Presheaf) -> PshMap:
        return PshMap(
            p, p, {a: FinFn.identity(s) for a, s in p.values.items()}, check=False
        )


def presheaf_from_rule(base: FinCat, values: dict, restrict) -> Presheaf:
    """The presheaf on base with these value sets whose restriction along m
    sends u in values[tgt m] to restrict(m, u) in values[src m], keyed in
    `base.morphisms()` order."""
    ms = list(base.morphisms())
    restriction = components(
        {m: values[base.tgt(m)] for m in ms}, {m: values[base.src(m)] for m in ms}, restrict
    )
    return Presheaf(base, values, restriction, check=False)


def pshmap_from_rule(source: Presheaf, target: Presheaf, image) -> PshMap:
    """The map source -> target whose component at a sends u to image(a, u)."""
    return PshMap(source, target, components(source.values, target.values, image), check=False)


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
            require_lawful(pvf_violations(self), "not functorial")

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


@memoised
def yoneda(base: FinCat, x: Label) -> Presheaf:
    """Representable presheaf: value at a is base[a, x], restriction by precomposition."""
    return presheaf_from_rule(
        base, {a: base.hom[(a, x)] for a in base.objects}, lambda m, h: base.comp[(h, m)]
    )


@memoised
def yoneda_embedding(base: FinCat) -> PshValuedFunctor:
    on_obj = {x: yoneda(base, x) for x in base.objects}
    on_mor = {
        f: pshmap_from_rule(
            on_obj[base.src(f)], on_obj[base.tgt(f)], lambda a, h, f=f: base.comp[(f, h)]
        )
        for f in base.morphisms()
    }
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


@memoised
def kan_extend(f: PshValuedFunctor, p: Presheaf) -> Presheaf:
    """Left Kan extension along Yoneda, applied to p: value at y is the coend
    over x of f(x)(y) x p(x), kept in `quotients[y]` with carrier elements
    (x, (u, v)).

    Each coend comes from `coend_from`: along a generator m: x -> x' it
    relates (u, p(m)v) ~ (f(m)_y u, v) for u in f(x)(y) and v in p(x'),
    read off the restriction table of p and the components of f(m).
    """
    if p.base != f.source:
        raise EndpointMismatch("argument presheaf must live on the functor's source")
    src, target = f.source, f.target_base

    def coend_at(y):
        def related(m):
            pm, fm = p.restriction[m]._table, f.on_mor[m].components[y]._table
            return (((u, pm[v]), (fm[u], v)) for u in fm for v in pm)

        def diagonal(x):
            return itertools.product(f.on_obj[x].values[y].elements, p.values[x].elements)

        return coend_from(src, diagonal, related)

    quotients = {y: coend_at(y) for y in target.objects}
    values = {y: q.quotient for y, q in quotients.items()}

    def rule(g, pair):
        x, (u, v) = pair
        return quotients[target.src(g)].representative((x, (f.on_obj[x].restriction[g](u), v)))

    restriction = induced_actions(target, quotients.__getitem__, rule, contravariant=True)
    return Presheaf(target, values, restriction, check=False, quotients=quotients)


@memo_scope()
def kan_extend_map(f: PshValuedFunctor, phi: PshMap) -> PshMap:
    """Functoriality of the extension in its presheaf argument."""
    kp = kan_extend(f, phi.source)
    kq = kan_extend(f, phi.target)

    def rule(y, pair):
        x, (u, v) = pair
        return kq.quotients[y].representative((x, (u, phi.components[x](v))))

    return PshMap(kp, kq, induced_components(kp.quotients, kq.values, rule), check=False)


@memo_scope()
def eta_iso(f: PshValuedFunctor, x: Label) -> PshMap:
    """The invertible comparison f(x) -> kan_extend(f, yoneda(x)): u -> [x, (u, id)]."""
    src = f.source
    kp = kan_extend(f, yoneda(src, x))
    idx = src.id_of(x)
    phi = pshmap_from_rule(
        f.on_obj[x], kp, lambda y, u: kp.quotients[y].representative((x, (u, idx)))
    )
    require_lawful(phi.violations(), phi.invalid)
    return phi.require_iso(f"unit comparison at {x!r} is not invertible")


# -- pointwise limits and colimits ---------------------------------------------


def psh_terminal(base: FinCat) -> Presheaf:
    one = FinSet([()])
    return presheaf_from_rule(base, {a: one for a in base.objects}, lambda m, u: u)


def psh_initial(base: FinCat) -> Presheaf:
    empty = FinSet()
    return presheaf_from_rule(base, {a: empty for a in base.objects}, lambda m, u: u)


def psh_terminal_map(p: Presheaf) -> PshMap:
    return pshmap_from_rule(p, psh_terminal(p.base), lambda a, u: ())


def psh_initial_map(p: Presheaf) -> PshMap:
    return pshmap_from_rule(psh_initial(p.base), p, lambda a, u: u)


def psh_product(p: Presheaf, q: Presheaf) -> tuple[Presheaf, PshMap, PshMap]:
    """Pointwise product on lexicographic pair sets, with projections."""
    if p.base != q.base:
        raise EndpointMismatch("presheaves live on different bases")
    values = {a: FinSet.product(p.values[a], q.values[a]) for a in p.base.objects}
    prod = presheaf_from_rule(
        p.base, values, lambda m, uv: (p.restriction[m](uv[0]), q.restriction[m](uv[1]))
    )
    pi1 = pshmap_from_rule(prod, p, lambda a, uv: uv[0])
    return prod, pi1, pshmap_from_rule(prod, q, lambda a, uv: uv[1])


def psh_pair(cone1: PshMap, cone2: PshMap, prod_data=None) -> PshMap:
    """Unique factoring of a cone through the pointwise product (witnessed)."""
    if cone1.source != cone2.source:
        raise EndpointMismatch("cone legs have different apex")
    prod, pi1, pi2 = prod_data if prod_data else psh_product(cone1.target, cone2.target)
    factor = pshmap_from_rule(
        cone1.source, prod, lambda a, w: (cone1.components[a](w), cone2.components[a](w))
    )
    if factor.then(pi1) != cone1 or factor.then(pi2) != cone2:
        raise ValueError("pairing does not factor the cone through the product")
    return factor


def psh_equalizer(phi: PshMap, psi: PshMap) -> tuple[Presheaf, PshMap]:
    """Pointwise equalizer subpresheaf with its inclusion."""
    if phi.source != psi.source or phi.target != psi.target:
        raise EndpointMismatch("equalizer needs a parallel pair")
    p = phi.source
    values = {
        a: p.values[a].subset(lambda u, a=a: phi.components[a](u) == psi.components[a](u))
        for a in p.base.objects
    }
    eq = presheaf_from_rule(p.base, values, lambda m, u: p.restriction[m](u))
    return eq, pshmap_from_rule(eq, p, lambda a, u: u)


def psh_pullback(phi: PshMap, psi: PshMap) -> tuple[Presheaf, PshMap, PshMap]:
    """Pullback of phi: p -> r and psi: q -> r, with projections: the
    equalizer of pi1 then phi and pi2 then psi on the product p x q."""
    if phi.target != psi.target:
        raise EndpointMismatch("pullback needs a cospan")
    _, pi1, pi2 = psh_product(phi.source, psi.source)
    pb, incl = psh_equalizer(pi1.then(phi), pi2.then(psi))
    return pb, incl.then(pi1), incl.then(pi2)


def psh_coproduct(p: Presheaf, q: Presheaf) -> tuple[Presheaf, PshMap, PshMap]:
    """Pointwise tagged union with injections."""
    if p.base != q.base:
        raise EndpointMismatch("presheaves live on different bases")
    values = {
        a: FinSet.sigma(range(2), (p.values[a], q.values[a]).__getitem__)
        for a in p.base.objects
    }
    cop = presheaf_from_rule(
        p.base, values, lambda m, tu: (tu[0], (p, q)[tu[0]].restriction[m](tu[1]))
    )
    in1 = pshmap_from_rule(p, cop, lambda a, u: (0, u))
    return cop, in1, pshmap_from_rule(q, cop, lambda a, v: (1, v))


# -- combinators for functors into presheaves -------------------------------------


def pvf_constant(source: FinCat, p: Presheaf) -> PshValuedFunctor:
    return PshValuedFunctor(
        source,
        p.base,
        {x: p for x in source.objects},
        {m: PshMap.identity(p) for m in source.morphisms()},
        check=False,
    )


def _pointwise(a: PshValuedFunctor, b: PshValuedFunctor, build, act) -> PshValuedFunctor:
    """x -> build(a(x), b(x))[0], built once per distinct pair of images (by
    identity), so objects with the same images share one presheaf; along m
    its component at an object c sends u to act(m, c, u)."""
    if a.source != b.source or a.target_base != b.target_base:
        raise EndpointMismatch("functors are not parallel")
    src = a.source
    built: dict[tuple[int, int], Presheaf] = {}
    on_obj = {}
    for x in src.objects:
        p, q = a.on_obj[x], b.on_obj[x]
        key = (id(p), id(q))  # a and b keep p and q alive, so ids are not reused
        if key not in built:
            built[key] = build(p, q)[0]
        on_obj[x] = built[key]
    on_mor = {
        m: pshmap_from_rule(on_obj[src.src(m)], on_obj[src.tgt(m)], functools.partial(act, m))
        for m in src.morphisms()
    }
    return PshValuedFunctor(src, a.target_base, on_obj, on_mor, check=False)


def pvf_coproduct(a: PshValuedFunctor, b: PshValuedFunctor) -> PshValuedFunctor:
    """Pointwise coproduct; functorial because the injections are natural."""
    return _pointwise(
        a, b, psh_coproduct,
        lambda m, c, tu: (tu[0], (a, b)[tu[0]].on_mor[m].components[c](tu[1])),
    )


def pvf_product(a: PshValuedFunctor, b: PshValuedFunctor) -> PshValuedFunctor:
    """Pointwise product on lexicographic pair sets."""
    return _pointwise(
        a, b, psh_product,
        lambda m, c, uv: (a.on_mor[m].components[c](uv[0]), b.on_mor[m].components[c](uv[1])),
    )


# -- exhaustive enumeration of natural maps -------------------------------------

NODE_BUDGET = 2_000_000  # candidate components tried per enumeration


def enumerate_families(slots, constraints) -> list[dict]:
    """Every assignment of one FinFn per slot that satisfies the constraints.

    slots: list of (key, domain FinSet, codomain FinSet), assigned in order;
    constraints: list of (keys_involved, predicate(assignment) -> bool);
      a predicate runs as soon as all its keys are assigned.
    Candidates are streamed in canonical order; trying more than NODE_BUDGET
    of them raises BoundExceeded.
    """
    results = []
    assignment: dict = {}
    by_key: dict = {}
    for keys, pred in constraints:
        for k in dict.fromkeys(keys):  # once per distinct key
            by_key.setdefault(k, []).append((keys, pred))
    nodes = 0

    def extend(i):
        nonlocal nodes
        if i == len(slots):
            results.append(dict(assignment))
            return
        key, dom, cod = slots[i]
        for images in itertools.product(cod.elements, repeat=len(dom)):
            nodes += 1
            if nodes > NODE_BUDGET:
                raise BoundExceeded(
                    f"enumeration tried more than {NODE_BUDGET} candidate components"
                )
            assignment[key] = FinFn(dom, cod, zip(dom.elements, images))
            if all(
                pred(assignment)
                for keys, pred in by_key.get(key, [])
                if all(k in assignment for k in keys)
            ):
                extend(i + 1)
            del assignment[key]

    extend(0)
    return results


def natural_families(members, arrows) -> list[dict]:
    """Every family of natural maps source -> target, one per member,
    that commutes with every arrow.

    members: list of (key, source presheaf, target presheaf), all over one base;
    arrows: list of (s, t, phi, psi) with phi: source(s) -> source(t) and
      psi: target(s) -> target(t), asking that phi then the map at t equal
      the map at s then psi.
    Each result maps every member key to its PshMap.  Components are slots
    (key, a) assigned member by member; naturality squares are checked as
    soon as both endpoints are assigned, which prunes the search enough for
    desk-scale value sets.
    """
    slots = [((key, a), p.values[a], q.values[a]) for key, p, q in members for a in p.base.objects]
    constraints = []
    for key, p, q in members:
        for m in p.base.morphisms():
            if p.base.is_identity(m):
                continue
            s, t = p.base.src(m), p.base.tgt(m)

            def natural(asg, key=key, p=p, q=q, m=m, s=s, t=t):
                return p.restriction[m].then(asg[(key, s)]) == asg[(key, t)].then(q.restriction[m])

            constraints.append(([(key, s), (key, t)], natural))
    for s, t, phi, psi in arrows:
        for a in phi.source.base.objects:

            def commutes(asg, s=s, t=t, phi=phi, psi=psi, a=a):
                return phi.components[a].then(asg[(t, a)]) == asg[(s, a)].then(psi.components[a])

            constraints.append(([(s, a), (t, a)], commutes))
    return [
        {key: PshMap(p, q, {a: fam[(key, a)] for a in p.base.objects}, check=False)
         for key, p, q in members}
        for fam in enumerate_families(slots, constraints)
    ]


def all_psh_maps(p: Presheaf, q: Presheaf) -> list[PshMap]:
    """Every natural transformation p -> q, one component per base object."""
    return [fam[None] for fam in natural_families([(None, p, q)], [])]


# -- preservation checks ---------------------------------------------------------


def _comparison(source: Presheaf, target: Presheaf, image, missing: str) -> PshMap:
    """The map u -> image(a, u) from source into target; ValueError naming the
    first u whose image is not in target."""
    comps = {}
    for a in source.base.objects:
        table = {u: image(a, u) for u in source.values[a]}
        for u, v in table.items():
            if v not in target.values[a]:
                raise ValueError(f"image of {u!r} at {a!r} {missing}")
        comps[a] = FinFn(source.values[a], target.values[a], table)
    return PshMap(source, target, comps, check=False)


@memo_scope()
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
        cmp_map = psh_terminal_map(f.on_obj[t])
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
        prod_data = psh_product(f.on_obj[a], f.on_obj[b])
        cmp_map = psh_pair(f.on_mor[pi1], f.on_mor[pi2], prod_data)
        if cmp_map.source != f.on_obj[axb] or cmp_map.target != prod_data[0]:
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
        _, pi1, pi2 = psh_product(p, q)
        target_prod_data = psh_product(kan_extend(f, p), kan_extend(f, q))
        cmp_map = psh_pair(kan_extend_map(f, pi1), kan_extend_map(f, pi2), target_prod_data)
        report.record("comparison-iso", cmp_map.iso_witness())
    elif kind == "kan_equalizer":
        phi, psi = instance
        _, incl = psh_equalizer(phi, psi)
        target, _ = psh_equalizer(kan_extend_map(f, phi), kan_extend_map(f, psi))
        kincl = kan_extend_map(f, incl)
        # the comparison lands in the pointwise equalizer of the extended pair
        cmp_map = report.build(
            "comparison-defined", _comparison,
            kincl.source, target, lambda a, u: kincl.components[a](u), "is not equalized",
        )
        if cmp_map is not None:
            report.record("comparison-iso", cmp_map.iso_witness())
    elif kind == "kan_pullback":
        phi, psi = instance
        _, pr1, pr2 = psh_pullback(phi, psi)
        target, _, _ = psh_pullback(kan_extend_map(f, phi), kan_extend_map(f, psi))
        k1 = kan_extend_map(f, pr1)
        k2 = kan_extend_map(f, pr2)
        cmp_map = report.build(
            "comparison-defined", _comparison, k1.source, target,
            lambda a, u: (k1.components[a](u), k2.components[a](u)), "not in the pullback",
        )
        if cmp_map is not None:
            report.record("comparison-iso", cmp_map.iso_witness())
    else:
        raise ValueError(f"unknown preservation kind {kind!r}")
    return report

