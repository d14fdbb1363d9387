"""Finite colimits in Set: quotients and coends.

Every colimit here is a quotient of an explicit carrier, computed by one
kernel, `quotient(carrier, pairs)`: the equivalence relation generated by the
given pairs, closed with an index-ordered union-find over positions in
`carrier.elements`.  That order is the canonical label order, so naming each
class by its minimum position names it by its order-minimal member, and the
classes come out in canonical order without comparing labels again.  Results
are therefore canonical, and every downstream map on quotients can be checked
elementwise for well-definedness.

No set built here is sorted; each is canonical by construction: carriers
are `FinSet.sigma`s, and class names the class minima in carrier order.

A coend is a coequalizer (Mac Lane, CWM IX.6), and the relation along a
composite f = g . k follows from those along k and g: the k-relation at
H(g, 1)w and the g-relation at H(1, k)w chain up, because the interchange law
makes H(g, 1)H(1, k)w = H(1, k)H(g, 1)w the shared middle element.  So
`coend_from`, the one coend entry, takes the diagonal H(y, y) and, for each
generator f: y -> y' (`FinCat.generators`) only, the related pairs
(H(f, 1)w, H(1, f)w); that needs the integrand to be a bifunctor.
`kan_extend`, `prof_compose` and `day_convolve` read these pairs straight
off their functorial input tables -- presheaf restrictions, presheaf-map
components, profunctor actions, hom composition, the monoidal composition --
so no slice H(y', y) and no action map is built.  A bifunctor
C^op x C -> Set is an endo-profunctor (`prof.Profunctor`), the one form in
which a whole integrand is given: `coend` reads the pairs off its tables and
trusts its laws, which `bifunctor_violations`, the one law scan behind
`Profunctor(check=True)`, has checked when it was built or loaded.

A coend is returned as its `QuotientSet`, and everything built from coends
keeps them, one per parameter key, in a `quotients` field (`Presheaf`,
`Profunctor`, `SymSeq`).  The actions of a coend with parameters, as in
`kan_extend`, `prof_compose`, `day_convolve` and substitution, come from
`induced_actions`: checked along generators, composed along the rest.  Every
structural cell between coends -- unit, multiplication and theta, the
associators and unitors, the Day and substitution comparisons -- is induced
by a map of integrands, and its components come from `induced_components`.

Nothing here caches a coend.  The builders that compute them again for the
same arguments -- `kan_extend`, `kleisli_compose`, `day_convolve` and
`subst_compose` -- are `fincat.memoised`: inside a `fincat.memo_scope`, which
every check and cell builder opens (and `suites` around each instance), each
is computed once per identity of its arguments, and the memo with its coends
is dropped when the outermost scope closes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .fincat import (
    EndpointMismatch,
    FinCat,
    FinFn,
    FinSet,
    Label,
    NonInvertible,
    _Canonical,
    generator_pairs,
    generators_by_source,
)


@dataclass(frozen=True)
class QuotientSet:
    """A quotient of a carrier set; classes are named by their minimal member.

    Built from `roots`: roots[i] is the carrier position of the minimal member
    of the class of position i.  Members and classes are stored in canonical
    order (by carrier position).
    """

    carrier: FinSet
    classes: tuple[tuple[Label, ...], ...]
    projection: FinFn = field(compare=False)

    def __init__(self, carrier: FinSet, roots: list[int]):
        elems = carrier.elements
        groups: dict[int, list[Label]] = {}
        table: dict[Label, Label] = {}
        for i, r in enumerate(roots):
            if r == i:
                groups[i] = [elems[i]]
            elif 0 <= r < i and roots[r] == r:
                groups[r].append(elems[i])
            else:
                raise ValueError(f"position {i} has root {r}, not its class minimum")
            table[elems[i]] = elems[r]
        classes = tuple(map(tuple, groups.values()))
        proj = FinFn(carrier, FinSet(_Canonical(c[0] for c in classes)), table)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "projection", proj)

    @property
    def quotient(self) -> FinSet:
        return self.projection.codomain

    def representative(self, element: Label) -> Label:
        """Class name (minimal member) of a carrier element."""
        return self.projection(element)


def quotient(carrier: FinSet, pairs: Iterable[tuple[Label, Label]]) -> QuotientSet:
    """The carrier modulo the equivalence relation generated by `pairs`.

    Union-find over carrier positions: a node's parent is never above it, so
    the root of a class is its minimum position, i.e. its minimal member in
    canonical order, and one scan in position order reads every root off its
    parent's.  Pass generating relations only; the closure supplies the rest.
    A related label outside the carrier raises ValueError naming it.
    """
    elems = carrier.elements
    pos = {x: i for i, x in enumerate(elems)}
    parent = list(range(len(elems)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    for a, b in pairs:
        try:
            ia, ib = pos[a], pos[b]
        except KeyError as exc:
            raise ValueError(f"related label {exc.args[0]!r} is not in the carrier") from None
        ra, rb = find(ia), find(ib)
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb
    for i, p in enumerate(parent):  # parent[p] is already a root, as p <= i
        parent[i] = parent[p]
    return QuotientSet(carrier, parent)


def _is_composite(fn: FinFn, first: FinFn, second: FinFn) -> bool:
    """fn == first.then(second), compared elementwise without building the composite."""
    if first.codomain != second.domain:
        raise EndpointMismatch("composition endpoints do not match")
    if fn.domain != first.domain or fn.codomain != second.codomain:
        return False
    a, b = first._table, second._table
    return all(b[a[x]] == y for x, y in fn._table.items())


def _same_composites(f1: FinFn, g1: FinFn, f2: FinFn, g2: FinFn) -> bool:
    """f1.then(g1) == f2.then(g2), compared elementwise without building either."""
    for first, second in ((f1, g1), (f2, g2)):
        if first.codomain != second.domain:
            raise EndpointMismatch("composition endpoints do not match")
    if f1.domain != f2.domain or g1.codomain != g2.codomain:
        return False
    a1, b1, a2, b2 = f1._table, g1._table, f2._table, g2._table
    return all(b1[a1[x]] == b2[a2[x]] for x in a1)


def bifunctor_violations(p) -> list[str]:
    """The identity, composition and interchange laws that the profunctor p
    (`prof.Profunctor`) fails, read off its tables: contravariant in p.target
    through left_act[(m, b)], covariant in p.source through right_act[(a, m)].

    The identity law is checked on every object, the composition law on the
    composable pairs (g, m) with g a generator (`FinCat.generators`) and m any
    morphism, interchange on pairs of generators only.  That suffices: given
    the identity law, writing g as a word g1 . ... . gk of generators and
    inducting on k gives act(g . m) = act(g1) act(g2 ... gk . m) = act(g) act(m)
    for every pair; and given functoriality, an identity's square commutes and
    the square of g . f pastes from those of f and g.  So this finds a
    violation exactly when an all-pairs check would, though it may name a
    different pair.
    """
    out: list[str] = []
    contra, co = p.target, p.source
    left, right = p.left_act, p.right_act
    for (a, b), s in p.values.items():
        for side, fn in (("contra", left[(contra.id_of(a), b)]), ("co", right[(a, co.id_of(b))])):
            # fn == FinFn.identity(s), compared elementwise without building the identity
            if not (fn.domain == s == fn.codomain and all(x == y for x, y in fn._table.items())):
                out.append(f"{side} identity fails at ({a!r}, {b!r})")
    for g, f in generator_pairs(contra):
        for b in co.objects:
            if not _is_composite(left[(contra.comp[(g, f)], b)], left[(g, b)], left[(f, b)]):
                out.append(f"contra composition fails at ({g!r}, {f!r}) with {b!r}")
    for g, f in generator_pairs(co):
        for a in contra.objects:
            if not _is_composite(right[(a, co.comp[(g, f)])], right[(a, f)], right[(a, g)]):
                out.append(f"co composition fails at ({g!r}, {f!r}) with {a!r}")
    for m in contra.generators():
        for n in co.generators():
            # interchange: the two ways around the square agree
            lhs = left[(m, co.src(n))], right[(contra.src(m), n)]
            rhs = right[(contra.tgt(m), n)], left[(m, co.tgt(n))]
            if not _same_composites(*lhs, *rhs):
                out.append(f"interchange fails at ({m!r}, {n!r})")
    return out


def coend_from(base: FinCat, diagonal, related) -> QuotientSet:
    """The coend of a bifunctor H over base, given by its generating relations.

    diagonal(y) lists H(y, y) in canonical order; related(f), for each
    generator f: y -> y' (`FinCat.generators`), yields the pairs
    (H(f, 1)w, H(1, f)w) of H(y, y) x H(y', y') for w in H(y', y), in any
    order.  Relations along composites follow when H is a bifunctor, which
    the caller vouches for.  The result is the quotient of the carrier
    {(y, w) : w in H(y, y)}; classes are named by their minimal member
    (minimum carrier position).
    """
    carrier = FinSet.sigma(base.objects, diagonal)

    def relations():
        for f in base.generators():
            y, y1 = base.src(f), base.tgt(f)
            for a, b in related(f):
                yield (y, a), (y1, b)

    return quotient(carrier, relations())


def coend(base: FinCat, p) -> QuotientSet:
    """`coend_from` for an endo-profunctor p on base (`prof.Profunctor`): its
    diagonal, and the pairs (p(f, id)(w), p(id, f)(w)) for w in p(y', y)
    along each generator f: y -> y'.  The laws are taken on trust, as a
    checked `Profunctor` or a loaded payload has passed `bifunctor_violations`.
    """
    if p.target != base or p.source != base:
        raise EndpointMismatch("coend needs a bifunctor over the base on both sides")

    def related(f):
        y, y1 = base.src(f), base.tgt(f)
        left, right = p.left_act[(f, y)], p.right_act[(y1, f)]  # p(y', y) -> p(y, y), p(y', y')
        return ((left(w), right(w)) for w in p.values[(y1, y)])

    return coend_from(base, lambda y: p.values[(y, y)], related)


def induced_map(
    source: QuotientSet,
    target_codomain: FinSet,
    elementwise: Callable[[Label], Label],
) -> FinFn:
    """Map on quotient classes defined by an elementwise rule on the carrier.

    Well-definedness (constancy on classes) is verified, not assumed.
    """
    table: dict[Label, Label] = {}
    for cls in source.classes:
        images = {elementwise(x) for x in cls}
        if len(images) > 1:
            raise ValueError(
                f"elementwise rule is not constant on class {cls!r}: {sorted(map(repr, images))}"
            )
        table[cls[0]] = next(iter(images))
    return FinFn(source.quotient, target_codomain, table)


def induced_components(
    quotients: Mapping[Label, QuotientSet],
    codomains: Mapping[Label, FinSet],
    rule: Callable[[Label, Label], Label],
    bijection: str | None = None,
) -> dict[Label, FinFn]:
    """The components of a map between coends induced by a map of integrands.

    At each key of `quotients`, in its order, `induced_map` sends the classes
    of quotients[key] into codomains[key] by rule(key, x), checked on every
    member of every class.  This is exact because a coend is functorial in its
    integrand (Loregian, *(Co)end Calculus*, LMS LN 468, 2021, sec. 1).  When
    `bijection` names the comparison, the first component that is not a
    bijection raises NonInvertible.
    """
    comps = {}
    for key, q in quotients.items():
        fn = induced_map(q, codomains[key], functools.partial(rule, key))
        if bijection is not None and not fn.is_iso():
            raise NonInvertible(f"{bijection} at {key!r} is not a bijection")
        comps[key] = fn
    return comps


def induced_actions(cat: FinCat, quotient_at, rule, contravariant: bool) -> dict[Label, FinFn]:
    """The action of a coend with a parameter in `cat`, one map per morphism
    in `cat.morphisms()` order.  quotient_at(a) is the value at object a;
    rule(m, x) sends a carrier element x at the source of m (its target, if
    contravariant) to its class at the other end.

    Only generators (`FinCat.generators`) run `induced_map`, with its check on
    every member of every class.  Identities act as identities, and each other
    morphism g . r, reached breadth-first, acts as act(r) then act(g) (act(g)
    then act(r), if contravariant).  This is exact: a coend with parameters is
    strictly functorial in them (Mac Lane, CWM IX.7), as is the carrier action
    at every caller, so a carrier map that respects classes along each
    generator respects them along their composites and induces the composite
    of their maps.  Checking well-definedness on generators therefore suffices.
    """
    acts = {cat.id_of(a): FinFn.identity(quotient_at(a).quotient) for a in cat.objects}
    for g in cat.generators():
        s, t = (cat.tgt(g), cat.src(g)) if contravariant else (cat.src(g), cat.tgt(g))
        acts[g] = induced_map(quotient_at(s), quotient_at(t).quotient, functools.partial(rule, g))
    by_src = generators_by_source(cat)
    queue = list(acts)  # breadth-first: grows while it is read
    for r in queue:
        for g in by_src[cat.tgt(r)]:
            m = cat.comp[(g, r)]
            if m not in acts:
                acts[m] = acts[g].then(acts[r]) if contravariant else acts[r].then(acts[g])
                queue.append(m)
    return {m: acts[m] for m in cat.morphisms()}
