"""Finite colimits in Set: coproducts, coequalizers, coends.

Every colimit here is a quotient of an explicit carrier, computed by one
kernel, `quotient(carrier, pairs)`: the equivalence relation generated by the
given pairs, closed with an index-ordered union-find over positions in
`carrier.elements`.  That order is the canonical label order, so naming each
class by its minimum position names it by its order-minimal member, and the
classes come out in canonical order without comparing labels again.  Results
are therefore canonical, and every downstream map on quotients can be checked
elementwise for well-definedness.

No set built here is sorted; each is canonical by construction: carriers
and coproducts are `FinSet.sigma`s, and class names the class minima in
carrier order.

A coend is a coequalizer (Mac Lane, CWM IX.6), and the relation along a
composite f = g . k follows from those along k and g: the k-relation at
H(g, 1)w and the g-relation at H(1, k)w chain up, because the interchange law
makes H(g, 1)H(1, k)w = H(1, k)H(g, 1)w the shared middle element.  So
`coend_from`, the one coend entry, takes the diagonal H(y, y) and, for each
generator f: y -> y' (`FinCat.generators`) only, the related pairs
(H(f, 1)w, H(1, f)w); that needs the integrand to be a bifunctor.
`kan_extend`, `prof_compose` and `day_convolve` read these pairs straight
off their functorial input tables -- presheaf restrictions, presheaf-map
components, profunctor actions, the monoidal composition -- so no slice
H(y', y) and no action map is built.  `coend` adapts a `Bifunctor` to it
(for the CLI, `coyoneda_iso` and `fubini_iso`), checking the bifunctor laws
unless check=False.  A `Bifunctor` may give its tables as functions of the
key, as `hom_bifunctor_with` and `restrict_bifunctor` do; `coend(check=False)`
then builds only the diagonal and the generator slices.

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
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .fincat import (
    EndpointMismatch,
    FinCat,
    FinFn,
    FinSet,
    Label,
    NonInvertible,
    _Canonical,
    generators_by_source,
    product,
)


class BifunctorialityViolation(ValueError):
    """Coend input failed the bifunctor laws; names the offending morphism pair."""


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


def coproduct(sets: list[FinSet]) -> tuple[FinSet, list[FinFn]]:
    """Tagged union; element of the i-th summand x becomes (i, x)."""
    total = FinSet.sigma(range(len(sets)), sets.__getitem__)
    injections = [
        FinFn(s, total, {x: (i, x) for x in s}) for i, s in enumerate(sets)
    ]
    return total, injections


def coequalizer(f: FinFn, g: FinFn) -> QuotientSet:
    """Quotient of the shared codomain by the equivalence generated by f(a) ~ g(a)."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise EndpointMismatch("coequalizer needs a parallel pair")
    return quotient(f.codomain, ((f(a), g(a)) for a in f.domain))


def factor_through_quotient(q: QuotientSet, h: FinFn) -> FinFn:
    """The unique map out of the quotient with h = factor . projection.

    Raises ValueError when h does not respect the equivalence.
    """
    if h.domain != q.carrier:
        raise EndpointMismatch("h must be defined on the carrier")
    table: dict[Label, Label] = {}
    for cls in q.classes:
        values = {h(x) for x in cls}
        if len(values) > 1:
            raise ValueError(f"map does not coequalize: class {cls!r} has images {values!r}")
        table[cls[0]] = h(cls[0])
    return FinFn(q.quotient, h.codomain, table)


class Bifunctor:
    """Set-valued bifunctor, contravariant in `contra` and covariant in `co`.

    values[(a, b)] with a from contra, b from co;
    contra_act[(m, b)]: values[(tgt m, b)] -> values[(src m, b)];
    co_act[(a, m)]:     values[(a, src m)] -> values[(a, tgt m)].

    Each table is given either as a mapping or as a function of its key, and
    is evaluated on demand: `value`, `act_contra` and `act_co` compute an entry
    on first use and memoise it.  The `values`, `contra_act` and `co_act`
    properties materialise a whole table, for the law checks and equality;
    `coend(check=False)` never does.
    """

    def __init__(self, contra: FinCat, co: FinCat, values, contra_act, co_act):
        self.contra = contra
        self.co = co
        tables = (values, contra_act, co_act)
        # per table: the memo, and the function still to fill it (None once complete)
        self._memo = [{} if callable(t) else dict(t) for t in tables]
        self._fill = [t if callable(t) else None for t in tables]

    def _entry(self, which: int, key):
        memo = self._memo[which]
        if key not in memo and self._fill[which] is not None:
            memo[key] = self._fill[which](key)
        return memo[key]

    def _table(self, which: int, keys: Iterable) -> Mapping:
        if self._fill[which] is not None:
            self._memo[which] = {k: self._entry(which, k) for k in keys}
            self._fill[which] = None
        return MappingProxyType(self._memo[which])

    def value(self, a: Label, b: Label) -> FinSet:
        return self._entry(0, (a, b))

    def act_contra(self, m: Label, b: Label) -> FinFn:
        return self._entry(1, (m, b))

    def act_co(self, a: Label, m: Label) -> FinFn:
        return self._entry(2, (a, m))

    @property
    def values(self) -> Mapping[tuple[Label, Label], FinSet]:
        return self._table(0, ((a, b) for a in self.contra.objects for b in self.co.objects))

    @property
    def contra_act(self) -> Mapping[tuple[Label, Label], FinFn]:
        return self._table(1, ((m, b) for m in self.contra.morphisms() for b in self.co.objects))

    @property
    def co_act(self) -> Mapping[tuple[Label, Label], FinFn]:
        return self._table(2, ((a, m) for a in self.contra.objects for m in self.co.morphisms()))

    def __eq__(self, other):
        return (
            isinstance(other, Bifunctor)
            and self.contra == other.contra
            and self.co == other.co
            and self.values == other.values
            and self.contra_act == other.contra_act
            and self.co_act == other.co_act
        )


def _is_composite(fn: FinFn, first: FinFn, second: FinFn) -> bool:
    """fn == first.then(second), compared elementwise without building the composite."""
    if first.codomain != second.domain:
        raise EndpointMismatch("composition endpoints do not match")
    if fn.domain != first.domain or fn.codomain != second.codomain:
        return False
    a, b = first._table, second._table
    return all(b[a[x]] == y for x, y in fn._table.items())


def bifunctor_violations(h: Bifunctor) -> list[str]:
    """The identity, composition and interchange laws that h fails.

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
    contra, co = h.contra, h.co
    for (a, b), s in h.values.items():
        ia, ib = contra.id_of(a), co.id_of(b)
        if h.act_contra(ia, b) != FinFn.identity(s):
            out.append(f"contra identity fails at ({a!r}, {b!r})")
        if h.act_co(a, ib) != FinFn.identity(s):
            out.append(f"co identity fails at ({a!r}, {b!r})")
    contra_gens, co_gens = set(contra.generators()), set(co.generators())
    for g, f in contra.composable_pairs():
        if g not in contra_gens:
            continue
        for b in co.objects:
            lhs = h.act_contra(contra.comp[(g, f)], b)
            if not _is_composite(lhs, h.act_contra(g, b), h.act_contra(f, b)):
                out.append(f"contra composition fails at ({g!r}, {f!r}) with {b!r}")
    for g, f in co.composable_pairs():
        if g not in co_gens:
            continue
        for a in contra.objects:
            lhs = h.act_co(a, co.comp[(g, f)])
            if not _is_composite(lhs, h.act_co(a, f), h.act_co(a, g)):
                out.append(f"co composition fails at ({g!r}, {f!r}) with {a!r}")
    for m in contra.generators():
        for n in co.generators():
            # interchange: the two ways around the square agree
            a0, a1 = contra.src(m), contra.tgt(m)
            lhs = h.act_contra(m, co.src(n)).then(h.act_co(a0, n))
            rhs = h.act_co(a1, n).then(h.act_contra(m, co.tgt(n)))
            if lhs != rhs:
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


def coend(base: FinCat, h: Bifunctor, check: bool = True) -> QuotientSet:
    """`coend_from` for a `Bifunctor`: its diagonal, and the pairs
    (H(f, id)(w), H(id, f)(w)) for w in H(y', y) along each generator
    f: y -> y'.  check=True first verifies that h is a bifunctor;
    check=False takes it on trust.
    """
    if h.contra != base or h.co != base:
        raise EndpointMismatch("coend needs a bifunctor over the base on both sides")
    if check:
        bad = bifunctor_violations(h)
        if bad:
            raise BifunctorialityViolation(bad[0])

    def related(f):
        y, y1 = base.src(f), base.tgt(f)
        left, right = h.act_contra(f, y), h.act_co(y1, f)  # H(y', y) -> H(y, y), H(y', y')
        return ((left(w), right(w)) for w in h.value(y1, y))

    return coend_from(base, lambda y: h.value(y, y), related)


def induced_map(
    source: QuotientSet,
    target_codomain: FinSet,
    elementwise: Callable[[Label], Label],
    check: bool = True,
) -> FinFn:
    """Map on quotient classes defined by an elementwise rule on the carrier.

    Well-definedness (constancy on classes) is verified, not assumed.
    """
    table: dict[Label, Label] = {}
    for cls in source.classes:
        images = {elementwise(x) for x in cls} if check else {elementwise(cls[0])}
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


def hom_bifunctor_with(
    base: FinCat,
    value_at: Callable[[Label], FinSet],
    act: Callable[[Label], FinFn],
    x: Label,
    covariant: bool,
) -> Bifunctor:
    """The integrand of the co-Yoneda coend, elements (hom morphism, value).

    covariant=True:  B(y', y) = base[y', x] x F(y), F covariant
                     (hom is the contravariant factor, F the covariant one)
    covariant=False: B(y', y) = F(y') x base[x, y], F a presheaf
                     (F is the contravariant factor, hom the covariant one)
    """

    @functools.cache
    def value(key):
        a, b = key
        hom = base.hom[(a, x)] if covariant else base.hom[(x, b)]
        val = value_at(b) if covariant else value_at(a)
        return FinSet.product(hom, val)

    def contra(key):
        f, b = key
        dom = value((base.tgt(f), b))
        if covariant:
            table = {(m, v): (base.comp[(m, f)], v) for (m, v) in dom}
        else:
            fn = act(f)  # restriction F(tgt f) -> F(src f)
            table = {(m, v): (m, fn(v)) for (m, v) in dom}
        return FinFn(dom, value((base.src(f), b)), table)

    def co(key):
        a, f = key
        dom = value((a, base.src(f)))
        if covariant:
            fn = act(f)  # action F(src f) -> F(tgt f)
            table = {(m, v): (m, fn(v)) for (m, v) in dom}
        else:
            table = {(m, v): (base.comp[(f, m)], v) for (m, v) in dom}
        return FinFn(dom, value((a, base.tgt(f))), table)

    return Bifunctor(base, base, value, contra, co)


def coyoneda_iso(
    base: FinCat,
    value_at: Callable[[Label], FinSet],
    act: Callable[[Label], FinFn],
    x: Label,
    covariant: bool = True,
) -> tuple[QuotientSet, FinFn]:
    """The density bijection at x.

    Covariant F:  int^y base[y, x] x F(y)  -> F(x),   class(y,(g,v)) -> F(g)(v).
    Presheaf  F:  int^y base[x, y] x F(y)  -> F(x),   class(y,(g,v)) -> F(g)(v).

    `act(f)` must be F's action: F(src f) -> F(tgt f) in the covariant case
    and F(tgt f) -> F(src f) in the presheaf case.  Bijectivity is verified.
    """
    h = hom_bifunctor_with(base, value_at, act, x, covariant)
    result = coend(base, h, check=False)

    def rule(pair: Label) -> Label:
        y, (g, v) = pair
        return act(g)(v)

    fn = induced_map(result, value_at(x), rule)
    if not fn.is_iso():
        raise NonInvertible(f"co-Yoneda comparison at {x!r} is not a bijection")
    return result, fn


def restrict_bifunctor(joint: Bifunctor, base_left: FinCat, base_right: FinCat):
    """Split a bifunctor over a product category into slice data for iteration."""
    # For fixed outer pair (a-, a+) in base_left, the inner bifunctor over base_right,
    # reading the joint tables on demand.
    def inner(a_minus: Label, a_plus: Label) -> Bifunctor:
        id_minus, id_plus = base_left.id_of(a_minus), base_left.id_of(a_plus)
        return Bifunctor(
            base_right,
            base_right,
            lambda key: joint.value((a_minus, key[0]), (a_plus, key[1])),
            lambda key: joint.act_contra((id_minus, key[0]), (a_plus, key[1])),
            lambda key: joint.act_co((a_minus, key[0]), (id_plus, key[1])),
        )

    return inner


def fubini_iso(
    base_left: FinCat, base_right: FinCat, joint: Bifunctor, check: bool = True
) -> tuple[QuotientSet, QuotientSet, FinFn]:
    """Single coend over base_left x base_right versus iterated (inner right, outer left).

    Returns (joint coend, outer coend, bijection joint -> iterated) where the
    iterated result's elements are classes of (a, class of (b, w)).
    """
    prod = product(base_left, base_right)
    if joint.contra != prod or joint.co != prod:
        raise EndpointMismatch("joint bifunctor must live over the product category")
    if check:
        bad = bifunctor_violations(joint)
        if bad:
            raise BifunctorialityViolation(bad[0])
    joint_result = coend(prod, joint, check=False)

    inner_of = restrict_bifunctor(joint, base_left, base_right)

    @functools.cache
    def inner(key: tuple[Label, Label]) -> QuotientSet:
        return coend(base_right, inner_of(*key), check=False)

    # outer bifunctor over base_left: K(a-, a+) = inner coend, actions induced
    def contra(key):
        m, b = key
        cod_res = inner((base_left.src(m), b))

        def rule(pair):
            y, w = pair
            moved = joint.act_contra((m, base_right.id_of(y)), (b, y))(w)
            return cod_res.representative((y, moved))

        return induced_map(inner((base_left.tgt(m), b)), cod_res.quotient, rule)

    def co(key):
        a, m = key
        cod_res = inner((a, base_left.tgt(m)))

        def rule(pair):
            y, w = pair
            moved = joint.act_co((a, y), (m, base_right.id_of(y)))(w)
            return cod_res.representative((y, moved))

        return induced_map(inner((a, base_left.src(m))), cod_res.quotient, rule)

    outer = Bifunctor(base_left, base_left, lambda key: inner(key).quotient, contra, co)
    outer_result = coend(base_left, outer, check=False)

    def comparison(pair: Label) -> Label:
        (a, b), w = pair
        return outer_result.representative((a, inner((a, a)).representative((b, w))))

    fn = induced_map(joint_result, outer_result.quotient, comparison)
    if not fn.is_iso():
        raise NonInvertible("Fubini comparison is not a bijection")
    return joint_result, outer_result, fn
