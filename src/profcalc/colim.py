"""Finite colimits in Set: coproducts, coequalizers, coends.

Every colimit here is a quotient of an explicit carrier, computed by one
kernel, `quotient(carrier, pairs)`: the equivalence relation generated by the
given pairs, closed with an index-ordered union-find over positions in
`carrier.elements`.  That order is the canonical label order (`FinSet` sorts
by `label_key`), so naming each class by its minimum position names it by
its order-minimal member, and the classes come out in canonical order
without comparing labels again.  Results are therefore canonical, and every
downstream map on quotients can be checked elementwise for well-definedness.

A coend is a coequalizer (Mac Lane, CWM IX.6), and the relation along a
composite f = g . k follows from those along k and g: the k-relation at
H(g, 1)w and the g-relation at H(1, k)w chain up, because the interchange law
makes H(g, 1)H(1, k)w = H(1, k)H(g, 1)w the shared middle element.  So
`coend` relates only along a generating set of the base (`FinCat.generators`).
That needs the integrand to be a bifunctor: `coend(check=True)` verifies it,
and with check=False the caller vouches for it, as the internal callers do by
building their integrands from functorial data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .fincat import (
    EndpointMismatch,
    FinCat,
    FinFn,
    FinSet,
    Label,
    NonInvertible,
    product,
)


class BifunctorialityViolation(ValueError):
    """Coend input failed the bifunctor laws; names the offending morphism pair."""


@dataclass(frozen=True)
class QuotientSet:
    """A quotient of a carrier set; classes are named by their minimal member.

    `classes` may list the blocks of the partition in any order; they are
    stored in canonical order (members and classes by carrier position).
    """

    carrier: FinSet
    classes: tuple[tuple[Label, ...], ...]
    projection: FinFn = field(compare=False)

    def __init__(self, carrier: FinSet, classes):
        block_of: dict[Label, int] = {}
        count = 0
        for i, block in enumerate(classes):
            for x in block:
                block_of[x] = i
            count += len(block)
        if count != len(carrier) or block_of.keys() != carrier._index:
            raise ValueError("classes do not partition the carrier")
        groups: dict[int, list[Label]] = {}
        for x in carrier.elements:
            groups.setdefault(block_of[x], []).append(x)
        classes = tuple(map(tuple, groups.values()))
        proj = FinFn(
            carrier,
            FinSet(c[0] for c in classes),
            {x: c[0] for c in classes for x in c},
        )
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

    Union-find over carrier positions: the root of a class is always its
    minimum position, i.e. its minimal member in canonical order, and classes
    are emitted by scanning positions, so they arrive in canonical order.
    Pass generating relations only; the closure supplies the rest.
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
        ra, rb = find(pos[a]), find(pos[b])
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb
    classes: dict[int, list[Label]] = {}
    for i, x in enumerate(elems):
        classes.setdefault(find(i), []).append(x)
    return QuotientSet(carrier, classes.values())


def coproduct(sets: list[FinSet]) -> tuple[FinSet, list[FinFn]]:
    """Tagged union; element of the i-th summand x becomes (i, x)."""
    total = FinSet((i, x) for i, s in enumerate(sets) for x in s)
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


@dataclass(frozen=True)
class Bifunctor:
    """Set-valued bifunctor, contravariant in `contra` and covariant in `co`.

    values[(a, b)] with a from contra, b from co;
    contra_act[(m, b)]: values[(tgt m, b)] -> values[(src m, b)];
    co_act[(a, m)]:     values[(a, src m)] -> values[(a, tgt m)].
    """

    contra: FinCat
    co: FinCat
    values: dict[tuple[Label, Label], FinSet]
    contra_act: dict[tuple[Label, Label], FinFn]
    co_act: dict[tuple[Label, Label], FinFn]

    def __init__(self, contra, co, values, contra_act, co_act):
        object.__setattr__(self, "contra", contra)
        object.__setattr__(self, "co", co)
        object.__setattr__(self, "values", dict(values))
        object.__setattr__(self, "contra_act", dict(contra_act))
        object.__setattr__(self, "co_act", dict(co_act))

    def value(self, a: Label, b: Label) -> FinSet:
        return self.values[(a, b)]

    def act_contra(self, m: Label, b: Label) -> FinFn:
        return self.contra_act[(m, b)]

    def act_co(self, a: Label, m: Label) -> FinFn:
        return self.co_act[(a, m)]

    def __eq__(self, other):
        return (
            isinstance(other, Bifunctor)
            and self.contra == other.contra
            and self.co == other.co
            and self.values == other.values
            and self.contra_act == other.contra_act
            and self.co_act == other.co_act
        )


def bifunctor_violations(h: Bifunctor) -> list[str]:
    out: list[str] = []
    contra, co = h.contra, h.co
    for (a, b), s in h.values.items():
        ia, ib = contra.id_of(a), co.id_of(b)
        if h.contra_act[(ia, b)] != FinFn.identity(s):
            out.append(f"contra identity fails at ({a!r}, {b!r})")
        if h.co_act[(a, ib)] != FinFn.identity(s):
            out.append(f"co identity fails at ({a!r}, {b!r})")
    for g, f in contra.composable_pairs():
        for b in co.objects:
            lhs = h.contra_act[(contra.comp[(g, f)], b)]
            rhs = h.contra_act[(g, b)].then(h.contra_act[(f, b)])
            if lhs != rhs:
                out.append(f"contra composition fails at ({g!r}, {f!r}) with {b!r}")
    for g, f in co.composable_pairs():
        for a in contra.objects:
            lhs = h.co_act[(a, co.comp[(g, f)])]
            rhs = h.co_act[(a, f)].then(h.co_act[(a, g)])
            if lhs != rhs:
                out.append(f"co composition fails at ({g!r}, {f!r}) with {a!r}")
    for m in contra.morphisms():
        for n in co.morphisms():
            # interchange: the two ways around the square agree
            a0, a1 = contra.src(m), contra.tgt(m)
            lhs = h.contra_act[(m, co.src(n))].then(h.co_act[(a0, n)])
            rhs = h.co_act[(a1, n)].then(h.contra_act[(m, co.tgt(n))])
            if lhs != rhs:
                out.append(f"interchange fails at ({m!r}, {n!r})")
    return out


@dataclass(frozen=True)
class CoendResult:
    """Coend of a bifunctor with contra == co: a quotient of the diagonal union."""

    bifunctor: Bifunctor
    quotient: QuotientSet
    injections: dict[Label, FinFn]  # object y -> H(y, y) -> quotient

    def __init__(self, bifunctor, quotient, injections):
        object.__setattr__(self, "bifunctor", bifunctor)
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "injections", dict(injections))

    @property
    def value(self) -> FinSet:
        return self.quotient.quotient

    def cls(self, y: Label, w: Label) -> Label:
        """Class of the diagonal element w in H(y, y)."""
        return self.quotient.representative((y, w))


def coend(base: FinCat, h: Bifunctor, check: bool = True) -> CoendResult:
    """Quotient of the diagonal union by the generated coend relation.

    For every generator f: y -> y' of the base (`FinCat.generators`) and
    w in H(y', y) the pair (y, H(f, id)(w)) ~ (y', H(id, f)(w)) is related;
    relations along composites follow when H is a bifunctor, which
    check=True verifies and check=False takes on trust.  Classes are named
    by their minimal member (minimum carrier position).
    """
    if h.contra != base or h.co != base:
        raise EndpointMismatch("coend needs a bifunctor over the base on both sides")
    if check:
        bad = bifunctor_violations(h)
        if bad:
            raise BifunctorialityViolation(bad[0])
    carrier = FinSet((y, w) for y in base.objects for w in h.value(y, y))

    def relations():
        for f in base.generators():
            y, y1 = base.src(f), base.tgt(f)
            left = h.act_contra(f, y)   # H(y', y) -> H(y, y)
            right = h.act_co(y1, f)     # H(y', y) -> H(y', y')
            for w in h.value(y1, y):
                yield (y, left(w)), (y1, right(w))

    q = quotient(carrier, relations())
    injections = {
        y: FinFn(
            h.value(y, y),
            q.quotient,
            {w: q.representative((y, w)) for w in h.value(y, y)},
        )
        for y in base.objects
    }
    return CoendResult(h, q, injections)


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
    values = {}
    contra_act = {}
    co_act = {}
    for a in base.objects:
        for b in base.objects:
            hom = base.hom[(a, x)] if covariant else base.hom[(x, b)]
            val = value_at(b) if covariant else value_at(a)
            values[(a, b)] = FinSet((m, v) for m in hom for v in val)
    for f in base.morphisms():
        src, tgt = base.src(f), base.tgt(f)
        for b in base.objects:
            dom = values[(tgt, b)]
            cod = values[(src, b)]
            if covariant:
                table = {(m, v): (base.comp[(m, f)], v) for (m, v) in dom}
            else:
                fn = act(f)  # restriction F(tgt f) -> F(src f)
                table = {(m, v): (m, fn(v)) for (m, v) in dom}
            contra_act[(f, b)] = FinFn(dom, cod, table)
    for f in base.morphisms():
        for a in base.objects:
            dom = values[(a, base.src(f))]
            cod = values[(a, base.tgt(f))]
            if covariant:
                fn = act(f)  # action F(src f) -> F(tgt f)
                table = {(m, v): (m, fn(v)) for (m, v) in dom}
            else:
                table = {(m, v): (base.comp[(f, m)], v) for (m, v) in dom}
            co_act[(a, f)] = FinFn(dom, cod, table)
    return Bifunctor(base, base, values, contra_act, co_act)


def coyoneda_iso(
    base: FinCat,
    value_at: Callable[[Label], FinSet],
    act: Callable[[Label], FinFn],
    x: Label,
    covariant: bool = True,
) -> tuple[CoendResult, FinFn]:
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

    fn = induced_map(result.quotient, value_at(x), rule)
    if not fn.is_bijective():
        raise NonInvertible(f"co-Yoneda comparison at {x!r} is not a bijection")
    return result, fn


def restrict_bifunctor(joint: Bifunctor, base_left: FinCat, base_right: FinCat):
    """Split a bifunctor over a product category into slice data for iteration."""
    # For fixed outer pair (a-, a+) in base_left, the inner bifunctor over base_right.
    def inner(a_minus: Label, a_plus: Label) -> Bifunctor:
        values = {
            (b1, b2): joint.value((a_minus, b1), (a_plus, b2))
            for b1 in base_right.objects
            for b2 in base_right.objects
        }
        contra_act = {
            (m, b): joint.act_contra((base_left.id_of(a_minus), m), (a_plus, b))
            for m in base_right.morphisms()
            for b in base_right.objects
        }
        co_act = {
            (b, m): joint.act_co((a_minus, b), (base_left.id_of(a_plus), m))
            for m in base_right.morphisms()
            for b in base_right.objects
        }
        return Bifunctor(base_right, base_right, values, contra_act, co_act)

    return inner


def fubini_iso(
    base_left: FinCat, base_right: FinCat, joint: Bifunctor, check: bool = True
) -> tuple[CoendResult, CoendResult, FinFn]:
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
    inner_results: dict[tuple[Label, Label], CoendResult] = {}
    for a_minus in base_left.objects:
        for a_plus in base_left.objects:
            inner_results[(a_minus, a_plus)] = coend(
                base_right, inner_of(a_minus, a_plus), check=False
            )

    # outer bifunctor over base_left: K(a-, a+) = inner coend, actions induced
    values = {key: res.value for key, res in inner_results.items()}
    contra_act = {}
    co_act = {}
    for m in base_left.morphisms():
        a0, a1 = base_left.src(m), base_left.tgt(m)
        for b in base_left.objects:
            dom_res = inner_results[(a1, b)]
            cod_res = inner_results[(a0, b)]

            def rule(pair, m=m, b=b, cod_res=cod_res):
                y, w = pair
                moved = joint.act_contra((m, base_right.id_of(y)), (b, y))(w)
                return cod_res.cls(y, moved)

            contra_act[(m, b)] = induced_map(dom_res.quotient, cod_res.value, rule)
        for a in base_left.objects:
            dom_res = inner_results[(a, a0)]
            cod_res = inner_results[(a, a1)]

            def rule(pair, m=m, a=a, cod_res=cod_res):
                y, w = pair
                moved = joint.act_co((a, y), (m, base_right.id_of(y)))(w)
                return cod_res.cls(y, moved)

            co_act[(a, m)] = induced_map(dom_res.quotient, cod_res.value, rule)
    outer = Bifunctor(base_left, base_left, values, contra_act, co_act)
    outer_result = coend(base_left, outer, check=False)

    def comparison(pair: Label) -> Label:
        (a, b), w = pair
        return outer_result.cls(a, inner_results[(a, a)].cls(b, w))

    fn = induced_map(joint_result.quotient, outer_result.value, comparison)
    if not fn.is_bijective():
        raise NonInvertible("Fubini comparison is not a bijection")
    return joint_result, outer_result, fn
