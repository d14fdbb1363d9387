"""Finite colimits in Set: quotients and coends.

Every colimit here is a quotient of an explicit carrier, computed by one
kernel, `quotient(carrier, pairs)`: the equivalence relation generated by the
given pairs of carrier positions, closed with an index-ordered union-find.
That order is the canonical label order, so naming each class by its minimum
position names it by its order-minimal member, and the classes come out in
canonical order without comparing labels again.  Results are therefore
canonical, and every downstream map on quotients can be checked elementwise
for well-definedness.

No set built here is sorted; each is canonical by construction: carriers
are laid out in runs (`layout`) or `FinSet.sigma`s, and class names are the
class minima in carrier order.

A coend is a coequalizer (Mac Lane, CWM IX.6), and the relation along a
composite f = g . k follows from those along k and g: the k-relation at
H(g, 1)w and the g-relation at H(1, k)w chain up, because the interchange law
makes H(g, 1)H(1, k)w = H(1, k)H(g, 1)w the shared middle element.  So the
relations along generators (`FinCat.generators`) suffice, given a bifunctor.
One kernel, `coend_relations`, generates them for every coend: `coend`,
`product_coend` (behind `kan_extend` and `prof_compose`), Day convolution and
substitution.  A carrier is laid out in runs, one per object (or key), by
`layout` (Day and substitution: values x hom set) or, for `product_coend`'s
two-axis runs, inline; a member's position is the sum of its shares along
its run's axes (`run_axes`).  A carrier from `layout` (`RunCarrier`) is its
runs and axes, not its member labels: it decodes positions into labels only
when asked, by mixed-radix arithmetic, and has no label index, so every map
into it reads its image positions off the run layout.  Its quotient decodes
only its class names (`QuotientSet`).  Along a generator m: y -> y' the
relations are indexed by a product W of finite sets, and each axis of W has
one digit map into run y and one into run y':
an identity, an action gathered along a `FinFn`'s positions (`gather`), or
composition with a fixed morphism on the hom axis (`postcompose`;
restriction is `precompose_image`) (Loregian, *(Co)end Calculus*, LMS LN
468, 2021, sec. 1).  No slice H(y', y) and no action map is built, and no
label is looked up per relation.  A bifunctor
C^op x C -> Set is an endo-profunctor (`prof.Profunctor`), the one form in
which a whole integrand is given: `coend` reads its digit maps off its
tables and trusts its laws, which `bifunctor_violations`, the one law scan
behind `Profunctor(check=True)`, has checked when it was built or loaded.

A coend is returned as its `QuotientSet`, and everything built from coends
keeps them, one per parameter key, in a `quotients` field (`Presheaf`,
`Profunctor`, `SymSeq`).  The actions of a coend with parameters, as in
`kan_extend`, `prof_compose`, `day_convolve` and substitution, come from
`induced_actions`: given as carrier positions, read as target class
positions and checked on every member by `induced_map` along generators,
and composed along the rest by gathering those positions (`FinFn.then`).
Every structural cell between coends -- unit, multiplication and theta, the
associators and unitors, the Day and substitution comparisons -- is induced
by a map of integrands and checked by the same kernel, `induced_map`, which
looks up no label.  Between laid-out carriers (Day and substitution) the map
is given by digit maps on the runs (`run_components`), so no member label is
built; on `product_coend`'s labelled carriers, by an elementwise rule
(`induced_components`).

Nothing here caches a coend.  The builders that compute them again for the
same arguments -- `kan_extend`, `kleisli_compose`, `day_convolve` and
`subst_compose` -- are `fincat.memoised`: inside a `fincat.memo_scope`, which
every check and cell builder opens (and `suites` around each instance), each
is computed once per identity of its arguments, and the memo with its coends
is dropped when the outermost scope closes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .fincat import (
    EndpointMismatch,
    FinCat,
    FinFn,
    FinSet,
    Label,
    NonInvertible,
    _Canonical,
    extend_along_generators,
    generator_pairs,
)


class RunCarrier:
    """A coend carrier laid out in runs by `layout`, keeping no member label.

    `runs` and `axes` are the runs as given, in order, and each run's share
    axes (`run_axes`).  The members of run key are the labels (*key, *w), w
    in the product of its factors, and a member's position is the sum of its
    shares.  A member is named by its position alone: `labels` decodes
    positions into labels by mixed-radix arithmetic over the sets of their
    runs, only when asked, and no label is ever looked up, so a cell into a
    laid-out carrier reads its image positions off `axes` and `runs`.
    """

    def __init__(self, runs: Mapping[tuple, Sequence], axes: dict, filled: list, size: int):
        self.runs, self.axes, self._filled, self._size = runs, axes, filled, size
        # filled: (start, key, factors, (elements, size, stride) per set) per nonempty run
        self._starts = [run[0] for run in filled]

    def __len__(self) -> int:
        return self._size

    def labels(self, positions: Sequence[int]) -> list:
        """The labels at increasing `positions`, decoded run by run: the
        column of each set's elements at the digits position // stride % size
        (mixed radix), and the labels zipped from the columns."""
        if positions and not 0 <= positions[0] <= positions[-1] < self._size:
            raise IndexError(f"positions outside a carrier of {self._size} members")
        out, i = [], 0
        while i < len(positions):
            start, key, factors, digits = self._filled[bisect.bisect_right(self._starts, positions[i]) - 1]
            size = digits[0][1] * digits[0][2]
            j = bisect.bisect_left(positions, start + size, i)
            i, rel = j, [p - start for p in positions[i:j]]
            if len(rel) == size:  # the whole run: its product, in order
                out += map(key.__add__, itertools.product(*[
                    itertools.product(*map(_ELEMENTS, f)) if f.__class__ is tuple else f.elements for f in factors
                ]))
                continue
            columns = iter([[elements[r // stride % n] for r in rel] for elements, n, stride in digits])
            out += map(key.__add__, zip(*[
                (zip(*itertools.islice(columns, len(f))) if f else itertools.repeat(())) if f.__class__ is tuple
                else next(columns) for f in factors
            ]))
        return out

    def __repr__(self):
        return f"RunCarrier({len(self._filled)} runs, {self._size} members)"


def _labels(carrier: FinSet | RunCarrier, positions: Sequence[int]) -> list:
    """The labels at increasing positions of a carrier, laid out or not."""
    if carrier.__class__ is RunCarrier:
        return carrier.labels(positions)
    return list(map(carrier.elements.__getitem__, positions))


@dataclass(frozen=True, eq=False)
class QuotientSet:
    """A quotient of a carrier set; classes are named by their minimal member.

    Built from `roots`: roots[i] is the carrier position of the minimal member
    of the class of position i, checked.  `quotient` passes its union-find's
    parents instead (parents=True): each is at or below its position and in
    its class, so the same one scan reads every class off an earlier one's.
    `_classes` keeps the position in `quotient` of each carrier position's
    class, as an array of machine integers, and `quotient` is the set of
    class names, in canonical order (by carrier position): only the minimal
    member of each class is decoded from its position (`RunCarrier`), and
    `_minima` keeps those positions.  `induced_map` reads the class positions
    and minima alone.  `classes` lists each class's members in carrier
    order, decoded in one scan on first read and kept; two quotients are
    equal when their classes are.  `representative` looks a member up in the
    position index of a `FinSet` carrier; a laid-out carrier has none.  Every
    empty `FinSet` carrier shares one quotient, `EMPTY_QUOTIENT`: nothing may
    mutate a quotient or compare one by `id`.
    """

    carrier: FinSet | RunCarrier
    quotient: FinSet
    _classes: array = field(repr=False)
    _minima: list = field(repr=False)

    def __init__(self, carrier: FinSet | RunCarrier, roots: list[int], parents: bool = False):
        n = len(carrier)
        if len(roots) != n:
            raise ValueError(f"{len(roots)} roots for a carrier of {n} elements")
        classes, minima = array("i"), []
        for i, r in enumerate(roots):
            if r == i:
                classes.append(len(minima))
                minima.append(i)
            elif 0 <= r < i and (parents or roots[r] == r):
                classes.append(classes[r])
            else:
                raise ValueError(f"position {i} has root {r}, not its class minimum")
        object.__setattr__(self, "__dict__", {
            "carrier": carrier,
            "quotient": FinSet(_Canonical(_labels(carrier, minima))),
            "_classes": classes,
            "_minima": minima,
        })

    @functools.cached_property
    def classes(self) -> tuple[tuple[Label, ...], ...]:
        groups: list[list] = [[] for _ in self._minima]
        for k, label in zip(self._classes, _labels(self.carrier, range(len(self._classes)))):
            groups[k].append(label)
        return tuple(map(tuple, groups))

    def __eq__(self, other):
        if not isinstance(other, QuotientSet):
            return NotImplemented
        return self is other or self.classes == other.classes

    def __hash__(self):
        return hash(self.classes)

    def representative(self, element: Label) -> Label:
        """Class name (minimal member) of a carrier element."""
        return self.quotient.elements[self._classes[self.carrier._index[element]]]


EMPTY_QUOTIENT = QuotientSet(FinSet(), [])
_EMPTY_MAP = FinFn.identity(EMPTY_QUOTIENT.quotient)


def quotient(carrier: FinSet | RunCarrier, pairs: Iterable[tuple[int, int]]) -> QuotientSet:
    """The carrier modulo the equivalence relation generated by `pairs` of
    carrier positions.

    Union-find over positions: a node's parent is never above it, so the root
    of a class is its minimum position, i.e. its minimal member in canonical
    order, and `QuotientSet`'s one scan in position order reads each
    position's class off its parent's.  Pass generating relations only; the
    closure supplies the rest.  A position outside the carrier raises
    ValueError, as any pair on an empty carrier does.  An empty `FinSet`
    carrier gets the one shared `EMPTY_QUOTIENT`; an empty `RunCarrier`
    keeps its runs in a quotient of its own.
    """
    n = len(carrier)
    parent = list(range(n))
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"related positions ({a}, {b}) are not both in a carrier of {n} elements")
        ra, rb = parent[a], parent[b]
        if ra == rb:  # one parent, so one class
            continue
        # find both roots ra, rb, halving the paths on the way
        while parent[ra] != ra:
            parent[a] = a = parent[ra]
            ra = parent[a]
        while parent[rb] != rb:
            parent[b] = b = parent[rb]
            rb = parent[b]
        if ra < rb:
            parent[rb] = ra
        else:
            parent[ra] = rb
    if not n and carrier.__class__ is FinSet:
        return EMPTY_QUOTIENT
    return QuotientSet(carrier, parent, True)


_ELEMENTS = operator.attrgetter("elements")


@functools.lru_cache(maxsize=4096)
def run_axes(offset: int, sizes: tuple[int, ...]) -> tuple[Sequence[int], ...]:
    """The share axes of a run at `offset` whose members are the tuples of
    one value per axis, the last axis fastest: the k-th value of axis i adds
    k times the product of the later sizes, and the first axis the offset.
    Cached as tuples: the many small coends of a check repeat a few shapes."""
    axes, stride = [], 1
    for i in reversed(range(len(sizes))):
        start, n = (0 if i else offset), sizes[i]
        axes.append(tuple(range(start, start + n * stride, stride)) if stride else (start,) * n)
        stride *= n
    return tuple(reversed(axes))


def run_positions(axes: Sequence[Sequence[int]]) -> Sequence[int]:
    """The positions of the members of a product of axes, in its order (the
    last axis fastest): one share from each axis, summed."""
    positions = axes[0] if axes else [0]
    for axis in axes[1:]:
        positions = [p + s for p in positions for s in axis]
    return positions


def layout(runs: Mapping[tuple, Sequence]) -> RunCarrier:
    """A coend carrier laid out in `runs`, in order, with each run's share axes
    (`run_axes`), one per set.  runs[key] lists the run's factors, the hom set
    last: each a FinSet or a group (a tuple of FinSets, whose members are
    tuples).  The run's members are (*key, *w), w in their product; none is
    built (`RunCarrier`).  A run with no set at all among its factors is
    refused with ValueError: its one member would have no share to place it."""
    axes, filled, offset = {}, [], 0
    for key, factors in runs.items():
        sets = [s for f in factors for s in (f if f.__class__ is tuple else (f,))]
        if not sets:
            raise ValueError(f"run {key!r} has no factor set, so no share places its member")
        sizes = tuple(map(len, sets))
        axes[key] = run_axes(offset, sizes)
        strides = [*itertools.accumulate(sizes[:0:-1], operator.mul, initial=1)][::-1]
        if sizes[0] * strides[0]:  # else the run has no members
            filled.append((offset, key, factors, [*zip(map(_ELEMENTS, sets), sizes, strides)]))
            offset += sizes[0] * strides[0]
    return RunCarrier(runs, axes, filled, offset)


def run_images(carrier: RunCarrier, run_image) -> list[int]:
    """The image positions of a laid-out carrier's members, in carrier order:
    run_image(key, factors) lists those of the members of each nonempty run."""
    return list(itertools.chain.from_iterable(run_image(run[1], run[2]) for run in carrier._filled))


def precompose_image(cat: FinCat, m: Label, source: RunCarrier, target: RunCarrier) -> list[int]:
    """The image positions of h -> h . m on the hom axis, from the carrier
    `source` to `target`, laid out with the same keys."""
    comp = cat.comp

    def run_image(key, factors):
        to, homs, to_homs = target.axes[key], factors[-1], target.runs[key][-1]
        if homs.__class__ is tuple:  # a group last: the hom set is its last set
            homs, to_homs = homs[-1], to_homs[-1]
        shares, index = to[-1], to_homs._index
        return run_positions([*to[:-1], [shares[index[comp[(h, m)]]] for h in homs]])

    return run_images(source, run_image)


def gather(shares: Sequence[int], fn: FinFn, domain: FinSet, codomain: FinSet) -> list[int]:
    """The digit map of fn: domain -> codomain into an axis with `shares`
    (indexed by codomain), read off fn.images; a map between other sets
    raises EndpointMismatch."""
    if (fn.domain, fn.codomain) != (domain, codomain):
        ends = f"{fn.domain.elements!r} -> {fn.codomain.elements!r}, not {domain.elements!r} -> {codomain.elements!r}"
        raise EndpointMismatch(f"a map acts between the wrong sets: {ends}")
    return list(map(shares.__getitem__, fn.images))


def postcompose(shares: Sequence[int], cat: FinCat, m: Label, homs: FinSet, to_homs: FinSet) -> list[int]:
    """The digit map of h -> m . h from homs into an axis with `shares` (indexed by to_homs)."""
    index, comp = to_homs._index, cat.comp
    return [shares[index[comp[(m, h)]]] for h in homs]


def coend_relations(blocks: Iterable[tuple[Sequence, Sequence]]) -> Iterator[tuple[int, int]]:
    """The generating relations of a coend as carrier position pairs, for
    `quotient`: each block (a_axes, b_axes) along a generator m: y -> y'
    gives each axis of W its digit maps into run y and run y', and the w-th
    member of W relates its two positions.  Sides of unequal sizes raise
    ValueError, so no relation is dropped."""
    return itertools.chain.from_iterable(zip(run_positions(a), run_positions(b), strict=True) for a, b in blocks)


def _is_composite(fn: FinFn, first: FinFn, second: FinFn) -> bool:
    """fn == first.then(second), compared as gathered positions without building the map."""
    if first.codomain != second.domain:
        raise EndpointMismatch("composition endpoints do not match")
    if fn.domain != first.domain or fn.codomain != second.codomain:
        return False
    return tuple(map(second.images.__getitem__, first.images)) == fn.images


def _same_composites(f1: FinFn, g1: FinFn, f2: FinFn, g2: FinFn) -> bool:
    """f1.then(g1) == f2.then(g2), compared as gathered positions without building either map."""
    for first, second in ((f1, g1), (f2, g2)):
        if first.codomain != second.domain:
            raise EndpointMismatch("composition endpoints do not match")
    if f1.domain != f2.domain or g1.codomain != g2.codomain:
        return False
    return list(map(g1.images.__getitem__, f1.images)) == list(map(g2.images.__getitem__, f2.images))


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
            # fn == FinFn.identity(s), compared as positions without building the identity
            if not (fn.domain == s == fn.codomain and fn.images == tuple(range(len(s)))):
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


def product_coend(base: FinCat, first, second, first_act, second_act) -> QuotientSet:
    """The coend over base of F(y) x G(y), F covariant and G contravariant,
    given the values first(y), second(y) and the actions first_act(m): F(y) ->
    F(y'), second_act(m): G(y') -> G(y) along each generator m: y -> y'.  The
    carrier {(y, (u, v))} has one two-axis run per object, and along m, W =
    F(y) x G(y') relates (u, G(m)v) in run y to (F(m)u, v) in run y'.  When
    no run has a member, no carrier or relation is built, and `quotient`
    names the empty carrier's quotient: the shared `EMPTY_QUOTIENT`."""
    runs, offset = {}, 0
    for y in base.objects:
        a, b = first(y), second(y)
        runs[y] = a, b, offset, (len(a.elements), len(b.elements))
        offset += len(a.elements) * len(b.elements)
    if not offset:
        return quotient(EMPTY_QUOTIENT.carrier, ())
    carrier = FinSet.sigma(base.objects, lambda y: itertools.product(runs[y][0].elements, runs[y][1].elements))
    blocks = []
    for m in base.generators():
        (a, b, at, sizes), (a1, b1, at1, sizes1) = runs[base.src(m)], runs[base.tgt(m)]
        if sizes[0] and sizes1[1]:  # else W is empty
            (us, vs), (us1, vs1) = run_axes(at, sizes), run_axes(at1, sizes1)
            blocks.append(([us, gather(vs, second_act(m), b1, b)], [gather(us1, first_act(m), a, a1), vs1]))
    return quotient(carrier, coend_relations(blocks))


def coend(p) -> QuotientSet:
    """The coend of an endo-profunctor p (`prof.Profunctor`) over its source:
    the diagonal {(y, w) : w in p(y, y)}, one run per object, modulo
    p(f, id)(w) ~ p(id, f)(w) for w in W = p(y', y) along each generator
    f: y -> y'.  The laws are taken on trust, as a checked `Profunctor` or a
    loaded payload has passed `bifunctor_violations`.
    """
    base = p.source
    if p.target != base:
        raise EndpointMismatch("coend needs a bifunctor with the same category on both sides")
    carrier = layout({(y,): (p.values[(y, y)],) for y in base.objects})
    axes = carrier.axes

    def block(f):
        y, y1 = base.src(f), base.tgt(f)
        w = p.values[(y1, y)]
        left = gather(axes[(y,)][0], p.left_act[(f, y)], w, p.values[(y, y)])
        return [left], [gather(axes[(y1,)][0], p.right_act[(y1, f)], w, p.values[(y1, y1)])]

    return quotient(carrier, coend_relations(map(block, base.generators())))


def induced_map(source: QuotientSet, codomain: FinSet, images: Sequence[int]) -> FinFn:
    """The map of classes that a carrier map induces, given by positions:
    images[i] is the codomain position of the image of source position i.
    Well-definedness (constancy on classes) is verified, not assumed: member
    by member, by class positions (`QuotientSet._classes`), every member's
    image must be its class minimum's.  No label is looked up."""
    class_of = source._classes
    if len(images) != len(class_of):
        raise ValueError(f"{len(images)} images for a carrier of {len(class_of)} elements")
    named = tuple(map(images.__getitem__, source._minima))  # each class's image, read at its minimum
    if list(map(named.__getitem__, class_of)) != images:
        k = min(k for k, t in zip(class_of, images) if named[k] != t)  # the first split class
        cls, names = source.classes[k], {codomain.elements[t] for kt, t in zip(class_of, images) if kt == k}
        raise ValueError(f"elementwise rule is not constant on class {cls!r}: {sorted(map(repr, names))}")
    return FinFn.by_position(source.quotient, codomain, named)


def _components(quotients: Mapping[Label, QuotientSet], targets: Mapping, images, bijection: str | None) -> dict:
    """The maps of classes of quotients[key] into targets[key], at each key
    in order, from images(key, q, target): the position of the image of each
    carrier position of q, in the carrier of a coend target (a `QuotientSet`,
    read as its class positions) or in a plain value set.  Every member of
    every class is checked (`induced_map`); when `bijection` names the
    comparison, the first component that is not a bijection raises
    NonInvertible."""
    comps = {}
    for key, q in quotients.items():
        target = targets[key]
        positions = images(key, q, target)
        if isinstance(target, QuotientSet):
            positions, target = list(map(target._classes.__getitem__, positions)), target.quotient
        fn = induced_map(q, target, positions)
        if bijection is not None and not fn.is_iso():
            raise NonInvertible(f"{bijection} at {key!r} is not a bijection")
        comps[key] = fn
    return comps


def induced_components(
    quotients: Mapping[Label, QuotientSet],
    targets: Mapping[Label, QuotientSet | FinSet],
    rule: Callable[[Label, Label], Label],
    bijection: str | None = None,
) -> dict[Label, FinFn]:
    """The components of a map between coends induced by a map of integrands,
    given by an elementwise rule on labelled carriers (`product_coend`'s).

    At each key of `quotients`, in its order, the classes of quotients[key]
    go into targets[key] by rule(key, x), checked on every member of every
    class (`_components`).  A coend target (a `QuotientSet`) takes a member
    of its carrier from the rule, a plain value set an element; either is
    read as one position.  This is exact because a coend is functorial in its
    integrand (Loregian, *(Co)end Calculus*, LMS LN 468, 2021, sec. 1).
    """
    def images(key, q, target):
        index = (target.carrier if isinstance(target, QuotientSet) else target)._index
        return [index[rule(key, x)] for x in q.carrier.elements]

    return _components(quotients, targets, images, bijection)


def run_components(
    quotients: Mapping[Label, QuotientSet], targets: Mapping, run_image, bijection: str | None = None,
) -> dict[Label, FinFn]:
    """The components of a map between coends induced by a map of integrands,
    read off the run layouts of laid-out carriers (`layout`): no member label
    is built.  run_image(key, run, factors) lists, for the members of each
    nonempty run of quotients[key]'s carrier, in run order, the positions of
    their images in the carrier of targets[key] (a coend) or in targets[key]
    (a value set).  Checked as `induced_components` is."""
    def images(key, q, target):
        return run_images(q.carrier, lambda run, factors: run_image(key, run, factors))

    return _components(quotients, targets, images, bijection)


def induced_actions(cat: FinCat, quotient_at, image, contravariant: bool) -> dict[Label, FinFn]:
    """The action of a coend with a parameter in `cat`, one map per morphism
    in `cat.morphisms()` order.  quotient_at(a) is the value at object a;
    image(m, source, target) lists, for each carrier position of the value
    `source` at the source of m (its target, if contravariant), the carrier
    position of its image in the value `target` at the other end: from the
    run layouts in substitution and `day_convolve`, by one `FinSet._index`
    lookup per member in `kan_extend` and `prof_compose`.

    Only generators (`FinCat.generators`) run `induced_map`, given the
    target class positions of the images, with its check on every member of
    every class.  Identities act as identities, and each other morphism
    g . r, reached breadth-first (`fincat.extend_along_generators`), acts as
    act(r) then act(g) (act(g) then act(r), if contravariant).  This is
    exact: a coend with parameters is strictly functorial in them (Mac Lane,
    CWM IX.7), as is the carrier action at every caller, so a carrier map
    that respects classes along each generator respects them along their
    composites and induces the composite of their maps.  Checking
    well-definedness on generators therefore suffices.  When every value is
    empty, every morphism acts by the one empty map, vacuously exact: no
    identity is built and nothing is checked or composed.
    """
    if not any(quotient_at(a)._minima for a in cat.objects):
        return dict.fromkeys(cat.morphisms(), _EMPTY_MAP)

    def on_generator(g):
        s, t = (cat.tgt(g), cat.src(g)) if contravariant else (cat.src(g), cat.tgt(g))
        source, target = quotient_at(s), quotient_at(t)
        classes = list(map(target._classes.__getitem__, image(g, source, target)))
        return induced_map(source, target.quotient, classes)

    return extend_along_generators(
        cat, lambda a: FinFn.identity(quotient_at(a).quotient), on_generator,
        (lambda r, g: g.then(r)) if contravariant else FinFn.then,
    )
