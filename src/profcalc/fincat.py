"""Finite categories presented by explicit tables.

Everything downstream (coends, presheaves, profunctors, operads) is built on
the types here: finite sets of labels, functions between them, categories
with total composition tables, functors, natural transformations, and the
one algebra every 2-cell of the engine shares: `Cell`, a key-indexed family
of components composed vertically component by component, with
`cell_difference` naming the first place two cells disagree and
`Cell.violations` the one naturality scan of every kind of cell.

Labels are ints, strings, or (nested) tuples of labels.  A single global
total order on labels (`label_key`) makes every downstream choice --
quotient representatives, coproduct tags, enumeration order -- deterministic
and independent of construction order.

Every `FinSet` lists its elements in that order.  `FinSet(labels)` sorts.
`FinSet.product` (lexicographic), `FinSet.sigma` (dependent sum) and
`FinSet.subset` (order-preserving) do not need to: `label_key` compares
tuples entry by entry, so from canonical inputs they are canonical.

Records keep the tables they are given and copy none: their callers build
each dict for the record and never change it afterwards.  A record checks its
laws in `__post_init__` when built with check=True.

Every keyed family of maps built from an elementwise rule -- restrictions,
presheaf-map components, operad cells -- comes from `components(domains,
codomains, image)`, so each is a checked `FinFn`; `prof.action_tables`
builds profunctor actions as checked `FinFn`s that call their rule directly.

The engine builds the same composites again and again inside one check, so
the builders that produce them are `memoised`: inside a `memo_scope` each is
computed once per identity of its arguments, and the memo is dropped when
the scope closes.

Faults are read from context the same way.  The builders of coherence cells
pass each component through `corrupt(kind, key, fn)`, which returns it
unchanged unless a `fault_scope` is open; a `Fault` opened there swaps two
images of one chosen component, so the checks can be shown to notice.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
from dataclasses import InitVar, dataclass, field
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import Any

Label = Any  # int | str | tuple of Label


class NonInvertible(Exception):
    """A componentwise inverse was requested where some component is not a bijection."""


class EndpointMismatch(ValueError):
    """Operands do not share the required (co)domains."""


class BoundExceeded(Exception):
    """A truncated construction was asked for data above its declared bound."""


def require_lawful(violations: list[str], invalid: str) -> None:
    """The last step of a checked construction: ValueError "{invalid}: {first violation}"."""
    if violations:
        raise ValueError(f"{invalid}: {violations[0]}")


_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("profcalc_memo", default=None)


class memo_scope:
    """Share one memo among the `memoised` calls made inside; also a decorator.

    Re-entrant: a nested scope joins the open one.  The memo is dropped, with
    every result and argument it holds, when the outermost scope closes.
    """

    def __enter__(self):
        self._token = _MEMO.set({}) if _MEMO.get() is None else None

    def __exit__(self, *exc):
        if self._token is not None:
            _MEMO.reset(self._token)

    def __call__(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _MEMO.get() is not None:
                return fn(*args, **kwargs)
            with memo_scope():
                return fn(*args, **kwargs)

        return wrapper


def memoised(fn):
    """Inside a `memo_scope`, compute fn once per identity of its arguments.

    Arguments are passed by position only, and a keyword call raises
    TypeError, so each call has one key: fn with the `id()` of each argument.
    The entry keeps the arguments, so no id is reused while the scope is open.
    Outside a scope every call computes, inside a scope of its own.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kwargs:
            raise TypeError(f"{fn.__name__} takes its arguments by position only, got {', '.join(kwargs)}")
        memo = _MEMO.get()
        if memo is None:
            with memo_scope():
                return fn(*args)
        key = (fn, *map(id, args))
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = (fn(*args), args)
        return entry[0]

    return wrapper


_FAULT: contextvars.ContextVar[Callable | None] = contextvars.ContextVar(
    "profcalc_fault", default=None
)


class fault_scope:
    """Pass every `corrupt` call made inside through hook(kind, key, fn).

    A hook of None opens a fault-free scope.
    """

    def __init__(self, hook: Callable[[str, tuple, FinFn], FinFn] | None):
        self._hook = hook

    def __enter__(self):
        self._token = _FAULT.set(self._hook)

    def __exit__(self, *exc):
        _FAULT.reset(self._token)


def corrupt(kind: str, key: tuple, fn: FinFn) -> FinFn:
    """The component `fn` of a `kind` cell at `key`, as the open fault scope has it."""
    hook = _FAULT.get()
    return fn if hook is None else hook(kind, key, fn)


class Fault:
    """Swap the first two images of the index-th corruptible `kind` component.

    A component is corruptible when its domain has at least two elements, and
    they are counted in the order they are constructed.  The key of the one
    swapped is kept, and every later construction under that key gets the
    same swap, so a fault is one consistently wrong table; bijections stay
    bijections.  `applied` is that key, None until the swap happens.
    """

    def __init__(self, kind: str, index: int = 0):
        if index < 0:
            raise ValueError(f"fault index must be non-negative, got {index}")
        self.kind = kind
        self.index = index
        self.count = 0
        self.applied = None

    def __call__(self, kind: str, key: tuple, fn: FinFn) -> FinFn:
        if kind != self.kind or len(fn.domain) < 2:
            return fn
        if self.applied is None:
            if self.count != self.index:
                self.count += 1
                return fn
            self.applied = key
        elif key != self.applied:
            return fn
        images = fn.images
        return FinFn.by_position(fn.domain, fn.codomain, (images[1], images[0], *images[2:]))


def label_key(label: Label):
    """Sort key giving one total order across ints, strings and nested tuples."""
    if isinstance(label, bool):
        return (0, int(label))
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, str):
        return (1, label)
    if isinstance(label, tuple):
        return (2, tuple(label_key(x) for x in label))
    raise TypeError(f"unsupported label type: {type(label).__name__}")


def sort_labels(labels: Iterable[Label]) -> tuple[Label, ...]:
    return tuple(sorted(labels, key=label_key))


class _Canonical(tuple):
    """Labels that a `FinSet` constructor produced in canonical order."""


@dataclass(frozen=True)
class FinSet:
    """An ordered finite set of pairwise-distinct labels (canonical order).

    `_index` maps each label to its position in `elements`, hashing each label
    once: membership, a `FinFn` built from labels (its totality check and its
    image positions) and `colim.label_pairs` all read it.
    """

    elements: tuple[Label, ...]
    _index: dict = field(compare=False, repr=False)

    def __init__(self, elements: Iterable[Label] = ()):
        elems = tuple(elements) if isinstance(elements, _Canonical) else sort_labels(elements)
        index = dict(zip(elems, range(len(elems))))
        if len(index) != len(elems):
            raise ValueError("FinSet labels must be pairwise distinct")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_index", index)

    @staticmethod
    def product(*factors: FinSet) -> FinSet:
        """Flat tuples (x1, ..., xn) with xi in factors[i], lexicographically."""
        return FinSet(_Canonical(itertools.product(*(f.elements for f in factors))))

    @staticmethod
    def sigma(index: Iterable[Label], fibre: Callable[[Label], FinSet]) -> FinSet:
        """Pairs (i, x) with x in fibre(i), i running through `index` in
        canonical order (a FinSet, or a range of ints)."""
        return FinSet(_Canonical((i, x) for i in index for x in fibre(i)))

    def subset(self, keep: Callable[[Label], bool]) -> FinSet:
        """The members x with keep(x), in this set's order."""
        return FinSet(_Canonical(x for x in self.elements if keep(x)))

    def __iter__(self) -> Iterator[Label]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    def __eq__(self, other):
        return self is other or (self.elements == other.elements if other.__class__ is FinSet else NotImplemented)


@dataclass(frozen=True, eq=False, repr=False)
class FinFn:
    """A total function between finite sets, kept as `images`: the codomain
    position of each domain element's image, in domain order.

    `FinFn(domain, codomain, mapping)` checks a label mapping total and into
    the codomain.  `by_position` checks nothing: only maps computed from
    checked maps are built so -- composites (a gather), identities (a range),
    inverses (a scatter), `colim.induced_map`'s maps of classes and a fault's swap.
    """

    domain: FinSet
    codomain: FinSet
    images: tuple[int, ...]

    def __init__(self, domain: FinSet, codomain: FinSet, mapping):
        items = mapping if type(mapping) is dict else dict(mapping)
        values = items.values()
        if tuple(items) != domain.elements:  # keys out of domain order, or not the domain
            if items.keys() != domain._index.keys():
                raise ValueError("mapping must be total on the domain")
            values = map(items.__getitem__, domain.elements)
        try:
            images = tuple(map(codomain._index.__getitem__, values))
        except (KeyError, TypeError):
            for value in items.values():  # the first bad image in the mapping's own order
                if value not in codomain:
                    raise ValueError(f"image label {value!r} not in codomain") from None
            raise
        object.__setattr__(self, "__dict__", {"domain": domain, "codomain": codomain, "images": images})

    @staticmethod
    def by_position(domain: FinSet, codomain: FinSet, images: tuple[int, ...]) -> FinFn:
        """domain.elements[i] -> codomain.elements[images[i]], unchecked."""
        fn = object.__new__(FinFn)
        object.__setattr__(fn, "__dict__", {"domain": domain, "codomain": codomain, "images": images})
        return fn

    @property
    def mapping(self) -> tuple[tuple[Label, Label], ...]:
        return tuple(zip(self.domain.elements, map(self.codomain.elements.__getitem__, self.images)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images and self.domain == other.domain and self.codomain == other.codomain

    def __hash__(self):
        return hash((self.domain, self.codomain, self.images))

    def __repr__(self):
        return f"FinFn(domain={self.domain!r}, codomain={self.codomain!r}, mapping={self.mapping!r})"

    def __call__(self, label: Label) -> Label:
        return self.codomain.elements[self.images[self.domain._index[label]]]

    def then(self, other: FinFn) -> FinFn:
        """Post-compose: (self.then(other))(x) = other(self(x))."""
        if self.codomain != other.domain:
            raise EndpointMismatch("composition endpoints do not match")
        return FinFn.by_position(self.domain, other.codomain, tuple(map(other.images.__getitem__, self.images)))

    def is_iso(self) -> bool:
        return len(set(self.images)) == len(self.codomain) == len(self.domain)

    def inverse(self) -> FinFn:
        if not self.is_iso():
            raise NonInvertible("function is not a bijection")
        images = [0] * len(self.images)
        for i, j in enumerate(self.images):
            images[j] = i
        return FinFn.by_position(self.codomain, self.domain, tuple(images))

    @staticmethod
    def identity(s: FinSet) -> FinFn:
        return FinFn.by_position(s, s, tuple(range(len(s))))


def components(domains: dict, codomains, image) -> dict[Label, FinFn]:
    """The keyed family of maps u -> image(key, u) from domains[key] into
    codomains[key], one per key of `domains` in its order.  Every map is a
    `FinFn`, checked total and into its codomain.  image is never called on
    an empty domain."""
    return {
        key: FinFn(dom, codomains[key], {u: image(key, u) for u in dom})
        for key, dom in domains.items()
    }


@dataclass(frozen=True)
class FinCat:
    """A finite category: object set, hom tables, identities, composition table.

    Morphism labels are globally unique across the whole category, so the
    composition table can be keyed by bare label pairs (g, f) meaning g after f.
    It is a dict, or, for a `product`, a read-only mapping that composes by rule.
    """

    objects: FinSet
    hom: dict[tuple[Label, Label], FinSet]
    ids: dict[Label, Label]
    comp: Mapping[tuple[Label, Label], Label]
    _mor_endpoints: dict[Label, tuple[Label, Label]] = field(compare=False, repr=False)
    _generators: tuple | None = field(compare=False, repr=False)

    def __init__(self, objects, hom, ids, comp):
        objects = objects if isinstance(objects, FinSet) else FinSet(objects)
        hom_tbl: dict[tuple[Label, Label], FinSet] = {}
        endpoints: dict[Label, tuple[Label, Label]] = {}
        for a in objects:
            for b in objects:
                hs = hom.get((a, b), ())
                hs = hs if isinstance(hs, FinSet) else FinSet(hs)
                hom_tbl[(a, b)] = hs
                for m in hs:
                    if m in endpoints:
                        raise ValueError(f"morphism label {m!r} used in two hom sets")
                    endpoints[m] = (a, b)
        for a in objects:
            if ids.get(a) not in hom_tbl[(a, a)]:
                raise ValueError(f"missing identity on object {a!r}")
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "hom", hom_tbl)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "_mor_endpoints", endpoints)
        object.__setattr__(self, "_generators", None)

    # -- morphism bookkeeping ------------------------------------------------

    def src(self, m: Label) -> Label:
        return self._mor_endpoints[m][0]

    def tgt(self, m: Label) -> Label:
        return self._mor_endpoints[m][1]

    def id_of(self, a: Label) -> Label:
        return self.ids[a]

    def is_identity(self, m: Label) -> bool:
        return self.ids[self.src(m)] == m

    def morphisms(self) -> Iterator[Label]:
        return iter(self._mor_endpoints)  # filled hom set by hom set, objects × objects

    def generators(self) -> tuple[Label, ...]:
        """A generating set: every morphism is an identity or a composite of these.

        Greedy over the non-identity morphisms in canonical order, irreducible
        ones (no factorisation into two non-identities) first: a morphism is
        picked unless it is already reachable by composing earlier picks.
        Irreducibles go first: every generating set contains them, and in a
        poset they generate the rest.  Cached; a `product` declares its own.
        """
        if self._generators is None:
            ids = set(self.ids.values())
            composite = {self.comp[(g, f)] for g, f in self.composable_pairs() if g not in ids and f not in ids}
            nonid = [m for m in self.morphisms() if m not in ids]
            picks: list[Label] = []
            reached = set(self.ids.values())
            for m in sorted(nonid, key=lambda m: m in composite):  # stable: irreducibles first
                if m in reached:
                    continue
                picks.append(m)
                # the new words are m . r for r already reached, extended on the left by picks
                work = [self.comp[(m, r)] for r in reached if self.tgt(r) == self.src(m)]
                while work:
                    r = work.pop()
                    if r not in reached:
                        reached.add(r)
                        work.extend(self.comp[(p, r)] for p in picks if self.src(p) == self.tgt(r))
            object.__setattr__(self, "_generators", tuple(picks))
        return self._generators

    @functools.cached_property
    def _by_source(self) -> dict[Label, tuple[Label, ...]]:
        out: dict[Label, list[Label]] = {a: [] for a in self.objects}
        for g in self.generators():
            out[self.src(g)].append(g)
        return {a: tuple(gs) for a, gs in out.items()}

    @functools.cached_property
    def _steps(self) -> tuple[tuple[Label, Label, Label], ...]:
        """(m, r, g) with m = g . r, for each morphism m that is neither an
        identity nor a generator, in the order a breadth-first search from
        the identities and generators first reaches it."""
        reached = dict.fromkeys([*map(self.ids.__getitem__, self.objects), *self.generators()])
        queue, steps = list(reached), []  # the queue grows while it is read
        for r in queue:
            for g in self._by_source[self.tgt(r)]:
                m = self.comp[(g, r)]
                if m not in reached:
                    reached[m] = None
                    steps.append((m, r, g))
                    queue.append(m)
        return tuple(steps)

    def composable_pairs(self) -> Iterator[tuple[Label, Label]]:
        for g in self.morphisms():
            a = self.src(g)
            for b in self.objects:
                for f in self.hom[(b, a)]:
                    yield g, f

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, FinCat)
            and self.objects == other.objects
            and self.hom == other.hom
            and self.ids == other.ids
            and self.comp == other.comp
        )

    def __hash__(self):
        return hash((self.objects, tuple(sorted(self.ids.items(), key=lambda kv: label_key(kv[0])))))


def generator_pairs(cat: FinCat) -> Iterator[tuple[Label, Label]]:
    """The composable pairs (g, f) with g a generator, in `composable_pairs` order."""
    gens = set(cat.generators())
    return ((g, f) for g in cat.morphisms() if g in gens for b in cat.objects for f in cat.hom[(b, cat.src(g))])


def generators_by_source(cat: FinCat) -> dict[Label, tuple[Label, ...]]:
    """`cat.generators()` grouped by source object; cached on cat."""
    return cat._by_source


def extend_along_generators(cat: FinCat, identity, generator, compose) -> dict[Label, Any]:
    """A functorial action on every morphism of cat, in `cat.morphisms()`
    order, from its values on generators: identity(a) at the identity of
    each object a, generator(g) at each generator (`FinCat.generators`), and
    compose(act(r), act(g)) at each other morphism g . r, reached
    breadth-first from the identities and generators.  The search is
    cat's, made once and cached (`FinCat._steps`), so a call only applies
    the actions.  Exact for an action that is functorial: every morphism is
    an identity or a word in generators, and the action of a word is the
    composite of its letters'."""
    acts = {cat.id_of(a): identity(a) for a in cat.objects}
    for g in cat.generators():
        acts[g] = generator(g)
    for m, r, g in cat._steps:
        acts[m] = compose(acts[r], acts[g])
    return {m: acts[m] for m in cat.morphisms()}


def validate_category(cat: FinCat) -> list[str]:
    """Closure and units on every composable pair; associativity, once they
    hold, first on the triples (h, g, f) with h a generator.  `generators` (or
    a `product` of unital factors) reaches each morphism as an identity or as
    p.r, p a generator and r reached earlier, and by induction on r (p.r).(g.f)
    = p.((r.g).f) = ((p.r).g).f.  Otherwise, or on a violation, every triple is."""
    out: list[str] = []
    for g, f in cat.composable_pairs():
        if (g, f) not in cat.comp:
            out.append(f"missing composite ({g!r}, {f!r})")
            continue
        h = cat.comp[(g, f)]
        if h not in cat.hom[(cat.src(f), cat.tgt(g))]:
            out.append(f"composite ({g!r}, {f!r}) = {h!r} lands outside hom set")
    for key in cat.comp:
        g, f = key
        if f not in cat._mor_endpoints or g not in cat._mor_endpoints:
            out.append(f"composition table mentions unknown morphism in {key!r}")
        elif cat.tgt(f) != cat.src(g):
            out.append(f"composition table keyed by non-composable pair {key!r}")
    if out:
        return out
    for m in cat.morphisms():
        a, b = cat.src(m), cat.tgt(m)
        if cat.comp[(m, cat.ids[a])] != m:
            out.append(f"right unit law fails on {m!r}")
        if cat.comp[(cat.ids[b], m)] != m:
            out.append(f"left unit law fails on {m!r}")

    def associativity(generators_only: bool) -> list[str]:
        out_of = {c: [h for d in cat.objects for h in cat.hom[(c, d)]] for c in cat.objects}
        after = generators_by_source(cat) if generators_only else out_of
        return [
            f"associativity fails on triple ({h!r}, {g!r}, {f!r})"
            for g, f in cat.composable_pairs()
            for h in after[cat.tgt(g)]
            if cat.comp[(h, cat.comp[(g, f)])] != cat.comp[(cat.comp[(h, g)], f)]
        ]

    if out or associativity(True):
        out += associativity(False)
    return out


class _ProductComp(Mapping):
    """The composition of `product(c, d)` by rule: (g1, g2) . (f1, f2) is
    (g1 . f1, g2 . f2).  Its keys, in order, are those of the table that a
    double loop over c.comp and d.comp fills; any other key raises KeyError."""

    def __init__(self, c: FinCat, d: FinCat):
        self._c, self._d = c.comp, d.comp

    def __getitem__(self, key):
        try:
            (g1, g2), (f1, f2) = g, f = key
            if type(g) is tuple is type(f):
                return self._c[(g1, f1)], self._d[(g2, f2)]
        except (KeyError, TypeError, ValueError):
            pass
        raise KeyError(key)

    def __iter__(self):
        return (((g1, g2), (f1, f2)) for g1, f1 in self._c for g2, f2 in self._d)

    def __len__(self):
        return len(self._c) * len(self._d)

    def __eq__(self, other):
        same = isinstance(other, _ProductComp) and self._c == other._c and self._d == other._d
        return same or Mapping.__eq__(self, other)


@memoised
def product(c: FinCat, d: FinCat) -> FinCat:
    """Product category: pair objects, pair morphisms, componentwise
    composition by rule (`_ProductComp`, no |c.comp| x |d.comp| table), and
    declared generators.  Memoised, so the tensor of a monoidal category and
    the check of its source share one product inside a `memo_scope`."""
    objects = FinSet.product(c.objects, d.objects)
    hom: dict[tuple[Label, Label], FinSet] = {}
    for (a1, b1) in objects:
        for (a2, b2) in objects:
            hom[((a1, b1), (a2, b2))] = FinSet.product(c.hom[(a1, a2)], d.hom[(b1, b2)])
    ids = {(a, b): (c.ids[a], d.ids[b]) for (a, b) in objects}
    cat = FinCat(objects, hom, ids, _ProductComp(c, d))
    # (f, f') = (f, id) . (id, f'), and each factor is a word in its own generators
    gens = [(g, d.ids[b]) for g in c.generators() for b in d.objects]
    gens += [(c.ids[a], g) for a in c.objects for g in d.generators()]
    object.__setattr__(cat, "_generators", tuple(gens))
    return cat


@dataclass(frozen=True)
class Functor:
    source: FinCat
    target: FinCat
    obj_map: dict[Label, Label]
    mor_map: dict[Label, Label]
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if check:
            problems = functor_violations(self)
            if problems:
                raise ValueError("not a functor: " + "; ".join(problems))


def functor_violations(fun: Functor) -> list[str]:
    """Composition, once identities are preserved, first on pairs (g, f) with
    g a generator: between valid categories, as loads ensure, m = p.r as in
    `validate_category` gives F((p.r).f) = F(p).(F(r).F(f)) = F(p.r).F(f) by
    induction on r.  Otherwise, or on a violation, every pair is scanned."""
    out = []
    src, tgt = fun.source, fun.target
    for a in src.objects:
        if a not in fun.obj_map or fun.obj_map[a] not in tgt.objects:
            out.append(f"object {a!r} not mapped into target")
            return out
    for m in src.morphisms():
        if m not in fun.mor_map:
            out.append(f"morphism {m!r} not mapped")
            return out
        image = fun.mor_map[m]
        expected_hom = tgt.hom[(fun.obj_map[src.src(m)], fun.obj_map[src.tgt(m)])]
        if image not in expected_hom:
            out.append(f"morphism {m!r} image {image!r} has wrong endpoints")
    if out:
        return out
    for a in src.objects:
        if fun.mor_map[src.ids[a]] != tgt.ids[fun.obj_map[a]]:
            out.append(f"identity on {a!r} not preserved")

    def composition(generators_only: bool) -> list[str]:
        return [
            f"composition not preserved on ({g!r}, {f!r})"
            for g, f in (generator_pairs(src) if generators_only else src.composable_pairs())
            if fun.mor_map[src.comp[(g, f)]] != tgt.comp[(fun.mor_map[g], fun.mor_map[f])]
        ]

    return out + ([] if not out and not composition(True) else composition(False))


def identity_functor(cat: FinCat) -> Functor:
    return Functor(
        cat,
        cat,
        {a: a for a in cat.objects},
        {m: m for m in cat.morphisms()},
        check=False,
    )


def functor_compose(g: Functor, f: Functor) -> Functor:
    """g after f."""
    if f.target != g.source:
        raise EndpointMismatch("functor endpoints do not match")
    return Functor(
        f.source,
        g.target,
        {a: g.obj_map[v] for a, v in f.obj_map.items()},
        {m: g.mor_map[v] for m, v in f.mor_map.items()},
        check=False,
    )


@dataclass(frozen=True)
class NatTrans:
    """A natural transformation between parallel functors into a FinCat."""

    source: Functor
    target: Functor
    components: dict[Label, Label]  # object of source.source -> target-category morphism
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if self.source.source != self.target.source or self.source.target != self.target.target:
            raise EndpointMismatch("functors are not parallel")
        if check:
            bad = nat_trans_violations(self)
            if bad:
                raise ValueError("not natural: " + "; ".join(bad))


def nat_trans_violations(nt: NatTrans) -> list[str]:
    out = []
    base = nt.source.source
    cat = nt.source.target
    for a in base.objects:
        m = nt.components.get(a)
        if m is None:
            out.append(f"missing component at {a!r}")
            continue
        if cat.src(m) != nt.source.obj_map[a] or cat.tgt(m) != nt.target.obj_map[a]:
            out.append(f"component at {a!r} has wrong endpoints")
    if out:
        return out
    for m in base.morphisms():
        a, b = base.src(m), base.tgt(m)
        lhs = cat.comp[(nt.components[b], nt.source.mor_map[m])]
        rhs = cat.comp[(nt.target.mor_map[m], nt.components[a])]
        if lhs != rhs:
            out.append(f"naturality square fails at {m!r}")
    return out


# -- 2-cells ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Cell:
    """A 2-cell: a key-indexed family of components between two endpoints.

    Every component must provide `then`, `is_iso`, `inverse` and equality;
    `FinFn`s and cells both do, so a cell may have cells as components.
    Subclasses fix the endpoint types and give the two tables that the one
    naturality scan, `violations()`, reads: `value_table()` and `squares()`.
    `invalid` prefixes the error raised when a checked construction has
    violations.  A bare `Cell` imposes no law.
    """

    source: Any
    target: Any
    components: dict
    check: InitVar[bool] = True

    invalid = "not a cell"

    def __post_init__(self, check: bool):
        if check:
            require_lawful(self.violations(), self.invalid)

    def value_table(self) -> tuple:
        """(keys, source values, target values): the components the kind
        requires, and the tables, indexed by key, of their endpoints."""
        return (), {}, {}

    def squares(self) -> Iterable[tuple]:
        """((law, source actions, target actions), where, key in, key out) per
        naturality square: source actions[where] then the component at key out
        must equal the component at key in then target actions[where]."""
        return ()

    def violations(self) -> list[str]:
        """The one naturality scan of every kind: the first missing component in
        `value_table` order alone; else every component whose endpoints are not
        its values; else "{law} {where!r}" for every square that fails."""
        comps = self.components
        keys, values0, values1 = self.value_table()
        missing = [key for key in keys if key not in comps]
        if missing:
            return [f"missing component at {missing[0]!r}"]
        out = [
            f"component at {key!r} has wrong endpoints"
            for key in keys
            if _endpoints(comps[key]) != (values0[key], values1[key])
        ]
        return out or [
            f"{law} {where!r}"
            for (law, acts0, acts1), where, key_in, key_out in self.squares()
            if acts0[where].then(comps[key_out]) != comps[key_in].then(acts1[where])
        ]

    def then(self, other: Cell) -> Cell:
        """Vertical composite: self first, then other, component by component."""
        if self.target != other.source:
            raise EndpointMismatch(f"{type(self).__name__} endpoints do not match")
        return type(self)(
            self.source,
            other.target,
            {k: c.then(other.components[k]) for k, c in self.components.items()},
            check=False,
        )

    def is_iso(self) -> bool:
        return all(c.is_iso() for c in self.components.values())

    def iso_witness(self) -> str | None:
        """The first non-invertible leaf component in `label_key` order, or None."""
        for key in sorted(self.components, key=label_key):
            c = self.components[key]
            if isinstance(c, Cell):
                inner = c.iso_witness()
                if inner is not None:
                    return f"at {key!r}, {inner}"
            elif not c.is_iso():
                return (
                    f"component at {key!r} has |dom|={len(c.domain)}, "
                    f"|image|={len(set(c.images))}, |cod|={len(c.codomain)}"
                )
        return None

    def require_iso(self, message: str) -> Cell:
        """self, or NonInvertible(message) when some component is not invertible."""
        if not self.is_iso():
            raise NonInvertible(message)
        return self

    def inverse(self) -> Cell:
        if not self.is_iso():
            raise NonInvertible(self.iso_witness())
        return type(self)(
            self.target,
            self.source,
            {k: c.inverse() for k, c in self.components.items()},
            check=False,
        )

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.components == other.components


def _endpoints(c) -> tuple:
    return (c.source, c.target) if isinstance(c, Cell) else (c.domain, c.codomain)


def cell_difference(a: Cell, b: Cell) -> str | None:
    """Where b first differs from a, walking nested components in `label_key`
    order; None when they agree on every component of a."""
    for key in sorted(a.components, key=label_key):
        ca, cb = a.components[key], b.components.get(key)
        if cb is None:
            return f"missing component at {key!r}"
        if isinstance(ca, Cell):
            inner = cell_difference(ca, cb)
            if inner is not None:
                return f"at {key!r}, {inner}"
        elif ca != cb:
            if ca.domain == cb.domain:
                for e in ca.domain:
                    if ca(e) != cb(e):
                        return f"at {key!r}, element {e!r}: {ca(e)!r} vs {cb(e)!r}"
            return f"at {key!r}: domains differ"
    return None
