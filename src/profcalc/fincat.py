"""Finite categories presented by explicit tables.

Everything downstream (coends, presheaves, profunctors, operads) is built on
the types here: finite sets of labels, functions between them, categories
with total composition tables, functors, natural transformations, and a
small algebra of object-indexed families of functions ("two-cells").

Labels are ints, strings, or (nested) tuples of labels.  A single global
total order on labels (`label_key`) makes every downstream choice --
quotient representatives, coproduct tags, enumeration order -- deterministic
and independent of construction order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

Label = Any  # int | str | tuple of Label


class NonInvertible(Exception):
    """A componentwise inverse was requested where some component is not a bijection."""


class EndpointMismatch(ValueError):
    """Operands do not share the required (co)domains."""


class BoundExceeded(Exception):
    """A truncated construction was asked for data above its declared bound."""


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


@dataclass(frozen=True)
class FinSet:
    """An ordered finite set of pairwise-distinct labels (canonical order)."""

    elements: tuple[Label, ...]
    _index: frozenset = field(compare=False, repr=False)

    def __init__(self, elements: Iterable[Label] = ()):
        elems = sort_labels(elements)
        if len(set(elems)) != len(elems):
            raise ValueError("FinSet labels must be pairwise distinct")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_index", frozenset(elems))

    def __iter__(self) -> Iterator[Label]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, label: Label) -> bool:
        return label in self._index


EMPTY_SET = FinSet()


@dataclass(frozen=True)
class FinFn:
    """A total function between finite sets, given by an explicit mapping."""

    domain: FinSet
    codomain: FinSet
    mapping: tuple[tuple[Label, Label], ...]
    _table: dict = field(compare=False, repr=False)

    def __init__(self, domain: FinSet, codomain: FinSet, mapping):
        items = dict(mapping)
        if set(items) != set(domain.elements):
            raise ValueError("mapping must be total on the domain")
        codomain_set = set(codomain.elements)
        for value in items.values():
            if value not in codomain_set:
                raise ValueError(f"image label {value!r} not in codomain")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(
            self, "mapping", tuple((k, items[k]) for k in domain.elements)
        )
        object.__setattr__(self, "_table", items)

    def __call__(self, label: Label) -> Label:
        return self._table[label]

    def as_dict(self) -> dict[Label, Label]:
        return dict(self.mapping)

    def then(self, other: FinFn) -> FinFn:
        """Post-compose: (self.then(other))(x) = other(self(x))."""
        if self.codomain != other.domain:
            raise EndpointMismatch("composition endpoints do not match")
        table = other.as_dict()
        return FinFn(self.domain, other.codomain, {k: table[v] for k, v in self.mapping})

    def is_bijective(self) -> bool:
        return len({v for _, v in self.mapping}) == len(self.codomain) == len(self.domain)

    def inverse(self) -> FinFn:
        if not self.is_bijective():
            raise NonInvertible("function is not a bijection")
        return FinFn(self.codomain, self.domain, {v: k for k, v in self.mapping})

    @staticmethod
    def identity(s: FinSet) -> FinFn:
        return FinFn(s, s, {x: x for x in s})

    @staticmethod
    def constant(domain: FinSet, codomain: FinSet, value: Label) -> FinFn:
        return FinFn(domain, codomain, {x: value for x in domain})


@dataclass(frozen=True)
class FinCat:
    """A finite category: object set, hom tables, identities, composition table.

    Morphism labels are globally unique across the whole category, so the
    composition table can be keyed by bare label pairs (g, f) meaning g after f.
    """

    objects: FinSet
    hom: dict[tuple[Label, Label], FinSet]
    ids: dict[Label, Label]
    comp: dict[tuple[Label, Label], Label]
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
        object.__setattr__(self, "ids", dict(ids))
        object.__setattr__(self, "comp", dict(comp))
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
        for a in self.objects:
            for b in self.objects:
                yield from self.hom[(a, b)]

    def generators(self) -> tuple[Label, ...]:
        """A generating set: every morphism is an identity or a composite of these.

        Greedy over the non-identity morphisms in canonical order, irreducible
        ones (no factorisation into two non-identities) first: a morphism is
        picked unless it is already reachable by composing earlier picks.
        Irreducibles go first because every generating set contains them, and
        in a poset they generate the rest.  Cached on the instance.
        """
        if self._generators is None:
            composite = {
                self.comp[(g, f)]
                for g, f in self.composable_pairs()
                if not (self.is_identity(g) or self.is_identity(f))
            }
            nonid = [m for m in self.morphisms() if not self.is_identity(m)]
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

    def compose(self, g: Label, f: Label) -> Label:
        """g after f; raises on non-composable or missing table entries."""
        if self.tgt(f) != self.src(g):
            raise EndpointMismatch(f"cannot compose {g!r} after {f!r}")
        return self.comp[(g, f)]

    def composable_pairs(self) -> Iterator[tuple[Label, Label]]:
        for g in self.morphisms():
            a = self.src(g)
            for b in self.objects:
                for f in self.hom[(b, a)]:
                    yield g, f

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinCat)
            and self.objects == other.objects
            and self.hom == other.hom
            and self.ids == other.ids
            and self.comp == other.comp
        )

    def __hash__(self):
        return hash((self.objects, tuple(sorted(self.ids.items(), key=lambda kv: label_key(kv[0])))))


@dataclass
class ValidationReport:
    """Violations discovered by an exhaustive table scan.  Empty means valid."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def validate_category(cat: FinCat) -> ValidationReport:
    """Scan every composable pair and triple for closure, unit, associativity."""
    report = ValidationReport()
    for g, f in cat.composable_pairs():
        if (g, f) not in cat.comp:
            report.add(f"missing composite ({g!r}, {f!r})")
            continue
        h = cat.comp[(g, f)]
        if h not in cat.hom[(cat.src(f), cat.tgt(g))]:
            report.add(f"composite ({g!r}, {f!r}) = {h!r} lands outside hom set")
    for key in cat.comp:
        g, f = key
        if f not in cat._mor_endpoints or g not in cat._mor_endpoints:
            report.add(f"composition table mentions unknown morphism in {key!r}")
        elif cat.tgt(f) != cat.src(g):
            report.add(f"composition table keyed by non-composable pair {key!r}")
    if not report.ok:
        return report
    for m in cat.morphisms():
        a, b = cat.src(m), cat.tgt(m)
        if cat.comp[(m, cat.ids[a])] != m:
            report.add(f"right unit law fails on {m!r}")
        if cat.comp[(cat.ids[b], m)] != m:
            report.add(f"left unit law fails on {m!r}")
    for g, f in cat.composable_pairs():
        gf = cat.comp[(g, f)]
        c = cat.tgt(g)
        for d in cat.objects:
            for h in cat.hom[(c, d)]:
                if cat.comp[(h, gf)] != cat.comp[(cat.comp[(h, g)], f)]:
                    report.add(
                        f"associativity fails on triple ({h!r}, {g!r}, {f!r})"
                    )
    return report


def opposite(cat: FinCat) -> FinCat:
    """Reverse all arrows; labels are kept, so opposite(opposite(C)) == C."""
    hom = {(a, b): cat.hom[(b, a)] for a in cat.objects for b in cat.objects}
    comp = {(f, g): h for (g, f), h in cat.comp.items()}
    return FinCat(cat.objects, hom, dict(cat.ids), comp)


def product(c: FinCat, d: FinCat) -> FinCat:
    """Product category: pair objects, pair morphisms, componentwise composition."""
    objects = FinSet((a, b) for a in c.objects for b in d.objects)
    hom: dict[tuple[Label, Label], FinSet] = {}
    for (a1, b1) in objects:
        for (a2, b2) in objects:
            hom[((a1, b1), (a2, b2))] = FinSet(
                (m, n) for m in c.hom[(a1, a2)] for n in d.hom[(b1, b2)]
            )
    ids = {(a, b): (c.ids[a], d.ids[b]) for (a, b) in objects}
    comp = {}
    for (g1, f1), h1 in c.comp.items():
        for (g2, f2), h2 in d.comp.items():
            comp[((g1, g2), (f1, f2))] = (h1, h2)
    return FinCat(objects, hom, ids, comp)


@dataclass(frozen=True)
class Functor:
    source: FinCat
    target: FinCat
    obj_map: dict[Label, Label]
    mor_map: dict[Label, Label]

    def __init__(self, source, target, obj_map, mor_map, check: bool = True):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "obj_map", dict(obj_map))
        object.__setattr__(self, "mor_map", dict(mor_map))
        if check:
            problems = functor_violations(self)
            if problems:
                raise ValueError("not a functor: " + "; ".join(problems))

    def ob(self, a: Label) -> Label:
        return self.obj_map[a]

    def mor(self, m: Label) -> Label:
        return self.mor_map[m]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Functor)
            and self.source == other.source
            and self.target == other.target
            and self.obj_map == other.obj_map
            and self.mor_map == other.mor_map
        )


def functor_violations(fun: Functor) -> list[str]:
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
    for g, f in src.composable_pairs():
        if fun.mor_map[src.comp[(g, f)]] != tgt.comp[(fun.mor_map[g], fun.mor_map[f])]:
            out.append(f"composition not preserved on ({g!r}, {f!r})")
    return out


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

    def __init__(self, source, target, components, check: bool = True):
        if source.source != target.source or source.target != target.target:
            raise EndpointMismatch("functors are not parallel")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", dict(components))
        if check:
            bad = nat_trans_violations(self)
            if bad:
                raise ValueError("not natural: " + "; ".join(bad))

    def at(self, a: Label) -> Label:
        return self.components[a]


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


# -- generic two-cells -------------------------------------------------------
#
# A TwoCell is an index-labelled family of FinFns between the value sets of
# two parallel set-valued constructions.  The endpoints are kept only as
# opaque references; shape agreement is checked against the components
# themselves.  Specialized cells (PshMap, ProfCell, ...) add their own
# naturality checks; the algebra below is shared.


@dataclass(frozen=True)
class TwoCell:
    components: dict[Any, FinFn]
    source: Any = None
    target: Any = None

    def __init__(self, components, source=None, target=None):
        object.__setattr__(self, "components", dict(components))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def at(self, key) -> FinFn:
        return self.components[key]

    def keys(self):
        return self.components.keys()

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoCell) and self.components == other.components


def twocell_vcompose(beta: TwoCell, alpha: TwoCell) -> TwoCell:
    """beta after alpha, componentwise."""
    if set(beta.components) != set(alpha.components):
        raise EndpointMismatch("two-cells indexed by different families")
    comps = {}
    for key, fn in alpha.components.items():
        comps[key] = fn.then(beta.components[key])
    return TwoCell(comps, source=alpha.source, target=beta.target)


def twocell_whisker_right(alpha: TwoCell, reindex: Callable[[Any], Any], keys) -> TwoCell:
    """Precompose the index: component at k is alpha at reindex(k)."""
    return TwoCell({k: alpha.components[reindex(k)] for k in keys})


def twocell_whisker_left(op: Callable[[FinFn], FinFn], alpha: TwoCell) -> TwoCell:
    """Apply a function-level operation (e.g. a functor's action) to every component."""
    return TwoCell({k: op(fn) for k, fn in alpha.components.items()})


def twocell_invert(alpha: TwoCell) -> TwoCell:
    for key in sorted(alpha.components, key=lambda k: label_key(k if isinstance(k, (int, str, tuple)) else str(k))):
        if not alpha.components[key].is_bijective():
            raise NonInvertible(f"component at {key!r} is not a bijection")
    return TwoCell(
        {k: fn.inverse() for k, fn in alpha.components.items()},
        source=alpha.target,
        target=alpha.source,
    )
