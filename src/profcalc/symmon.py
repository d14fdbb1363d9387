"""Free symmetric strict monoidal categories (truncated), symmetric sequences,
and substitution composition.

Truncation is the finiteness device: the free construction and every
sequence carry an explicit arity bound, and operations raise BoundExceeded
rather than silently truncate.  With no nullary support, the number of outer
blocks needed at output arity k is at most k; with nullary support a block
count must be declared and results are stamped as bounded searches.

The substitution composite is one quotient (`colim.quotient`) of a tagged
carrier {(m, ys, blocks, gamma, vs, h)} with two families of generating
relations: block relations (a generator of the tuple category moves between
a block value, contravariantly, and the gluing morphism, covariantly) and
outer relations (a generator of the middle tuple category acts on gamma
contravariantly and, covariantly, permutes the blocks, pushes the block
values, and twists the gluing morphism by a block permutation).  Both are
functorial in the moving morphism, so relations along composites follow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .colim import QuotientSet, induced_map, quotient
from .fincat import (
    BoundExceeded,
    EndpointMismatch,
    FinCat,
    FinFn,
    FinSet,
    Functor,
    Label,
    NonInvertible,
    label_key,
    opposite,
)
from .prof import Profunctor
from .report import CheckReport

Perm = tuple[int, ...]


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


def perm_compose(tau: Perm, sigma: Perm) -> Perm:
    """tau after sigma: position i goes to tau[sigma[i]]."""
    return tuple(tau[sigma[i]] for i in range(len(sigma)))


def perm_inverse(sigma: Perm) -> Perm:
    out = [0] * len(sigma)
    for i, j in enumerate(sigma):
        out[j] = i
    return tuple(out)


def block_permutation(lengths: tuple[int, ...], sigma: Perm) -> Perm:
    """Move block i (of the given length) to slot sigma[i], preserving inner order."""
    m = len(lengths)
    inv = perm_inverse(sigma)
    tgt_offsets = [0] * m
    for j in range(1, m):
        tgt_offsets[j] = tgt_offsets[j - 1] + lengths[inv[j - 1]]
    out = []
    for i in range(m):
        for r in range(lengths[i]):
            out.append(tgt_offsets[sigma[i]] + r)
    return tuple(out)


def wreath_composition(gamma: Perm, lengths: tuple[int, ...], inner: tuple[Perm, ...]) -> Perm:
    """Permute within blocks by inner[i], then permute blocks by gamma."""
    m = len(lengths)
    block = block_permutation(lengths, gamma)
    offsets = [0] * m
    for i in range(1, m):
        offsets[i] = offsets[i - 1] + lengths[i - 1]
    out = []
    for i in range(m):
        for r in range(lengths[i]):
            out.append(block[offsets[i] + inner[i][r]])
    return tuple(out)


@dataclass(frozen=True)
class TruncatedSymCat:
    """The free symmetric strict monoidal category on a base, cut at a length bound.

    Objects are tuples of base objects of length <= max_len; a morphism is a
    permutation together with componentwise base morphisms routed through it:
    label (src, tgt, sigma, comps) with comps[i]: src[i] -> tgt[sigma[i]].
    The tensor (concatenation) is partial above the bound.
    """

    base: FinCat
    max_len: int
    cat: FinCat

    def __init__(self, base: FinCat, max_len: int):
        if max_len < 0:
            raise ValueError("arity bound must be nonnegative")
        objects = []
        for k in range(max_len + 1):
            objects.extend(itertools.product(list(base.objects), repeat=k))
        hom: dict[tuple[Label, Label], list] = {}
        for src in objects:
            for tgt in objects:
                hom[(src, tgt)] = []
                if len(src) != len(tgt):
                    continue
                k = len(src)
                for sigma in itertools.permutations(range(k)):
                    pools = [list(base.hom[(src[i], tgt[sigma[i]])]) for i in range(k)]
                    if any(len(pool) == 0 for pool in pools):
                        continue
                    for comps in itertools.product(*pools):
                        hom[(src, tgt)].append((src, tgt, sigma, comps))
        ids = {
            obj: (obj, obj, perm_identity(len(obj)), tuple(base.id_of(x) for x in obj))
            for obj in objects
        }
        comp = {}
        by_len: dict[int, list] = {}
        for obj in objects:
            by_len.setdefault(len(obj), []).append(obj)
        for k, objs_k in by_len.items():
            for src in objs_k:
                for mid in objs_k:
                    for f in hom[(src, mid)]:
                        for tgt in objs_k:
                            for g in hom[(mid, tgt)]:
                                _, _, sg, gc = g
                                _, _, sf, fc = f
                                sigma = perm_compose(sg, sf)
                                comps = tuple(
                                    base.comp[(gc[sf[i]], fc[i])] for i in range(k)
                                )
                                comp[(g, f)] = (src, tgt, sigma, comps)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "max_len", max_len)
        object.__setattr__(self, "cat", FinCat(objects, hom, ids, comp))

    def concat_obj(self, *tuples: tuple) -> tuple:
        out = tuple(x for t in tuples for x in t)
        if len(out) > self.max_len:
            raise BoundExceeded(
                f"concatenated length {len(out)} exceeds the bound {self.max_len}"
            )
        return out

    def concat_mor(self, *mors: Label) -> Label:
        src = self.concat_obj(*[m[0] for m in mors])
        tgt = self.concat_obj(*[m[1] for m in mors])
        sigma = []
        offset = 0
        for m in mors:
            sigma.extend(offset + m[2][i] for i in range(len(m[2])))
            offset += len(m[0])
        comps = tuple(c for m in mors for c in m[3])
        return (src, tgt, tuple(sigma), comps)

    def block_perm_mor(self, blocks: tuple[tuple, ...], sigma: Perm) -> Label:
        """The morphism permuting whole blocks to slots, with identity components."""
        src = self.concat_obj(*blocks)
        inv = perm_inverse(sigma)
        tgt = self.concat_obj(*[blocks[inv[j]] for j in range(len(blocks))])
        perm = block_permutation(tuple(len(b) for b in blocks), sigma)
        comps = tuple(self.base.id_of(x) for x in src)
        return (src, tgt, perm, comps)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSymCat)
            and self.base == other.base
            and self.max_len == other.max_len
        )


def free_sym_cat(base: FinCat, max_len: int) -> TruncatedSymCat:
    return TruncatedSymCat(base, max_len)


def sym_unit(sym: TruncatedSymCat) -> Functor:
    """Singleton-tuple inclusion of the base colours."""
    if sym.max_len < 1:
        raise BoundExceeded("bound 0 has no singleton tuples")
    base = sym.base
    obj_map = {x: (x,) for x in base.objects}
    mor_map = {
        m: ((base.src(m),), (base.tgt(m),), (0,), (m,)) for m in base.morphisms()
    }
    return Functor(base, sym.cat, obj_map, mor_map, check=False)


@dataclass(frozen=True)
class FlattenData:
    """Bracket-forgetting multiplication, as object/morphism functions.

    Outer data are tuples of tuples and permutation-of-inner-morphism pairs;
    the doubly-free category is never materialized.
    """

    sym: TruncatedSymCat

    def on_object(self, nested: tuple[tuple, ...]) -> tuple:
        return self.sym.concat_obj(*nested)

    def on_morphism(self, outer: Label) -> Label:
        src_nested, tgt_nested, sigma, inner_mors = outer
        flat_src = self.sym.concat_obj(*src_nested)
        flat_tgt = self.sym.concat_obj(*tgt_nested)
        m = len(src_nested)
        tgt_offsets = [0] * m
        for j in range(1, m):
            tgt_offsets[j] = tgt_offsets[j - 1] + len(tgt_nested[j - 1])
        perm = [0] * len(flat_src)
        comps: list = [None] * len(flat_src)
        pos = 0
        for i in range(m):
            _, _, tau, fbar = inner_mors[i]
            for r in range(len(src_nested[i])):
                perm[pos] = tgt_offsets[sigma[i]] + tau[r]
                comps[pos] = fbar[r]
                pos += 1
        return (flat_src, flat_tgt, tuple(perm), tuple(comps))


def sym_mult(sym: TruncatedSymCat) -> FlattenData:
    return FlattenData(sym)


# -- symmetric sequences ---------------------------------------------------------------


@dataclass(frozen=True)
class SymSeq:
    """Finite-set-valued functor on (free symmetric)^op x target, truncated.

    values[(xs, y)] for xs a tuple over the source colours and y a target
    colour; left action contravariant along tuple morphisms (in particular a
    genuine permutation-group action at each arity), right action covariant
    along the target category.
    """

    source_sym: TruncatedSymCat
    target: FinCat
    values: dict[tuple[tuple, Label], FinSet]
    left_act: dict[tuple[Label, Label], FinFn]   # (tuple morphism, y)
    right_act: dict[tuple[tuple, Label], FinFn]  # (xs, target morphism)
    quotients: dict = field(compare=False, default_factory=dict, repr=False)
    bounded_search: bool = field(compare=False, default=False)

    def __init__(self, source_sym, target, values, left_act, right_act,
                 check=True, quotients=None, bounded_search=False):
        object.__setattr__(self, "source_sym", source_sym)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "values", dict(values))
        object.__setattr__(self, "left_act", dict(left_act))
        object.__setattr__(self, "right_act", dict(right_act))
        object.__setattr__(self, "quotients", dict(quotients) if quotients else {})
        object.__setattr__(self, "bounded_search", bounded_search)
        if check:
            bad = symseq_violations(self)
            if bad:
                raise ValueError("not a symmetric sequence: " + bad[0])

    @property
    def max_arity(self) -> int:
        return self.source_sym.max_len

    def value(self, xs: tuple, y: Label) -> FinSet:
        return self.values[(xs, y)]

    def as_profunctor(self) -> Profunctor:
        return Profunctor(
            self.target,
            self.source_sym.cat,
            self.values,
            self.left_act,
            self.right_act,
            check=False,
        )

    def has_nullary_support(self) -> bool:
        return any(len(self.values[((), y)]) > 0 for y in self.target.objects)

    def __eq__(self, other):
        return (
            isinstance(other, SymSeq)
            and self.source_sym == other.source_sym
            and self.target == other.target
            and self.values == other.values
            and self.left_act == other.left_act
            and self.right_act == other.right_act
        )


def symseq_violations(seq: SymSeq) -> list[str]:
    from .colim import bifunctor_violations

    return bifunctor_violations(seq.as_profunctor().as_bifunctor())


@dataclass(frozen=True)
class SymSeqCell:
    """Equivariant family of functions between parallel symmetric sequences."""

    source: SymSeq
    target: SymSeq
    components: dict[tuple[tuple, Label], FinFn]

    def __init__(self, source, target, components, check=True):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", dict(components))
        if check:
            bad = symseqcell_violations(self)
            if bad:
                raise ValueError("not equivariant: " + bad[0])

    def at(self, xs: tuple, y: Label) -> FinFn:
        return self.components[(xs, y)]

    def is_iso(self) -> bool:
        return all(fn.is_bijective() for fn in self.components.values())

    def then(self, other: "SymSeqCell") -> "SymSeqCell":
        return SymSeqCell(
            self.source,
            other.target,
            {k: fn.then(other.components[k]) for k, fn in self.components.items()},
            check=False,
        )

    def __eq__(self, other):
        return isinstance(other, SymSeqCell) and self.components == other.components


def symseqcell_violations(cell: SymSeqCell) -> list[str]:
    from .prof import ProfCell, profcell_violations

    probe = ProfCell(
        cell.source.as_profunctor(),
        cell.target.as_profunctor(),
        cell.components,
        check=False,
    )
    return profcell_violations(probe)


def subst_identity(sym: TruncatedSymCat) -> SymSeq:
    """The unit sequence: arity-one values are base hom sets, all others empty."""
    base = sym.base
    values = {}
    for xs in sym.cat.objects:
        for y in base.objects:
            values[(xs, y)] = base.hom[(xs[0], y)] if len(xs) == 1 else FinSet()
    left_act = {}
    for m in sym.cat.morphisms():
        src, tgt, _, comps = m
        for y in base.objects:
            dom = values[(tgt, y)]
            if len(src) == 1:
                f = comps[0]
                left_act[(m, y)] = FinFn(
                    dom, values[(src, y)], {h: base.comp[(h, f)] for h in dom}
                )
            else:
                left_act[(m, y)] = FinFn(dom, values[(src, y)], {})
    right_act = {}
    for xs in sym.cat.objects:
        for g in base.morphisms():
            dom = values[(xs, base.src(g))]
            cod = values[(xs, base.tgt(g))]
            if len(xs) == 1:
                right_act[(xs, g)] = FinFn(dom, cod, {h: base.comp[(g, h)] for h in dom})
            else:
                right_act[(xs, g)] = FinFn(dom, cod, {})
    return SymSeq(sym, base, values, left_act, right_act, check=False)


# -- substitution composition -------------------------------------------------------------


def _compositions(total: int, m: int, allow_zero: bool) -> list[tuple[int, ...]]:
    if m == 0:
        return [()] if total == 0 else []
    out = []
    lo = 0 if allow_zero else 1
    for first in range(lo, total + 1):
        for rest in _compositions(total - first, m - 1, allow_zero):
            out.append((first,) + rest)
    return out


def _block_rows(f: SymSeq, xs: tuple, ys: tuple, allow_zero: bool):
    """Every (blocks, vs, h): len(ys) tuples `blocks`, a value vs[i] in
    f[blocks[i]; ys[i]] for each, and h: xs -> blocks[0] + ... + blocks[-1]."""
    cat = f.source_sym.cat
    by_len: dict[int, list] = {}
    for t in cat.objects:
        by_len.setdefault(len(t), []).append(t)
    for lengths in _compositions(len(xs), len(ys), allow_zero):
        for blocks in itertools.product(*[by_len[n] for n in lengths]):
            homs = cat.hom[(xs, tuple(x for b in blocks for x in b))]
            for vs in itertools.product(*[f.values[(b, y)] for b, y in zip(blocks, ys)]):
                for h in homs:
                    yield blocks, vs, h


def _generators_by_source(cat: FinCat) -> dict[Label, list[Label]]:
    out: dict[Label, list[Label]] = {a: [] for a in cat.objects}
    for mu in cat.generators():
        out[cat.src(mu)].append(mu)
    return out


def _block_pairs(f: SymSeq, gens_x: dict, ys: tuple, blocks: tuple, vs: tuple, h: Label):
    """Block relations at one (blocks, vs, h) over ys: a generator mu: blocks[i] -> t
    of the tuple category moves between the i-th block value (contravariant
    side) and the gluing morphism (covariant side).  The relation does not
    read vs[i], so it is emitted only where vs[i] is the first of its value
    set, once per relation."""
    sym_x = f.source_sym
    for i, s in enumerate(blocks):
        if vs[i] != f.values[(s, ys[i])].elements[0]:
            continue
        for mu in gens_x[s]:
            t = sym_x.cat.tgt(mu)
            embed = sym_x.concat_mor(
                *[mu if j == i else sym_x.cat.id_of(b) for j, b in enumerate(blocks)]
            )
            glued = sym_x.cat.comp[(embed, h)]
            moved_blocks = blocks[:i] + (t,) + blocks[i + 1:]
            pull = f.left_act[(mu, ys[i])]
            for v_prime in f.values[(t, ys[i])]:
                yield (
                    (blocks, vs[:i] + (pull(v_prime),) + vs[i + 1:], h),
                    (moved_blocks, vs[:i] + (v_prime,) + vs[i + 1:], glued),
                )


def _subst_relations(g: SymSeq, f: SymSeq, z: Label, carrier: FinSet, gens_x: dict, gens_y: dict):
    """Generating relations of the substitution quotient at (xs, z).

    Block relations come from `_block_pairs`.  Outer relations: a generator
    phi: ys -> ys' of the middle tuple category acts on the outer value
    contravariantly and on the block row covariantly (permuting blocks,
    pushing values, twisting the gluing by a block permutation); they do not
    read gamma, so they are emitted only where gamma is the first of its
    value set.
    """
    sym_x = f.source_sym
    for m, ys, blocks, gamma, vs, h in carrier:
        for (b0, v0, h0), (b1, v1, h1) in _block_pairs(f, gens_x, ys, blocks, vs, h):
            yield (m, ys, b0, gamma, v0, h0), (m, ys, b1, gamma, v1, h1)
        if m == 0 or gamma != g.values[(ys, z)].elements[0]:
            continue
        for phi in gens_y[ys]:
            _, ys_tgt, sigma, gbar = phi
            inv = perm_inverse(sigma)
            new_blocks = tuple(blocks[inv[j]] for j in range(m))
            new_vs = tuple(
                f.right_act[(blocks[inv[j]], gbar[inv[j]])](vs[inv[j]]) for j in range(m)
            )
            glued = sym_x.cat.comp[(sym_x.block_perm_mor(blocks, sigma), h)]
            pull = g.left_act[(phi, z)]
            for gamma_tgt in g.values[(ys_tgt, z)]:
                yield (
                    (m, ys, blocks, pull(gamma_tgt), vs, h),
                    (m, ys_tgt, new_blocks, gamma_tgt, new_vs, glued),
                )


def subst_compose(g: SymSeq, f: SymSeq, m_bound: int | None = None) -> SymSeq:
    """Substitution composite of symmetric sequences.

    Value at (xs, z): quotient, over all block counts m, of the set of
    tuples (ys, blocks, gamma, vs, h) with gamma in g[ys; z], vs[i] in
    f[blocks[i]; ys[i]] and h: xs -> blocks_1 (+) ... (+) blocks_m, by the
    generated block and outer relations.

    With nullary support in f the block count is unbounded: a declared
    m_bound is required and the result is stamped bounded_search.
    """
    if f.target != g.source_sym.base:
        raise EndpointMismatch("target colours of f must be the source colours of g")
    sym_x = f.source_sym
    sym_y = g.source_sym
    z_cat = g.target
    nullary = f.has_nullary_support()
    if nullary and m_bound is None:
        raise BoundExceeded(
            "nonempty nullary values make the block count unbounded; declare m_bound"
        )
    if nullary and m_bound > sym_y.max_len:
        raise BoundExceeded(
            f"declared m_bound {m_bound} exceeds the middle arity bound {sym_y.max_len}"
        )

    def m_range(k: int) -> range:
        if nullary:
            return range(0, m_bound + 1)
        if k > sym_y.max_len:
            raise BoundExceeded(
                f"output arity {k} needs block counts up to {k} but the middle "
                f"arity bound is {sym_y.max_len}; the sound bound for a "
                f"nullary-free inner sequence is m <= output arity"
            )
        return range(0, k + 1)

    gens_x = _generators_by_source(sym_x.cat)
    gens_y = _generators_by_source(sym_y.cat)
    quotients: dict[tuple[tuple, Label], QuotientSet] = {}
    values: dict[tuple[tuple, Label], FinSet] = {}
    for xs in sym_x.cat.objects:
        for z in z_cat.objects:
            carrier = FinSet(
                (m, ys, blocks, gamma, vs, h)
                for m in m_range(len(xs))
                for ys in itertools.product(f.target.objects, repeat=m)
                if len(g.values[(ys, z)]) > 0
                for blocks, vs, h in _block_rows(f, xs, ys, nullary)
                for gamma in g.values[(ys, z)]
            )
            quotients[(xs, z)] = quotient(
                carrier, _subst_relations(g, f, z, carrier, gens_x, gens_y)
            )
            values[(xs, z)] = quotients[(xs, z)].quotient

    left_act = {}
    for mor in sym_x.cat.morphisms():
        src = mor[0]
        tgt = mor[1]
        for z in z_cat.objects:

            def rule(elem, mor=mor, src=src, z=z):
                m, ys, blocks, gamma, vs, h = elem
                return quotients[(src, z)].representative(
                    (m, ys, blocks, gamma, vs, sym_x.cat.comp[(h, mor)])
                )

            left_act[(mor, z)] = induced_map(quotients[(tgt, z)], values[(src, z)], rule)
    right_act = {}
    for xs in sym_x.cat.objects:
        for zm in z_cat.morphisms():
            z0, z1 = z_cat.src(zm), z_cat.tgt(zm)

            def rule(elem, xs=xs, zm=zm, z1=z1):
                m, ys, blocks, gamma, vs, h = elem
                return quotients[(xs, z1)].representative(
                    (m, ys, blocks, g.right_act[(ys, zm)](gamma), vs, h)
                )

            right_act[(xs, zm)] = induced_map(quotients[(xs, z0)], values[(xs, z1)], rule)
    return SymSeq(
        sym_x, z_cat, values, left_act, right_act,
        check=False, quotients=quotients, bounded_search=nullary,
    )


# -- whiskering and the canonical isomorphisms ---------------------------------------------


def subst_whisker_outer(cell: SymSeqCell, gf: SymSeq, g2f: SymSeq) -> SymSeqCell:
    """Apply a cell between outer sequences inside composites with a shared inner part."""
    comps = {}
    for key, quotient in gf.quotients.items():

        def rule(elem, key=key):
            m, ys, blocks, gamma, vs, h = elem
            return g2f.quotients[key].representative(
                (m, ys, blocks, cell.components[(ys, key[1])](gamma), vs, h)
            )

        comps[key] = induced_map(quotient, g2f.values[key], rule)
    return SymSeqCell(gf, g2f, comps, check=False)


def subst_whisker_inner(cell: SymSeqCell, gf: SymSeq, gf2: SymSeq) -> SymSeqCell:
    """Apply a cell between inner sequences blockwise inside composites."""
    comps = {}
    for key, quotient in gf.quotients.items():

        def rule(elem, key=key):
            m, ys, blocks, gamma, vs, h = elem
            new_vs = tuple(cell.components[(blocks[i], ys[i])](vs[i]) for i in range(m))
            return gf2.quotients[key].representative((m, ys, blocks, gamma, new_vs, h))

        comps[key] = induced_map(quotient, gf2.values[key], rule)
    return SymSeqCell(gf, gf2, comps, check=False)


def subst_left_unit_iso(g: SymSeq, composed: SymSeq) -> SymSeqCell:
    """(unit o g) -> g: act with the gluing morphism and the arity-one outer value."""
    comps = {}
    for (xs, z), quotient in composed.quotients.items():

        def rule(elem, xs=xs):
            m, ys, blocks, gamma, vs, h = elem
            # composing with the unit forces m == 1 and a single block
            moved = g.left_act[(h, ys[0])](vs[0])
            return g.right_act[(xs, gamma)](moved)

        comps[(xs, z)] = induced_map(quotient, g.values[(xs, z)], rule)
    cell = SymSeqCell(composed, g, comps, check=False)
    if not cell.is_iso():
        raise NonInvertible("left unit comparison is not a bijection")
    return cell


def subst_right_unit_iso(g: SymSeq, composed: SymSeq) -> SymSeqCell:
    """(g o unit) -> g: fold the arity-one inner data into the gluing morphism."""
    sym = g.source_sym
    comps = {}
    for (xs, z), quotient in composed.quotients.items():

        def rule(elem, z=z):
            m, ys, blocks, gamma, vs, h = elem
            if m > 0:
                lift = sym.concat_mor(
                    *[(blocks[i], (ys[i],), (0,), (vs[i],)) for i in range(m)]
                )
                mover = sym.cat.comp[(lift, h)]
            else:
                mover = h
            return g.left_act[(mover, z)](gamma)

        comps[(xs, z)] = induced_map(quotient, g.values[(xs, z)], rule)
    cell = SymSeqCell(composed, g, comps, check=False)
    if not cell.is_iso():
        raise NonInvertible("right unit comparison is not a bijection")
    return cell


def subst_assoc_iso(
    h: SymSeq, g: SymSeq, f: SymSeq,
    left: SymSeq | None = None,
    right: SymSeq | None = None,
    hg: SymSeq | None = None,
    gf: SymSeq | None = None,
    m_bound: int | None = None,
) -> SymSeqCell:
    """((h o g) o f) -> (h o (g o f)): regroup blocks along the middle gluing morphism."""
    sym_x = f.source_sym
    hg = hg if hg is not None else subst_compose(h, g, m_bound)
    gf = gf if gf is not None else subst_compose(g, f, m_bound)
    left = left if left is not None else subst_compose(hg, f, m_bound)
    right = right if right is not None else subst_compose(h, gf, m_bound)
    comps = {}
    for (xs, w), quotient in left.quotients.items():
        w_key = w

        def rule(elem, xs=xs, w_key=w_key):
            m, ys, blocks, xi, vs, hmor = elem
            m2, zs, yblocks, eta, us, k = xi
            _, _, sigma, gbar = k
            inv = perm_inverse(sigma)
            offsets = [0] * m2
            for j in range(1, m2):
                offsets[j] = offsets[j - 1] + len(yblocks[j - 1])
            new_blocks = []
            omegas = []
            for j in range(m2):
                size = len(yblocks[j])
                srcs = [inv[offsets[j] + r] for r in range(size)]
                grouped = tuple(blocks[q] for q in srcs)
                xb = tuple(x for b in grouped for x in b)
                moved_vs = tuple(
                    f.right_act[(blocks[q], gbar[q])](vs[q]) for q in srcs
                )
                omega = gf.quotients[(xb, zs[j])].representative(
                    (size, yblocks[j], grouped, us[j], moved_vs, sym_x.cat.id_of(xb))
                )
                new_blocks.append(xb)
                omegas.append(omega)
            mover = sym_x.block_perm_mor(blocks, sigma)
            glued = sym_x.cat.comp[(mover, hmor)]
            return right.quotients[(xs, w_key)].representative(
                (m2, zs, tuple(new_blocks), eta, tuple(omegas), glued)
            )

        comps[(xs, w)] = induced_map(quotient, right.values[(xs, w)], rule)
    cell = SymSeqCell(left, right, comps, check=False)
    if not cell.is_iso():
        raise NonInvertible("associativity comparison is not a bijection")
    return cell


def check_subst_assoc(
    h: SymSeq, g: SymSeq, f: SymSeq, m_bound: int | None = None
) -> CheckReport:
    """Construct and verify the regrouping comparison, plus a cardinality
    cross-check of the two nestings computed from scratch."""
    report = CheckReport("subst-assoc")
    hg = subst_compose(h, g, m_bound)
    gf = subst_compose(g, f, m_bound)
    left = subst_compose(hg, f, m_bound)
    right = subst_compose(h, gf, m_bound)
    for key in left.values:
        report.add(
            f"cardinality@{key}",
            len(left.values[key]) == len(right.values[key]),
            f"{len(left.values[key])} vs {len(right.values[key])}",
        )
    try:
        cell = subst_assoc_iso(h, g, f, left=left, right=right, hg=hg, gf=gf, m_bound=m_bound)
    except (NonInvertible, ValueError) as exc:
        report.add("comparison-bijective", False, str(exc))
        return report
    report.add("comparison-bijective", True)
    bad = symseqcell_violations(cell)
    report.add("comparison-natural", not bad, bad[0] if bad else None)
    return report


# -- coloured operads ------------------------------------------------------------------------


@dataclass(frozen=True)
class ColouredOperad:
    """A symmetric sequence with unit and composition witnesses.

    unit_components / comp_components are keyed like sequence values; the
    sources are subst_identity(seq.source_sym) and subst_compose(seq, seq).
    """

    seq: SymSeq
    unit_components: dict[tuple[tuple, Label], FinFn]
    comp_components: dict[tuple[tuple, Label], FinFn]
    m_bound: int | None = None


def check_operad(operad: ColouredOperad) -> CheckReport:
    """Unit triangles and the associativity square, against the canonical isos."""
    report = CheckReport("operad")
    o = operad.seq
    sym = o.source_sym
    unit = subst_identity(sym)
    oo = subst_compose(o, o, operad.m_bound)
    unit_cell = SymSeqCell(unit, o, operad.unit_components, check=True)
    comp_cell = SymSeqCell(oo, o, operad.comp_components, check=True)
    report.add("cells-equivariant", True)

    unit_o = subst_compose(o, unit, operad.m_bound)
    o_unit = subst_compose(unit, o, operad.m_bound)
    # left unit: comp . (unit o 1) against the canonical iso (unit o 1 means
    # the unit cell applied on the *outer* factor of unit-then-o)
    left_path = subst_whisker_outer(unit_cell, o_unit, oo).then(comp_cell)
    left_iso = subst_left_unit_iso(o, o_unit)
    witness = _symcell_witness(left_path, left_iso)
    report.add("left-unit", witness is None, witness)
    # right unit: comp . (1 o unit)
    right_path = subst_whisker_inner(unit_cell, unit_o, oo).then(comp_cell)
    right_iso = subst_right_unit_iso(o, unit_o)
    witness = _symcell_witness(right_path, right_iso)
    report.add("right-unit", witness is None, witness)

    oo_o = subst_compose(oo, o, operad.m_bound)
    o_oo = subst_compose(o, oo, operad.m_bound)
    path1 = subst_whisker_outer(comp_cell, oo_o, oo).then(comp_cell)
    assoc = subst_assoc_iso(o, o, o, left=oo_o, right=o_oo, hg=oo, gf=oo,
                            m_bound=operad.m_bound)
    path2 = assoc.then(subst_whisker_inner(comp_cell, o_oo, oo)).then(comp_cell)
    witness = _symcell_witness(path1, path2)
    report.add("associativity", witness is None, witness)
    return report


def _symcell_witness(a: SymSeqCell, b: SymSeqCell) -> str | None:
    for key in sorted(a.components, key=label_key):
        fa, fb = a.components[key], b.components[key]
        if fa != fb:
            for e in fa.domain:
                if fa(e) != fb(e):
                    return f"at {key!r}, element {e!r}: {fa(e)!r} vs {fb(e)!r}"
            return f"at {key!r}: domains differ"
    return None


def terminal_operad(colours: FinCat, max_arity: int) -> ColouredOperad:
    """Singleton value sets at every positive arity.

    The nullary part is empty: nonempty nullary values make truncation
    unsound (block counts are then unbounded), so the terminal object is
    taken among positive operads.
    """
    sym = free_sym_cat(colours, max_arity)
    star = FinSet(["o"])
    values = {
        (xs, y): (star if len(xs) > 0 else FinSet())
        for xs in sym.cat.objects
        for y in colours.objects
    }
    left_act = {
        (m, y): FinFn.identity(values[(m[0], y)])
        for m in sym.cat.morphisms()
        for y in colours.objects
    }
    right_act = {
        (xs, g): FinFn.identity(values[(xs, colours.src(g))])
        for xs in sym.cat.objects
        for g in colours.morphisms()
    }
    seq = SymSeq(sym, colours, values, left_act, right_act, check=False)
    unit = subst_identity(sym)
    unit_components = {
        key: FinFn(unit.values[key], values[key], {u: "o" for u in unit.values[key]})
        for key in unit.values
    }
    oo = subst_compose(seq, seq)
    comp_components = {
        key: FinFn(oo.values[key], values[key], {u: "o" for u in oo.values[key]})
        for key in oo.values
    }
    return ColouredOperad(seq, unit_components, comp_components)


def unit_operad(colours: FinCat, max_arity: int) -> ColouredOperad:
    """The unit sequence as an operad over arbitrary colours.

    Composition folds the arity-one data into a single base composite; over
    colour categories with parallel morphisms this gives operad cells with
    multi-element components.
    """
    sym = free_sym_cat(colours, max_arity)
    seq = subst_identity(sym)
    unit_components = {key: FinFn.identity(val) for key, val in seq.values.items()}
    oo = subst_compose(seq, seq)
    iso = subst_left_unit_iso(seq, oo)
    return ColouredOperad(seq, unit_components, dict(iso.components))


def associative_operad(max_arity: int) -> ColouredOperad:
    """Single colour, arity-k value set the full permutation group (k >= 1)."""
    from .seeds import discrete

    colours = discrete(1)
    y0 = next(iter(colours.objects))
    sym = free_sym_cat(colours, max_arity)
    values = {
        (xs, y0): (
            FinSet(itertools.permutations(range(len(xs))))
            if len(xs) > 0
            else FinSet()
        )
        for xs in sym.cat.objects
    }
    left_act = {}
    for m in sym.cat.morphisms():
        src, tgt, sigma, _ = m
        dom = values[(tgt, y0)]
        left_act[(m, y0)] = FinFn(
            dom, values[(src, y0)], {v: perm_compose(v, sigma) for v in dom}
        )
    right_act = {
        (xs, colours.id_of(y0)): FinFn.identity(values[(xs, y0)])
        for xs in sym.cat.objects
    }
    seq = SymSeq(sym, colours, values, left_act, right_act, check=False)
    unit = subst_identity(sym)
    unit_components = {
        key: FinFn.constant(unit.values[key], values[(key[0], y0)], (0,))
        if len(key[0]) == 1
        else FinFn(unit.values[key], values[(key[0], y0)], {})
        for key in unit.values
    }
    oo = subst_compose(seq, seq)
    comp_components = {}
    for key, dom in oo.values.items():
        xs, _ = key
        table = {}
        for cls in dom:
            m, ys, blocks, gamma, vs, h = cls
            lengths = tuple(len(b) for b in blocks)
            composed = wreath_composition(gamma, lengths, vs)
            table[cls] = perm_compose(composed, h[2])
        comp_components[key] = FinFn(dom, values[(xs, y0)], table)
    return ColouredOperad(seq, unit_components, comp_components)


# -- the extension operation and the duality view ----------------------------------------------


def subst_extension(f: SymSeq, sym_y: TruncatedSymCat, m_bound: int | None = None) -> Profunctor:
    """The tuple-level extension of a sequence: values at (xs, ys) are the
    block decompositions of xs matching ys, quotiented by block relations."""
    if sym_y.base != f.target:
        raise EndpointMismatch("extension needs tuples over the target colours")
    sym_x = f.source_sym
    nullary = f.has_nullary_support()
    if nullary and m_bound is None:
        raise BoundExceeded(
            "nonempty nullary values make block decompositions unbounded; declare m_bound"
        )
    gens_x = _generators_by_source(sym_x.cat)
    quotients: dict[tuple[tuple, tuple], QuotientSet] = {}
    for xs in sym_x.cat.objects:
        for ys in sym_y.cat.objects:
            carrier = FinSet(_block_rows(f, xs, ys, nullary))
            quotients[(xs, ys)] = quotient(
                carrier,
                (pair for blocks, vs, h in carrier
                 for pair in _block_pairs(f, gens_x, ys, blocks, vs, h)),
            )
    values = {key: q.quotient for key, q in quotients.items()}
    left_act = {}
    for rho in sym_x.cat.morphisms():
        src, tgt = rho[0], rho[1]
        for ys in sym_y.cat.objects:

            def rule(elem, rho=rho, src=src, ys=ys):
                blocks, vs, h = elem
                return quotients[(src, ys)].representative(
                    (blocks, vs, sym_x.cat.comp[(h, rho)])
                )

            left_act[(rho, ys)] = induced_map(
                quotients[(tgt, ys)], values[(src, ys)], rule
            )
    right_act = {}
    for xs in sym_x.cat.objects:
        for phi in sym_y.cat.morphisms():
            ys0, ys1, sigma, gbar = phi
            inv = perm_inverse(sigma)

            def rule(elem, xs=xs, ys1=ys1, sigma=sigma, gbar=gbar, inv=inv):
                blocks, vs, h = elem
                m = len(blocks)
                new_blocks = tuple(blocks[inv[j]] for j in range(m))
                new_vs = tuple(
                    f.right_act[(blocks[inv[j]], gbar[inv[j]])](vs[inv[j]])
                    for j in range(m)
                )
                mover = sym_x.block_perm_mor(blocks, sigma)
                return quotients[(xs, ys1)].representative(
                    (new_blocks, new_vs, sym_x.cat.comp[(mover, h)])
                )

            right_act[(xs, phi)] = induced_map(
                quotients[(xs, ys0)], values[(xs, ys1)], rule
            )
    return Profunctor(
        sym_y.cat, sym_x.cat, values, left_act, right_act, check=False,
        coends=quotients,
    )


def representable_seq(sym: TruncatedSymCat, target: FinCat, picks: dict) -> SymSeq:
    """The sequence represented by a chosen tuple per target colour.

    Value at (xs, y) is the tuple-morphism set xs -> picks[y]; the left
    action is precomposition and the right action reindexes along the
    functoriality of the picks (identity-only targets are supported, plus
    poset-like targets when the picks are related by chosen morphisms).
    """
    values, left, right = {}, {}, {}
    for xs in sym.cat.objects:
        for y in target.objects:
            values[(xs, y)] = sym.cat.hom[(xs, picks[y])]
    for m in sym.cat.morphisms():
        src, tgt, _, _ = m
        for y in target.objects:
            dom = values[(tgt, y)]
            left[(m, y)] = FinFn(
                dom, values[(src, y)], {h: sym.cat.comp[(h, m)] for h in dom}
            )
    for xs in sym.cat.objects:
        for g in target.morphisms():
            dom = values[(xs, target.src(g))]
            if target.is_identity(g):
                right[(xs, g)] = FinFn.identity(dom)
            else:
                raise ValueError("representable sequences need identity-only targets")
    return SymSeq(sym, target, values, left, right, check=False)


def seq_coproduct(a: SymSeq, b: SymSeq) -> SymSeq:
    """Pointwise tagged union of parallel sequences."""
    if a.source_sym != b.source_sym or a.target != b.target:
        raise EndpointMismatch("sequences are not parallel")
    values, left, right = {}, {}, {}
    for key in a.values:
        values[key] = FinSet(
            [(0, u) for u in a.values[key]] + [(1, u) for u in b.values[key]]
        )
    for (m, y) in a.left_act:
        dom = values[(m[1], y)]
        table = {
            (tag, u): (tag, (a if tag == 0 else b).left_act[(m, y)](u))
            for (tag, u) in dom
        }
        left[(m, y)] = FinFn(dom, values[(m[0], y)], table)
    for (xs, g) in a.right_act:
        dom = values[(xs, a.target.src(g))]
        table = {
            (tag, u): (tag, (a if tag == 0 else b).right_act[(xs, g)](u))
            for (tag, u) in dom
        }
        right[(xs, g)] = FinFn(dom, values[(xs, a.target.tgt(g))], table)
    return SymSeq(a.source_sym, a.target, values, left, right, check=False)


def check_tau_compatibility(g: SymSeq, f: SymSeq, m_bound: int | None = None) -> CheckReport:
    """Substitution equals extension-then-apply composition, value set by value set.

    The composite is recomputed through the tuple-level extension profunctor
    and the presheaf machinery; an explicit bijection is exhibited on every
    carrier element and verified well-defined and bijective.
    """
    from .presheaf import kan_extend
    from .prof import kleisli_compose, tau

    report = CheckReport("tau-compatibility")
    gf = subst_compose(g, f, m_bound)
    ext = subst_extension(f, g.source_sym, m_bound)
    composite = kleisli_compose(tau(ext), tau(g.as_profunctor()))
    for key in sorted(gf.values, key=label_key):
        xs, z = key
        kan = composite.on_obj[z]

        def rule(elem, xs=xs, z=z, kan=kan):
            m, ys, blocks, gamma, vs, h = elem
            u = ext.coends[(xs, ys)].representative((blocks, vs, h))
            return kan.cls(xs, ys, u, gamma)

        try:
            fn = induced_map(gf.quotients[key], kan.values[xs], rule)
        except ValueError as exc:
            report.add(f"bijective@{key}", False, str(exc))
            continue
        report.add(
            f"bijective@{key}",
            fn.is_bijective(),
            f"|subst| = {len(fn.domain)}, |kleisli| = {len(fn.codomain)}",
        )
    return report


def _convert_op_tuple_morphism(m: Label) -> Label:
    """Morphism of tuples over the opposite base <-> reversed morphism of tuples."""
    src, tgt, sigma, comps = m
    inv = perm_inverse(sigma)
    return (tgt, src, inv, tuple(comps[inv[j]] for j in range(len(sigma))))


def esp_view(f: SymSeq, sym_op: TruncatedSymCat | None = None) -> Profunctor:
    """Re-index a sequence as a profunctor out of tuples over the opposite colours.

    The hom-categories of the two presentations are identified by reversing
    both variances; this is a pure re-indexing of the same value tables.
    """
    op_base = opposite(f.source_sym.base)
    sym_op = sym_op if sym_op is not None else free_sym_cat(op_base, f.source_sym.max_len)
    y_op = opposite(f.target)
    values = {
        (y, xs): f.values[(xs, y)]
        for y in y_op.objects
        for xs in sym_op.cat.objects
    }
    left_act = {}
    for gm in y_op.morphisms():
        for xs in sym_op.cat.objects:
            left_act[(gm, xs)] = f.right_act[(xs, gm)]
    right_act = {}
    for y in y_op.objects:
        for m_op in sym_op.cat.morphisms():
            right_act[(y, m_op)] = f.left_act[(_convert_op_tuple_morphism(m_op), y)]
    return Profunctor(sym_op.cat, y_op, values, left_act, right_act, check=False)


def esp_unview(p: Profunctor, sym: TruncatedSymCat) -> SymSeq:
    """Inverse re-indexing; esp_unview(esp_view(f)) == f label-exactly."""
    y_cat = opposite(p.target)
    values = {
        (xs, y): p.values[(y, xs)]
        for (y, xs) in p.values
    }
    left_act = {}
    for m in sym.cat.morphisms():
        for y in y_cat.objects:
            left_act[(m, y)] = p.right_act[(y, _convert_op_tuple_morphism(m))]
    right_act = {}
    for xs in p.source.objects:
        for gm in y_cat.morphisms():
            right_act[(xs, gm)] = p.left_act[(gm, xs)]
    return SymSeq(sym, y_cat, values, left_act, right_act, check=False)
