"""Free symmetric strict monoidal categories (truncated), symmetric sequences,
and substitution composition.

A symmetric sequence is a profunctor (`SymSeq` subclasses `prof.Profunctor`)
from its output colours to the free symmetric category on its input colours,
keyed values[(xs, y)] for a tuple xs and an output colour y; its cells are
profunctor cells.

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
Their structural morphisms are built once per block shape (`TruncatedSymCat`).
The actions of the composite, and of the tuple-level extension, come from
`prof.coend_actions`.  Every other sequence here -- the unit, the
representables, coproducts and the operads' sequences -- gets its action
tables from `prof.action_tables`, given its values and one elementwise rule
per side, and the unit and composition cells of the operads come from
`fincat.components`, given an image rule.  `subst_bicategory` presents substitution, with its
associator, unit isomorphisms and whiskerings, as a one-object
`report.Bicategory`, whose pentagon and triangles the shared `report`
checkers test.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .colim import QuotientSet, induced_components, induced_map, quotient
from .fincat import (
    BoundExceeded,
    EndpointMismatch,
    FinCat,
    FinFn,
    FinSet,
    Functor,
    Label,
    _Canonical,
    cell_difference,
    components,
    generators_by_source,
    label_key,
    memo_scope,
    memoised,
)
from .prof import ProfCell, Profunctor, action_tables, coend_actions, kleisli_compose, tau
from .report import Bicategory, CheckReport
from .seeds import discrete

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
    Substitution's structural morphisms, which depend on the block shape alone
    (`block_embedding`, `block_perm_mor`), are built once, in a table keyed by
    their arguments, however many carrier elements read them.
    """

    base: FinCat
    max_len: int
    cat: FinCat
    _structural: dict = field(compare=False, repr=False)

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
        object.__setattr__(self, "_structural", {})

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

    def block_embedding(self, blocks: tuple[tuple, ...], i: int, mu: Label) -> Label:
        """mu: blocks[i] -> t on block i, identities on the others; built once."""
        key = ("embed", blocks, i, mu)
        if key not in self._structural:
            embedded = [mu if j == i else self.cat.id_of(b) for j, b in enumerate(blocks)]
            self._structural[key] = self.concat_mor(*embedded)
        return self._structural[key]

    def block_perm_mor(self, blocks: tuple[tuple, ...], sigma: Perm) -> Label:
        """The morphism permuting whole blocks to slots, with identity components; built once."""
        key = ("perm", blocks, sigma)
        if key not in self._structural:
            src = self.concat_obj(*blocks)
            tgt = self.concat_obj(*[blocks[j] for j in perm_inverse(sigma)])
            perm = block_permutation(tuple(len(b) for b in blocks), sigma)
            self._structural[key] = (src, tgt, perm, tuple(self.base.id_of(x) for x in src))
        return self._structural[key]

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


class SymSeq(Profunctor):
    """A symmetric sequence: a profunctor from the output colours to the
    free symmetric category `source_sym.cat` on the input colours, truncated.

    values[(xs, y)] for xs a tuple over the input colours and y an output
    colour (`source`); left action contravariant along tuple morphisms (in
    particular a genuine permutation-group action at each arity), right
    action covariant along the output colours.
    """

    source_sym: TruncatedSymCat
    bounded_search: bool

    invalid = "not a symmetric sequence"

    def __init__(self, source_sym, colours, values, left_act, right_act,
                 check=True, quotients=None, bounded_search=False):
        object.__setattr__(self, "source_sym", source_sym)
        object.__setattr__(self, "bounded_search", bounded_search)
        super().__init__(colours, source_sym.cat, values, left_act, right_act, check, quotients)

    @property
    def max_arity(self) -> int:
        return self.source_sym.max_len

    def has_nullary_support(self) -> bool:
        return any(len(self.values[((), y)]) > 0 for y in self.source.objects)


class SymSeqCell(ProfCell):
    """Equivariant family of functions between parallel symmetric sequences."""

    invalid = "not equivariant"


@memoised
def subst_identity(sym: TruncatedSymCat) -> SymSeq:
    """The unit sequence: arity-one values are base hom sets, all others empty."""
    base = sym.base
    values = {
        (xs, y): base.hom[(xs[0], y)] if len(xs) == 1 else FinSet()
        for xs in sym.cat.objects
        for y in base.objects
    }
    # both rules run on arity-one values only: every other value is empty
    tables = action_tables(
        base, sym.cat, values,
        lambda m, y, h: base.comp[(h, m[3][0])], lambda xs, g, h: base.comp[(g, h)],
    )
    return SymSeq(sym, base, *tables, check=False)


# -- substitution composition -------------------------------------------------------------


def _blockings(objects: FinSet, total: int, m: int, lo: int):
    """Tuples of m blocks from `objects`, each of length >= lo, of total length
    `total`, in canonical order: the first block varies slowest, and each
    runs through `objects` in its own (canonical) order."""
    if m == 0:
        if total == 0:
            yield ()
        return
    for b in objects:
        if lo <= len(b) <= total - lo * (m - 1) and (m > 1 or len(b) == total):
            for rest in _blockings(objects, total - len(b), m - 1, lo):
                yield (b,) + rest


def _block_rows(f: SymSeq, xs: tuple, ys: tuple, allow_zero: bool):
    """Every (blocks, rows): len(ys) tuples `blocks`, and the list of (vs, h)
    with a value vs[i] in f[blocks[i]; ys[i]] for each block and
    h: xs -> blocks[0] + ... + blocks[-1].  Both come in canonical order, so
    the flat tuples built from them need no sorting."""
    cat = f.source_sym.cat
    for blocks in _blockings(cat.objects, len(xs), len(ys), 0 if allow_zero else 1):
        homs = cat.hom[(xs, tuple(x for b in blocks for x in b))]
        yield blocks, list(itertools.product(
            itertools.product(*[f.values[(b, y)] for b, y in zip(blocks, ys)]), homs
        ))


def _row_action(f: SymSeq, phi: Label, blocks: tuple):
    """phi: ys -> ys' on the block rows over ys with these blocks: the permuted
    blocks, the pushes along phi's components (each with the position it
    reads), and the block permutation that twists the gluing morphism."""
    _, _, sigma, gbar = phi
    inv = perm_inverse(sigma)
    return (
        tuple(blocks[j] for j in inv),
        tuple((j, f.right_act[(blocks[j], gbar[j])]) for j in inv),
        f.source_sym.block_perm_mor(blocks, sigma),
    )


def _act_on_row(f: SymSeq, phi: Label, blocks: tuple, vs: tuple, h: Label):
    """phi: ys -> ys' acting covariantly on one block row (blocks, vs, h) over ys."""
    new_blocks, pushes, mover = _row_action(f, phi, blocks)
    return new_blocks, tuple(push(vs[j]) for j, push in pushes), f.source_sym.cat.comp[(mover, h)]


def _glue(cat: FinCat):
    """The left carrier rule of substitution values: a tuple morphism
    precomposes the gluing morphism, the last entry of every carrier element."""
    return lambda mor, _, elem: elem[:-1] + (cat.comp[(elem[-1], mor)],)


def _relations(f: SymSeq, gens_x: dict, carrier, outer=None):
    """Generating relations of a substitution quotient on a carrier of
    elements (m, ys, blocks, gamma, vs, h), in carrier order, walked one run
    of equal (m, ys, blocks) at a time (`_block_rows` keeps each run
    contiguous); what depends on the run alone is looked up once per run.

    Block relations: a generator mu: blocks[i] -> t of the tuple category
    moves between the i-th block value (contravariant side) and the gluing
    morphism (covariant side, through `block_embedding`); emitted only where
    vs[i], which they do not read, is the first of its value set.  Outer
    relations, given outer = (g, z, gens_y) and m > 0: a generator phi: ys ->
    ys' of the middle tuple category acts on gamma in g[ys; z] contravariantly
    and on the block row covariantly (`_row_action`); emitted only where
    gamma, which they do not read, is the first of its value set.
    """
    cat = f.source_sym.cat
    for (m, ys, blocks), run in itertools.groupby(carrier, operator.itemgetter(0, 1, 2)):
        moves = [
            (i, f.values[(s, y)].elements[0], f.source_sym.block_embedding(blocks, i, mu),
             blocks[:i] + (cat.tgt(mu),) + blocks[i + 1:],
             [(f.left_act[(mu, y)](v), v) for v in f.values[(cat.tgt(mu), y)]])
            for i, (s, y) in enumerate(zip(blocks, ys)) for mu in gens_x[s]
        ]
        acts, first_gamma = [], None
        if outer is not None and m > 0:
            g, z, gens_y = outer
            first_gamma = g.values[(ys, z)].elements[0]
            acts = [
                (phi[1], *_row_action(f, phi, blocks),
                 [(g.left_act[(phi, z)](gt), gt) for gt in g.values[(phi[1], z)]])
                for phi in gens_y[ys]
            ]
        for _, _, _, gamma, vs, h in run:
            for i, first, embed, moved, pulls in moves:
                if vs[i] == first:
                    glued = cat.comp[(embed, h)]
                    for pv, v in pulls:
                        yield (
                            (m, ys, blocks, gamma, vs[:i] + (pv,) + vs[i + 1:], h),
                            (m, ys, moved, gamma, vs[:i] + (v,) + vs[i + 1:], glued),
                        )
            if gamma == first_gamma:
                for ys_tgt, new_blocks, pushes, mover, pulls in acts:
                    new_vs = tuple(push(vs[j]) for j, push in pushes)
                    glued = cat.comp[(mover, h)]
                    for pg, gt in pulls:
                        yield (m, ys, blocks, pg, vs, h), (m, ys_tgt, new_blocks, gt, new_vs, glued)


@memoised
def subst_compose(g: SymSeq, f: SymSeq, m_bound: int | None = None) -> SymSeq:
    """Substitution composite of symmetric sequences.

    Value at (xs, z): quotient, over all block counts m, of the set of
    tuples (ys, blocks, gamma, vs, h) with gamma in g[ys; z], vs[i] in
    f[blocks[i]; ys[i]] and h: xs -> blocks_1 (+) ... (+) blocks_m, by the
    generated block and outer relations.

    With nullary support in f the block count is unbounded: a declared
    m_bound is required and the result is stamped bounded_search.
    """
    if f.source != g.source_sym.base:
        raise EndpointMismatch("target colours of f must be the source colours of g")
    if m_bound is not None and m_bound < 0:  # it would empty every value silently
        raise ValueError(f"m_bound must be non-negative, got {m_bound}")
    sym_x = f.source_sym
    sym_y = g.source_sym
    z_cat = g.source
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

    gens_x = generators_by_source(sym_x.cat)
    gens_y = generators_by_source(sym_y.cat)
    quotients: dict[tuple[tuple, Label], QuotientSet] = {}
    for xs in sym_x.cat.objects:
        for z in z_cat.objects:
            carrier = FinSet(_Canonical(
                (m, ys, blocks, gamma, vs, h)
                for m in m_range(len(xs))
                for ys in itertools.product(f.source.objects, repeat=m)
                if len(g.values[(ys, z)]) > 0
                for blocks, rows in _block_rows(f, xs, ys, nullary)
                for gamma in g.values[(ys, z)]
                for vs, h in rows
            ))
            quotients[(xs, z)] = quotient(carrier, _relations(f, gens_x, carrier, (g, z, gens_y)))

    def right(xs, zm, elem):
        m, ys, blocks, gamma, vs, h = elem
        return m, ys, blocks, g.right_act[(ys, zm)](gamma), vs, h

    return SymSeq(
        sym_x, z_cat, *coend_actions(z_cat, sym_x.cat, quotients, _glue(sym_x.cat), right),
        check=False, quotients=quotients, bounded_search=nullary,
    )


# -- whiskering and the canonical isomorphisms ---------------------------------------------


def subst_whisker_outer(cell: SymSeqCell, f: SymSeq, m_bound: int | None = None) -> SymSeqCell:
    """cell * 1_f: apply a cell between outer sequences inside their composites with f."""
    gf = subst_compose(cell.source, f, m_bound)
    g2f = subst_compose(cell.target, f, m_bound)

    def rule(key, elem):
        m, ys, blocks, gamma, vs, h = elem
        return g2f.quotients[key].representative(
            (m, ys, blocks, cell.components[(ys, key[1])](gamma), vs, h)
        )

    return SymSeqCell(gf, g2f, induced_components(gf.quotients, g2f.values, rule), check=False)


def subst_whisker_inner(g: SymSeq, cell: SymSeqCell, m_bound: int | None = None) -> SymSeqCell:
    """1_g * cell: apply a cell between inner sequences blockwise inside composites."""
    gf = subst_compose(g, cell.source, m_bound)
    gf2 = subst_compose(g, cell.target, m_bound)

    def rule(key, elem):
        m, ys, blocks, gamma, vs, h = elem
        new_vs = tuple(cell.components[(blocks[i], ys[i])](vs[i]) for i in range(m))
        return gf2.quotients[key].representative((m, ys, blocks, gamma, new_vs, h))

    return SymSeqCell(gf, gf2, induced_components(gf.quotients, gf2.values, rule), check=False)


def subst_left_unit_iso(g: SymSeq, m_bound: int | None = None) -> SymSeqCell:
    """(unit o g) -> g, for g with its input colours as output colours: act with
    the gluing morphism and the arity-one outer value."""
    composed = subst_compose(subst_identity(g.source_sym), g, m_bound)

    def rule(key, elem):
        m, ys, blocks, gamma, vs, h = elem
        # composing with the unit forces m == 1 and a single block
        moved = g.left_act[(h, ys[0])](vs[0])
        return g.right_act[(key[0], gamma)](moved)

    comps = induced_components(composed.quotients, g.values, rule)
    cell = SymSeqCell(composed, g, comps, check=False)
    return cell.require_iso("left unit comparison is not a bijection")


def subst_right_unit_iso(g: SymSeq, m_bound: int | None = None) -> SymSeqCell:
    """(g o unit) -> g: fold the arity-one inner data into the gluing morphism."""
    sym = g.source_sym
    composed = subst_compose(g, subst_identity(sym), m_bound)

    def rule(key, elem):
        m, ys, blocks, gamma, vs, h = elem
        # every block has length one, so the values vs form the morphism
        # blocks[0] + ... + blocks[-1] = tgt(h) -> ys with identity permutation
        mover = sym.cat.comp[((h[1], ys, perm_identity(m), vs), h)]
        return g.left_act[(mover, key[1])](gamma)

    comps = induced_components(composed.quotients, g.values, rule)
    cell = SymSeqCell(composed, g, comps, check=False)
    return cell.require_iso("right unit comparison is not a bijection")


@memo_scope()
def subst_assoc_iso(h: SymSeq, g: SymSeq, f: SymSeq, m_bound: int | None = None) -> SymSeqCell:
    """((h o g) o f) -> (h o (g o f)): regroup blocks along the middle gluing morphism."""
    sym_x = f.source_sym
    hg = subst_compose(h, g, m_bound)
    gf = subst_compose(g, f, m_bound)
    left = subst_compose(hg, f, m_bound)
    right = subst_compose(h, gf, m_bound)

    def rule(key, elem):
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
            moved_vs = tuple(f.right_act[(blocks[q], gbar[q])](vs[q]) for q in srcs)
            omega = gf.quotients[(xb, zs[j])].representative(
                (size, yblocks[j], grouped, us[j], moved_vs, sym_x.cat.id_of(xb))
            )
            new_blocks.append(xb)
            omegas.append(omega)
        mover = sym_x.block_perm_mor(blocks, sigma)
        glued = sym_x.cat.comp[(mover, hmor)]
        return right.quotients[key].representative(
            (m2, zs, tuple(new_blocks), eta, tuple(omegas), glued)
        )

    comps = induced_components(left.quotients, right.values, rule)
    cell = SymSeqCell(left, right, comps, check=False)
    return cell.require_iso("associativity comparison is not a bijection")


@memo_scope()
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
    report.build(
        "comparison-bijective", subst_assoc_iso, h, g, f, m_bound, natural="comparison-natural"
    )
    return report


def subst_bicategory(sym: TruncatedSymCat, m_bound: int | None = None) -> Bicategory:
    """Substitution of sequences from sym's colours to themselves as a
    one-object bicategory: compose(g, f) is g o f, the identity is the unit
    sequence, and the whiskerings act on the outer or inner factor.  No
    component is corruptible; tags are ignored."""
    return Bicategory(
        compose=lambda g, f: subst_compose(g, f, m_bound),
        identity=lambda _: subst_identity(sym),
        src=lambda _: sym,
        tgt=lambda _: sym,
        assoc=lambda h, g, f, tag: subst_assoc_iso(h, g, f, m_bound),
        lunit=lambda f, tag: subst_left_unit_iso(f, m_bound),
        runit=lambda f, tag: subst_right_unit_iso(f, m_bound),
        whisker_left=lambda g, cell: subst_whisker_inner(g, cell, m_bound),
        whisker_right=lambda cell, f: subst_whisker_outer(cell, f, m_bound),
    )


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


@memo_scope()
def check_operad(operad: ColouredOperad) -> CheckReport:
    """Unit triangles and the associativity square, against the canonical isos."""
    report = CheckReport("operad")
    o, m_bound = operad.seq, operad.m_bound
    unit = subst_identity(o.source_sym)
    oo = subst_compose(o, o, m_bound)
    unit_cell = SymSeqCell(unit, o, operad.unit_components, check=True)
    comp_cell = SymSeqCell(oo, o, operad.comp_components, check=True)
    report.add("cells-equivariant", True)

    # left unit: comp . (unit o 1) against the canonical iso (unit o 1 means
    # the unit cell applied on the *outer* factor of unit-then-o)
    left_path = subst_whisker_outer(unit_cell, o, m_bound).then(comp_cell)
    report.record("left-unit", cell_difference(left_path, subst_left_unit_iso(o, m_bound)))
    # right unit: comp . (1 o unit)
    right_path = subst_whisker_inner(o, unit_cell, m_bound).then(comp_cell)
    report.record("right-unit", cell_difference(right_path, subst_right_unit_iso(o, m_bound)))

    path1 = subst_whisker_outer(comp_cell, o, m_bound).then(comp_cell)
    assoc = subst_assoc_iso(o, o, o, m_bound)
    path2 = assoc.then(subst_whisker_inner(o, comp_cell, m_bound)).then(comp_cell)
    report.record("associativity", cell_difference(path1, path2))
    return report


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
    tables = action_tables(colours, sym.cat, values, lambda m, y, u: u, lambda xs, g, u: u)
    seq = SymSeq(sym, colours, *tables, check=False)
    unit_components = components(subst_identity(sym).values, values, lambda key, u: "o")
    comp_components = components(subst_compose(seq, seq).values, values, lambda key, u: "o")
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
    iso = subst_left_unit_iso(seq)
    return ColouredOperad(seq, unit_components, dict(iso.components))


def associative_operad(max_arity: int) -> ColouredOperad:
    """Single colour, arity-k value set the full permutation group (k >= 1)."""
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
    tables = action_tables(
        colours, sym.cat, values, lambda m, y, v: perm_compose(v, m[2]), lambda xs, g, v: v
    )
    seq = SymSeq(sym, colours, *tables, check=False)
    unit_components = components(subst_identity(sym).values, values, lambda key, u: (0,))

    def compose(key, cls):
        m, ys, blocks, gamma, vs, h = cls
        return perm_compose(wreath_composition(gamma, tuple(len(b) for b in blocks), vs), h[2])

    comp_components = components(subst_compose(seq, seq).values, values, compose)
    return ColouredOperad(seq, unit_components, comp_components)


# -- the extension operation ----------------------------------------------


def subst_extension(f: SymSeq, sym_y: TruncatedSymCat, m_bound: int | None = None) -> Profunctor:
    """The tuple-level extension of a sequence: values at (xs, ys) are the
    block decompositions of xs matching ys, quotiented by block relations."""
    if sym_y.base != f.source:
        raise EndpointMismatch("extension needs tuples over the target colours")
    if m_bound is not None and m_bound < 0:  # it would empty every value silently
        raise ValueError(f"m_bound must be non-negative, got {m_bound}")
    sym_x = f.source_sym
    nullary = f.has_nullary_support()
    if nullary and m_bound is None:
        raise BoundExceeded(
            "nonempty nullary values make block decompositions unbounded; declare m_bound"
        )
    gens_x = generators_by_source(sym_x.cat)
    quotients: dict[tuple[tuple, tuple], QuotientSet] = {}
    for xs in sym_x.cat.objects:
        for ys in sym_y.cat.objects:
            carrier = FinSet(_Canonical(
                (blocks, vs, h) for blocks, rows in _block_rows(f, xs, ys, nullary)
                for vs, h in rows
            ))
            # the block relations, walked as a composite's carrier with no outer value
            pairs = _relations(f, gens_x, ((len(ys), ys, b, None, vs, h) for b, vs, h in carrier))
            quotients[(xs, ys)] = quotient(carrier, (
                ((b0, v0, h0), (b1, v1, h1)) for (_, _, b0, _, v0, h0), (_, _, b1, _, v1, h1) in pairs
            ))
    return Profunctor(
        sym_y.cat, sym_x.cat,
        *coend_actions(sym_y.cat, sym_x.cat, quotients, _glue(sym_x.cat),
                       lambda xs, phi, elem: _act_on_row(f, phi, *elem)),
        check=False, quotients=quotients,
    )


def representable_seq(sym: TruncatedSymCat, target: FinCat, picks: dict) -> SymSeq:
    """The sequence represented by a chosen tuple per target colour.

    Value at (xs, y) is the tuple-morphism set xs -> picks[y]; the left
    action is precomposition.  The target must have identities only, on
    which the right action is the identity.
    """
    if not all(target.is_identity(g) for g in target.morphisms()):
        raise ValueError("representable sequences need identity-only targets")
    for y, pick in picks.items():
        if len(pick) > sym.max_len:
            raise BoundExceeded(f"pick {pick!r} at {y!r} is longer than the arity bound {sym.max_len}")
    values = {(xs, y): sym.cat.hom[(xs, picks[y])] for xs in sym.cat.objects for y in target.objects}
    tables = action_tables(
        target, sym.cat, values, lambda m, y, h: sym.cat.comp[(h, m)], lambda xs, g, h: h
    )
    return SymSeq(sym, target, *tables, check=False)


def seq_coproduct(a: SymSeq, b: SymSeq) -> SymSeq:
    """Pointwise tagged union of parallel sequences."""
    if a.source_sym != b.source_sym or a.source != b.source:
        raise EndpointMismatch("sequences are not parallel")
    seqs = (a, b)
    values = {key: FinSet.sigma(range(2), (a.values[key], b.values[key]).__getitem__) for key in a.values}
    tables = action_tables(
        a.source, a.source_sym.cat, values,
        lambda m, y, tu: (tu[0], seqs[tu[0]].left_act[(m, y)](tu[1])),
        lambda xs, g, tu: (tu[0], seqs[tu[0]].right_act[(xs, g)](tu[1])),
    )
    return SymSeq(a.source_sym, a.source, *tables, check=False)


@memo_scope()
def check_tau_compatibility(g: SymSeq, f: SymSeq, m_bound: int | None = None) -> CheckReport:
    """Substitution equals extension-then-apply composition, value set by value set.

    The composite is recomputed through the tuple-level extension profunctor
    and the presheaf machinery; an explicit bijection is exhibited on every
    carrier element and verified well-defined and bijective.
    """
    report = CheckReport("tau-compatibility")
    gf = subst_compose(g, f, m_bound)
    ext = subst_extension(f, g.source_sym, m_bound)
    composite = kleisli_compose(tau(ext), tau(g))
    for key in sorted(gf.values, key=label_key):
        xs, z = key
        kan = composite.on_obj[z]

        def rule(elem, xs=xs, z=z, kan=kan):
            m, ys, blocks, gamma, vs, h = elem
            u = ext.quotients[(xs, ys)].representative((blocks, vs, h))
            return kan.quotients[xs].representative((ys, (u, gamma)))

        try:
            fn = induced_map(gf.quotients[key], kan.values[xs], rule)
        except ValueError as exc:
            report.add(f"bijective@{key}", False, str(exc))
            continue
        report.add(
            f"bijective@{key}",
            fn.is_iso(),
            f"|subst| = {len(fn.domain)}, |kleisli| = {len(fn.codomain)}",
        )
    return report
