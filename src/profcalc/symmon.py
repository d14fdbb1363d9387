"""Free symmetric strict monoidal categories (truncated), symmetric sequences,
and substitution composition.

A symmetric sequence is a profunctor (`SymSeq` subclasses `prof.Profunctor`)
from its output colours to the free symmetric category on its input colours,
keyed values[(xs, y)] for a tuple xs and an output colour y; its cells are
profunctor cells.

Truncation is the finiteness device: the free construction and every
sequence carry an explicit arity bound, and operations raise BoundExceeded
rather than silently truncate.  The number of outer blocks of a substitution
is read off its inputs.  With no nullary values in the inner sequence, output
arity k needs at most k blocks, and k may not exceed the middle arity bound.
With nullary values any block may be empty, so the block count runs up to the
middle arity bound and the result is stamped as a bounded search.

The substitution composite is one quotient (`colim.quotient`) of a tagged
carrier {(m, ys, blocks, gamma, vs, h)} with two families of generating
relations: block relations (a generator of the tuple category moves between
a block value, contravariantly, and the gluing morphism, covariantly) and
outer relations (a generator of the middle tuple category acts on gamma
contravariantly and, covariantly, permutes the blocks, pushes the block
values, and twists the gluing morphism by a block permutation).  Both are
functorial in the moving morphism, so relations along composites follow.
Their structural morphisms are S's multiplication (`sym_mult`) applied to a
morphism of block tuples, built once per block shape (`TruncatedSymCat`).
One loop (`_subst_quotients`) builds each quotient of the composite and of
the tuple-level extension (no outer value): `colim.layout` lays its carrier
out in runs of equal (m, ys, blocks) (`_runs`) of gamma, block values and
gluing morphisms, as Day convolution's; a relation block
(`_layout_relations`) is one run's axes with one replaced by a digit map --
a value action gathered along its positions, or composition with a
structural morphism (`colim.postcompose`) -- and the induced actions are
read the same way.  No label is built or hashed per relation or member.
Every other sequence here -- the unit, the representables, coproducts and
the operads' sequences -- gets its action tables from `prof.action_tables`,
given its values and one elementwise rule per side, and the unit and
composition cells of the operads come from `fincat.components`, given an
image rule.  `SUBST` presents substitution, with its associator, unit
isomorphisms and whiskerings, as a `report.Bicategory`, whose pentagon and
triangles the shared `report` checkers test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .colim import (
    coend_relations, gather, induced_components, layout, layout_image, postcompose, precompose_image, quotient,
)
from .fincat import (
    BoundExceeded,
    EndpointMismatch,
    FinCat,
    FinFn,
    FinSet,
    Functor,
    Label,
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


def wreath_composition(gamma: Perm, lengths: tuple[int, ...], inner: tuple[Perm, ...]) -> Perm:
    """Permute within blocks by inner[i], then move block i to slot gamma[i]:
    position r of block i goes to start[gamma[i]] + inner[i][r], where start[j]
    is the total length of the blocks placed in slots before j."""
    start = list(itertools.accumulate((lengths[i] for i in perm_inverse(gamma)), initial=0))
    return tuple(start[gamma[i]] + p for i, perm in enumerate(inner) for p in perm)


@dataclass(frozen=True)
class TruncatedSymCat:
    """The free symmetric strict monoidal category on a base, cut at a length bound.

    Objects are tuples of base objects of length <= max_len; a morphism is a
    permutation together with componentwise base morphisms routed through it:
    label (src, tgt, sigma, comps) with comps[i]: src[i] -> tgt[sigma[i]].
    The tensor (concatenation) is partial above the bound.
    Substitution's structural morphisms, which depend on the block shape alone
    (`block_embedding`, `block_perm_mor`), are S's multiplication (`sym_mult`)
    applied to a morphism of block tuples.  Each is built once, in a table
    keyed by its arguments, however many carrier elements read it.
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

    def block_embedding(self, blocks: tuple[tuple, ...], i: int, mu: Label) -> Label:
        """mu: blocks[i] -> t on block i, identities on the others; built once."""
        key = ("embed", blocks, i, mu)
        if key not in self._structural:
            moved = blocks[:i] + (self.cat.tgt(mu),) + blocks[i + 1:]
            inner = tuple(mu if j == i else self.cat.id_of(b) for j, b in enumerate(blocks))
            outer = (blocks, moved, perm_identity(len(blocks)), inner)
            self._structural[key] = sym_mult(self).on_morphism(outer)
        return self._structural[key]

    def block_perm_mor(self, blocks: tuple[tuple, ...], sigma: Perm) -> Label:
        """The morphism permuting whole blocks to slots, with identity components; built once."""
        key = ("perm", blocks, sigma)
        if key not in self._structural:
            permuted = tuple(blocks[j] for j in perm_inverse(sigma))
            outer = (blocks, permuted, sigma, tuple(map(self.cat.id_of, blocks)))
            self._structural[key] = sym_mult(self).on_morphism(outer)
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
        lengths = tuple(len(b) for b in src_nested)
        perm = wreath_composition(sigma, lengths, tuple(mor[2] for mor in inner_mors))
        comps = tuple(c for mor in inner_mors for c in mor[3])
        return (self.sym.concat_obj(*src_nested), self.sym.concat_obj(*tgt_nested), perm, comps)


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
        super().__init__(colours, source_sym.cat, values, left_act, right_act, check, quotients or {})

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


def _runs(f: SymSeq, xs: tuple, heads, allow_zero: bool) -> dict[tuple, tuple]:
    """The runs of a substitution carrier over xs (`colim.layout`): for each
    (head, ys, lead) of `heads` and each len(ys) blocks of xs (nonempty unless
    allow_zero), the run head + (blocks,) with the factors lead, the group of
    block values f[blocks[i]; ys[i]] and hom(xs, blocks[0] + ... + blocks[-1])."""
    cat = f.source_sym.cat
    return {
        (*head, blocks): (
            *lead, tuple(f.values[(b, y)] for b, y in zip(blocks, ys)), cat.hom[(xs, sum(blocks, ()))]
        )
        for head, ys, lead in heads
        for blocks in _blockings(cat.objects, len(xs), len(ys), 0 if allow_zero else 1)
    }


def _compose_heads(g: SymSeq, f: SymSeq, xs: tuple, z: Label) -> list:
    """The heads of the runs of (g o f)(xs; z) (`_runs`): (m, ys) with the factor
    g[ys; z], for each ys of m colours with g[ys; z] inhabited, m up to the block bound."""
    nullary, bound = f.has_nullary_support(), g.source_sym.max_len
    if not nullary and len(xs) > bound:
        raise BoundExceeded(f"output arity {len(xs)} needs block counts up to {len(xs)} but the middle arity bound "
                            f"is {bound}; the sound bound for a nullary-free inner sequence is m <= output arity")
    return [
        ((m, ys), ys, (g.values[(ys, z)],))
        for m in range(bound + 1 if nullary else len(xs) + 1)
        for ys in itertools.product(f.source.objects, repeat=m)
        if len(g.values[(ys, z)]) > 0
    ]


def _row_maps(f: SymSeq, phi: Label, blocks: tuple, run: tuple, to: tuple, to_axes: tuple) -> list[list[int]]:
    """The digit maps of phi: ys -> ys' on the block row of `run` into `to`,
    laid out on to_axes: each vs[j] pushed along phi's j-th component into
    slot sigma[j], and each h twisted by the block permutation."""
    sym = f.source_sym
    _, _, sigma, gbar = phi
    values, to_values = run[-2], to[-2]
    v0 = len(to_axes) - len(values) - 1  # the axis of the first block value
    pushed = [
        gather(to_axes[v0 + sigma[j]], f.right_act[(blocks[j], gbar[j])], v, to_values[sigma[j]])
        for j, v in enumerate(values)
    ]
    return [*pushed, postcompose(to_axes[-1], sym.cat, sym.block_perm_mor(blocks, sigma), run[-1], to[-1])]


def _layout_relations(f: SymSeq, gens_x: dict, runs: dict, axes: dict, at: Label, outer=None):
    """The relation blocks of the substitution quotient at (xs, at), laid out
    in `runs` (`_runs`) on `axes`; each run's middle tuple is `at`, unless
    outer = (g, gens_y): then `at` is the output colour z and each key (m, ys,
    blocks).  A generator mu: blocks[i] -> t pulls the i-th block value back
    and glues mu onto h (`block_embedding`); given outer, a generator phi:
    ys -> ys' pulls gamma back and moves the block row (`_row_maps`)."""
    sym = f.source_sym
    cat = sym.cat
    for key, run in runs.items():
        head, blocks, values, homs = key[:-1], key[-1], run[-2], run[-1]
        ax, row = axes[key], head[1] if outer else at
        v0 = len(ax) - len(values) - 1  # the axis of the first block value
        for i, (s, y) in enumerate(zip(blocks, row)):
            for mu in gens_x[s]:
                moved = head + (blocks[:i] + (cat.tgt(mu),) + blocks[i + 1:],)
                to, to_run = axes[moved], runs[moved]
                pulled = gather(ax[v0 + i], f.left_act[(mu, y)], to_run[-2][i], values[i])
                glued = postcompose(to[-1], cat, sym.block_embedding(blocks, i, mu), homs, to_run[-1])
                yield [*ax[:v0 + i], pulled, *ax[v0 + i + 1:]], [*to[:-1], glued]
        if outer is not None:
            g, gens_y = outer
            for phi in gens_y[row]:
                moved = (head[0], phi[1], tuple(blocks[j] for j in perm_inverse(phi[2])))
                if moved in runs:  # else g[ys'; z] is empty
                    to, to_ax = runs[moved], axes[moved]
                    pulled = gather(ax[0], g.left_act[(phi, at)], to[0], run[0])
                    yield [pulled, *ax[1:]], [to_ax[0], *_row_maps(f, phi, blocks, run, to, to_ax)]


def _subst_quotients(f: SymSeq, keys, heads, outer=None) -> tuple:
    """The runs (`_runs` of heads(xs, key)), share axes and quotient
    (`_layout_relations`, given `outer`) of the substitution carrier at each
    (xs, key), xs in f's tuple category and key in `keys`, and the left
    action h -> h . rho on them for `prof.coend_actions`."""
    cat = f.source_sym.cat
    nullary, gens_x = f.has_nullary_support(), generators_by_source(cat)
    runs, axes, quotients = {}, {}, {}
    for xs in cat.objects:
        for key in keys:
            run = runs[(xs, key)] = _runs(f, xs, heads(xs, key), nullary)
            carrier, axes[(xs, key)] = layout(run)
            relations = _layout_relations(f, gens_x, run, axes[(xs, key)], key, outer)
            quotients[(xs, key)] = quotient(carrier, coend_relations(relations))

    def left(rho, key, q0, q1):
        at = (cat.src(rho), key)
        return precompose_image(cat, rho, runs[(cat.tgt(rho), key)], runs[at], axes[at])

    return runs, axes, quotients, left


@memoised
def subst_compose(g: SymSeq, f: SymSeq) -> SymSeq:
    """Substitution composite of symmetric sequences.

    Value at (xs, z): quotient, over all block counts m, of the set of
    tuples (ys, blocks, gamma, vs, h) with gamma in g[ys; z], vs[i] in
    f[blocks[i]; ys[i]] and h: xs -> blocks_1 (+) ... (+) blocks_m, by the
    generated block and outer relations.

    With nullary support in f the block count is unbounded: it runs up to
    the middle arity bound g.source_sym.max_len, and the result is stamped
    bounded_search.
    """
    if f.source != g.source_sym.base:
        raise EndpointMismatch("target colours of f must be the source colours of g")
    cat, z_cat, nullary = f.source_sym.cat, g.source, f.has_nullary_support()
    runs, axes, quotients, left = _subst_quotients(
        f, z_cat.objects, lambda xs, z: _compose_heads(g, f, xs, z), (g, generators_by_source(g.source_sym.cat))
    )

    def right(xs, zm, q0, q1):
        to_runs, to_axes = runs[(xs, z_cat.tgt(zm))], axes[(xs, z_cat.tgt(zm))]
        return layout_image(runs[(xs, z_cat.src(zm))], lambda key, run: [
            gather(to_axes[key][0], g.right_act[(key[1], zm)], run[0], to_runs[key][0]), *to_axes[key][1:]
        ])

    tables = coend_actions(z_cat, cat, quotients, left, right)
    return SymSeq(f.source_sym, z_cat, *tables, check=False, quotients=quotients, bounded_search=nullary)


# -- whiskering and the canonical isomorphisms ---------------------------------------------


def subst_whisker_outer(cell: SymSeqCell, f: SymSeq) -> SymSeqCell:
    """cell * 1_f: apply a cell between outer sequences inside their composites with f."""
    gf = subst_compose(cell.source, f)
    g2f = subst_compose(cell.target, f)

    def rule(key, elem):
        m, ys, blocks, gamma, vs, h = elem
        return m, ys, blocks, cell.components[(ys, key[1])](gamma), vs, h

    return SymSeqCell(gf, g2f, induced_components(gf.quotients, g2f.quotients, rule), check=False)


def subst_whisker_inner(g: SymSeq, cell: SymSeqCell) -> SymSeqCell:
    """1_g * cell: apply a cell between inner sequences blockwise inside composites."""
    gf = subst_compose(g, cell.source)
    gf2 = subst_compose(g, cell.target)

    def rule(key, elem):
        m, ys, blocks, gamma, vs, h = elem
        new_vs = tuple(cell.components[(blocks[i], ys[i])](vs[i]) for i in range(m))
        return m, ys, blocks, gamma, new_vs, h

    return SymSeqCell(gf, gf2, induced_components(gf.quotients, gf2.quotients, rule), check=False)


def subst_left_unit_iso(g: SymSeq) -> SymSeqCell:
    """(unit o g) -> g, for g with its input colours as output colours: act with
    the gluing morphism and the arity-one outer value."""
    composed = subst_compose(subst_identity(g.source_sym), g)

    def rule(key, elem):
        m, ys, blocks, gamma, vs, h = elem
        # composing with the unit forces m == 1 and a single block
        moved = g.left_act[(h, ys[0])](vs[0])
        return g.right_act[(key[0], gamma)](moved)

    comps = induced_components(composed.quotients, g.values, rule)
    cell = SymSeqCell(composed, g, comps, check=False)
    return cell.require_iso("left unit comparison is not a bijection")


def subst_right_unit_iso(g: SymSeq) -> SymSeqCell:
    """(g o unit) -> g: fold the arity-one inner data into the gluing morphism."""
    sym = g.source_sym
    composed = subst_compose(g, subst_identity(sym))

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
def subst_assoc_iso(h: SymSeq, g: SymSeq, f: SymSeq) -> SymSeqCell:
    """((h o g) o f) -> (h o (g o f)): regroup blocks along the middle gluing morphism."""
    sym_x = f.source_sym
    hg = subst_compose(h, g)
    gf = subst_compose(g, f)
    left = subst_compose(hg, f)
    right = subst_compose(h, gf)

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
        return m2, zs, tuple(new_blocks), eta, tuple(omegas), glued

    comps = induced_components(left.quotients, right.quotients, rule)
    cell = SymSeqCell(left, right, comps, check=False)
    return cell.require_iso("associativity comparison is not a bijection")


@memo_scope()
def check_subst_assoc(h: SymSeq, g: SymSeq, f: SymSeq) -> CheckReport:
    """Construct and verify the regrouping comparison, plus a cardinality
    cross-check of the two nestings computed from scratch."""
    report = CheckReport("subst-assoc")
    hg = subst_compose(h, g)
    gf = subst_compose(g, f)
    left = subst_compose(hg, f)
    right = subst_compose(h, gf)
    for key in left.values:
        report.add(
            f"cardinality@{key}",
            len(left.values[key]) == len(right.values[key]),
            f"{len(left.values[key])} vs {len(right.values[key])}",
        )
    report.build("comparison-bijective", subst_assoc_iso, h, g, f, natural="comparison-natural")
    return report


# Substitution of sequences from a colour category to itself: both ends of a
# sequence are its source_sym, compose(g, f) is g o f, the identity is the
# unit sequence, and the whiskerings act on the outer or inner factor.  No
# component is corruptible; tags are ignored.  As in `prof.KLEISLI`, each
# field looks its builder up when called.
SUBST = Bicategory(
    compose=lambda g, f: subst_compose(g, f),
    identity=lambda sym: subst_identity(sym),
    src=lambda f: f.source_sym,
    tgt=lambda f: f.source_sym,
    assoc=lambda h, g, f, tag: subst_assoc_iso(h, g, f),
    lunit=lambda f, tag: subst_left_unit_iso(f),
    runit=lambda f, tag: subst_right_unit_iso(f),
    whisker_left=lambda g, cell: subst_whisker_inner(g, cell),
    whisker_right=lambda cell, f: subst_whisker_outer(cell, f),
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


@memo_scope()
def check_operad(operad: ColouredOperad) -> CheckReport:
    """Unit triangles and the associativity square, against the canonical isos."""
    report = CheckReport("operad")
    o = operad.seq
    unit = subst_identity(o.source_sym)
    oo = subst_compose(o, o)
    unit_cell = SymSeqCell(unit, o, operad.unit_components, check=True)
    comp_cell = SymSeqCell(oo, o, operad.comp_components, check=True)
    report.add("cells-equivariant", True)

    # left unit: comp . (unit o 1) against the canonical iso (unit o 1 means
    # the unit cell applied on the *outer* factor of unit-then-o)
    left_path = subst_whisker_outer(unit_cell, o).then(comp_cell)
    report.record("left-unit", cell_difference(left_path, subst_left_unit_iso(o)))
    # right unit: comp . (1 o unit)
    right_path = subst_whisker_inner(o, unit_cell).then(comp_cell)
    report.record("right-unit", cell_difference(right_path, subst_right_unit_iso(o)))

    path1 = subst_whisker_outer(comp_cell, o).then(comp_cell)
    assoc = subst_assoc_iso(o, o, o)
    path2 = assoc.then(subst_whisker_inner(o, comp_cell)).then(comp_cell)
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
    return ColouredOperad(seq, unit_components, iso.components)


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


def subst_extension(f: SymSeq, sym_y: TruncatedSymCat) -> Profunctor:
    """The tuple-level extension of a sequence: values at (xs, ys) are the
    block decompositions (blocks, vs, h) of xs matching ys, quotiented by
    block relations.  There are exactly len(ys) blocks, so no block count
    needs a bound, even when f has nullary values.  Each carrier is laid
    out as a composite's is, with no outer value and one run per blocks."""
    if sym_y.base != f.source:
        raise EndpointMismatch("extension needs tuples over the target colours")
    cat = f.source_sym.cat
    runs, axes, quotients, left = _subst_quotients(f, sym_y.cat.objects, lambda xs, ys: [((), ys, ())])

    def right(xs, phi, q0, q1):
        to_runs, to_axes, inv = runs[(xs, phi[1])], axes[(xs, phi[1])], perm_inverse(phi[2])
        moved = {key: (tuple(key[0][j] for j in inv),) for key in runs[(xs, phi[0])]}
        return layout_image(runs[(xs, phi[0])], lambda key, run: _row_maps(
            f, phi, key[0], run, to_runs[moved[key]], to_axes[moved[key]]
        ))

    tables = coend_actions(sym_y.cat, cat, quotients, left, right)
    return Profunctor(sym_y.cat, cat, *tables, check=False, quotients=quotients)


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
def check_tau_compatibility(g: SymSeq, f: SymSeq) -> CheckReport:
    """Substitution equals extension-then-apply composition, value set by value set.

    The composite is recomputed through the tuple-level extension profunctor
    and the presheaf machinery; an explicit bijection is exhibited on every
    carrier element and verified well-defined and bijective.  With nullary
    values in f the substitution is a bounded search; it counts blocks up to
    the middle arity bound, as the Kleisli composite does.
    """
    report = CheckReport("tau-compatibility")
    gf = subst_compose(g, f)
    ext = subst_extension(f, g.source_sym)
    composite = kleisli_compose(tau(ext), tau(g))

    def rule(key, elem):
        m, ys, blocks, gamma, vs, h = elem
        return ys, (ext.quotients[(key[0], ys)].representative((blocks, vs, h)), gamma)

    for key in sorted(gf.values, key=label_key):
        xs, z = key
        target = composite.on_obj[z].quotients[xs]
        try:
            fn, = induced_components({key: gf.quotients[key]}, {key: target}, rule).values()
        except ValueError as exc:
            report.add(f"bijective@{key}", False, str(exc))
            continue
        report.add(
            f"bijective@{key}",
            fn.is_iso(),
            f"|subst| = {len(fn.domain)}, |kleisli| = {len(fn.codomain)}",
        )
    return report
