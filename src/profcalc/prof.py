"""Profunctors at finite scale and the coherence cells of their Kleisli presentation.

Composition of Kleisli morphisms (functors into presheaves) is extension-
then-apply; the symmetric coend composition of profunctors is a separate
code path, and the two are *tested* isomorphic rather than identified.

Every profunctor whose values are coends (`prof_compose`, and in `symmon`
substitution and its tuple-level extension) gets both actions from
`coend_actions`, given for each side the carrier position of each member's
image.  Every other profunctor or sequence built here or in `symmon` gets
them from `action_tables`, given its value sets and an elementwise rule for
each side; it alone knows the key order and the endpoints of each action
map.  A symmetric sequence (`symmon.SymSeq`) is a profunctor into the free
symmetric category on its input colours, so `prof_compose` and `tau` take
sequences as they are.

All coherence cells (mu, eta, theta, the associator and unitors) are
materialized as explicit families of bijections between value sets.  A
Kan extension keeps its coends in `Presheaf.quotients`, and each cell out of
one is induced by a map of integrands: `colim.induced_components` sends the
classes of every coend through an elementwise rule on carriers, read as
positions by the kernel `colim.induced_map`, which verifies it well-defined
on every class; every cell claimed invertible is verified bijective.  Equality of composite cells is label-exact equality of
component functions, so a commuting diagram means exact equality, not
isomorphism-up-to-renaming.

`KLEISLI` records composition, identities, the associator, the unitors and
the whiskerings as a `report.Bicategory`; the one `report.check_pentagon`
and `report.check_triangle` check its coherence.

Every cell is built from the extension operation applied to composites, so
the builders take only their mathematical arguments and call
`kleisli_compose`, `kan_extend` and `yoneda_embedding` for the composites
and extensions they need.  All three are `fincat.memoised`.  Each builder
opens a `fincat.memo_scope` (re-entrant, so a check and all the builders it
calls share one memo), inside which each such call is computed
once per identity of its arguments; the memo is dropped when the outermost
scope closes.

Corruptible construction: `theta_map`, `eta_cell` and `mu_map` pass every
component through `fincat.corrupt`, under the kind "theta", "eta" or "mu" and
the key `tag` plus the component's place, so a `fincat.Fault` opened by the
fault-injection suites can corrupt one of them and show that the checks
notice.  Each computes its untagged cell once per memo scope (`_theta`,
`eta_iso`, `_mu` are memoised) but corrupts its components on every call,
so a fault counts components in construction order.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from .colim import bifunctor_violations, induced_actions, induced_components, product_coend
from .fincat import (
    Cell,
    EndpointMismatch,
    FinCat,
    FinFn,
    FinSet,
    Label,
    corrupt,
    memo_scope,
    memoised,
    require_lawful,
)
from .presheaf import (
    Presheaf,
    PshMap,
    PshValuedFunctor,
    eta_iso,
    kan_extend,
    kan_extend_map,
    yoneda_embedding,
)
from .report import Bicategory

# -- profunctors ----------------------------------------------------------------


@dataclass(frozen=True)
class Profunctor:
    """Finite-set-valued bifunctor on (target)^op x source.

    values[(y, x)] is contravariant in y (left action by target morphisms)
    and covariant in x (right action by source morphisms); check=True runs
    `colim.bifunctor_violations` on these tables.  An endo-profunctor
    (source == target) is the bifunctor whose coend `colim.coend` takes.
    """

    source: FinCat
    target: FinCat
    values: dict[tuple[Label, Label], FinSet]
    left_act: dict[tuple[Label, Label], FinFn]   # (target morphism g, x): values[tgt g, x] -> values[src g, x]
    right_act: dict[tuple[Label, Label], FinFn]  # (y, source morphism f): values[y, src f] -> values[y, tgt f]
    check: InitVar[bool] = True
    quotients: dict = field(compare=False, default_factory=dict, repr=False)

    invalid = "not a profunctor"

    def __post_init__(self, check: bool):
        if check:
            require_lawful(bifunctor_violations(self), self.invalid)

    def __eq__(self, other) -> bool:
        # by isinstance, not class: a `SymSeq` equals a profunctor with the same tables
        return (
            isinstance(other, Profunctor)
            and self.source == other.source
            and self.target == other.target
            and self.values == other.values
            and self.left_act == other.left_act
            and self.right_act == other.right_act
        )


class ProfCell(Cell):
    """2-cell of Prof: a family of functions commuting with both actions."""

    source: Profunctor
    target: Profunctor
    components: dict[tuple[Label, Label], FinFn]

    invalid = "not a profunctor cell"

    def value_table(self):
        return self.source.values, self.source.values, self.target.values

    def squares(self):
        """Left squares over target morphisms x source objects, then right
        squares over target objects x source morphisms."""
        src, tgt = self.source, self.target
        cod, dom = src.target, src.source
        left = ("left action not respected at", src.left_act, tgt.left_act)
        right = ("right action not respected at", src.right_act, tgt.right_act)
        for g in cod.morphisms():
            for x in dom.objects:
                yield left, (g, x), (cod.tgt(g), x), (cod.src(g), x)
        for y in cod.objects:
            for f in dom.morphisms():
                yield right, (y, f), (y, dom.src(f)), (y, dom.tgt(f))


def action_tables(source: FinCat, target: FinCat, values: dict, left, right):
    """(values, left_act, right_act) of a profunctor source -|-> target with
    these value sets, keyed (y, x) for y in target and x in source.

    left(g, x, u) sends u in values[(tgt g, x)] to values[(src g, x)], for g
    in target; right(y, f, u) sends u in values[(y, src f)] to values[(y, tgt f)],
    for f in source.  The left action is keyed morphisms x objects and the
    right one objects x morphisms, as `Profunctor` and `symmon.SymSeq` take
    them; every map is a `FinFn`, checked total and into its codomain, and a
    rule is never called on an empty value set.
    """
    left_act = {
        (g, x): FinFn(dom, values[(target.src(g), x)], {u: left(g, x, u) for u in dom})
        for g in target.morphisms() for x in source.objects
        for dom in (values[(target.tgt(g), x)],)
    }
    right_act = {
        (y, f): FinFn(dom, values[(y, source.tgt(f))], {u: right(y, f, u) for u in dom})
        for y in target.objects for f in source.morphisms()
        for dom in (values[(y, source.src(f))],)
    }
    return values, left_act, right_act


def prof_identity(base: FinCat) -> Profunctor:
    """Identity profunctor: value at (a, b) is the hom set a -> b."""
    values = {(a, b): base.hom[(a, b)] for a in base.objects for b in base.objects}
    tables = action_tables(
        base, base, values, lambda g, x, h: base.comp[(h, g)], lambda y, f, h: base.comp[(f, h)]
    )
    return Profunctor(base, base, *tables, check=False)


def prof_compose(g: Profunctor, f: Profunctor) -> Profunctor:
    """Symmetric coend formula: value at (z, x) is the coend over the middle
    category of g(z, y) x f(y, x).

    Each coend is a `product_coend`: along a generator m: y -> y' it relates
    (u, f(m, x)v) ~ (g(z, m)u, v) for u in g(z, y) and v in f(y', x),
    gathered along the positions of f's left action and g's right action.
    """
    if f.target != g.source:
        raise EndpointMismatch("profunctor endpoints do not match")

    def coend_at(z, x):
        return product_coend(
            f.target, lambda y: g.values[(z, y)], lambda y: f.values[(y, x)],
            lambda m: g.right_act[(z, m)], lambda m: f.left_act[(m, x)],
        )

    quotients = {(z, x): coend_at(z, x) for z in g.target.objects for x in f.source.objects}

    def left(m, x, source, target):
        index = target.carrier._index
        return [index[y, (g.left_act[(m, y)](u), v)] for y, (u, v) in source.carrier.elements]

    def right(z, m, source, target):
        index = target.carrier._index
        return [index[y, (u, f.right_act[(y, m)](v))] for y, (u, v) in source.carrier.elements]

    return Profunctor(
        f.source, g.target, *coend_actions(f.source, g.target, quotients, left, right),
        check=False, quotients=quotients,
    )


def coend_actions(source: FinCat, target: FinCat, quotients: dict, left, right):
    """(values, left_act, right_act) of a profunctor source -|-> target whose
    value at (y, x) is the coend quotients[(y, x)].

    left(g, x, q0, q1), for g in target, lists for each carrier position of
    q0 = quotients[(tgt g, x)] the carrier position of its image in
    q1 = quotients[(src g, x)]; right(y, f, q0, q1), for f in source, does
    the same from (y, src f) to (y, tgt f), as in `action_tables`.  Each
    action is the map of classes that `induced_actions` induces from these
    positions, checked well defined on generators.
    """
    values = {key: q.quotient for key, q in quotients.items()}
    left_act, right_act = {}, {}
    for x in source.objects:
        acts = induced_actions(target, lambda y, x=x: quotients[(y, x)],
                               lambda g, q0, q1, x=x: left(g, x, q0, q1), contravariant=True)
        left_act.update(((g, x), fn) for g, fn in acts.items())
    for y in target.objects:
        acts = induced_actions(source, lambda x, y=y: quotients[(y, x)],
                               lambda f, q0, q1, y=y: right(y, f, q0, q1), contravariant=False)
        right_act.update(((y, f), fn) for f, fn in acts.items())
    return values, left_act, right_act


# -- the tau correspondence -------------------------------------------------------


def tau(p: Profunctor) -> PshValuedFunctor:
    """Exponential transpose: tau(F)(x) is the presheaf y -> F(y, x)."""
    on_obj = {}
    for x in p.source.objects:
        values = {y: p.values[(y, x)] for y in p.target.objects}
        restriction = {g: p.left_act[(g, x)] for g in p.target.morphisms()}
        on_obj[x] = Presheaf(p.target, values, restriction, check=False)
    on_mor = {}
    for f in p.source.morphisms():
        x0, x1 = p.source.src(f), p.source.tgt(f)
        on_mor[f] = PshMap(
            on_obj[x0],
            on_obj[x1],
            {y: p.right_act[(y, f)] for y in p.target.objects},
            check=False,
        )
    return PshValuedFunctor(p.source, p.target, on_obj, on_mor, check=False)


def tau_inv(k: PshValuedFunctor) -> Profunctor:
    values = {
        (y, x): k.on_obj[x].values[y]
        for y in k.target_base.objects
        for x in k.source.objects
    }
    left_act = {
        (g, x): k.on_obj[x].restriction[g]
        for g in k.target_base.morphisms()
        for x in k.source.objects
    }
    right_act = {
        (y, f): k.on_mor[f].components[y]
        for y in k.target_base.objects
        for f in k.source.morphisms()
    }
    return Profunctor(k.source, k.target_base, values, left_act, right_act, check=False)


# -- Kleisli 1- and 2-cells ---------------------------------------------------------


class KleisliCell(Cell):
    """2-cell between parallel Kleisli morphisms: an object-indexed family of PshMaps."""

    source: PshValuedFunctor
    target: PshValuedFunctor
    components: dict[Label, PshMap]

    invalid = "not a Kleisli 2-cell"

    def value_table(self):
        return self.source.source.objects, self.source.on_obj, self.target.on_obj

    def squares(self):
        base = self.source.source
        law = ("naturality fails at", self.source.on_mor, self.target.on_mor)
        return ((law, m, base.src(m), base.tgt(m)) for m in base.morphisms())


@memoised
def kleisli_compose(g: PshValuedFunctor, f: PshValuedFunctor) -> PshValuedFunctor:
    """Extension-then-apply composition: x goes to the extension of g at f(x)."""
    if f.target_base != g.source:
        raise EndpointMismatch("Kleisli morphisms do not compose")
    on_obj = {x: kan_extend(g, f.on_obj[x]) for x in f.source.objects}
    on_mor = {m: kan_extend_map(g, f.on_mor[m]) for m in f.source.morphisms()}
    return PshValuedFunctor(f.source, g.target_base, on_obj, on_mor, check=False)


@memoised
def star_cell(psi: KleisliCell, q: Presheaf) -> PshMap:
    """The extension operation applied to a 2-cell, evaluated at the argument q."""
    kp = kan_extend(psi.source, q)
    kq = kan_extend(psi.target, q)

    def rule(v, pair):
        z, (u, w) = pair
        return z, (psi.components[z].components[v](u), w)

    return PshMap(kp, kq, induced_components(kp.quotients, kq.quotients, rule), check=False)


@memo_scope()
def whisker_right(psi: KleisliCell, f: PshValuedFunctor) -> KleisliCell:
    """psi * 1_f: precompose both sides with f; components are starred cells."""
    comps = {x: star_cell(psi, f.on_obj[x]) for x in f.source.objects}
    return KleisliCell(
        kleisli_compose(psi.source, f), kleisli_compose(psi.target, f), comps, check=False
    )


@memo_scope()
def whisker_left(g: PshValuedFunctor, phi: KleisliCell) -> KleisliCell:
    """1_g * phi: apply the extension of g to every component of phi."""
    comps = {x: kan_extend_map(g, phi.components[x]) for x in phi.source.source.objects}
    return KleisliCell(
        kleisli_compose(g, phi.source), kleisli_compose(g, phi.target), comps, check=False
    )


# -- the structural cells: theta, eta, mu ----------------------------------------------


def _faulted(kind: str, tag: tuple, phi: PshMap) -> PshMap:
    """phi with the component at each key a passed through `corrupt` under
    `kind` and the key tag + (a,); phi itself when no component changed."""
    comps = {a: corrupt(kind, tag + (a,), fn) for a, fn in phi.components.items()}
    if all(comps[a] is fn for a, fn in phi.components.items()):
        return phi
    return PshMap(phi.source, phi.target, comps, check=False)


@memoised
def _theta(p: Presheaf) -> PshMap:
    kp = kan_extend(yoneda_embedding(p.base), p)

    def rule(a, pair):
        x, (h, v) = pair
        return p.restriction[h](v)

    comps = induced_components(kp.quotients, p.values, rule, bijection="theta component")
    return PshMap(kp, p, comps, check=False)


def theta_map(p: Presheaf, tag: tuple = ()) -> PshMap:
    """Co-Yoneda reduction (yoneda)^*(p) -> p: class (x, (h, v)) -> p(h)(v)."""
    return _faulted("theta", tag, _theta(p))


@memo_scope()
def eta_cell(f: PshValuedFunctor, tag: tuple = ()) -> KleisliCell:
    """eta_f: f -> f o i, the invertible unit comparison, componentwise co-Yoneda."""
    base = f.source
    fi = kleisli_compose(f, yoneda_embedding(base))
    comps = {x: _faulted("eta", tag + (x,), eta_iso(f, x)) for x in base.objects}
    return KleisliCell(f, fi, comps, check=False)


def mu_map(g: PshValuedFunctor, f: PshValuedFunctor, p: Presheaf, tag: tuple = ()) -> PshMap:
    """mu_{g,f} at argument p: (g o f)^*(p) -> g^*(f^*(p)).

    Sends the class of (x, (xi, w)) with xi = class of (y, (u, v)) to the
    class of (y, (u, class of (x, (v, w)))).  Verified well-defined and
    bijective.
    """
    return _faulted("mu", tag, _mu(g, f, p))


@memoised
def _mu(g: PshValuedFunctor, f: PshValuedFunctor, p: Presheaf) -> PshMap:
    lhs = kan_extend(kleisli_compose(g, f), p)
    fp = kan_extend(f, p)
    rhs = kan_extend(g, fp)

    def rule(z, pair):
        x, (xi, w) = pair
        y, (u, v) = xi
        inner = fp.quotients[y].representative((x, (v, w)))
        return y, (u, inner)

    comps = induced_components(lhs.quotients, rhs.quotients, rule, bijection="mu component")
    return PshMap(lhs, rhs, comps, check=False)


# -- associator and unitors ------------------------------------------------------------


@memo_scope()
def kleisli_associator(
    h: PshValuedFunctor, g: PshValuedFunctor, f: PshValuedFunctor, tag: tuple = ()
) -> KleisliCell:
    """alpha_{h,g,f}: (h o g) o f -> h o (g o f), i.e. mu_{h,g} whiskered by f."""
    comps = {x: mu_map(h, g, f.on_obj[x], tag=tag + (x,)) for x in f.source.objects}
    return KleisliCell(
        kleisli_compose(kleisli_compose(h, g), f),
        kleisli_compose(h, kleisli_compose(g, f)),
        comps,
        check=False,
    )


@memo_scope()
def kleisli_left_unitor(f: PshValuedFunctor, tag: tuple = ()) -> KleisliCell:
    """lambda_f: i o f -> f, componentwise co-Yoneda reduction."""
    comps = {x: theta_map(f.on_obj[x], tag=tag + (x,)) for x in f.source.objects}
    return KleisliCell(kleisli_compose(yoneda_embedding(f.target_base), f), f, comps, check=False)


@memo_scope()
def kleisli_right_unitor(f: PshValuedFunctor, tag: tuple = ()) -> KleisliCell:
    """rho_f: f o i -> f, the inverse of the unit comparison eta_f."""
    return eta_cell(f, tag=tag).inverse()


# -- the Kleisli bicategory --------------------------------------------------------------

# Each field looks its builder up when called, so a rebinding of these module
# functions (a tracer, a test's recorder) reaches the calls made through it.
KLEISLI = Bicategory(
    compose=lambda g, f: kleisli_compose(g, f),
    identity=lambda x: yoneda_embedding(x),
    src=lambda f: f.source,
    tgt=lambda f: f.target_base,
    assoc=lambda h, g, f, tag: kleisli_associator(h, g, f, tag),
    lunit=lambda f, tag: kleisli_left_unitor(f, tag),
    runit=lambda f, tag: kleisli_right_unitor(f, tag),
    whisker_left=lambda g, cell: whisker_left(g, cell),
    whisker_right=lambda cell, f: whisker_right(cell, f),
)
