"""Axiom suites for the presheaf extension structure.

The two coherence axioms (associativity hexagon, unit triangle), the three
derived coherence diagrams, counit invertibility, and the lax-idempotency
conditions -- all evaluated elementwise on a declared finite family of
presheaf arguments.  Universal-property statements are checked extensionally
against declared competitor morphisms with exhaustively enumerated 2-cells;
reports carry that restriction in their metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import FinCat, cell_difference, memo_scope
from .presheaf import (
    Presheaf,
    PshMap,
    PshValuedFunctor,
    kan_extend,
    kan_extend_map,
    natural_families,
    psh_coproduct,
    psh_initial,
    psh_initial_map,
    psh_terminal,
    psh_terminal_map,
    yoneda,
    yoneda_embedding,
)
from .prof import (
    KleisliCell,
    eta_cell,
    kleisli_associator,
    kleisli_compose,
    kleisli_left_unitor,
    mu_map,
    star_cell,
    theta_map,
    whisker_left,
)
from .report import CheckReport


@dataclass(frozen=True)
class TestFamily:
    """A finite list of named presheaf arguments sharing one base category."""

    __test__ = False  # not a pytest collection target

    base: FinCat
    members: tuple[tuple[tuple, Presheaf], ...]

    def __post_init__(self):
        for _, p in self.members:
            if p.base != self.base:
                raise ValueError("family member on the wrong base")

    def named(self):
        return list(self.members)

    @staticmethod
    def default(base: FinCat) -> "TestFamily":
        members: list[tuple[tuple, Presheaf]] = []
        objs = list(base.objects)
        for x in objs:
            members.append((("rep", x), yoneda(base, x)))
        members.append((("terminal",), psh_terminal(base)))
        members.append((("empty",), psh_initial(base)))
        a, b = objs[0], objs[-1]
        cop, _, _ = psh_coproduct(yoneda(base, a), yoneda(base, b))
        members.append((("coprod", a, b), cop))
        return TestFamily(base, tuple(members))


@memo_scope()
def check_assoc_axiom(
    f: PshValuedFunctor, g: PshValuedFunctor, h: PshValuedFunctor, family: TestFamily
) -> CheckReport:
    """Both hexagon paths ((h g)* f)* -> h*(g* f*), elementwise on the family."""
    report = CheckReport("assoc-axiom")
    gf = kleisli_compose(g, f)
    alpha = kleisli_associator(h, g, f, tag=("hgf",))
    for name, p in family.named():
        # left path: (mu_{h,g} f)* then mu_{h, g f} then h* mu_{g,f}
        step1 = star_cell(alpha, p)
        step2 = mu_map(h, gf, p, tag=("h,gf", name))
        inner = mu_map(g, f, p, tag=("g,f", name))
        step3 = kan_extend_map(h, inner)
        left = step1.then(step2).then(step3)
        # right path: mu_{h g, f} then mu_{h,g} at f*(p)
        step4 = mu_map(kleisli_compose(h, g), f, p, tag=("hg,f", name))
        step5 = mu_map(h, g, kan_extend(f, p), tag=("h,g", name))
        right = step4.then(step5)
        report.record(f"hexagon@{name}", cell_difference(left, right))
    return report


@memo_scope()
def check_unit_axiom(f: PshValuedFunctor, family: TestFamily) -> CheckReport:
    """The triangle f* -> (f* i)* -> f* i* -> f* equals the identity."""
    report = CheckReport("unit-axiom")
    base = f.source
    i_x = yoneda_embedding(base)
    eta = eta_cell(f, tag=("eta_f",))
    for name, p in family.named():
        step1 = star_cell(eta, p)
        step2 = mu_map(f, i_x, p, tag=("f,i", name))
        theta = theta_map(p, tag=("theta", name))
        step3 = kan_extend_map(f, theta)
        composite = step1.then(step2).then(step3)
        identity = PshMap.identity(kan_extend(f, p))
        report.record(f"unit-triangle@{name}", cell_difference(composite, identity))
    return report


@memo_scope()
def check_derived_coherences(
    f: PshValuedFunctor, g: PshValuedFunctor, family: TestFamily
) -> CheckReport:
    """The three derived diagrams, verified independently of the axioms."""
    report = CheckReport("derived-coherences")
    base = f.source
    i_x = yoneda_embedding(base)

    # (i) eta_{g f} then (mu_{g,f} whiskered by i) equals g whiskered over eta_f
    eta_gf = eta_cell(kleisli_compose(g, f), tag=("eta_gf",))
    mu_whiskered = kleisli_associator(g, f, i_x, tag=("g,f,i",))
    path1 = eta_gf.then(mu_whiskered)
    eta_f = eta_cell(f, tag=("eta_f",))
    path2 = whisker_left(g, eta_f)
    report.record("part-i", cell_difference(path1, path2))

    # (ii) mu_{i,f} then theta at f*(p) equals (theta f)* at p
    i_y = yoneda_embedding(f.target_base)
    lam = kleisli_left_unitor(f, tag=("lam_f",))
    for name, p in family.named():
        step1 = mu_map(i_y, f, p, tag=("i,f", name))
        step2 = theta_map(kan_extend(f, p), tag=("theta_fstar", name))
        lhs = step1.then(step2)
        rhs = star_cell(lam, p)
        report.record(f"part-ii@{name}", cell_difference(lhs, rhs))

    # (iii) eta_{i} then theta whiskered by i equals the identity on i
    eta_i = eta_cell(i_x, tag=("eta_i",))
    for x in base.objects:
        rep = yoneda(base, x)
        theta = theta_map(rep, tag=("theta_rep", x))
        composite = eta_i.components[x].then(theta)
        report.record(f"part-iii@{x!r}", cell_difference(composite, PshMap.identity(rep)))
    return report


@memo_scope()
def epsilon_cell(g: PshValuedFunctor, family: TestFamily) -> tuple[dict, CheckReport]:
    """The counit at an extension, (g* i)* -> g*, with invertibility verdict."""
    report = CheckReport("epsilon")
    base = g.source
    i_x = yoneda_embedding(base)
    cells = {}
    for name, p in family.named():
        step1 = mu_map(g, i_x, p, tag=("eps", name))
        theta = theta_map(p, tag=("theta", name))
        step2 = kan_extend_map(g, theta)
        eps = step1.then(step2)
        cells[name] = eps
        report.record(f"invertible@{name}", eps.iso_witness())
    return cells, report


@memo_scope()
def check_cell_naturality(
    f: PshValuedFunctor, g: PshValuedFunctor, family: TestFamily
) -> CheckReport:
    """The structural cells are natural wherever constructed.

    eta is checked as a 2-cell (naturality in the object and in the source),
    theta and mu in the base object and, modification-style, in the argument
    along the canonical maps between family members.
    """
    report = CheckReport("cell-naturality")
    base = f.source
    i_x = yoneda_embedding(base)
    eta = eta_cell(f, tag=("eta_f",))
    report.record("eta-kleisli-natural", eta.violations())
    for x in base.objects:
        report.record(f"eta-object-natural@{x!r}", eta.components[x].violations())

    gf = kleisli_compose(g, f)
    canonical = _canonical_family_maps(family)
    thetas = {}
    mus = {}
    for name, p in family.named():
        thetas[name] = theta_map(p, tag=("theta", name))
        report.record(f"theta-object-natural@{name}", thetas[name].violations())
        mus[name] = mu_map(g, f, p, tag=("g,f", name))
        report.record(f"mu-object-natural@{name}", mus[name].violations())
    for src_name, tgt_name, phi in canonical:
        i_phi = kan_extend_map(i_x, phi)
        lhs = i_phi.then(thetas[tgt_name])
        rhs = thetas[src_name].then(phi)
        report.record(f"theta-arg-natural@{src_name}->{tgt_name}", cell_difference(lhs, rhs))
        gf_phi = kan_extend_map(gf, phi)
        gff_phi = kan_extend_map(g, kan_extend_map(f, phi))
        lhs = gf_phi.then(mus[tgt_name])
        rhs = mus[src_name].then(gff_phi)
        report.record(f"mu-arg-natural@{src_name}->{tgt_name}", cell_difference(lhs, rhs))
    return report


def _canonical_family_maps(family: TestFamily) -> list[tuple[tuple, tuple, PshMap]]:
    """Coproduct injections, maps to the terminal member and maps from the
    empty member, each between the family's own members, so that a memo
    scope reuses the members' extensions at their endpoints."""
    out: list[tuple[tuple, tuple, PshMap]] = []
    names = [name for name, _ in family.named()]
    by_name = dict(family.named())

    def add(src_name, tgt_name, phi):
        phi = PshMap(by_name[src_name], by_name[tgt_name], phi.components, check=False)
        out.append((src_name, tgt_name, phi))

    for name, p in family.named():
        if name[0] == "coprod":
            _, a, b = name
            cop_data = psh_coproduct(yoneda(family.base, a), yoneda(family.base, b))
            add(("rep", a), name, cop_data[1])
            add(("rep", b), name, cop_data[2])
        if name[0] == "terminal":
            for other in names:
                if other != name:
                    add(other, name, psh_terminal_map(by_name[other]))
        if name[0] == "empty":
            for other in names:
                if other != name:
                    add(name, other, psh_initial_map(by_name[other]))
    return out


# -- exhaustive 2-cell enumeration for the universal property ------------------------


def enumerate_kleisli_cells(u: PshValuedFunctor, v: PshValuedFunctor) -> list[KleisliCell]:
    """All 2-cells u -> v between parallel Kleisli morphisms, exhaustively:
    families natural in the target base and along every source morphism."""
    base = u.source
    members = [(x, u.on_obj[x], v.on_obj[x]) for x in base.objects]
    arrows = [
        (base.src(m), base.tgt(m), u.on_mor[m], v.on_mor[m])
        for m in base.morphisms()
        if not base.is_identity(m)
    ]
    return [KleisliCell(u, v, fam, check=False) for fam in natural_families(members, arrows)]


@memo_scope()
def enumerate_modifications(
    f: PshValuedFunctor,
    h: PshValuedFunctor,
    family: TestFamily,
) -> list[dict]:
    """All families of maps f*(p) -> h*(p), p in the family, natural in p,
    each a dict from member name to PshMap.

    Naturality in p is imposed along the canonical maps between family
    members: coproduct injections, maps to the terminal member, maps from
    the empty member.  Components must also be natural in the base object.
    """
    members = [(name, kan_extend(f, p), kan_extend(h, p)) for name, p in family.named()]
    arrows = [
        (src_name, tgt_name, kan_extend_map(f, phi), kan_extend_map(h, phi))
        for src_name, tgt_name, phi in _canonical_family_maps(family)
    ]
    return natural_families(members, arrows)


@memo_scope()
def check_lax_idempotent(
    f: PshValuedFunctor,
    g: PshValuedFunctor,
    family: TestFamily,
    competitors: list[PshValuedFunctor] | None = None,
) -> CheckReport:
    """Lax idempotency at an instance.

    Checks the two triangle diagrams, counit invertibility, and -- for each
    declared competitor h -- that precomposition with the unit comparison is
    a bijection from modifications f* -> h* (extensional, over the declared
    family) onto 2-cells f -> h o i.
    """
    report = CheckReport("lax-idempotent")
    report.meta["restriction"] = (
        "universal property quantified over the declared finite family and "
        "competitor set only"
    )
    derived = check_derived_coherences(f, g, family)
    for item in derived.items:
        if item.name == "part-i" or item.name.startswith("part-iii"):
            report.items.append(item)
    _, eps_report = epsilon_cell(f, family)
    report.extend(eps_report, prefix="eps-f:")

    def key(components: dict) -> tuple:
        """A 2-cell f -> h o i by its component tables, to compare cells as sets."""
        return tuple(sorted(
            ((x, a), fn.mapping) for x, pm in components.items() for a, fn in pm.components.items()
        ))

    base = f.source
    i_x = yoneda_embedding(base)
    eta = eta_cell(f, tag=("eta_f",))
    for h in competitors or []:
        h_i = kleisli_compose(h, i_x)
        cellset_b = enumerate_kleisli_cells(f, h_i)
        modifications = enumerate_modifications(f, h, family)
        # precompose with eta: a modification psi restricts to representables,
        # where eta's components already end at f's extension of each one
        image_keys = []
        for psi in modifications:
            comps = {}
            for x in base.objects:
                rep = psi[("rep", x)]
                psi_rep = PshMap(eta.components[x].target, rep.target, rep.components, check=False)
                comps[x] = eta.components[x].then(psi_rep)
            image_keys.append(key(comps))
        injective = len(set(image_keys)) == len(image_keys)
        surjective = set(image_keys) == {key(cell.components) for cell in cellset_b}
        report.add(
            "left-extension-count",
            len(modifications) == len(cellset_b),
            f"{len(modifications)} modifications vs {len(cellset_b)} cells",
        )
        report.add("left-extension-injective", injective, "precomposition not injective")
        report.add("left-extension-surjective", surjective, "precomposition not surjective")
    return report
