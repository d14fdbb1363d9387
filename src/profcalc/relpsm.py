"""Axiom suites for the presheaf extension structure.

The two coherence axioms (associativity hexagon, unit triangle), the three
derived coherence diagrams, counit invertibility, and the lax-idempotency
conditions -- all evaluated elementwise on a declared finite family of
presheaf arguments.  Universal-property statements are checked extensionally
against declared competitor morphisms with exhaustively enumerated 2-cells;
reports carry that restriction in their metadata.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fincat import FinCat, FinFn, FinSet, Label, label_key
from .presheaf import (
    KanPresheaf,
    Presheaf,
    PshMap,
    PshValuedFunctor,
    kan_extend,
    kan_extend_map,
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
    MutateHook,
    eta_cell,
    kleisli_associator,
    kleisli_compose,
    kleisli_left_unitor,
    mu_map,
    star_cell,
    theta_map,
    whisker_left,
    whisker_right,
)
from .report import CheckReport


@dataclass(frozen=True)
class TestFamily:
    """A finite list of named presheaf arguments sharing one base category."""

    __test__ = False  # not a pytest collection target

    base: FinCat
    members: tuple[tuple[tuple, Presheaf], ...]

    def __init__(self, base, members):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "members", tuple(members))
        for _, p in self.members:
            if p.base != base:
                raise ValueError("family member on the wrong base")

    def presheaves(self):
        return [p for _, p in self.members]

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
        return TestFamily(base, members)


def _pshmap_equal_witness(a: PshMap, b: PshMap) -> str | None:
    for obj in sorted(a.components, key=label_key):
        fa, fb = a.components[obj], b.components[obj]
        if fa != fb:
            for e in fa.domain:
                if fa(e) != fb(e):
                    return f"object {obj!r}, element {e!r}: {fa(e)!r} vs {fb(e)!r}"
            return f"object {obj!r}: domains differ"
    return None


def check_assoc_axiom(
    f: PshValuedFunctor,
    g: PshValuedFunctor,
    h: PshValuedFunctor,
    family: TestFamily,
    mutate: MutateHook | None = None,
) -> CheckReport:
    """Both hexagon paths ((h g)* f)* -> h*(g* f*), elementwise on the family."""
    report = CheckReport("assoc-axiom")
    gf = kleisli_compose(g, f)
    hg = kleisli_compose(h, g)
    alpha = kleisli_associator(h, g, f, mutate=mutate, tag=("hgf",), hg=hg, gf=gf)
    hgf_left = alpha.source   # (h o g) o f
    hgf_right = alpha.target  # h o (g o f)
    for name, p in family.named():
        fp = kan_extend(f, p)
        gfp = kan_extend(gf, p)
        hgfp = kan_extend(hgf_right, p)
        lhs_kan = kan_extend(hgf_left, p)
        # left path: (mu_{h,g} f)* then mu_{h, g f} then h* mu_{g,f}
        step1 = star_cell(alpha, p, source_kan=lhs_kan, target_kan=hgfp)
        step2 = mu_map(
            h, gf, p, lhs_kan=hgfp, f_kan=gfp, mutate=mutate, tag=("h,gf", name)
        )
        inner = mu_map(
            g, f, p, lhs_kan=gfp, f_kan=fp, mutate=mutate, tag=("g,f", name)
        )
        step3 = kan_extend_map(h, inner, source_kan=step2.target)
        left = step1.then(step2).then(step3)
        # right path: mu_{h g, f} then mu_{h,g} at f*(p)
        step4 = mu_map(
            hg, f, p, lhs_kan=lhs_kan, f_kan=fp, mutate=mutate, tag=("hg,f", name)
        )
        step5 = mu_map(
            h, g, fp, lhs_kan=step4.target, mutate=mutate, tag=("h,g", name)
        )
        right = step4.then(step5)
        witness = _pshmap_equal_witness(left, right)
        report.add(f"hexagon@{name}", witness is None, witness)
    return report


def check_unit_axiom(
    f: PshValuedFunctor,
    family: TestFamily,
    mutate: MutateHook | None = None,
) -> CheckReport:
    """The triangle f* -> (f* i)* -> f* i* -> f* equals the identity."""
    report = CheckReport("unit-axiom")
    base = f.source
    i_x = yoneda_embedding(base)
    f_i = kleisli_compose(f, i_x)
    eta = eta_cell(f, f_unit=f_i, mutate=mutate, tag=("eta_f",))
    for name, p in family.named():
        fp = kan_extend(f, p)
        fip = kan_extend(f_i, p)
        step1 = star_cell(eta, p, source_kan=fp, target_kan=fip)
        ip = kan_extend(i_x, p)
        step2 = mu_map(
            f, i_x, p, lhs_kan=fip, f_kan=ip, mutate=mutate, tag=("f,i", name)
        )
        theta = theta_map(base, p, source_kan=ip, mutate=mutate, tag=("theta", name))
        step3 = kan_extend_map(f, theta, source_kan=step2.target, target_kan=fp)
        composite = step1.then(step2).then(step3)
        witness = _pshmap_equal_witness(composite, PshMap.identity(fp))
        report.add(f"unit-triangle@{name}", witness is None, witness)
    return report


def check_derived_coherences(
    f: PshValuedFunctor,
    g: PshValuedFunctor,
    family: TestFamily,
    mutate: MutateHook | None = None,
) -> CheckReport:
    """The three derived diagrams, verified independently of the axioms."""
    report = CheckReport("derived-coherences")
    base = f.source
    i_x = yoneda_embedding(base)
    gf = kleisli_compose(g, f)

    # (i) eta_{g f} then (mu_{g,f} whiskered by i) equals g whiskered over eta_f
    gf_i = kleisli_compose(gf, i_x)
    f_i = kleisli_compose(f, i_x)
    g_fi = kleisli_compose(g, f_i)
    eta_gf = eta_cell(gf, f_unit=gf_i, mutate=mutate, tag=("eta_gf",))
    mu_whiskered = kleisli_associator(
        g, f, i_x, mutate=mutate, tag=("g,f,i",), gf=f_i, source_comp=gf_i,
        target_comp=g_fi,
    )
    path1 = eta_gf.then(mu_whiskered)
    eta_f = eta_cell(f, f_unit=f_i, mutate=mutate, tag=("eta_f",))
    path2 = whisker_left(g, eta_f, source_comp=gf, target_comp=g_fi)
    witness = None
    for x in sorted(path1.components, key=label_key):
        witness = _pshmap_equal_witness(path1.components[x], path2.components[x])
        if witness is not None:
            witness = f"object {x!r}: " + witness
            break
    report.add("part-i", witness is None, witness)

    # (ii) mu_{i,f} then theta at f*(p) equals (theta f)* at p
    i_y = yoneda_embedding(f.target_base)
    iy_f = kleisli_compose(i_y, f)
    lam = kleisli_left_unitor(f, source_comp=iy_f, mutate=mutate, tag=("lam_f",))
    for name, p in family.named():
        fp = kan_extend(f, p)
        iyfp = kan_extend(iy_f, p)
        step1 = mu_map(
            i_y, f, p, lhs_kan=iyfp, f_kan=fp, mutate=mutate, tag=("i,f", name)
        )
        step2 = theta_map(f.target_base, fp, source_kan=step1.target, mutate=mutate, tag=("theta_fstar", name))
        lhs = step1.then(step2)
        rhs = star_cell(lam, p, source_kan=iyfp, target_kan=fp)
        witness = _pshmap_equal_witness(lhs, rhs)
        report.add(f"part-ii@{name}", witness is None, witness)

    # (iii) eta_{i} then theta whiskered by i equals the identity on i
    i_i = kleisli_compose(i_x, i_x)
    eta_i = eta_cell(i_x, f_unit=i_i, mutate=mutate, tag=("eta_i",))
    for x in base.objects:
        rep = yoneda(base, x)
        theta = theta_map(base, rep, source_kan=i_i.on_obj[x], mutate=mutate, tag=("theta_rep", x))
        composite = eta_i.components[x].then(theta)
        witness = _pshmap_equal_witness(composite, PshMap.identity(rep))
        report.add(f"part-iii@{x!r}", witness is None, witness)
    return report


def epsilon_cell(
    g: PshValuedFunctor,
    family: TestFamily,
    mutate: MutateHook | None = None,
) -> tuple[dict, CheckReport]:
    """The counit at an extension, (g* i)* -> g*, with invertibility verdict."""
    report = CheckReport("epsilon")
    base = g.source
    i_x = yoneda_embedding(base)
    g_i = kleisli_compose(g, i_x)
    cells = {}
    for name, p in family.named():
        gp = kan_extend(g, p)
        gip = kan_extend(g_i, p)
        ip = kan_extend(i_x, p)
        step1 = mu_map(
            g, i_x, p, lhs_kan=gip, f_kan=ip, mutate=mutate, tag=("eps", name)
        )
        theta = theta_map(base, p, source_kan=ip, mutate=mutate, tag=("theta", name))
        step2 = kan_extend_map(g, theta, source_kan=step1.target, target_kan=gp)
        eps = step1.then(step2)
        cells[name] = eps
        bad = None
        for obj in sorted(eps.components, key=label_key):
            if not eps.components[obj].is_bijective():
                bad = f"component at {obj!r} not bijective"
                break
        report.add(f"invertible@{name}", bad is None, bad)
    return cells, report


def check_cell_naturality(
    f: PshValuedFunctor,
    g: PshValuedFunctor,
    family: TestFamily,
    mutate: MutateHook | None = None,
) -> CheckReport:
    """The structural cells are natural wherever constructed.

    eta is checked as a 2-cell (naturality in the object and in the source),
    theta and mu in the base object and, modification-style, in the argument
    along the canonical maps between family members.
    """
    from .presheaf import pshmap_violations
    from .prof import kleisli_cell_violations

    report = CheckReport("cell-naturality")
    base = f.source
    i_x = yoneda_embedding(base)
    f_i = kleisli_compose(f, i_x)
    eta = eta_cell(f, f_unit=f_i, mutate=mutate, tag=("eta_f",))
    bad = kleisli_cell_violations(eta)
    report.add("eta-kleisli-natural", not bad, bad[0] if bad else None)
    for x in base.objects:
        bad = pshmap_violations(eta.components[x])
        report.add(f"eta-object-natural@{x!r}", not bad, bad[0] if bad else None)

    gf = kleisli_compose(g, f)
    canonical = _canonical_family_maps(family)
    thetas = {}
    mus = {}
    kans = {}
    for name, p in family.named():
        ip = kan_extend(i_x, p)
        fp = kan_extend(f, p)
        gfp = kan_extend(gf, p)
        kans[name] = (ip, fp, gfp)
        theta = theta_map(base, p, source_kan=ip, mutate=mutate, tag=("theta", name))
        thetas[name] = theta
        bad = pshmap_violations(theta)
        report.add(f"theta-object-natural@{name}", not bad, bad[0] if bad else None)
        mu = mu_map(g, f, p, lhs_kan=gfp, f_kan=fp, mutate=mutate, tag=("g,f", name))
        mus[name] = mu
        bad = pshmap_violations(mu)
        report.add(f"mu-object-natural@{name}", not bad, bad[0] if bad else None)
    for src_name, tgt_name, phi in canonical:
        i_phi = kan_extend_map(i_x, phi, source_kan=kans[src_name][0], target_kan=kans[tgt_name][0])
        lhs = i_phi.then(thetas[tgt_name])
        rhs = thetas[src_name].then(phi)
        witness = _pshmap_equal_witness(lhs, rhs)
        report.add(f"theta-arg-natural@{src_name}->{tgt_name}", witness is None, witness)
        gf_phi = kan_extend_map(gf, phi, source_kan=kans[src_name][2], target_kan=kans[tgt_name][2])
        f_phi = kan_extend_map(f, phi, source_kan=kans[src_name][1], target_kan=kans[tgt_name][1])
        gff_phi = kan_extend_map(g, f_phi, source_kan=mus[src_name].target, target_kan=mus[tgt_name].target)
        lhs = gf_phi.then(mus[tgt_name])
        rhs = mus[src_name].then(gff_phi)
        witness = _pshmap_equal_witness(lhs, rhs)
        report.add(f"mu-arg-natural@{src_name}->{tgt_name}", witness is None, witness)
    return report


def _canonical_family_maps(family: TestFamily) -> list[tuple[tuple, tuple, PshMap]]:
    out: list[tuple[tuple, tuple, PshMap]] = []
    names = [name for name, _ in family.named()]
    by_name = dict(family.named())
    for name, p in family.named():
        if name[0] == "coprod":
            _, a, b = name
            cop_data = psh_coproduct(yoneda(family.base, a), yoneda(family.base, b))
            out.append((("rep", a), name, cop_data[1]))
            out.append((("rep", b), name, cop_data[2]))
        if name[0] == "terminal":
            for other in names:
                if other != name:
                    out.append((other, name, psh_terminal_map(by_name[other])))
        if name[0] == "empty":
            for other in names:
                if other != name:
                    out.append((name, other, psh_initial_map(by_name[other])))
    return out


# -- exhaustive 2-cell enumeration for the universal property ------------------------


def _enumerate_families(slots, constraints, node_budget=2_000_000):
    """Backtracking enumeration of FinFn families.

    slots: list of (key, domain FinSet, codomain FinSet)
    constraints: list of (keys_involved, predicate(assignment) -> bool);
      a predicate runs as soon as all its keys are assigned.
    """
    results = []
    assignment: dict = {}
    by_key: dict = {}
    for idx, (keys, pred) in enumerate(constraints):
        for k in keys:
            by_key.setdefault(k, []).append((set(keys), pred))
    nodes = 0

    def extend(i):
        nonlocal nodes
        if i == len(slots):
            results.append(dict(assignment))
            return
        key, dom, cod = slots[i]
        if len(dom) == 0:
            candidates = [FinFn(dom, cod, {})]
        elif len(cod) == 0:
            return
        else:
            candidates = [
                FinFn(dom, cod, dict(zip(dom.elements, images)))
                for images in itertools.product(list(cod), repeat=len(dom))
            ]
        for fn in candidates:
            nodes += 1
            if nodes > node_budget:
                raise RuntimeError("2-cell enumeration budget exceeded")
            assignment[key] = fn
            ok = True
            for keys, pred in by_key.get(key, []):
                if keys <= set(assignment):
                    if not pred(assignment):
                        ok = False
                        break
            if ok:
                extend(i + 1)
            del assignment[key]

    extend(0)
    return results


def enumerate_kleisli_cells(
    u: PshValuedFunctor, v: PshValuedFunctor, node_budget=2_000_000
) -> list[KleisliCell]:
    """All 2-cells u -> v between parallel Kleisli morphisms, exhaustively."""
    base = u.source
    tgt = u.target_base
    slots = []
    for x in base.objects:
        for a in tgt.objects:
            slots.append(((x, a), u.on_obj[x].values[a], v.on_obj[x].values[a]))
    constraints = []
    # naturality of each component in the target base
    for x in base.objects:
        for m in tgt.morphisms():
            if tgt.is_identity(m):
                continue
            a, b = tgt.src(m), tgt.tgt(m)

            def pred(asg, x=x, m=m, a=a, b=b):
                lhs = u.on_obj[x].restriction[m].then(asg[(x, a)])
                rhs = asg[(x, b)].then(v.on_obj[x].restriction[m])
                return lhs == rhs

            constraints.append(([(x, a), (x, b)], pred))
    # naturality in the source object
    for m in base.morphisms():
        if base.is_identity(m):
            continue
        x0, x1 = base.src(m), base.tgt(m)
        for a in tgt.objects:

            def pred(asg, m=m, x0=x0, x1=x1, a=a):
                lhs = u.on_mor[m].components[a].then(asg[(x1, a)])
                rhs = asg[(x0, a)].then(v.on_mor[m].components[a])
                return lhs == rhs

            constraints.append(([(x0, a), (x1, a)], pred))
    families = _enumerate_families(slots, constraints, node_budget)
    out = []
    for fam in families:
        comps = {
            x: PshMap(
                u.on_obj[x],
                v.on_obj[x],
                {a: fam[(x, a)] for a in tgt.objects},
                check=False,
            )
            for x in base.objects
        }
        out.append(KleisliCell(u, v, comps, check=False))
    return out


def enumerate_modifications(
    f: PshValuedFunctor,
    h: PshValuedFunctor,
    family: TestFamily,
    node_budget=2_000_000,
) -> list[dict]:
    """All families of maps f*(p) -> h*(p), p in the family, natural in p.

    Naturality in p is imposed along the canonical maps between family
    members: coproduct injections, maps to the terminal member, maps from
    the empty member.  Components must also be natural in the base object.
    """
    tgt = f.target_base
    kf = {name: kan_extend(f, p) for name, p in family.named()}
    kh = {name: kan_extend(h, p) for name, p in family.named()}
    names = [name for name, _ in family.named()]
    canonical = _canonical_family_maps(family)

    slots = []
    for name in names:
        for a in tgt.objects:
            slots.append(((name, a), kf[name].values[a], kh[name].values[a]))
    constraints = []
    for name in names:
        for m in tgt.morphisms():
            if tgt.is_identity(m):
                continue
            a, b = tgt.src(m), tgt.tgt(m)

            def pred(asg, name=name, m=m, a=a, b=b):
                lhs = kf[name].restriction[m].then(asg[(name, a)])
                rhs = asg[(name, b)].then(kh[name].restriction[m])
                return lhs == rhs

            constraints.append(([(name, a), (name, b)], pred))
    for src_name, tgt_name, phi in canonical:
        kf_phi = kan_extend_map(f, phi, source_kan=kf[src_name], target_kan=kf[tgt_name])
        kh_phi = kan_extend_map(h, phi, source_kan=kh[src_name], target_kan=kh[tgt_name])
        for a in tgt.objects:

            def pred(asg, src_name=src_name, tgt_name=tgt_name, a=a, kf_phi=kf_phi, kh_phi=kh_phi):
                lhs = kf_phi.components[a].then(asg[(tgt_name, a)])
                rhs = asg[(src_name, a)].then(kh_phi.components[a])
                return lhs == rhs

            constraints.append(([(src_name, a), (tgt_name, a)], pred))
    return _enumerate_families(slots, constraints, node_budget)


def check_lax_idempotent(
    f: PshValuedFunctor,
    g: PshValuedFunctor,
    family: TestFamily,
    competitors: list[PshValuedFunctor] | None = None,
    mutate: MutateHook | None = None,
    node_budget: int = 2_000_000,
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
    derived = check_derived_coherences(f, g, family, mutate=mutate)
    for item in derived.items:
        if item.name.startswith("part-i@") or item.name == "part-i":
            report.items.append(item)
        if item.name.startswith("part-iii"):
            report.items.append(item)
    _, eps_report = epsilon_cell(f, family, mutate=mutate)
    report.extend(eps_report, prefix="eps-f:")

    base = f.source
    i_x = yoneda_embedding(base)
    f_i = kleisli_compose(f, i_x)
    eta = eta_cell(f, f_unit=f_i, mutate=mutate, tag=("eta_f",))
    for h in competitors or []:
        h_i = kleisli_compose(h, i_x)
        cellset_b = enumerate_kleisli_cells(f, h_i, node_budget)
        modifications = enumerate_modifications(f, h, family, node_budget)
        # precompose with eta: a modification psi restricts to representables
        kh = {name: kan_extend(h, p) for name, p in family.named()}
        images = []
        for psi in modifications:
            comps = {}
            for x in base.objects:
                rep_name = ("rep", x)
                psi_rep = PshMap(
                    kan_extend(f, yoneda(base, x)),
                    kh[rep_name],
                    {a: psi[(rep_name, a)] for a in f.target_base.objects},
                    check=False,
                )
                comps[x] = eta.components[x].then(psi_rep)
            images.append(
                KleisliCell(f, h_i, comps, check=False)
            )
        image_keys = [
            tuple(sorted(((x, a), fn.mapping) for x, pm in cell.components.items() for a, fn in pm.components.items()))
            for cell in images
        ]
        b_keys = [
            tuple(sorted(((x, a), fn.mapping) for x, pm in cell.components.items() for a, fn in pm.components.items()))
            for cell in cellset_b
        ]
        injective = len(set(image_keys)) == len(image_keys)
        surjective = set(image_keys) == set(b_keys)
        report.add(
            "left-extension-count",
            len(modifications) == len(cellset_b),
            f"{len(modifications)} modifications vs {len(cellset_b)} cells",
        )
        report.add("left-extension-injective", injective, "precomposition not injective")
        report.add("left-extension-surjective", surjective, "precomposition not surjective")
    return report
