"""The actions of coends with parameters, derived along generators only
(`colim.induced_actions`), against the label oracle `label_induced_map`
(`integrands`) run on every morphism.

Each reference below restates the elementwise rule of its construction and
applies it to every morphism of the parameter category, checking every
member of every class; the derived tables must equal these exactly.  The
last test calls the engine's positional kernel, `colim.induced_map`, with
the target class positions of a carrier map's images.
"""

import functools

import pytest

from integrands import label_induced_map
from profcalc.colim import (
    coend_relations, induced_actions, induced_map, label_pairs, layout, precompose_image, quotient,
)
from profcalc.day import _day_relations, day_convolve, one_object_group_monoidal
from profcalc.fincat import FinSet
from profcalc.presheaf import kan_extend, psh_coproduct, pvf_coproduct, yoneda, yoneda_embedding
from profcalc.prof import prof_compose, prof_identity, tau_inv
from profcalc.seeds import arrow_category, chain, discrete, seed_library
from profcalc.suites import _monoidal_seeds
from profcalc.symmon import (
    _compose_heads,
    _runs,
    associative_operad,
    free_sym_cat,
    perm_inverse,
    representable_seq,
    seq_coproduct,
    subst_compose,
    subst_extension,
    subst_identity,
    terminal_operad,
)
from tests.test_colim import _max_monoidal

SEEDS = seed_library()


def _inputs(cat):
    objs = cat.objects.elements
    emb = yoneda_embedding(cat)
    doubled = pvf_coproduct(emb, emb)
    p, _, _ = psh_coproduct(yoneda(cat, objs[0]), yoneda(cat, objs[-1]))
    return doubled, p


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_kan_extend_restriction_matches_all_morphism_reference(name):
    cat = SEEDS[name]
    f, p = _inputs(cat)
    kp = kan_extend(f, p)
    for g in cat.morphisms():
        y0, y1 = cat.src(g), cat.tgt(g)

        def rule(pair, g=g, y0=y0):
            x, (u, v) = pair
            return kp.quotients[y0].representative((x, (f.on_obj[x].restriction[g](u), v)))

        assert kp.restriction[g] == label_induced_map(kp.quotients[y1], kp.values[y0], rule), g


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_prof_compose_actions_match_all_morphism_reference(name):
    cat = SEEDS[name]
    g, f = tau_inv(_inputs(cat)[0]), prof_identity(cat)
    gf = prof_compose(g, f)
    for m in cat.morphisms():
        a0, a1 = cat.src(m), cat.tgt(m)
        for x in cat.objects:

            def left(pair, m=m, a0=a0, x=x):
                y, (u, v) = pair
                return gf.quotients[(a0, x)].representative((y, (g.left_act[(m, y)](u), v)))

            def right(pair, m=m, a1=a1, z=x):
                y, (u, v) = pair
                return gf.quotients[(z, a1)].representative((y, (u, f.right_act[(y, m)](v))))

            expected = label_induced_map(gf.quotients[(a1, x)], gf.values[(a0, x)], left)
            assert gf.left_act[(m, x)] == expected, (m, x)
            expected = label_induced_map(gf.quotients[(x, a0)], gf.values[(x, a1)], right)
            assert gf.right_act[(x, m)] == expected, (x, m)


def _day_restriction_reference(conv, base, m):
    """The restriction of a Day convolution along m: a0 -> a1, by its rule
    h -> h . m applied to every member of every class."""
    a0, a1 = base.src(m), base.tgt(m)

    def rule(pair):
        (b1, b2), (s, t, h) = pair
        return conv.quotients[a0].representative(((b1, b2), (s, t, base.comp[(h, m)])))

    return label_induced_map(conv.quotients[a1], conv.values[a0], rule)


@pytest.mark.parametrize(
    "mon",
    [one_object_group_monoidal(3), _max_monoidal(chain(3)), _max_monoidal(arrow_category())],
    ids=["Z3", "max chain3", "max arrow"],
)
def test_day_convolve_restriction_matches_all_morphism_reference(mon):
    base = mon.base
    _, p = _inputs(base)
    conv = day_convolve(mon, p, p)
    for m in base.morphisms():
        assert conv.restriction[m] == _day_restriction_reference(conv, base, m)


DAY_CASES = [*(name for name, _ in _monoidal_seeds()), *(f"Z{n}" for n in range(4, 11)), "max chain3", "max arrow"]


@functools.cache
def _day_case(name):
    """(mon, f1, f2): (y + y) twice over Z4-Z10, y the unit's representable;
    on the other bases y(first) + y(last), and y(unit) + that."""
    seeds = {**dict(_monoidal_seeds()), "max chain3": _max_monoidal(chain(3)), "max arrow": _max_monoidal(arrow_category())}
    if name not in seeds:
        mon = one_object_group_monoidal(int(name[1:]))
        y = yoneda(mon.base, mon.unit)
        yy = psh_coproduct(y, y)[0]
        return mon, yy, yy
    mon = seeds[name]
    _, p = _inputs(mon.base)
    return mon, p, psh_coproduct(yoneda(mon.base, mon.unit), p)[0]


def _day_label_relations(mon, f1, f2, a):
    """The Day relations at a, one label pair per member, by the rule that
    built them before positions: along each generator (m1, m2) of the
    tensor's source, (F1(m1)s, F2(m2)t, h) ~ (s, t, (m1 (x) m2) . h)."""
    base, prod = mon.base, mon.tensor.source
    for mm in prod.generators():
        m1, m2 = mm
        r1, r2 = f1.restriction[m1].as_dict(), f2.restriction[m2].as_dict()
        tm, homs = mon.mor(m1, m2), base.hom[(a, mon.ob(base.src(m1), base.src(m2)))]
        for s in r1:
            for t in r2:
                for h in homs:
                    yield (prod.src(mm), (r1[s], r2[t], h)), (prod.tgt(mm), (s, t, base.comp[(tm, h)]))


@pytest.mark.parametrize("name", DAY_CASES)
def test_day_convolve_by_position_matches_the_label_rule(name):
    mon, f1, f2 = _day_case(name)
    base = mon.base
    conv = day_convolve(mon, f1, f2)
    for a in base.objects:
        q = conv.quotients[a]

        def diagonal(bb, a=a):
            b1, b2 = bb
            return FinSet.product(f1.values[b1], f2.values[b2], base.hom[(a, mon.ob(b1, b2))])

        assert q.carrier == FinSet.sigma(mon.tensor.source.objects, diagonal)
        elems = q.carrier.elements
        runs = {(bb,): ((f1.values[bb[0]], f2.values[bb[1]], base.hom[(a, mon.ob(*bb))]),)
                for bb in mon.tensor.source.objects}
        carrier, axes = layout(runs)
        assert carrier == q.carrier
        positions = list(coend_relations(_day_relations(mon, f1, f2, runs, axes)))
        labels = list(_day_label_relations(mon, f1, f2, a))
        assert [(elems[i], elems[j]) for i, j in positions] == labels
        assert quotient(q.carrier, label_pairs(q.carrier, labels)) == q
    for m in base.morphisms():
        assert conv.restriction[m] == _day_restriction_reference(conv, base, m), m


SUBST_CASES = [
    "Ass o Ass, arity 4",
    "Ass o (y + y^2), arity 4",
    "terminal o terminal, two colours",
    "unit o unit, arrow",
]


@functools.cache
def _subst_case(name):
    """(g, f) for g o f; built on first use, so a failing build fails its test."""
    if name.startswith("Ass"):
        ass = associative_operad(4).seq
        if name == "Ass o Ass, arity 4":
            return ass, ass
        s4, d1 = ass.source_sym, discrete(1)
        return ass, seq_coproduct(
            representable_seq(s4, d1, {"d0": ("d0",)}),
            representable_seq(s4, d1, {"d0": ("d0", "d0")}),
        )
    if name == "terminal o terminal, two colours":
        two = terminal_operad(discrete(2), 3).seq
        return two, two
    unit_arrow = subst_identity(free_sym_cat(arrow_category(), 2))
    return unit_arrow, unit_arrow


@pytest.mark.parametrize("name", SUBST_CASES)
def test_subst_compose_actions_match_all_morphism_reference(name):
    g, f = _subst_case(name)
    gf = subst_compose(g, f)
    sym_x, z_cat = f.source_sym.cat, g.source
    for mor in sym_x.morphisms():
        for z in z_cat.objects:

            def left(elem, mor=mor, z=z):
                m, ys, blocks, gamma, vs, h = elem
                return gf.quotients[(mor[0], z)].representative(
                    (m, ys, blocks, gamma, vs, sym_x.comp[(h, mor)])
                )

            expected = label_induced_map(gf.quotients[(mor[1], z)], gf.values[(mor[0], z)], left)
            assert gf.left_act[(mor, z)] == expected, (mor, z)
    for xs in sym_x.objects:
        for zm in z_cat.morphisms():
            z0, z1 = z_cat.src(zm), z_cat.tgt(zm)

            def right(elem, xs=xs, zm=zm, z1=z1):
                m, ys, blocks, gamma, vs, h = elem
                return gf.quotients[(xs, z1)].representative(
                    (m, ys, blocks, g.right_act[(ys, zm)](gamma), vs, h)
                )

            expected = label_induced_map(gf.quotients[(xs, z0)], gf.values[(xs, z1)], right)
            assert gf.right_act[(xs, zm)] == expected, (xs, zm)


@pytest.mark.parametrize("name", SUBST_CASES)
def test_subst_extension_actions_match_all_morphism_reference(name):
    g, f = _subst_case(name)
    sym_x, sym_y = f.source_sym, g.source_sym
    ext = subst_extension(f, sym_y)
    for rho in sym_x.cat.morphisms():
        for ys in sym_y.cat.objects:

            def left(elem, rho=rho, ys=ys):
                blocks, vs, h = elem
                return ext.quotients[(rho[0], ys)].representative(
                    (blocks, vs, sym_x.cat.comp[(h, rho)])
                )

            expected = label_induced_map(ext.quotients[(rho[1], ys)], ext.values[(rho[0], ys)], left)
            assert ext.left_act[(rho, ys)] == expected, (rho, ys)
    for xs in sym_x.cat.objects:
        for phi in sym_y.cat.morphisms():
            ys0, ys1, sigma, gbar = phi
            inv = perm_inverse(sigma)

            def right(elem, xs=xs, ys1=ys1, sigma=sigma, gbar=gbar, inv=inv):
                blocks, vs, h = elem
                m = len(blocks)
                new_blocks = tuple(blocks[inv[j]] for j in range(m))
                new_vs = tuple(
                    f.right_act[(blocks[inv[j]], gbar[inv[j]])](vs[inv[j]]) for j in range(m)
                )
                mover = sym_x.block_perm_mor(blocks, sigma)
                return ext.quotients[(xs, ys1)].representative(
                    (new_blocks, new_vs, sym_x.cat.comp[(mover, h)])
                )

            expected = label_induced_map(ext.quotients[(xs, ys0)], ext.values[(xs, ys1)], right)
            assert ext.right_act[(xs, phi)] == expected, (xs, phi)


def test_a_rule_not_constant_on_classes_along_a_generator_raises():
    cat = chain(2)
    pq = FinSet(["p", "q"])
    quotients = {a: quotient(pq, label_pairs(pq, [("p", "q")] if a == "0" else [])) for a in cat.objects}

    def constant(m, source, target):
        # every member goes to the position of "p"
        return [target.carrier._index["p"]] * len(source.carrier)

    acts = induced_actions(cat, quotients.__getitem__, constant, contravariant=True)
    assert list(acts) == list(cat.morphisms())
    for m, fn in acts.items():
        src, tgt = quotients[cat.tgt(m)], quotients[cat.src(m)]
        rule = src.representative if cat.is_identity(m) else (lambda x: "p")
        assert fn == label_induced_map(src, tgt.quotient, rule)
    # covariantly, x -> x splits the class {p, q} at "0" along the generator "0" -> "1"
    with pytest.raises(ValueError, match="not constant on class"):
        induced_actions(cat, quotients.__getitem__, lambda m, s, t: range(len(s.carrier)), contravariant=False)


def test_a_substitution_position_map_sending_one_member_to_another_class_raises():
    ass = associative_operad(3).seq
    gf = subst_compose(ass, ass)
    cat = ass.source_sym.cat
    rho = next(mu for mu in cat.generators() if len(mu[0]) == 3)
    q0, q1 = gf.quotients[(rho[1], "d0")], gf.quotients[(rho[0], "d0")]
    runs = {xs: _runs(ass, xs, _compose_heads(ass, ass, xs, "d0"), False) for xs in (rho[1], rho[0])}
    image = precompose_image(cat, rho, runs[rho[1]], runs[rho[0]], layout(runs[rho[0]])[1])

    def classes(image):  # the target class position of each image
        return [q1._classes[j] for j in image]

    assert induced_map(q0, q1.quotient, classes(image)) == gf.left_act[(rho, "d0")]
    # one member that is not its class minimum goes into another class
    i = next(i for i, k in enumerate(q0._classes) if k in q0._classes[:i])
    image[i] = next(j for j, k in enumerate(q1._classes) if k != q1._classes[image[i]])
    with pytest.raises(ValueError, match="not constant on class"):
        induced_map(q0, q1.quotient, classes(image))
