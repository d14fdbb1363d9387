"""A fixed library of small categories used for randomized checks.

Closure under composition is hard to randomize directly, so random instances
are drawn from this library (and from constructions that preserve validity)
rather than from random composition tables.  The library spans: terminal,
discrete n <= 3, the arrow, a parallel pair, the fork (generic equalizer
shape), the commutative square poset, one-object monoids of order <= 6, and
chain posets of length <= 3.
"""

from __future__ import annotations

import itertools

from .fincat import FinCat, Functor, Label, memoised


def terminal_category() -> FinCat:
    return FinCat(["*"], {("*", "*"): ["id*"]}, {"*": "id*"}, {("id*", "id*"): "id*"})


def discrete(n: int) -> FinCat:
    objects = [f"d{i}" for i in range(n)]
    hom = {(a, a): [f"id_{a}"] for a in objects}
    ids = {a: f"id_{a}" for a in objects}
    comp = {(f"id_{a}", f"id_{a}"): f"id_{a}" for a in objects}
    return FinCat(objects, hom, ids, comp)


def poset_category(objects: list[str], le: set[tuple[str, str]]) -> FinCat:
    """Category of a poset: at most one morphism a -> b, written ('le', a, b)."""
    rel = set(le) | {(a, a) for a in objects}
    hom = {}
    for a in objects:
        for b in objects:
            hom[(a, b)] = [("le", a, b)] if (a, b) in rel else []
    ids = {a: ("le", a, a) for a in objects}
    comp = {}
    for a, b in rel:
        for c in objects:
            if (b, c) in rel:
                if (a, c) not in rel:
                    raise ValueError("relation is not transitive")
                comp[(("le", b, c), ("le", a, b))] = ("le", a, c)
    return FinCat(objects, hom, ids, comp)


def arrow_category() -> FinCat:
    return poset_category(["0", "1"], {("0", "1")})


def chain(length: int) -> FinCat:
    objects = [str(i) for i in range(length + 1)]
    le = {(str(i), str(j)) for i in range(length + 1) for j in range(i, length + 1)}
    return poset_category(objects, le)


def commutative_square() -> FinCat:
    objects = ["00", "01", "10", "11"]
    le = {
        (a, b)
        for a in objects
        for b in objects
        if a[0] <= b[0] and a[1] <= b[1]
    }
    return poset_category(objects, le)


def parallel_pair() -> FinCat:
    hom = {("a", "a"): ["id_a"], ("b", "b"): ["id_b"], ("a", "b"): ["u", "v"], ("b", "a"): []}
    ids = {"a": "id_a", "b": "id_b"}
    comp = {
        ("id_a", "id_a"): "id_a",
        ("id_b", "id_b"): "id_b",
        ("u", "id_a"): "u",
        ("v", "id_a"): "v",
        ("id_b", "u"): "u",
        ("id_b", "v"): "v",
    }
    return FinCat(["a", "b"], hom, ids, comp)


def fork() -> FinCat:
    """The generic-equalizer shape e -> x => y with both composites equal."""
    hom = {
        ("e", "e"): ["id_e"],
        ("x", "x"): ["id_x"],
        ("y", "y"): ["id_y"],
        ("e", "x"): ["i"],
        ("x", "y"): ["u", "v"],
        ("e", "y"): ["w"],
        ("x", "e"): [],
        ("y", "e"): [],
        ("y", "x"): [],
    }
    ids = {"e": "id_e", "x": "id_x", "y": "id_y"}
    comp = {
        ("id_e", "id_e"): "id_e",
        ("id_x", "id_x"): "id_x",
        ("id_y", "id_y"): "id_y",
        ("i", "id_e"): "i",
        ("id_x", "i"): "i",
        ("u", "id_x"): "u",
        ("v", "id_x"): "v",
        ("id_y", "u"): "u",
        ("id_y", "v"): "v",
        ("w", "id_e"): "w",
        ("id_y", "w"): "w",
        ("u", "i"): "w",
        ("v", "i"): "w",
    }
    return FinCat(["e", "x", "y"], hom, ids, comp)


def monoid_category(name: str, elements: list[str], unit: str, mult) -> FinCat:
    """One-object category from a monoid multiplication table."""
    obj = f"*{name}"
    labels = {e: f"{name}:{e}" for e in elements}
    hom = {(obj, obj): list(labels.values())}
    ids = {obj: labels[unit]}
    comp = {}
    for g in elements:
        for f in elements:
            comp[(labels[g], labels[f])] = labels[mult(g, f)]
    return FinCat([obj], hom, ids, comp)


def cyclic_group_category(n: int) -> FinCat:
    elems = [str(i) for i in range(n)]
    return monoid_category(f"Z{n}", elems, "0", lambda a, b: str((int(a) + int(b)) % n))


def idempotent_monoid_category() -> FinCat:
    # {1, a} with a*a = a
    return monoid_category("E2", ["1", "a"], "1", lambda x, y: "1" if x == y == "1" else "a")


def sym3_category() -> FinCat:
    elems = ["".join(p) for p in itertools.permutations("012")]

    def mult(a: str, b: str) -> str:
        return "".join(a[int(b[i])] for i in range(3))

    return monoid_category("S3", elems, "012", mult)


def seed_library() -> dict[str, FinCat]:
    return {
        "terminal": terminal_category(),
        "discrete2": discrete(2),
        "discrete3": discrete(3),
        "arrow": arrow_category(),
        "parallel_pair": parallel_pair(),
        "fork": fork(),
        "square": commutative_square(),
        "chain2": chain(2),
        "chain3": chain(3),
        "Z2": cyclic_group_category(2),
        "Z3": cyclic_group_category(3),
        "E2": idempotent_monoid_category(),
        "S3": sym3_category(),
    }


@memoised
def all_functors(source: FinCat, target: FinCat) -> list[Functor]:
    """Enumerate functors source -> target by backtracking over object images."""
    out: list[Functor] = []
    objs = list(source.objects)

    def extend_mor(obj_map: dict[Label, Label]) -> None:
        mor_choices: list[list[tuple[Label, Label]]] = []
        for m in source.morphisms():
            a, b = source.src(m), source.tgt(m)
            cands = list(target.hom[(obj_map[a], obj_map[b])])
            if source.is_identity(m):
                cands = [target.id_of(obj_map[a])]
            if not cands:
                return
            mor_choices.append([(m, c) for c in cands])
        for combo in itertools.product(*mor_choices):
            mor_map = dict(combo)
            ok = True
            for g, f in source.composable_pairs():
                if mor_map[source.comp[(g, f)]] != target.comp[(mor_map[g], mor_map[f])]:
                    ok = False
                    break
            if ok:
                out.append(Functor(source, target, obj_map, mor_map, check=False))

    for images in itertools.product(list(target.objects), repeat=len(objs)):
        extend_mor(dict(zip(objs, images)))
    return out
