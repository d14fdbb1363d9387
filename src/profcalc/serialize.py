"""JSON-compatible wire formats with embedded schema versions.

Labels are ints, strings, or nested tuples; tuples travel as JSON arrays
and are rebuilt on load (lists are never labels).  Hom/value tables are
emitted in canonical order, so serialization is deterministic.

Byte contract: `dumps(obj, indent)` is exactly `json.dumps(to_dict(obj),
indent=indent, sort_keys=True)` at every indent, None included.  Builders
keep labels as tuples; compact output goes through the stdlib's C encoder,
indented output through `_indented`.  `loads` decodes and validates each
distinct embedded category once.  Neither keeps anything between calls.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any

from .day import StrictMonoidalFinCat
from .colim import QuotientSet, label_pairs, quotient
from .fincat import (
    FinCat,
    FinFn,
    FinSet,
    Functor,
    Label,
    NatTrans,
    label_key,
    memo_scope,
    product,
    require_lawful,
    sort_labels,
    validate_category,
)
from .presheaf import Presheaf, PshMap
from .prof import Profunctor
from .symmon import SymSeq, free_sym_cat

SCHEMAS = {
    "finset": "profcalc/finset@1",
    "fincat": "profcalc/fincat@1",
    "functor": "profcalc/functor@1",
    "nattrans": "profcalc/nattrans@1",
    "presheaf": "profcalc/presheaf@1",
    "pshmap": "profcalc/pshmap@1",
    "profunctor": "profcalc/profunctor@1",
    "quotient": "profcalc/quotient@1",
    "monoidal": "profcalc/monoidal@1",
    "symseq": "profcalc/symseq@1",
}


class ParseError(ValueError):
    pass


def _dec(data) -> Label:
    return data if type(data) is not list else tuple(map(_dec, data)) if list in map(type, data) else tuple(data)


def _fn_rows(fn: FinFn) -> list:
    return list(map(list, fn.mapping))


def _rows(rows: list, width: int, name: str) -> list:
    """rows, each checked to be a JSON array of `width` fields: ParseError
    naming the first that is not (a string of that length is no row)."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}):
        row = next(row for row in rows if type(row) is not list or len(row) != width)
        if type(row) is not list:
            raise ParseError(f"{name} row {row!r} is not an array")
        raise ParseError(f"{name} row {row!r} has {len(row)} fields, not {width}")
    return rows


def _array(data, name: str) -> list:
    """data, if a JSON array (a string is no list of its characters); else ParseError naming it."""
    if type(data) is not list:
        raise ParseError(f"{name} {data!r} is not an array")
    return data


def _keyed(rows: list, width: int, name: str, keys=None, table: str = "the table") -> dict:
    """The last field of each row of `name` (`_rows`) by its other fields,
    decoded: ParseError naming the first key given twice or, if the set-like
    `keys` is given, not in it."""
    keyed = [((_dec(r[0]), _dec(r[1])) if width == 3 else _dec(r[0]), r[-1]) for r in _rows(rows, width, name)]
    out = dict(keyed)
    if len(out) < len(keyed) or keys is not None and not out.keys() <= keys:
        seen = set()
        key = next(k for k, _ in keyed if k in seen or keys is not None and k not in keys or seen.add(k))
        raise ParseError(f"{name} row key {key!r} " + ("comes twice" if key in seen else f"is not a key of {table}"))
    return out


def _dec_fn(data, domain: FinSet, codomain: FinSet) -> FinFn:
    return FinFn(domain, codomain, {_dec(k): _dec(v) for k, v in _rows(data, 2, "function")})


def finset_to_dict(s: FinSet) -> dict:
    return {"schema": SCHEMAS["finset"], "elements": list(s)}


def finset_from_dict(d: dict, cats: dict) -> FinSet:
    return FinSet(map(_dec, _array(d["elements"], "elements")))


def fincat_to_dict(cat: FinCat) -> dict:
    # composites in canonical order of (g, f), ranking each label once
    rank = {m: i for i, m in enumerate(sort_labels({m for pair in cat.comp for m in pair}))}
    return {
        "schema": SCHEMAS["fincat"],
        "objects": list(cat.objects),
        "hom": [[a, b, list(cat.hom[(a, b)])] for a in cat.objects for b in cat.objects if cat.hom[(a, b)]],
        "ids": [[a, cat.ids[a]] for a in cat.objects],
        "comp": [
            [g, f, cat.comp[(g, f)]] for g, f in sorted(cat.comp, key=lambda gf: (rank[gf[0]], rank[gf[1]]))
        ],
    }


def fincat_from_dict(d: dict, cats: dict) -> FinCat:
    objects = [_dec(a) for a in _array(d["objects"], "objects")]
    hom = {
        (_dec(a), _dec(b)): [_dec(m) for m in _array(ms, "hom list")] for a, b, ms in _rows(d["hom"], 3, "hom")
    }
    ids = {_dec(a): _dec(m) for a, m in _rows(d["ids"], 2, "ids")}
    comp = {(_dec(g), _dec(f)): _dec(h) for g, f, h in _rows(d["comp"], 3, "comp")}
    return FinCat(objects, hom, ids, comp)


def _category_from_dict(d: dict, cats: dict) -> FinCat:
    """Decode a category embedded in a larger payload, rejecting one that
    breaks a category law (the bare fincat schema loads unchecked, so that
    `validate` can list every violation).  `cats` maps the compact JSON of
    each one decoded so far in this payload to it, so both ends of an
    endo-profunctor are decoded and validated once.  Keyed by text, as `true`
    and `1` are equal in Python but not on the wire."""
    key = json.dumps(d, sort_keys=True)
    cat = cats.get(key)
    if cat is None:
        cat = fincat_from_dict(d, cats)
        require_lawful(validate_category(cat), "embedded category is invalid")
        cats[key] = cat
    return cat


def functor_to_dict(fun: Functor) -> dict:
    return {
        "schema": SCHEMAS["functor"],
        "source": fincat_to_dict(fun.source),
        "target": fincat_to_dict(fun.target),
        "obj_map": [[a, b] for a, b in sorted(fun.obj_map.items(), key=lambda kv: label_key(kv[0]))],
        "mor_map": [[m, n] for m, n in sorted(fun.mor_map.items(), key=lambda kv: label_key(kv[0]))],
    }


def functor_from_dict(d: dict, cats: dict) -> Functor:
    return Functor(
        _category_from_dict(d["source"], cats),
        _category_from_dict(d["target"], cats),
        {_dec(a): _dec(b) for a, b in _rows(d["obj_map"], 2, "obj_map")},
        {_dec(m): _dec(n) for m, n in _rows(d["mor_map"], 2, "mor_map")},
        check=True,
    )


def nattrans_to_dict(nt: NatTrans) -> dict:
    return {
        "schema": SCHEMAS["nattrans"],
        "source": functor_to_dict(nt.source),
        "target": functor_to_dict(nt.target),
        "components": [[a, m] for a, m in sorted(nt.components.items(), key=lambda kv: label_key(kv[0]))],
    }


def nattrans_from_dict(d: dict, cats: dict) -> NatTrans:
    return NatTrans(
        functor_from_dict(d["source"], cats),
        functor_from_dict(d["target"], cats),
        {_dec(a): _dec(m) for a, m in _rows(d["components"], 2, "components")},
        check=True,
    )


def presheaf_to_dict(p: Presheaf) -> dict:
    return {
        "schema": SCHEMAS["presheaf"],
        "base": fincat_to_dict(p.base),
        "values": [[a, list(p.values[a])] for a in p.base.objects],
        "restriction": [[m, _fn_rows(p.restriction[m])] for m in p.base.morphisms()],
    }


def presheaf_from_dict(d: dict, cats: dict) -> Presheaf:
    base = _category_from_dict(d["base"], cats)
    rows = _keyed(d["values"], 2, "values", base.objects._index.keys())
    values = {a: FinSet(map(_dec, _array(xs, "value list"))) for a, xs in rows.items()}
    rows = _keyed(d["restriction"], 2, "restriction", base._mor_endpoints.keys())
    restriction = {m: _dec_fn(table, values[base.tgt(m)], values[base.src(m)]) for m, table in rows.items()}
    return Presheaf(base, values, restriction, check=True)


def pshmap_to_dict(phi: PshMap) -> dict:
    return {
        "schema": SCHEMAS["pshmap"],
        "source": presheaf_to_dict(phi.source),
        "target": presheaf_to_dict(phi.target),
        "components": [[a, _fn_rows(phi.components[a])] for a in phi.source.base.objects],
    }


def pshmap_from_dict(d: dict, cats: dict) -> PshMap:
    source = presheaf_from_dict(d["source"], cats)
    target = presheaf_from_dict(d["target"], cats)
    rows = _keyed(d["components"], 2, "components", source.base.objects._index.keys())
    comps = {a: _dec_fn(table, source.values[a], target.values[a]) for a, table in rows.items()}
    return PshMap(source, target, comps, check=True)


def profunctor_to_dict(p: Profunctor) -> dict:
    return {
        "schema": SCHEMAS["profunctor"],
        "source": fincat_to_dict(p.source),
        "target": fincat_to_dict(p.target),
        "values": [
            [y, x, list(p.values[(y, x)])] for y in p.target.objects for x in p.source.objects if p.values[(y, x)]
        ],
        "left_act": [
            [g, x, _fn_rows(p.left_act[(g, x)])]
            for g in p.target.morphisms() for x in p.source.objects if p.left_act[(g, x)].domain
        ],
        "right_act": [
            [y, f, _fn_rows(p.right_act[(y, f)])]
            for y in p.target.objects for f in p.source.morphisms() if p.right_act[(y, f)].domain
        ],
    }


def _tables_from_dict(d: dict, source: FinCat, target: FinCat, table: str = "the table") -> tuple[dict, dict, dict]:
    """The value and action tables of a sparse profunctor payload: absent
    values are one shared empty set, and absent actions out of it one shared
    empty map per codomain; an absent action out of a nonempty value fails,
    and so does a row keyed outside its table (`table`) or twice."""
    empty, from_empty = FinSet(), {}  # from_empty: the id of a codomain -> the empty map into it
    values = {(y, x): empty for y in target.objects for x in source.objects}
    for key, vs in _keyed(d["values"], 3, "values", values.keys(), table).items():
        values[key] = FinSet(map(_dec, _array(vs, "value list")))

    def action(declared, key, domain, codomain):
        if key in declared or domain is not empty:
            return _dec_fn(declared.get(key, ()), domain, codomain)
        if id(codomain) not in from_empty:
            from_empty[id(codomain)] = FinFn(empty, codomain, {})
        return from_empty[id(codomain)]

    left, right = _keyed(d["left_act"], 3, "left_act"), _keyed(d["right_act"], 3, "right_act")
    left_act = {
        (g, x): action(left, (g, x), values[(target.tgt(g), x)], values[(target.src(g), x)])
        for g in target.morphisms()
        for x in source.objects
    }
    right_act = {
        (y, f): action(right, (y, f), values[(y, source.src(f))], values[(y, source.tgt(f))])
        for y in target.objects
        for f in source.morphisms()
    }
    for name, declared, acts in (("left_act", left, left_act), ("right_act", right, right_act)):
        if not declared.keys() <= acts.keys():  # name the first row keyed outside the table
            _keyed(d[name], 3, name, acts.keys(), table)
    return values, left_act, right_act


def profunctor_from_dict(d: dict, cats: dict) -> Profunctor:
    source = _category_from_dict(d["source"], cats)
    target = _category_from_dict(d["target"], cats)
    return Profunctor(source, target, *_tables_from_dict(d, source, target), check=True)


def quotient_to_dict(q: QuotientSet) -> dict:
    # classes are listed with their representative first
    return {"schema": SCHEMAS["quotient"], "classes": list(map(list, q.classes))}


def quotient_from_dict(d: dict, cats: dict) -> QuotientSet:
    """The union of the classes modulo the classes.  Rejects an empty class,
    a label listed twice, and a class that does not list its minimum first."""
    classes = [[_dec(x) for x in _array(cls, "class")] for cls in _array(d["classes"], "classes")]
    members = [x for cls in classes for x in cls]
    if not all(classes):
        raise ValueError("quotient class is empty")
    if len(set(members)) != len(members):
        raise ValueError("quotient classes overlap")
    carrier = FinSet(members)
    q = quotient(carrier, label_pairs(carrier, ((cls[0], x) for cls in classes for x in cls[1:])))
    for cls in classes:
        if q.representative(cls[0]) != cls[0]:
            raise ValueError(f"quotient class {cls!r} does not list its minimum first")
    return q


def monoidal_to_dict(mon: StrictMonoidalFinCat) -> dict:
    out = {
        "schema": SCHEMAS["monoidal"],
        "base": fincat_to_dict(mon.base),
        "unit": mon.unit,
        "tensor_obj": [[a, b, mon.ob(a, b)] for a in mon.base.objects for b in mon.base.objects],
        "tensor_mor": [[m, n, mon.mor(m, n)] for m in mon.base.morphisms() for n in mon.base.morphisms()],
    }
    if mon.symmetry:
        out["symmetry"] = [[a, b, mon.symmetry[(a, b)]] for a in mon.base.objects for b in mon.base.objects]
    return out


@memo_scope()  # the tensor's source and the law scan's product are one object
def monoidal_from_dict(d: dict, cats: dict) -> StrictMonoidalFinCat:
    base = _category_from_dict(d["base"], cats)
    prod = product(base, base)
    obj_map = {(_dec(a), _dec(b)): _dec(c) for a, b, c in _rows(d["tensor_obj"], 3, "tensor_obj")}
    mor_map = {(_dec(m), _dec(n)): _dec(k) for m, n, k in _rows(d["tensor_mor"], 3, "tensor_mor")}
    tensor = Functor(prod, base, obj_map, mor_map, check=False)  # monoidal_violations checks it
    symmetry = None
    if "symmetry" in d:
        symmetry = {(_dec(a), _dec(b)): _dec(s) for a, b, s in _rows(d["symmetry"], 3, "symmetry")}
    return StrictMonoidalFinCat(base, tensor, _dec(d["unit"]), symmetry)


def _by_key_pair(table: dict) -> list:
    """The items of a table keyed by label pairs, in canonical key order."""
    return sorted(table.items(), key=lambda kv: (label_key(kv[0][0]), label_key(kv[0][1])))


def symseq_to_dict(seq: SymSeq) -> dict:
    """Sparse: only nonempty value sets and actions between nonempty sets."""
    return {
        "schema": SCHEMAS["symseq"],
        "colours": fincat_to_dict(seq.source_sym.base),
        "max_arity": seq.source_sym.max_len,
        "target": fincat_to_dict(seq.source),
        "values": [[xs, y, list(val)] for (xs, y), val in _by_key_pair(seq.values) if len(val) > 0],
        "left_act": [[m, y, _fn_rows(fn)] for (m, y), fn in _by_key_pair(seq.left_act) if len(fn.domain) > 0],
        "right_act": [[xs, g, _fn_rows(fn)] for (xs, g), fn in _by_key_pair(seq.right_act) if len(fn.domain) > 0],
    }


def symseq_from_dict(d: dict, cats: dict) -> SymSeq:
    colours = _category_from_dict(d["colours"], cats)
    outputs = _category_from_dict(d["target"], cats)
    if type(d["max_arity"]) is not int or d["max_arity"] < 0:  # not isinstance: JSON true loads as True, an int
        raise ParseError(f"max_arity {d['max_arity']!r} is not a nonnegative integer")
    sym = free_sym_cat(colours, d["max_arity"])
    bounded = f"the table at arity bound {sym.max_len}"
    return SymSeq(sym, outputs, *_tables_from_dict(d, outputs, sym.cat, bounded), check=True)


_TO = {
    FinSet: finset_to_dict,
    FinCat: fincat_to_dict,
    Functor: functor_to_dict,
    NatTrans: nattrans_to_dict,
    Presheaf: presheaf_to_dict,
    PshMap: pshmap_to_dict,
    Profunctor: profunctor_to_dict,
    QuotientSet: quotient_to_dict,
    StrictMonoidalFinCat: monoidal_to_dict,
    SymSeq: symseq_to_dict,
}

_FROM = {
    SCHEMAS["finset"]: finset_from_dict,
    SCHEMAS["fincat"]: fincat_from_dict,
    SCHEMAS["functor"]: functor_from_dict,
    SCHEMAS["nattrans"]: nattrans_from_dict,
    SCHEMAS["presheaf"]: presheaf_from_dict,
    SCHEMAS["pshmap"]: pshmap_from_dict,
    SCHEMAS["profunctor"]: profunctor_from_dict,
    SCHEMAS["quotient"]: quotient_from_dict,
    SCHEMAS["monoidal"]: monoidal_from_dict,
    SCHEMAS["symseq"]: symseq_from_dict,
}


def _raw(obj: Any) -> dict:
    """The payload of `obj`, with labels as tuples."""
    for klass in type(obj).__mro__:
        if klass in _TO:
            return _TO[klass](obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_dict(obj: Any) -> dict:
    """The payload of `obj` as JSON data: labels as lists."""
    return json.loads(json.dumps(_raw(obj)))


def _indented(data, indent: int) -> str:
    """`json.dumps(data, indent=indent, sort_keys=True)` without the stdlib's
    pure-Python encoder, which it uses whenever indent is not None.

    A tuple instance is printed once per depth.  The cache is keyed by the
    instance, not by equality: ("a", True) equals ("a", 1) but prints
    ["a", true].  `data` keeps every instance alive, so no id is reused
    within the call.  Dict keys are strings, as in every payload.
    """
    breaks, seen = ["\n"], [{}]  # per depth: newline and indentation; printed tuples by id

    def emit(value, depth: int) -> str:
        kind = type(value)
        if kind is str:
            return encode_basestring_ascii(value)
        if kind is tuple:
            text = seen[depth].get(id(value))
            if text is None:
                text = seen[depth][id(value)] = block(value, depth)
            return text
        if kind is list or kind is dict:
            return block(value, depth)
        return json.dumps(value)  # a scalar prints alike at every indent

    def block(items, depth: int) -> str:
        ends = "{}" if type(items) is dict else "[]"
        if not items:
            return ends
        if len(breaks) == depth + 1:
            breaks.append(breaks[-1] + " " * indent)
            seen.append({})
        inner = breaks[depth + 1]
        if ends == "{}":
            texts = [encode_basestring_ascii(k) + ": " + emit(v, depth + 1) for k, v in sorted(items.items())]
        else:
            texts = [encode_basestring_ascii(x) if type(x) is str else emit(x, depth + 1) for x in items]
        # one join builds the text once, where a chain of + would copy it three times
        return "".join((ends[0], inner, ("," + inner).join(texts), breaks[depth], ends[1]))

    return emit(data, 0)


def dumps(obj: Any, indent: int | None = None) -> str:
    raw = _raw(obj)
    if indent is None:
        return json.dumps(raw, sort_keys=True)
    return _indented(raw, indent)


def loads(text: str) -> Any:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return from_dict(data)


def from_dict(data: dict) -> Any:
    """Every reader takes the payload and `cats`, the embedded categories
    decoded so far (see `_category_from_dict`), which lives for one call."""
    if not isinstance(data, dict) or "schema" not in data:
        raise ParseError("missing schema field")
    schema = data["schema"]
    if type(schema) is not str or schema not in _FROM:
        raise ParseError(f"unknown schema {schema!r}")
    try:
        return _FROM[schema](data, {})
    except ParseError:
        raise
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"malformed {schema} payload: {exc}") from exc
