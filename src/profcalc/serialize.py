"""JSON-compatible wire formats with embedded schema versions.

Labels are ints, strings, or nested tuples; tuples travel as JSON arrays
and are rebuilt on load (lists are never labels).  Hom/value tables are
emitted in canonical order, so serialization is deterministic.
"""

from __future__ import annotations

import json
from typing import Any

from .day import StrictMonoidalFinCat
from .colim import QuotientSet
from .fincat import (
    FinCat,
    FinFn,
    FinSet,
    Functor,
    Label,
    NatTrans,
    label_key,
    product,
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


def _enc(label: Label):
    if isinstance(label, tuple):
        return [_enc(x) for x in label]
    return label


def _dec(data) -> Label:
    if isinstance(data, list):
        return tuple(_dec(x) for x in data)
    return data


def _enc_fn(fn: FinFn) -> list:
    return [[_enc(k), _enc(v)] for k, v in fn.mapping]


def _dec_fn(data, domain: FinSet, codomain: FinSet) -> FinFn:
    return FinFn(domain, codomain, {_dec(k): _dec(v) for k, v in data})


def finset_to_dict(s: FinSet) -> dict:
    return {"schema": SCHEMAS["finset"], "elements": [_enc(x) for x in s]}


def finset_from_dict(d: dict) -> FinSet:
    return FinSet(_dec(x) for x in d["elements"])


def fincat_to_dict(cat: FinCat) -> dict:
    return {
        "schema": SCHEMAS["fincat"],
        "objects": [_enc(a) for a in cat.objects],
        "hom": [
            [_enc(a), _enc(b), [_enc(m) for m in cat.hom[(a, b)]]]
            for a in cat.objects
            for b in cat.objects
            if len(cat.hom[(a, b)]) > 0
        ],
        "ids": [[_enc(a), _enc(cat.ids[a])] for a in cat.objects],
        "comp": sorted(
            ([_enc(g), _enc(f), _enc(h)] for (g, f), h in cat.comp.items()),
            key=lambda row: (label_key(_dec(row[0])), label_key(_dec(row[1]))),
        ),
    }


def fincat_from_dict(d: dict) -> FinCat:
    objects = [_dec(a) for a in d["objects"]]
    hom = {}
    for a, b, ms in d["hom"]:
        hom[(_dec(a), _dec(b))] = [_dec(m) for m in ms]
    ids = {_dec(a): _dec(m) for a, m in d["ids"]}
    comp = {(_dec(g), _dec(f)): _dec(h) for g, f, h in d["comp"]}
    return FinCat(objects, hom, ids, comp)


def _category_from_dict(d: dict) -> FinCat:
    """Decode a category embedded in a larger payload, rejecting one that
    breaks a category law (the bare fincat schema loads unchecked, so that
    `validate` can list every violation)."""
    cat = fincat_from_dict(d)
    report = validate_category(cat)
    if not report.ok:
        raise ValueError(f"embedded category is invalid: {report.violations[0]}")
    return cat


def functor_to_dict(fun: Functor) -> dict:
    return {
        "schema": SCHEMAS["functor"],
        "source": fincat_to_dict(fun.source),
        "target": fincat_to_dict(fun.target),
        "obj_map": [[_enc(a), _enc(b)] for a, b in sorted(fun.obj_map.items(), key=lambda kv: label_key(kv[0]))],
        "mor_map": [[_enc(m), _enc(n)] for m, n in sorted(fun.mor_map.items(), key=lambda kv: label_key(kv[0]))],
    }


def functor_from_dict(d: dict) -> Functor:
    return Functor(
        _category_from_dict(d["source"]),
        _category_from_dict(d["target"]),
        {_dec(a): _dec(b) for a, b in d["obj_map"]},
        {_dec(m): _dec(n) for m, n in d["mor_map"]},
        check=True,
    )


def nattrans_to_dict(nt: NatTrans) -> dict:
    return {
        "schema": SCHEMAS["nattrans"],
        "source": functor_to_dict(nt.source),
        "target": functor_to_dict(nt.target),
        "components": [
            [_enc(a), _enc(m)]
            for a, m in sorted(nt.components.items(), key=lambda kv: label_key(kv[0]))
        ],
    }


def nattrans_from_dict(d: dict) -> NatTrans:
    return NatTrans(
        functor_from_dict(d["source"]),
        functor_from_dict(d["target"]),
        {_dec(a): _dec(m) for a, m in d["components"]},
        check=True,
    )


def presheaf_to_dict(p: Presheaf) -> dict:
    return {
        "schema": SCHEMAS["presheaf"],
        "base": fincat_to_dict(p.base),
        "values": [
            [_enc(a), [_enc(x) for x in p.values[a]]] for a in p.base.objects
        ],
        "restriction": [
            [_enc(m), _enc_fn(p.restriction[m])] for m in p.base.morphisms()
        ],
    }


def presheaf_from_dict(d: dict) -> Presheaf:
    base = _category_from_dict(d["base"])
    values = {_dec(a): FinSet(_dec(x) for x in xs) for a, xs in d["values"]}
    restriction = {}
    for m, table in d["restriction"]:
        m = _dec(m)
        restriction[m] = _dec_fn(table, values[base.tgt(m)], values[base.src(m)])
    return Presheaf(base, values, restriction, check=True)


def pshmap_to_dict(phi: PshMap) -> dict:
    return {
        "schema": SCHEMAS["pshmap"],
        "source": presheaf_to_dict(phi.source),
        "target": presheaf_to_dict(phi.target),
        "components": [
            [_enc(a), _enc_fn(phi.components[a])] for a in phi.source.base.objects
        ],
    }


def pshmap_from_dict(d: dict) -> PshMap:
    source = presheaf_from_dict(d["source"])
    target = presheaf_from_dict(d["target"])
    comps = {}
    for a, table in d["components"]:
        a = _dec(a)
        comps[a] = _dec_fn(table, source.values[a], target.values[a])
    return PshMap(source, target, comps, check=True)


def profunctor_to_dict(p: Profunctor) -> dict:
    return {
        "schema": SCHEMAS["profunctor"],
        "source": fincat_to_dict(p.source),
        "target": fincat_to_dict(p.target),
        "values": [
            [_enc(y), _enc(x), [_enc(v) for v in p.values[(y, x)]]]
            for y in p.target.objects
            for x in p.source.objects
            if len(p.values[(y, x)]) > 0
        ],
        "left_act": [
            [_enc(g), _enc(x), _enc_fn(p.left_act[(g, x)])]
            for g in p.target.morphisms()
            for x in p.source.objects
            if len(p.left_act[(g, x)].mapping) > 0
        ],
        "right_act": [
            [_enc(y), _enc(f), _enc_fn(p.right_act[(y, f)])]
            for y in p.target.objects
            for f in p.source.morphisms()
            if len(p.right_act[(y, f)].mapping) > 0
        ],
    }


def _tables_from_dict(d: dict, source: FinCat, target: FinCat) -> tuple[dict, dict, dict]:
    """The value and action tables of a sparse profunctor payload: absent
    values are empty, and so are absent actions."""
    values = {(y, x): FinSet() for y in target.objects for x in source.objects}
    for y, x, vs in d["values"]:
        values[(_dec(y), _dec(x))] = FinSet(_dec(v) for v in vs)
    declared_left = {(_dec(g), _dec(x)): table for g, x, table in d["left_act"]}
    left_act = {
        (g, x): _dec_fn(
            declared_left.get((g, x), ()), values[(target.tgt(g), x)], values[(target.src(g), x)]
        )
        for g in target.morphisms()
        for x in source.objects
    }
    declared_right = {(_dec(y), _dec(f)): table for y, f, table in d["right_act"]}
    right_act = {
        (y, f): _dec_fn(
            declared_right.get((y, f), ()), values[(y, source.src(f))], values[(y, source.tgt(f))]
        )
        for y in target.objects
        for f in source.morphisms()
    }
    return values, left_act, right_act


def profunctor_from_dict(d: dict) -> Profunctor:
    source = _category_from_dict(d["source"])
    target = _category_from_dict(d["target"])
    return Profunctor(source, target, *_tables_from_dict(d, source, target), check=True)


def quotient_to_dict(q: QuotientSet) -> dict:
    # classes are listed with their representative first
    return {
        "schema": SCHEMAS["quotient"],
        "classes": [[_enc(x) for x in cls] for cls in q.classes],
    }


def monoidal_to_dict(mon: StrictMonoidalFinCat) -> dict:
    out = {
        "schema": SCHEMAS["monoidal"],
        "base": fincat_to_dict(mon.base),
        "unit": _enc(mon.unit),
        "tensor_obj": [
            [_enc(a), _enc(b), _enc(mon.ob(a, b))]
            for a in mon.base.objects
            for b in mon.base.objects
        ],
        "tensor_mor": [
            [_enc(m), _enc(n), _enc(mon.mor(m, n))]
            for m in mon.base.morphisms()
            for n in mon.base.morphisms()
        ],
    }
    if mon.symmetry is not None:
        out["symmetry"] = [
            [_enc(a), _enc(b), _enc(mon.symmetry[(a, b)])]
            for a in mon.base.objects
            for b in mon.base.objects
        ]
    return out


def monoidal_from_dict(d: dict) -> StrictMonoidalFinCat:
    base = _category_from_dict(d["base"])
    prod = product(base, base)
    obj_map = {(_dec(a), _dec(b)): _dec(c) for a, b, c in d["tensor_obj"]}
    mor_map = {(_dec(m), _dec(n)): _dec(k) for m, n, k in d["tensor_mor"]}
    tensor = Functor(prod, base, obj_map, mor_map, check=True)
    symmetry = None
    if "symmetry" in d:
        symmetry = {(_dec(a), _dec(b)): _dec(s) for a, b, s in d["symmetry"]}
    return StrictMonoidalFinCat(base, tensor, _dec(d["unit"]), symmetry)


def symseq_to_dict(seq: SymSeq) -> dict:
    """Sparse: only nonempty value sets and actions between nonempty sets."""
    return {
        "schema": SCHEMAS["symseq"],
        "colours": fincat_to_dict(seq.source_sym.base),
        "max_arity": seq.source_sym.max_len,
        "target": fincat_to_dict(seq.source),
        "values": [
            [_enc(xs), _enc(y), [_enc(v) for v in val]]
            for (xs, y), val in sorted(
                seq.values.items(), key=lambda kv: (label_key(kv[0][0]), label_key(kv[0][1]))
            )
            if len(val) > 0
        ],
        "left_act": [
            [_enc(m), _enc(y), _enc_fn(fn)]
            for (m, y), fn in sorted(
                seq.left_act.items(), key=lambda kv: (label_key(kv[0][0]), label_key(kv[0][1]))
            )
            if len(fn.mapping) > 0
        ],
        "right_act": [
            [_enc(xs), _enc(g), _enc_fn(fn)]
            for (xs, g), fn in sorted(
                seq.right_act.items(), key=lambda kv: (label_key(kv[0][0]), label_key(kv[0][1]))
            )
            if len(fn.mapping) > 0
        ],
    }


def symseq_from_dict(d: dict) -> SymSeq:
    colours = _category_from_dict(d["colours"])
    outputs = _category_from_dict(d["target"])
    sym = free_sym_cat(colours, d["max_arity"])
    return SymSeq(sym, outputs, *_tables_from_dict(d, outputs, sym.cat), check=True)


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
    SCHEMAS["monoidal"]: monoidal_from_dict,
    SCHEMAS["symseq"]: symseq_from_dict,
}


def to_dict(obj: Any) -> dict:
    for klass in type(obj).__mro__:
        if klass in _TO:
            return _TO[klass](obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any, indent: int | None = None) -> str:
    return json.dumps(to_dict(obj), indent=indent, sort_keys=True)


def loads(text: str) -> Any:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return from_dict(data)


def from_dict(data: dict) -> Any:
    if not isinstance(data, dict) or "schema" not in data:
        raise ParseError("missing schema field")
    schema = data["schema"]
    if schema not in _FROM:
        raise ParseError(f"unknown schema {schema!r}")
    try:
        return _FROM[schema](data)
    except ParseError:
        raise
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"malformed {schema} payload: {exc}") from exc
