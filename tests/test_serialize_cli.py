import hashlib
import json

import pytest

from profcalc import colim, serialize, suites
from profcalc.cli import main
from profcalc.colim import coend, quotient
from profcalc.fincat import FinCat, FinFn, FinSet, NatTrans, identity_functor
from profcalc.presheaf import PshMap, psh_coproduct, psh_terminal, yoneda
from profcalc.prof import Profunctor, prof_identity
from profcalc.day import one_object_group_monoidal, monoidal_from_monoid
from profcalc.seeds import (
    all_functors, arrow_category, chain, discrete, fork, parallel_pair, sym3_category, terminal_category,
)
from profcalc.suites import SUITE_NAMES, SuiteConfig, run_suite
from profcalc.symmon import (
    associative_operad, check_operad, check_tau_compatibility, free_sym_cat, representable_seq, seq_coproduct,
    subst_compose, subst_identity, unit_operad,
)
from tests.test_suite_golden import SUITES as GOLDEN_SUITES


def _identity_nattrans(cat):
    fun = identity_functor(cat)
    return NatTrans(fun, fun, {a: cat.id_of(a) for a in cat.objects})


@pytest.mark.parametrize(
    "obj",
    [
        FinSet(["a", 1, ("x", 2)]),
        fork(),
        all_functors(arrow_category(), fork())[-1],
        _identity_nattrans(parallel_pair()),
        yoneda(arrow_category(), "1"),
        psh_coproduct(yoneda(arrow_category(), "1"), yoneda(arrow_category(), "0"))[1],
        prof_identity(parallel_pair()),
        coend(prof_identity(chain(2))),
        one_object_group_monoidal(2),
        subst_identity(free_sym_cat(discrete(2), 2)),
    ],
    ids=[
        "finset", "fincat", "functor", "nattrans", "presheaf", "pshmap",
        "profunctor", "quotient", "monoidal", "symseq",
    ],
)
def test_round_trip(obj):
    for indent in (None, 2):
        text = serialize.dumps(obj, indent=indent)
        back = serialize.loads(text)
        assert back == obj
        assert serialize.dumps(back, indent=indent) == text


# labels that stress the printer: non-ASCII, quotes, backslashes and control
# characters, empty and nested tuples, a negative int, and the object
# ("a", True) whose identity is the equal but differently printed ("a", 1).
# A fincat payload lists composites before identities, so ("a", 1) is
# printed first: a printer that reused the text of an equal tuple would
# write ["a", 1] for the object ("a", True).
BOOL_OBJ, TEXT_OBJ = ("a", True), 'é"\\\x01\u2603'
ODD_IDS = {BOOL_OBJ: ("a", 1), TEXT_OBJ: ((), (-3, ("n", ())))}
ODD_ARROW = '\t\n\\"x\u00ff'


def odd_category() -> FinCat:
    hom = {(a, a): [m] for a, m in ODD_IDS.items()}
    hom[(BOOL_OBJ, TEXT_OBJ)] = [ODD_ARROW]
    comp = {(m, m): m for m in ODD_IDS.values()}
    comp[(ODD_ARROW, ODD_IDS[BOOL_OBJ])] = ODD_ARROW
    comp[(ODD_IDS[TEXT_OBJ], ODD_ARROW)] = ODD_ARROW
    return FinCat(list(ODD_IDS), hom, ODD_IDS, comp)


def odd_payloads() -> dict:
    """One object of every schema, all built on the odd labels."""
    cat = odd_category()
    disc = FinCat(
        list(ODD_IDS), {(a, a): [m] for a, m in ODD_IDS.items()}, ODD_IDS, {(m, m): m for m in ODD_IDS.values()}
    )
    z2 = monoidal_from_monoid(disc, lambda a, b: BOOL_OBJ if a == b else TEXT_OBJ, BOOL_OBJ, commutative=True)
    y = yoneda(cat, TEXT_OBJ)
    return {
        "finset": FinSet([(), ((),), -3, 0, BOOL_OBJ, (("a", 1),), TEXT_OBJ, ODD_ARROW]),
        "fincat": cat,
        "functor": identity_functor(cat),
        "nattrans": _identity_nattrans(cat),
        "presheaf": y,
        "pshmap": psh_coproduct(y, y)[2],
        "profunctor": prof_identity(cat),
        "quotient": coend(prof_identity(cat)),
        "monoidal": z2,
        "symseq": subst_identity(free_sym_cat(disc, 2)),
    }


ODD = odd_payloads()


@pytest.mark.parametrize("indent", [None, 0, 2, 4])
@pytest.mark.parametrize("schema", sorted(serialize.SCHEMAS))
def test_dumps_is_byte_identical_to_the_stdlib(schema, indent):
    obj = ODD[schema]
    text = serialize.dumps(obj, indent=indent)
    assert text == json.dumps(serialize.to_dict(obj), indent=indent, sort_keys=True)
    assert json.loads(text)["schema"] == serialize.SCHEMAS[schema]
    assert serialize.dumps(serialize.loads(text), indent=indent) == text


def test_every_schema_has_a_writer_and_a_reader():
    writers = {f.__name__ for f in serialize._TO.values()}
    readers = {schema: f.__name__ for schema, f in serialize._FROM.items()}
    assert set(readers) == set(serialize.SCHEMAS.values())
    for name, schema in serialize.SCHEMAS.items():
        assert f"{name}_to_dict" in writers
        assert readers[schema] == f"{name}_from_dict"


@pytest.mark.parametrize(
    "classes, message",
    [
        ([["a"], []], "quotient class is empty"),
        ([["a", "b"], ["b", "c"]], "quotient classes overlap"),
        ([["a", "a"]], "quotient classes overlap"),
        ([["b", "a"]], "does not list its minimum first"),
    ],
)
def test_quotient_reader_rejects_malformed_classes(classes, message):
    text = json.dumps({"schema": serialize.SCHEMAS["quotient"], "classes": classes})
    with pytest.raises(ValueError, match=message):
        serialize.loads(text)


def test_loads_decodes_an_embedded_category_once(monkeypatch):
    calls = []
    check = serialize.validate_category

    def counted(cat):
        calls.append(cat)
        return check(cat)

    monkeypatch.setattr(serialize, "validate_category", counted)
    text = serialize.dumps(prof_identity(chain(3)))
    p = serialize.loads(text)
    assert p.source is p.target
    assert len(calls) == 1
    # nothing is kept between calls
    assert serialize.loads(text).source is not p.source
    assert len(calls) == 2
    serialize.loads(serialize.dumps(all_functors(arrow_category(), fork())[-1]))
    assert len(calls) == 4


def test_symseq_wire_bytes_are_pinned():
    # a symseq payload lists colour morphisms in label order (id_a, id_b, u, v),
    # where a profunctor payload follows morphisms() order (id_a, u, v, id_b)
    text = serialize.dumps(unit_operad(parallel_pair(), 2).seq, indent=2)
    digest = "00a3c9d7b84b37f9a9def48bdc2629cdee2946595d4a711858e8f590ba2d1043"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_parse_error_on_garbage():
    with pytest.raises(serialize.ParseError):
        serialize.loads("not json at all {")
    with pytest.raises(serialize.ParseError):
        serialize.loads(json.dumps({"no": "schema"}))
    with pytest.raises(serialize.ParseError):
        serialize.loads(json.dumps({"schema": "profcalc/unknown@9"}))


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(serialize.dumps(obj))
    return str(path)


def matrix_prof(mat, name="m"):
    d2 = discrete(2)
    values = {}
    for i, y in enumerate(["d0", "d1"]):
        for j, x in enumerate(["d0", "d1"]):
            values[(y, x)] = FinSet([f"{name}{i}{j}:{k}" for k in range(mat[i][j])])
    left = {
        (d2.id_of(y), x): FinFn.identity(values[(y, x)])
        for y in d2.objects
        for x in d2.objects
    }
    right = {
        (y, d2.id_of(x)): FinFn.identity(values[(y, x)])
        for y in d2.objects
        for x in d2.objects
    }
    return Profunctor(d2, d2, values, left, right)


def test_cmd_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, "cat.json", fork())
    assert main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_cmd_validate_broken_composition(tmp_path, capsys):
    cat = fork()
    data = serialize.to_dict(cat)
    for row in data["comp"]:
        if row[0] == "u" and row[1] == "i":
            row[2] = "id_y"  # lands in the wrong hom set
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "violation" in err


def test_embedded_category_is_validated_on_load():
    data = serialize.to_dict(psh_terminal(arrow_category()))
    for row in data["base"]["comp"]:
        if row[:2] == [["le", "0", "1"], ["le", "0", "0"]]:
            row[2] = ["le", "0", "0"]  # lands in the wrong hom set
    with pytest.raises(ValueError, match="lands outside hom set") as err:
        serialize.loads(json.dumps(data))
    assert not isinstance(err.value, serialize.ParseError)


def test_a_sparse_profunctor_payload_loads_shared_empty_tables():
    ident = prof_identity(chain(9))
    loaded = serialize.loads(serialize.dumps(ident))
    assert loaded == ident
    assert loaded.values == ident.values and loaded.left_act == ident.left_act and loaded.right_act == ident.right_act
    empty = [v for v in loaded.values.values() if not v]
    assert len(empty) == 45 and all(v is empty[0] for v in empty)
    by_codomain = {}
    for fn in [*loaded.left_act.values(), *loaded.right_act.values()]:
        if fn.domain is empty[0]:
            assert by_codomain.setdefault(id(fn.codomain), fn) is fn
    assert sum(1 for fn in [*loaded.left_act.values(), *loaded.right_act.values()] if not fn.domain) == 660


def test_an_absent_action_out_of_a_nonempty_value_is_refused():
    data = serialize.to_dict(prof_identity(chain(3)))
    data["left_act"] = data["left_act"][1:]  # its domain, a value of the identity, is nonempty
    with pytest.raises(ValueError, match="mapping must be total on the domain"):
        serialize.loads(json.dumps(data))


@pytest.mark.parametrize("side", ["source", "target"])
def test_profunctor_with_one_broken_category_is_rejected(side):
    data = serialize.to_dict(prof_identity(chain(3)))
    data[side]["comp"] = [
        row for row in data[side]["comp"] if row[:2] != [["le", "2", "2"], ["le", "2", "2"]]
    ]
    with pytest.raises(ValueError, match=r"missing composite \(\('le', '2', '2'\), \('le', '2', '2'\)\)"):
        serialize.loads(json.dumps(data))


def test_cmd_compose_rejects_category_missing_a_composite(tmp_path, capsys):
    data = serialize.to_dict(prof_identity(chain(3)))
    for side in ("source", "target"):
        data[side]["comp"] = [
            row for row in data[side]["comp"] if row[:2] != [["le", "2", "2"], ["le", "2", "2"]]
        ]
    path = tmp_path / "P.json"
    path.write_text(json.dumps(data))
    assert main(["compose", "--kind", "prof", str(path), str(path)]) == 1
    assert "missing composite (('le', '2', '2'), ('le', '2', '2'))" in capsys.readouterr().err


# the arguments of each file-reading subcommand, given one path for every input
_SUBCOMMAND_ARGS = {
    "validate": lambda path: [path],
    "compose": lambda path: ["--kind", "prof", path, path],
    "coend": lambda path: [path],
    "kan": lambda path: [path, path],
    "day": lambda path: [path, path, path],
    "subst": lambda path: [path, path],
}


@pytest.mark.parametrize("command", list(_SUBCOMMAND_ARGS))
def test_every_subcommand_exits_2_on_a_parse_error_and_1_on_an_invalid_payload(tmp_path, capsys, command):
    malformed = tmp_path / "bad.json"
    malformed.write_text("{")
    args = _SUBCOMMAND_ARGS[command]
    assert main([command, *args(str(malformed))]) == 2
    assert "parse error" in capsys.readouterr().err
    # parses, but its embedded category fails the law scan on load
    data = serialize.to_dict(psh_terminal(arrow_category()))
    for row in data["base"]["comp"]:
        if row[:2] == [["le", "0", "1"], ["le", "0", "0"]]:
            row[2] = ["le", "0", "0"]
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(data))
    assert main([command, *args(str(invalid))]) == 1
    assert "error: " in capsys.readouterr().err


def test_cmd_validate_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 2


def test_cmd_compose_prof_matrix(tmp_path, capsys):
    f = _write(tmp_path, "F.json", matrix_prof([[1, 2], [0, 1]], "f"))
    g = _write(tmp_path, "G.json", matrix_prof([[1, 1], [2, 0]], "g"))
    out = str(tmp_path / "GF.json")
    assert main(["compose", "--kind", "prof", g, f, "--out", out]) == 0
    gf = serialize.loads((tmp_path / "GF.json").read_text())
    mat = [[len(gf.values[(y, x)]) for x in ["d0", "d1"]] for y in ["d0", "d1"]]
    assert mat == [[1, 3], [2, 4]]


def test_cmd_compose_kleisli_matches(tmp_path):
    f = _write(tmp_path, "F.json", matrix_prof([[1, 2], [0, 1]], "f"))
    g = _write(tmp_path, "G.json", matrix_prof([[1, 1], [2, 0]], "g"))
    out = str(tmp_path / "GF.json")
    assert main(["compose", "--kind", "kleisli", g, f, "--out", out]) == 0
    gf = serialize.loads((tmp_path / "GF.json").read_text())
    mat = [[len(gf.values[(y, x)]) for x in ["d0", "d1"]] for y in ["d0", "d1"]]
    assert mat == [[1, 3], [2, 4]]


def test_cmd_compose_identity_witnesses(tmp_path, capsys):
    ident = prof_identity(arrow_category())
    p = _write(tmp_path, "I.json", ident)
    q = _write(tmp_path, "I2.json", ident)
    assert main(["compose", "--kind", "prof", p, q, "--show-witnesses"]) == 0
    captured = capsys.readouterr()
    assert "witnesses" in captured.err
    assert "~" in captured.err or "le" in captured.err


# sha256 of the `compose --show-witnesses` stderr: the classes of every coend
# of the composite, keyed like its values.  A kleisli composite has the same
# carriers and keys as the symmetric coend composite of the same profunctors.
WITNESS_DIGESTS = {
    "prof": "c87a5b3ef51ca60abb2d4e1eadb4ee8f839cde6ab2e671aa39b48b35bcf5fdbf",
    "kleisli": "c87a5b3ef51ca60abb2d4e1eadb4ee8f839cde6ab2e671aa39b48b35bcf5fdbf",
    "day": "bb08ae8b9737ae2a073b61f8da866a36517d19a783f43d830f824c40bf3aafa1",
    "subst": "36b7c130d90e56a3d81f99dbf00d3d977ca81af51bfce38f62240e7b55a4c7f0",
}


@pytest.mark.parametrize("kind", sorted(WITNESS_DIGESTS))
def test_cmd_compose_show_witnesses_every_kind(tmp_path, capsys, kind):
    if kind in ("prof", "kleisli"):
        ident = prof_identity(arrow_category())
        inputs = [_write(tmp_path, "I.json", ident), _write(tmp_path, "I2.json", ident)]
    elif kind == "day":
        y1 = _write(tmp_path, "y1.json", yoneda(discrete(2), "d1"))
        inputs = [_write(tmp_path, "mon.json", _z2_monoidal()), y1, y1]
    else:
        s = free_sym_cat(discrete(1), 2)
        inputs = [
            _write(tmp_path, "G.json", representable_seq(s, discrete(1), {"d0": ("d0", "d0")})),
            _write(tmp_path, "I.json", subst_identity(s)),
        ]
    assert main(["compose", "--kind", kind, *inputs, "--show-witnesses"]) == 0
    err = capsys.readouterr().err
    assert "witnesses at" in err
    assert hashlib.sha256(err.encode()).hexdigest() == WITNESS_DIGESTS[kind]


def test_cmd_compose_endpoint_mismatch(tmp_path, capsys):
    a = _write(tmp_path, "A.json", prof_identity(arrow_category()))
    b = _write(tmp_path, "B.json", prof_identity(fork()))
    assert main(["compose", "--kind", "prof", a, b]) == 1


@pytest.mark.parametrize("kind, count", [("prof", 1), ("prof", 3), ("kleisli", 1), ("subst", 3), ("day", 2)])
def test_cmd_compose_refuses_a_wrong_input_count(tmp_path, capsys, kind, count):
    path = _write(tmp_path, "I.json", prof_identity(arrow_category()))
    assert main(["compose", "--kind", kind, *[path] * count]) == 2
    takes = 3 if kind == "day" else 2
    assert f"--kind {kind} takes {takes} inputs, got {count}" in capsys.readouterr().err


def test_cmd_compose_prof_refuses_presheaves(tmp_path, capsys):
    p = _write(tmp_path, "p.json", yoneda(arrow_category(), "1"))
    assert main(["compose", "--kind", "prof", p, p]) == 1
    assert "needs Profunctor, Profunctor, got Presheaf, Presheaf" in capsys.readouterr().err


def test_cmd_compose_subst_refuses_plain_profunctors(tmp_path, capsys):
    i = _write(tmp_path, "I.json", prof_identity(discrete(1)))
    assert main(["compose", "--kind", "subst", i, i]) == 1
    assert "needs SymSeq, SymSeq, got Profunctor, Profunctor" in capsys.readouterr().err


def test_cmd_compose_day_refuses_a_profunctor_for_the_monoidal_category(tmp_path, capsys):
    i = _write(tmp_path, "I.json", prof_identity(discrete(2)))
    y1 = _write(tmp_path, "y1.json", yoneda(discrete(2), "d1"))
    assert main(["compose", "--kind", "day", i, y1, y1]) == 1
    assert "needs StrictMonoidalFinCat, Presheaf, Presheaf" in capsys.readouterr().err


def test_cmd_compose_prof_takes_a_symmetric_sequence(tmp_path, capsys):
    s = free_sym_cat(discrete(1), 2)
    seq = representable_seq(s, discrete(1), {"d0": ("d0", "d0")})
    g = _write(tmp_path, "G.json", seq)
    i = _write(tmp_path, "I.json", prof_identity(discrete(1)))
    out = str(tmp_path / "GI.json")
    assert main(["compose", "--kind", "prof", g, i, "--out", out]) == 0
    gi = serialize.loads((tmp_path / "GI.json").read_text())
    assert {key: len(v) for key, v in gi.values.items()} == {key: len(v) for key, v in seq.values.items()}


def test_cmd_coend(tmp_path, capsys):
    path = _write(tmp_path, "I.json", prof_identity(arrow_category()))
    assert main(["coend", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"].startswith("profcalc/quotient")


def test_cmd_validate_reads_coend_output(tmp_path, capsys):
    path = _write(tmp_path, "I3.json", prof_identity(chain(3)))
    out = str(tmp_path / "coend3.json")
    assert main(["coend", path, "--out", out]) == 0
    assert main(["validate", out]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert serialize.loads((tmp_path / "coend3.json").read_text()) == coend(prof_identity(chain(3)))


def test_cmd_coend_scans_the_bifunctor_laws_once(tmp_path, capsys, monkeypatch):
    import profcalc.colim as colim
    import profcalc.prof as prof

    calls = []
    scan = colim.bifunctor_violations

    def counted(p):
        calls.append(p)
        return scan(p)

    monkeypatch.setattr(colim, "bifunctor_violations", counted)
    monkeypatch.setattr(prof, "bifunctor_violations", counted)
    path = _write(tmp_path, "I3.json", prof_identity(chain(3)))
    assert main(["coend", path]) == 0
    assert len(calls) == 1
    assert len(json.loads(capsys.readouterr().out)["classes"]) == 4


def test_cmd_kan(tmp_path, capsys):
    prof = _write(tmp_path, "I.json", prof_identity(arrow_category()))
    psh = _write(tmp_path, "p.json", yoneda(arrow_category(), "1"))
    assert main(["kan", prof, psh]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"].startswith("profcalc/presheaf")


def _z2_monoidal():
    return monoidal_from_monoid(
        discrete(2), lambda a, b: f"d{(int(a[1:]) + int(b[1:])) % 2}", "d0", True
    )


def test_cmd_day(tmp_path):
    m = _write(tmp_path, "mon.json", _z2_monoidal())
    f1 = _write(tmp_path, "f1.json", yoneda(discrete(2), "d1"))
    f2 = _write(tmp_path, "f2.json", yoneda(discrete(2), "d1"))
    out = str(tmp_path / "conv.json")
    assert main(["day", m, f1, f2, "--out", out]) == 0
    conv = serialize.loads((tmp_path / "conv.json").read_text())
    assert len(conv.values["d0"]) == 1  # d1 + d1 = d0 in Z2
    assert len(conv.values["d1"]) == 0


def test_cmd_subst_and_bound_exceeded(tmp_path, capsys):
    s = free_sym_cat(discrete(1), 2)
    ident = subst_identity(s)
    g = _write(tmp_path, "G.json", representable_seq(s, discrete(1), {"d0": ("d0", "d0")}))
    i = _write(tmp_path, "I.json", ident)
    out = str(tmp_path / "GI.json")
    assert main(["subst", g, i, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    # output arity 3 of a nullary-free inner sequence needs 3 blocks, above the middle bound 2: exit 3
    inner = representable_seq(free_sym_cat(discrete(1), 3), discrete(1), {"d0": ("d0",)})
    f3 = _write(tmp_path, "F3.json", inner)
    assert main(["subst", g, f3]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "bound exceeded: output arity 3 needs block counts up to 3 but the middle arity bound is 2"
    )


def test_cmd_subst_with_nullary_values_warns_of_the_bounded_search(tmp_path, capsys):
    s = free_sym_cat(discrete(1), 2)
    g = _write(tmp_path, "G.json", representable_seq(s, discrete(1), {"d0": ("d0", "d0")}))
    nullary = seq_coproduct(*(representable_seq(s, discrete(1), {"d0": pick}) for pick in [(), ("d0",)]))
    n = _write(tmp_path, "N.json", nullary)
    warning = (
        "warning: the inner sequence has nullary values, so block counts were "
        "searched up to the middle arity bound 2 only\n"
    )
    for argv in (["subst", g, n], ["compose", "--kind", "subst", g, n]):
        assert main(argv + ["--out", str(tmp_path / "GN.json")]) == 0
        assert capsys.readouterr().err == warning
        assert main(["validate", str(tmp_path / "GN.json")]) == 0
        assert serialize.loads((tmp_path / "GN.json").read_text()) == subst_compose(
            serialize.loads((tmp_path / "G.json").read_text()), nullary
        )
        capsys.readouterr()


def test_cmd_suite_passes_and_fault_fails(capsys):
    assert main(["suite", "kleisli-coherence", "--seed", "11", "--instances", "1"]) == 0
    # a negative fault index is never reached, so it would run a clean suite: refused
    faulted = ["suite", "relpsm-axioms", "--seed", "2027", "--instances", "2", "--fault", "mu"]
    assert main(faulted + ["--fault-index", "-1"]) == 2
    assert "fault index" in capsys.readouterr().err
    # nor is an index without a fault kind
    assert main(faulted[:-2] + ["--fault-index", "-1"]) == 2
    assert "needs a fault kind" in capsys.readouterr().err
    # a negative instance count would check nothing and pass: refused
    assert main(["suite", "operad", "--instances", "-3"]) == 2
    assert "instance count must be non-negative, got -3" in capsys.readouterr().err
    assert (
        main(
            [
                "suite",
                "relpsm-axioms",
                "--seed",
                "11",
                "--instances",
                "1",
                "--fault",
                "mu",
            ]
        )
        == 1
    )


def test_cmd_subst_has_no_block_bound_option(tmp_path, capsys):
    # the block count is read off the inputs, so --m-bound is an unknown option
    s = free_sym_cat(discrete(1), 2)
    n = _write(tmp_path, "N.json", representable_seq(s, discrete(1), {"d0": ()}))
    for argv in (["subst", n, n], ["compose", "--kind", "subst", n, n]):
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--m-bound", "2"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --m-bound 2" in capsys.readouterr().err


def test_cmd_suite_refuses_bounds_below_what_it_builds(capsys):
    # the operad suite substitutes representables at the pick ("d0", "d0"), of arity 2
    for arity in ("1", "0"):
        assert main(["suite", "operad", "--max-arity", arity]) == 2
        assert f"the operad suite needs --max-arity at least 2, got {arity}" in capsys.readouterr().err
    for suite in SUITE_NAMES:
        assert main(["suite", suite, "--max-objects", "0"]) == 2
        assert "--max-objects must be at least 1, got 0" in capsys.readouterr().err


def test_cmd_suite_refuses_operad_bounds_it_would_not_honour(capsys):
    # the report records its config, so the suite refuses a value it would not use:
    # its instances stop at arity 3, and its unit operads are on the two-object parallel pair
    assert main(["suite", "operad", "--max-arity", "4"]) == 2
    assert "the operad suite needs --max-arity at most 3, got 4" in capsys.readouterr().err
    assert main(["suite", "operad", "--max-objects", "1"]) == 2
    assert "the operad suite needs --max-objects at least 2, got 1" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["suite", "operad", "--max-values", "3"])


def test_day_monoidal_draws_only_seeds_within_max_objects(capsys):
    args = ["suite", "day-monoidal", "--max-objects", "1", "--instances", "4", "--seed", "4", "--format", "json"]
    assert main(args) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["config"]["max_objects"] == 1
    assert [inst["sizes"] for inst in result["instances"]] == [[1]] * 4


def test_cmd_suite_zero_instances_warns(capsys):
    assert main(["suite", "operad", "--instances", "0"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err


def reversed_assemble(name, config, specs, run, assemble=suites._assemble):
    """`suites._assemble` with the instances run in reverse order and their
    reports put back in order."""
    out = assemble(name, config, specs[::-1], run)
    out["instances"].reverse()
    return out


def test_suite_json_is_independent_of_instance_order(monkeypatch):
    # each instance opens its own memo and fault scope, so running the
    # instances in reverse prints the same bytes: no instance reads state
    # another one left behind
    for suite, (seed, instances, _) in GOLDEN_SUITES.items():
        config = SuiteConfig(seed=seed, instances=instances)
        first = json.dumps(run_suite(suite, config), indent=2, sort_keys=True)
        with monkeypatch.context() as patch:
            patch.setattr(suites, "_assemble", reversed_assemble)
            assert json.dumps(run_suite(suite, config), indent=2, sort_keys=True) == first, suite


def test_faulted_suite_json_is_identical_on_rerun(capsys):
    # one fault serves every instance, counting components in construction order
    args = ["suite", "relpsm-axioms", "--seed", "4", "--instances", "3", "--format", "json",
            "--fault", "mu", "--fault-index", "0"]
    assert main(args) == 1
    first = capsys.readouterr().out
    assert main(args) == 1
    assert capsys.readouterr().out == first


def test_suite_runs_instances_in_order_only(capsys):
    with pytest.raises(ValueError, match="workers"):
        run_suite("operad", SuiteConfig(workers=2))
    with pytest.raises(SystemExit) as exit_:
        main(["suite", "operad", "--workers", "2"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_no_engine_path_encodes_a_label_into_a_laid_out_carrier(tmp_path, monkeypatch, capsys):
    """A laid-out carrier builds its label index whole, by decoding every
    member, on the first lookup; that is cheap only while no engine path
    looks a label up.  Under an index that refuses, the suites, the operad
    check, the tau comparison and the coend, Day and substitution commands
    all still pass."""
    looked_up = []

    def refuse(carrier):
        looked_up.append(carrier)
        raise AssertionError(f"label lookup in {carrier!r}")

    monkeypatch.setattr(colim.RunCarrier, "_index", property(refuse))
    for suite, (seed, instances, _) in GOLDEN_SUITES.items():
        assert run_suite(suite, SuiteConfig(seed=seed, instances=instances))["passed"], suite
    assert check_operad(associative_operad(4)).ok
    sym = free_sym_cat(discrete(1), 3)
    two, one = (representable_seq(sym, discrete(1), {"d0": ys}) for ys in [("d0", "d0"), ("d0",)])
    assert check_tau_compatibility(two, seq_coproduct(two, one)).ok  # an operad-suite pair
    ident = _write(tmp_path, "identS3.json", prof_identity(sym3_category()))
    mon = one_object_group_monoidal(4)
    y = yoneda(mon.base, mon.unit)
    m, yy = _write(tmp_path, "mon4.json", mon), _write(tmp_path, "yy4.json", psh_coproduct(y, y)[0])
    ass = _write(tmp_path, "ass3.json", associative_operad(3).seq)
    for argv in (["coend", ident], ["day", m, yy, yy], ["subst", ass, ass, "--show-witnesses"]):
        assert main(argv) == 0, argv
    assert "witnesses at" in capsys.readouterr().err
    assert looked_up == []


def _comp_row_cut(d):
    d["comp"][0] = d["comp"][0][:2]


def _function_row(d, cut):
    row = d["restriction"][0][1][0]
    d["restriction"][0][1][0] = row[:1] if cut else row + [row[1]]


def _two_in_one_class():
    return quotient(FinSet(["a", "b"]), [(0, 1)])


# each malformed payload once reached the CLI as a traceback or as exit 1, the code of a failed check
_MALFORMED = {
    "list-valued schema": (lambda: chain(2), lambda d: d.update(schema=[d["schema"]]), "unknown schema"),
    "comp row of two fields": (lambda: chain(2), _comp_row_cut, "comp row .* has 2 fields, not 3"),
    "function row of one field": (
        lambda: yoneda(chain(2), "1"), lambda d: _function_row(d, True), "function row .* has 1 fields, not 2"
    ),
    "function row of three fields": (
        lambda: yoneda(chain(2), "1"), lambda d: _function_row(d, False), "function row .* has 3 fields, not 2"
    ),
    # a string as long as a row once loaded as one, and this presheaf validated with exit 0
    "string rows": (
        lambda: yoneda(terminal_category(), "*"),
        lambda d: d.update(values=["*a"], restriction=[["id*", ["aa"]]]),
        "values row '\\*a' is not an array",
    ),
    # an element list given as a JSON string once loaded as its characters; this presheaf validated
    # with exit 0, and the category's objects "012" and the class "ab" loaded as the payloads they spell
    "string element list": (lambda: FinSet(["a", "b"]), lambda d: d.update(elements="ab"), "elements 'ab' is not"),
    "string objects": (lambda: chain(2), lambda d: d.update(objects="012"), "objects '012' is not an array"),
    "string hom list": (
        terminal_category, lambda d: d["hom"][0].__setitem__(2, "id*"), "hom list 'id\\*' is not an array"
    ),
    "string presheaf value list": (
        lambda: yoneda(terminal_category(), "*"),
        lambda d: d.update(values=[["*", "a"]], restriction=[["id*", [["a", "a"]]]]),
        "value list 'a' is not an array",
    ),
    "string profunctor value list": (
        lambda: prof_identity(terminal_category()),
        lambda d: d["values"][0].__setitem__(2, "id*"),
        "value list 'id\\*' is not an array",
    ),
    "string classes": (_two_in_one_class, lambda d: d.update(classes="ab"), "classes 'ab' is not an array"),
    "string class": (_two_in_one_class, lambda d: d.update(classes=["ab"]), "class 'ab' is not an array"),
    # a negative bound once exited 1; the others once failed with messages that did not name the field
    **{
        f"max_arity {json.dumps(bad)}": (
            lambda: associative_operad(2).seq, lambda d, bad=bad: d.update(max_arity=bad), "max_arity"
        )
        for bad in (-1, True, 2.5, "3")
    },
    # a row whose key is not in its table, or repeats, once loaded and validated with exit 0 (the
    # first three and the repeated component) or failed naming the bare key (the other three)
    "unknown left_act morphism": (
        lambda: prof_identity(chain(1)), lambda d: d["left_act"].append(["nosuch", "0", []]),
        "left_act row key \\('nosuch', '0'\\) is not a key of the table",
    ),
    "unknown presheaf object": (
        lambda: yoneda(chain(1), "1"), lambda d: d["values"].append(["9", []]),
        "values row key '9' is not a key of the table",
    ),
    "repeated values row": (
        lambda: prof_identity(chain(1)), lambda d: d["values"].append(d["values"][0]),
        "values row key \\('0', '0'\\) comes twice",
    ),
    "profunctor value at an unknown object": (
        lambda: prof_identity(chain(1)), lambda d: d["values"][0].__setitem__(0, "7"),
        "values row key \\('7', '0'\\) is not a key of the table",
    ),
    "unknown restriction morphism": (
        lambda: yoneda(chain(1), "1"), lambda d: d["restriction"].append(["nosuch", []]),
        "restriction row key 'nosuch' is not a key of the table",
    ),
    "repeated presheaf map component": (
        lambda: PshMap.identity(yoneda(chain(1), "1")), lambda d: d["components"].append(d["components"][0]),
        "components row key '0' comes twice",
    ),
    "symseq tuple above the arity bound": (
        lambda: associative_operad(2).seq, lambda d: d.update(max_arity=1),
        "values row key \\(\\('d0', 'd0'\\), 'd0'\\) is not a key of the table at arity bound 1",
    ),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_a_malformed_row_or_schema_is_a_parse_error_and_exits_2(tmp_path, capsys, case):
    build, damage, message = _MALFORMED[case]
    data = serialize.to_dict(build())
    damage(data)
    with pytest.raises(serialize.ParseError, match=message):
        serialize.from_dict(data)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err and "unpack" not in err
