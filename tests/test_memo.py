"""The call-tree memo: `fincat.memo_scope` and the `memoised` builders."""

import ast
import gc
import pathlib
import sys
import weakref

import pytest

import profcalc
from profcalc.day import day_bicategory, day_convolve
from profcalc.fincat import memo_scope
from profcalc.presheaf import (
    functor_into_presheaves,
    kan_extend,
    psh_coproduct,
    pvf_coproduct,
    yoneda,
    yoneda_embedding,
)
from profcalc.prof import KLEISLI, kleisli_compose
from profcalc.report import check_pentagon, check_triangle
from profcalc.seeds import all_functors, arrow_category, discrete, fork, parallel_pair
from profcalc.suites import SuiteConfig, _monoidal_seeds, run_suite
from profcalc.symmon import (
    SUBST,
    associative_operad,
    check_operad,
    free_sym_cat,
    representable_seq,
    seq_coproduct,
    subst_compose,
    subst_identity,
)

MEMOISED = (
    kan_extend, kleisli_compose, yoneda, yoneda_embedding, day_convolve, subst_compose, subst_identity,
)


def _kan_args():
    f = functor_into_presheaves(all_functors(fork(), parallel_pair())[2])
    p, _, _ = psh_coproduct(yoneda(fork(), "x"), yoneda(fork(), "e"))
    return f, p


def test_inside_a_scope_kan_extend_computes_once():
    f, p = _kan_args()
    with memo_scope():
        first = kan_extend(f, p)
        assert kan_extend(f, p) is first


def test_outside_a_scope_every_call_computes():
    f, p = _kan_args()
    first, second = kan_extend(f, p), kan_extend(f, p)
    assert first is not second and first == second


def test_nested_scopes_share_one_memo():
    f, p = _kan_args()
    with memo_scope():
        outer = kan_extend(f, p)
        with memo_scope():
            inner = kan_extend(f, p)
        assert inner is outer
        assert kan_extend(f, p) is outer


def test_a_keyword_argument_is_refused_with_the_function_name():
    # the memo keys a call by position, so a keyword would give it a second key
    sym_seq = associative_operad(2).seq
    message = "^subst_compose takes its arguments by position only, got f$"
    with pytest.raises(TypeError, match=message):
        subst_compose(sym_seq, f=sym_seq)
    with memo_scope():
        by_position = subst_compose(sym_seq, sym_seq)
        with pytest.raises(TypeError, match=message):
            subst_compose(sym_seq, f=sym_seq)
        assert subst_compose(sym_seq, sym_seq) is by_position


def test_no_memoised_builder_has_a_default_or_a_keyword_only_parameter():
    # either would let one call be made with different argument lists
    found = []
    for path in sorted(pathlib.Path(profcalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Name) and d.id == "memoised" for d in node.decorator_list
            ):
                found.append(node.name)
                assert not (node.args.defaults or node.args.kwonlyargs or node.args.vararg), node.name
    assert set(found) >= {fn.__name__ for fn in MEMOISED}


def test_nothing_is_kept_after_the_scope_closes():
    f, p = _kan_args()
    with memo_scope():
        ref = weakref.ref(kan_extend(f, p))
        gc.collect()
        assert ref() is not None
    gc.collect()
    assert ref() is None


def _record_computations(monkeypatch) -> list:
    """Rebind every memoised builder, in every profcalc module that binds it,
    to one that records (name, arguments, result) and keeps them alive."""
    calls = []
    modules = [m for name, m in sys.modules.items() if name.startswith("profcalc.")]
    for original in MEMOISED:

        def recorder(*args, original=original):
            result = original(*args)
            calls.append((original.__name__, args, result))
            return result

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recorder)
    return calls


def _computed_twice(calls) -> list:
    results: dict = {}
    for name, args, result in calls:
        results.setdefault((name, tuple(map(id, args))), set()).add(id(result))
    return [key for key, ids in results.items() if len(ids) > 1]


def test_a_pentagon_check_never_computes_the_same_call_twice(monkeypatch):
    pool = all_functors(arrow_category(), fork())
    f = pvf_coproduct(functor_into_presheaves(pool[0]), functor_into_presheaves(pool[3]))
    g = functor_into_presheaves(all_functors(fork(), parallel_pair())[2])
    h = functor_into_presheaves(all_functors(parallel_pair(), arrow_category())[1])
    k = functor_into_presheaves(all_functors(arrow_category(), arrow_category())[1])
    calls = _record_computations(monkeypatch)
    assert check_pentagon(KLEISLI, k, h, g, f).ok
    assert {"kan_extend", "kleisli_compose"} <= {name for name, _, _ in calls}
    assert _computed_twice(calls) == []


def _day_instance():
    mon = dict(_monoidal_seeds())["Z3-discrete"]
    ps = [psh_coproduct(yoneda(mon.base, a), yoneda(mon.base, "d1"))[0] for a in ("d0", "d1", "d2", "d0")]
    return day_bicategory(mon), ps, "day_convolve"


def _subst_instance():
    sym = free_sym_cat(discrete(1), 3)
    one, two = (representable_seq(sym, discrete(1), {"d0": pick}) for pick in [("d0",), ("d0", "d0")])
    f = seq_coproduct(one, two)
    return SUBST, [f, two, f, f], "subst_compose"


@pytest.mark.parametrize("instance", [_day_instance, _subst_instance], ids=["day", "subst"])
def test_the_day_and_substitution_checks_never_compute_the_same_call_twice(monkeypatch, instance):
    B, (k, h, g, f), composite = instance()
    calls = _record_computations(monkeypatch)
    for check in (lambda: check_pentagon(B, k, h, g, f), lambda: check_triangle(B, g, f)):
        calls.clear()
        assert check().ok
        assert composite in {name for name, _, _ in calls}
        assert _computed_twice(calls) == []


def test_an_operad_check_never_computes_the_same_call_twice(monkeypatch):
    operad = associative_operad(3)
    calls = _record_computations(monkeypatch)
    assert check_operad(operad).ok
    assert any(name == "subst_compose" for name, _, _ in calls)
    assert _computed_twice(calls) == []


def test_a_relpsm_instance_computes_each_extension_once_across_its_checks(monkeypatch):
    calls = _record_computations(monkeypatch)
    report = run_suite("relpsm-axioms", SuiteConfig(seed=2027, instances=1))
    (instance,) = report["instances"]
    assert instance["passed"] and len(instance["reports"]) == 5
    kan = [call for call in calls if call[0] == "kan_extend"]
    assert kan and _computed_twice(kan) == []
