"""The benchmark's workloads: their items, inputs and exact-output oracles.

An item is one call path through profcalc's public functions.  `run()` does
the measured work; `oracle(output)` returns None or a description of the
miss, using facts derived here without profcalc code (cardinalities from
closed formulas, sizes read from the wire format with the json module);
`digest(output)` is the sha256 that the gate compares with the digest
recorded at the seed commit.  Building the items (`build`) is set-up: it
makes the seed categories, identity profunctors, monoidal bases and the
serialized payloads, and computes no quotient.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from profcalc import serialize
from profcalc.day import day_convolve, one_object_group_monoidal
from profcalc.presheaf import psh_coproduct, yoneda
from profcalc.prof import kleisli_compose, prof_compose, prof_identity, tau, tau_inv
from profcalc.seeds import chain
from profcalc.suites import SuiteConfig, run_suite
from profcalc.symmon import associative_operad, check_operad

WORKLOADS = ("coherence-suites", "quotient-ladder", "operad-subst")

# suite -> (acceptance seed, instances)
ACCEPTANCE = {
    "kleisli-coherence": (2026, 20),
    "relpsm-axioms": (2027, 20),
    "lax-idempotent": (2028, 5),
    "day-monoidal": (2030, 8),
    "operad": (2029, 5),
}
COHERENCE_SUITES = ("kleisli-coherence", "relpsm-axioms", "lax-idempotent", "day-monoidal")
CHAIN_LADDER = (3, 5, 7, 9)  # chain(n) has n + 1 objects
GROUP_LADDER = (4, 6, 8, 10)  # Z/n as a one-object monoidal category
OPERAD_ARITY = 4


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    oracle: Callable[[Any], str | None]
    digest: Callable[[Any], str]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def suite_seed(suite: str, suite_base: int | None) -> int:
    """The acceptance seed by default; a fresh seed derived from any other value."""
    if suite_base is None:
        return ACCEPTANCE[suite][0]
    return random.Random(f"{suite}:{suite_base}").randrange(10**6)


# -- oracles ------------------------------------------------------------------------


def ass_ass_counts(max_arity: int) -> list[int]:
    """|Ass o Ass(k)| = k! * 2^(k-1) for k >= 1 (exponential generating functions)."""
    return [0] + [math.factorial(k) * 2 ** (k - 1) for k in range(1, max_arity + 1)]


def _chain_oracle(n: int):
    # co-Yoneda: (id o id)(y, x) has the size of hom(y, x) in the chain 0 <= 1 <= ... <= n
    expected = {(str(i), str(j)): 1 for i in range(n + 1) for j in range(i, n + 1)}

    def oracle(text: str) -> str | None:
        got = {(y, x): len(elems) for y, x, elems in json.loads(text)["values"]}
        return None if got == expected else f"composite sizes differ from hom sizes of chain({n})"

    return oracle


def _day_oracle(n: int):
    # Yoneda is strong monoidal and convolution preserves sums: (y+y)*(y+y) = 4 y(unit)
    def oracle(text: str) -> str | None:
        sizes = [len(elems) for _, elems in json.loads(text)["values"]]
        return None if sizes == [4 * n] else f"(y+y)*(y+y) over Z/{n} has sizes {sizes}, not [{4 * n}]"

    return oracle


def _operad_sizes(operad) -> list[int]:
    sizes = [0] * (operad.seq.max_arity + 1)
    for (xs, _), fn in operad.comp_components.items():
        sizes[len(xs)] += len(fn.domain)
    return sizes


def _operad_text(operad) -> str:
    comps = operad.comp_components
    return "\n".join(f"{key!r}: {comps[key].mapping!r}" for key in sorted(comps, key=repr))


def _suite_oracle(report: dict) -> str | None:
    if report["passed"]:
        return None
    failing = [i["description"] for i in report["instances"] if not i["passed"]]
    return f"suite {report['suite']} failed on {', '.join(failing)}"


def _report_digest(report: dict) -> str:
    return _sha(json.dumps(report, sort_keys=True))


# -- items ---------------------------------------------------------------------------


def suite_item(suite: str, seed: int, instances: int, fault: str | None = None) -> Item:
    config = SuiteConfig(seed=seed, instances=instances, workers=1, fault=fault)
    return Item(
        f"suite:{suite}:{seed}:{instances}",
        lambda: run_suite(suite, config),
        _suite_oracle,
        _report_digest,
    )


def _ladder_items() -> list[Item]:
    items = []
    for n in CHAIN_LADDER:
        payload = serialize.dumps(prof_identity(chain(n)), indent=2)

        def prof_path(payload=payload):
            g, f = serialize.loads(payload), serialize.loads(payload)
            return serialize.dumps(prof_compose(g, f), indent=2)

        def kleisli_path(payload=payload):
            g, f = serialize.loads(payload), serialize.loads(payload)
            return serialize.dumps(tau_inv(kleisli_compose(tau(g), tau(f))), indent=2)

        items.append(Item(f"prof_compose:chain({n})", prof_path, _chain_oracle(n), _sha))
        items.append(Item(f"kleisli_compose:chain({n})", kleisli_path, _chain_oracle(n), _sha))
    for n in GROUP_LADDER:
        mon = one_object_group_monoidal(n)
        y = yoneda(mon.base, mon.unit)
        mon_payload = serialize.dumps(mon, indent=2)
        psh_payload = serialize.dumps(psh_coproduct(y, y)[0], indent=2)

        def day_path(mon_payload=mon_payload, psh_payload=psh_payload):
            mon = serialize.loads(mon_payload)
            f1, f2 = serialize.loads(psh_payload), serialize.loads(psh_payload)
            return serialize.dumps(day_convolve(mon, f1, f2), indent=2)

        items.append(Item(f"day_convolve:Z{n}", day_path, _day_oracle(n), _sha))
    return items


def _operad_items(suite_base: int | None, count_fault: bool = False) -> list[Item]:
    expected4 = ass_ass_counts(OPERAD_ARITY)
    expected3 = ass_ass_counts(3)
    if count_fault:
        expected3[-1] += 1

    def sizes_oracle(expected):
        def oracle(operad) -> str | None:
            got = _operad_sizes(operad)
            return None if got == expected else f"|Ass o Ass| by arity is {got}, not {expected}"

        return oracle

    def check3():
        operad = associative_operad(3)
        return operad, check_operad(operad)

    def check3_oracle(out) -> str | None:
        operad, report = out
        if not report.ok:
            return "check_operad(associative_operad(3)) failed"
        return sizes_oracle(expected3)(operad)

    seed = suite_seed("operad", suite_base)
    return [
        Item(
            f"associative_operad({OPERAD_ARITY})",
            lambda: associative_operad(OPERAD_ARITY),
            sizes_oracle(expected4),
            lambda operad: _sha(_operad_text(operad)),
        ),
        Item(
            "check_operad(associative_operad(3))",
            check3,
            check3_oracle,
            lambda out: _sha(_operad_text(out[0]) + json.dumps(out[1].to_dict(), sort_keys=True)),
        ),
        suite_item("operad", seed, ACCEPTANCE["operad"][1]),
    ]


def build(workload: str, suite_base: int | None = None) -> list[Item]:
    """The items of one pass; `suite_base` (from --suite-seed) None selects the acceptance seeds."""
    if workload == "coherence-suites":
        return [
            suite_item(s, suite_seed(s, suite_base), ACCEPTANCE[s][1]) for s in COHERENCE_SUITES
        ]
    if workload == "quotient-ladder":
        return _ladder_items()
    if workload == "operad-subst":
        return _operad_items(suite_base)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def fault_cases() -> list[tuple[str, list[Item], bool]]:
    """(name, items, faulty): tiny runs, each faulty one with a known wrong answer."""
    kleisli_seed, _ = ACCEPTANCE["kleisli-coherence"]
    check3, corrupted = _operad_items(None)[1], _operad_items(None, count_fault=True)[1]
    return [
        ("coherence-suites: kleisli-coherence x2", [suite_item("kleisli-coherence", kleisli_seed, 2)], False),
        (
            "coherence-suites: kleisli-coherence x2, fault=mu",
            [suite_item("kleisli-coherence", kleisli_seed, 2, fault="mu")],
            True,
        ),
        ("operad-subst: check_operad(associative_operad(3))", [check3], False),
        ("operad-subst: check_operad(associative_operad(3)), corrupted count", [corrupted], True),
    ]
