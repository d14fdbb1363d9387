"""Command-line surface: validate files, run compositions, run suites.

Exit codes: 0 success, 1 validation or check failure, 2 parse error,
3 bound exceeded (substitution).  `main` maps the errors of every subcommand
to them in one place; `suite` alone exits 2 on a configuration error.  A
substitution whose inner sequence has nullary values is a bounded search:
it exits 0 and prints one `warning:` line on stderr naming the bound.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import serialize
from .colim import coend
from .day import StrictMonoidalFinCat, day_convolve
from .fincat import BoundExceeded, FinCat, NonInvertible, validate_category
from .presheaf import Presheaf, kan_extend
from .prof import Profunctor, kleisli_compose, prof_compose, tau, tau_inv
from .suites import SUITE_NAMES, SuiteConfig, format_suite_text, run_suite
from .symmon import SymSeq, subst_compose


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise serialize.ParseError(str(exc)) from exc
    return serialize.loads(text)


def _emit(obj, out: str | None) -> None:
    text = serialize.dumps(obj, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _print_witnesses(quotients) -> None:
    # classes listed with representatives first
    for key in sorted(quotients, key=repr):
        print(f"witnesses at {key!r}:", file=sys.stderr)
        for cls in quotients[key].classes:
            print("  " + " ~ ".join(repr(x) for x in cls), file=sys.stderr)


def cmd_validate(args) -> int:
    obj = _load(args.path)
    violations = validate_category(obj) if isinstance(obj, FinCat) else []
    for line in violations:
        print(f"violation: {line}", file=sys.stderr)
    if violations:
        return 1
    print("ok")
    return 0


# the payload type of each input of a compose kind, in input order
_COMPOSE_INPUTS = {
    "prof": (Profunctor, Profunctor),
    "kleisli": (Profunctor, Profunctor),
    "day": (StrictMonoidalFinCat, Presheaf, Presheaf),
    "subst": (SymSeq, SymSeq),
}


def cmd_compose(args) -> int:
    kinds = _COMPOSE_INPUTS[args.kind]
    if len(args.inputs) != len(kinds):
        print(f"compose --kind {args.kind} takes {len(kinds)} inputs, got {len(args.inputs)}", file=sys.stderr)
        return 2
    inputs = [_load(path) for path in args.inputs]
    if not all(isinstance(x, kind) for x, kind in zip(inputs, kinds)):
        print(
            f"compose --kind {args.kind} needs {', '.join(k.__name__ for k in kinds)}, "
            f"got {', '.join(type(x).__name__ for x in inputs)}",
            file=sys.stderr,
        )
        return 1
    if args.kind == "kleisli":
        g, f = inputs
        composite = kleisli_compose(tau(g), tau(f))
        result = tau_inv(composite)
        # keyed (y, x) like the values of the emitted profunctor
        quotients = {(y, x): q for x, kp in composite.on_obj.items() for y, q in kp.quotients.items()}
    else:
        if args.kind == "prof":
            result = prof_compose(*inputs)
        elif args.kind == "day":
            result = day_convolve(*inputs)
        else:
            result = subst_compose(*inputs)
            if result.bounded_search:
                print(
                    "warning: the inner sequence has nullary values, so block counts were "
                    f"searched up to the middle arity bound {inputs[0].max_arity} only",
                    file=sys.stderr,
                )
        quotients = result.quotients
    _emit(result, args.out)
    if args.show_witnesses:
        _print_witnesses(quotients)
    return 0


def cmd_coend(args) -> int:
    p = _load(args.path)
    if not isinstance(p, Profunctor) or p.source != p.target:
        print("coend needs a profunctor with matching endpoints", file=sys.stderr)
        return 1
    # the load ran the law scan already
    _emit(coend(p), args.out)
    return 0


def cmd_kan(args) -> int:
    p = _load(args.functor)
    arg = _load(args.presheaf)
    if not isinstance(p, Profunctor) or not isinstance(arg, Presheaf):
        print("kan needs a profunctor and a presheaf", file=sys.stderr)
        return 1
    _emit(kan_extend(tau(p), arg), args.out)
    return 0


def cmd_suite(args) -> int:
    config = SuiteConfig(
        seed=args.seed,
        instances=args.instances,
        max_objects=args.max_objects,
        max_arity=args.max_arity,
        workers=args.workers,
        fault=args.fault,
        fault_index=args.fault_index,
    )
    started = time.monotonic()
    try:
        result = run_suite(args.name, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    if args.format == "json":
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(format_suite_text(result, show_witnesses=args.show_witnesses))
    if "warning" in result:
        print(f"warning: {result['warning']}", file=sys.stderr)
    # timing stays out of the report so reruns are byte-identical
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    return 0 if result["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profcalc",
        description="exact finite-scale profunctor calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a serialized object")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compose", help="compose serialized objects")
    p.add_argument("--kind", required=True, choices=list(_COMPOSE_INPUTS))
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out")
    p.add_argument("--show-witnesses", action="store_true")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("coend", help="coend of an endo-profunctor")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_coend)

    p = sub.add_parser("kan", help="extend a profunctor and apply it to a presheaf")
    p.add_argument("functor")
    p.add_argument("presheaf")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kan)

    p = sub.add_parser("day", help="Day convolution of two presheaves")
    p.add_argument("inputs", nargs=3, metavar=("MONOIDAL", "F1", "F2"))
    p.add_argument("--out")
    p.add_argument("--show-witnesses", action="store_true")
    p.set_defaults(func=cmd_compose, kind="day")

    p = sub.add_parser("subst", help="substitution composite of two symmetric sequences")
    p.add_argument("inputs", nargs=2, metavar=("G", "F"))
    p.add_argument("--out")
    p.add_argument("--show-witnesses", action="store_true")
    p.set_defaults(func=cmd_compose, kind="subst")

    p = sub.add_parser("suite", help="run a named check suite")
    p.add_argument("name", choices=list(SUITE_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=5)
    p.add_argument("--max-objects", type=int, default=4)
    p.add_argument("--max-arity", type=int, default=3)
    p.add_argument(
        "--workers", type=int, default=1,
        help="run instances on this many threads; they share the GIL, so this "
        "gives no speedup and only checks that the report is the same under "
        "any scheduling",
    )
    p.add_argument("--fault", choices=["mu", "eta", "theta", "unit", "comp"], default=None)
    p.add_argument("--fault-index", type=int, default=0)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--show-witnesses", action="store_true")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except serialize.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except (NonInvertible, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
