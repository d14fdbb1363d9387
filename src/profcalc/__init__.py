"""Exact computational engine for finite-scale profunctor calculus.

Modules:
  fincat    finite sets/categories/functors, the generic 2-cell algebra, the call-tree memo
  colim     the quotient kernel, coends and the maps they induce
  presheaf  presheaves, Yoneda, left Kan extension along Yoneda, pointwise limits
  prof      profunctors, the tau correspondence, Kleisli coherence cells
  relpsm    axiom suites for the extension structure and lax idempotency
  day       Day convolution on strict monoidal bases
  symmon    free symmetric strict monoidal categories and substitution
  report    check reports and the one bicategory record with its coherence checks
  seeds     the fixed library of small categories
  serialize the versioned JSON wire format
  suites    randomized check suites with deterministic reports
  cli       command-line entry points

Every top-level definition in these modules is reached by name from the
engine -- some module's top-level code, or `cli.main` -- or from `PUBLIC`,
and no name in `PUBLIC` is reached from the engine (tests/test_reachability.py).
"""

__version__ = "0.1.0"

PUBLIC = (
    # payload builders that the benchmark, CI and tests use
    "prof.prof_identity", "fincat.identity_functor", "fincat.functor_compose",
    "fincat.opposite", "serialize.to_dict",
    # the benchmark's tracer wraps it
    "presheaf.all_psh_maps",
    # paper checks that only tests run: wiring them into suites changes the
    # suite digests that the benchmark pins
    "presheaf.check_preserves", "day.check_kan_monoidal", "day.monoidal_from_strict_functor",
    "symmon.sym_unit", "symmon.sym_mult",
)
