"""Exact computational engine for finite-scale profunctor calculus.

Modules:
  fincat   finite sets/categories/functors, the generic 2-cell algebra, the call-tree memo
  colim    coproducts, coequalizers, coends, co-Yoneda and Fubini bijections
  presheaf presheaves, Yoneda, left Kan extension along Yoneda, pointwise limits
  prof     profunctors, the tau correspondence, Kleisli coherence cells
  relpsm   axiom suites for the extension structure and lax idempotency
  day      Day convolution on strict monoidal bases
  symmon   free symmetric strict monoidal categories and substitution
  seeds    the fixed library of small categories
  suites   randomized check suites with deterministic reports
  cli      command-line entry points
"""

__version__ = "0.1.0"
