"""Pass/fail reports with witnesses.

Failed checks are data, not exceptions: every failure carries a witness
string naming the object/element/diagram side where the two values differ.
Reports serialize to JSON-compatible dicts with a stable field order so that
identical runs produce byte-identical output.

Checks record their items through two recorders.  `CheckReport.record`
takes a witness or None: a `cell_difference`, an `iso_witness`, or the list
that the one naturality scan `Cell.violations()` returns, whose first entry
is the witness.  `CheckReport.build` runs a construction that may raise
`NonInvertible` or `ValueError`, records the error as the witness, and can
record the naturality of the cell it builds.

A `Bicategory` records the operations of one bicategory (Leinster, *Basic
bicategories*, arXiv math/9810017).  `check_pentagon` and `check_triangle`
read only that record and the `fincat.Cell` algebra, so one checker serves
the Kleisli bicategory (`prof.KLEISLI`), Day convolution as a one-object
bicategory (`day.day_bicategory`) and substitution of symmetric sequences
(`symmon.SUBST`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .fincat import NonInvertible, cell_difference, memo_scope


@dataclass
class CheckItem:
    name: str
    passed: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class CheckReport:
    name: str
    items: list[CheckItem] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def add(self, name: str, passed: bool, witness: str | None = None) -> None:
        self.items.append(CheckItem(name, passed, None if passed else witness))

    def record(self, name: str, witness: str | list[str] | None) -> None:
        """Add an item that passes when there is no witness; a list of
        violations passes when empty and fails with its first entry."""
        if isinstance(witness, list):
            witness = witness[0] if witness else None
        passed = witness is None
        self.items.append(CheckItem(name, passed, witness))

    def build(self, name: str, construct, *args, natural: str | None = None):
        """Run construct(*args) and add an item that passes when it returns,
        or fails with the `NonInvertible` or `ValueError` it raises; return
        its result, or None.  A cell it returns has its `violations()`
        recorded as the item `natural`, when that is given."""
        try:
            result = construct(*args)
        except (NonInvertible, ValueError) as exc:
            self.add(name, False, str(exc))
            return None
        self.add(name, True)
        if natural is not None:
            self.record(natural, result.violations())
        return result

    def extend(self, other: CheckReport, prefix: str = "") -> None:
        for item in other.items:
            self.items.append(
                CheckItem(prefix + item.name, item.passed, item.witness)
            )

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.ok,
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
            "checks": [item.to_dict() for item in self.items],
        }


@dataclass(frozen=True)
class Bicategory:
    """The operations of a bicategory.  compose(g, f) is g after f,
    identity(x) the identity 1-cell on x, src(f) and tgt(f) the ends of f;
    assoc(h, g, f, tag): (h g) f -> h (g f), lunit(f, tag): 1 f -> f and
    runit(f, tag): f 1 -> f are the structural cells; whisker_left(g, cell)
    is 1_g * cell and whisker_right(cell, f) is cell * 1_f.  `tag` keys the
    components of a structural cell for `fincat.corrupt`; an instance that
    corrupts none ignores it."""

    compose: Callable
    identity: Callable
    src: Callable
    tgt: Callable
    assoc: Callable
    lunit: Callable
    runit: Callable
    whisker_left: Callable
    whisker_right: Callable


@memo_scope()
def check_pentagon(B: Bicategory, k, h, g, f) -> CheckReport:
    """Both composite associator paths around the pentagon, compared exactly."""
    report = CheckReport("pentagon")
    a1 = B.whisker_right(B.assoc(k, h, g, ("khg",)), f)
    a2 = B.assoc(k, B.compose(h, g), f, ("k,hg,f",))
    a3 = B.whisker_left(k, B.assoc(h, g, f, ("hgf",)))
    b1 = B.assoc(B.compose(k, h), g, f, ("kh,g,f",))
    b2 = B.assoc(k, h, B.compose(g, f), ("k,h,gf",))
    report.record("pentagon-equality", cell_difference(a1.then(a2).then(a3), b1.then(b2)))
    return report


@memo_scope()
def check_triangle(B: Bicategory, g, f) -> CheckReport:
    """The unit coherence triangle plus the derived left/right unit triangles."""
    report = CheckReport("triangle")

    # middle: (rho_g * 1_f) = (1_g * lambda_f) . alpha_{g, i, f}
    rho_g = B.runit(g, ("rho_g",))
    lam_f = B.lunit(f, ("lam_f",))
    alpha = B.assoc(g, B.identity(B.src(g)), f, ("g,i,f",))
    path1 = B.whisker_right(rho_g, f)
    path2 = alpha.then(B.whisker_left(g, lam_f))
    report.record("triangle-middle", cell_difference(path1, path2))

    # left: lambda_{g o f} . alpha_{i, g, f} = lambda_g * 1_f
    gf = B.compose(g, f)
    lam_g = B.lunit(g, ("lam_g",))
    alpha_l = B.assoc(B.identity(B.tgt(g)), g, f, ("i,g,f",))
    lam_gf = B.lunit(gf, ("lam_gf",))
    report.record("triangle-left", cell_difference(alpha_l.then(lam_gf), B.whisker_right(lam_g, f)))

    # right: rho_{g o f} = (1_g * rho_f) . alpha_{g, f, i}
    rho_gf = B.runit(gf, ("rho_gf",))
    alpha_r = B.assoc(g, f, B.identity(B.src(f)), ("g,f,i",))
    rho_f = B.runit(f, ("rho_f",))
    report.record("triangle-right", cell_difference(rho_gf, alpha_r.then(B.whisker_left(g, rho_f))))

    # unit laws: the unitors are invertible cells Id o f ~ f and f o Id ~ f
    report.add("left-unitor-iso", lam_f.is_iso(), "lambda not invertible")
    report.add("right-unitor-iso", rho_f.is_iso(), "rho not invertible")
    for label, cell in [
        ("lam_f", lam_f), ("lam_g", lam_g), ("lam_gf", lam_gf),
        ("rho_f", rho_f), ("rho_g", rho_g), ("rho_gf", rho_gf),
    ]:
        report.record(f"{label}-natural", cell.violations())
    return report
