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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fincat import NonInvertible


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
