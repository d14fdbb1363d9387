"""Pass/fail reports with witnesses.

Failed checks are data, not exceptions: every failure carries a witness
string naming the object/element/diagram side where the two values differ.
Reports serialize to JSON-compatible dicts with a stable field order so that
identical runs produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
