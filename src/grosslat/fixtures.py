"""Fixture configurations: algebra parameters, a maximal order basis, and the
distinguished trace-p element of each shipped counter-example."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import MalformedInput, require_fields, scalar_field
from .lattice import Lattice
from .orders import Order
from .quat import AlgebraParams, Quaternion

BUILTIN_CASES = {
    "p11": "p11-j0.json",
    "p31": "p31-j4.json",
    "p19": "p19-j7.json",
}


@dataclass
class FixtureConfig:
    label: str
    algebra: AlgebraParams
    order_basis: list[Quaternion]
    alpha: Quaternion
    ell: int
    expected: dict = field(default_factory=dict)

    def order(self) -> Order:
        return Order(Lattice.from_generators(self.algebra, self.order_basis))

    @classmethod
    def from_dict(cls, data: dict) -> "FixtureConfig":
        require_fields(data, ("label", "algebra", "order_basis", "alpha", "ell"), "fixture")
        algebra = AlgebraParams.from_dict(data["algebra"])
        if not isinstance(data["order_basis"], list):
            raise MalformedInput("order_basis must be a list of coordinate lists")
        basis = [algebra.from_coord_strings(row) for row in data["order_basis"]]
        alpha = algebra.from_coord_strings(data["alpha"])
        ell = int(scalar_field(data["ell"], "fixture field ell"))
        if ell < 1:
            raise ValueError(f"ell must be positive, got {ell}")
        return cls(
            label=data["label"],
            algebra=algebra,
            order_basis=basis,
            alpha=alpha,
            ell=ell,
            expected=dict(data.get("expected", {})),
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "algebra": self.algebra.to_dict(),
            "order_basis": [b.to_coord_strings() for b in self.order_basis],
            "alpha": self.alpha.to_coord_strings(),
            "ell": self.ell,
            "expected": self.expected,
        }


def load_fixture(name_or_path: str) -> FixtureConfig:
    """Load a fixture by case alias (p11/p31/p19), label, or file path."""
    key = BUILTIN_CASES.get(name_or_path)
    if key is None and f"{name_or_path}.json" in BUILTIN_CASES.values():
        key = f"{name_or_path}.json"
    if key is not None:
        text = resources.files("grosslat").joinpath("fixtures", key).read_text("utf-8")
    else:
        path = Path(name_or_path)
        if not path.exists():
            raise FileNotFoundError(f"no builtin case or fixture file: {name_or_path}")
        text = path.read_text("utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed fixture JSON (line {exc.lineno}): {exc.msg}") from exc
    return FixtureConfig.from_dict(data)
