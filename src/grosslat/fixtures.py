"""Fixture configurations: algebra parameters, a maximal order basis, and the
distinguished trace-p element of each shipped counter-example."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import MalformedInput, integer_field, require_fields, scalar_field
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
        if not isinstance(data["label"], str):
            raise MalformedInput(f"fixture field label must be a string, got {data['label']!r}")
        algebra = AlgebraParams.from_dict(data["algebra"])
        if not isinstance(data["order_basis"], list):
            raise MalformedInput("order_basis must be a list of coordinate lists")
        basis = [algebra.from_coord_strings(row) for row in data["order_basis"]]
        alpha = algebra.from_coord_strings(data["alpha"])
        ell = integer_field(data["ell"], "fixture field ell")
        if ell < 1:
            raise ValueError(f"ell must be positive, got {ell}")
        return cls(
            label=data["label"],
            algebra=algebra,
            order_basis=basis,
            alpha=alpha,
            ell=ell,
            expected=_checked_expected(data.get("expected", {})),
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


def _checked_expected(expected) -> dict:
    """A copy of the expected block, refused unless the values the CLI
    compares are an integer, a scalar and a list of scalars."""
    if not isinstance(expected, dict):
        raise MalformedInput(f"fixture field expected must be a JSON object, got {expected!r}")
    if "reduced_discriminant" in expected:
        disc = scalar_field(expected["reduced_discriminant"], "expected reduced_discriminant")
        if not isinstance(disc, int):
            raise MalformedInput(f"expected reduced_discriminant must be an integer, got {disc!r}")
    if "gross_det" in expected:
        scalar_field(expected["gross_det"], "expected gross_det")
    if "gross_gram_diagonal" in expected:
        diagonal = expected["gross_gram_diagonal"]
        if not isinstance(diagonal, list):
            raise MalformedInput(f"expected gross_gram_diagonal must be a list, got {diagonal!r}")
        for value in diagonal:
            scalar_field(value, "expected gross_gram_diagonal entry")
    return dict(expected)


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
        try:
            text = path.read_text("utf-8")
        except OSError as exc:  # a directory, or a file we may not read
            raise MalformedInput(f"cannot read fixture file {path}: {exc.strerror}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed fixture JSON (line {exc.lineno}): {exc.msg}") from exc
    return FixtureConfig.from_dict(data)
