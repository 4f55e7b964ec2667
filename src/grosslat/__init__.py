"""Exact quaternion-order and Gross-lattice toolkit.

Arithmetic in the definite rational quaternion algebra (-a, -p | Q),
integer lattices and orders with exact canonical forms, the commutator
ideal with its explicit bracket basis, both directions of the trace-zero
element / rank-2 Gross sublattice correspondence, and the ternary
determinant form with exact representation testing.
"""

from .quat import AlgebraParams, Quaternion, commutator, gross_map, inner
from .lattice import GramMatrix, Lattice
from .orders import (
    Order,
    extend_to_maximal,
    is_order,
    lift_gross_basis,
    order_from_pair,
)
from .commutator_ideal import commutator_basis, trace_zero_commutator_basis
from .correspond import (
    CoeffMatrix,
    SublatticePair,
    endo_to_sublattice,
    pair_determinant,
    plucker_lift,
    search_elements,
    sublattice_to_endo,
)
from .forms import (
    TernaryForm,
    canonical_reduced_form,
    exterior_square_form,
    gross_form,
    order_form,
    representation_counts,
    represents,
)
from .fixtures import FixtureConfig, load_fixture

__all__ = [
    "AlgebraParams",
    "Quaternion",
    "commutator",
    "gross_map",
    "inner",
    "GramMatrix",
    "Lattice",
    "Order",
    "extend_to_maximal",
    "is_order",
    "lift_gross_basis",
    "order_from_pair",
    "commutator_basis",
    "trace_zero_commutator_basis",
    "CoeffMatrix",
    "SublatticePair",
    "endo_to_sublattice",
    "pair_determinant",
    "plucker_lift",
    "search_elements",
    "sublattice_to_endo",
    "TernaryForm",
    "canonical_reduced_form",
    "exterior_square_form",
    "gross_form",
    "order_form",
    "representation_counts",
    "represents",
    "FixtureConfig",
    "load_fixture",
]

__version__ = "0.1.0"
