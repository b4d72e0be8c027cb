"""Dynamic cavity engines: homogeneous, finite-tree, degree-mixture, extensions."""

from .active import ActiveEdgeEngine
from .core import COUPLING_TOL, DRIFT_WARN
from .finite import FiniteTreeEngine
from .homogeneous import (
    ConfigModelEngine,
    CouplingError,
    RegularTreeEngine,
)
from .hubs import posterior_with_hubs
from .tables import (
    CavityTable,
    DecisionTable,
    TableError,
    cavity_table_from_bytes,
    cavity_table_from_json,
    cavity_table_to_bytes,
    cavity_table_to_json,
    decision_table_from_bytes,
    decision_table_from_json,
    decision_table_to_bytes,
    decision_table_to_json,
)

__all__ = [
    "ActiveEdgeEngine",
    "CavityTable",
    "ConfigModelEngine",
    "CouplingError",
    "DecisionTable",
    "FiniteTreeEngine",
    "RegularTreeEngine",
    "TableError",
    "COUPLING_TOL",
    "DRIFT_WARN",
    "cavity_table_from_bytes",
    "cavity_table_from_json",
    "cavity_table_to_bytes",
    "cavity_table_to_json",
    "decision_table_from_bytes",
    "decision_table_from_json",
    "decision_table_to_bytes",
    "decision_table_to_json",
    "posterior_with_hubs",
]
