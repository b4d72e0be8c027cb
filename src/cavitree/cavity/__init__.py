"""Dynamic cavity engines: homogeneous, finite-tree, degree-mixture, extensions."""

from .active import ActiveEdgeEngine
from .core import COUPLING_TOL, DRIFT_WARN
from .engine import CouplingError
from .finite import FiniteTreeEngine
from .homogeneous import ConfigModelEngine, RegularTreeEngine
from .hubs import posterior_with_hubs
from .tables import CavityTable, DecisionTable, TableError

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
    "posterior_with_hubs",
]
