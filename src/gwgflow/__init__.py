"""Generalized weak Galerkin solver for steady and evolutionary Oseen flow."""

from .config import SpaceConfig
from .mesh import Mesh, build_uniform_triangulation
from .problems import Problem, manufactured_problem
from .solver import DiscreteSolution, TimeGrid, solve_evolutionary, solve_steady
from .verify import ErrorReport, evaluate_errors

__version__ = "0.1.0"

__all__ = [
    "DiscreteSolution",
    "ErrorReport",
    "Mesh",
    "Problem",
    "SpaceConfig",
    "TimeGrid",
    "build_uniform_triangulation",
    "evaluate_errors",
    "manufactured_problem",
    "solve_evolutionary",
    "solve_steady",
    "__version__",
]
