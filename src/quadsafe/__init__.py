"""Quadrotor flight-safety simulator.

Cascaded flight control with two-level quadratic-program safety filtering:
rectellipse control barrier functions on position and velocity, exponential
CBF constraint chains up to relative degree four, and scenario presets
reproducing the trajectory-rectification experiments.
"""

from .barriers import BarrierDomain, BarrierSpec, pole_place, rectellipse_h
from .controller import ControllerGains, Reference
from .dynamics import QuadParams, QuadState
from .qp import QpProblem, QpSolution, solve_qp
from .sim import Scenario, Trace, reference_at, run

__all__ = [
    "BarrierDomain",
    "BarrierSpec",
    "ControllerGains",
    "QpProblem",
    "QpSolution",
    "QuadParams",
    "QuadState",
    "Reference",
    "Scenario",
    "Trace",
    "pole_place",
    "rectellipse_h",
    "reference_at",
    "run",
    "solve_qp",
]

__version__ = "0.1.0"
