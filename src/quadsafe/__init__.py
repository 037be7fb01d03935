"""Quadrotor flight-safety simulator.

Cascaded flight control with two-level quadratic-program safety filtering:
rectellipse control barrier functions on position and velocity, exponential
CBF constraint chains up to relative degree four, and scenario presets
reproducing the trajectory-rectification experiments.
"""

from .barriers import BarrierDomain, BarrierSpec, pole_place
from .controller import ControllerGains, Reference
from .dynamics import QuadParams, QuadState
from .qp import QpSolution, solve_qp
from .sim import Scenario, Trace, run

__all__ = [
    "BarrierDomain",
    "BarrierSpec",
    "ControllerGains",
    "QpSolution",
    "QuadParams",
    "QuadState",
    "Reference",
    "Scenario",
    "Trace",
    "pole_place",
    "run",
    "solve_qp",
]

__version__ = "0.1.0"
