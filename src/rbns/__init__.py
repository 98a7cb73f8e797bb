"""Rayleigh-Benard convection between rough Navier-slip walls.

DNS of the 2D Boussinesq equations in vorticity / stream-function form on a
periodic channel whose walls are vertical translates of a periodic height
profile, with Navier-slip velocity and fixed-temperature boundary conditions,
plus the diagnostics (Nusselt numbers, energy and enstrophy balances) and the
explicit heat-transport bound formulas that go with that setup.
"""

__version__ = "0.1.0"

from rbns.geometry import (
    FourierSeries,
    Side,
    boundary_frames,
    boundary_norms,
    check_condition_ec,
    check_condition_theorem2,
    curvature,
    evaluate_height,
)
from rbns.grid import MappedGrid
from rbns.solver import PhysicalParams, BoussinesqStepper

__all__ = [
    "FourierSeries",
    "Side",
    "boundary_frames",
    "boundary_norms",
    "check_condition_ec",
    "check_condition_theorem2",
    "curvature",
    "evaluate_height",
    "MappedGrid",
    "PhysicalParams",
    "BoussinesqStepper",
    "__version__",
]
