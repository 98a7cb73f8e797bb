"""Piecewise-linear background temperature profile and its strip integrals.

The background profile eta carries the wall temperatures (1 on the bottom
wall, 0 on the top) across two strips of width delta and sits at 1/2 in the
bulk.  In wall-distance coordinates it depends on x2 alone:

    eta(x2) = 1 - x2/(2 delta)          0      <= x2 <= delta
            = 1/2                       delta  <  x2 <  1 - delta
            = (1 - x2)/(2 delta)        1-delta <= x2 <= 1

Its physical gradient is supported on the strips, where

    grad eta = eta'(x2) * (-h', 1),     eta' = -1/(2 delta),

i.e. magnitude sqrt(1+h'^2)/(2 delta) along the downward wall normal.  The
strip average of |grad eta|^2 is therefore exactly

    <|grad eta|^2> = (1 / (2 delta)) * mean_y1(1 + h'^2),

which this module evaluates in closed form; the fluctuation integrals
(theta = T - eta) are quadratures restricted to the strips.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from rbns.grid import MappedGrid


@dataclass
class BackgroundField:
    delta: float
    grid: MappedGrid
    eta_profile: np.ndarray = field(init=False)     # (n2,)
    eta_slope: np.ndarray = field(init=False)       # (n2,) d eta/dx2, kink rows averaged
    grad_eta_sq_avg: float = field(init=False)      # exact strip formula

    def __post_init__(self):
        delta, grid = self.delta, self.grid
        if not 0.0 < delta <= 0.5:
            raise ValueError(f"delta must lie in (0, 1/2], got {delta}")
        if delta < 4.0 * grid.dx2:
            warnings.warn(
                f"delta = {delta:.4g} is resolved by fewer than 4 cells "
                f"(dx2 = {grid.dx2:.4g}); strip quadratures will be crude",
                stacklevel=3,       # the code that built the field, past the dataclass __init__
            )
        x2 = grid.x2
        eta = np.full_like(x2, 0.5)
        lo = x2 <= delta
        hi = x2 >= 1.0 - delta
        eta[lo] = 1.0 - x2[lo] / (2.0 * delta)
        eta[hi] = (1.0 - x2[hi]) / (2.0 * delta)
        self.eta_profile = eta

        s = np.zeros_like(x2)
        slope = -1.0 / (2.0 * delta)
        if delta == 0.5:
            s[:] = slope  # strips meet; eta is globally linear
        else:
            s[x2 < delta] = slope
            s[x2 > 1.0 - delta] = slope
            # kink rows take the mean of the adjacent piece slopes
            for kink in (delta, 1.0 - delta):
                on = np.abs(x2 - kink) <= 1e-12
                s[on] = 0.5 * slope
            s[np.abs(x2) <= 1e-12] = slope
            s[np.abs(x2 - 1.0) <= 1e-12] = slope
        self.eta_slope = s

        self.grad_eta_sq_avg = grid.a22_mean / (2.0 * delta)

    def theta(self, temp: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The fluctuation theta = T - eta (into out, if given)."""
        return np.subtract(temp, self.eta_profile, out=out)
