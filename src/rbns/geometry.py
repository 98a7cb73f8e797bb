"""Rough-channel boundary geometry.

Both channel walls are vertical translates of a single periodic height
profile h(y1): the bottom wall is y2 = h(y1), the top wall y2 = 1 + h(y1).
The profile and the slip (friction) coefficient alpha are finite Fourier
series, so h', h'', h''' and the arc-length derivatives of alpha and of the
curvature come out of the series analytically; nothing here differentiates
numerically.

Conventions (outward normals, right-handed tangents):

    n_-  = (h', -1) / sqrt(1 + h'^2)        bottom wall, points down
    n_+  = (-h', 1) / sqrt(1 + h'^2)        top wall, points up
    tau  = n rotated by +90 degrees, i.e. tau = (-n2, n1)
    kappa = +h'' / (1 + h'^2)^(3/2)  on the top wall, and its negative on
            the bottom wall (identical profiles make them antisymmetric).

boundary_frames samples both walls into one stacked ``Walls`` record.  The
module also holds the three pointwise curvature/friction smallness
conditions the heat-transport bounds require, as one table ``CONDITIONS``:

    |kappa| <= 2 alpha + min{1, sqrt(alpha)} / (4 sqrt(1 + h'^2))   (ec)
    |kappa| <= alpha                  (theorem 2, strong variant)
    |kappa| <= 2 alpha + sqrt(alpha) / (4 sqrt(1 + h'^2))   (theorem 2, general variant)

Condition checks never gate the solver; they only flag whether the bound
formulas apply.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np


class Side(Enum):
    BOTTOM = "bottom"
    TOP = "top"


@dataclass(frozen=True)
class FourierSeries:
    """Real periodic series  offset + sum_k [c_k cos(2 pi k y/gamma) + s_k sin(2 pi k y/gamma)].

    Used both for the wall height profile h (where ``offset`` is the mean
    height) and for the slip coefficient alpha on each wall.  ``modes`` is a
    tuple of (k, cos_coeff, sin_coeff) with positive integer wavenumbers.
    An empty mode list is the constant (flat) case.
    """

    gamma: float
    offset: float = 0.0
    modes: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError(f"period gamma must be positive, got {self.gamma}")
        object.__setattr__(self, "modes", tuple((int(k), float(c), float(s)) for k, c, s in self.modes))
        for k, _, _ in self.modes:
            if k < 1:
                raise ValueError(f"mode wavenumbers must be positive integers, got {k}")

    @property
    def is_flat(self) -> bool:
        return all(c == 0.0 and s == 0.0 for _, c, s in self.modes)

    def evaluate(self, y, order: int = 0):
        """Analytic value of the order-th derivative at y (scalar or array)."""
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        if order == 0:
            out = out + self.offset
        for k, c, s in self.modes:
            w = 2.0 * math.pi * k / self.gamma
            ck, sk = c, s
            for _ in range(order):
                # d/dy [c cos(wy) + s sin(wy)] = w [s cos(wy) - c sin(wy)]
                ck, sk = w * sk, -w * ck
            out = out + ck * np.cos(w * y) + sk * np.sin(w * y)
        return out if out.ndim else float(out)

    def extrema_range(self, n_dense: int = 8192) -> tuple[float, float]:
        """(min, max) over one period, by dense sampling of the band-limited series."""
        y = np.linspace(0.0, self.gamma, n_dense, endpoint=False)
        v = self.evaluate(y)
        return float(np.min(v)), float(np.max(v))


def evaluate_height(profile: FourierSeries, y1, derivative_order: int = 0):
    """Exact value of d^k h / dy1^k; only orders 0..3 are meaningful here."""
    if derivative_order not in (0, 1, 2, 3):
        raise ValueError(f"derivative_order must be in 0..3, got {derivative_order}")
    return profile.evaluate(y1, derivative_order)


def _curvature_bottom(profile: FourierSeries, y1):
    hp = profile.evaluate(y1, 1)
    hpp = profile.evaluate(y1, 2)
    return -hpp / (1.0 + hp**2) ** 1.5


def curvature(profile: FourierSeries, y1, side: Side):
    """Signed curvature: -h''/(1+h'^2)^(3/2) on the bottom wall, + on the top."""
    kb = _curvature_bottom(profile, y1)
    return -kb if side is Side.TOP else kb


def _curvature_dot_bottom(profile: FourierSeries, y1):
    """d kappa / dy1 on the bottom wall (exact from the series, needs h''')."""
    hp = profile.evaluate(y1, 1)
    hpp = profile.evaluate(y1, 2)
    hppp = profile.evaluate(y1, 3)
    return -(hppp * (1.0 + hp**2) - 3.0 * hp * hpp**2) / (1.0 + hp**2) ** 2.5


@dataclass(frozen=True)
class Walls:
    """Both walls sampled at n equispaced y1 points, stacked bottom row first.

    ``alpha``, ``alpha_dot``, ``kappa`` and ``kappa_dot`` are (2, n);
    ``normal`` and ``tangent`` are (2, n, 2).  ``alpha_dot`` and
    ``kappa_dot`` are arc-length derivatives, stored as (d/dy1)/sqrt(1+h'^2).
    ``ds_weight`` (n,) is the line element sqrt(1+h'^2) that both walls
    share, so a wall integral is sum(f * ds_weight) * dy1.
    """

    gamma: float
    y1: np.ndarray
    alpha: np.ndarray
    alpha_dot: np.ndarray
    kappa: np.ndarray
    kappa_dot: np.ndarray
    normal: np.ndarray
    tangent: np.ndarray
    ds_weight: np.ndarray

    @property
    def alpha_min(self) -> float:
        return float(np.min(self.alpha))

    @property
    def n_samples(self) -> int:
        return self.y1.size

    def line_integral(self, integrand: np.ndarray):
        """Wall integral over the last axis: one value per row of a (2, n) stack."""
        return np.sum(integrand * self.ds_weight, axis=-1) * (self.gamma / self.y1.size)


def boundary_frames(profile: FourierSeries, n: int, alpha: FourierSeries,
                    alpha_top: FourierSeries | None = None) -> Walls:
    """Sample both wall frames at n equispaced y1 points.

    The friction coefficient may differ between the walls; with a single
    series it is used on both.  Fails if any sampled alpha is negative.
    """
    if n < 4:
        raise ValueError(f"n1 must be at least 4, got {n}")
    specs = (alpha, alpha if alpha_top is None else alpha_top)

    y1 = np.arange(n) * (profile.gamma / n)
    hp = np.asarray(profile.evaluate(y1, 1))
    w = np.sqrt(1.0 + hp**2)
    kb = np.asarray(_curvature_bottom(profile, y1))
    kb_dot = np.asarray(_curvature_dot_bottom(profile, y1)) / w

    normal_top = np.stack([-hp / w, 1.0 / w], axis=1)
    normal = np.stack((-normal_top, normal_top))
    a = np.array([spec.evaluate(y1) for spec in specs])
    for side, row in zip(Side, a):
        if np.min(row) < 0.0:
            raise ValueError(f"friction coefficient is negative on the {side.value} wall "
                             f"(min {np.min(row):.6g}); alpha >= 0 is required")
    return Walls(
        gamma=profile.gamma, y1=y1,
        alpha=a, alpha_dot=np.array([spec.evaluate(y1, 1) for spec in specs]) / w,
        kappa=np.stack((kb, -kb)), kappa_dot=np.stack((kb_dot, -kb_dot)),
        # tau = n rotated by +90 degrees: (x, y) -> (-y, x)
        normal=normal, tangent=np.stack((-normal[..., 1], normal[..., 0]), axis=-1),
        ds_weight=w,
    )


# Default sample count for condition checks and sup-norm estimates; spectral
# inputs converge fast under refinement, and reports record the count used.
CONDITION_SAMPLES = 1024


@dataclass(frozen=True)
class BoundaryNorms:
    """Sup-norms over both walls, approximated by maxima over the samples."""

    alpha_min: float
    kappa_inf: float
    alpha_plus_kappa_inf: float
    alpha_plus_kappa_w1inf: float
    alpha_dot_inf: float
    kappa_dot_inf: float
    hprime_inf: float
    height_range: float  # max h - min h
    gamma: float
    n_samples: int


def boundary_norms(profile: FourierSeries, walls: Walls) -> BoundaryNorms:
    ak_inf = float(np.max(np.abs(walls.alpha + walls.kappa)))
    ak_dot_inf = float(np.max(np.abs(walls.alpha_dot + walls.kappa_dot)))
    hmin, hmax = profile.extrema_range()
    return BoundaryNorms(
        alpha_min=walls.alpha_min,
        kappa_inf=float(np.max(np.abs(walls.kappa))),
        alpha_plus_kappa_inf=ak_inf,
        alpha_plus_kappa_w1inf=max(ak_inf, ak_dot_inf),
        alpha_dot_inf=float(np.max(np.abs(walls.alpha_dot))),
        kappa_dot_inf=float(np.max(np.abs(walls.kappa_dot))),
        hprime_inf=float(np.max(np.abs(profile.evaluate(walls.y1, 1)))) if not profile.is_flat else 0.0,
        height_range=hmax - hmin,
        gamma=profile.gamma,
        n_samples=walls.n_samples,
    )


# Right-hand sides of the conditions |kappa| <= rhs(alpha, sqrt(1 + h'^2)).
# check_conditions evaluates them at every wall sample;
# reporting.conditions_from_norms at (alpha_min, sqrt(1 + ||h'||^2)).
CONDITIONS = {
    "ec": lambda alpha, w: 2.0 * alpha + np.minimum(1.0, np.sqrt(alpha)) / (4.0 * w),
    "theorem2_kappa_leq_alpha": lambda alpha, w: alpha,
    "theorem2_general": lambda alpha, w: 2.0 * alpha + np.sqrt(alpha) / (4.0 * w),
}


@dataclass(frozen=True)
class ConditionReport:
    """Pass/fail of one of the CONDITIONS over both walls.

    ``margin`` is the worst (smallest) value of rhs - |kappa| over all
    samples; negative means the condition fails there.
    """

    name: str
    passed: bool
    margin: float
    worst_y1: float
    worst_side: Side
    n_fail: int
    n_samples: int

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": int(self.passed), "worst_side": self.worst_side.value}


def check_conditions(walls: Walls) -> dict[str, ConditionReport]:
    """Every CONDITIONS entry, pointwise at all 2 n samples; ties go to the bottom wall."""
    abs_kappa = np.abs(walls.kappa)
    reports = {}
    for name, rhs in CONDITIONS.items():
        margin = rhs(walls.alpha, walls.ds_weight) - abs_kappa
        side, i = np.unravel_index(np.argmin(margin), margin.shape)
        n_fail = int(np.count_nonzero(margin < 0))
        reports[name] = ConditionReport(
            name=name, passed=(n_fail == 0), margin=float(margin[side, i]),
            worst_y1=float(walls.y1[i]), worst_side=tuple(Side)[side],
            n_fail=n_fail, n_samples=margin.size,
        )
    return reports
