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

The module also evaluates the two pointwise curvature/friction smallness
conditions the heat-transport bounds require:

    |kappa| <= 2 alpha + min{1, sqrt(alpha)} / (4 sqrt(1 + h'^2))
    |kappa| <= alpha                  (strong variant)
    |kappa| <= 2 alpha + sqrt(alpha) / (4 sqrt(1 + h'^2))   (general variant)

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


class Theorem2Variant(Enum):
    KAPPA_LEQ_ALPHA = "kappa_leq_alpha"
    GENERAL = "general"


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


def flat_profile(gamma: float = 1.0, mean_offset: float = 0.0) -> FourierSeries:
    return FourierSeries(gamma=gamma, offset=mean_offset)


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
class BoundaryData:
    """Sampled per-wall boundary fields at n1 equispaced y1 points.

    ``alpha_dot`` and ``kappa_dot`` are arc-length derivatives, stored as
    (d/dy1)/sqrt(1+h'^2).  ``ds_weight`` is the line element sqrt(1+h'^2),
    so a wall integral is sum(f * ds_weight) * dy1.  ``alpha_min`` is the
    minimum of alpha over *both* walls.
    """

    side: Side
    gamma: float
    y1: np.ndarray
    alpha: np.ndarray
    alpha_dot: np.ndarray
    kappa: np.ndarray
    kappa_dot: np.ndarray
    normal: np.ndarray  # (n1, 2)
    tangent: np.ndarray  # (n1, 2)
    ds_weight: np.ndarray
    alpha_min: float

    @property
    def n_samples(self) -> int:
        return self.y1.size

    @property
    def dy1(self) -> float:
        return self.gamma / self.y1.size

    def line_integral(self, integrand: np.ndarray) -> float:
        return float(np.sum(integrand * self.ds_weight) * self.dy1)


def boundary_frames(
    profile: FourierSeries,
    n1: int,
    alpha_spec: FourierSeries,
    alpha_spec_top: FourierSeries | None = None,
) -> tuple[BoundaryData, BoundaryData]:
    """Sample both wall frames at n1 equispaced y1 points.

    The friction coefficient may differ between the walls; with a single
    series it is used on both.  Fails if any sampled alpha is negative.
    """
    if n1 < 4:
        raise ValueError(f"n1 must be at least 4, got {n1}")
    if alpha_spec_top is None:
        alpha_spec_top = alpha_spec

    y1 = np.arange(n1) * (profile.gamma / n1)
    hp = np.asarray(profile.evaluate(y1, 1))
    w = np.sqrt(1.0 + hp**2)
    kb = np.asarray(_curvature_bottom(profile, y1))
    kb_dot = np.asarray(_curvature_dot_bottom(profile, y1)) / w

    normal_top = np.stack([-hp / w, 1.0 / w], axis=1)
    normal_bot = -normal_top
    # tau = n rotated by +90 degrees: (x, y) -> (-y, x)
    tangent_top = np.stack([-normal_top[:, 1], normal_top[:, 0]], axis=1)
    tangent_bot = np.stack([-normal_bot[:, 1], normal_bot[:, 0]], axis=1)

    alphas = {}
    for side, spec in ((Side.BOTTOM, alpha_spec), (Side.TOP, alpha_spec_top)):
        a = np.asarray(spec.evaluate(y1))
        if np.min(a) < 0.0:
            raise ValueError(
                f"friction coefficient is negative on the {side.value} wall "
                f"(min {np.min(a):.6g}); alpha >= 0 is required"
            )
        alphas[side] = (a, np.asarray(spec.evaluate(y1, 1)) / w)

    alpha_min = float(min(np.min(alphas[Side.BOTTOM][0]), np.min(alphas[Side.TOP][0])))

    bottom = BoundaryData(
        side=Side.BOTTOM, gamma=profile.gamma, y1=y1,
        alpha=alphas[Side.BOTTOM][0], alpha_dot=alphas[Side.BOTTOM][1],
        kappa=kb, kappa_dot=kb_dot,
        normal=normal_bot, tangent=tangent_bot, ds_weight=w, alpha_min=alpha_min,
    )
    top = BoundaryData(
        side=Side.TOP, gamma=profile.gamma, y1=y1,
        alpha=alphas[Side.TOP][0], alpha_dot=alphas[Side.TOP][1],
        kappa=-kb, kappa_dot=-kb_dot,
        normal=normal_top, tangent=tangent_top, ds_weight=w, alpha_min=alpha_min,
    )
    return bottom, top


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


def boundary_norms(profile: FourierSeries, bottom: BoundaryData, top: BoundaryData) -> BoundaryNorms:
    ak_b = bottom.alpha + bottom.kappa
    ak_t = top.alpha + top.kappa
    ak_dot_b = bottom.alpha_dot + bottom.kappa_dot
    ak_dot_t = top.alpha_dot + top.kappa_dot
    ak_inf = float(max(np.max(np.abs(ak_b)), np.max(np.abs(ak_t))))
    ak_dot_inf = float(max(np.max(np.abs(ak_dot_b)), np.max(np.abs(ak_dot_t))))
    hmin, hmax = profile.extrema_range()
    return BoundaryNorms(
        alpha_min=bottom.alpha_min,
        kappa_inf=float(max(np.max(np.abs(bottom.kappa)), np.max(np.abs(top.kappa)))),
        alpha_plus_kappa_inf=ak_inf,
        alpha_plus_kappa_w1inf=max(ak_inf, ak_dot_inf),
        alpha_dot_inf=float(max(np.max(np.abs(bottom.alpha_dot)), np.max(np.abs(top.alpha_dot)))),
        kappa_dot_inf=float(max(np.max(np.abs(bottom.kappa_dot)), np.max(np.abs(top.kappa_dot)))),
        hprime_inf=float(np.max(np.abs(profile.evaluate(bottom.y1, 1)))) if not profile.is_flat else 0.0,
        height_range=hmax - hmin,
        gamma=profile.gamma,
        n_samples=bottom.n_samples,
    )


@dataclass(frozen=True)
class ConditionReport:
    """Pointwise pass/fail of a curvature/friction condition over both walls.

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
    norms: BoundaryNorms | None = None

    def to_dict(self) -> dict:
        d = {
            "condition": self.name,
            "passed": int(self.passed),
            "margin": self.margin,
            "worst_y1": self.worst_y1,
            "worst_side": self.worst_side.value,
            "n_fail": self.n_fail,
            "n_samples": self.n_samples,
        }
        if self.norms is not None:
            d.update(asdict(self.norms))
        return d


def _condition_report(name: str, rhs_b, rhs_t, bottom: BoundaryData, top: BoundaryData,
                      norms: BoundaryNorms | None = None) -> ConditionReport:
    margin_b = rhs_b - np.abs(bottom.kappa)
    margin_t = rhs_t - np.abs(top.kappa)
    i_b, i_t = int(np.argmin(margin_b)), int(np.argmin(margin_t))
    if margin_b[i_b] <= margin_t[i_t]:
        worst, side, i = float(margin_b[i_b]), Side.BOTTOM, i_b
    else:
        worst, side, i = float(margin_t[i_t]), Side.TOP, i_t
    n_fail = int(np.count_nonzero(margin_b < 0)) + int(np.count_nonzero(margin_t < 0))
    return ConditionReport(
        name=name, passed=(n_fail == 0), margin=worst,
        worst_y1=float(bottom.y1[i]), worst_side=side,
        n_fail=n_fail, n_samples=2 * bottom.n_samples, norms=norms,
    )


def check_condition_ec(bottom: BoundaryData, top: BoundaryData) -> ConditionReport:
    """|kappa| <= 2 alpha + min{1, sqrt(alpha)} / (4 sqrt(1+h'^2)), pointwise."""
    if bottom.n_samples != top.n_samples:
        raise ValueError("bottom/top sample counts differ")
    rhs_b = 2.0 * bottom.alpha + np.minimum(1.0, np.sqrt(bottom.alpha)) / (4.0 * bottom.ds_weight)
    rhs_t = 2.0 * top.alpha + np.minimum(1.0, np.sqrt(top.alpha)) / (4.0 * top.ds_weight)
    return _condition_report("ec", rhs_b, rhs_t, bottom, top)


def check_condition_theorem2(
    bottom: BoundaryData,
    top: BoundaryData,
    variant: Theorem2Variant,
    profile: FourierSeries | None = None,
) -> ConditionReport:
    """Pointwise curvature condition for the interpolation bounds, plus norms.

    Variants: ``kappa_leq_alpha`` checks |kappa| <= alpha; ``general`` checks
    |kappa| <= 2 alpha + sqrt(alpha)/(4 sqrt(1+h'^2)).  The report carries the
    sup-norms the bound constants need.
    """
    if bottom.n_samples != top.n_samples:
        raise ValueError("bottom/top sample counts differ")
    if variant is Theorem2Variant.KAPPA_LEQ_ALPHA:
        rhs_b, rhs_t = bottom.alpha, top.alpha
    elif variant is Theorem2Variant.GENERAL:
        rhs_b = 2.0 * bottom.alpha + np.sqrt(bottom.alpha) / (4.0 * bottom.ds_weight)
        rhs_t = 2.0 * top.alpha + np.sqrt(top.alpha) / (4.0 * top.ds_weight)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    norms = None
    if profile is not None:
        norms = boundary_norms(profile, bottom, top)
    return _condition_report(f"theorem2_{variant.value}", rhs_b, rhs_t, bottom, top, norms)
