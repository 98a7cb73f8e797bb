"""Nondimensionalization and the curvature/friction scaling with Ra.

A dimensional cell of height H, temperature gap dT, viscosity nu, thermal
diffusivity kappa_t, expansion coefficient alpha_exp and gravity g maps to

    Ra = alpha_exp * g * dT * H^3 / (nu * kappa_t),      Pr = nu / kappa_t.

Rescaling lengths by H divides the physical wall curvature by H, so the
nondimensional curvature norm of a *fixed* wall shape grows like

    ||kappa_hat||_W1inf  ~  H^2 + H      (H^2 at leading order).

Trading height against temperature gap with

    H2/H1 = (dT2/dT1)^(rho / (2 - 3 rho))

then realizes any target power law ||kappa_hat|| ~ Ra^rho at leading order;
rho = 2/3 is the pole of the exponent and is rejected.  Only ratios are
returned: the proportionality constants depend on the fixed profile.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DimensionalSetup:
    height_gap: float          # H
    temp_gap: float            # dT
    viscosity: float           # nu
    thermal_diffusivity: float
    expansion_coeff: float
    gravity: float

    def __post_init__(self):
        for name in ("height_gap", "temp_gap", "viscosity", "thermal_diffusivity",
                     "expansion_coeff", "gravity"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")


def nondimensionalize(setup: DimensionalSetup) -> tuple[float, float]:
    """(Ra, Pr) of a dimensional setup."""
    ra = (setup.expansion_coeff * setup.gravity * setup.temp_gap * setup.height_gap**3
          / (setup.viscosity * setup.thermal_diffusivity))
    pr = setup.viscosity / setup.thermal_diffusivity
    return ra, pr


@dataclass(frozen=True)
class ScalingComparison:
    ra_ratio: float
    kappa_ratio_leading: float   # (H2/H1)^2
    kappa_ratio_exact: float     # (H2^2 + H2) / (H1^2 + H1)


def curvature_scaling(setup1: DimensionalSetup, setup2: DimensionalSetup) -> ScalingComparison:
    """Ra and curvature-norm ratios of two cells sharing one wall shape."""
    ra1, _ = nondimensionalize(setup1)
    ra2, _ = nondimensionalize(setup2)
    h1, h2 = setup1.height_gap, setup2.height_gap
    return ScalingComparison(
        ra_ratio=ra2 / ra1,
        kappa_ratio_leading=(h2 / h1) ** 2,
        kappa_ratio_exact=(h2**2 + h2) / (h1**2 + h1),
    )


def ratio_for_target_exponent(rho: float, temp_ratio: float) -> float:
    """Height ratio realizing ||kappa_hat|| ~ Ra^rho for a given dT ratio."""
    if not temp_ratio > 0.0:
        raise ValueError(f"temp_ratio must be positive, got {temp_ratio}")
    if abs(2.0 - 3.0 * rho) < 1e-14:
        raise ValueError("rho = 2/3 is the pole of the exponent rho/(2-3rho); "
                         "no finite height ratio realizes it")
    return temp_ratio ** (rho / (2.0 - 3.0 * rho))
