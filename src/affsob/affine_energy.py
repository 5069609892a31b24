"""Affine-invariant energies built from directional energy profiles.

The plain semi-norm integrates directional energies over the sphere; the
affine energy replaces that arithmetic mean with a power-type mean whose
exponent -N/(sp) makes the result invariant under volume-preserving linear
substitutions.  Both are instances of one construction: push the profile
through a bijection Psi, average, pull back, and scale by the sphere area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import NumericalFailureError, SmoothnessParams
from .quadrature import QuadratureBundle
from .seminorms import DirectionalEnergyProfile, _profile_for


@dataclass(frozen=True)
class PsiSpec:
    """Bijection of [0, inf] used to aggregate a directional profile.

    psi and psi_inverse are vectorized evaluators on (0, inf).
    singular_at_zero marks specs with psi_inverse(0) = inf, which is the
    extended-arithmetic convention that sends profiles with a dead direction
    to energy zero.
    """

    psi: Callable[[np.ndarray], np.ndarray]
    psi_inverse: Callable[[np.ndarray], np.ndarray]
    singular_at_zero: bool = False

    @classmethod
    def identity(cls) -> "PsiSpec":
        return cls(lambda x: x, lambda x: x)

    @classmethod
    def power(cls, s: float, p: float, dimension: int) -> "PsiSpec":
        """x -> x^(-sp/N), the exponent that buys affine invariance."""
        expo = -s * p / dimension
        return cls(lambda x: np.asarray(x, dtype=float) ** expo,
                   lambda x: np.asarray(x, dtype=float) ** (1.0 / expo),
                   singular_at_zero=True)


@dataclass(frozen=True)
class EnergyResult:
    """Value of an aggregated energy plus its profile diagnostics.

    degenerate is set exactly when some profile node carried zero energy (or
    the aggregation overflowed, which is the same thing at float precision);
    under the power-type psi that sends the value to 0.  A field in the
    space has such a node only when it is zero, as the sum of a Gaussian
    and its negative is.  tail_budget is the sphere integral of the
    profile's tail interval: on the swept path the radial head model and
    far field only, not the box, sphere or panel error (1e4 to 1e10 times
    larger at coarse tiers); at even p, where the energies are closed
    forms, a bound on their rounding error.
    """

    value: float
    degenerate: bool
    tail_budget: float


def _aggregate(profile: DirectionalEnergyProfile, psi: PsiSpec,
               params: SmoothnessParams) -> EnergyResult:
    area = profile.sphere.area
    tail = profile.tail_budget()
    if psi.singular_at_zero and profile.degenerate:
        return EnergyResult(0.0, True, tail)
    with np.errstate(divide="ignore", over="ignore"):
        transformed = psi.psi_inverse(profile.values)
    if not np.all(np.isfinite(transformed)):
        if psi.singular_at_zero:
            return EnergyResult(0.0, True, tail)
        raise NumericalFailureError("psi_inverse undefined at a profile value")
    mean = profile.sphere.integrate(transformed) / area
    power_p = area * float(psi.psi(np.asarray(mean)))
    if not np.isfinite(power_p) or power_p < 0:
        raise NumericalFailureError("aggregated energy is not finite")
    return EnergyResult(power_p ** (1.0 / params.p), profile.degenerate, tail)


def psi_energy(field, params: SmoothnessParams, psi: PsiSpec,
               quads: QuadratureBundle, *,
               profile: DirectionalEnergyProfile | None = None) -> EnergyResult:
    """Energy with p-th power  sigma_N * psi(mean of psi_inverse(D(f, .))).

    psi = identity recovers the semi-norm (difference branch) or its
    sphere-integrated variant (derivative branch); psi = the -sp/N power
    recovers the affine energy.
    """
    return _aggregate(_profile_for(field, params, quads, profile), psi, params)


def affine_energy(field, params: SmoothnessParams, quads: QuadratureBundle, *,
                  profile: DirectionalEnergyProfile | None = None
                  ) -> EnergyResult:
    """The affine-invariant energy

        sigma_N^{(N+sp)/(Np)} * (int_S D(f, xi)^{-N/(sp)} dsigma)^{-s/N}.

    A profile with a dead direction yields value 0 with the degenerate flag
    (the sphere integral diverges under the negative power).
    """
    spec = PsiSpec.power(params.s, params.p, quads.dimension)
    return _aggregate(_profile_for(field, params, quads, profile), spec,
                      params)


def jensen_gap(field, params: SmoothnessParams, quads: QuadratureBundle, *,
               profile: DirectionalEnergyProfile | None = None) -> float:
    """Jensen's envelope (int_S D)^(1/p), the semi-norm on the difference
    branch and its sphere-integrated variant on the derivative branch,
    minus the affine energy.  Nonnegative up to quadrature noise, and zero
    exactly when the profile is constant, i.e. for radial fields."""
    profile = _profile_for(field, params, quads, profile)
    energy = affine_energy(field, params, quads, profile=profile)
    return profile.integrate() ** (1.0 / params.p) - energy.value
