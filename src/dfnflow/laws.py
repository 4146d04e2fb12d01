"""Adaptive velocity-pressure laws and the associated dissipation potential.

A law pair consists of a low-speed and a high-speed branch, each of the form
coefficient(speed) * velocity with the coefficient b0 + b1 * speed (Darcy for
b1 = 0, Darcy-Forchheimer otherwise), selected by a threshold speed.
Internally all speeds are divided by the threshold, so branch evaluation
happens in normalized variables where the regime switch sits at speed 1; law
parameters are supplied in physical units and rescaled once per law.

The piecewise potential glues the antiderivatives of the two branch
coefficients, normalized to vanish at the switch. Its convexity is decided by
the sign of the coefficient jump at the switch.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class Regime(enum.IntEnum):
    LOW = 0
    HIGH = 1


@dataclass(frozen=True)
class LawBranch:
    """Coefficient affine in speed: phi(a) = intercept + slope * sqrt(a).

    ``a`` is the squared speed; a zero slope is the speed-independent Darcy
    law, a positive one Darcy-Forchheimer. The intercept must be positive and
    the slope non-negative, so phi >= intercept > 0 at every speed, speed 0
    included, where every inner solve starts.
    """

    intercept: float
    slope: float = 0.0

    def __post_init__(self):
        got = f"got ({self.intercept}, {self.slope})"
        if not (math.isfinite(self.intercept) and math.isfinite(self.slope)):
            raise ValueError(f"law branch needs finite parameters; {got}")
        if not (self.intercept > 0 and self.slope >= 0):
            raise ValueError(
                f"law branch intercept must be positive and slope non-negative; {got}"
            )

    def phi(self, a):
        return self.intercept + self.slope * np.sqrt(np.asarray(a, dtype=float))

    def potential(self, a):
        """Antiderivative of phi/2 in squared speed, vanishing at a = 1."""
        a = np.asarray(a, dtype=float)
        return self.intercept * (a - 1.0) / 2.0 + self.slope * (a**1.5 - 1.0) / 3.0

    def potential_coefficients(self) -> tuple[float, float, float]:
        """(c0, c1, c15) with potential(a) = c0 + c1*a + c15*a**1.5."""
        return (
            -self.intercept / 2.0 - self.slope / 3.0,
            self.intercept / 2.0,
            self.slope / 3.0,
        )


class NormalizedBranchError(ValueError):
    """A law's ``low`` or ``high`` branch breaks ``LawBranch``'s rule once normalized."""

    def __init__(self, branch: str, error: ValueError):
        super().__init__(f"{error} once normalized by the threshold")
        self.branch = branch


@dataclass(frozen=True)
class AdaptiveLaw:
    """Low/high law pair with a switching threshold on the speed magnitude.

    ``low`` and ``high`` are given in physical units; derived attributes are
    evaluated after normalizing speeds by the threshold, so ``lambda1`` and
    ``lambda2`` are the two coefficients exactly at the switch.

    ``potential(a)`` is the dissipation potential in normalized squared
    speed: the low branch potential for a <= 1 and the high branch one for
    a > 1, both vanishing at a = 1 so that it is continuous at the switch.
    ``potential_physical`` rescales it to physical squared speeds, the form
    entering the energy functional of the flow problem.
    """

    low: LawBranch
    high: LawBranch
    threshold: float = 1.0
    low_normalized: LawBranch = field(init=False, repr=False, compare=False)
    high_normalized: LawBranch = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.threshold < math.inf:
            raise ValueError(f"threshold speed must be positive and finite, got {self.threshold}")
        for name in ("low", "high"):
            branch = getattr(self, name)
            try:
                normalized = LawBranch(branch.intercept, branch.slope * self.threshold)
            except ValueError as exc:
                raise NormalizedBranchError(name, exc) from None
            object.__setattr__(self, f"{name}_normalized", normalized)

    @property
    def lambda1(self) -> float:
        return float(self.low_normalized.phi(1.0))

    @property
    def lambda2(self) -> float:
        return float(self.high_normalized.phi(1.0))

    def branch_for(self, regime: Regime) -> LawBranch:
        return self.low_normalized if regime == Regime.LOW else self.high_normalized

    def phi(self, a):
        a = np.asarray(a, dtype=float)
        return np.where(a <= 1.0, self.low_normalized.phi(a), self.high_normalized.phi(a))

    def potential(self, a):
        a = np.asarray(a, dtype=float)
        return np.where(
            a <= 1.0, self.low_normalized.potential(a), self.high_normalized.potential(a)
        )

    def potential_physical(self, a_phys):
        """Potential of the physical squared speed, scaled by threshold**2."""
        u2 = self.threshold**2
        return u2 * self.potential(np.asarray(a_phys, dtype=float) / u2)


def eval_lambda_coefficient(
    law: AdaptiveLaw, speed: float | np.ndarray, regime: Regime | np.ndarray
) -> float | np.ndarray:
    """Coefficient multiplying the velocity at the given speed and regime.

    The regime is an explicit input: the caller (normally the interface
    tracker) owns regime assignment, and in particular a speed above the
    threshold may be evaluated on the low branch while a configuration is
    being iterated. Speeds and regimes may be scalars or arrays of one
    shape; scalar arguments give a float, arrays give an array.
    """
    speed = np.asarray(speed, dtype=float)
    if (speed < 0).any():
        raise ValueError(f"speed must be nonnegative, got {speed.min()}")
    a = (speed / law.threshold) ** 2
    # comparing with a plain int spares numpy probing the enum member
    coeff = np.where(
        np.asarray(regime) == Regime.LOW.value,
        law.low_normalized.phi(a),
        law.high_normalized.phi(a),
    )
    return float(coeff) if coeff.ndim == 0 else coeff

