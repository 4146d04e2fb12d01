"""Fixed-point iteration on the frozen law coefficient, Anderson-accelerated.

The map iterated is T(x): assemble the mixed system with the coefficient
frozen at the element-midpoint speeds of the flux in x, solve it, and stack
the solution (``Solution.stacked``: fluxes, element pressures, junction
pressures). One iteration means one assemble-and-solve. Each cycle solves at
the speeds of the current iterate x̃ and stops once the relative fixed-point
residual ‖T(x̃) − x̃‖ / ‖T(x̃)‖ drops to the tolerance; it returns that solve,
so the result is always a real, mass-conservative solve of a frozen system.
One more frozen step from it moves the result by about L times the
tolerance, L being the contraction factor of T.

The next iterate is type-II Anderson mixing over the last ``depth``
differences of residuals and images (Walker & Ni, SIAM J. Numer. Anal. 49,
2011), computed by ``AndersonMixer``, which the outer tracking loop applies
to the interface positions too. With ``depth=0`` it is T(x̃) itself: plain
Picard iteration, whose residual is the relative update between consecutive
solves. The first solve runs at speed 0 and has no iterate to compare
against, so ``update_history`` holds one residual per later cycle.

A configuration whose active law branches are all speed-independent is
linear, so the first solve is exact and the loop stops there with a recorded
zero residual.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .fem import RegimeField, Solution, assemble, frozen_speeds, solve_saddle
from .laws import AdaptiveLaw, Regime
from .meshing import Mesh

# Singular values of the residual-difference matrix below this fraction of
# the largest are dropped from the mixing least-squares problem: near-parallel
# differences would otherwise produce huge, cancelling coefficients.
MIXING_RCOND = 1e-10


class AndersonMixer:
    """Type-II Anderson mixing of a fixed-point iteration x ↦ T(x).

    ``step(residual, image)`` takes the image T(x) of the current iterate x
    and its residual T(x) − x, and returns the next iterate: the image minus
    the stored image differences weighted by the least-squares fit of the
    stored residual differences to the residual. At most ``depth``
    differences of consecutive (residual, image) pairs are kept. ``mixing``
    tells whether one is stored; while none is, ``step`` returns ``image``
    unchanged, so ``depth=0`` is the plain iteration.
    """

    def __init__(self, depth: int):
        # (residual difference, image difference) pairs; maxlen 0 keeps none
        self._differences: deque = deque(maxlen=depth)
        self._last: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def mixing(self) -> bool:
        """Whether a difference is stored, so ``step`` mixes, not returns the image."""
        return bool(self._differences)

    def step(self, residual: np.ndarray, image: np.ndarray) -> np.ndarray:
        if self._last is not None:
            self._differences.append(
                (residual - self._last[0], image - self._last[1])
            )
        self._last = (residual, image)
        if not self.mixing:
            return image
        d_residual, d_image = (np.column_stack(d) for d in zip(*self._differences))
        gamma = np.linalg.lstsq(d_residual, residual, rcond=MIXING_RCOND)[0]
        return image - d_image @ gamma

    def restart(self, keep_last: bool = False) -> None:
        """Forget the stored differences, and the last pair unless ``keep_last``."""
        self._differences.clear()
        if not keep_last:
            self._last = None


@dataclass(frozen=True)
class PicardSettings:
    """Stopping rule and acceleration of the inner fixed-point loop.

    ``tolerance`` bounds the relative fixed-point residual of the returned
    solve. ``depth`` is the number of residual differences Anderson mixing
    keeps; 0 is plain Picard iteration.
    """

    tolerance: float = 1e-4
    max_iterations: int = 50
    depth: int = 5

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if self.depth < 0:
            raise ValueError("mixing depth must be non-negative")


@dataclass
class PicardResult:
    """Outcome of one inner solve.

    ``update_history`` is the residual history: the relative fixed-point
    residual of every cycle after the first, the last entry being that of
    ``solution``.
    """

    solution: Solution
    iterations: int
    update_history: list[float] = field(default_factory=list)
    converged: bool = False


def _is_linear(labels: np.ndarray, law: AdaptiveLaw) -> bool:
    """Whether the law branch of every label present is speed-independent."""
    return all(law.branch_for(Regime(r)).slope == 0 for r in set(labels.tolist()))


def picard_solve(
    mesh: Mesh,
    regimes: RegimeField,
    law: AdaptiveLaw,
    settings: PicardSettings = PicardSettings(),
) -> PicardResult:
    """Solve the fixed-configuration problem, iterating on the frozen speed.

    The sources and boundary conditions are those of ``mesh.network``. Returns
    after the relative fixed-point residual of a solve drops to the tolerance
    or the iteration cap is hit; non-convergence is reported through
    ``converged``, not raised. Singular systems propagate.
    """
    linear = _is_linear(regimes.on(mesh), law)
    speeds = 0.0
    iterate: np.ndarray | None = None
    mixer = AndersonMixer(settings.depth)
    history: list[float] = []
    converged = False
    for iterations in range(1, settings.max_iterations + 1):
        solution = solve_saddle(assemble(mesh, regimes, law, speeds))
        if linear:
            history, converged = [0.0], True
            break
        image = solution.stacked()
        if iterate is None:
            iterate = image
        else:
            residual = image - iterate
            scale = max(float(np.linalg.norm(image)), 1e-300)
            history.append(float(np.linalg.norm(residual)) / scale)
            if history[-1] <= settings.tolerance:
                converged = True
                break
            iterate = mixer.step(residual, image)
        speeds = frozen_speeds(mesh, iterate)
    return PicardResult(
        solution=solution,
        iterations=iterations,
        update_history=history,
        converged=converged,
    )
