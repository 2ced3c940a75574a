"""Central potential models V(r) and their admissibility diagnostics.

Units: hbar^2/2m = 1, so V carries dimension 1/length^2 and the radial
equation reads u'' = [l(l+1)/r^2 + V(r) - k^2] u.

Four built-in shapes:

* ``square_well``:       V(r) = v0 for r <= a, else 0
* ``gaussian``:          V(r) = v0 exp(-r^2/a^2)
* ``exponential``:       V(r) = v0 exp(-r/a)
* ``truncated_coulomb``: V(r) = v0 min(1/r, 1/rc) exp(-r/a)

The factorisation phi with phi^2 = V uses the +i branch where V < 0
(phi = i sqrt(|V|)); phi only ever enters quadratically, so the branch
choice drops out of every observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from multiscat.specfun import gauss_panels

KINDS = ("square_well", "gaussian", "exponential", "truncated_coulomb")

#: |V| below this threshold counts as "outside the effective support".
SUPPORT_CUTOFF = 1e-12


class QuadratureError(RuntimeError):
    """A quadrature's error estimate exceeds the requested accuracy."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


@dataclass(frozen=True)
class Potential:
    kind: str
    v0: float
    a: float
    rc: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}; choose from {KINDS}")
        if self.a <= 0:
            raise ValueError("range parameter a must be positive")
        if self.kind == "truncated_coulomb":
            if self.rc is None or self.rc <= 0:
                raise ValueError("truncated_coulomb requires a positive core radius rc")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, r):
        """V(r) for r >= 0 (scalar or array); exact 0 outside compact support."""
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("radius must be nonnegative")
        if self.kind == "square_well":
            out = np.where(r <= self.a, self.v0, 0.0)
        elif self.kind == "gaussian":
            out = self.v0 * np.exp(-((r / self.a) ** 2))
        elif self.kind == "exponential":
            out = self.v0 * np.exp(-r / self.a)
        else:  # truncated_coulomb; the 1/r core is capped at 1/rc
            inv = 1.0 / np.maximum(r, self.rc)
            out = self.v0 * inv * np.exp(-r / self.a)
        return out if out.ndim else float(out)

    def phi(self, r):
        """Factor phi(r) with phi^2 = V exactly; i*sqrt(|V|) where V < 0."""
        v = np.asarray(self.evaluate(r), dtype=float)
        out = np.where(v >= 0, np.sqrt(np.clip(v, 0, None)) + 0j,
                       1j * np.sqrt(np.clip(-v, 0, None)))
        return out if out.ndim else complex(out)

    def effective_radius(self) -> float:
        """Radius beyond which |V| < SUPPORT_CUTOFF (exact support for the well)."""
        if self.v0 == 0:
            return 0.0
        av0 = abs(self.v0)
        if self.kind == "square_well":
            return self.a
        if self.kind == "gaussian":
            return self.a * np.sqrt(max(np.log(av0 / SUPPORT_CUTOFF), 0.0))
        if self.kind == "exponential":
            return self.a * max(np.log(av0 / SUPPORT_CUTOFF), 0.0)
        # capped coulomb tail: solve v0 e^{-r/a}/r = SUPPORT_CUTOFF by fixed point
        r = self.a * max(np.log(av0 / SUPPORT_CUTOFF), 1.0)
        for _ in range(60):
            r_new = self.a * np.log(av0 / (SUPPORT_CUTOFF * max(r, self.rc)))
            if abs(r_new - r) < 1e-12 * max(r, 1.0):
                break
            r = max(r_new, self.rc)
        return max(r, self.rc)

    def breakpoints(self) -> list[float]:
        """Radii where V or its derivative jumps (radial integrators split here)."""
        if self.kind == "square_well":
            return [self.a]
        if self.kind == "truncated_coulomb":
            return [self.rc]
        return []


# -- constructors ------------------------------------------------------------

def square_well(v0: float, a: float) -> Potential:
    return Potential("square_well", v0, a)


def gaussian(v0: float, a: float) -> Potential:
    return Potential("gaussian", v0, a)


def exponential(v0: float, a: float) -> Potential:
    return Potential("exponential", v0, a)


def truncated_coulomb(v0: float, a: float, rc: float) -> Potential:
    return Potential("truncated_coulomb", v0, a, rc)


@dataclass(frozen=True)
class Scatterer:
    """A potential planted at a point in space."""

    center: tuple[float, float, float]
    potential: Potential

    def __post_init__(self):
        c = tuple(float(x) for x in self.center)
        object.__setattr__(self, "center", c)

    @property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)


@dataclass(frozen=True)
class RollnikDiagnostics:
    l1_norm: float          # integral of |V| over R^3
    l2_norm: float          # sqrt of the integral of |V|^2
    admissible: bool
    l1_residual: float
    l2_residual: float


#: Gauss-Legendre nodes per panel of the Rollnik rule, and of the coarser
#: rule whose difference from it is the error estimate.
_ROLLNIK_NODES = (96, 64)
#: Largest error estimate accepted, relative to the value.
_ROLLNIK_REL_TOL = 1e-9


def rollnik_check(p: Potential) -> RollnikDiagnostics:
    """Integrability diagnostics: absolute and square integrability of V.

    Both norms are radial integrals over [0, r_max], r_max the effective
    support radius (at least a), by a composite Gauss-Legendre rule on the
    panels between 0, the breakpoints, r_max/2 and r_max, so that no panel
    straddles a jump of V or of its derivative.  The value is the 96-node
    rule per panel; its error estimate (``l1_residual``, ``l2_residual``,
    the latter for the integral of |V|^2) is the difference from the
    64-node rule, and QuadratureError is raised when it exceeds
    max(_ROLLNIK_REL_TOL * |value|, 1e-10).  A potential is admissible
    when both norms are finite; the capped-Coulomb core keeps |V|^2 ~
    r^{-2}, which is locally integrable in 3D, so all four built-in kinds
    qualify.
    """
    r_max = max(p.effective_radius(), p.a)
    inner = sorted(x for x in set(p.breakpoints()) | {r_max / 2} if 0 < x < r_max)
    edges = [0.0] + inner + [r_max]
    sums = []
    for n in _ROLLNIK_NODES:
        r, w = gauss_panels(edges, n)
        v = np.abs(p.evaluate(r))
        w = 4.0 * np.pi * r * r * w
        sums.append((w @ v, w @ (v * v)))
    (l1, l2sq), (l1_lo, l2sq_lo) = sums
    e1, e2 = abs(l1 - l1_lo), abs(l2sq - l2sq_lo)
    for val, err in ((l1, e1), (l2sq, e2)):
        if err > max(_ROLLNIK_REL_TOL * abs(val), 1e-10):
            raise QuadratureError(
                f"Rollnik quadrature did not converge (residual {err:.2e})",
                residual=err)
    l1 = float(l1)
    l2 = float(np.sqrt(max(l2sq, 0.0)))
    return RollnikDiagnostics(
        l1_norm=l1, l2_norm=l2,
        admissible=bool(np.isfinite(l1) and np.isfinite(l2)),
        l1_residual=float(e1), l2_residual=float(e2))


def pair_gap(s1: Scatterer, s2: Scatterer) -> float:
    """Minimal distance between the two effective supports (negative = overlap)."""
    d = float(np.linalg.norm(s1.center_array - s2.center_array))
    return d - s1.potential.effective_radius() - s2.potential.effective_radius()
