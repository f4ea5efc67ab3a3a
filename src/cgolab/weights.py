"""The holomorphic phase weight, its critical point, and stationary phase.

The lab's one weight is the quadratic Phi(z) = (z - c)^2 = phi + i*psi.
Its imaginary part psi is a harmonic saddle with its one critical point
at c, nondegenerate because Phi'' = 2 everywhere; that saddle drives the
oscillatory-integral asymptotics.  The paper's hypotheses on Phi relative
to a boundary partition are met by the full_operator Carleman probe's
fixed setup (``harness.full_operator_setup``).
"""

from __future__ import annotations

import cmath
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridError, LabError
from .fields import as_data
from .grid import Grid2D, check_tau


@dataclass(frozen=True)
class HolomorphicWeight:
    """The quadratic weight Phi(z) = (z - c)^2; ``weight_catalog`` checks c."""

    c: complex

    def Phi(self, z):
        return (np.asarray(z, dtype=complex) - self.c) ** 2

    def dPhi(self, z):
        return 2.0 * (np.asarray(z, dtype=complex) - self.c)

    def phi(self, z):
        return self.Phi(z).real

    def psi(self, z):
        return self.Phi(z).imag


@dataclass(frozen=True)
class CriticalPoint:
    """Zero of dPhi/dz, with psi and the Hessian of psi there."""

    location: complex
    psi_value: float
    hessian: np.ndarray


def weight_catalog(kind: str, params: dict) -> HolomorphicWeight:
    """The quadratic weight from a finite center ``c`` in the closed unit square."""
    if kind != "quadratic":
        raise LabError(f"unknown weight kind {kind!r}; the catalog holds quadratic")
    params = dict(params)
    if set(params) != {"c"}:
        raise LabError(f"quadratic weight takes the parameter c; "
                       f"got {', '.join(sorted(map(str, params))) or 'none'}")
    c = params["c"]
    if (not isinstance(c, numbers.Number) or isinstance(c, bool)
            or not cmath.isfinite(c)):
        raise LabError(f"quadratic weight parameter c must be a finite number, "
                       f"got {c!r}")
    c = complex(c)
    if not (0.0 <= c.real <= 1.0 and 0.0 <= c.imag <= 1.0):
        raise LabError(f"quadratic center {c} outside the closed domain")
    return HolomorphicWeight(c=c)


def find_critical_points(w: HolomorphicWeight, grid: Grid2D) -> list[CriticalPoint]:
    """The critical point c of Phi if it lies in the closed rectangle, else none."""
    z = w.c
    if not (grid.x_min <= z.real <= grid.x_max and grid.y_min <= z.imag <= grid.y_max):
        return []
    # Hessian of psi: [[Im Phi'', Re Phi''], [Re Phi'', -Im Phi'']] with Phi'' = 2
    return [CriticalPoint(location=z, psi_value=float(w.psi(np.asarray(z))),
                          hessian=np.array([[0.0, 2.0], [2.0, 0.0]]))]


def resolution_nodes_per_period(w: HolomorphicWeight, grid: Grid2D, tau: float) -> float:
    """Grid nodes per oscillation period of exp(2 i tau psi), worst case."""
    check_tau(tau)
    dphi = np.max(np.abs(w.dPhi(grid.nodes_z())))  # |grad psi| = |dPhi|
    wavelength = 2 * np.pi / (2 * tau * dphi)  # phase gradient 2 tau |dPhi|
    return wavelength / max(grid.h_x, grid.h_y)


def oscillatory_integral(g, w: HolomorphicWeight, tau: float, grid: Grid2D) -> complex:
    """Trapezoid quadrature of the phase integral of scalar g against exp(2 i tau psi)."""
    check_tau(tau)
    gd = as_data(g, grid)
    if gd.shape[2:] not in ((), (1,)):
        raise GridError(f"samples of shape {gd.shape} are not one scalar per "
                        f"node of the {grid.nx} x {grid.ny} grid")
    gd = gd.reshape(grid.shape)
    if resolution_nodes_per_period(w, grid, tau) < 8:
        warnings.warn("fewer than 8 nodes per oscillation period at this tau",
                      stacklevel=2)
    Z = grid.nodes_z()
    return complex(np.sum(grid.quad_weights() * gd * np.exp(2j * tau * w.psi(Z))))


def stationary_phase_leading(g0: complex, point: CriticalPoint, tau: float) -> complex:
    """Leading stationary-phase term of the phase integral at one critical point.

    (2 pi / (2 tau)) |det psi''|^{-1/2} e^{i pi sigma / 4} g(z~) e^{2 i tau psi(z~)}
    with sigma the Hessian signature (0 for the harmonic saddle of the
    quadratic weight).  ``g0`` is the amplitude's value g(z~) at the point.
    """
    check_tau(tau)
    det = float(np.linalg.det(point.hessian))
    eigs = np.linalg.eigvalsh(point.hessian)
    sigma = int(np.sum(eigs > 0) - np.sum(eigs < 0))

    pref = (2 * np.pi / (2 * tau)) * abs(det) ** -0.5
    return (pref * np.exp(1j * np.pi * sigma / 4) * complex(g0)
            * np.exp(2j * tau * point.psi_value))
