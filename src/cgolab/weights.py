"""Holomorphic phase weights, critical points, and stationary phase.

A weight is Phi(z) = phi + i*psi with closed-form first and second
z-derivatives.  Its imaginary part is a harmonic Morse function whose
saddles drive the oscillatory-integral asymptotics.  The paper's
hypotheses on Phi relative to a boundary partition are checked where a
partition is in play: by the full_operator Carleman probe.
"""

from __future__ import annotations

import cmath
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridError, LabError
from .grid import Grid2D, check_same

# a critical point with |d2Phi| <= this is degenerate: there |det psi''| = |d2Phi|^2
# <= 1e-12, and the stationary-phase prefactor |det psi''|^{-1/2} means nothing
DEGENERATE_MARGIN = 1e-6

# per catalog kind: its parameter names, Phi, dPhi, d2Phi and critical
# points in closed form.  Each kind keeps its own arithmetic, so every
# sample is the same bit for bit as the expression written out.
_KINDS = {
    "linear": dict(
        params=("alpha",),
        Phi=lambda z, p: p["alpha"] * z,
        dPhi=lambda z, p: np.broadcast_to(np.asarray(p["alpha"], dtype=complex),
                                          z.shape).copy(),
        d2Phi=lambda z, p: np.zeros(z.shape, dtype=complex),
        critical_points=lambda p: []),
    "quadratic": dict(
        params=("c",),
        Phi=lambda z, p: (z - p["c"]) ** 2,
        dPhi=lambda z, p: 2.0 * (z - p["c"]),
        d2Phi=lambda z, p: np.full(z.shape, 2.0, dtype=complex),
        critical_points=lambda p: [complex(p["c"])]),
    "cubic": dict(
        params=("c", "m"),
        Phi=lambda z, p: (z - p["c"]) ** 3 / 3.0 - p["m"] * (z - p["c"]),
        dPhi=lambda z, p: (z - p["c"]) ** 2 - p["m"],
        d2Phi=lambda z, p: 2.0 * (z - p["c"]),
        critical_points=lambda p: [complex(p["c"]) + cmath.sqrt(p["m"]),
                                   complex(p["c"]) - cmath.sqrt(p["m"])]),
}


@dataclass(frozen=True)
class HolomorphicWeight:
    """Closed-form holomorphic weight from the catalog.

    kind: 'linear' (alpha*z), 'quadratic' ((z-c)^2), or
    'cubic' ((z-c)^3/3 - m*(z-c)); ``weight_catalog`` checks the kind
    and its parameters.
    """

    kind: str
    params: dict

    def Phi(self, z):
        return _KINDS[self.kind]["Phi"](np.asarray(z, dtype=complex), self.params)

    def dPhi(self, z):
        return _KINDS[self.kind]["dPhi"](np.asarray(z, dtype=complex), self.params)

    def d2Phi(self, z):
        return _KINDS[self.kind]["d2Phi"](np.asarray(z, dtype=complex), self.params)

    def phi(self, z):
        return self.Phi(z).real

    def psi(self, z):
        return self.Phi(z).imag

    def psi_hessian(self, z: complex) -> np.ndarray:
        """Hessian of psi at a point; [[Im P'', Re P''], [Re P'', -Im P'']]."""
        d2 = complex(self.d2Phi(np.asarray(z)))
        return np.array([[d2.imag, d2.real], [d2.real, -d2.imag]])

    def closed_form_critical_points(self) -> list[complex]:
        return _KINDS[self.kind]["critical_points"](self.params)


@dataclass(frozen=True)
class CriticalPoint:
    """Nondegenerate zero of dPhi/dz, at its closed-form location."""

    location: complex
    psi_value: float
    hessian: np.ndarray
    margin: float  # |d2Phi| at the point, above DEGENERATE_MARGIN

    def __post_init__(self):
        if not self.margin > DEGENERATE_MARGIN:
            raise LabError("degenerate critical point")


@dataclass(frozen=True)
class CarlemanConvexWeight:
    """Convexified weight phi_c = exp(lam * psi_c) with linear psi_c.

    psi_c = gx*x + gy*y; |grad psi_c| > 0 on the whole closed rectangle
    by construction.
    """

    gx: float
    gy: float
    lam: float

    def __post_init__(self):
        if self.lam < 1.0:
            raise LabError("convexification parameter must be >= 1")
        if np.hypot(self.gx, self.gy) <= 0.0:
            raise LabError("psi_c must have a nonvanishing gradient")

    def psi_c(self, X, Y):
        return self.gx * X + self.gy * Y

    def phi_c(self, X, Y):
        return np.exp(self.lam * self.psi_c(X, Y))


def weight_catalog(kind: str, params: dict) -> HolomorphicWeight:
    """Build a catalog weight from finite numeric parameters.

    A center ``c`` must lie in the closed unit square.
    """
    if kind not in _KINDS:
        raise LabError(f"unknown weight kind {kind!r}; "
                       f"choose one of {', '.join(_KINDS)}")
    names = _KINDS[kind]["params"]
    params = dict(params)
    if set(params) != set(names):
        raise LabError(f"{kind} weight takes the parameters {', '.join(names)}; "
                       f"got {', '.join(sorted(map(str, params))) or 'none'}")
    for name in names:
        v = params[name]
        if (not isinstance(v, numbers.Number) or isinstance(v, bool)
                or not cmath.isfinite(v)):
            raise LabError(f"{kind} weight parameter {name} must be a finite "
                           f"number, got {v!r}")
    if "c" in params:
        c = complex(params["c"])
        if not (0.0 <= c.real <= 1.0 and 0.0 <= c.imag <= 1.0):
            raise LabError(f"{kind} center {c} outside the closed domain")
    return HolomorphicWeight(kind=kind, params=params)


def find_critical_points(w: HolomorphicWeight, grid: Grid2D) -> list[CriticalPoint]:
    """Closed-form critical points in the closed rectangle; a degenerate one is refused."""
    out = []
    for z in w.closed_form_critical_points():
        if (grid.x_min <= z.real <= grid.x_max
                and grid.y_min <= z.imag <= grid.y_max):
            z0 = np.asarray(z)
            out.append(CriticalPoint(location=z, psi_value=float(w.psi(z0)),
                                     hessian=w.psi_hessian(z),
                                     margin=abs(complex(w.d2Phi(z0)))))
    return out


def resolution_nodes_per_period(w: HolomorphicWeight, grid: Grid2D, tau: float) -> float:
    """Grid nodes per oscillation period of exp(2 i tau psi), worst case."""
    dphi = np.max(np.abs(w.dPhi(grid.nodes_z())))  # |grad psi| = |dPhi|
    if tau == 0 or dphi == 0:
        return np.inf
    wavelength = 2 * np.pi / (2 * abs(tau) * dphi)  # phase gradient 2 tau |dPhi|
    return wavelength / max(grid.h_x, grid.h_y)


def oscillatory_integral(g, w: HolomorphicWeight, tau: float, grid: Grid2D) -> complex:
    """Trapezoid quadrature of the phase integral of scalar g against exp(2 i tau psi)."""
    check_same(grid, g)
    gd = np.asarray(getattr(g, "data", g))
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
    with sigma the Hessian signature (0 for the harmonic saddles of the
    catalog).  ``g0`` is the amplitude's value g(z~) at the point, which
    CriticalPoint has already checked to be nondegenerate.
    """
    det = float(np.linalg.det(point.hessian))
    eigs = np.linalg.eigvalsh(point.hessian)
    sigma = int(np.sum(eigs > 0) - np.sum(eigs < 0))

    pref = (2 * np.pi / (2 * tau)) * abs(det) ** -0.5
    return (pref * np.exp(1j * np.pi * sigma / 4) * complex(g0)
            * np.exp(2j * tau * point.psi_value))
