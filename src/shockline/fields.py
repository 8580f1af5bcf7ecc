"""Sampled fields on a uniform periodic grid, plus initial-data presets.

The FieldState couples the sampled (tau, u) arrays with the gas model
and damping law so that every derived view (phi, c, Riemann invariants,
gradients, y, q) is available without re-threading constants.  Gradients
use fourth-order central differences so that monitor accuracy exceeds
the second-order scheme accuracy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import core
from .core import DampingLaw, GasModel
from .errors import DomainError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic mesh: nodes x_i = x0 + i*dx, i = 0..n-1."""

    n: int
    length: float
    x0: float = 0.0

    def __post_init__(self):
        if self.n < 16:
            raise DomainError(f"grid needs at least 16 cells, got {self.n}")
        if not (self.length > 0.0):
            raise DomainError(f"grid length must be positive, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def wrap(self, x):
        """Map x into [x0, x0 + length)."""
        return self.x0 + np.mod(x - self.x0, self.length)


def ddx4(f: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order central first derivative on a periodic grid."""
    return (
        -np.roll(f, -2) + 8.0 * np.roll(f, -1) - 8.0 * np.roll(f, 1) + np.roll(f, 2)
    ) / (12.0 * dx)


def ddx2(f: np.ndarray, dx: float) -> np.ndarray:
    """Second-order central first derivative on a periodic grid."""
    return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * dx)


def diff4(f: np.ndarray) -> np.ndarray:
    """Undivided fourth difference (stabilization stencil)."""
    return (
        np.roll(f, 2) - 4.0 * np.roll(f, 1) + 6.0 * f
        - 4.0 * np.roll(f, -1) + np.roll(f, -2)
    )


def _per_state(view):
    """Cache a derived view on its FieldState.  A state never changes, so
    each view is computed at most once and every reader shares it; the
    shared arrays are made read-only."""
    key = "_" + view.__name__

    @functools.wraps(view)
    def cached(self):
        try:
            return self.__dict__[key]
        except KeyError:
            value = view(self)
            for arr in value if isinstance(value, tuple) else (value,):
                arr.flags.writeable = False
            # frozen dataclass: store past its __setattr__
            self.__dict__[key] = value
            return value

    return cached


@dataclass(frozen=True)
class FieldState:
    """Sampled (tau, u) on a periodic grid at one time."""

    grid: Grid
    t: float
    tau: np.ndarray
    u: np.ndarray
    gas: GasModel
    damping: DampingLaw

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if tau.shape != (self.grid.n,) or u.shape != (self.grid.n,):
            raise DomainError("field arrays must match the grid size")
        if np.any(tau <= 0.0):
            raise DomainError("tau must be positive everywhere (vacuum excluded)")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "u", u)

    # -- derived pointwise views -------------------------------------
    @_per_state
    def phi(self) -> np.ndarray:
        return core.phi_of_tau(self.gas, self.tau)

    @_per_state
    def sound(self) -> np.ndarray:
        return core.sound_speed(self.gas, self.tau)

    def w(self) -> np.ndarray:
        return self.u + self.phi()

    def z(self) -> np.ndarray:
        return self.u - self.phi()

    # -- derived gradient views (4th-order FD) -----------------------
    @_per_state
    def u_x(self) -> np.ndarray:
        return ddx4(self.u, self.grid.dx)

    @_per_state
    def tau_x(self) -> np.ndarray:
        return ddx4(self.tau, self.grid.dx)

    @_per_state
    def slopes(self):
        """(A, B) = (w_x, z_x), the Riemann-invariant slopes."""
        return core.riemann_slopes(self.sound(), self.u_x(), self.tau_x())

    @_per_state
    def y(self) -> np.ndarray:
        a_w, _ = self.slopes()
        return core.y_variable(self.gas, self.damping, self.phi(), a_w, self.t)

    @_per_state
    def q(self) -> np.ndarray:
        _, b_z = self.slopes()
        return core.q_variable(self.gas, self.damping, self.phi(), b_z, self.t)

    def with_state(self, tau: np.ndarray, u: np.ndarray, t: float) -> "FieldState":
        return replace(self, tau=tau, u=u, t=t)


# ---------------------------------------------------------------------
# initial-data presets
# ---------------------------------------------------------------------

PRESETS = ("constant", "gaussian", "sine")


def _wrapped_offset(x: np.ndarray, center: float, length: float) -> np.ndarray:
    """Signed minimum-image distance x - center on a periodic domain."""
    d = np.mod(x - center + 0.5 * length, length) - 0.5 * length
    return d


def profile_arrays(spec: dict, grid: Grid):
    """Evaluate a named preset on the grid.  Returns (tau0, u0)."""
    preset = spec.get("preset")
    x = grid.xs
    if preset == "constant":
        tau0 = np.full(grid.n, float(spec.get("tau", 1.0)))
        u0 = np.full(grid.n, float(spec.get("u", 0.0)))
    elif preset == "gaussian":
        base_tau = float(spec.get("tau0", 1.0))
        base_u = float(spec.get("u0", 0.0))
        amp_u = float(spec.get("u_amp", 0.0))
        amp_tau = float(spec.get("tau_amp", 0.0))
        center = float(spec.get("center", grid.x0 + 0.5 * grid.length))
        width = float(spec.get("width", 0.1 * grid.length))
        if width <= 0.0:
            raise DomainError("gaussian width must be positive")
        d = _wrapped_offset(x, center, grid.length)
        bump = np.exp(-0.5 * (d / width) ** 2)
        tau0 = base_tau + amp_tau * bump
        u0 = base_u + amp_u * bump
    elif preset == "sine":
        base_tau = float(spec.get("tau0", 1.0))
        base_u = float(spec.get("u0", 0.0))
        amp_u = float(spec.get("u_amp", 0.0))
        amp_tau = float(spec.get("tau_amp", 0.0))
        periods = int(spec.get("periods", 1))
        if periods < 1:
            raise DomainError("sine preset needs at least one full period")
        ph = 2.0 * math.pi * periods * (x - grid.x0) / grid.length
        tau0 = base_tau + amp_tau * np.sin(ph)
        u0 = base_u + amp_u * np.sin(ph)
    else:
        raise DomainError(f"unknown profile preset {preset!r}")
    return tau0, u0


def profile_derivatives(spec: dict, grid: Grid):
    """Analytic x-derivatives of the preset, for verification tests."""
    preset = spec.get("preset")
    x = grid.xs
    if preset == "constant":
        zero = np.zeros(grid.n)
        return zero, zero.copy()
    if preset == "gaussian":
        amp_u = float(spec.get("u_amp", 0.0))
        amp_tau = float(spec.get("tau_amp", 0.0))
        center = float(spec.get("center", grid.x0 + 0.5 * grid.length))
        width = float(spec.get("width", 0.1 * grid.length))
        d = _wrapped_offset(x, center, grid.length)
        core_fn = -(d / width**2) * np.exp(-0.5 * (d / width) ** 2)
        return amp_tau * core_fn, amp_u * core_fn
    if preset == "sine":
        amp_u = float(spec.get("u_amp", 0.0))
        amp_tau = float(spec.get("tau_amp", 0.0))
        periods = int(spec.get("periods", 1))
        k = 2.0 * math.pi * periods / grid.length
        ph = k * (x - grid.x0)
        return amp_tau * k * np.cos(ph), amp_u * k * np.cos(ph)
    raise DomainError(f"unknown profile preset {preset!r}")


def init_field(
    profile_spec: dict, grid_spec: Grid, gas: GasModel, damping: DampingLaw
) -> FieldState:
    """Sample a preset at t = 0.  Rejects profiles that touch vacuum."""
    tau0, u0 = profile_arrays(profile_spec, grid_spec)
    if np.any(tau0 <= 0.0):
        raise DomainError("initial profile reaches tau <= 0 (vacuum)")
    return FieldState(grid=grid_spec, t=0.0, tau=tau0, u=u0, gas=gas, damping=damping)
