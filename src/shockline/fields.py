"""Sampled fields on a uniform periodic grid, plus initial-data presets.

The FieldState couples the sampled (tau, u) arrays with the gas model
and damping law so that every derived view (phi, c, Riemann invariants,
gradients, y, q) is available without re-threading constants.  Gradients
use fourth-order central differences so that monitor accuracy exceeds
the second-order scheme accuracy.  Stencils read the neighbours of a
node as slices of one copy of the field padded with two periodic ghost
cells a side (`pad`; the padded_* forms take that copy).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import DampingLaw, GasModel
from .errors import DomainError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic mesh: nodes x_i = i*dx, i = 0..n-1."""

    n: int
    length: float

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
        return self.dx * np.arange(self.n)

    def wrap(self, x: float) -> float:
        """Map x into [0, length) (Python's float % rounds as np.mod
        does).  A point whose remainder rounds onto length, as x just
        below 0 can, maps to 0, as length itself does; NaN and +-inf
        map to NaN."""
        w = x % self.length
        return 0.0 if w == self.length else w


def pad(f: np.ndarray) -> np.ndarray:
    """Copy of a periodic field with two wrapped ghost cells on each side;
    the stencils read their neighbours f[i-2] .. f[i+2] as slices of it."""
    return np.concatenate((f[-2:], f, f[:2]))


def padded_ddx2(g: np.ndarray, dx: float) -> np.ndarray:
    """ddx2 of the field whose padded copy is g."""
    return (g[3:-1] - g[1:-3]) / (2.0 * dx)


def padded_diff4(g: np.ndarray) -> np.ndarray:
    """diff4 of the field whose padded copy is g."""
    return g[:-4] - 4.0 * g[1:-3] + 6.0 * g[2:-2] - 4.0 * g[3:-1] + g[4:]


def ddx4(f: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order central first derivative on a periodic grid."""
    g = pad(f)
    return (-g[4:] + 8.0 * g[3:-1] - 8.0 * g[1:-3] + g[:-4]) / (12.0 * dx)


def ddx2(f: np.ndarray, dx: float) -> np.ndarray:
    """Second-order central first derivative on a periodic grid."""
    return padded_ddx2(pad(f), dx)


def diff4(f: np.ndarray) -> np.ndarray:
    """Undivided fourth difference (stabilization stencil)."""
    return padded_diff4(pad(f))


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
            value.flags.writeable = False
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
    @core.in_double_range
    def sound(self) -> np.ndarray:
        """c at every node; RangeError where it leaves double range.
        The CFL step, the slopes and the criteria all read this view."""
        return core.sound_speed(self.gas, self.tau)

    # -- derived gradient views (4th-order FD) -----------------------
    @_per_state
    def u_x(self) -> np.ndarray:
        return ddx4(self.u, self.grid.dx)

    @_per_state
    def tau_x(self) -> np.ndarray:
        return ddx4(self.tau, self.grid.dx)

    @_per_state
    def slopes(self) -> np.ndarray:
        """(A, B) = (w_x, z_x), the Riemann-invariant slopes, as rows."""
        return np.stack(core.riemann_slopes(self.sound(), self.u_x(), self.tau_x()))

    @_per_state
    def yq(self) -> np.ndarray:
        """y and q as rows: one y_variable pass over both slopes shares the
        phi powers and the time factor."""
        return core.y_variable(
            self.gas, self.damping, self.phi(), self.slopes(), self.t)

    def y(self) -> np.ndarray:
        return self.yq()[0]

    def q(self) -> np.ndarray:
        return self.yq()[1]

    def with_state(self, tau: np.ndarray, u: np.ndarray, t: float) -> "FieldState":
        """The state (tau, u) at time t on the same grid and model, without
        the checks of __post_init__: the caller has them (solver.step)."""
        new = object.__new__(FieldState)
        vars(new).update(
            grid=self.grid, t=t, tau=tau, u=u, gas=self.gas, damping=self.damping
        )
        return new


# ---------------------------------------------------------------------
# initial-data presets
# ---------------------------------------------------------------------

PRESETS = ("constant", "gaussian", "sine")


def _bump(spec: dict, grid: Grid):
    """(tau_amp, u_amp, shape, shape_x): the amplitudes and the unit shape,
    with its x-derivative, of the gaussian or sine preset."""
    preset, x, length = spec.get("preset"), grid.xs, grid.length
    amps = float(spec.get("tau_amp", 0.0)), float(spec.get("u_amp", 0.0))
    if preset == "gaussian":
        center = float(spec.get("center", 0.5 * length))
        width = float(spec.get("width", 0.1 * length))
        if width <= 0.0:
            raise DomainError("gaussian width must be positive")
        # signed minimum-image distance x - center
        d = np.mod(x - center + 0.5 * length, length) - 0.5 * length
        bump = np.exp(-0.5 * (d / width) ** 2)
        return (*amps, bump, -(d / width**2) * bump)
    if preset != "sine":
        raise DomainError(f"unknown profile preset {preset!r}")
    periods = int(spec.get("periods", 1))
    if periods < 1:
        raise DomainError("sine preset needs at least one full period")
    ph = 2.0 * math.pi * periods * x / length
    return (*amps, np.sin(ph), 2.0 * math.pi * periods / length * np.cos(ph))


@core.in_double_range
def profile_arrays(spec: dict, grid: Grid):
    """Evaluate a named preset on the grid.  Returns (tau0, u0); RangeError
    where either leaves double range."""
    if spec.get("preset") == "constant":
        return (np.full(grid.n, float(spec.get("tau", 1.0))),
                np.full(grid.n, float(spec.get("u", 0.0))))
    amp_tau, amp_u, shape, _ = _bump(spec, grid)
    return (float(spec.get("tau0", 1.0)) + amp_tau * shape,
            float(spec.get("u0", 0.0)) + amp_u * shape)


def profile_derivatives(spec: dict, grid: Grid):
    """Analytic x-derivatives of the preset, for verification tests."""
    if spec.get("preset") == "constant":
        return np.zeros(grid.n), np.zeros(grid.n)
    amp_tau, amp_u, _, shape_x = _bump(spec, grid)
    return amp_tau * shape_x, amp_u * shape_x


def init_field(
    profile_spec: dict, grid_spec: Grid, gas: GasModel, damping: DampingLaw
) -> FieldState:
    """Sample a preset at t = 0.  Rejects profiles that touch vacuum."""
    tau0, u0 = profile_arrays(profile_spec, grid_spec)
    if np.any(tau0 <= 0.0):
        raise DomainError("initial profile reaches tau <= 0 (vacuum)")
    return FieldState(grid=grid_spec, t=0.0, tau=tau0, u=u0, gas=gas, damping=damping)
