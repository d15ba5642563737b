"""Staggered (MAC) velocity fields stored as integrated edge fluxes.

flux_x[j, i] is the flow through the vertical grid edge collocated with
y-edge (i, j); flux_y[j, i] the flow through the horizontal edge at x-edge
(i, j). A constant velocity (vx, vy) therefore carries flux (vx*h, vy*h).

Stream-function construction samples psi only at the nodes of the grid and
takes wrapped differences, so the discrete divergence of the resulting
fluxes telescopes to zero (up to roundoff of the psi values themselves).

A StaggeredVelocity is immutable: it holds read-only copies of its flux
arrays, so everything derived from them (the peak flux behind the
Courant number, the node-averaged fluxes, the upwind side of every
face and node, and the masks of negative face and averaged node fluxes
that pick the WENO windows) is computed once per velocity, on first
use, and reused by every later step. Each of the four upwind
selections (x and y faces, x and y nodes) is decided once: a direction
with no negative sign reads its upwind entries as one periodic shift
and holds no index plane; any other direction keeps a flat gather
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .grid import GridComplex2D, shifted


def _read_only(plane: np.ndarray) -> np.ndarray:
    plane.flags.writeable = False
    return plane


def _upwind_read(signs: np.ndarray, di: int,
                 dj: int) -> tuple[int, int] | np.ndarray:
    """How each interface of a plane reads its upwind entry.

    Where signs >= 0.0 (so -0.0 counts as positive) the upwind entry is
    the one a step (-di, -dj) back; elsewhere it is the entry itself.
    When no sign is negative, that entry is the same neighbour at every
    interface, a periodic shift back by one along the step's axis. The
    read is then (axis, k): the upwind plane joins the plane's blocks
    [k:] and [:k] along axis, with k = extent - 1. Otherwise it is the
    flat index of each upwind entry, for ndarray.take. The index stays
    writable: take copies a read-only index array on every call.
    """
    up = signs >= 0.0
    if up.all():
        axis = 1 if di else 0
        return axis, signs.shape[axis] - 1
    own = np.arange(signs.size).reshape(signs.shape)
    return np.where(up, shifted(own, di=-di, dj=-dj), own)


def _negative(signs: np.ndarray) -> np.ndarray | None:
    """Where signs < 0.0 (so -0.0 is not negative), as a read-only mask;
    None when no sign is negative."""
    neg = signs < 0.0
    return _read_only(neg) if neg.any() else None


@dataclass(frozen=True, eq=False)
class StaggeredVelocity:
    """Steady flux field; flux_x and flux_y are read-only float64 copies."""

    grid: GridComplex2D
    flux_x: np.ndarray
    flux_y: np.ndarray

    def __post_init__(self) -> None:
        for name in ("flux_x", "flux_y"):
            plane = np.array(getattr(self, name), dtype=np.float64)
            if plane.shape != self.grid.shape:
                raise ValueError(f"{name} shape {plane.shape} != {self.grid.shape}")
            if not np.isfinite(plane).all():
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, _read_only(plane))

    @cached_property
    def _peak_flux(self) -> float:
        return max(np.abs(self.flux_x).max(), np.abs(self.flux_y).max())

    @cached_property
    def _node_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Unhalved two-point sums of each flux onto the vertex lattice."""
        return (_read_only(self.flux_x + shifted(self.flux_x, dj=-1)),
                _read_only(self.flux_y + shifted(self.flux_y, di=-1)))

    @cached_property
    def _node_fluxes(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(_read_only(s / 2.0) for s in self._node_sums)

    @cached_property
    def _face_negative(self) -> tuple:
        """Negative-flux masks of the x and y faces, for WENO windows."""
        return _negative(self.flux_x), _negative(self.flux_y)

    @cached_property
    def _node_negative(self) -> tuple:
        """Negative masks of the averaged node fluxes, for WENO windows."""
        return tuple(_negative(f) for f in self._node_fluxes)

    @cached_property
    def _face_upwind(self) -> tuple:
        """Upwind reads of the x and y faces of a cell plane, by flux sign."""
        return (_upwind_read(self.flux_x, 1, 0),
                _upwind_read(self.flux_y, 0, 1))

    @cached_property
    def _node_upwind(self) -> tuple:
        """Upwind reads of the x and y edges of each vertex, by sum sign.

        The sums are unhalved: halving a tiny negative sum can round to
        -0.0, which would flip its >= 0 test.
        """
        sum_x, sum_y = self._node_sums
        return _upwind_read(sum_x, 1, 0), _upwind_read(sum_y, 0, 1)

    def divergence(self) -> np.ndarray:
        """Net outflow per cell; identically ~0 for admissible fields.

        flux_x[j, i] crosses the west face of cell (i, j) and flux_y[j, i]
        its south face, so the east/north faces are the di=1 / dj=1 shifts.
        """
        fx, fy = self.flux_x, self.flux_y
        return (shifted(fx, di=1) - fx) + (shifted(fy, dj=1) - fy)


@dataclass(frozen=True)
class ConstantVelocity:
    vx: float
    vy: float


@dataclass(frozen=True)
class StreamFunctionVelocity:
    """Divergence-free field from psi(x, y); u = -dpsi/dy, v = dpsi/dx."""

    psi: Callable


def rudman_vortex() -> StreamFunctionVelocity:
    """Single steady vortex on the unit square, max speed 1."""

    def psi(x, y):
        return np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2 / np.pi

    return StreamFunctionVelocity(psi)


def discretize_velocity(
    field: ConstantVelocity | StreamFunctionVelocity | StaggeredVelocity,
    grid: GridComplex2D,
) -> StaggeredVelocity:
    if isinstance(field, StaggeredVelocity):
        if field.grid != grid:
            raise ValueError("velocity grid does not match target grid")
        return field
    if isinstance(field, ConstantVelocity):
        flux_x = np.full(grid.shape, field.vx * grid.h)
        flux_y = np.full(grid.shape, field.vy * grid.h)
        return StaggeredVelocity(grid, flux_x, flux_y)
    X, Y = grid.node_coords()
    p = np.asarray(field.psi(X, Y), dtype=np.float64)
    # Vertical edge from node (i, j) to (i, j+1): flux = psi(tail) - psi(head).
    flux_x = p - shifted(p, dj=1)
    # Horizontal edge from node (i, j) to (i+1, j): flux = psi(head) - psi(tail).
    flux_y = shifted(p, di=1) - p
    return StaggeredVelocity(grid, flux_x, flux_y)


def average_to_node(vel: StaggeredVelocity) -> tuple[np.ndarray, np.ndarray]:
    """Two-point averages of each flux component onto the vertex lattice.

    Computed once per velocity; the returned arrays are read-only.
    """
    return vel._node_fluxes


def max_courant(vel: StaggeredVelocity, dt: float) -> float:
    """max |flux| * dt / h^2, the per-axis cell-crossing fraction."""
    return float(vel._peak_flux * dt / vel.grid.h ** 2)
