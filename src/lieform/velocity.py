"""Staggered (MAC) velocity fields stored as integrated edge fluxes.

flux_x[j, i] is the flow through the vertical grid edge collocated with
y-edge (i, j); flux_y[j, i] the flow through the horizontal edge at x-edge
(i, j). A constant velocity (vx, vy) therefore carries flux (vx*h, vy*h).

Stream-function construction samples psi only at the nodes of the grid and
takes wrapped differences, so the discrete divergence of the resulting
fluxes telescopes to zero (up to roundoff of the psi values themselves).

A StaggeredVelocity is immutable: it holds read-only copies of its flux
arrays, so everything derived from them (the peak flux behind the
Courant number, the unhalved two-point sums of the fluxes onto the
vertex lattice, and the masks of negative signs) is computed once per
velocity, on first use, and reused by every later step. There is one
flux and one mask set per location: the faces read the fluxes and
their masks, the vertices the node sums and theirs, whatever the
scheme. The masks are bool planes, or None for a direction with no
negative sign, and follow reconstruct._negative, so -0.0 counts as
positive everywhere. The flux copies and the node sums are written
straight into buffers that start on a 64-byte line, as every float
buffer of a step does (forms._empty).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .forms import _empty
from .grid import CellRef, GridComplex2D, shifted
from .reconstruct import _negative


def _read_only(plane: np.ndarray) -> np.ndarray:
    plane.flags.writeable = False
    return plane


@dataclass(frozen=True, eq=False)
class StaggeredVelocity:
    """Steady flux field; flux_x and flux_y are read-only float64 copies."""

    grid: GridComplex2D
    flux_x: np.ndarray
    flux_y: np.ndarray

    def __post_init__(self) -> None:
        # flux_x[j, i] crosses y-edge (i, j), flux_y[j, i] x-edge (i, j).
        for name, axis in (("flux_x", "y"), ("flux_y", "x")):
            given = np.asarray(getattr(self, name), dtype=np.float64)
            if given.shape != self.grid.shape:
                raise ValueError(f"{name} shape {given.shape} != {self.grid.shape}")
            if not np.isfinite(given).all():
                j, i = np.argwhere(~np.isfinite(given))[0].tolist()
                raise ValueError(
                    f"{name} contains non-finite entries, first "
                    f"{float(given[j, i])!r} at {CellRef(1, i, j, axis)}")
            plane = _empty(given.shape)
            plane[...] = given
            object.__setattr__(self, name, _read_only(plane))

    @cached_property
    def _peak_flux(self) -> float:
        return max(np.abs(self.flux_x).max(), np.abs(self.flux_y).max())

    @cached_property
    def _node_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Unhalved two-point sums of each flux onto the vertex lattice."""
        fx, fy = self.flux_x, self.flux_y
        return (_read_only(np.add(fx, shifted(fx, dj=-1), out=_empty(fx.shape))),
                _read_only(np.add(fy, shifted(fy, di=-1), out=_empty(fy.shape))))

    @cached_property
    def _face_negative(self) -> tuple:
        """Negative-flux masks of the x and y faces.

        They pick both the WENO windows and the upwind reads of a cell
        plane.
        """
        return _negative(self.flux_x), _negative(self.flux_y)

    @cached_property
    def _sum_negative(self) -> tuple:
        """Negative masks of the node sums.

        They pick both the WENO windows and the upwind reads of an edge
        plane. The sums are unhalved: halving a tiny negative sum can
        round to -0.0, which _negative counts as positive.
        """
        return tuple(_negative(s) for s in self._node_sums)

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


def max_courant(vel: StaggeredVelocity, dt: float) -> float:
    """max |flux| * dt / h^2, the per-axis cell-crossing fraction."""
    return float(vel._peak_flux * dt / vel.grid.h ** 2)
