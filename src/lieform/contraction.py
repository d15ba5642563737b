"""Upwind interior products: slot a flux field into a discrete form.

Contraction lowers the degree by one and carries the time step, since the
result measures transport during dt. Degree 0 contracts to the flagged
empty degree -1 (geometrically zero) and the flagged degree-3 empty
contracts to a genuine zero 2-form, so the advection assembly treats all
degrees uniformly.

The piecewise-constant paths keep every product and sum in the exact
order of the reference loop formulation, working directly on integral
values. The WENO paths convert to 1-D averages (value / h), reconstruct
an interface point value, then integrate: ((value * flux) * dt) / h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import Cochain
from .reconstruct import CourantError, SchemeKind, interface_point_values
from .velocity import StaggeredVelocity, average_to_node, max_courant


@dataclass(frozen=True)
class ContractionResult:
    cochain: Cochain
    dt: float


def _pc_upwind(plane: np.ndarray, flux: np.ndarray, axis: int) -> np.ndarray:
    """Entry on the upwind side of each interface, integral units."""
    return np.where(flux >= 0.0, np.roll(plane, 1, axis=axis), plane)


def contract_2form(omega: Cochain, vel: StaggeredVelocity, dt: float,
                   scheme: SchemeKind) -> Cochain:
    """Transport swept through each edge, as a 1-form."""
    grid = omega.grid
    w = omega.plane()
    if scheme is SchemeKind.UPWIND:
        ex = (-(dt / grid.h ** 2)) * vel.flux_y * _pc_upwind(w, vel.flux_y, 0)
        ey = (dt / grid.h ** 2) * vel.flux_x * _pc_upwind(w, vel.flux_x, 1)
    else:
        u = w / grid.h
        rx = interface_point_values(u, 0, vel.flux_y, scheme)
        ry = interface_point_values(u, 1, vel.flux_x, scheme)
        ex = -(((rx * vel.flux_y) * dt) / grid.h)
        ey = ((ry * vel.flux_x) * dt) / grid.h
    return Cochain.from_components(grid, ex, ey)


def contract_1form(omega: Cochain, vel: StaggeredVelocity, dt: float,
                   scheme: SchemeKind) -> Cochain:
    """Transport of edge values onto vertices, as a 0-form.

    Fluxes are averaged onto the vertex lattice (two-point transverse
    means); the upwind edge flips with the averaged flux sign.
    """
    grid = omega.grid
    wx = omega.component("x")
    wy = omega.component("y")
    if scheme is SchemeKind.UPWIND:
        # Signs come from the unhalved sums: halving a tiny negative sum
        # can round to -0.0, which would flip its >= 0 test.
        sum_x = vel.flux_x + np.roll(vel.flux_x, 1, axis=0)
        sum_y = vel.flux_y + np.roll(vel.flux_y, 1, axis=1)
        src_x = np.where(sum_x >= 0.0, np.roll(wx, 1, axis=1), wx)
        src_y = np.where(sum_y >= 0.0, np.roll(wy, 1, axis=0), wy)
        node = dt / (2.0 * grid.h ** 2) * (sum_x * src_x + sum_y * src_y)
    else:
        avg_x, avg_y = average_to_node(vel)
        rx = interface_point_values(wx / grid.h, 1, avg_x, scheme)
        ry = interface_point_values(wy / grid.h, 0, avg_y, scheme)
        node = ((rx * avg_x) * dt) / grid.h + ((ry * avg_y) * dt) / grid.h
    return Cochain.from_plane(grid, 0, node)


def contract_0form(omega: Cochain, vel: StaggeredVelocity, dt: float,
                   scheme: SchemeKind) -> Cochain:
    """Degree drops below 0: the flagged empty result."""
    return Cochain.empty(omega.grid, -1)


def contract(omega: Cochain, vel: StaggeredVelocity, dt: float,
             scheme: SchemeKind = SchemeKind.UPWIND) -> ContractionResult:
    if vel.grid != omega.grid:
        raise ValueError("velocity and form live on different grids")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    nu = max_courant(vel, dt)
    if nu > 1.0:
        raise CourantError(f"courant number {nu:.6g} exceeds the hard limit 1")
    if omega.degree == 2:
        out = contract_2form(omega, vel, dt, scheme)
    elif omega.degree == 1:
        out = contract_1form(omega, vel, dt, scheme)
    elif omega.degree == 0:
        out = contract_0form(omega, vel, dt, scheme)
    elif omega.degree == 3 and omega.is_empty:
        out = Cochain.zeros(omega.grid, 2)
    else:
        raise ValueError(f"cannot contract degree {omega.degree}")
    return ContractionResult(out, dt)
