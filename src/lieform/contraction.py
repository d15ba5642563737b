"""Upwind interior products: slot a flux field into a discrete form.

Contraction lowers the degree by one and carries the time step, since the
result measures transport during dt. Degree 0 contracts to the flagged
empty degree -1 (geometrically zero) and the flagged degree-3 empty
contracts to a genuine zero 2-form, so the advection assembly treats all
degrees uniformly.

contract is the one public entry. It resolves the scheme and checks
the grid match, dt, the grid's extent against the stencil and the
Courant number, once per call; the bodies below it, _contract_2form and
_contract_1form, check nothing. Each body reads its two interface sets
in one call of reconstruct._reconstruct, whatever the scheme
(reconstruct.py says how an interface is read); the scheme picks only
what goes in and the arithmetic after the read. _contract_2form pairs
(w, 0, flux_y) with (w, 1, flux_x), and _contract_1form pairs (wx, 1,
x node flux) with (wy, 0, y node flux), each job with its flux's
negative-sign mask, which the velocity computes once.

The piecewise-constant paths read integral values and keep every
product and sum in the exact order of the reference loop formulation;
the 1-form reads follow the signs of the unhalved two-point node sums.
The products c * flux * w[up] are computed as w[up] *= (c * flux) on
the freshly read values, and a sum of products times c as (sum) *= c;
a swap of the two operands of one * or + is exact in IEEE arithmetic,
so the bits are those of the written formulas. The WENO paths read 1-D
averages (value / h), following the signs of the face fluxes or of the
averaged node fluxes, then integrate: ((value * flux) * dt) / h,
computed in place (a leading minus becomes a final *= -1.0, the same
IEEE operation).

Each result is one flat buffer: a 1-form's x and y components are
the two halves of a fresh buffer, written directly, and a 0-form's
plane is reshaped, not copied. With a workspace (see advection.py) the
0-form is its "form" buffer, the one result that lives there, which d
consumes next; every other plane of a contraction (the scaled inputs,
the c * flux planes, the second node term) is a "tmp" buffer of it;
without one they are fresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import Cochain, _empty, scratch
from .grid import _require_positive
from .reconstruct import (CourantError, SchemeKind, _reconstruct,
                          _require_extent)
# Unused here, but perfbench wraps lieform.contraction.interface_point_values.
from .reconstruct import interface_point_values  # noqa: F401
from .velocity import StaggeredVelocity, average_to_node, max_courant


@dataclass(frozen=True)
class ContractionResult:
    cochain: Cochain
    dt: float


def _require_same_grid(omega: Cochain, vel: StaggeredVelocity) -> None:
    if vel.grid != omega.grid:
        raise ValueError("velocity and form live on different grids")


def _integrate(r, flux, dt: float, h: float) -> None:
    """((r * flux) * dt) / h, written over r."""
    r *= flux
    r *= dt
    r /= h


def _contract_2form(omega: Cochain, vel: StaggeredVelocity, dt: float,
                    scheme: SchemeKind, work: dict | None = None) -> Cochain:
    """Transport swept through each edge, as a 1-form.

    Each face reads its upwind cell by the sign of its flux, through the
    velocity's face masks, into the result's two halves.
    """
    grid = omega.grid
    w = omega.plane()
    planes = _empty((2, *grid.shape))
    ex, ey = planes
    neg_x, neg_y = vel._face_negative
    upwind = scheme is SchemeKind.UPWIND
    u = w if upwind else np.divide(w, grid.h,
                                   out=scratch(work, "tmp", grid.shape))
    _reconstruct([(u, 0, neg_y), (u, 1, neg_x)], scheme, work, planes)
    if upwind:
        c = dt / grid.h ** 2
        coef = scratch(work, "tmp", grid.shape)
        ex *= np.multiply(-c, vel.flux_y, out=coef)
        ey *= np.multiply(c, vel.flux_x, out=coef)
    else:
        _integrate(ex, vel.flux_y, dt, grid.h)
        ex *= -1.0
        _integrate(ey, vel.flux_x, dt, grid.h)
    return Cochain(grid, 1, planes.ravel())


def _contract_1form(omega: Cochain, vel: StaggeredVelocity, dt: float,
                    scheme: SchemeKind, work: dict | None = None) -> Cochain:
    """Transport of edge values onto vertices, as a 0-form.

    Fluxes are averaged onto the vertex lattice (two-point transverse
    means); the upwind edge flips with the averaged flux sign. The
    upwind path reads that sign from the masks of the unhalved sums,
    which the velocity computes once.
    """
    grid = omega.grid
    planes = omega.values.reshape(2, *grid.shape)
    upwind = scheme is SchemeKind.UPWIND
    if upwind:
        # The two node terms, read into the "form" and "tmp" planes.
        u = planes
        neg_x, neg_y = vel._sum_negative
        out = (scratch(work, "form", grid.shape),
               scratch(work, "tmp", grid.shape))
    else:
        # Both scaled planes, overwritten by their reconstructions.
        u = out = np.divide(planes, grid.h,
                            out=scratch(work, "tmp", (2, *grid.shape)))
        neg_x, neg_y = vel._node_negative
    _reconstruct([(u[0], 1, neg_x), (u[1], 0, neg_y)], scheme, work, out)
    if upwind:
        node, part = out
        sum_x, sum_y = vel._node_sums
        node *= sum_x
        part *= sum_y
        node += part
        node *= dt / (2.0 * grid.h ** 2)
    else:
        avg_x, avg_y = average_to_node(vel)
        _integrate(u[0], avg_x, dt, grid.h)
        _integrate(u[1], avg_y, dt, grid.h)
        node = np.add(u[0], u[1], out=scratch(work, "form", grid.shape))
    return Cochain(grid, 0, node.ravel())


def contract(omega: Cochain, vel: StaggeredVelocity, dt: float,
             scheme: SchemeKind = SchemeKind.UPWIND,
             work: dict | None = None) -> ContractionResult:
    scheme = SchemeKind.from_name(scheme)
    grid = omega.grid
    _require_same_grid(omega, vel)
    _require_positive("dt", dt)
    _require_extent(min(grid.nx, grid.ny), scheme)
    nu = max_courant(vel, dt)
    if nu > 1.0:
        raise CourantError(f"courant number {nu:.6g} exceeds the hard limit 1")
    if omega.degree == 2:
        out = _contract_2form(omega, vel, dt, scheme, work)
    elif omega.degree == 1:
        out = _contract_1form(omega, vel, dt, scheme, work)
    elif omega.degree == 0:
        out = Cochain.empty(grid, -1)     # degree drops below 0
    elif omega.degree == 3:
        out = Cochain.zeros(grid, 2)
    else:
        raise ValueError(f"cannot contract degree {omega.degree}")
    return ContractionResult(out, dt)
