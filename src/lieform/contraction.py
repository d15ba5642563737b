"""Upwind interior products: slot a flux field into a discrete form.

Contraction lowers the degree by one and carries the time step, since the
result measures transport during dt. Degree 0 contracts to the flagged
empty degree -1 (geometrically zero) and the flagged degree-3 empty
contracts to a genuine zero 2-form, so the advection assembly treats all
degrees uniformly.

contract is the one public entry, and it makes the checks; the bodies
below it, _contract_2form and _contract_1form, check nothing. Each body
is split at its reads: it
returns its two reconstruct._reconstruct jobs, the planes their results
go into, and a finish() that runs the arithmetic after the read and
returns the contraction (reconstruct.py says how an interface is read);
_contraction picks the body by degree, and the empty degrees read
nothing. contract makes the one read of one form and finishes it;
advection.lie_increment reads both contractions of a step in one call
and then finishes both. The scheme picks only what goes in and the
arithmetic after the read. _contract_2form pairs (w, 0, flux_y) with
(w, 1, flux_x), and _contract_1form pairs (wx, 1, x node flux) with
(wy, 0, y node flux), each job with its flux's negative-sign mask,
which the velocity computes once.

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
consumes next; the upwind 1-form reads go into the "form" and "tmp"
planes, the WENO 1-form reads into the "tmp" (2, ny, nx) buffer, and
every other plane of a contraction (the scaled 2-form, the c * flux
planes) is a "tmp" buffer of it; without one they are fresh.
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


def _check_transport(omega: Cochain, vel: StaggeredVelocity, dt: float,
                     scheme: SchemeKind, limit: float) -> None:
    """The grid's extent against the stencil, then the grid match (each a
    ValueError), then the Courant number against limit (CourantError)."""
    _require_extent(min(omega.grid.nx, omega.grid.ny), scheme)
    if vel.grid != omega.grid:
        raise ValueError("velocity and form live on different grids")
    nu = max_courant(vel, dt)
    if nu > limit:
        raise CourantError(
            f"courant number {nu:.6g} exceeds the configured limit {limit:g}")


def _integrate(r, flux, dt: float, h: float) -> None:
    """((r * flux) * dt) / h, written over r."""
    r *= flux
    r *= dt
    r /= h


def _contract_2form(omega: Cochain, vel: StaggeredVelocity, dt: float,
                    scheme: SchemeKind, work: dict | None = None) -> tuple:
    """Transport swept through each edge, as a 1-form.

    Each face reads its upwind cell by the sign of its flux, through the
    velocity's face masks, into the result's two halves.
    """
    grid = omega.grid
    w = omega.plane()
    planes = _empty((2, *grid.shape))
    neg_x, neg_y = vel._face_negative
    upwind = scheme is SchemeKind.UPWIND
    u = w if upwind else np.divide(w, grid.h,
                                   out=scratch(work, "tmp", grid.shape))

    def finish() -> Cochain:
        ex, ey = planes
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

    return [(u, 0, neg_y), (u, 1, neg_x)], planes, finish


def _contract_1form(omega: Cochain, vel: StaggeredVelocity, dt: float,
                    scheme: SchemeKind, work: dict | None = None) -> tuple:
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

    def finish() -> Cochain:
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

    return [(u[0], 1, neg_x), (u[1], 0, neg_y)], out, finish


def _contraction(omega: Cochain, vel: StaggeredVelocity, dt: float,
                 scheme: SchemeKind, work: dict | None = None) -> tuple:
    """omega's contraction split at its reads: (jobs, out, finish).

    jobs and out are one _reconstruct call's jobs and output planes;
    finish() runs the arithmetic on the results and returns the
    contraction. The empty degrees read nothing.
    """
    if omega.degree == 2:
        return _contract_2form(omega, vel, dt, scheme, work)
    if omega.degree == 1:
        return _contract_1form(omega, vel, dt, scheme, work)
    grid = omega.grid
    if omega.degree == 0:
        # degree drops below 0
        return [], (), lambda: Cochain.empty(grid, -1)
    if omega.degree == 3:
        return [], (), lambda: Cochain.zeros(grid, 2)
    raise ValueError(f"cannot contract degree {omega.degree}")


def contract(omega: Cochain, vel: StaggeredVelocity, dt: float,
             scheme: SchemeKind = SchemeKind.UPWIND,
             work: dict | None = None) -> ContractionResult:
    """omega's contraction over dt, a fresh buffer unless work holds it.

    Checks, in order: the scheme, dt, the extent and the grid match
    (ValueError), then the Courant number against 1 (CourantError).
    """
    scheme = SchemeKind.from_name(scheme)
    _require_positive("dt", dt)
    _check_transport(omega, vel, dt, scheme, 1.0)
    jobs, out, finish = _contraction(omega, vel, dt, scheme, work)
    _reconstruct(jobs, scheme, work, out)
    return ContractionResult(finish(), dt)
