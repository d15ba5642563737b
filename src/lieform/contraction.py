"""Upwind interior products: slot a flux field into a discrete form.

Contraction lowers the degree by one and carries the time step, since the
result measures transport during dt. Degree 0 contracts to the flagged
empty degree -1 (geometrically zero) and the flagged degree-3 empty
contracts to a genuine zero 2-form, so the advection assembly treats all
degrees uniformly.

The piecewise-constant paths keep every product and sum in the exact
order of the reference loop formulation, working directly on integral
values. The WENO paths convert to 1-D averages (value / h), reconstruct
an interface point value, then integrate: ((value * flux) * dt) / h,
computed in place (a leading minus becomes a final *= -1.0, the same
IEEE operation).

Each result is one fresh flat buffer: a 1-form's x and y components
are its two halves, written directly, and a 0-form's plane is
reshaped, not copied. The upwind products c * flux * w[up] are
computed as w[up] *= c * flux on the freshly gathered values, and a
sum of products times c as (sum) *= c; a swap of the two operands of
one * or + is exact in IEEE arithmetic, so the bits are those of the
written formulas.

A velocity's flux arrays are read-only and its upwind sides are fixed,
so the flux-derived data used here (node fluxes and their unhalved sums,
how each upwind entry is read, the peak flux behind the Courant guard)
is computed once per velocity and reused by every step. The upwind
paths read through _upwind: a direction with no negative flux reads
the same neighbour at every face, a periodic shift copied by one
np.concatenate of two blocks; any other direction gathers through its
flat index. Both copy the same values, so the bits do not depend on
the read.
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


def _integrate(r, flux, dt: float, h: float, out):
    """((r * flux) * dt) / h, written into out (which may be r itself)."""
    np.multiply(r, flux, out=out)
    out *= dt
    out /= h
    return out


def _upwind(plane, read, out=None):
    """The upwind entry of every interface, as the velocity reads it.

    read is a periodic shift (axis, k), which joins the plane's blocks
    [k:] and [:k] along axis, or a flat gather index; out is filled and
    returned (a fresh array when None).
    """
    if isinstance(read, tuple):
        axis, k = read
        if axis == 0:
            return np.concatenate((plane[k:], plane[:k]), out=out)
        return np.concatenate((plane[:, k:], plane[:, :k]), axis=1, out=out)
    # mode="wrap" lets take fill out directly (the default "raise"
    # buffers it); the cached indices are all in range.
    return plane.take(read, out=out, mode="wrap")


def contract_2form(omega: Cochain, vel: StaggeredVelocity, dt: float,
                   scheme: SchemeKind) -> Cochain:
    """Transport swept through each edge, as a 1-form.

    The upwind path reads each face's upwind cell as the velocity
    fixes on first use: a shift where no flux is negative, a gather
    elsewhere.
    """
    grid = omega.grid
    w = omega.plane()
    if scheme is SchemeKind.UPWIND:
        up_x, up_y = vel._face_upwind
        out = Cochain(grid, 1, np.empty(2 * grid.size))
        ex, ey = out.component("x"), out.component("y")
        _upwind(w, up_y, ex)
        ex *= (-(dt / grid.h ** 2)) * vel.flux_y
        _upwind(w, up_x, ey)
        ey *= (dt / grid.h ** 2) * vel.flux_x
    else:
        u = w / grid.h
        ry = interface_point_values(u, 0, vel.flux_y, scheme)
        rx = interface_point_values(u, 1, vel.flux_x, scheme)
        # Allocated after the reconstructions' temporaries are freed, so
        # the result does not leave them as a free heap top that glibc
        # trims and the next step faults back in.
        out = Cochain(grid, 1, np.empty(2 * grid.size))
        ex, ey = out.component("x"), out.component("y")
        _integrate(ry, vel.flux_y, dt, grid.h, ex)
        ex *= -1.0
        _integrate(rx, vel.flux_x, dt, grid.h, ey)
    return out


def contract_1form(omega: Cochain, vel: StaggeredVelocity, dt: float,
                   scheme: SchemeKind) -> Cochain:
    """Transport of edge values onto vertices, as a 0-form.

    Fluxes are averaged onto the vertex lattice (two-point transverse
    means); the upwind edge flips with the averaged flux sign. The
    upwind path reads that sign from the unhalved sums, which the
    velocity computes once, as it fixes how the upwind edge of every
    vertex is read: a shift where no sum is negative, a gather
    elsewhere.
    """
    grid = omega.grid
    wx = omega.component("x")
    wy = omega.component("y")
    if scheme is SchemeKind.UPWIND:
        sum_x, sum_y = vel._node_sums
        up_x, up_y = vel._node_upwind
        node = _upwind(wx, up_x)
        node *= sum_x
        part = _upwind(wy, up_y)
        part *= sum_y
        node += part
        node *= dt / (2.0 * grid.h ** 2)
    else:
        avg_x, avg_y = average_to_node(vel)
        node = interface_point_values(wx / grid.h, 1, avg_x, scheme)
        _integrate(node, avg_x, dt, grid.h, node)
        part = interface_point_values(wy / grid.h, 0, avg_y, scheme)
        node += _integrate(part, avg_y, dt, grid.h, part)
    return Cochain(grid, 0, node.ravel())


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
        out = Cochain.empty(omega.grid, -1)     # degree drops below 0
    elif omega.degree == 3 and omega.is_empty:
        out = Cochain.zeros(omega.grid, 2)
    else:
        raise ValueError(f"cannot contract degree {omega.degree}")
    return ContractionResult(out, dt)
