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

Each result is one flat buffer: a 1-form's x and y components are
the two halves of a fresh buffer, written directly, and a 0-form's
plane is reshaped, not copied. With a workspace (see advection.py) the
0-form is its "form" buffer, the one result that lives there, which d
consumes next; the upwind paths take their plane temporaries (the c *
flux planes, the second node term) from its "tmp" buffer; without one
they are fresh.

Each WENO contraction reconstructs its two interface sets in one call
of reconstruct._reconstruct, which runs the jobs with a negative flux
through one kernel pass together: contract_2form pairs (u, 0, flux_y)
with (u, 1, flux_x), and contract_1form pairs (wx/h, 1, avg_x) with
(wy/h, 0, avg_y). Each job carries its flux's negative-sign mask,
which the velocity computes once. The reconstructions land in the
result's two halves (2-form) or over the scaled planes (1-form, a
"tmp" buffer of two planes), and are integrated there in place. The
kernel's temporaries come from the workspace, or are fresh without
one; no result of a contraction lives in them. The upwind products
c * flux * w[up] are computed as w[up] *= (c * flux) on the freshly
read values, and a sum of products times c as (sum) *= c; a swap of
the two operands of one * or + is exact in IEEE arithmetic, so the bits
are those of the written formulas.

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

from .forms import Cochain, scratch
from .reconstruct import CourantError, SchemeKind, _reconstruct
# Unused here, but perfbench wraps lieform.contraction.interface_point_values.
from .reconstruct import interface_point_values  # noqa: F401
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


def _upwind(plane, read, out):
    """The upwind entry of every interface, as the velocity reads it.

    read is a periodic shift (axis, k), which joins the plane's blocks
    [k:] and [:k] along axis, or a flat gather index; out is filled and
    returned.
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
                   scheme: SchemeKind, work: dict | None = None) -> Cochain:
    """Transport swept through each edge, as a 1-form.

    The upwind path reads each face's upwind cell as the velocity
    fixes on first use: a shift where no flux is negative, a gather
    elsewhere.
    """
    grid = omega.grid
    w = omega.plane()
    out = Cochain(grid, 1, np.empty(2 * grid.size))
    ex, ey = out.component("x"), out.component("y")
    if scheme is SchemeKind.UPWIND:
        up_x, up_y = vel._face_upwind
        c = dt / grid.h ** 2
        coef = scratch(work, "tmp", grid.shape)
        _upwind(w, up_y, ex)
        ex *= np.multiply(-c, vel.flux_y, out=coef)
        _upwind(w, up_x, ey)
        ey *= np.multiply(c, vel.flux_x, out=coef)
    else:
        u = np.divide(w, grid.h, out=scratch(work, "tmp", grid.shape))
        neg_x, neg_y = vel._face_negative
        _reconstruct([(u, 0, neg_y), (u, 1, neg_x)], scheme, work,
                     out.values.reshape(2, *grid.shape))
        _integrate(ex, vel.flux_y, dt, grid.h, ex)
        ex *= -1.0
        _integrate(ey, vel.flux_x, dt, grid.h, ey)
    return out


def contract_1form(omega: Cochain, vel: StaggeredVelocity, dt: float,
                   scheme: SchemeKind, work: dict | None = None) -> Cochain:
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
        node = _upwind(wx, up_x, scratch(work, "form", grid.shape))
        node *= sum_x
        part = _upwind(wy, up_y, scratch(work, "tmp", grid.shape))
        part *= sum_y
        node += part
        node *= dt / (2.0 * grid.h ** 2)
    else:
        avg_x, avg_y = average_to_node(vel)
        # Both scaled planes, overwritten by their reconstructions.
        u = np.divide(omega.values.reshape(2, *grid.shape), grid.h,
                      out=scratch(work, "tmp", (2, *grid.shape)))
        neg_x, neg_y = vel._node_negative
        _reconstruct([(u[0], 1, neg_x), (u[1], 0, neg_y)], scheme, work, u)
        _integrate(u[0], avg_x, dt, grid.h, u[0])
        _integrate(u[1], avg_y, dt, grid.h, u[1])
        node = np.add(u[0], u[1], out=scratch(work, "form", grid.shape))
    return Cochain(grid, 0, node.ravel())


def contract(omega: Cochain, vel: StaggeredVelocity, dt: float,
             scheme: SchemeKind = SchemeKind.UPWIND,
             work: dict | None = None) -> ContractionResult:
    if vel.grid != omega.grid:
        raise ValueError("velocity and form live on different grids")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    nu = max_courant(vel, dt)
    if nu > 1.0:
        raise CourantError(f"courant number {nu:.6g} exceeds the hard limit 1")
    if omega.degree == 2:
        out = contract_2form(omega, vel, dt, scheme, work)
    elif omega.degree == 1:
        out = contract_1form(omega, vel, dt, scheme, work)
    elif omega.degree == 0:
        out = Cochain.empty(omega.grid, -1)     # degree drops below 0
    elif omega.degree == 3 and omega.is_empty:
        out = Cochain.zeros(omega.grid, 2)
    else:
        raise ValueError(f"cannot contract degree {omega.degree}")
    return ContractionResult(out, dt)
