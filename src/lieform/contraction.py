"""Upwind interior products: slot a flux field into a discrete form.

Contraction lowers the degree by one and carries the time step, since the
result measures transport during dt. Degree 0 contracts to the flagged
empty degree -1 (geometrically zero) and the flagged degree-3 empty
contracts to a genuine zero 2-form, so the advection assembly treats all
degrees uniformly.

contract is the one public entry, and it makes its checks through
_check_transport, which every transport entry calls; the bodies below
it, _contract_2form and _contract_1form, check nothing. Each body is
split at its reads: it returns its two reconstruct._reconstruct jobs,
each a record that names the plane it reads and the plane its result
goes into, and a finish() that runs the arithmetic after the read and
returns the contraction (reconstruct.py says how an interface is
read); _contraction picks the body by degree, and the empty degrees
read nothing. contract makes the one read of one form and finishes it;
advection.lie_increment reads both contractions of a step in one call
and then finishes both; scenarios.split_fv_step reads the 2-form
body's WENO jobs and does its own arithmetic. The scheme picks only
what goes in and the arithmetic after the read. _contract_2form pairs
(w, 0, flux_y) with (w, 1, flux_x), and _contract_1form pairs
(wx, 1, x node sum) with (wy, 0, y node sum), each job with its flux's
negative-sign mask, which the velocity computes once, and its output
plane; every scheme reads the same masks.

The piecewise-constant paths read integral values and keep every
product and sum in the exact order of the reference loop formulation;
the 1-form reads follow the signs of the unhalved two-point node sums.
The products c * flux * w[up] are computed as w[up] *= (c * flux) on
the freshly read values, and a sum of products times c as (sum) *= c;
a swap of the two operands of one * or + is exact in IEEE arithmetic,
so the bits are those of the written formulas. The WENO paths read 1-D
averages (value / h), following the signs of the face fluxes or of the
node sums, then integrate: ((value * flux) * dt) / h at a face and
((value * sum) * dt) / (2h) at a vertex, computed in place. A leading
minus goes into the time step, ((value * flux) * (-dt)) / h, as the
upwind path puts it into its coefficient: negation is exact and
round-to-nearest is symmetric, so the bits are those of the negated
result. Scaling by 2 is exact, so the vertex form has the bits of the
halved average's ((value * (sum / 2)) * dt) / h wherever no value is
subnormal.

Each result is one flat buffer, built unchecked (Cochain._of): a
1-form's x and y components are the two halves of a fresh buffer,
written directly, and a 0-form's plane is reshaped, not copied. The
bodies read their input's planes from one reshape of its values, and
take the upwind arithmetic where the scheme's member has stencil width
1, the one upwind test of every module (reconstruct.SchemeKind). With a
step's workspace (see advection.py) the 0-form is its "form" buffer,
the one result that lives there, which d consumes next; the upwind
1-form reads go into the "form" and "tmp" planes, the WENO 1-form reads
into the "tmp" (2, ny, nx) buffer, and every other plane of a
contraction (the scaled 2-form, the c * flux planes) is a "tmp" buffer
of it; without one they are fresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import Cochain, _empty, scratch
from .grid import _require_positive
from .reconstruct import CourantError, SchemeKind, _reconstruct, _require_extent
# Unused here, but perfbench wraps lieform.contraction.interface_point_values.
from .reconstruct import interface_point_values  # noqa: F401
from .velocity import StaggeredVelocity, max_courant


@dataclass(frozen=True)
class ContractionResult:
    cochain: Cochain
    dt: float


def _check_transport(omega: Cochain, vel: StaggeredVelocity, dt: float,
                     scheme, limit: float) -> SchemeKind:
    """Check a transport run and return its scheme's member.

    The one run check of every transport entry (contract,
    advection.lie_increment and advect, scenarios.split_fv_step), in
    one order: the scheme, a member or its name; dt, a positive finite
    number; the grid's extent against the stencil; the grid match, each
    a ValueError; then the Courant number against limit (CourantError).
    The grid match tests identity first, as a step's velocity and form
    share one grid, and only then equality.
    """
    scheme = SchemeKind.from_name(scheme)
    _require_positive("dt", dt)
    grid = omega.grid
    _require_extent(min(grid.nx, grid.ny), scheme)
    if vel.grid is not grid and vel.grid != grid:
        raise ValueError("velocity and form live on different grids")
    nu = max_courant(vel, dt)
    if nu > limit:
        raise CourantError(
            f"courant number {nu:.6g} exceeds the configured limit {limit:g}")
    return scheme


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
    w = omega.values.reshape(grid.shape)
    planes = _empty((2, *grid.shape))
    neg_x, neg_y = vel._face_negative
    upwind = scheme.stencil_width == 1
    u = w if upwind else np.divide(w, grid.h,
                                   out=scratch(work, "tmp", grid.shape))

    def finish() -> Cochain:
        ex, ey = planes[0], planes[1]
        if upwind:
            c = dt / grid.h ** 2
            coef = scratch(work, "tmp", grid.shape)
            ex *= np.multiply(-c, vel.flux_y, out=coef)
            ey *= np.multiply(c, vel.flux_x, out=coef)
        else:
            _integrate(ex, vel.flux_y, -dt, grid.h)
            _integrate(ey, vel.flux_x, dt, grid.h)
        return Cochain._of(grid, 1, planes.ravel())

    return [(u, 0, neg_y, planes[0]), (u, 1, neg_x, planes[1])], finish


def _contract_1form(omega: Cochain, vel: StaggeredVelocity, dt: float,
                    scheme: SchemeKind, work: dict | None = None) -> tuple:
    """Transport of edge values onto vertices, as a 0-form.

    Fluxes are summed onto the vertex lattice (unhalved two-point
    transverse sums); the upwind edge flips with the sign of the sum.
    Every scheme reads the velocity's node sums and their masks, which
    it computes once; the halving of the mean is folded into the
    arithmetic after the read.
    """
    grid = omega.grid
    planes = omega.values.reshape(2, *grid.shape)
    sum_x, sum_y = vel._node_sums
    neg_x, neg_y = vel._sum_negative
    upwind = scheme.stencil_width == 1
    if upwind:
        # The two node terms, read into the "form" and "tmp" planes.
        u = planes
        out = (scratch(work, "form", grid.shape),
               scratch(work, "tmp", grid.shape))
    else:
        # Both scaled planes, overwritten by their reconstructions.
        u = out = np.divide(planes, grid.h,
                            out=scratch(work, "tmp", (2, *grid.shape)))

    def finish() -> Cochain:
        if upwind:
            node, part = out
            node *= sum_x
            part *= sum_y
            node += part
            node *= dt / (2.0 * grid.h ** 2)
        else:
            _integrate(u[0], sum_x, dt, 2.0 * grid.h)
            _integrate(u[1], sum_y, dt, 2.0 * grid.h)
            node = np.add(u[0], u[1], out=scratch(work, "form", grid.shape))
        return Cochain._of(grid, 0, node.ravel())

    return [(u[0], 1, neg_x, out[0]), (u[1], 0, neg_y, out[1])], finish


def _contraction(omega: Cochain, vel: StaggeredVelocity, dt: float,
                 scheme: SchemeKind, work: dict | None = None) -> tuple:
    """omega's contraction split at its reads: (jobs, finish).

    jobs are one _reconstruct call's job records, each naming its
    output plane; finish() runs the arithmetic on the results and
    returns the contraction. The empty degrees read nothing.
    """
    if omega.degree == 2:
        return _contract_2form(omega, vel, dt, scheme, work)
    if omega.degree == 1:
        return _contract_1form(omega, vel, dt, scheme, work)
    grid = omega.grid
    if omega.degree == 0:
        # degree drops below 0
        return [], lambda: Cochain.empty(grid, -1)
    if omega.degree == 3:
        return [], lambda: Cochain.zeros(grid, 2)
    raise ValueError(f"cannot contract degree {omega.degree}")


def contract(omega: Cochain, vel: StaggeredVelocity, dt: float,
             scheme: SchemeKind = SchemeKind.UPWIND) -> ContractionResult:
    """omega's contraction over dt, in fresh buffers.

    Checks, in order, through _check_transport: the scheme, dt, the
    extent and the grid match (ValueError), then the Courant number
    against 1 (CourantError). The call uses no workspace: a step's
    contractions read in the step's own (see advection.py).
    """
    scheme = _check_transport(omega, vel, dt, scheme, 1.0)
    jobs, finish = _contraction(omega, vel, dt, scheme)
    _reconstruct(jobs, scheme, None)
    return ContractionResult(finish(), dt)
