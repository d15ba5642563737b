"""Discrete exterior derivative (coboundary) on the periodic complex.

The cell sum is evaluated in a pinned term order so downstream exactness
tests can compare bit for bit against an explicit loop:

    (dw)[j, i] = wx[j, i] + wy[j, i+1] - wx[j+1, i] - wy[j, i]

Each result is one flat buffer, filled in place. It is fresh, unless a
workspace is passed (see advection.py): then the result and the shifted
plane a 1-form's cell sum subtracts are the workspace's "form" and
"tmp" buffers. grid._roll_into writes each shifted plane straight into
its buffer, which never overlaps the input; the input's degree is the
only thing checked, and the planes are views of one reshape of the
flat values, taken by index (unpacking an array iterates it, which
costs about 0.5 us more). A result in a buffer made here is built
unchecked (Cochain._of), as it is flat float64 of the right size by
construction. Two rewrites of the written formulas are used, both
exact in IEEE arithmetic: the first sum wx + s is computed as s += wx
(addition commutes), and a difference a - b is computed as a -= b in
a's buffer.
"""

from __future__ import annotations

from .forms import Cochain, scratch
from .grid import _roll_into


def exterior_derivative(omega: Cochain, work: dict | None = None) -> Cochain:
    """d: degree k -> k+1; degree-2 input yields the flagged empty result."""
    grid = omega.grid
    degree = omega.degree
    if degree == 0:
        f = omega.values.reshape(grid.shape)
        values = scratch(work, "form", (2 * grid.size,))
        planes = values.reshape(2, *grid.shape)
        wx = _roll_into(f, 1, 1, planes[0])
        wx -= f
        wy = _roll_into(f, 1, 0, planes[1])
        wy -= f
        return Cochain._of(grid, 1, values)
    if degree == 1:
        planes = omega.values.reshape(2, *grid.shape)
        wx, wy = planes[0], planes[1]
        circ = _roll_into(wy, 1, 1, scratch(work, "form", grid.shape))
        circ += wx
        circ -= _roll_into(wx, 1, 0, scratch(work, "tmp", grid.shape))
        circ -= wy
        return Cochain._of(grid, 2, circ.ravel())
    if degree == 2:
        return Cochain.empty(grid, 3)
    if degree == -1:
        return Cochain.zeros(grid, 0)
    raise ValueError(f"cannot differentiate degree {degree}")
