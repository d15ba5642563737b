"""Discrete exterior derivative (coboundary) on the periodic complex.

The cell sum is evaluated in a pinned term order so downstream exactness
tests can compare bit for bit against an explicit loop:

    (dw)[j, i] = wx[j, i] + wy[j, i+1] - wx[j+1, i] - wy[j, i]

Each result is one flat buffer, filled in place. It is fresh, unless a
workspace is passed (see advection.py): then it is the workspace's
"form" buffer. Nothing is copied: every term is a flat slice of the
input's values, which the result never overlaps. A neighbour along y
is the flat array offset by nx, so a y-difference is two ufuncs on
contiguous blocks, the rows that do not wrap and the last row. A
neighbour along x is the flat array offset by 1, which is right except
in the last column, so an x-difference is one ufunc on contiguous
blocks and a fix-up of the last column with stride nx. Each entry is
the same IEEE operation on the same two values as the formula, and
every contiguous output block starts where the result starts or a
whole row later: an elementwise ufunc whose output starts off a
64-byte line runs about 1.6x slower (forms._empty). The input's degree
is the only thing checked. A result in a buffer made here is built
unchecked (Cochain._of), as it is flat float64 of the right size by
construction. Two rewrites of the written formulas are used, both
exact in IEEE arithmetic: the first sum wx + wy[i+1] is computed as
wy[i+1] + wx (addition commutes), and a difference a - b is computed as
a -= b in a's buffer.
"""

from __future__ import annotations

import numpy as np

from .forms import Cochain, scratch


def exterior_derivative(omega: Cochain, work: dict | None = None) -> Cochain:
    """d: degree k -> k+1; degree-2 input yields the flagged empty result."""
    grid = omega.grid
    degree = omega.degree
    if degree == 0:
        f, n, nx = omega.values, grid.size, grid.nx
        values = scratch(work, "form", (2 * n,))
        wx, wy = values[:n], values[n:]
        np.subtract(f[1:], f[:-1], out=wx[:-1])
        np.subtract(f[::nx], f[nx - 1::nx], out=wx[nx - 1::nx])
        np.subtract(f[nx:], f[:-nx], out=wy[:-nx])
        np.subtract(f[:nx], f[-nx:], out=wy[-nx:])
        return Cochain._of(grid, 1, values)
    if degree == 1:
        v, n, nx = omega.values, grid.size, grid.nx
        wx, wy = v[:n], v[n:]
        circ = scratch(work, "form", grid.shape).ravel()
        np.add(wy[1:], wx[:-1], out=circ[:-1])
        np.add(wy[::nx], wx[nx - 1::nx], out=circ[nx - 1::nx])
        top, last = circ[:-nx], circ[-nx:]
        np.subtract(top, wx[nx:], out=top)
        np.subtract(last, wx[:nx], out=last)
        circ -= wy
        return Cochain._of(grid, 2, circ)
    if degree == 2:
        return Cochain.empty(grid, 3)
    if degree == -1:
        return Cochain.zeros(grid, 0)
    raise ValueError(f"cannot differentiate degree {degree}")
