"""Discrete exterior derivative (coboundary) on the periodic complex.

The cell sum is evaluated in a pinned term order so downstream exactness
tests can compare bit for bit against an explicit loop:

    (dw)[j, i] = wx[j, i] + wy[j, i+1] - wx[j+1, i] - wy[j, i]

Each result is one fresh flat buffer, filled in place. Two rewrites of
the written formulas are used, both exact in IEEE arithmetic: the first
sum wx + s is computed as s += wx (addition commutes), and a difference
a - b is computed as a -= b on a fresh a.
"""

from __future__ import annotations

import numpy as np

from .forms import Cochain
from .grid import shifted


def exterior_derivative(omega: Cochain) -> Cochain:
    """d: degree k -> k+1; degree-2 input yields the flagged empty result."""
    grid = omega.grid
    if omega.degree == 0:
        f = omega.plane()
        out = Cochain(grid, 1, np.empty(2 * grid.size))
        wx = shifted(f, di=1, out=out.component("x"))
        wx -= f
        wy = shifted(f, dj=1, out=out.component("y"))
        wy -= f
        return out
    if omega.degree == 1:
        wx = omega.component("x")
        wy = omega.component("y")
        circ = shifted(wy, di=1)
        circ += wx
        circ -= shifted(wx, dj=1)
        circ -= wy
        return Cochain(grid, 2, circ.ravel())
    if omega.degree == 2:
        return Cochain.empty(grid, 3)
    if omega.is_empty and omega.degree == -1:
        return Cochain.zeros(grid, 0)
    raise ValueError(f"cannot differentiate degree {omega.degree}")
