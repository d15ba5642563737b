"""Discrete differential forms (cochains) and their analytic sources.

A degree-k cochain stores one float per k-cell in canonical flat order
(see grid.py). Degree 0 holds point values at vertices, degree 1 holds
line integrals along edges, degree 2 holds area integrals over cells.

The conventional degrees -1 and 3 are "empty": zero-length cochains used
as flagged results of operations that leave the 0..2 range, so the Cartan
assembly in advection.py needs no degree special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridComplex2D

REAL_DEGREES = (0, 1, 2)
EMPTY_DEGREES = (-1, 3)

# 3-point Gauss-Legendre rule on [0, 1]; exact for quintics.
_GAUSS_T = (0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0)
_GAUSS_W = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)


class NonFiniteValueError(ValueError):
    """A field evaluation or update produced NaN or infinity."""


@dataclass
class Cochain:
    """Values of a discrete k-form, flat, in canonical order.

    Treated as immutable by convention: operations return new instances.
    """

    grid: GridComplex2D
    degree: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("cochain values must be a flat vector")
        if self.degree in REAL_DEGREES:
            want = self.grid.cell_count(self.degree)
        elif self.degree in EMPTY_DEGREES:
            want = 0
        else:
            raise ValueError(f"unsupported cochain degree {self.degree}")
        if self.values.size != want:
            raise ValueError(
                f"degree-{self.degree} cochain needs {want} values, "
                f"got {self.values.size}")

    @classmethod
    def zeros(cls, grid: GridComplex2D, degree: int) -> "Cochain":
        return cls(grid, degree, np.zeros(grid.cell_count(degree)))

    @classmethod
    def empty(cls, grid: GridComplex2D, degree: int) -> "Cochain":
        if degree not in EMPTY_DEGREES:
            raise ValueError(f"empty cochains have degree -1 or 3, got {degree}")
        return cls(grid, degree, np.zeros(0))

    @classmethod
    def from_plane(cls, grid: GridComplex2D, degree: int, plane: np.ndarray) -> "Cochain":
        if degree not in (0, 2):
            raise ValueError("from_plane applies to degree 0 or 2")
        plane = np.asarray(plane, dtype=np.float64)
        if plane.shape != grid.shape:
            raise ValueError(f"plane shape {plane.shape} != grid shape {grid.shape}")
        return cls(grid, degree, plane.ravel().copy())

    @classmethod
    def from_components(cls, grid: GridComplex2D, wx: np.ndarray, wy: np.ndarray) -> "Cochain":
        wx = np.asarray(wx, dtype=np.float64)
        wy = np.asarray(wy, dtype=np.float64)
        if wx.shape != grid.shape or wy.shape != grid.shape:
            raise ValueError("component planes must match the grid shape")
        return cls(grid, 1, np.concatenate([wx.ravel(), wy.ravel()]))

    @property
    def is_empty(self) -> bool:
        """True for the flagged degree -1 / 3 results."""
        return self.degree in EMPTY_DEGREES

    def copy(self) -> "Cochain":
        return Cochain(self.grid, self.degree, self.values.copy())

    def plane(self) -> np.ndarray:
        """(ny, nx) view of a degree-0 or degree-2 cochain."""
        if self.degree not in (0, 2):
            raise ValueError(f"degree-{self.degree} cochain has no single plane")
        return self.values.reshape(self.grid.shape)

    def component(self, axis: str) -> np.ndarray:
        """(ny, nx) view of one degree-1 block ('x' or 'y' edges)."""
        if self.degree != 1:
            raise ValueError("components exist only for degree-1 cochains")
        n = self.grid.size
        if axis == "x":
            return self.values[:n].reshape(self.grid.shape)
        if axis == "y":
            return self.values[n:].reshape(self.grid.shape)
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


@dataclass(frozen=True)
class AnalyticForm:
    """Smooth form given by component callables of vectorized (x, y).

    components: degree 0 -> (f,), degree 1 -> (fx, fy), degree 2 -> (density,).
    """

    degree: int
    components: tuple[Callable, ...]

    def __post_init__(self) -> None:
        if self.degree not in REAL_DEGREES:
            raise ValueError(f"unsupported form degree {self.degree}")
        want = 2 if self.degree == 1 else 1
        if len(self.components) != want:
            raise ValueError(
                f"degree-{self.degree} form needs {want} component(s), "
                f"got {len(self.components)}")


@dataclass(frozen=True)
class RectangleForm:
    """Piecewise-constant form supported on an axis-aligned rectangle.

    Degree 1: constant coefficients (dx_coeff, dy_coeff) inside the closed
    box [x0, x1] x [y0, y1], zero outside. Degree 2: constant area density
    inside the box. Discretized by exact geometric overlap, not quadrature.
    """

    degree: int
    x0: float
    x1: float
    y0: float
    y1: float
    dx_coeff: float = 0.0
    dy_coeff: float = 1.0
    density: float = 1.0

    def __post_init__(self) -> None:
        if self.degree not in (1, 2):
            raise ValueError("rectangle forms have degree 1 or 2")
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("rectangle bounds must satisfy x0 < x1 and y0 < y1")


def scratch(work: dict | None, role: str, shape: tuple) -> np.ndarray:
    """An uninitialised float64 buffer for one operator's use.

    With work None it is a fresh array. Otherwise it is work's buffer
    for (role, shape), made on first use and handed out again on every
    later call, so its contents last only until the next operator that
    asks for the same role and shape fills it. The step's operators use
    two roles: "form" for a result the next operator consumes (within a
    step no two such results of one shape are needed at once) and "tmp"
    for a plane that dies within the operator. The WENO reconstruction
    inside a contraction adds "pad", "window" and "weno" for buffers
    that die within one kernel pass (see reconstruct.py).
    """
    if work is None:
        return np.empty(shape)
    key = (role, shape)
    buf = work.get(key)
    if buf is None:
        buf = work[key] = np.empty(shape)
    return buf


def _check_finite(values: np.ndarray, grid: GridComplex2D, degree: int, what: str) -> None:
    if not np.isfinite(values).all():
        idx = int(np.flatnonzero(~np.isfinite(values))[0])
        ref = grid.unflatten(degree, idx) if degree in REAL_DEGREES else idx
        raise NonFiniteValueError(f"non-finite value at {ref} {what}")


def _edge_line_integrals(grid: GridComplex2D, axis: str, f: Callable) -> np.ndarray:
    """Gauss-Legendre line integral of one component along every edge."""
    X, Y = grid.node_coords()
    acc = np.zeros(grid.shape)
    for t, w in zip(_GAUSS_T, _GAUSS_W):
        if axis == "x":
            acc += w * np.asarray(f(X + t * grid.h, Y), dtype=np.float64)
        else:
            acc += w * np.asarray(f(X, Y + t * grid.h), dtype=np.float64)
    return acc * grid.h


def _overlap(lo: np.ndarray, hi: np.ndarray, a: float, b: float) -> np.ndarray:
    return np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)


def _discretize_rectangle(form: RectangleForm, grid: GridComplex2D) -> Cochain:
    h = grid.h
    xs = np.arange(grid.nx) * h
    ys = np.arange(grid.ny) * h
    span_x = _overlap(xs, xs + h, form.x0, form.x1)   # per-column overlap length
    span_y = _overlap(ys, ys + h, form.y0, form.y1)
    if form.degree == 2:
        return Cochain.from_plane(grid, 2, form.density * np.outer(span_y, span_x))
    on_row = ((ys >= form.y0) & (ys <= form.y1)).astype(float)   # edge lies on y = j*h
    on_col = ((xs >= form.x0) & (xs <= form.x1)).astype(float)
    wx = form.dx_coeff * np.outer(on_row, span_x)
    wy = form.dy_coeff * np.outer(span_y, on_col)
    return Cochain.from_components(grid, wx, wy)


def discretize(form: AnalyticForm | RectangleForm, grid: GridComplex2D) -> Cochain:
    """Integrate a form over the grid's cells of matching dimension.

    Smooth forms use a fixed 3-point Gauss rule per axis; rectangle forms
    use exact overlap so jumps aligned with the grid stay exact.
    """
    if isinstance(form, RectangleForm):
        out = _discretize_rectangle(form, grid)
        _check_finite(out.values, grid, form.degree, "from rectangle form")
        return out
    if form.degree == 0:
        X, Y = grid.node_coords()
        vals = np.asarray(form.components[0](X, Y), dtype=np.float64).ravel()
        out = Cochain(grid, 0, vals.copy())
    elif form.degree == 1:
        wx = _edge_line_integrals(grid, "x", form.components[0])
        wy = _edge_line_integrals(grid, "y", form.components[1])
        out = Cochain.from_components(grid, wx, wy)
    else:
        X, Y = grid.node_coords()
        acc = np.zeros(grid.shape)
        for tx, wxq in zip(_GAUSS_T, _GAUSS_W):
            for ty, wyq in zip(_GAUSS_T, _GAUSS_W):
                acc += (wxq * wyq) * np.asarray(
                    form.components[0](X + tx * grid.h, Y + ty * grid.h),
                    dtype=np.float64)
        out = Cochain.from_plane(grid, 2, acc * grid.h ** 2)
    _check_finite(out.values, grid, form.degree, "from form evaluator")
    return out


def norm(omega: Cochain, p: int) -> float:
    """Discrete L1 (entry weight h) or unweighted L2 norm of a cochain."""
    if p == 1:
        return float(omega.grid.h * np.sum(np.abs(omega.values)))
    if p == 2:
        return float(np.sqrt(np.sum(omega.values ** 2)))
    raise ValueError(f"p must be 1 or 2, got {p}")


def axpy(a: float, x: Cochain, y: Cochain) -> Cochain:
    """a*x + y for cochains of identical grid and degree, in a fresh buffer."""
    if x.degree != y.degree:
        raise ValueError(f"degree mismatch: {x.degree} vs {y.degree}")
    if x.grid != y.grid:
        raise ValueError("grid mismatch")
    out = a * x.values
    out += y.values
    return Cochain(x.grid, x.degree, out)
