"""Periodic 2-D cell complex: vertices, axis-aligned edges, square cells.

Index conventions shared by every module in this package:

* Entities of each dimension carry an (i, j) label with i in [0, nx) along x
  and j in [0, ny) along y; all index arithmetic wraps periodically.
* Vertex (i, j) sits at (i*h, j*h).
* The x-edge (i, j) runs from vertex (i, j) to vertex (i+1, j) and is
  oriented along +x; the y-edge (i, j) runs from vertex (i, j) to vertex
  (i, j+1), oriented along +y.
* Cell (i, j) is the square [i*h, (i+1)*h] x [j*h, (j+1)*h] with
  counterclockwise orientation, so its boundary reads
  +x(i, j), +y(i+1, j), -x(i, j+1), -y(i, j).
* Canonical flat order is row-major with j outer and i inner. Degree-1
  data stores the x-edge block first, then the y-edge block.

Plane arrays are shaped (ny, nx) and indexed [j, i]; a C-order ravel of a
plane is exactly the canonical order of that block.

Every periodic shift of a plane is a few flat block copies into a
given C-contiguous array, with no index array: _roll_into copies two
contiguous blocks of rows along y, and along x one flat block offset
by k entries and a strided fix-up of the columns that wrap. The public
shifted wraps it with fresh C-ordered arrays, and the upwind read calls
it directly on its own buffers and checks nothing there. d reads its
neighbours the same way, as flat slices of its input, without copying
them (derivative.py). The one wrapped copy, the WENO reconstruction's
padded plane (reconstruct._shifts), is one concatenation of three
blocks: the plane's last entries, the whole plane and its first
entries.

Two input rules are written here, the lowest module, and every public
entry of the package applies them to what its caller passed, before
any cast: _is_count, the count rule (an integer in a range, numpy's
included, but not a bool), and _require_positive, the positive-number
rule (a positive finite number, not a bool), whose error reads
"<name> must be positive and finite, got <value>". The grid applies
both: its extents must be counts of at least 4 and its edge length
positive and finite, and only then are they stored as int and float.
(The third rule, the flux sign, is reconstruct._negative.)
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

EDGE_AXES = ("x", "y")


def _is_count(n, low: int = 0, high: float = np.inf) -> bool:
    """An integer in [low, high], numpy's included, but not a bool."""
    return (isinstance(n, Integral) and not isinstance(n, bool)
            and low <= n <= high)


def _require_positive(name: str, x) -> None:
    """Raise ValueError unless x is a positive finite number.

    A bool is not one. Written so that nan fails the comparison too.
    """
    if isinstance(x, bool) or not 0.0 < x < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


@dataclass(frozen=True)
class GridComplex2D:
    """Uniform periodic grid of square cells with edge length h.

    Besides its fields it stores, computed once when it is made, shape,
    the plane-array shape (ny, nx) indexed [j, i], and size, the number
    of cells nx * ny. A step reads them about 25 times. They are plain
    attributes, not fields, so repr, ==, hash and dataclasses.fields
    see nx, ny and h only, and dataclasses.replace recomputes them.
    """

    nx: int
    ny: int
    h: float

    def __post_init__(self) -> None:
        # 4 is the smallest extent on which the incidence structure is
        # nondegenerate; reconstruction schemes impose their own minimum.
        if not (_is_count(self.nx, 4) and _is_count(self.ny, 4)):
            raise ValueError("grid must be at least 4x4 with integer extents, "
                             f"got {self.nx!r}x{self.ny!r}")
        _require_positive("edge length", self.h)
        for name, cast in (("nx", int), ("ny", int), ("h", float)):
            object.__setattr__(self, name, cast(getattr(self, name)))
        object.__setattr__(self, "shape", (self.ny, self.nx))
        object.__setattr__(self, "size", self.nx * self.ny)

    def cell_count(self, k: int) -> int:
        """Number of k-dimensional entities."""
        if k in (0, 2):
            return self.size
        if k == 1:
            return 2 * self.size
        raise ValueError(f"a 2-D complex has no cells of dimension {k}")

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex coordinate planes (X, Y), each shaped (ny, nx)."""
        xs = np.arange(self.nx) * self.h
        ys = np.arange(self.ny) * self.h
        return np.meshgrid(xs, ys)

    def flatten(self, ref: "CellRef") -> int:
        """Canonical flat index of a cell reference (indices wrap)."""
        i = ref.i % self.nx
        j = ref.j % self.ny
        base = j * self.nx + i
        if ref.dim == 1 and ref.axis == "y":
            return self.size + base
        return base

    def unflatten(self, dim: int, index: int) -> "CellRef":
        """Inverse of flatten for the given dimension.

        dim and index follow the count rule (_is_count), so a bool or a
        float is neither.
        """
        if not (type(dim) is int or _is_count(dim)) or dim not in (0, 1, 2):
            raise ValueError(f"dimension must be 0, 1 or 2, got {dim!r}")
        count = self.cell_count(dim)
        if not ((type(index) is int or _is_count(index)) and 0 <= index < count):
            raise ValueError(
                f"flat index {index!r} out of range for dimension {dim}")
        axis = None
        if dim == 1:
            axis = EDGE_AXES[index // self.size]
            index %= self.size
        return CellRef(dim, index % self.nx, index // self.nx, axis)


@dataclass(frozen=True)
class CellRef:
    """Reference to one entity: dimension, (i, j) label, and edge axis.

    dim, i and j follow the count rule (_is_count), i and j with no
    bound, and are kept as Python ints; a bool or a float is none.
    """

    dim: int
    i: int
    j: int
    axis: str | None = None  # "x" or "y"; meaningful only for dim == 1

    def __post_init__(self) -> None:
        # The count rule (_is_count); a plain int passes by its type
        # alone, as a boundary walk makes many references.
        if not (type(self.dim) is int and type(self.i) is int
                and type(self.j) is int):
            for name in ("dim", "i", "j"):
                n = getattr(self, name)
                if not _is_count(n, -np.inf):
                    raise ValueError(f"{name} must be an integer, got {n!r}")
                object.__setattr__(self, name, int(n))
        if self.dim not in (0, 1, 2):
            raise ValueError(f"dimension must be 0, 1 or 2, got {self.dim!r}")
        if self.dim == 1:
            if self.axis not in EDGE_AXES:
                raise ValueError(f"edges need axis 'x' or 'y', got {self.axis!r}")
        elif self.axis is not None:
            raise ValueError("axis is only meaningful for edges")


def build_complex(nx: int, ny: int, h: float) -> GridComplex2D:
    """The periodic complex; GridComplex2D checks the sizes as given."""
    return GridComplex2D(nx, ny, h)


def shifted(plane: np.ndarray, di: int = 0, dj: int = 0) -> np.ndarray:
    """Periodic shift: result[j, i] = plane[(j + dj) % ny, (i + di) % nx].

    The result is a fresh C-ordered array of the plane's dtype. A shift
    along one axis (or none, after whole multiples of the extent are
    dropped) is one _roll_into; a diagonal shift is two, through a
    second array.
    """
    ny, nx = plane.shape
    dj %= ny
    di %= nx
    out = np.empty(plane.shape, plane.dtype)
    if not di:
        return _roll_into(plane, dj, 0, out)
    if not dj:
        return _roll_into(plane, di, 1, out)
    return _roll_into(_roll_into(plane, dj, 0, out), di, 1,
                      np.empty(plane.shape, plane.dtype))


def _roll_into(plane: np.ndarray, k: int, axis: int,
               out: np.ndarray) -> np.ndarray:
    """out[..., i, ...] = plane[..., i + k, ...] along axis, 0 <= k < n.

    Flat block copies into out, which it returns. Along y the shift is
    the flat plane offset by k rows: two contiguous blocks. Along x it
    is one block offset by k entries, which is right except in the k
    columns that wrap, then a strided copy of those columns; for
    k > nx / 2 the block is offset the other way, by nx - k, and the
    fix-up is the first nx - k columns, so the upwind read (k = nx - 1)
    fixes one column. Nothing is checked: out must have the plane's
    shape, be C-contiguous and not overlap the plane. The plane may
    have any layout: its row blocks are read as they lie, and along x
    a non-contiguous plane is read through a C-ordered copy.
    """
    ny, nx = plane.shape
    if axis == 0:
        out[:ny - k] = plane[k:]
        out[ny - k:] = plane[:k]
        return out
    flat, dest = plane.ravel(), out.ravel()
    if 2 * k <= nx:
        dest[:flat.size - k] = flat[k:]
        out[:, nx - k:] = plane[:, :k]
    else:
        dest[nx - k:] = flat[:flat.size - nx + k]
        out[:, :nx - k] = plane[:, k:]
    return out


def boundary_chain(grid: GridComplex2D, ref: CellRef) -> list[tuple[int, int]]:
    """Ordered signed boundary of one entity as (flat lower index, sign).

    The order is part of the convention (tests sum these terms left to
    right and compare bit-for-bit against the stencil operators):
    edges list head before tail; cells walk counterclockwise starting
    from the bottom edge.
    """
    i, j = ref.i, ref.j
    if ref.dim == 1:
        if ref.axis == "x":
            head = CellRef(0, i + 1, j)
        else:
            head = CellRef(0, i, j + 1)
        return [(grid.flatten(head), 1), (grid.flatten(CellRef(0, i, j)), -1)]
    if ref.dim == 2:
        return [
            (grid.flatten(CellRef(1, i, j, "x")), 1),
            (grid.flatten(CellRef(1, i + 1, j, "y")), 1),
            (grid.flatten(CellRef(1, i, j + 1, "x")), -1),
            (grid.flatten(CellRef(1, i, j, "y")), -1),
        ]
    raise ValueError("vertices have empty boundary")
