"""Independent slow references the test suite checks the package against.

Six kinds of material live here. The loop section rewrites the stencil
updates as naive scalar Python with explicit modular wrapping, keeping
every sum and product in the order the vectorized planes use, so the
comparisons can demand bitwise equality. The restriction loops map a
cochain on a (2ny, 2nx) grid to its (ny, nx) coarsening by adding the
fine integrals each coarse entity covers. The sparse incidence operator
assembles the chain boundary as a scipy.sparse matrix, so the stencil
coboundary and the identity "boundary of a boundary is zero" can be
checked against plain matrix products. The written-form WENO kernel
spells the reconstruction formulas as plain expressions; the package's
in-place kernels must match it bit for bit, and the smoothness
indicators and nonlinear weights the exact-rational tests examine are
read from it. The exact-rational section rederives the reconstruction
tables from polynomial reproduction conditions with fractions.Fraction,
giving the frozen float constants an origin that is not themselves.
The written Gauss loops integrate smooth components over edges and
cells the way the package once wrote them, one loop per degree, so its
one tensor rule can be held to the same bits.

Nothing here imports from lieform. Where a test wants a package kernel
inside an otherwise independent driver (the flux-difference step), the
kernel arrives as an injected callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse


def _shape(plane):
    return len(plane), len(plane[0])


# ---------------------------------------------------------------------------
# coboundary loops


def grad_loop(f):
    """Per-edge differences of vertex values, head minus tail."""
    ny, nx = _shape(f)
    gx = [[f[j][(i + 1) % nx] - f[j][i] for i in range(nx)] for j in range(ny)]
    gy = [[f[(j + 1) % ny][i] - f[j][i] for i in range(nx)] for j in range(ny)]
    return gx, gy


def curl_loop(wx, wy):
    """Per-cell circulation of edge values in the pinned term order."""
    ny, nx = _shape(wx)
    return [[wx[j][i] + wy[j][(i + 1) % nx] - wx[(j + 1) % ny][i] - wy[j][i]
             for i in range(nx)]
            for j in range(ny)]


# ---------------------------------------------------------------------------
# cochain restriction from a (2ny, 2nx) grid to its (ny, nx) coarsening
#
# Coarse entity (i, j) covers the fine entities with labels 2i..2i+1 and
# 2j..2j+1 that lie inside it. Integrals add up, so restriction commutes
# with the coboundary: the fine edges inside a coarse edge telescope, and
# the fine edges inside a coarse cell cancel in pairs.


def restrict_0form_loop(f):
    """Coarse vertex (i, j) is fine vertex (2i, 2j), injected."""
    ny, nx = _shape(f)
    return [[f[2 * j][2 * i] for i in range(nx // 2)] for j in range(ny // 2)]


def restrict_1form_loop(wx, wy):
    """A coarse edge is the sum of the two fine edges it covers."""
    ny, nx = _shape(wx)
    cx = [[wx[2 * j][2 * i] + wx[2 * j][2 * i + 1] for i in range(nx // 2)]
          for j in range(ny // 2)]
    cy = [[wy[2 * j][2 * i] + wy[2 * j + 1][2 * i] for i in range(nx // 2)]
          for j in range(ny // 2)]
    return cx, cy


def restrict_2form_loop(w):
    """A coarse cell is the sum of its four fine cells."""
    ny, nx = _shape(w)
    return [[w[2 * j][2 * i] + w[2 * j][2 * i + 1] + w[2 * j + 1][2 * i]
             + w[2 * j + 1][2 * i + 1] for i in range(nx // 2)]
            for j in range(ny // 2)]


# ---------------------------------------------------------------------------
# sparse incidence operator


@dataclass(frozen=True)
class IncidenceOperator:
    """Signed boundary operator for the k-cells of a grid complex.

    ``entries`` is sparse with one row per k-cell and one column per
    (k-1)-cell; row sigma holds the +/-1 coefficients of the chain
    boundary of sigma. Applying ``entries`` to a vector of (k-1)-cochain
    values therefore evaluates the coboundary: row sigma of the product
    is the signed sum of the cochain over the boundary of sigma.
    """

    k: int
    grid: object  # only nx, ny and size are read, so no lieform import
    entries: sparse.csr_matrix

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Signed boundary sums of a (k-1)-cochain value vector."""
        return self.entries @ values


def boundary_operator(grid, k: int) -> IncidenceOperator:
    """Assemble the boundary operator for dimension k (1 or 2)."""
    if k not in (1, 2):
        raise ValueError(f"boundary operator exists for k in (1, 2), got {k}")
    n = grid.size
    nx, ny = grid.nx, grid.ny
    jj, ii = np.divmod(np.arange(n), nx)
    east = jj * nx + (ii + 1) % nx
    north = ((jj + 1) % ny) * nx + ii

    if k == 1:
        # x-edge rows: +head, -tail; then the y-edge block.
        rows = np.concatenate([np.arange(n), np.arange(n),
                               n + np.arange(n), n + np.arange(n)])
        cols = np.concatenate([east, np.arange(n), north, np.arange(n)])
        data = np.concatenate([np.ones(n), -np.ones(n), np.ones(n), -np.ones(n)])
        shape = (2 * n, n)
    else:
        # cell rows: +x(i,j), +y(i+1,j), -x(i,j+1), -y(i,j)
        cell = np.arange(n)
        rows = np.concatenate([cell, cell, cell, cell])
        cols = np.concatenate([cell, n + east, north, n + cell])
        data = np.concatenate([np.ones(n), np.ones(n), -np.ones(n), -np.ones(n)])
        shape = (n, 2 * n)
    mat = sparse.coo_matrix((data.astype(np.int8), (rows, cols)), shape=shape)
    return IncidenceOperator(k, grid, mat.tocsr())


# ---------------------------------------------------------------------------
# piecewise-constant transport loops
#
# The *_positive_loop variants are literal transcriptions of the uniformly
# positive-flow formulas; the plain variants extend them by letting the
# upwind entry follow the flux sign, which is how the package treats mixed
# signs. Fluxes are face-integrated, so the cell-crossing fraction of one
# face during dt is flux * dt / h**2.


def transport_2form_positive_loop(w, fx, fy, dt, h):
    """Cell content carried through each edge, all fluxes positive.

    The x-edge amount carries a leading minus from the orientation
    convention; its upwind cell sits below, a y-edge's upwind cell sits
    to the left.
    """
    ny, nx = _shape(w)
    ex = [[-(dt / h ** 2) * fy[j][i] * w[(j - 1) % ny][i] for i in range(nx)]
          for j in range(ny)]
    ey = [[dt / h ** 2 * fx[j][i] * w[j][(i - 1) % nx] for i in range(nx)]
          for j in range(ny)]
    return ex, ey


def transport_2form_loop(w, fx, fy, dt, h):
    ny, nx = _shape(w)
    ex = [[-(dt / h ** 2) * fy[j][i]
           * (w[(j - 1) % ny][i] if fy[j][i] >= 0.0 else w[j][i])
           for i in range(nx)]
          for j in range(ny)]
    ey = [[dt / h ** 2 * fx[j][i]
           * (w[j][(i - 1) % nx] if fx[j][i] >= 0.0 else w[j][i])
           for i in range(nx)]
          for j in range(ny)]
    return ex, ey


def transport_1form_positive_loop(wx, wy, fx, fy, dt, h):
    """Edge values carried onto vertices, all fluxes positive.

    Each vertex pairs the transverse two-point flux sum with the edge
    value on its lower-index side; the factor 2 in the denominator turns
    the sums into averages.
    """
    ny, nx = _shape(wx)
    out = []
    for j in range(ny):
        row = []
        for i in range(nx):
            sx = fx[j][i] + fx[(j - 1) % ny][i]
            sy = fy[j][i] + fy[j][(i - 1) % nx]
            row.append(dt / (2.0 * h ** 2)
                       * (sx * wx[j][(i - 1) % nx] + sy * wy[(j - 1) % ny][i]))
        out.append(row)
    return out


def transport_1form_loop(wx, wy, fx, fy, dt, h):
    ny, nx = _shape(wx)
    out = []
    for j in range(ny):
        row = []
        for i in range(nx):
            sx = fx[j][i] + fx[(j - 1) % ny][i]
            sy = fy[j][i] + fy[j][(i - 1) % nx]
            ox = wx[j][(i - 1) % nx] if sx >= 0.0 else wx[j][i]
            oy = wy[(j - 1) % ny][i] if sy >= 0.0 else wy[j][i]
            row.append(dt / (2.0 * h ** 2) * (sx * ox + sy * oy))
        out.append(row)
    return out


def _assemble_update(wx, wy, ex, ey, gx, gy):
    ny, nx = _shape(wx)
    new_x = [[wx[j][i] - (ex[j][i] + gx[j][i]) for i in range(nx)]
             for j in range(ny)]
    new_y = [[wy[j][i] - (ey[j][i] + gy[j][i]) for i in range(nx)]
             for j in range(ny)]
    return new_x, new_y


def update_1form_positive_loop(wx, wy, fx, fy, dt, h):
    """Full explicit 1-form step for positive fluxes, stage by stage.

    Returns a dict holding every intermediate: "curl" (cell circulation),
    "edge" (its transport back to edges), "node" (edge transport to
    vertices), "node_grad" (its differences), and "new" components.
    """
    dw = curl_loop(wx, wy)
    ex, ey = transport_2form_positive_loop(dw, fx, fy, dt, h)
    node = transport_1form_positive_loop(wx, wy, fx, fy, dt, h)
    gx, gy = grad_loop(node)
    new_x, new_y = _assemble_update(wx, wy, ex, ey, gx, gy)
    return {"curl": dw, "edge": (ex, ey), "node": node,
            "node_grad": (gx, gy), "new": (new_x, new_y)}


def update_1form_loop(wx, wy, fx, fy, dt, h):
    dw = curl_loop(wx, wy)
    ex, ey = transport_2form_loop(dw, fx, fy, dt, h)
    node = transport_1form_loop(wx, wy, fx, fy, dt, h)
    gx, gy = grad_loop(node)
    new_x, new_y = _assemble_update(wx, wy, ex, ey, gx, gy)
    return {"curl": dw, "edge": (ex, ey), "node": node,
            "node_grad": (gx, gy), "new": (new_x, new_y)}


# ---------------------------------------------------------------------------
# norms (exact accumulation via fsum; compare with a tolerance)


def norm1_loop(h, blocks):
    return h * math.fsum(abs(v) for block in blocks for row in block for v in row)


def norm2_loop(blocks):
    return math.sqrt(math.fsum(v * v for block in blocks for row in block for v in row))


# ---------------------------------------------------------------------------
# written Gauss loops: one per degree, nodes and weights in separate tuples

GAUSS_T = (0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0)
GAUSS_W = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)


def edge_line_integrals(grid, axis, f):
    """3-point Gauss line integral of f along every x- or y-edge."""
    X, Y = grid.node_coords()
    acc = np.zeros(grid.shape)
    for t, w in zip(GAUSS_T, GAUSS_W):
        if axis == "x":
            acc += w * np.asarray(f(X + t * grid.h, Y), dtype=np.float64)
        else:
            acc += w * np.asarray(f(X, Y + t * grid.h), dtype=np.float64)
    return acc * grid.h


def cell_area_integrals(grid, f):
    """3x3-point Gauss area integral of f over every cell, x loop outer."""
    X, Y = grid.node_coords()
    acc = np.zeros(grid.shape)
    for tx, wxq in zip(GAUSS_T, GAUSS_W):
        for ty, wyq in zip(GAUSS_T, GAUSS_W):
            acc += (wxq * wyq) * np.asarray(f(X + tx * grid.h, Y + ty * grid.h),
                                            dtype=np.float64)
    return acc * grid.h ** 2


# ---------------------------------------------------------------------------
# flux-difference driver with an injected per-face kernel


def window_cells(k, n, width, positive):
    """Wrapped cell indices feeding the interface between cells k-1 and k.

    Ordered upwind side first. For positive flow the window centers on
    cell k-1 and reads up the axis; for negative flow it centers on cell
    k and reads down.
    """
    c = (width - 1) // 2
    if positive:
        return [(k - 1 - c + m) % n for m in range(width)]
    return [(k + c - m) % n for m in range(width)]


def fv_step_2form_loop(w, fx, fy, dt, h, width, transport):
    """One conservative flux-difference update of cell integrals.

    transport(values, flux) -> signed amount through one face during dt,
    given the upwind-ordered window of raw cell integrals along that
    face's column or row. This driver only builds windows and differences
    the per-face amounts; the kernel is whatever the caller injects.
    """
    ny, nx = _shape(w)
    south = [[0.0] * nx for _ in range(ny)]
    west = [[0.0] * nx for _ in range(ny)]
    for j in range(ny):
        for i in range(nx):
            cells = window_cells(j, ny, width, fy[j][i] >= 0.0)
            south[j][i] = -transport([w[m][i] for m in cells], fy[j][i])
            cells = window_cells(i, nx, width, fx[j][i] >= 0.0)
            west[j][i] = transport([w[j][m] for m in cells], fx[j][i])
    return [[w[j][i] - (south[j][i] + west[j][(i + 1) % nx]
                        - south[(j + 1) % ny][i] - west[j][i])
             for i in range(nx)]
            for j in range(ny)]


# ---------------------------------------------------------------------------
# WENO kernel in its written form
#
# The package kernels make one fresh result per expression chain and
# update it in place. These are the same formulas as plain expressions,
# one fresh value per operation, kept as the oracle that pins the
# package's bits. They take scalars or equal-shape arrays alike.

SMOOTH_EPS = 1e-6

_C13 = 13.0 / 12.0

# Optimal (smooth-limit) candidate weights.
_D5 = (0.1, 0.6, 0.3)
_D7 = (1.0 / 35.0, 12.0 / 35.0, 18.0 / 35.0, 4.0 / 35.0)


def _sq(v):
    # v * v, never v**2: keeps scalar and array paths on the same ops.
    return v * v


def weno5_parts(w0, w1, w2, w3, w4):
    b0 = _C13 * _sq(w0 - 2.0 * w1 + w2) + 0.25 * _sq(w0 - 4.0 * w1 + 3.0 * w2)
    b1 = _C13 * _sq(w1 - 2.0 * w2 + w3) + 0.25 * _sq(w1 - w3)
    b2 = _C13 * _sq(w2 - 2.0 * w3 + w4) + 0.25 * _sq(3.0 * w2 - 4.0 * w3 + w4)
    p0 = (2.0 * w0 - 7.0 * w1 + 11.0 * w2) / 6.0
    p1 = (-w1 + 5.0 * w2 + 2.0 * w3) / 6.0
    p2 = (2.0 * w2 + 5.0 * w3 - w4) / 6.0
    return (b0, b1, b2), (p0, p1, p2)


def weno7_parts(v0, v1, v2, v3, v4, v5, v6):
    b0 = (v0 * (547.0 * v0 - 3882.0 * v1 + 4642.0 * v2 - 1854.0 * v3)
          + v1 * (7043.0 * v1 - 17246.0 * v2 + 7042.0 * v3)
          + v2 * (11003.0 * v2 - 9402.0 * v3)
          + 2107.0 * _sq(v3)) / 240.0
    b1 = (v1 * (267.0 * v1 - 1642.0 * v2 + 1602.0 * v3 - 494.0 * v4)
          + v2 * (2843.0 * v2 - 5966.0 * v3 + 1922.0 * v4)
          + v3 * (3443.0 * v3 - 2522.0 * v4)
          + 547.0 * _sq(v4)) / 240.0
    b2 = (v2 * (547.0 * v2 - 2522.0 * v3 + 1922.0 * v4 - 494.0 * v5)
          + v3 * (3443.0 * v3 - 5966.0 * v4 + 1602.0 * v5)
          + v4 * (2843.0 * v4 - 1642.0 * v5)
          + 267.0 * _sq(v5)) / 240.0
    b3 = (v3 * (2107.0 * v3 - 9402.0 * v4 + 7042.0 * v5 - 1854.0 * v6)
          + v4 * (11003.0 * v4 - 17246.0 * v5 + 4642.0 * v6)
          + v5 * (7043.0 * v5 - 3882.0 * v6)
          + 547.0 * _sq(v6)) / 240.0
    p0 = (-3.0 * v0 + 13.0 * v1 - 23.0 * v2 + 25.0 * v3) / 12.0
    p1 = (v1 - 5.0 * v2 + 13.0 * v3 + 3.0 * v4) / 12.0
    p2 = (-v2 + 7.0 * v3 + 7.0 * v4 - v5) / 12.0
    p3 = (3.0 * v3 + 13.0 * v4 - 5.0 * v5 + v6) / 12.0
    return (b0, b1, b2, b3), (p0, p1, p2, p3)


def weno_parts(window):
    """((betas, candidates), optimal weights) of a 5- or 7-cell window."""
    if len(window) == 5:
        return weno5_parts(*window), _D5
    if len(window) == 7:
        return weno7_parts(*window), _D7
    raise ValueError(f"no candidate decomposition for {len(window)} cells")


def weno_alphas(betas, dopt):
    return [d / _sq(SMOOTH_EPS + b) for d, b in zip(dopt, betas)]


def left_biased(window):
    """Interface value from an upwind-ordered window (1, 5 or 7 cells)."""
    if len(window) == 1:
        return window[0]
    (betas, cands), dopt = weno_parts(window)
    alphas = weno_alphas(betas, dopt)
    total = alphas[0]
    for a in alphas[1:]:
        total = total + a
    acc = (alphas[0] / total) * cands[0]
    for a, p in zip(alphas[1:], cands[1:]):
        acc = acc + (a / total) * p
    return acc


def _require_width(n, scheme):
    if n != scheme.stencil_width:
        raise ValueError(
            f"scheme {scheme.value} needs {scheme.stencil_width} cells, got {n}")


def smoothness_indicators(values, scheme) -> np.ndarray:
    """Per-candidate oscillation measures for a full window."""
    _require_width(len(values), scheme)
    (betas, _), _ = weno_parts(tuple(values))
    return np.array(betas, dtype=np.float64)


def reconstruction_weights(values, scheme) -> np.ndarray:
    """Normalized nonlinear candidate weights for a full window."""
    _require_width(len(values), scheme)
    (betas, _), dopt = weno_parts(tuple(values))
    alphas = weno_alphas(betas, dopt)
    total = alphas[0]
    for a in alphas[1:]:
        total = total + a
    return np.array([a / total for a in alphas], dtype=np.float64)


# ---------------------------------------------------------------------------
# exact reconstruction algebra
#
# Cells have unit width; the window's center cell occupies [-1/2, 1/2]
# and the reconstruction target is its right endpoint x = 1/2. Everything
# below is exact over the rationals.

_HALF = Fraction(1, 2)


def solve_exact(rows, rhs):
    """Gauss-Jordan elimination over Fraction; rows is a list of lists."""
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        scale = m[col][col]
        m[col] = [v / scale for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def average_of_power(offset, power):
    """Mean of x**power over the unit cell centered at an integer offset."""
    o = Fraction(offset)
    hi = (o + _HALF) ** (power + 1)
    lo = (o - _HALF) ** (power + 1)
    return (hi - lo) / (power + 1)


def interface_row(offsets):
    """Coefficients mapping cell means on `offsets` to the value at 1/2.

    Exact for every polynomial of degree below len(offsets): built by
    requiring reproduction of each monomial in turn.
    """
    offsets = list(offsets)
    r = len(offsets)
    rows = [[average_of_power(o, q) for o in offsets] for q in range(r)]
    rhs = [_HALF ** q for q in range(r)]
    return solve_exact(rows, rhs)


def candidate_rows(r):
    """All r sub-stencil rows of the (2r-1)-cell upwind-biased window."""
    return [interface_row(range(s - r + 1, s + 1)) for s in range(r)]


def full_row(r):
    """Single (2r-1)-cell row, exact through degree 2r-2."""
    return interface_row(range(-(r - 1), r))


def optimal_blend(r):
    """Smooth-limit candidate weights d plus the rows they must recover.

    Embedding candidate s at window position s, sum(d[s] * row_s) has to
    equal the full row. The first r window positions give a triangular
    system for d; the leftover positions are then checked identically,
    so a wrong candidate table cannot sneak through.
    """
    cands = candidate_rows(r)
    full = full_row(r)
    d = []
    for m in range(r):
        acc = Fraction(0)
        for s in range(m):
            acc += d[s] * cands[s][m - s]
        d.append((full[m] - acc) / cands[m][0])
    for m in range(2 * r - 1):
        total = sum((d[s] * cands[s][m - s]
                     for s in range(r) if 0 <= m - s < r), Fraction(0))
        if total != full[m]:
            raise AssertionError(f"candidate embedding misses the full row at {m}")
    return d, full, cands


def _poly_fit(offsets, w):
    """Monomial coefficients of the polynomial with cell means w."""
    offsets = list(offsets)
    r = len(offsets)
    rows = [[average_of_power(o, q) for q in range(r)] for o in offsets]
    return solve_exact(rows, w)


def _poly_diff(coeffs):
    return [q * coeffs[q] for q in range(1, len(coeffs))]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_int_center(coeffs):
    """Definite integral over [-1/2, 1/2]."""
    total = Fraction(0)
    for q, c in enumerate(coeffs):
        total += c * (_HALF ** (q + 1) - (-_HALF) ** (q + 1)) / (q + 1)
    return total


def smoothness_matrix(offsets):
    """Exact quadratic form of one sub-stencil's oscillation measure.

    beta(w) = w M w, where beta sums the squared derivatives of the
    fitted polynomial (orders 1 through r-1) integrated over the center
    cell.
    """
    offsets = list(offsets)
    r = len(offsets)
    basis = []
    for i in range(r):
        e = [Fraction(int(m == i)) for m in range(r)]
        basis.append(_poly_fit(offsets, e))
    mat = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            pi, pj = basis[i], basis[j]
            total = Fraction(0)
            for _ in range(r - 1):
                pi = _poly_diff(pi)
                pj = _poly_diff(pj)
                total += _poly_int_center(_poly_mul(pi, pj))
            mat[i][j] = total
            mat[j][i] = total
    return mat


def eval_quadratic(mat, values):
    """Exact w M w with float inputs converted losslessly to Fraction."""
    vals = [Fraction(v) for v in values]
    total = Fraction(0)
    for i, vi in enumerate(vals):
        for j, vj in enumerate(vals):
            total += mat[i][j] * vi * vj
    return total
