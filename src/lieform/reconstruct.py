"""Upwind interface reconstruction kernels (piecewise constant, WENO).

All reconstructions are phrased one-dimensionally: given cell averages
ordered from the upwind side toward the downwind side, produce the point
value at the interface between the window's center cell and its downwind
neighbour. Flow toward higher index uses the window as-is; flow toward
lower index uses the mirrored window, which callers build by reversing
the read direction. The plane path reconstructs every interface of a
plane in one kernel pass: the width + 1 wrapped shifts of the plane hold
both upwind windows, and each interface picks its window from them by
its own flow sign. A plane whose flow has no negative sign along axis 1
is reconstructed on its transpose along axis 0, so every shift is a
contiguous block of rows.

The arithmetic below is order-pinned (left-assoc sums, explicit products
instead of powers) so the scalar kernel and the vectorized plane path
produce bitwise identical results. Each expression chain makes one fresh
result and updates it in place by augmented assignment, which rebinds a
Python float and writes an array's own buffer, so one code path serves
both. Where this departs from the written formula it uses only rewrites
that are exact in IEEE arithmetic: a - c*x becomes a += (-c)*x, since
negation is exact and a - b is a + (-b); x * poly becomes poly *= x,
since multiplication commutes. Window entries are views of the wrapped
copy or of the caller's plane and are never written: every chain starts
from a fresh product, sum or negation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

SMOOTH_EPS = 1e-6

_C13 = 13.0 / 12.0

# Optimal (smooth-limit) candidate weights.
_D5 = (0.1, 0.6, 0.3)
_D7 = (1.0 / 35.0, 12.0 / 35.0, 18.0 / 35.0, 4.0 / 35.0)


class CourantError(RuntimeError):
    """The time step sweeps more than one cell per interface."""


class SchemeKind(enum.Enum):
    UPWIND = "upwind"
    WENO5 = "weno5"
    WENO7 = "weno7"

    @classmethod
    def from_name(cls, name: str) -> "SchemeKind":
        try:
            return cls(name)
        except ValueError:
            options = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown scheme {name!r} (options: {options})") from None

    @property
    def stencil_width(self) -> int:
        return {SchemeKind.UPWIND: 1, SchemeKind.WENO5: 5, SchemeKind.WENO7: 7}[self]


@dataclass(frozen=True)
class Stencil1D:
    """Cell-average window for one interface, upwind side first.

    sign is +1 when the flow points toward higher index, -1 otherwise;
    it records which orientation the window was read in.
    """

    values: tuple[float, ...]
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if len(self.values) not in (1, 5, 7):
            raise ValueError(f"unsupported window width {len(self.values)}")


def _beta5(curv, slope):
    """_C13 * curv**2 + 0.25 * slope**2, written into curv and slope."""
    curv *= curv
    curv *= _C13
    slope *= slope
    slope *= 0.25
    curv += slope
    return curv


def _weno5_parts(w0, w1, w2, w3, w4):
    c0 = w0 - 2.0 * w1
    c0 += w2
    s0 = w0 - 4.0 * w1
    s0 += 3.0 * w2
    c1 = w1 - 2.0 * w2
    c1 += w3
    c2 = w2 - 2.0 * w3
    c2 += w4
    s2 = 3.0 * w2
    s2 += -4.0 * w3
    s2 += w4
    betas = (_beta5(c0, s0), _beta5(c1, w1 - w3), _beta5(c2, s2))
    p0 = 2.0 * w0
    p0 += -7.0 * w1
    p0 += 11.0 * w2
    p0 /= 6.0
    p1 = -w1
    p1 += 5.0 * w2
    p1 += 2.0 * w3
    p1 /= 6.0
    p2 = 2.0 * w2
    p2 += 5.0 * w3
    p2 -= w4
    p2 /= 6.0
    return betas, (p0, p1, p2)


# Each WENO7 smoothness indicator is a quadratic form in the four cells
# x0..x3 of its candidate, (r0, r1, r2, c) giving
#   (x0 * (r0 . x) + x1 * (r1 . x[1:]) + x2 * (r2 . x[2:]) + c * (x3 * x3)) / 240,
# each dot product summed left to right.
_B7 = (
    ((547.0, -3882.0, 4642.0, -1854.0), (7043.0, -17246.0, 7042.0),
     (11003.0, -9402.0), 2107.0),
    ((267.0, -1642.0, 1602.0, -494.0), (2843.0, -5966.0, 1922.0),
     (3443.0, -2522.0), 547.0),
    ((547.0, -2522.0, 1922.0, -494.0), (3443.0, -5966.0, 1602.0),
     (2843.0, -1642.0), 267.0),
    ((2107.0, -9402.0, 7042.0, -1854.0), (11003.0, -17246.0, 4642.0),
     (7043.0, -3882.0), 547.0),
)


def _weno7_parts(v0, v1, v2, v3, v4, v5, v6):
    window = (v0, v1, v2, v3, v4, v5, v6)
    betas = []
    for s, (r0, r1, r2, c) in enumerate(_B7):
        x0, x1, x2, x3 = window[s:s + 4]
        b = r0[0] * x0
        b += r0[1] * x1
        b += r0[2] * x2
        b += r0[3] * x3
        b *= x0
        t = r1[0] * x1
        t += r1[1] * x2
        t += r1[2] * x3
        t *= x1
        b += t
        t = r2[0] * x2
        t += r2[1] * x3
        t *= x2
        b += t
        t = x3 * x3
        t *= c
        b += t
        b /= 240.0
        betas.append(b)
    p0 = -3.0 * v0
    p0 += 13.0 * v1
    p0 += -23.0 * v2
    p0 += 25.0 * v3
    p0 /= 12.0
    p1 = v1 - 5.0 * v2
    p1 += 13.0 * v3
    p1 += 3.0 * v4
    p1 /= 12.0
    p2 = -v2
    p2 += 7.0 * v3
    p2 += 7.0 * v4
    p2 -= v5
    p2 /= 12.0
    p3 = 3.0 * v3
    p3 += 13.0 * v4
    p3 += -5.0 * v5
    p3 += v6
    p3 /= 12.0
    return tuple(betas), (p0, p1, p2, p3)


def _parts(scheme: SchemeKind, window):
    if scheme is SchemeKind.WENO5:
        return _weno5_parts(*window), _D5
    if scheme is SchemeKind.WENO7:
        return _weno7_parts(*window), _D7
    raise ValueError(f"scheme {scheme.value} has no candidate decomposition")


def _left_biased(scheme: SchemeKind, window):
    """Interface value from an upwind-ordered window."""
    if scheme is SchemeKind.UPWIND:
        return window[0]
    (betas, cands), dopt = _parts(scheme, window)
    alphas = []
    for d, b in zip(dopt, betas):
        s = SMOOTH_EPS + b
        s *= s
        alphas.append(d / s)
    total = alphas[0] + alphas[1]
    for a in alphas[2:]:
        total += a
    terms = []
    for a, p in zip(alphas, cands):
        a /= total
        a *= p
        terms.append(a)
    acc = terms[0]
    for t in terms[1:]:
        acc += t
    return acc


def _require_width(n: int, scheme: SchemeKind) -> None:
    if n != scheme.stencil_width:
        raise ValueError(
            f"scheme {scheme.value} needs {scheme.stencil_width} cells, got {n}")


def _require_extent(n: int, scheme: SchemeKind) -> None:
    """A plane axis of extent n must hold more cells than the stencil."""
    if n <= scheme.stencil_width:
        raise ValueError(
            f"grid extent {n} too small for {scheme.value} "
            f"(needs at least {scheme.stencil_width + 1} cells)")


def reconstruct_at_interface(stencil: Stencil1D, scheme: SchemeKind) -> float:
    """Point value at the window's downwind interface."""
    _require_width(len(stencil.values), scheme)
    return float(_left_biased(scheme, stencil.values))


def extrusion_integral(stencil: Stencil1D, scheme: SchemeKind,
                       flux: float, dt: float, h: float) -> float:
    """Amount swept through one interface during dt.

    The stencil holds 1-D averages (integral values divided by h); the
    result is back in integral units: ((value * flux) * dt) / h.
    """
    if flux == 0.0:
        return 0.0
    nu = abs(flux) * dt / h ** 2
    if nu > 1.0:
        raise CourantError(f"interface courant number {nu:.6g} exceeds 1")
    if (flux > 0.0) != (stencil.sign > 0):
        raise ValueError(
            f"stencil read for sign {stencil.sign:+d} but flux is {flux:g}")
    r = reconstruct_at_interface(stencil, scheme)
    return ((r * flux) * dt) / h


def interface_point_values(u: np.ndarray, axis: int, signs: np.ndarray,
                           scheme: SchemeKind) -> np.ndarray:
    """Upwind-reconstructed point values at every interface of a plane.

    Interface k along `axis` separates cells k-1 and k (so it shares the
    index of its downwind-side cell when flow points up the axis). signs
    gives the flow direction per interface; zeros (either sign of zero)
    fall back to the positive-direction value, which callers null out
    with the zero flux.

    Each interface is reconstructed once. Shift s (0..width) of the
    plane, a view into one wrapped copy, holds cell k - c - 1 + s at
    interface k, where c = (width - 1) // 2. The positive window is
    shifts 0..width-1 and the negative window is shifts width..1; each
    interface selects its window by its sign before the single kernel
    pass.

    When no sign is negative, an axis-1 call reconstructs the transpose
    along axis 0 and returns the transposed result: each shift is then a
    contiguous block of rows, not a strided column window, and the
    elementwise kernel gives the same bits in either layout. The
    mixed-sign path keeps the plane's layout, because np.where already
    writes each window entry contiguously. signs must have the plane's
    shape.
    """
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    if np.shape(signs) != u.shape:
        raise ValueError(
            f"signs shape {np.shape(signs)} != plane shape {u.shape}")
    width = scheme.stencil_width
    n = u.shape[axis]
    _require_extent(n, scheme)
    c = (width - 1) // 2
    neg = signs < 0
    one_signed = not neg.any()
    transposed = one_signed and axis == 1
    if transposed:
        u, axis = u.T, 0
    padded = u.take(np.arange(-c - 1, n + c), axis=axis, mode="wrap")
    shifts = [padded[s:s + n] if axis == 0 else padded[:, s:s + n]
              for s in range(width + 1)]
    if one_signed:
        r = _left_biased(scheme, shifts[:width])
        return r.T if transposed else r
    window = [np.where(neg, shifts[width - m], shifts[m])
              for m in range(width)]
    return _left_biased(scheme, window)
