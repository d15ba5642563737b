"""Upwind interface reconstruction kernels (piecewise constant, WENO).

All reconstructions are phrased one-dimensionally: given cell averages
ordered from the upwind side toward the downwind side, produce the point
value at the interface between the window's center cell and its downwind
neighbour. Flow toward higher index uses the window as-is; flow toward
lower index uses the mirrored window, which callers build by reversing
the read direction. The plane path reconstructs every interface of a
plane in one kernel pass: the width + 1 wrapped shifts of the plane hold
both upwind windows, and each interface picks its window from them by
its own flow sign. The arithmetic below is order-pinned (left-assoc
sums, explicit products instead of powers) so the scalar kernel and the
vectorized plane path produce bitwise identical results.
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

    @property
    def half_width(self) -> int:
        """Farthest one-sided cell reach from the interface."""
        return {SchemeKind.UPWIND: 1, SchemeKind.WENO5: 3, SchemeKind.WENO7: 4}[self]


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


def _sq(v):
    # v * v, never v**2: keeps scalar and array paths on the same ops.
    return v * v


def _weno5_parts(w0, w1, w2, w3, w4):
    b0 = _C13 * _sq(w0 - 2.0 * w1 + w2) + 0.25 * _sq(w0 - 4.0 * w1 + 3.0 * w2)
    b1 = _C13 * _sq(w1 - 2.0 * w2 + w3) + 0.25 * _sq(w1 - w3)
    b2 = _C13 * _sq(w2 - 2.0 * w3 + w4) + 0.25 * _sq(3.0 * w2 - 4.0 * w3 + w4)
    p0 = (2.0 * w0 - 7.0 * w1 + 11.0 * w2) / 6.0
    p1 = (-w1 + 5.0 * w2 + 2.0 * w3) / 6.0
    p2 = (2.0 * w2 + 5.0 * w3 - w4) / 6.0
    return (b0, b1, b2), (p0, p1, p2)


def _weno7_parts(v0, v1, v2, v3, v4, v5, v6):
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


def _parts(scheme: SchemeKind, window):
    if scheme is SchemeKind.WENO5:
        return _weno5_parts(*window), _D5
    if scheme is SchemeKind.WENO7:
        return _weno7_parts(*window), _D7
    raise ValueError(f"scheme {scheme.value} has no candidate decomposition")


def _alphas(betas, dopt):
    return [d / _sq(SMOOTH_EPS + b) for d, b in zip(dopt, betas)]


def _left_biased(scheme: SchemeKind, window):
    """Interface value from an upwind-ordered window."""
    if scheme is SchemeKind.UPWIND:
        return window[0]
    (betas, cands), dopt = _parts(scheme, window)
    alphas = _alphas(betas, dopt)
    total = alphas[0]
    for a in alphas[1:]:
        total = total + a
    acc = (alphas[0] / total) * cands[0]
    for a, p in zip(alphas[1:], cands[1:]):
        acc = acc + (a / total) * p
    return acc


def smoothness_indicators(values, scheme: SchemeKind) -> np.ndarray:
    """Per-candidate oscillation measures for a full window."""
    _require_width(len(values), scheme)
    (betas, _), _ = _parts(scheme, tuple(values))
    return np.array(betas, dtype=np.float64)


def reconstruction_weights(values, scheme: SchemeKind) -> np.ndarray:
    """Normalized nonlinear candidate weights for a full window."""
    _require_width(len(values), scheme)
    (betas, _), dopt = _parts(scheme, tuple(values))
    alphas = _alphas(betas, dopt)
    total = alphas[0]
    for a in alphas[1:]:
        total = total + a
    return np.array([a / total for a in alphas], dtype=np.float64)


def _require_width(n: int, scheme: SchemeKind) -> None:
    if n != scheme.stencil_width:
        raise ValueError(
            f"scheme {scheme.value} needs {scheme.stencil_width} cells, got {n}")


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
    """
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    width = scheme.stencil_width
    n = u.shape[axis]
    if n <= width:
        raise ValueError(
            f"grid extent {n} too small for {scheme.value} "
            f"(needs more than {width} cells)")
    c = (width - 1) // 2
    padded = u.take(np.arange(-c - 1, n + c), axis=axis, mode="wrap")
    shifts = [padded[s:s + n] if axis == 0 else padded[:, s:s + n]
              for s in range(width + 1)]
    neg = signs < 0
    if not neg.any():
        return _left_biased(scheme, shifts[:width])
    window = [np.where(neg, shifts[width - m], shifts[m])
              for m in range(width)]
    return _left_biased(scheme, window)
