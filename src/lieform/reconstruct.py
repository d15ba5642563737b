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
produce bitwise identical results. One kernel serves Python floats and
planes. Each expression chain starts with one operation that makes its
value (a chain start: a product, sum, difference, quotient or negation)
and updates it in place by augmented assignment, which rebinds a Python
float and writes an array's own buffer. The chain starts are called
through a small table picked by the type of the window entries: Python
arithmetic for floats, numpy's ufuncs for arrays, each given a slot to
write into. A slot of None makes a fresh array, as the public
interface_point_values does; a pass under a workspace passes its
buffers, so the pass allocates nothing. Where this departs from the
written formula it uses only rewrites that are exact in IEEE arithmetic:
a - c*x becomes a += (-c)*x, since negation is exact and a - b is
a + (-b); x * poly becomes poly *= x and eps + b becomes b += eps, since
multiplication and addition commute. Window entries are views of the
wrapped copy or of the caller's plane, or window buffers, and are never
written: every chain starts in a slot of its own.

Workspace contract (see advection.py for who owns the workspace).
_reconstruct takes one or two jobs and a workspace, a dict that
forms.scratch hands buffers out of, one per (role, shape):
  - "weno": the kernel temporaries of one pass, one block of slots of
    the pass's shape (7 for WENO5, 9 for WENO7), fetched once per pass;
  - "window": the windows of a mixed pass, one (width, jobs, ny, nx)
    block;
  - "pad": the wrapped copy of a job's plane.
Jobs with a negative sign share one pass; each one-signed job runs a
pass of its own on views of its wrapped copy. The results go into the
caller's out array, so no result lives in the workspace, and the
workspace holds nothing between calls that a later call relies on. One
workspace must not be used by two calls at once: one advect call owns
its workspace, and no workspace is module-level or shared by threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .forms import scratch

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


# The chain starts, as (mul, add, sub, div, neg), each called as
# op(a, b, out) or neg(a, out). For Python floats they make a new float
# and out is None. For arrays they are numpy's ufuncs, which write into
# the buffer out, or make a fresh array when out is None.
_FLOAT_OPS = (lambda a, b, out: a * b, lambda a, b, out: a + b,
              lambda a, b, out: a - b, lambda a, b, out: a / b,
              lambda a, out: -a)
_ARRAY_OPS = (np.multiply, np.add, np.subtract, np.divide, np.negative)


def _ops(x) -> tuple:
    return _ARRAY_OPS if isinstance(x, np.ndarray) else _FLOAT_OPS


# How many buffers a pass of each scheme takes from its slots: one per
# smoothness indicator and per candidate, and the product slot (last).
# WENO7's indicators run a second chain in the first candidate's slot,
# which is free until the candidates start.
_SLOTS = {SchemeKind.UPWIND: 0, SchemeKind.WENO5: 7, SchemeKind.WENO7: 9}
_FRESH = (None,) * _SLOTS[SchemeKind.WENO7]


def _beta5(curv, slope):
    """_C13 * curv**2 + 0.25 * slope**2, written into curv and slope."""
    curv *= curv
    curv *= _C13
    slope *= slope
    slope *= 0.25
    curv += slope
    return curv


def _weno5_parts(w0, w1, w2, w3, w4, slots=_FRESH):
    """Indicators in slots 0-2, candidates in slots 3-5."""
    mul, _, sub, _, neg = _ops(w0)
    tmp = slots[-1]
    c0 = sub(w0, mul(2.0, w1, tmp), slots[0])
    c0 += w2
    s0 = sub(w0, mul(4.0, w1, tmp), slots[1])
    s0 += mul(3.0, w2, tmp)
    b0 = _beta5(c0, s0)
    c1 = sub(w1, mul(2.0, w2, tmp), slots[1])
    c1 += w3
    b1 = _beta5(c1, sub(w1, w3, slots[2]))
    c2 = sub(w2, mul(2.0, w3, tmp), slots[2])
    c2 += w4
    s2 = mul(3.0, w2, slots[3])
    s2 += mul(-4.0, w3, tmp)
    s2 += w4
    b2 = _beta5(c2, s2)
    p0 = mul(2.0, w0, slots[3])
    p0 += mul(-7.0, w1, tmp)
    p0 += mul(11.0, w2, tmp)
    p0 /= 6.0
    p1 = neg(w1, slots[4])
    p1 += mul(5.0, w2, tmp)
    p1 += mul(2.0, w3, tmp)
    p1 /= 6.0
    p2 = mul(2.0, w2, slots[5])
    p2 += mul(5.0, w3, tmp)
    p2 -= w4
    p2 /= 6.0
    return (b0, b1, b2), (p0, p1, p2)


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


def _weno7_parts(v0, v1, v2, v3, v4, v5, v6, slots=_FRESH):
    """Indicators in slots 0-3, candidates in slots 4-7.

    The indicators' second chain runs in slot 4 before p0 takes it.
    """
    mul, _, sub, _, neg = _ops(v0)
    window = (v0, v1, v2, v3, v4, v5, v6)
    part, tmp = slots[4], slots[-1]
    betas = []
    for s, (r0, r1, r2, c) in enumerate(_B7):
        x0, x1, x2, x3 = window[s:s + 4]
        b = mul(r0[0], x0, slots[s])
        b += mul(r0[1], x1, tmp)
        b += mul(r0[2], x2, tmp)
        b += mul(r0[3], x3, tmp)
        b *= x0
        t = mul(r1[0], x1, part)
        t += mul(r1[1], x2, tmp)
        t += mul(r1[2], x3, tmp)
        t *= x1
        b += t
        t = mul(r2[0], x2, part)
        t += mul(r2[1], x3, tmp)
        t *= x2
        b += t
        t = mul(x3, x3, part)
        t *= c
        b += t
        b /= 240.0
        betas.append(b)
    p0 = mul(-3.0, v0, slots[4])
    p0 += mul(13.0, v1, tmp)
    p0 += mul(-23.0, v2, tmp)
    p0 += mul(25.0, v3, tmp)
    p0 /= 12.0
    p1 = sub(v1, mul(5.0, v2, tmp), slots[5])
    p1 += mul(13.0, v3, tmp)
    p1 += mul(3.0, v4, tmp)
    p1 /= 12.0
    p2 = neg(v2, slots[6])
    p2 += mul(7.0, v3, tmp)
    p2 += mul(7.0, v4, tmp)
    p2 -= v5
    p2 /= 12.0
    p3 = mul(3.0, v3, slots[7])
    p3 += mul(13.0, v4, tmp)
    p3 += mul(-5.0, v5, tmp)
    p3 += v6
    p3 /= 12.0
    return tuple(betas), (p0, p1, p2, p3)


def _parts(scheme: SchemeKind, window, slots):
    if scheme is SchemeKind.WENO5:
        return _weno5_parts(*window, slots), _D5
    if scheme is SchemeKind.WENO7:
        return _weno7_parts(*window, slots), _D7
    raise ValueError(f"scheme {scheme.value} has no candidate decomposition")


def _left_biased(scheme: SchemeKind, window, slots=_FRESH, out=None):
    """Interface value from an upwind-ordered window.

    The temporaries go into slots, and the result into out, or else
    into the first term's slot; a slot of None makes a new value.
    """
    if scheme is SchemeKind.UPWIND:
        if out is None:
            return window[0]
        np.copyto(out, window[0])
        return out
    (betas, cands), dopt = _parts(scheme, window, slots)
    _, add, _, div, _ = _ops(betas[0])
    # SMOOTH_EPS + b is computed as b += SMOOTH_EPS, and each alpha goes
    # into its indicator's slot.
    alphas = []
    for k, (d, b) in enumerate(zip(dopt, betas)):
        b += SMOOTH_EPS
        b *= b
        alphas.append(div(d, b, slots[k]))
    total = add(alphas[0], alphas[1], slots[-1])
    for a in alphas[2:]:
        total += a
    terms = []
    for a, p in zip(alphas, cands):
        a /= total
        a *= p
        terms.append(a)
    # The sum goes into out, or else into the first term.
    acc = add(terms[0], terms[1], terms[0] if out is None else out)
    for t in terms[2:]:
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
    with the zero flux. signs must have the plane's shape.

    This is one job of _reconstruct with no workspace: every temporary
    and the result are fresh arrays. When no sign is negative and axis
    is 1, the result is the transpose of a C-ordered array (see
    _reconstruct).
    """
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    if np.shape(signs) != u.shape:
        raise ValueError(
            f"signs shape {np.shape(signs)} != plane shape {u.shape}")
    neg = signs < 0
    return _reconstruct([(u, axis, neg if neg.any() else None)], scheme)[0]


def _reconstruct(jobs, scheme: SchemeKind, work: dict | None = None,
                 out: np.ndarray | None = None) -> list:
    """Interface values of one or two jobs of one plane shape.

    A job is (u, axis, neg): the plane of cell averages, the axis of its
    interfaces, and the mask of interfaces whose flow sign is negative,
    or None when no sign is (zeros of either sign count as positive).
    Each interface is reconstructed once from shifts 0..width of its
    plane (see _shifts): the positive window is shifts 0..width-1 and
    the negative window is shifts width..1.

    The jobs with a mask share one kernel pass: window m of the k-th of
    them is plane k of a (width, jobs, ny, nx) buffer, filled with shift
    m and then, where the mask is set, with shift width - m, so every
    ufunc of the pass covers both jobs. A job without a mask runs a pass
    of its own on the shifts themselves, which are views and cost no
    copy; along axis 1 it runs on the transpose of its plane, so each
    shift is a contiguous block of rows, and the elementwise kernel
    gives the same bits in either layout.

    With a workspace the wrapped copies, windows and kernel temporaries
    are its buffers (forms.scratch roles "pad", "window" and "weno",
    each keyed by shape), fetched once per pass; without one they are
    fresh arrays. Job j's result goes into out[j], a (jobs, ny, nx)
    array that may be the jobs' own planes stacked: job j's plane is
    read before its result is written, and no other job reads it. Only
    without a workspace may out be None; each result is then a fresh
    array, transposed for a one-signed job along axis 1. Returns the
    results, in job order.
    """
    width = scheme.stencil_width
    results = [None] * len(jobs)
    mixed = []
    for j, (u, axis, neg) in enumerate(jobs):
        _require_extent(u.shape[axis], scheme)
        if neg is not None:
            mixed.append((j, u, axis, neg))
            continue
        dest = None if out is None else out[j]
        if axis == 0:
            r = _left_biased(scheme, _shifts(u, 0, width, work)[:width],
                             _slots(work, scheme, u.shape), dest)
        else:
            r = _left_biased(scheme, _shifts(u.T, 0, width, work)[:width],
                             _slots(work, scheme, u.T.shape)).T
            # One transposing copy: a kernel writing into dest.T would
            # make each of its last ufuncs a strided write.
            if dest is not None:
                np.copyto(dest, r)
                r = dest
        results[j] = r
    if mixed:
        shape = (len(mixed),) + jobs[0][0].shape
        windows = scratch(work, "window", (width,) + shape)
        for k, (j, u, axis, neg) in enumerate(mixed):
            shifts = _shifts(u, axis, width, work)
            np.copyto(windows[:, k], shifts[:width])
            np.copyto(windows[:, k], shifts[width:0:-1], where=neg)
        lo = mixed[0][0]
        dest = None if out is None else out[lo:lo + len(mixed)]
        r = _left_biased(scheme, windows, _slots(work, scheme, shape), dest)
        for k, (j, *_) in enumerate(mixed):
            results[j] = r[k]
    return results


def _shifts(u: np.ndarray, axis: int, width: int,
            work: dict | None) -> np.ndarray:
    """Shifts 0..width of plane u along axis, as one (width + 1, ...) view.

    Shift s holds cell k - c - 1 + s at interface k, c = (width - 1) // 2.
    Every shift is a view into one wrapped copy of u, the workspace's
    "pad" buffer of that shape (or a fresh array without a workspace):
    consecutive shifts lie one step along axis apart in it.
    """
    n = u.shape[axis]
    c = (width - 1) // 2
    shape = list(u.shape)
    shape[axis] += width
    padded = u.take(np.arange(-c - 1, n + c), axis=axis, mode="wrap",
                    out=None if work is None
                    else scratch(work, "pad", tuple(shape)))
    # A view by the ndarray constructor: padded is C-contiguous. numpy's
    # as_strided (numpy 2.4) costs about 5 us more per call, and its
    # memory traced by tracemalloc grows by about 10 bytes per call.
    return np.ndarray((width + 1,) + u.shape, padded.dtype, padded, 0,
                      (padded.strides[axis],) + padded.strides)


def _slots(work: dict | None, scheme: SchemeKind, shape: tuple) -> tuple:
    """A pass's kernel temporaries: workspace planes, or None for fresh."""
    if work is None:
        return _FRESH
    return tuple(scratch(work, "weno", (_SLOTS[scheme],) + shape))
