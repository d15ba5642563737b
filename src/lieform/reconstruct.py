"""Upwind interface reconstruction kernels (piecewise constant, WENO).

All reconstructions are phrased one-dimensionally: given cell averages
ordered from the upwind side toward the downwind side, produce the point
value at the interface between the window's center cell and its downwind
neighbour. Flow toward higher index uses the window as-is; flow toward
lower index uses the mirrored window, which callers build by reversing
the read direction.

_reconstruct is the one code that reads the interfaces of a plane, for
every scheme; the contractions, the flux differencing of
scenarios.split_fv_step and the public interface_point_values call it.
It checks nothing: the public entries (interface_point_values,
reconstruct_at_interface, contraction.contract and advection.advect)
resolve the scheme and check the extent, and _reconstruct and the WENO
kernel below it only compute. Each scheme is one record, its
SchemeKind member: its stencil_width and, for WENO, its kernel (the
parts function, the optimal weights and the slot count). Every reader
takes the member's fields, and every upwind decision, here, in
contraction and in scenarios, is the one test stencil_width == 1.
Piecewise-constant upwinding is the width-1 case: the window is the
upwind entry alone, so the read is a periodic shift of the plane
(grid._roll_into, flat block copies into the caller's output), then,
where the flow sign is negative, a copy of the plane itself over it
(np.copyto with the sign mask). A direction with no negative sign is
one shift. The output must be C-contiguous and must not overlap the
plane, since a later block copy would read entries an earlier one has
already overwritten. A WENO pass
reconstructs every interface of a plane in one kernel pass: the
width + 1 wrapped shifts of the plane hold both upwind windows, and
each interface picks its window from them by its own flow sign, in the
same shift-then-mask order. The shifts are views into one wrapped copy
of the plane, itself one np.concatenate of three of the plane's blocks
(_shifts), so every wrapped read of a step, upwind or WENO, is a block
copy. A plane whose flow has no negative sign along axis 1 is
reconstructed on its transpose along axis 0, so every shift is a
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
_reconstruct takes any number of jobs of one plane shape, each a record
(plane, axis, mask, out) that names the plane its result goes into, and
a workspace, a dict that forms.scratch hands buffers out of, one per
(role, shape). A step makes one such call, with the jobs of both its
contractions. A WENO pass uses three roles:
  - "weno": the kernel temporaries of one pass, one block of slots of
    the pass's shape (the member's slot count: 7 for WENO5, 9 for
    WENO7), fetched once per pass;
  - "window": the windows of a mixed pass, one (width, jobs, ny, nx)
    block;
  - "pad": the wrapped copy of a job's plane, written by one
    np.concatenate (see _shifts).
An upwind read takes nothing from the workspace. WENO jobs with a
negative sign share capped passes: in order, as many as fit in
_PASS_INTERFACES interfaces go into one pass, so a 48x48 step's four
mixed jobs run in one pass and from 96x96 up each job runs alone. Each
one-signed job runs a pass of its own on views of its wrapped copy.
Every WENO pass has one way out: its result, in its first kernel slot,
is copied once into each job's out. So no result lives in the
workspace, and the workspace holds nothing between calls that a later
call relies on. One workspace must not be used by two calls at once:
one advect call owns its workspace, a scenario run's lockstep check
owns another for scenarios.split_fv_step, and no workspace is
module-level or shared by threads. The public interface_point_values is
a one-job call with no workspace: its temporaries are fresh, and its
result is a fresh C-ordered plane.

Which window an interface takes is decided by _negative, the one
statement of the sign rule: a flow sign below 0.0 reads the mirrored
window, and every other sign, -0.0 included, reads the window as-is.
The velocity's masks, and so every read, use it, and extrusion_integral
checks the sign of its window by the same comparison. The count and
positive-number rules of the inputs are grid._is_count and
grid._require_positive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .forms import _empty, scratch
from .grid import _is_count, _require_positive, _roll_into

SMOOTH_EPS = 1e-6

_C13 = 13.0 / 12.0

# Optimal (smooth-limit) candidate weights.
_D5 = (0.1, 0.6, 0.3)
_D7 = (1.0 / 35.0, 12.0 / 35.0, 18.0 / 35.0, 4.0 / 35.0)


class CourantError(RuntimeError):
    """The time step sweeps more than one cell per interface."""


@dataclass(frozen=True)
class Stencil1D:
    """Cell-average window for one interface, upwind side first.

    sign records which orientation the window was read in, by the sign
    rule of _negative: -1 for a flux below 0.0 (the mirrored window),
    +1 for any other flux, a zero of either sign included. It follows
    the count rule: a numpy integer is kept as an int, and a bool or a
    float is no sign. The window is as wide as some scheme's stencil.
    """

    values: tuple[float, ...]
    sign: int

    def __post_init__(self) -> None:
        # The count rule (grid._is_count), kept as a Python int; a plain
        # int passes by its type alone.
        sign = self.sign
        if type(sign) is not int and _is_count(sign, -1):
            sign = int(sign)
            object.__setattr__(self, "sign", sign)
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if len(self.values) not in _WIDTHS:
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


# Slots of None, enough for a pass of either WENO scheme (see SchemeKind).
_FRESH = (None,) * 9

# Mixed-sign jobs share a kernel pass up to this many interfaces. A
# WENO7 pass holds 7 window planes and 9 kernel slots, so at 2**14
# interfaces its 16 planes of float64 take 2 MB and stay near the 2 MB
# L2 cache; larger passes spill and run slower per interface.
_PASS_INTERFACES = 2 ** 14


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


class SchemeKind(enum.Enum):
    """A scheme, and the one record of what it is.

    Each member carries its stencil_width and, for WENO, its kernel: the
    parts function, the optimal weights and how many buffers a pass takes
    from its slots (one per smoothness indicator and per candidate, and
    the product slot, last; WENO7's indicators run a second chain in the
    first candidate's slot, which is free until the candidates start).
    Upwind is the width-1 scheme, and every upwind decision is the test
    stencil_width == 1. The value is the scheme's name.
    """

    UPWIND = "upwind", 1
    WENO5 = "weno5", 5, _weno5_parts, _D5, 7
    WENO7 = "weno7", 7, _weno7_parts, _D7, 9

    def __new__(cls, name: str, width: int, parts=None, weights=None,
                slot_count: int = 0):
        member = object.__new__(cls)
        member._value_, member.stencil_width = name, width
        member._parts, member._weights, member._slot_count = parts, weights, slot_count
        return member

    @classmethod
    def from_name(cls, name) -> "SchemeKind":
        """A member as it is, a scheme's name as its member.

        Anything else raises ValueError naming the options. A member
        passes an isinstance test, not an Enum lookup, which costs more.
        """
        if isinstance(name, cls):
            return name
        try:
            return cls(name)
        except ValueError:
            options = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown scheme {name!r} (options: {options})") from None


# The window widths of Stencil1D, read from the members once: iterating
# the enum for each window would cost about 2 us.
_WIDTHS = frozenset(k.stencil_width for k in SchemeKind)


def _left_biased(scheme: SchemeKind, window, slots=_FRESH):
    """WENO interface value from an upwind-ordered window.

    The temporaries go into slots, a slot of None making a new value,
    and the result is the first term's slot, slots[0]: the one place a
    pass's result lives until its caller copies it out.
    """
    betas, cands = scheme._parts(*window, slots)
    _, add, _, div, _ = _ops(betas[0])
    # SMOOTH_EPS + b is computed as b += SMOOTH_EPS, and each alpha goes
    # into its indicator's slot.
    alphas = []
    for k, (d, b) in enumerate(zip(scheme._weights, betas)):
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
    # The sum goes into the first term.
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
    """Point value at the window's downwind interface.

    An upwind window's value is its one entry.
    """
    scheme = SchemeKind.from_name(scheme)
    _require_width(len(stencil.values), scheme)
    if scheme.stencil_width == 1:
        return float(stencil.values[0])
    return float(_left_biased(scheme, stencil.values))


def extrusion_integral(stencil: Stencil1D, scheme: SchemeKind,
                       flux: float, dt: float, h: float) -> float:
    """Amount swept through one interface during dt.

    The stencil holds 1-D averages (integral values divided by h); the
    result is back in integral units: ((value * flux) * dt) / h. flux
    must be finite, dt and h positive and finite, and the window as wide
    as the scheme's stencil and read for the flux's sign by the rule of
    _negative. All of that is checked before a zero flux returns 0.0.
    """
    scheme = SchemeKind.from_name(scheme)
    # Written so that nan fails the comparisons too.
    if not -np.inf < flux < np.inf:
        raise ValueError(f"flux must be finite, got {flux!r}")
    _require_positive("dt", dt)
    _require_positive("h", h)
    _require_width(len(stencil.values), scheme)
    if (flux < 0.0) != (stencil.sign < 0):
        raise ValueError(
            f"stencil read for sign {stencil.sign:+d} but flux is {flux!r}")
    if flux == 0.0:
        return 0.0
    nu = abs(flux) * dt / h ** 2
    if nu > 1.0:
        raise CourantError(f"interface courant number {nu:.6g} exceeds 1")
    r = reconstruct_at_interface(stencil, scheme)
    return ((r * flux) * dt) / h


def interface_point_values(u: np.ndarray, axis: int, signs: np.ndarray,
                           scheme: SchemeKind) -> np.ndarray:
    """Upwind-reconstructed point values at every interface of a plane.

    Interface k along `axis` separates cells k-1 and k (so it shares the
    index of its downwind-side cell when flow points up the axis). signs
    gives the flow direction per interface; zeros (either sign of zero)
    fall back to the positive-direction value, which callers null out
    with the zero flux. u must be a 2-D plane of real numbers (integers
    or floats), read as float64, and signs real, finite and of its
    shape; a bool, complex, str or object array is neither.

    This is one job of _reconstruct with no workspace: every temporary
    and the result are fresh arrays, and the result is a C-ordered
    float64 plane that starts on a 64-byte line (forms._empty). The
    checks are made here, the plane's extent along axis among them;
    _reconstruct makes none.
    """
    scheme = SchemeKind.from_name(scheme)
    if not _is_count(axis, 0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis!r}")
    u = np.asarray(_real("plane", u), dtype=np.float64)
    if u.ndim != 2:
        raise ValueError(f"plane must be 2-D, got shape {u.shape}")
    _require_extent(u.shape[axis], scheme)
    signs = _real("signs", signs)
    if signs.shape != u.shape:
        raise ValueError(f"signs shape {signs.shape} != plane shape {u.shape}")
    if not np.isfinite(signs).all():
        raise ValueError("signs must be finite")
    out = _empty(u.shape)
    _reconstruct([(u, axis, _negative(signs), out)], scheme, None)
    return out


def _real(what: str, x) -> np.ndarray:
    """x as an array of integers or floats.

    A bool, complex, str or object array raises ValueError naming its
    dtype, before any cast could drop a part of it or read None as NaN.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "iuf":
        raise ValueError(f"{what} must hold real numbers, got dtype {x.dtype}")
    return x


def _negative(signs: np.ndarray) -> np.ndarray | None:
    """Where signs < 0.0, as a read-only mask; None when no sign is.

    The sign rule of every upwind choice: -0.0 is not negative, so an
    interface with a zero flux of either sign takes the positive side.
    """
    neg = signs < 0.0
    if not neg.any():
        return None
    neg.flags.writeable = False
    return neg


def _reconstruct(jobs, scheme: SchemeKind, work: dict | None) -> None:
    """Interface values of any number of jobs of one plane shape.

    A job is one record, (u, axis, neg, out): the plane of cell averages
    (or of integral values: an upwind read only copies), the axis of its
    interfaces, its _negative mask of the flow signs, and the (ny, nx)
    plane its result goes into. Nothing is checked: each job's extent
    along its axis must exceed the stencil width, as the public entries
    make sure.

    Upwind: out is the entry one step back along axis, a periodic shift
    by k = extent - 1 (grid._roll_into: along y two blocks of rows,
    along x one flat block and a one-column fix-up); where the mask is
    set, np.copyto then copies the plane itself over it. No workspace
    buffer is used. out must be C-contiguous and must not overlap its
    job's plane: a later block copy would read entries an earlier one
    has already overwritten.

    WENO: each interface is reconstructed once from shifts 0..width of
    its plane (see _shifts): the positive window is shifts 0..width-1
    and the negative window is shifts width..1. Every pass computes in
    its own kernel slots and copies its result into each job's out once.
    A job without a mask runs a pass of its own on the shifts
    themselves, which are views and cost no copy; along axis 1 it runs
    on u.T and out.T, so each shift is a contiguous block of rows, and
    the elementwise kernel gives the same bits in either layout. The
    jobs with a mask are collected and, in order, run in passes of as
    many as fit in _PASS_INTERFACES interfaces (see _mixed_pass), after
    the one-signed jobs. With a workspace the wrapped copies, windows
    and kernel temporaries are its buffers (forms.scratch roles "pad",
    "window" and "weno", each keyed by shape), fetched once per pass;
    with work None they are fresh arrays.

    No out may be a "pad", "window" or "weno" buffer. A WENO out may be
    its job's own plane if no other job reads it: each plane is read
    before its result is written. Upwind jobs run in order, so an
    upwind out may be the plane of an earlier job.
    """
    if scheme.stencil_width == 1:
        # The window is the upwind entry alone.
        for u, axis, neg, out in jobs:
            read = _roll_into(u, u.shape[axis] - 1, axis, out)
            if neg is not None:
                np.copyto(read, u, where=neg)
        return
    width = scheme.stencil_width
    mixed = []
    for u, axis, neg, out in jobs:
        if neg is not None:
            mixed.append((u, axis, neg, out))
        else:
            if axis == 1:
                u, out = u.T, out.T
            np.copyto(out, _left_biased(
                scheme, _shifts(u, 0, width, work)[:width],
                _slots(work, scheme, u.shape)))
    if mixed:
        per_pass = max(1, _PASS_INTERFACES // mixed[0][0].size)
        for k in range(0, len(mixed), per_pass):
            _mixed_pass(mixed[k:k + per_pass], scheme, work)


def _mixed_pass(mixed, scheme: SchemeKind, work: dict | None) -> None:
    """One kernel pass over the mixed-sign jobs [(u, axis, neg, out), ...].

    Window m of the k-th job is plane k of a (width, jobs, ny, nx)
    buffer, filled with shift m and then, where the mask is set, with
    shift width - m, so every ufunc of the pass covers all its jobs. The
    result, in the first kernel slot, is copied plane by plane into each
    job's out, since the jobs' outputs need not be one array.
    """
    width = scheme.stencil_width
    shape = (len(mixed),) + mixed[0][0].shape
    windows = scratch(work, "window", (width,) + shape)
    for k, (u, axis, neg, _) in enumerate(mixed):
        shifts = _shifts(u, axis, width, work)
        np.copyto(windows[:, k], shifts[:width])
        np.copyto(windows[:, k], shifts[width:0:-1], where=neg)
    result = _left_biased(scheme, windows, _slots(work, scheme, shape))
    for k, (*_, out) in enumerate(mixed):
        np.copyto(out, result[k])


def _shifts(u: np.ndarray, axis: int, width: int,
            work: dict | None) -> np.ndarray:
    """Shifts 0..width of plane u along axis, as one (width + 1, ...) view.

    Shift s holds cell k - c - 1 + s at interface k, c = (width - 1) // 2.
    Every shift is a view into one wrapped copy of u, the workspace's
    "pad" buffer of that shape (a fresh array when work is None):
    consecutive shifts lie one step along axis apart in it. The wrapped
    copy is one np.concatenate of three of u's blocks along axis (a
    plain shift, grid._roll_into, is two or three flat block copies):
    the last c + 1 entries ([n-c-1:]), the whole plane, then the first
    c ([:c]).
    So u needs at least c + 1 entries along axis; the extent checks ask
    for more than width. u may be a transpose, and the copy is C-ordered
    either way.
    """
    c = (width - 1) // 2
    shape = u.shape[:axis] + (u.shape[axis] + width,) + u.shape[axis + 1:]
    blocks = ((u[-c - 1:], u, u[:c]) if axis == 0
              else (u[:, -c - 1:], u, u[:, :c]))
    padded = np.concatenate(blocks, axis=axis,
                            out=scratch(work, "pad", shape))
    # A view by the ndarray constructor: padded is C-contiguous. numpy's
    # as_strided (numpy 2.4) costs about 5 us more per call, and its
    # memory traced by tracemalloc grows by about 10 bytes per call.
    return np.ndarray((width + 1,) + u.shape, padded.dtype, padded, 0,
                      (padded.strides[axis],) + padded.strides)


def _slots(work: dict | None, scheme: SchemeKind, shape: tuple) -> tuple:
    """A pass's kernel temporaries: workspace planes, or None for fresh."""
    if work is None:
        return _FRESH
    return tuple(scratch(work, "weno", (scheme._slot_count,) + shape))
