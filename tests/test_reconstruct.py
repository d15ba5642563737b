"""Interface reconstruction: scheme tables, weights, extrusion integrals.

The candidate and blend tables are checked against exact rational
reconstructions derived from scratch in reference.py, and the float
kernels are checked on integer windows where the arithmetic is exact
and bit for bit against the written-form kernel kept there.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from lieform.reconstruct import (CourantError, SchemeKind, Stencil1D,
                                 _left_biased, _negative, _reconstruct,
                                 _weno5_parts, _weno7_parts,
                                 extrusion_integral,
                                 interface_point_values,
                                 reconstruct_at_interface)
from reference import reconstruction_weights, smoothness_indicators


def test_scheme_kind_lookup():
    assert SchemeKind.from_name("upwind") is SchemeKind.UPWIND
    assert SchemeKind.from_name("weno5") is SchemeKind.WENO5
    with pytest.raises(ValueError):
        SchemeKind.from_name("weno9")
    assert SchemeKind.UPWIND.stencil_width == 1
    assert SchemeKind.WENO5.stencil_width == 5
    assert SchemeKind.WENO7.stencil_width == 7


def test_stencil_guards():
    with pytest.raises(ValueError):
        Stencil1D((1.0, 2.0), 1)
    with pytest.raises(ValueError):
        Stencil1D((1.0,), 0)
    assert Stencil1D((1.0, 2.0, 3.0, 4.0, 5.0), -1).sign == -1


def test_upwind_takes_first_cell():
    assert reconstruct_at_interface(Stencil1D((7.5,), 1), SchemeKind.UPWIND) == 7.5


def _basis_windows(width):
    for k in range(width):
        w = [0.0] * width
        w[k] = 1.0
        yield k, w


@pytest.mark.parametrize("parts,r,width", [(_weno5_parts, 3, 5),
                                           (_weno7_parts, 4, 7)])
def test_candidate_rows_exact(parts, r, width):
    # each candidate is the unique degree r-1 interface reconstruction
    # from its r-cell substencil; basis vectors read the rows off exactly
    rows = reference.candidate_rows(r)
    for k, w in _basis_windows(width):
        _, cands = parts(*w)
        for s in range(r):
            cells = list(range(s, s + r))
            expect = rows[s][cells.index(k)] if k in cells else Fraction(0)
            assert cands[s] == float(expect)


@pytest.mark.parametrize("r,table", [(3, "_D5"), (4, "_D7")])
def test_optimal_blend_exact(r, table):
    import lieform.reconstruct as mod
    d, _, _ = reference.optimal_blend(r)
    assert tuple(float(v) for v in d) == getattr(mod, table)


@pytest.mark.parametrize("r,width", [(3, 5), (4, 7)])
def test_smoothness_matrices_on_integer_windows(r, width):
    # the oscillation quadratic form, assembled from exact polynomial
    # calculus; integer windows keep the package arithmetic exact too
    mats = [reference.smoothness_matrix(list(range(s - r + 1, s + 1)))
            for s in range(r)]
    scheme = SchemeKind.WENO5 if r == 3 else SchemeKind.WENO7
    rng = np.random.default_rng(7)
    for _ in range(200):
        w = [float(v) for v in rng.integers(-9, 10, size=width)]
        betas = smoothness_indicators(np.array(w), scheme)
        for s in range(r):
            vals = [Fraction(w[c]) for c in range(s, s + r)]
            exact = reference.eval_quadratic(mats[s], vals)
            if r == 4:
                # integer numerator, one division: bitwise reproducible
                assert betas[s] == float(exact)
            else:
                # 13/12 is not dyadic; allow the final two roundings
                assert betas[s] == pytest.approx(float(exact),
                                                 rel=5e-16, abs=5e-16)


@pytest.mark.parametrize("scheme,r,rel", [(SchemeKind.WENO5, 3, 1e-13),
                                          (SchemeKind.WENO7, 4, 1e-10)])
def test_smoothness_random_windows(scheme, r, rel):
    mats = [reference.smoothness_matrix(list(range(s - r + 1, s + 1)))
            for s in range(r)]
    rng = np.random.default_rng(11)
    for _ in range(100):
        w = rng.uniform(1.0, 2.0, size=scheme.stencil_width)
        betas = smoothness_indicators(w, scheme)
        for s in range(r):
            vals = [Fraction(w[c]) for c in range(s, s + r)]
            exact = float(reference.eval_quadratic(mats[s], vals))
            assert betas[s] == pytest.approx(exact, rel=rel, abs=1e-18)


@pytest.mark.parametrize("scheme", [SchemeKind.WENO5, SchemeKind.WENO7])
def test_linear_data_is_smooth(scheme):
    w = np.arange(float(scheme.stencil_width))
    betas = smoothness_indicators(w, scheme)
    assert np.all(betas == 1.0)
    weights = reconstruction_weights(w, scheme)
    d, _, _ = reference.optimal_blend(3 if scheme is SchemeKind.WENO5 else 4)
    assert np.allclose(weights, [float(v) for v in d], rtol=1e-12)
    got = reconstruct_at_interface(Stencil1D(tuple(w), 1), scheme)
    mid = (scheme.stencil_width - 1) // 2
    assert got == pytest.approx(w[mid] + 0.5, rel=1e-14)


def test_polynomial_reproduction():
    # windows of exact cell means, interface midway: every candidate
    # reproduces the polynomial, so the blend must as well
    def mean(c, p):
        return float(reference.average_of_power(c, p))

    w5 = tuple(mean(c, 2) for c in range(-2, 3))
    got = reconstruct_at_interface(Stencil1D(w5, 1), SchemeKind.WENO5)
    assert got == pytest.approx(0.25, rel=1e-10)
    w7 = tuple(mean(c, 3) for c in range(-3, 4))
    got = reconstruct_at_interface(Stencil1D(w7, 1), SchemeKind.WENO7)
    assert got == pytest.approx(0.125, rel=1e-10)


@pytest.mark.parametrize("scheme,window", [
    (SchemeKind.WENO5, (0.0, 0.0, 0.0, 1.0, 1.0)),
    (SchemeKind.WENO7, (0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)),
])
def test_jump_selects_clean_substencil(scheme, window):
    # a jump just downwind: nearly all weight on the smooth left candidate
    weights = reconstruction_weights(np.array(window), scheme)
    assert weights[0] > 0.99
    assert math.fsum(weights) == pytest.approx(1.0, rel=1e-15)


def test_extrusion_frozen_value():
    s = Stencil1D((1.2,), 1)
    assert extrusion_integral(s, SchemeKind.UPWIND,
                              flux=0.02, dt=0.001, h=0.1) == 0.00024


def test_extrusion_zero_flux_short_circuits():
    s = Stencil1D((np.nan,), 1)
    assert extrusion_integral(s, SchemeKind.UPWIND, flux=0.0, dt=0.1, h=0.1) == 0.0


def test_extrusion_courant_guard():
    s = Stencil1D((1.0,), 1)
    with pytest.raises(CourantError):
        extrusion_integral(s, SchemeKind.UPWIND, flux=0.5, dt=0.1, h=0.1)


@pytest.mark.parametrize("flux,dt,h", [
    (math.nan, 0.001, 0.1), (math.inf, 0.001, 0.1), (-math.inf, 0.001, 0.1),
    (0.5, math.nan, 0.1), (0.5, math.inf, 0.1), (0.5, -0.001, 0.1),
    (0.5, 0.0, 0.1), (0.5, 0.001, math.nan), (0.5, 0.001, math.inf),
    (0.5, 0.001, -0.1), (0.5, 0.001, 0.0), (0.0, math.nan, 0.1),
    (0.0, 0.001, -0.1), (0.5, True, 0.1), (0.5, 0.001, True),
])
def test_extrusion_rejects_bad_numbers(flux, dt, h):
    # before the zero-flux shortcut, so a bad dt or h never passes silently
    s = Stencil1D((1.0,), 1)
    with pytest.raises(ValueError, match="finite"):
        extrusion_integral(s, SchemeKind.UPWIND, flux=flux, dt=dt, h=h)


def test_extrusion_sign_mismatch():
    s = Stencil1D((1.0,), -1)
    with pytest.raises(ValueError):
        extrusion_integral(s, SchemeKind.UPWIND, flux=0.5, dt=0.001, h=0.1)
    # By the sign rule of every read a zero flux of either sign reads the
    # window as-is, so a mirrored window is wrong there too, and this is
    # checked before the zero flux returns.
    for zero in (0.0, -0.0):
        with pytest.raises(ValueError, match=rf"^stencil read for sign -1 "
                                             rf"but flux is {zero!r}$"):
            extrusion_integral(s, SchemeKind.UPWIND, flux=zero, dt=0.001, h=0.1)
        assert extrusion_integral(Stencil1D((1.0,), 1), SchemeKind.UPWIND,
                                  flux=zero, dt=0.001, h=0.1) == 0.0
    with pytest.raises(ValueError):
        extrusion_integral(Stencil1D((1.0,), 1), SchemeKind.UPWIND,
                           flux=-0.5, dt=0.001, h=0.1)


def test_extrusion_matches_reconstruction():
    rng = np.random.default_rng(3)
    for scheme in (SchemeKind.WENO5, SchemeKind.WENO7):
        vals = tuple(rng.uniform(-1.0, 1.0, size=scheme.stencil_width))
        s = Stencil1D(vals, -1)
        flux, dt, h = -0.004, 0.01, 0.2
        r = reconstruct_at_interface(s, scheme)
        assert extrusion_integral(s, scheme, flux, dt, h) == ((r * flux) * dt) / h


@pytest.mark.parametrize("scheme", [SchemeKind.UPWIND, SchemeKind.WENO5,
                                    SchemeKind.WENO7])
@pytest.mark.parametrize("axis", [0, 1])
def test_interface_point_values_match_scalar(scheme, axis):
    rng = np.random.default_rng(19)
    u = rng.standard_normal((8, 9))
    signs = rng.standard_normal((8, 9))
    signs[0, 0] = 0.0
    got = interface_point_values(u, axis, signs, scheme)
    ny, nx = u.shape
    n = nx if axis == 1 else ny
    width = scheme.stencil_width
    for j in range(ny):
        for i in range(nx):
            k = i if axis == 1 else j
            positive = signs[j, i] >= 0.0
            cells = reference.window_cells(k, n, width, positive)
            if axis == 1:
                vals = tuple(float(u[j, c]) for c in cells)
            else:
                vals = tuple(float(u[c, i]) for c in cells)
            want = reconstruct_at_interface(
                Stencil1D(vals, 1 if positive else -1), scheme)
            assert got[j, i] == want


def _scalar_plane(u, axis, signs, scheme):
    """interface_point_values rebuilt one interface at a time."""
    ny, nx = u.shape
    n = u.shape[axis]
    out = np.empty(u.shape)
    for j in range(ny):
        for i in range(nx):
            positive = signs[j, i] >= 0.0
            cells = reference.window_cells(i if axis == 1 else j, n,
                                           scheme.stencil_width, positive)
            line = u[j] if axis == 1 else u[:, i]
            vals = tuple(float(line[c]) for c in cells)
            out[j, i] = reconstruct_at_interface(
                Stencil1D(vals, 1 if positive else -1), scheme)
    return out


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("scheme", [SchemeKind.WENO5, SchemeKind.WENO7])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("pattern", ["negative", "positive", "mixed"])
def test_interface_point_values_at_stencil_minimum(scheme, axis, pattern):
    # the smallest admissible extent along the axis, a different extent
    # across it; every window then wraps
    width = scheme.stencil_width
    shape = (width + 1, width + 3) if axis == 0 else (width + 2, width + 1)
    rng = np.random.default_rng(23)
    u = rng.standard_normal(shape)
    mag = rng.uniform(0.1, 1.0, shape)
    if pattern == "negative":
        signs = -mag
    elif pattern == "positive":
        signs = mag
    else:
        signs = mag * rng.choice([-1.0, 1.0], shape)
        signs[0, 0] = 0.0
        signs[-1, -1] = -0.0
    got = interface_point_values(u, axis, signs, scheme)
    _assert_same_bits(got, _scalar_plane(u, axis, signs, scheme))
    if pattern == "mixed":
        # both zeros take the positive-direction window
        plus = interface_point_values(u, axis, np.ones(shape), scheme)
        assert got[0, 0] == plus[0, 0]
        assert got[-1, -1] == plus[-1, -1]


@st.composite
def _planes_near_minimum(draw):
    scheme = draw(st.sampled_from(list(SchemeKind)))
    axis = draw(st.sampled_from([0, 1]))
    along = scheme.stencil_width + draw(st.integers(1, 3))
    across = draw(st.integers(1, 10))
    shape = (along, across) if axis == 0 else (across, along)
    u = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    zeros = st.sampled_from([0.0, -0.0])
    elements = draw(st.sampled_from([
        st.one_of(st.floats(0.0, 1.0), zeros),          # none negative
        st.floats(-1.0, 0.0, exclude_max=True),         # all negative
        st.one_of(st.floats(-1.0, 1.0), zeros),         # mixed
    ]))
    signs = draw(hnp.arrays(np.float64, shape, elements=elements))
    return scheme, axis, u, signs


@settings(max_examples=60, deadline=None)
@given(_planes_near_minimum())
def test_interface_point_values_property(case):
    # the same planes read along the other axis of the transpose must
    # give the transposed result, whichever layout each call runs in
    scheme, axis, u, signs = case
    got = interface_point_values(u, axis, signs, scheme)
    flipped = interface_point_values(u.T, 1 - axis, signs.T, scheme).T
    want = _scalar_plane(u, axis, signs, scheme)
    _assert_same_bits(got, want)
    _assert_same_bits(flipped, want)


_SIGN_PATTERNS = {
    "positive": st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0])),
    "negative": st.floats(-1.0, 0.0, exclude_max=True),
    "mixed": st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0])),
}


@st.composite
def _job_lists(draw):
    # One to four jobs on one nx != ny plane shape at or just above the
    # stencil minimum, each with its own axis and sign pattern, so
    # one-signed and mixed jobs interleave; the jobs read one plane (as
    # _contract_2form's do) or one each; the results go to a given
    # array, to separate planes (as a step's one pass gives them), or,
    # for WENO, over the jobs' own stacked planes (as _contract_1form's
    # do). An upwind read must not overlap its plane.
    scheme = draw(st.sampled_from(list(SchemeKind)))
    ny = scheme.stencil_width + draw(st.integers(1, 3))
    nx = draw(st.sampled_from([n for n in range(scheme.stencil_width + 1,
                                                scheme.stencil_width + 5)
                               if n != ny]))
    shape = (ny, nx)
    values = hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3))
    jobs = []
    for _ in range(draw(st.integers(1, 4))):
        pattern = draw(st.sampled_from(sorted(_SIGN_PATTERNS)))
        signs = draw(hnp.arrays(np.float64, shape,
                                elements=_SIGN_PATTERNS[pattern]))
        jobs.append([None, draw(st.sampled_from([0, 1])), signs])
    target = draw(st.sampled_from(
        ["out", "planes"] if scheme is SchemeKind.UPWIND
        else ["out", "planes", "in place"]))
    if target != "in place" and draw(st.booleans()):
        shared = draw(values)
        for job in jobs:
            job[0] = shared
    else:
        planes = np.stack([draw(values) for _ in jobs])
        for job, plane in zip(jobs, planes):
            job[0] = plane
    return scheme, [tuple(job) for job in jobs], target


def _assert_batched_pass(scheme, jobs, target, work):
    # Each result equals its own public call bit for bit, shares no
    # memory with the workspace, and a plane read into a given output
    # is left as it was.
    want = [interface_point_values(u, axis, signs, scheme)
            for u, axis, signs in jobs]
    keep = [u.copy() for u, _, _ in jobs]
    shape = jobs[0][0].shape
    if target == "out":
        out = np.empty((len(jobs), *shape))
    elif target == "planes":
        out = [np.empty(shape) for _ in jobs]
    else:
        out = jobs[0][0].base
    # A job names its negative signs by a mask, or by None when it
    # has none, as the velocity caches them.
    masks = [(u, axis, _negative(signs)) for u, axis, signs in jobs]
    assert _reconstruct(masks, scheme, work, out) is None
    for j in range(len(jobs)):
        _assert_same_bits(out[j], want[j])
        for buf in work.values():
            assert not np.shares_memory(out[j], buf)
        if target != "in place":
            _assert_same_bits(jobs[j][0], keep[j])


@settings(max_examples=40, deadline=None)
@given(st.lists(_job_lists(), min_size=2, max_size=3))
def test_batched_pass_matches_single_calls(cases):
    # One workspace serves every call, whatever its shapes and data, as
    # the workspace of one advect call serves every step. A stale or
    # shared buffer would leave one job's values in another's result.
    work = {}
    for scheme, jobs, target in cases:
        _assert_batched_pass(scheme, jobs, target, work)


@pytest.mark.parametrize("scheme", [SchemeKind.WENO5, SchemeKind.WENO7])
def test_capped_passes_match_single_calls(scheme):
    # Two mixed 96x96 jobs hold 18432 interfaces, more than one pass
    # takes (2**14), so each runs a pass of its own; three mixed 32x32
    # jobs share one. The workspace keys its windows by the pass's job
    # count.
    rng = np.random.default_rng(271)
    for n, count, passes in ((96, 2, {1}), (32, 3, {3})):
        jobs = [(rng.standard_normal((n, n)), k % 2,
                 rng.uniform(-1.0, 1.0, (n, n))) for k in range(count)]
        for target in ("out", "planes", "in place"):
            if target == "in place":
                planes = np.stack([u for u, _, _ in jobs])
                jobs = [(plane, axis, signs) for plane, (_, axis, signs)
                        in zip(planes, jobs)]
            work = {}
            _assert_batched_pass(scheme, jobs, target, work)
            assert {key[1][1] for key in work if key[0] == "window"} == passes


# Window entries from the ranges where rounding order shows: exact zeros
# of both signs, subnormals, and magnitudes whose smoothness indicators
# overflow when squared.
_EDGE_FLOATS = st.one_of(
    st.floats(-1e150, 1e150),
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                     1e150, -1e150]),
)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _outcome(fn, *args):
    """fn(*args), or the type of the ZeroDivisionError a float blend raises."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except ZeroDivisionError as err:
        return type(err)


@st.composite
def _edge_windows(draw):
    scheme = draw(st.sampled_from([SchemeKind.WENO5, SchemeKind.WENO7]))
    count = draw(st.integers(1, 6))
    cells = draw(hnp.arrays(np.float64, (scheme.stencil_width, count),
                            elements=_EDGE_FLOATS))
    return scheme, cells


@settings(max_examples=200, deadline=None)
@given(_edge_windows())
def test_kernels_match_written_form_bitwise(case):
    # the in-place kernels against the plain-expression oracle, on scalar
    # windows and on read-only array windows (an entry written in place
    # would raise)
    scheme, cells = case
    parts = _weno5_parts if scheme is SchemeKind.WENO5 else _weno7_parts
    plane = []
    for row in cells:
        entry = row.copy()
        entry.setflags(write=False)
        plane.append(entry)
    for got, want in zip(_outcome(parts, *plane),
                         _outcome(reference.weno_parts, plane)[0]):
        for g, w in zip(got, want):
            assert np.array_equal(_bits(g), _bits(w))
    got = _outcome(_left_biased, scheme, plane)
    assert got.flags.writeable
    assert np.array_equal(_bits(got),
                          _bits(_outcome(reference.left_biased, plane)))
    for column in cells.T:
        window = tuple(float(v) for v in column)
        want = _outcome(reference.left_biased, window)
        got = _outcome(reconstruct_at_interface, Stencil1D(window, 1), scheme)
        if want is ZeroDivisionError:
            assert got is ZeroDivisionError
        else:
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("pattern", ["positive", "negative", "mixed"])
def test_interface_point_values_leaves_read_only_input(scheme, pattern):
    rng = np.random.default_rng(29)
    shape = (9, 10)
    u = rng.standard_normal(shape)
    mag = rng.uniform(0.1, 1.0, shape)
    signs = {"positive": mag, "negative": -mag,
             "mixed": mag * rng.choice([-1.0, 1.0], shape)}[pattern]
    keep = u.copy()
    u.setflags(write=False)
    for axis in (0, 1):
        got = interface_point_values(u, axis, signs, scheme)
        again = interface_point_values(u, axis, signs, scheme)
        # one layout for every axis and sign pattern
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.flags.writeable
        assert not np.shares_memory(got, u)
        assert not np.shares_memory(got, again)
        got += 1.0
        _assert_same_bits(u, keep)


def test_interface_point_values_guards():
    u = np.zeros((8, 6))
    signs = np.ones((8, 6))
    interface_point_values(u, 0, signs, SchemeKind.WENO7)
    with pytest.raises(ValueError):
        interface_point_values(u, 1, signs, SchemeKind.WENO7)
    with pytest.raises(ValueError):
        interface_point_values(np.zeros((5, 8)), 0, np.ones((5, 8)),
                               SchemeKind.WENO5)
    with pytest.raises(ValueError):
        interface_point_values(u, 2, signs, SchemeKind.UPWIND)
    # the axis is a count in [0, 1]: a bool or a float is not one
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match=f"^axis must be 0 or 1, got {bad!r}$"):
            interface_point_values(u, bad, signs, SchemeKind.UPWIND)
    _assert_same_bits(interface_point_values(u, np.int64(1), signs, SchemeKind.WENO5),
                      interface_point_values(u, 1, signs, SchemeKind.WENO5))
    # a plane of any other number type, or nested lists, is read as
    # float64, and signs may be nested lists too
    ints = np.arange(48).reshape(8, 6) % 5
    for scheme in SchemeKind:
        want = interface_point_values(ints.astype(np.float64), 0, signs,
                                      scheme)
        for plane, sg in ((ints, signs), (ints.tolist(), signs.tolist())):
            got = interface_point_values(plane, 0, sg, scheme)
            assert got.dtype == np.float64
            _assert_same_bits(got, want)
    # a plane must be 2-D, whatever the axis
    for bad in (np.zeros(8), np.zeros((2, 8, 6)), np.float64(1.0)):
        for axis in (0, 1):
            with pytest.raises(ValueError, match="^plane must be 2-D"):
                interface_point_values(bad, axis, np.ones(np.shape(bad)),
                                       SchemeKind.WENO5)
    # a non-finite sign has no side: NaN would read as positive
    for bad in (np.nan, np.inf, -np.inf):
        sg = signs.copy()
        sg[2, 3] = bad
        for scheme in SchemeKind:
            for axis in (0, 1):
                with pytest.raises(ValueError, match="^signs must be finite$"):
                    interface_point_values(u.T if axis else u, axis,
                                           sg.T if axis else sg, scheme)


@pytest.mark.parametrize("signs", [
    np.ones((9, 8)),                            # one-signed
    -np.ones((9, 8)),
    np.where(np.arange(72).reshape(9, 8) % 3, 1.0, -1.0),   # mixed
    np.ones((1, 9)),                            # broadcastable
    -np.ones(9),
    np.where(np.arange(9) % 2, 1.0, -1.0),
    np.array(1.0),
], ids=["positive", "negative", "mixed", "row", "negative-1d", "mixed-1d",
        "scalar"])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_interface_point_values_rejects_signs_shape(signs, scheme):
    u = np.zeros((8, 9))
    shape = re.escape(f"signs shape {signs.shape} != plane shape (8, 9)")
    for axis in (0, 1):
        with pytest.raises(ValueError, match=f"^{shape}$"):
            interface_point_values(u, axis, signs, scheme)


def test_width_guards_on_public_entry_points():
    with pytest.raises(ValueError):
        smoothness_indicators(np.ones(4), SchemeKind.WENO5)
    with pytest.raises(ValueError):
        reconstruction_weights(np.ones(6), SchemeKind.WENO7)
    with pytest.raises(ValueError):
        reconstruct_at_interface(Stencil1D((1.0, 2.0, 3.0, 4.0, 5.0), 1),
                                 SchemeKind.WENO7)
    # extrusion_integral checks the width before a zero flux returns
    for flux in (0.5, 0.0):
        with pytest.raises(ValueError, match="^scheme weno7 needs 7 cells, got 5$"):
            extrusion_integral(Stencil1D((1.0,) * 5, 1), SchemeKind.WENO7,
                               flux, 0.01, 0.1)
