"""Complex construction, canonical indexing, incidence structure."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from lieform.derivative import exterior_derivative
from lieform.forms import Cochain, norm
from lieform.grid import (CellRef, GridComplex2D, _roll_into, boundary_chain,
                          build_complex, shifted)
from lieform.output import read_field, write_field
from lieform.reconstruct import Stencil1D
from reference import boundary_operator


def test_build_complex_casts_and_validates():
    g = build_complex(6, 4, 0.25)
    assert (g.nx, g.ny, g.h) == (6, 4, 0.25)
    assert g.shape == (4, 6)
    assert g.size == 24
    for bad in ((3, 8, 0.1), (8, 3, 0.1), (8, 8, 0.0), (8, 8, -1.0)):
        with pytest.raises(ValueError):
            build_complex(*bad)
    with pytest.raises(ValueError):
        build_complex(8, 8, float("nan"))
    # Each rule sees the value passed, not a cast of it: an extent that
    # is not an integer, or is a bool, and an edge length that is a bool
    # are named in the error, not built into a grid of another size.
    for bad, shown in (((4.7, 8, 0.1), r"4\.7x8"), (("8", 8, 0.1), "'8'x8"),
                       ((8, True, 0.1), "8xTrue"), ((8, 8, True), "True")):
        with pytest.raises(ValueError, match=f"got {shown}$"):
            build_complex(*bad)
    with pytest.raises(ValueError, match=r"^grid must be at least 4x4 with "
                                         r"integer extents, got 8\.5x8$"):
        GridComplex2D(8.5, 8, 0.1)
    with pytest.raises(ValueError, match=r"^edge length must be positive "
                                         r"and finite, got True$"):
        GridComplex2D(8, 8, True)
    # numpy numbers pass, and are stored as Python int and float
    g = build_complex(np.int64(6), np.int32(4), np.float64(0.25))
    assert g == build_complex(6, 4, 0.25)
    assert (type(g.nx), type(g.ny), type(g.h)) == (int, int, float)


def test_stored_extents_leave_the_dataclass_as_it_was(tmp_path):
    # shape and size are computed once, when the grid is made, and kept
    # beside the fields; repr, ==, hash and the field list see nx, ny
    # and h only.
    g = build_complex(7, 5, 0.125)
    assert (g.shape, g.size) == ((5, 7), 35)
    assert [f.name for f in dataclasses.fields(GridComplex2D)] == \
        ["nx", "ny", "h"]
    assert repr(g) == "GridComplex2D(nx=7, ny=5, h=0.125)"
    assert g == GridComplex2D(7, 5, 0.125)
    assert hash(g) == hash(GridComplex2D(7, 5, 0.125)) == hash((7, 5, 0.125))
    assert g != build_complex(7, 5, 0.25) and g != build_complex(5, 7, 0.125)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.nx = 8
    # replace makes a new grid through __init__, which recomputes them
    for changes, shape in (({"nx": 9}, (5, 9)), ({"ny": 6}, (6, 7)),
                           ({"h": 0.5}, (5, 7))):
        r = dataclasses.replace(g, **changes)
        assert r == GridComplex2D(**{"nx": 7, "ny": 5, "h": 0.125, **changes})
        assert (r.shape, r.size) == (shape, shape[0] * shape[1])
    # a grid read back from a dump equals, and hashes like, the one built
    path = tmp_path / "field.txt"
    write_field(path, Cochain.from_plane(g, 2, np.arange(35.0).reshape(5, 7)))
    back = read_field(path).grid
    assert back == g and hash(back) == hash(g)
    assert (back.shape, back.size) == ((5, 7), 35)


def test_cell_counts():
    g = build_complex(5, 4, 1.0)
    assert g.cell_count(0) == 20
    assert g.cell_count(1) == 40
    assert g.cell_count(2) == 20
    with pytest.raises(ValueError):
        g.cell_count(3)


def test_flat_order_is_j_outer_i_inner():
    g = build_complex(5, 4, 1.0)
    flat = [g.flatten(CellRef(0, i, j)) for j in range(4) for i in range(5)]
    assert flat == list(range(20))
    # degree 1 stores the x block first, then the y block
    assert g.flatten(CellRef(1, 0, 0, "x")) == 0
    assert g.flatten(CellRef(1, 0, 0, "y")) == 20
    assert g.flatten(CellRef(1, 2, 3, "y")) == 20 + 3 * 5 + 2
    assert g.flatten(CellRef(2, 4, 1)) == 9


def test_flatten_wraps():
    g = build_complex(5, 4, 1.0)
    assert g.flatten(CellRef(0, 5, 4)) == 0
    assert g.flatten(CellRef(0, -1, -1)) == g.flatten(CellRef(0, 4, 3))


def test_unflatten_round_trip():
    g = build_complex(5, 4, 1.0)
    for dim in (0, 1, 2):
        for idx in range(g.cell_count(dim)):
            assert g.flatten(g.unflatten(dim, idx)) == idx
    with pytest.raises(ValueError):
        g.unflatten(0, 20)
    with pytest.raises(ValueError):
        g.unflatten(1, -1)


def test_cellref_validation():
    with pytest.raises(ValueError):
        CellRef(1, 0, 0)            # edges need an axis
    with pytest.raises(ValueError):
        CellRef(1, 0, 0, "z")
    with pytest.raises(ValueError):
        CellRef(0, 0, 0, "x")       # vertices carry none
    with pytest.raises(ValueError):
        CellRef(3, 0, 0)


_G54 = build_complex(5, 4, 1.0)
_ONES = Cochain.from_plane(_G54, 0, np.ones(_G54.shape))


@pytest.mark.parametrize("call,bad", [
    (lambda: Stencil1D((1.0,) * 5, True), "True"),
    (lambda: Stencil1D((1.0,) * 5, 1.0), "1.0"),
    (lambda: Stencil1D((1.0,) * 5, -1.0), "-1.0"),
    (lambda: norm(_ONES, True), "True"),
    (lambda: norm(_ONES, 1.0), "1.0"),
    (lambda: CellRef(True, 1, 2, "x"), "True"),
    (lambda: CellRef(0, 1.5, 0), "1.5"),
    (lambda: CellRef(0, 1, np.float64(2.0)), "2.0"),
    (lambda: _G54.unflatten(True, 3), "True"),
    (lambda: _G54.unflatten(0, 3.0), "3.0"),
], ids=["stencil-sign-bool", "stencil-sign-float", "stencil-sign-minus-float",
        "norm-bool", "norm-float", "cellref-dim-bool", "cellref-i-float",
        "cellref-j-numpy-float", "unflatten-dim-bool", "unflatten-index-float"])
def test_count_rule_on_integer_inputs(call, bad):
    # A bool or a float is no count: each raises a ValueError naming it.
    with pytest.raises(ValueError) as err:
        call()
    assert bad in str(err.value)


def test_count_rule_keeps_numpy_integers_as_int():
    one = np.int64(1)
    assert type(Stencil1D((1.0,), -one).sign) is int
    assert norm(_ONES, np.int64(2)) == norm(_ONES, 2)
    ref = CellRef(one, np.int32(6), np.int64(-1), "y")
    assert ref == CellRef(1, 6, -1, "y")
    assert all(type(n) is int for n in (ref.dim, ref.i, ref.j))
    assert _G54.flatten(ref) == _G54.flatten(CellRef(1, 1, 3, "y"))
    assert _G54.unflatten(np.int64(2), np.int64(7)) == CellRef(2, 2, 1)


def test_shifted_semantics():
    rng = np.random.default_rng(11)
    p = rng.standard_normal((4, 5))
    # past the extent, whole multiples of it, negative on both axes, zero
    for di, dj in ((1, 0), (0, 1), (-1, 0), (0, -1), (2, 3), (5, 4),
                   (-6, 9), (0, 0), (-1, -1), (-5, -8), (4, 3), (11, -3)):
        s = shifted(p, di=di, dj=dj)
        for j in range(4):
            for i in range(5):
                assert s[j, i] == p[(j + dj) % 4, (i + di) % 5]
    # always a fresh writable array, also from a read-only plane
    frozen = p.copy()
    frozen.flags.writeable = False
    s = shifted(frozen, di=0, dj=0)
    assert not np.shares_memory(s, frozen)
    s[0, 0] = 7.0
    assert frozen[0, 0] == p[0, 0]


# single-axis, diagonal, negative, whole multiples of the extent, zero
_SHIFTS = ((1, 0), (0, 1), (-1, 0), (0, -1), (3, 0), (0, -3), (5, 0),
           (0, 4), (-10, 0), (0, -8), (2, 3), (-1, -1), (6, -5), (-5, 8),
           (4, 3), (0, 0))


def test_shifted_matches_roll_bitwise():
    rng = np.random.default_rng(13)
    p = rng.standard_normal((4, 5))
    p[0, :3] = (0.0, -0.0, np.nan)
    # float with both zeros and a nan, integer, and a strided view
    for plane in (p, np.arange(20).reshape(4, 5), p.T):
        for di, dj in _SHIFTS:
            want = np.roll(plane, (-dj, -di), axis=(0, 1))
            got = shifted(plane, di=di, dj=dj)
            assert got.dtype == plane.dtype
            assert got.tobytes() == want.tobytes()


def test_roll_into_fills_only_out():
    # the unchecked shift that d and the upwind read write into their own
    # buffers: out is filled and returned, and nothing next to it changes,
    # also when out is a neighbouring block of the plane's own buffer
    rng = np.random.default_rng(17)
    p = rng.standard_normal((4, 5))
    p[0, :3] = (0.0, -0.0, np.nan)
    for plane in (p, np.arange(20).reshape(4, 5), p.T):
        for axis in (0, 1):
            for k in range(plane.shape[axis]):
                want = np.roll(plane, -k, axis=axis)
                buf = np.full(2 * plane.size + 3, 7, dtype=plane.dtype)
                out = buf[3:3 + plane.size].reshape(plane.shape)
                assert _roll_into(plane, k, axis, out) is out
                assert out.tobytes() == want.tobytes()
                assert (buf[:3] == 7).all()
                assert (buf[3 + plane.size:] == 7).all()
    buf = np.arange(40.0)
    assert _roll_into(buf[:20].reshape(4, 5), 1, 1,
                      buf[20:].reshape(4, 5)).base is buf
    assert np.array_equal(buf[20:].reshape(4, 5),
                          np.roll(np.arange(20.0).reshape(4, 5), -1, axis=1))


# Values a copy must carry bit for bit: both zeros, nan, both
# infinities and subnormals, beside ordinary floats.
_AWKWARD = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                            -5e-324, 2.5e-310, -1e-308, 1.0, -3.5])


@st.composite
def _shift_cases(draw):
    # Two planes on a non-square grid down to the 4-cell minimum, and a
    # whole number of periods to add to every shift.
    ny = draw(st.integers(4, 9))
    nx = draw(st.integers(4, 9).filter(lambda n: n != ny))
    planes = draw(hnp.arrays(np.float64, (2, ny, nx),
                             elements=st.one_of(_AWKWARD, st.floats())))
    return planes, draw(st.integers(-2, 2))


def _same_or_both_nan(a, b):
    # Entries equal bit for bit, and nan in the same places: the loop
    # adds wx + wy where d adds wy + wx, so of two nans each may keep
    # the other's payload.
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def _in_buffer(values, home):
    # values copied into home, a flat block of a larger buffer, in the
    # layout of values: a transposed plane stays a transposed view.
    if values.flags.c_contiguous:
        view = home.reshape(values.shape)
    else:
        view = home.reshape(values.shape[::-1]).T
    view[...] = values
    return view


@settings(max_examples=40, deadline=None)
@given(_shift_cases())
def test_flat_shifts_equal_roll_drawn(case):
    # Every periodic shift is flat block copies, and d reads its
    # neighbours from flat slices of its input: each must give np.roll's
    # bits (the loops' for d), for every k on both axes, on float,
    # transposed and integer planes, and write nothing outside its out.
    (wx, wy), wraps = case
    ny, nx = wx.shape
    ints = np.arange(wx.size, dtype=np.int64).reshape(ny, nx) * 7 - 11
    for plane in (wx, wx.T, ints, ints.T):
        rows, cols = plane.shape
        n = plane.size
        for axis in (0, 1):
            for k in range(plane.shape[axis]):
                want = np.roll(plane, -k, axis=axis)
                # out right after the plane in one buffer, then before it
                for at, home in ((n + 2, 2), (2, n + 2)):
                    buf = np.full(2 * n + 5, 3, dtype=plane.dtype)
                    source = _in_buffer(plane, buf[home:home + n])
                    before = buf.copy()
                    out = buf[at:at + n].reshape(rows, cols)
                    assert _roll_into(source, k, axis, out) is out
                    assert out.tobytes() == want.tobytes()
                    kept = np.ones(buf.size, dtype=bool)
                    kept[at:at + n] = False
                    assert buf[kept].tobytes() == before[kept].tobytes()
        shifts = ([(k + wraps * cols, 0) for k in range(cols)]
                  + [(0, k + wraps * rows) for k in range(rows)]
                  + [(1 + wraps * cols, rows - 1), (cols - 1, 2 - wraps)])
        for di, dj in shifts:
            got = shifted(plane, di=di, dj=dj)
            assert got.dtype == plane.dtype and got.flags.c_contiguous
            assert not np.shares_memory(got, plane)
            want = np.roll(plane, (-dj, -di), axis=(0, 1))
            assert got.tobytes() == want.tobytes()
    g = build_complex(nx, ny, 0.25)
    gx, gy = reference.grad_loop(wx.tolist())
    grad = np.concatenate([np.ravel(gx), np.ravel(gy)])
    curl = np.ravel(reference.curl_loop(wx.tolist(), wy.tolist()))
    work = {}
    with np.errstate(invalid="ignore", over="ignore"):
        for w in (None, work, work):
            d0 = exterior_derivative(Cochain.from_plane(g, 0, wx), w)
            assert _same_or_both_nan(d0.values, grad)
            d1 = exterior_derivative(Cochain.from_components(g, wx, wy), w)
            assert _same_or_both_nan(d1.values, curl)


def test_node_coords():
    g = build_complex(5, 4, 0.5)
    X, Y = g.node_coords()
    assert X.shape == (4, 5) and Y.shape == (4, 5)
    assert X[2, 3] == 1.5
    assert Y[2, 3] == 1.0


def test_boundary_chain_edges():
    g = build_complex(4, 4, 1.0)
    chain = boundary_chain(g, CellRef(1, 1, 2, "x"))
    assert chain == [(g.flatten(CellRef(0, 2, 2)), 1),
                     (g.flatten(CellRef(0, 1, 2)), -1)]
    # wrap: the x-edge at i = nx-1 heads into column 0
    assert boundary_chain(g, CellRef(1, 3, 0, "x")) == [(0, 1), (3, -1)]
    assert boundary_chain(g, CellRef(1, 0, 3, "y")) == [(0, 1), (12, -1)]


def test_boundary_chain_cell_order_frozen():
    # chain order is a documented convention: bottom, right, top, left
    g = build_complex(4, 4, 1.0)
    assert boundary_chain(g, CellRef(2, 0, 0)) == [(0, 1), (17, 1), (4, -1), (16, -1)]
    with pytest.raises(ValueError):
        boundary_chain(g, CellRef(0, 2, 2))


def test_boundary_operator_rows_match_chains():
    g = build_complex(5, 4, 1.0)
    for k in (1, 2):
        dense = boundary_operator(g, k).entries.toarray()
        for idx in range(g.cell_count(k)):
            wanted = dict(boundary_chain(g, g.unflatten(k, idx)))
            for col in range(g.cell_count(k - 1)):
                assert dense[idx, col] == wanted.get(col, 0)


def test_boundary_operator_validates_dimension():
    g = build_complex(4, 4, 1.0)
    for k in (0, 3):
        with pytest.raises(ValueError):
            boundary_operator(g, k)


def test_boundary_of_boundary_is_zero():
    g = build_complex(5, 4, 1.0)
    prod = boundary_operator(g, 2).entries @ boundary_operator(g, 1).entries
    prod.eliminate_zeros()
    assert prod.nnz == 0


def test_runtime_import_loads_no_scipy():
    # scipy serves only the sparse reference in tests/reference.py; a fresh
    # interpreter importing the package and its CLI must not load it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, lieform, lieform.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
