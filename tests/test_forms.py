"""Cochain storage, discretization, norms."""

import math

import numpy as np
import pytest

import reference
from lieform.forms import (AnalyticForm, Cochain, NonFiniteValueError,
                           RectangleForm, axpy, discretize, norm)
from lieform.grid import build_complex
from lieform.output import read_field, write_field


def grid54():
    return build_complex(5, 4, 0.25)


def test_cochain_shape_checks():
    g = grid54()
    with pytest.raises(ValueError):
        Cochain(g, 0, np.zeros(19))
    with pytest.raises(ValueError):
        Cochain(g, 1, np.zeros(20))
    with pytest.raises(ValueError):
        Cochain(g, 0, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        Cochain(g, 5, np.zeros(20))
    assert Cochain.zeros(g, 1).values.shape == (40,)


def test_empty_degrees_flagged():
    g = grid54()
    for degree in (-1, 3):
        c = Cochain.empty(g, degree)
        assert c.is_empty
        assert c.values.size == 0
    with pytest.raises(ValueError):
        Cochain.empty(g, 0)
    assert not Cochain.zeros(g, 2).is_empty


def test_plane_and_component_views():
    g = grid54()
    rng = np.random.default_rng(0)
    plane = rng.standard_normal((4, 5))
    c = Cochain.from_plane(g, 2, plane)
    assert np.array_equal(c.plane(), plane)
    wx = rng.standard_normal((4, 5))
    wy = rng.standard_normal((4, 5))
    e = Cochain.from_components(g, wx, wy)
    assert np.array_equal(e.component("x"), wx)
    assert np.array_equal(e.component("y"), wy)
    with pytest.raises(ValueError):
        e.plane()
    with pytest.raises(ValueError):
        c.component("x")
    with pytest.raises(ValueError):
        e.component("z")
    with pytest.raises(ValueError):
        Cochain.from_plane(g, 1, plane)
    with pytest.raises(ValueError):
        Cochain.from_plane(g, 2, plane.T)
    for bad_x, bad_y in ((wx.T, wy), (wx, wy.T), (wx, wy[:3])):
        with pytest.raises(ValueError, match="component planes must match"):
            Cochain.from_components(g, bad_x, bad_y)


def test_copy_is_detached():
    g = grid54()
    a = Cochain.zeros(g, 0)
    b = a.copy()
    b.values[3] = 7.0
    assert a.values[3] == 0.0


def test_analytic_form_arity():
    with pytest.raises(ValueError):
        AnalyticForm(1, (lambda x, y: x,))
    with pytest.raises(ValueError):
        AnalyticForm(0, (lambda x, y: x, lambda x, y: y))
    with pytest.raises(ValueError):
        AnalyticForm(3, (lambda x, y: x,))


def test_discretize_degree0_is_pointwise():
    g = grid54()
    c = discretize(AnalyticForm(0, (lambda x, y: x + 10.0 * y,)), g)
    X, Y = g.node_coords()
    assert np.array_equal(c.plane(), X + 10.0 * Y)
    # a point sample keeps a -0.0 that a quadrature sum would make +0.0
    c = discretize(AnalyticForm(0, (lambda x, y: -0.0 * x,)), g)
    assert np.signbit(c.values).all()


def test_degree1_quadrature_exact_on_cubics():
    # integral of x^3 over the edge [0.25, 0.5] at any row
    g = build_complex(4, 4, 0.25)
    c = discretize(AnalyticForm(1, (lambda x, y: x ** 3, lambda x, y: 0.0 * x)), g)
    assert c.component("x")[0, 1] == 0.0146484375
    assert np.all(c.component("y") == 0.0)


def test_degree1_quadrature_accuracy_on_sine():
    g = build_complex(4, 4, 0.25)
    c = discretize(AnalyticForm(1, (lambda x, y: np.sin(2.0 * np.pi * x),
                                    lambda x, y: 0.0 * x)), g)
    exact = 1.0 / (2.0 * np.pi)   # over [0.25, 0.5]
    assert c.component("x")[2, 1] == pytest.approx(exact, rel=1e-4)


def test_degree2_quadrature():
    g = build_complex(4, 4, 0.25)
    c = discretize(AnalyticForm(2, (lambda x, y: x * y,)), g)
    # integral of xy over [0, h]^2 = h^4 / 4
    assert c.plane()[0, 0] == pytest.approx(0.25 ** 4 / 4.0, rel=1e-14)
    flat = discretize(AnalyticForm(2, (lambda x, y: np.ones_like(x),)), g)
    assert np.allclose(flat.plane(), 0.25 ** 2, rtol=1e-14)


def _signed_components():
    """Smooth components of both signs; each returns -0.0 somewhere.

    sin(0) * cos(...) is -0.0 where the cosine is negative, and a constant
    -0.0 comes back as a Python float, not a plane.
    """
    return (
        lambda x, y: np.sin(2.0 * np.pi * x) * np.cos(3.0 * np.pi * y + 1.0),
        lambda x, y: np.where(x < 0.45, -0.0, x - 2.0 * y + 0.3),
        lambda x, y: -0.0,
        lambda x, y: np.cos(7.3 * x - 2.1 * y) * (x - 0.5) - 0.25 * y,
    )


@pytest.mark.parametrize("nx, ny, h", [(6, 5, 0.2), (33, 20, 0.03)])
def test_gauss_rule_matches_written_loops_bitwise(nx, ny, h):
    # One tensor rule for degrees 1 and 2 gives the bits of the two
    # loops it replaced, kept in reference.py.
    g = build_complex(nx, ny, h)
    funcs = _signed_components()
    for fx in funcs:
        for fy in funcs:
            got = discretize(AnalyticForm(1, (fx, fy)), g).values
            want = np.concatenate(
                [reference.edge_line_integrals(g, "x", fx).ravel(),
                 reference.edge_line_integrals(g, "y", fy).ravel()])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        got = discretize(AnalyticForm(2, (fx,)), g).values
        want = reference.cell_area_integrals(g, fx).ravel()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_degree_is_an_int_by_the_count_rule(tmp_path):
    # Numpy integers pass and are stored as int; a bool or a float does
    # not pass, although True == 1 == 1.0.
    g = grid54()
    for d, size in ((np.int64(1), 40), (np.int32(2), 20), (np.int8(-1), 0)):
        c = Cochain(g, d, np.zeros(size))
        assert type(c.degree) is int and c.degree == d
    assert type(Cochain.zeros(g, np.int64(0)).degree) is int
    for bad in (True, False, 1.0, 0.0, "1", None):
        with pytest.raises(ValueError, match="unsupported cochain degree"):
            Cochain(g, bad, np.zeros(40 if bad else 20))
    form = AnalyticForm(np.int64(1), (lambda x, y: x, lambda x, y: y))
    assert type(form.degree) is int and form.degree == 1
    rect = RectangleForm(np.uint8(2), 0.0, 0.5, 0.0, 0.5)
    assert type(rect.degree) is int and rect.degree == 2
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="unsupported form degree"):
            AnalyticForm(bad, (lambda x, y: x, lambda x, y: y))
        with pytest.raises(ValueError, match="unsupported rectangle form degree"):
            RectangleForm(bad, 0.0, 0.5, 0.0, 0.5)
    # A numpy-integer degree writes as a plain int, so the dump reads back.
    values = np.arange(40, dtype=np.float64) / 7.0
    path = tmp_path / "field.txt"
    write_field(path, Cochain(g, np.int64(1), values))
    assert path.read_text().startswith("degree 1\n")
    back = read_field(path)
    assert back.degree == 1 and np.array_equal(back.values, values)


def test_rectangle_form_exact_overlap():
    g = build_complex(4, 4, 0.25)
    r = RectangleForm(1, 0.3, 0.7, 0.3, 0.7, dx_coeff=0.0, dy_coeff=1.0)
    c = discretize(r, g)
    wy = c.component("y")
    assert wy[1, 2] == 0.2          # 0.5 - 0.3 is exact in binary
    assert wy[1, 1] == 0.0          # edge at x=0.25 lies outside
    assert np.all(c.component("x") == 0.0)


def test_rectangle_form_closed_boundary():
    # edges sitting exactly on the box boundary belong to the support
    g = build_complex(4, 4, 0.25)
    c = discretize(RectangleForm(1, 0.25, 0.5, 0.25, 0.5), g)
    wy = c.component("y")
    assert wy[1, 1] == 0.25 and wy[1, 2] == 0.25
    assert np.count_nonzero(wy) == 2


def test_rectangle_form_degree2():
    g = build_complex(4, 4, 0.25)
    c = discretize(RectangleForm(2, 0.25, 0.5, 0.25, 0.5, density=3.0), g)
    assert c.plane()[1, 1] == 3.0 * (0.25 * 0.25)
    assert np.count_nonzero(c.plane()) == 1


def test_rectangle_form_validation():
    with pytest.raises(ValueError):
        RectangleForm(0, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        RectangleForm(1, 0.5, 0.5, 0.0, 1.0)


def test_discretize_flags_non_finite():
    g = grid54()
    bad = AnalyticForm(0, (lambda x, y: np.where((x == 0.0) & (y == 0.0),
                                                 np.nan, x),))
    with pytest.raises(NonFiniteValueError) as err:
        discretize(bad, g)
    assert "CellRef" in str(err.value)


def test_norm_frozen_values():
    g = grid54()
    vals = np.zeros(40)
    vals[7] = 3.0
    c = Cochain(g, 1, vals)
    assert norm(c, 1) == 0.75
    assert norm(c, 2) == 3.0
    with pytest.raises(ValueError):
        norm(c, 3)


def test_norm_matches_loop():
    g = grid54()
    rng = np.random.default_rng(21)
    c = Cochain(g, 1, rng.standard_normal(40))
    blocks = [c.component("x").tolist(), c.component("y").tolist()]
    assert norm(c, 1) == pytest.approx(reference.norm1_loop(g.h, blocks), rel=1e-13)
    assert norm(c, 2) == pytest.approx(reference.norm2_loop(blocks), rel=1e-13)
    f = Cochain.from_plane(g, 0, rng.standard_normal((4, 5)))
    assert norm(f, 1) == pytest.approx(
        reference.norm1_loop(g.h, [f.plane().tolist()]), rel=1e-13)


def test_axpy():
    g = grid54()
    x = Cochain(g, 0, np.arange(20.0))
    y = Cochain(g, 0, np.ones(20))
    out = axpy(-2.0, x, y)
    assert np.array_equal(out.values, 1.0 - 2.0 * np.arange(20.0))
    # Bit patterns of the written form a * x + y, so the sign of a zero
    # counts: signed zeros, the smallest subnormals (0.5 * 5e-324 rounds
    # to a signed zero) and pairs whose result overflows to infinity.
    big = 1.7e308
    pairs = [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0),
             (5e-324, 0.0), (-5e-324, 0.0), (5e-324, -0.0), (-5e-324, -0.0),
             (5e-324, 5e-324), (5e-324, -5e-324), (-5e-324, 5e-324),
             (1.0, 1.0), (1.0, 2.0), (-3.0, 0.5), (0.1, 0.2),
             (big, big), (-big, big), (big, -big), (-big, -big), (-0.0, 5e-324)]
    xs = Cochain(g, 0, np.array([p[0] for p in pairs]))
    ys = Cochain(g, 0, np.array([p[1] for p in pairs]))
    with np.errstate(over="ignore"):
        for a in (-1.0, -2.0, 0.5):
            got = axpy(a, xs, ys).values
            want = a * xs.values + ys.values
            assert np.isinf(want).any()
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    with pytest.raises(ValueError):
        axpy(1.0, x, Cochain.zeros(g, 2))
    other = build_complex(5, 4, 0.5)
    with pytest.raises(ValueError):
        axpy(1.0, x, Cochain.zeros(other, 0))


def test_norm1_uses_entry_weight_h():
    g = build_complex(8, 8, 0.125)
    c = Cochain(g, 0, np.ones(64))
    assert norm(c, 1) == 0.125 * 64
    assert norm(c, 2) == math.sqrt(64.0)
