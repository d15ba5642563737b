"""Coboundary behavior: pinned order, nilpotency, Stokes pairing."""

import numpy as np
import pytest

import reference
from lieform.derivative import exterior_derivative
from lieform.forms import AnalyticForm, Cochain, RectangleForm, discretize
from lieform.grid import CellRef, boundary_chain, build_complex
from reference import boundary_operator


def test_single_edge_circulation_frozen():
    g = build_complex(4, 4, 0.25)
    wx = np.zeros((4, 4))
    wx[0, 0] = 1.0
    d = exterior_derivative(Cochain.from_components(g, wx, np.zeros((4, 4))))
    plane = d.plane()
    assert plane[0, 0] == 1.0
    assert plane[3, 0] == -1.0
    assert np.count_nonzero(plane) == 2


def test_gradient_matches_loop_bitwise():
    rng = np.random.default_rng(31)
    for nx, ny in ((5, 4), (9, 8)):
        g = build_complex(nx, ny, 1.0 / nx)
        for _ in range(20):
            f = rng.standard_normal((ny, nx))
            d = exterior_derivative(Cochain.from_plane(g, 0, f))
            gx, gy = reference.grad_loop(f)
            assert np.array_equal(d.component("x"), np.array(gx))
            assert np.array_equal(d.component("y"), np.array(gy))


def test_circulation_matches_loop_bitwise():
    rng = np.random.default_rng(32)
    for nx, ny in ((5, 4), (9, 8)):
        g = build_complex(nx, ny, 1.0 / nx)
        for _ in range(20):
            wx = rng.standard_normal((ny, nx))
            wy = rng.standard_normal((ny, nx))
            d = exterior_derivative(Cochain.from_components(g, wx, wy))
            assert np.array_equal(d.plane(), np.array(reference.curl_loop(wx, wy)))


def test_dd_vanishes():
    rng = np.random.default_rng(33)
    g = build_complex(9, 8, 1.0 / 9)
    f = rng.standard_normal((8, 9))
    dd = exterior_derivative(exterior_derivative(Cochain.from_plane(g, 0, f)))
    assert np.max(np.abs(dd.values)) <= 1e-13 * np.max(np.abs(f))
    # integer data cancels without any roundoff at all
    fi = rng.integers(-100, 100, (8, 9)).astype(float)
    ddi = exterior_derivative(exterior_derivative(Cochain.from_plane(g, 0, fi)))
    assert np.all(ddi.values == 0.0)


def test_degree_ladder_ends():
    g = build_complex(5, 4, 1.0)
    top = exterior_derivative(Cochain.zeros(g, 2))
    assert top.degree == 3 and top.is_empty
    bottom = exterior_derivative(Cochain.empty(g, -1))
    assert bottom.degree == 0
    assert bottom.values.shape == (20,)
    assert np.all(bottom.values == 0.0)
    with pytest.raises(ValueError):
        exterior_derivative(top)


def test_matches_incidence_operator():
    rng = np.random.default_rng(34)
    g = build_complex(5, 4, 1.0)
    f = Cochain.from_plane(g, 0, rng.standard_normal((4, 5)))
    w = Cochain(g, 1, rng.standard_normal(40))
    for cochain, k in ((f, 1), (w, 2)):
        via_matrix = boundary_operator(g, k).apply(cochain.values)
        direct = exterior_derivative(cochain).values
        # the sparse product may sum rows in a different order
        assert np.allclose(via_matrix, direct, rtol=1e-13, atol=1e-13)
    ints = Cochain(g, 1, rng.integers(-50, 50, 40).astype(float))
    assert np.array_equal(boundary_operator(g, 2).apply(ints.values),
                          exterior_derivative(ints).values)


def test_stokes_pairing_every_entity():
    # <df, sigma> equals <f, boundary sigma> bit for bit when the chain
    # terms are accumulated in their documented order
    rng = np.random.default_rng(35)
    g = build_complex(8, 8, 0.125)
    f = Cochain.from_plane(g, 0, rng.standard_normal((8, 8)))
    w = Cochain(g, 1, rng.standard_normal(128))
    for cochain, k in ((f, 1), (w, 2)):
        d = exterior_derivative(cochain).values
        for idx in range(g.cell_count(k)):
            acc = 0.0
            for col, sign in boundary_chain(g, g.unflatten(k, idx)):
                acc = acc + sign * cochain.values[col]
            assert acc == d[idx]


def _restrict(c):
    # c on a (2ny, 2nx) grid, restricted to its (ny, nx) coarsening by
    # the loops in tests/reference.py.
    g = c.grid
    coarse = build_complex(g.nx // 2, g.ny // 2, 2.0 * g.h)
    if c.degree == 1:
        cx, cy = reference.restrict_1form_loop(c.component("x").tolist(),
                                               c.component("y").tolist())
        return Cochain.from_components(coarse, np.array(cx), np.array(cy))
    loop = {0: reference.restrict_0form_loop,
            2: reference.restrict_2form_loop}[c.degree]
    return Cochain.from_plane(coarse, c.degree,
                              np.array(loop(c.plane().tolist())))


# fine (nx, ny): non-square, down to the 4x4 coarse minimum
_FINE = [(8, 10), (12, 8), (14, 18)]


@pytest.mark.parametrize("nx, ny", _FINE)
def test_restriction_commutes_with_d(nx, ny):
    # Restricting and then taking d on the coarse grid equals taking d
    # on the fine grid and then restricting: to roundoff on real data,
    # and exactly on integer-valued cochains, whose sums are exact.
    rng = np.random.default_rng(36 + nx)
    g = build_complex(nx, ny, 1.0 / nx)
    real = (Cochain.from_plane(g, 0, rng.standard_normal((ny, nx))),
            Cochain(g, 1, rng.standard_normal(2 * g.size)))
    ints = (Cochain.from_plane(g, 0, rng.integers(-999, 999, (ny, nx)) * 1.0),
            Cochain(g, 1, rng.integers(-999, 999, 2 * g.size) * 1.0))
    for c in real:
        fine_first = _restrict(exterior_derivative(c)).values
        coarse_first = exterior_derivative(_restrict(c)).values
        gap = np.max(np.abs(fine_first - coarse_first))
        assert gap <= 1e-14 * np.max(np.abs(c.values))
    for c in ints:
        fine_first = _restrict(exterior_derivative(c)).values
        assert np.array_equal(fine_first,
                              exterior_derivative(_restrict(c)).values)
        assert np.any(fine_first != 0.0)


@pytest.mark.parametrize("nx, ny", _FINE)
def test_restriction_adds_integrals(nx, ny):
    # The restriction is exact for integrals: a form discretized on the
    # fine grid and restricted equals the form discretized on the coarse
    # grid, to roundoff for edge and cell integrals (exact overlaps of a
    # rectangle that cuts cells) and bit for bit for vertex samples.
    fine = build_complex(nx, ny, 1.0 / nx)
    coarse = build_complex(nx // 2, ny // 2, 2.0 / nx)
    for form in (RectangleForm(1, 0.23, 0.71, 0.31, 0.66, dx_coeff=0.5,
                               dy_coeff=-1.5),
                 RectangleForm(2, 0.23, 0.71, 0.31, 0.66, density=2.5)):
        got = _restrict(discretize(form, fine)).values
        want = discretize(form, coarse).values
        assert np.max(np.abs(got - want)) <= 1e-15
        assert np.count_nonzero(want) > 0
    smooth = AnalyticForm(0, (lambda x, y: np.sin(6.0 * x) * np.cos(4.0 * y),))
    assert np.array_equal(_restrict(discretize(smooth, fine)).values,
                          discretize(smooth, coarse).values)
