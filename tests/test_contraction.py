"""Interior products against the loop references, bit for bit."""

import re

import numpy as np
import pytest

import reference
from lieform import contraction
from lieform.contraction import ContractionResult, contract
from lieform.forms import Cochain
from lieform.grid import build_complex
from lieform.reconstruct import (CourantError, SchemeKind, Stencil1D,
                                 reconstruct_at_interface)
from lieform.scenarios import split_fv_step
from lieform.velocity import StaggeredVelocity

H = 0.25


def _random_setup(rng, nx, ny, scale=1.0):
    g = build_complex(nx, ny, H)
    fx = rng.uniform(-1.0, 1.0, g.shape) * (H * scale)
    fy = rng.uniform(-1.0, 1.0, g.shape) * (H * scale)
    return g, StaggeredVelocity(g, fx, fy)


def _with_fluxes(schemes):
    """(scheme, flux) cases; the mixed-sign ones keep the bare scheme id."""
    return [pytest.param(s, f, id=str(s) if f == "mixed" else f"{f}-{s}")
            for f in ("mixed", "positive", "negative") for s in schemes]


def _flux_setup(rng, nx, ny, flux):
    """Random mixed-sign fluxes, or constant ones of a single sign."""
    if flux == "mixed":
        return _random_setup(rng, nx, ny)
    g = build_complex(nx, ny, H)
    s = 1.0 if flux == "positive" else -1.0
    return g, StaggeredVelocity(g, np.full(g.shape, s * 0.7 * H),
                                np.full(g.shape, s * 0.4 * H))


# Fluxes on the edge of the >= 0.0 upwind rule: both zeros, and
# subnormals whose pairwise sums include +0.0 (a + -a), -0.0 (-0.0 +
# -0.0) and tiny negatives that halve to -0.0 (5e-324 + -1e-323).
SIGN_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323,
                       0.3 * H, -0.3 * H])


def _sign_edge_setup(rng, nx, ny):
    g = build_complex(nx, ny, H)
    return g, StaggeredVelocity(g, rng.choice(SIGN_EDGES, g.shape),
                                rng.choice(SIGN_EDGES, g.shape))


def _one_signed_setups(rng, nx, ny):
    """Velocities whose upwind reads shift in some directions, by name.

    Each comes with the read kind it must give for the x and y faces
    and the x and y node sums: a bare shift where no sign is negative
    (so -0.0 counts as positive), a shift overwritten through a mask
    elsewhere. A direction whose faces have one sign also has node sums
    of that sign, so faces that shift beside masked sums occur across
    directions (x one-signed, y mixed); the reverse, mixed faces under
    one-signed sums, occurs per direction.
    """
    g = build_complex(nx, ny, H)

    def full(value):
        return np.full(g.shape, value)

    def mixed():
        return rng.uniform(-1.0, 1.0, g.shape) * H

    # One negative row (x) or column (y) between positive ones: mixed
    # faces whose two-point sums are all positive.
    fx, fy = full(0.3 * H), full(0.3 * H)
    fx[0, :] = -0.1 * H
    fy[:, 0] = -0.1 * H
    zeros_and_positive = np.array([0.0, -0.0, 0.3 * H])
    shift, masked = "shift", "masked"
    return g, [
        ("constant positive", full(0.7 * H), full(0.4 * H), (shift,) * 4),
        ("constant negative", full(-0.7 * H), full(-0.4 * H), (masked,) * 4),
        ("constant, y negative", full(0.5 * H), full(-0.25 * H),
         (shift, masked, shift, masked)),
        ("zeros and positive", rng.choice(zeros_and_positive, g.shape),
         rng.choice(zeros_and_positive, g.shape), (shift,) * 4),
        ("all +0.0", full(0.0), full(0.0), (shift,) * 4),
        ("all -0.0", full(-0.0), full(-0.0), (shift,) * 4),
        ("x one-signed, y mixed", full(0.5 * H), mixed(),
         (shift, masked, shift, masked)),
        ("faces mixed, sums one-signed", fx, fy,
         (masked, masked, shift, shift)),
    ]


def _read_kinds(vel):
    """'shift' or 'masked' for the x/y face and x/y node upwind reads.

    A direction with a negative sign holds its mask, a read-only bool
    plane of the grid's shape; any other holds None and reads one shift.
    """
    kinds = []
    for neg in (*vel._face_negative, *vel._sum_negative):
        if neg is None:
            kinds.append("shift")
            continue
        assert neg.shape == vel.grid.shape and neg.dtype == np.bool_
        assert not neg.flags.writeable
        kinds.append("masked")
    return tuple(kinds)


def _same_bits(got, want):
    """Equal as IEEE bit patterns, so the sign of a zero counts too."""
    return (np.ascontiguousarray(got).tobytes()
            == np.array(want, dtype=np.float64).tobytes())


def _zero_kinds(values):
    """Which of +0.0, -0.0 and negatives that halve to -0.0 occur."""
    zero = values == 0.0
    return {"+0": bool((zero & ~np.signbit(values)).any()),
            "-0": bool((zero & np.signbit(values)).any()),
            "halves to -0": bool(((values < 0.0) & (values / 2.0 == 0.0)).any())}


@pytest.mark.parametrize("nx,ny", [(5, 4), (8, 8), (9, 8)])
def test_contract_2form_upwind_matches_loop(nx, ny):
    rng = np.random.default_rng(101)
    dt = 0.3 * H
    seen = set()
    for k in range(20):
        g, vel = (_random_setup if k < 10 else _sign_edge_setup)(rng, nx, ny)
        w = rng.standard_normal(g.shape)
        got = contract(Cochain.from_plane(g, 2, w), vel, dt).cochain
        ex, ey = reference.transport_2form_loop(
            w.tolist(), vel.flux_x.tolist(), vel.flux_y.tolist(), dt, H)
        assert _same_bits(got.component("x"), ex)
        assert _same_bits(got.component("y"), ey)
        for flux in (vel.flux_x, vel.flux_y):
            seen.update(kind for kind, hit in _zero_kinds(flux).items() if hit)
    assert seen == {"+0", "-0", "halves to -0"}
    g, setups = _one_signed_setups(rng, nx, ny)
    for name, fx, fy, kinds in setups:
        vel = StaggeredVelocity(g, fx, fy)
        assert _read_kinds(vel) == kinds, name
        w = rng.standard_normal(g.shape)
        got = contract(Cochain.from_plane(g, 2, w), vel, dt).cochain
        ex, ey = reference.transport_2form_loop(
            w.tolist(), fx.tolist(), fy.tolist(), dt, H)
        assert _same_bits(got.component("x"), ex), name
        assert _same_bits(got.component("y"), ey), name


@pytest.mark.parametrize("nx,ny", [(5, 4), (8, 8), (9, 8)])
def test_contract_1form_upwind_matches_loop(nx, ny):
    rng = np.random.default_rng(103)
    dt = 0.3 * H
    seen = set()
    for k in range(20):
        g, vel = (_random_setup if k < 10 else _sign_edge_setup)(rng, nx, ny)
        wx = rng.standard_normal(g.shape)
        wy = rng.standard_normal(g.shape)
        got = contract(Cochain.from_components(g, wx, wy), vel, dt).cochain
        node = reference.transport_1form_loop(
            wx.tolist(), wy.tolist(),
            vel.flux_x.tolist(), vel.flux_y.tolist(), dt, H)
        assert _same_bits(got.plane(), node)
        sums = (vel.flux_x + np.roll(vel.flux_x, 1, axis=0),
                vel.flux_y + np.roll(vel.flux_y, 1, axis=1))
        for s in sums:
            seen.update(kind for kind, hit in _zero_kinds(s).items() if hit)
    assert seen == {"+0", "-0", "halves to -0"}
    g, setups = _one_signed_setups(rng, nx, ny)
    for name, fx, fy, kinds in setups:
        vel = StaggeredVelocity(g, fx, fy)
        assert _read_kinds(vel) == kinds, name
        wx = rng.standard_normal(g.shape)
        wy = rng.standard_normal(g.shape)
        got = contract(Cochain.from_components(g, wx, wy), vel, dt).cochain
        node = reference.transport_1form_loop(
            wx.tolist(), wy.tolist(), fx.tolist(), fy.tolist(), dt, H)
        assert _same_bits(got.plane(), node), name


@pytest.mark.parametrize("scheme,flux",
                         _with_fluxes([SchemeKind.WENO5, SchemeKind.WENO7]))
def test_contract_2form_weno_composes_scalar_kernel(scheme, flux):
    rng = np.random.default_rng(107)
    g, vel = _flux_setup(rng, 9, 8, flux)
    w = rng.standard_normal(g.shape)
    dt = 0.3 * H
    got = contract(Cochain.from_plane(g, 2, w), vel, dt, scheme).cochain
    u = w / H
    width = scheme.stencil_width
    ny, nx = g.shape
    for j in range(ny):
        for i in range(nx):
            pos_y = vel.flux_y[j, i] >= 0.0
            cells = reference.window_cells(j, ny, width, pos_y)
            r = reconstruct_at_interface(
                Stencil1D(tuple(float(u[c, i]) for c in cells),
                          1 if pos_y else -1), scheme)
            assert got.component("x")[j, i] == -(((r * vel.flux_y[j, i]) * dt) / H)
            pos_x = vel.flux_x[j, i] >= 0.0
            cells = reference.window_cells(i, nx, width, pos_x)
            r = reconstruct_at_interface(
                Stencil1D(tuple(float(u[j, c]) for c in cells),
                          1 if pos_x else -1), scheme)
            assert got.component("y")[j, i] == ((r * vel.flux_x[j, i]) * dt) / H


@pytest.mark.parametrize("scheme,flux",
                         _with_fluxes([SchemeKind.WENO5, SchemeKind.WENO7]))
def test_contract_1form_weno_composes_scalar_kernel(scheme, flux, monkeypatch):
    # Every scheme reads the unhalved node sums and their masks: the
    # mixed case adds sign-edge draws, where a halved sum would round a
    # tiny negative to -0.0 and flip its window.
    rng = np.random.default_rng(109)
    g, vel = _flux_setup(rng, 8, 9, flux)
    vels = [vel]
    if flux == "mixed":
        vels += [_sign_edge_setup(rng, 8, 9)[1] for _ in range(10)]
    read = contraction._reconstruct
    masks = []

    def recording(jobs, *args):
        masks.append(tuple(neg for _, _, neg, _ in jobs))
        return read(jobs, *args)

    monkeypatch.setattr(contraction, "_reconstruct", recording)
    dt = 0.3 * H
    width = scheme.stencil_width
    ny, nx = g.shape
    seen = set()
    for vel in vels:
        wx = rng.standard_normal(g.shape)
        wy = rng.standard_normal(g.shape)
        form = Cochain.from_components(g, wx, wy)
        masks.clear()
        got = contract(form, vel, dt, scheme).cochain
        contract(form, vel, dt, SchemeKind.UPWIND)
        assert len(masks) == 2
        for pair in masks:
            assert all(a is b for a, b in zip(pair, vel._sum_negative))
        sum_x = vel.flux_x + np.roll(vel.flux_x, 1, axis=0)
        sum_y = vel.flux_y + np.roll(vel.flux_y, 1, axis=1)
        for s in (sum_x, sum_y):
            seen.update(kind for kind, hit in _zero_kinds(s).items() if hit)
        ux, uy = wx / H, wy / H
        want = np.empty(g.shape)
        for j in range(ny):
            for i in range(nx):
                px = sum_x[j, i] >= 0.0
                cells = reference.window_cells(i, nx, width, px)
                rx = reconstruct_at_interface(
                    Stencil1D(tuple(float(ux[j, c]) for c in cells),
                              1 if px else -1), scheme)
                py = sum_y[j, i] >= 0.0
                cells = reference.window_cells(j, ny, width, py)
                ry = reconstruct_at_interface(
                    Stencil1D(tuple(float(uy[c, i]) for c in cells),
                              1 if py else -1), scheme)
                want[j, i] = (((rx * sum_x[j, i]) * dt) / (2 * H)
                              + ((ry * sum_y[j, i]) * dt) / (2 * H))
        assert _same_bits(got.plane(), want)
    if flux == "mixed":
        assert seen == {"+0", "-0", "halves to -0"}


def test_contract_degree_ladder_ends():
    rng = np.random.default_rng(113)
    g, vel = _random_setup(rng, 8, 8)
    res = contract(Cochain.from_plane(g, 0, np.ones(g.shape)), vel, 0.01)
    assert res.cochain.is_empty
    assert res.cochain.degree == -1
    assert res.cochain.values.size == 0
    res = contract(Cochain.empty(g, 3), vel, 0.01)
    assert res.cochain.degree == 2
    assert not res.cochain.is_empty
    assert np.all(res.cochain.values == 0.0)


def test_contract_guards():
    rng = np.random.default_rng(127)
    g, vel = _random_setup(rng, 8, 8)
    other = build_complex(8, 8, 0.125)
    w = Cochain.from_plane(g, 2, np.ones(g.shape))
    with pytest.raises(ValueError):
        contract(Cochain.from_plane(other, 2, np.ones(other.shape)), vel, 0.01)
    with pytest.raises(ValueError):
        contract(w, vel, 0.0)
    with pytest.raises(ValueError):
        contract(w, vel, -0.1)
    fast = StaggeredVelocity(g, np.full(g.shape, H), np.zeros(g.shape))
    with pytest.raises(CourantError):
        contract(w, fast, 2.0 * H)
    # flux differencing raises contract's errors, for a form of the
    # velocity's shape on another grid and at Courant number 2
    on_other = Cochain.from_plane(other, 2, np.ones(other.shape))
    for scheme in (SchemeKind.UPWIND, SchemeKind.WENO5):
        for entry in (contract, split_fv_step):
            with pytest.raises(ValueError, match="^velocity and form live "
                                                 "on different grids$"):
                entry(on_other, vel, 0.01, scheme)
            with pytest.raises(CourantError, match=r"^courant number 2 "
                               r"exceeds the configured limit 1$"):
                entry(w, fast, 2.0 * H, scheme)
    # On a zero velocity the Courant number of an infinite dt is nan,
    # which no limit catches; the dt check must.
    still = StaggeredVelocity(g, np.zeros(g.shape), np.zeros(g.shape))
    w1 = Cochain.from_components(g, np.ones(g.shape), np.ones(g.shape))
    for scheme in (SchemeKind.UPWIND, SchemeKind.WENO7):
        for dt in (np.inf, np.nan, True):
            for form in (w, w1):
                with pytest.raises(ValueError, match="positive and finite"):
                    contract(form, still, dt, scheme)
    # flux differencing checks dt by the same rule, with the same text
    for scheme in (SchemeKind.UPWIND, SchemeKind.WENO7):
        for dt in (0.0, -0.1, np.inf, np.nan, True):
            with pytest.raises(ValueError, match=r"^dt must be positive and "
                               rf"finite, got {re.escape(repr(dt))}$"):
                split_fv_step(w, still, dt, scheme)
    # the grid's smaller extent against the stencil, for every degree
    small = build_complex(12, 7, H)
    small_still = StaggeredVelocity(small, np.zeros(small.shape),
                                    np.zeros(small.shape))
    forms = [Cochain.zeros(small, k) for k in (0, 1, 2)]
    for form in forms + [Cochain.empty(small, 3)]:
        with pytest.raises(ValueError, match=r"^grid extent 7 too small "
                                             r"for weno7 \(needs at least "
                                             r"8 cells\)$"):
            contract(form, small_still, 0.01, SchemeKind.WENO7)
        contract(form, small_still, 0.01, SchemeKind.WENO5)


@pytest.mark.parametrize("scheme", [SchemeKind.UPWIND, SchemeKind.WENO7])
def test_zero_velocity_moves_nothing(scheme):
    rng = np.random.default_rng(131)
    g = build_complex(8, 8, H)
    still = StaggeredVelocity(g, np.zeros(g.shape), np.zeros(g.shape))
    w2 = Cochain.from_plane(g, 2, rng.standard_normal(g.shape))
    assert np.all(contract(w2, still, 0.01, scheme).cochain.values == 0.0)
    w1 = Cochain.from_components(g, rng.standard_normal(g.shape),
                                 rng.standard_normal(g.shape))
    assert np.all(contract(w1, still, 0.01, scheme).cochain.values == 0.0)


def test_result_carries_dt():
    rng = np.random.default_rng(137)
    g, vel = _random_setup(rng, 8, 8)
    res = contract(Cochain.from_plane(g, 2, np.ones(g.shape)), vel, 0.0125)
    assert isinstance(res, ContractionResult)
    assert res.dt == 0.0125
