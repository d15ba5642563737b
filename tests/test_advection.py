"""Transport steps assembled from derivative + contraction."""

import math
import sys
import threading
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lieform.advection
import reference
from lieform.advection import AdvectionConfig, advect, lie_increment, step
from lieform.contraction import contract
from lieform.derivative import exterior_derivative
from lieform.forms import Cochain, NonFiniteValueError, axpy
from lieform.grid import build_complex
from lieform.reconstruct import (CourantError, SchemeKind, Stencil1D,
                                 extrusion_integral, interface_point_values,
                                 reconstruct_at_interface)
from lieform.scenarios import COURANT_PC, COURANT_WENO, split_fv_step
from lieform.velocity import (StaggeredVelocity, StreamFunctionVelocity,
                              discretize_velocity, max_courant,
                              rudman_vortex)


def _setup(rng, nx=8, ny=8, h=0.25, scale=0.5):
    g = build_complex(nx, ny, h)
    fx = rng.uniform(-1.0, 1.0, g.shape) * (h * scale)
    fy = rng.uniform(-1.0, 1.0, g.shape) * (h * scale)
    return g, StaggeredVelocity(g, fx, fy)


def test_config_validation():
    assert AdvectionConfig(0.1, 5).scheme is SchemeKind.UPWIND
    assert AdvectionConfig(0.1, 5, "weno7").scheme is SchemeKind.WENO7
    with pytest.raises(ValueError):
        AdvectionConfig(0.0, 5)
    with pytest.raises(ValueError):
        AdvectionConfig(float("inf"), 5)
    with pytest.raises(ValueError):
        AdvectionConfig(0.1, -1)
    with pytest.raises(ValueError):
        AdvectionConfig(0.1, 1.5)
    # A bool is not a step count; any other integer, numpy's too, is,
    # and is kept as a Python int.
    with pytest.raises(ValueError, match="got True$"):
        AdvectionConfig(0.1, True)
    steps = AdvectionConfig(0.1, np.int64(5)).steps
    assert steps == 5 and type(steps) is int
    # nor is a bool a positive number
    with pytest.raises(ValueError,
                       match=r"^dt must be positive and finite, got True$"):
        AdvectionConfig(True, 1)
    with pytest.raises(ValueError):
        AdvectionConfig(0.1, 5, courant_limit=0.0)
    with pytest.raises(ValueError):
        AdvectionConfig(0.1, 5, courant_limit=1.5)
    # nor a Courant limit
    with pytest.raises(ValueError,
                       match=r"^courant_limit must lie in \(0, 1\], got True$"):
        AdvectionConfig(0.1, 5, courant_limit=True)


def test_increment_respects_configured_limit():
    g = build_complex(8, 8, 0.25)
    vel = StaggeredVelocity(g, np.full(g.shape, 0.25), np.zeros(g.shape))
    w = Cochain.from_plane(g, 2, np.ones(g.shape))
    # nu = 0.25 * dt / 0.0625; dt = 0.15 puts it at 0.6
    with pytest.raises(CourantError):
        lie_increment(w, vel, AdvectionConfig(0.15, 1))
    lie_increment(w, vel, AdvectionConfig(0.15, 1, courant_limit=1.0))


def test_step_1form_matches_reference_update():
    rng = np.random.default_rng(211)
    dt = 0.05
    for _ in range(10):
        g, vel = _setup(rng)
        wx = rng.standard_normal(g.shape)
        wy = rng.standard_normal(g.shape)
        got = step(Cochain.from_components(g, wx, wy), vel,
                   AdvectionConfig(dt, 1))
        ref = reference.update_1form_loop(
            wx.tolist(), wy.tolist(),
            vel.flux_x.tolist(), vel.flux_y.tolist(), dt, g.h)
        nx_, ny_ = ref["new"]
        assert np.array_equal(got.component("x"), np.array(nx_))
        assert np.array_equal(got.component("y"), np.array(ny_))


def test_increment_0form_is_transported_gradient():
    rng = np.random.default_rng(223)
    g, vel = _setup(rng)
    f = rng.standard_normal(g.shape)
    inc = lie_increment(Cochain.from_plane(g, 0, f), vel,
                        AdvectionConfig(0.05, 1))
    gx, gy = reference.grad_loop(f.tolist())
    node = reference.transport_1form_loop(
        gx, gy, vel.flux_x.tolist(), vel.flux_y.tolist(), 0.05, g.h)
    assert np.array_equal(inc.plane(), np.array(node))


@st.composite
def _flows(draw):
    # A scheme, an nx != ny grid at or just above the scheme's stencil
    # minimum (and the grid's own minimum of 4), and a stream-function
    # flux on it. Stream values drawn from a few exact levels, both zeros
    # among them, make fluxes of exactly 0.0 and -0.0 (-0.0 - 0.0 is
    # -0.0), so the sign rule's edge is hit on both axes.
    scheme = draw(st.sampled_from(list(SchemeKind)))
    low = max(4, scheme.stencil_width + 1)
    ny = low + draw(st.integers(0, 2))
    nx = draw(st.sampled_from([n for n in range(low, low + 4) if n != ny]))
    level = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0])
    psi = draw(hnp.arrays(np.float64, (ny, nx), fill=st.nothing(),
                          elements=st.one_of(level, st.floats(-1.0, 1.0))))
    grid = build_complex(nx, ny, 0.25)
    # |flux| <= 0.25: a Courant number of at most 0.2 at dt 0.05, h 0.25
    vel = discretize_velocity(
        StreamFunctionVelocity(lambda x, y: 0.125 * psi), grid)
    return scheme, vel


def _planes(shape):
    return hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3))


@st.composite
def _fv_cases(draw):
    # A drawn flow and a cell field on its grid.
    scheme, vel = draw(_flows())
    rho = draw(_planes(vel.grid.shape))
    return scheme, vel.flux_x, vel.flux_y, rho


@st.composite
def _step_cases(draw):
    # A drawn flow, two planes on its grid and two coefficients.
    scheme, vel = draw(_flows())
    planes = draw(_planes((2, *vel.grid.shape)))
    a, b = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    return scheme, vel, planes, a, b


def _seeded_fv_case(scheme):
    rng = np.random.default_rng(227)
    g, vel = _setup(rng, 9, 8)
    return scheme, vel.flux_x, vel.flux_y, rng.standard_normal(g.shape)


def _assert_step_2form_matches_split_fv(scheme, flux_x, flux_y, rho):
    # The degree-2 step and flux differencing each read a WENO plane's
    # two face sets in one private reconstruction call, with the
    # velocity's face masks, then do their own arithmetic. Five steps
    # must agree bit for bit, and a second flux differencing that
    # reuses one workspace must give the same bits as the fresh one.
    g = build_complex(rho.shape[1], rho.shape[0], 0.25)
    vel = StaggeredVelocity(g, flux_x, flux_y)
    w = Cochain.from_plane(g, 2, rho)
    dt = 0.05
    config = AdvectionConfig(dt, 1, scheme)
    fv = fv_work = w
    work = {}
    for _ in range(5):
        w = step(w, vel, config)
        fv = split_fv_step(fv, vel, dt, scheme)
        fv_work = split_fv_step(fv_work, vel, dt, scheme, work)
        assert np.array_equal(w.plane(), fv.plane())
        assert np.array_equal(fv_work.values.view(np.int64),
                              fv.values.view(np.int64))


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_step_2form_matches_split_fv(scheme):
    _assert_step_2form_matches_split_fv(*_seeded_fv_case(scheme))


@settings(max_examples=40, deadline=None)
@given(_fv_cases())
def test_step_2form_matches_split_fv_drawn(case):
    _assert_step_2form_matches_split_fv(*case)


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("signs", ["one-signed", "mixed"])
def test_split_fv_step_workspace_is_steady(scheme, signs):
    # After its first update a workspace holds the same buffers: the
    # same (role, shape) keys and bytes. The updates it serves return
    # fresh cochains, so a result shares no memory with the workspace.
    rng = np.random.default_rng(409)
    g, vel = _setup(rng, 10, 9)
    if signs == "one-signed":
        vel = StaggeredVelocity(g, np.abs(vel.flux_x), np.abs(vel.flux_y))
    fv = Cochain.from_plane(g, 2, rng.standard_normal(g.shape))
    work = {}
    layout = None
    for _ in range(4):
        fv = split_fv_step(fv, vel, 0.05, scheme, work)
        now = {key: buf.nbytes for key, buf in work.items()}
        assert layout is None or now == layout
        layout = now
        for buf in work.values():
            assert not np.shares_memory(fv.values, buf)
    assert bool(work) is (scheme is not SchemeKind.UPWIND)


# Step-level properties on the drawn flows: dt 0.05 keeps every Courant
# number at or below 0.2 (see _flows).
@settings(max_examples=30, deadline=None)
@given(_step_cases())
def test_d_commutes_with_the_step_drawn(case):
    # d(L w) = L(d w) within 1e-12 relative, measured as criterion 3 does
    # it, for a drawn 0-form and a drawn 1-form.
    scheme, vel, planes, _, _ = case
    g = vel.grid
    config = AdvectionConfig(0.05, 1, scheme)
    for w in (Cochain.from_plane(g, 0, planes[0]),
              Cochain.from_components(g, *planes)):
        dL = exterior_derivative(lie_increment(w, vel, config)).values
        Ld = lie_increment(exterior_derivative(w), vel, config).values
        scale = max(1.0, np.abs(dL).max(), np.abs(Ld).max())
        assert np.abs(dL - Ld).max() <= 1e-12 * scale, w.degree


@settings(max_examples=30, deadline=None)
@given(_step_cases())
def test_closed_1form_keeps_its_periods_drawn(case):
    # test_closed_1form_keeps_its_periods on the drawn flows, with its
    # bound 1e-13 * M: its derivation covers loops of up to 26 values and
    # 60 steps, and these loops hold at most 11 values over 5 steps. M is
    # |a| + |b| + the largest value of the run. That derivation assumes
    # relative rounding, which the drawn values can leave: a rounding
    # whose result is subnormal (a * h for a tiny a, say) errs by up to
    # 2**-1075 whatever M is. A loop's value takes fewer than 2**11
    # roundings (11 entries of 2 setup and 5 x 20 step operations, the
    # sum and the expected value), so the bound adds 2**-1064.
    scheme, vel, (f, _), a, b = case
    g = vel.grid
    h = g.h
    w0 = Cochain.from_components(g, np.roll(f, -1, axis=1) - f + a * h,
                                 np.roll(f, -1, axis=0) - f + b * h)
    states = []
    advect(w0, vel, AdvectionConfig(0.05, 5, scheme),
           observer=lambda k, w: states.append(w))
    size = abs(a) + abs(b) + max(np.abs(w.values).max() for w in states)
    for w in states:
        x_loops = w.component("x").sum(axis=1)
        y_loops = w.component("y").sum(axis=0)
        worst = max(np.abs(x_loops - a * g.nx * h).max(),
                    np.abs(y_loops - b * g.ny * h).max(),
                    np.ptp(x_loops), np.ptp(y_loops))
        assert worst <= 1e-13 * size + 2.0 ** -1064, (worst, size)


@settings(max_examples=30, deadline=None)
@given(_step_cases())
def test_2form_mass_is_conserved_drawn(case):
    # test_2form_mass_is_conserved's bound on the drawn flows
    scheme, vel, (rho, _), _, _ = case
    w0 = Cochain.from_plane(vel.grid, 2, rho)
    w = advect(w0, vel, AdvectionConfig(0.05, 5, scheme))
    m0 = math.fsum(w0.values.tolist())
    m1 = math.fsum(w.values.tolist())
    assert abs(m1 - m0) <= 1e-12 * math.fsum(np.abs(w0.values).tolist())


def _cartan_sum(omega, vel, dt, scheme):
    # The increment from the public operators, each contraction reading
    # its interfaces on its own, added into the same fresh piece as
    # lie_increment's, in the same order.
    a = contract(exterior_derivative(omega), vel, dt, scheme).cochain
    b = exterior_derivative(contract(omega, vel, dt, scheme).cochain)
    fresh, other = (b, a) if omega.degree == 0 else (a, b)
    return fresh.values + other.values


@settings(max_examples=30, deadline=None)
@given(_step_cases())
def test_one_pass_step_equals_the_public_cartan_sum(case):
    # A step reads both contractions in one _reconstruct call under one
    # workspace, which then holds d omega beside the reads. Over two
    # steps of each degree that share the workspace, the increment and
    # the new state must equal those of the public contraction path bit
    # for bit: a one-pass read that differs from it, or a read written
    # over d omega or over the other contraction's reads, shows here.
    scheme, vel, planes, _, _ = case
    g = vel.grid
    config = AdvectionConfig(0.05, 1, scheme)
    calls = []
    real = lieform.advection._reconstruct

    def counted(*args):
        calls.append(1)
        return real(*args)

    work = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lieform.advection, "_reconstruct", counted)
        for omega in (Cochain.from_plane(g, 0, planes[0]),
                      Cochain.from_components(g, *planes),
                      Cochain.from_plane(g, 2, planes[1])):
            for _ in range(2):
                want = _cartan_sum(omega, vel, config.dt, scheme)
                calls.clear()
                inc = lie_increment(omega, vel, config, work)
                assert np.array_equal(inc.values.view(np.int64),
                                      want.view(np.int64))
                assert len(calls) == 1
                new = step(omega, vel, config, work)
                assert np.array_equal(new.values.view(np.int64),
                                      (omega.values - want).view(np.int64))
                assert len(calls) == 2
                omega = new


def _flux_setup(flux, degree, seed):
    """9x8 velocity (mixed, positive or negative flux), degree-k form."""
    rng = np.random.default_rng(seed)
    if flux == "mixed":
        g, vel = _setup(rng, 9, 8)
    else:
        g = build_complex(9, 8, 0.25)
        s = 1.0 if flux == "positive" else -1.0
        vel = StaggeredVelocity(g, np.full(g.shape, s * 0.1),
                                np.full(g.shape, s * 0.06))
    values = rng.standard_normal(g.cell_count(degree))
    values[:3] = (0.0, -0.0, 5e-324)
    return vel, Cochain(g, degree, values)


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("scheme,flux", [
    pytest.param(s, f, id=str(s) if f == "mixed" else f"{f}-{s}")
    for f in ("mixed", "positive", "negative") for s in SchemeKind])
def test_operators_return_fresh_values(degree, scheme, flux):
    # The operators fill their results in place, so guard against a
    # result that aliases an input, the velocity or another result. A
    # one-signed flux reconstructs axis 1 on the transpose.
    vel, omega = _flux_setup(flux, degree, 257)
    omega.values.flags.writeable = False
    before = omega.values.tobytes()
    config = AdvectionConfig(0.05, 1, scheme)
    masks = [neg for neg in (*vel._face_negative, *vel._sum_negative)
             if neg is not None]
    assert len(masks) == (0 if flux == "positive" else 4)
    held = [omega.values, vel.flux_x, vel.flux_y, *vel._node_sums, *masks]
    outs = []
    for _ in range(2):
        outs += [exterior_derivative(omega).values,
                 contract(omega, vel, config.dt, scheme).cochain.values,
                 lie_increment(omega, vel, config).values,
                 step(omega, vel, config).values,
                 axpy(-1.0, omega, omega).values]
    for k, out in enumerate(outs):
        assert out.flags.writeable
        for other in held + outs[:k]:
            assert not np.shares_memory(out, other)
    # Under a workspace the WENO temporaries live in its buffers, and
    # none may reach a result. The one result it hands over is a
    # 1-form's 0-form, in the "form" buffer that d consumes next.
    work = {}
    worked = [contract(omega, vel, config.dt, scheme, work).cochain.values
              for _ in range(2)]
    assert worked[0].tobytes() == outs[1].tobytes()
    assert worked[1].tobytes() == outs[1].tobytes()
    form = work.get(("form", vel.grid.shape))
    assert (form is not None) == (degree == 1)
    if degree == 1:
        for out in worked:
            assert np.shares_memory(out, form)
    else:
        assert not np.shares_memory(worked[0], worked[1])
    if scheme is SchemeKind.UPWIND:
        # An upwind read takes no WENO buffer: its node terms are the
        # "form" and "tmp" planes, and its c * flux planes "tmp".
        assert {role for role, _ in work} == {0: set(), 1: {"form", "tmp"},
                                             2: {"tmp"}}[degree]
    pooled = [buf for key, buf in work.items() if key[0] != "form"]
    for out in worked:
        for other in held + outs + pooled:
            assert not np.shares_memory(out, other)
    assert omega.values.tobytes() == before


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("flux", ["mixed", "positive"])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_advect_workspace_never_escapes(scheme, flux, degree):
    # advect reuses one workspace across its steps; every state it
    # hands out must still be a buffer of its own, equal to the chain
    # of plain steps, which make every buffer fresh.
    vel, omega = _flux_setup(flux, degree, 263)
    config = AdvectionConfig(0.05, 5, scheme)
    kept = []
    advect(omega, vel, config, lambda k, state: kept.append(state))
    chain = [omega]
    for _ in range(config.steps):
        chain.append(step(chain[-1], vel, config))
    assert len(kept) == len(chain)
    for k, (state, want) in enumerate(zip(kept, chain)):
        assert np.array_equal(state.values.view(np.int64),
                              want.values.view(np.int64))
        for other in kept[:k]:
            assert not np.shares_memory(state.values, other.values)


@pytest.mark.parametrize("scheme", [SchemeKind.UPWIND, SchemeKind.WENO5])
def test_concurrent_advects_give_sequential_bits(scheme):
    # Each advect call owns its workspace, so two calls running at once
    # on one velocity cannot write into each other's buffers.
    rng = np.random.default_rng(269)
    g, vel = _setup(rng, 40, 36, h=1.0 / 40)
    omega = Cochain(g, 1, rng.standard_normal(g.cell_count(1)))
    config = AdvectionConfig(0.01, 150, scheme)
    want = advect(omega, vel, config).values
    barrier = threading.Barrier(2)
    results = [None, None]

    def run(slot):
        barrier.wait()
        results[slot] = advect(omega, vel, config).values

    threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
    # Switch threads often, so the two calls interleave within steps.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_advect_observer_sequence():
    rng = np.random.default_rng(229)
    g, vel = _setup(rng)
    w = Cochain.from_plane(g, 2, rng.standard_normal(g.shape))
    seen = []
    final = advect(w, vel, AdvectionConfig(0.05, 4),
                   observer=lambda k, state: seen.append((k, state)))
    assert [k for k, _ in seen] == [0, 1, 2, 3, 4]
    assert seen[0][1] is w
    assert seen[-1][1] is final
    assert advect(w, vel, AdvectionConfig(0.05, 0)) is w


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_zero_velocity_is_exact_invariance(scheme):
    rng = np.random.default_rng(233)
    g = build_complex(8, 8, 0.25)
    still = StaggeredVelocity(g, np.zeros(g.shape), np.zeros(g.shape))
    for degree in (0, 1, 2):
        w = Cochain(g, degree, rng.standard_normal(g.cell_count(degree)))
        out = advect(w, still, AdvectionConfig(0.05, 10, scheme))
        assert np.array_equal(out.values, w.values), degree


def _transport_entries(w, vel, config, seen):
    """The four entries that check a run, each called on the same run."""
    return (
        lambda: advect(w, vel, config, observer=lambda k, s: seen.append(k)),
        lambda: step(w, vel, config),
        lambda: lie_increment(w, vel, config),
        lambda: contract(w, vel, config.dt, config.scheme),
    )


@pytest.mark.parametrize("scheme,shape,extent", [
    (SchemeKind.WENO7, (7, 12), 7),
    (SchemeKind.WENO7, (12, 7), 7),
    (SchemeKind.WENO5, (9, 5), 5),
])
def test_advect_checks_stencil_extent_first(scheme, shape, extent):
    # every entry checks the extent before the grid match and the Courant
    # number: with a velocity on this grid or another, at Courant number
    # 1 (past the configured limit) and 2 (past contract's limit 1), each
    # raises the extent error, as it does alone
    g = build_complex(*shape, 0.25)
    config = AdvectionConfig(0.25, 3, scheme)
    seen = []
    for vg, nu in product((g, build_complex(16, 16, 0.25)), (0.04, 1.0, 2.0)):
        flux = np.full(vg.shape, nu / 4.0)
        vel = StaggeredVelocity(vg, flux, flux)
        assert max_courant(vel, config.dt) == nu
        for entry in _transport_entries(Cochain.zeros(g, 1), vel, config,
                                        seen):
            with pytest.raises(ValueError,
                               match=rf"^grid extent {extent} too small for "
                                     rf"{scheme.value} \(needs at least "
                                     rf"{scheme.stencil_width + 1} cells\)$"):
                entry()
    assert seen == []


def test_advect_checks_the_run_before_state_0():
    # the grid match and the Courant number are checked with the extent,
    # before the observer sees anything, and read as they do from step 1
    g = build_complex(9, 8, 0.25)
    vel = StaggeredVelocity(g, np.full(g.shape, 0.25), np.zeros(g.shape))
    w = Cochain.zeros(g, 1)
    seen = []
    with pytest.raises(CourantError,
                       match=r"^step 1 \(weno7, 9x8\): courant number 1 "
                             r"exceeds the configured limit 0\.5$"):
        advect(w, vel, AdvectionConfig(0.25, 3, "weno7"),
               observer=lambda k, state: seen.append(k))
    with pytest.raises(CourantError, match=r"^step 1 \(upwind, 9x8\): "):
        advect(w, vel, AdvectionConfig(0.25, 0, courant_limit=0.9),
               observer=lambda k, state: seen.append(k))
    # step and lie_increment raise the same text, without the prefix
    for entry in (step, lie_increment):
        with pytest.raises(CourantError,
                           match=r"^courant number 1 exceeds the configured "
                                 r"limit 0\.5$"):
            entry(w, vel, AdvectionConfig(0.25, 3, "weno7"))
    # a form on another grid is checked before the Courant number, at
    # Courant number 1 and 2, by every entry
    other = build_complex(8, 9, 0.25)
    fast = StaggeredVelocity(g, np.full(g.shape, 0.5), np.zeros(g.shape))
    for v in (vel, fast):
        for scheme in SchemeKind:
            for entry in _transport_entries(Cochain.zeros(other, 1), v,
                                            AdvectionConfig(0.25, 3, scheme),
                                            seen):
                with pytest.raises(ValueError, match="^velocity and form "
                                   "live on different grids$"):
                    entry()
    assert seen == []
    # at the limit the run goes ahead
    advect(w, vel, AdvectionConfig(0.25, 1, courant_limit=1.0),
           observer=lambda k, state: seen.append(k))
    assert seen == [0, 1]


def test_every_public_entry_resolves_the_scheme_one_way():
    g = build_complex(8, 8, 0.25)
    rng = np.random.default_rng(257)
    vel = StaggeredVelocity(g, rng.uniform(-0.01, 0.01, g.shape),
                            rng.uniform(-0.01, 0.01, g.shape))
    w = Cochain.from_components(g, rng.standard_normal(g.shape),
                                rng.standard_normal(g.shape))
    u, signs = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    window = Stencil1D((1.0, 2.0, 4.0, 3.0, 1.0), 1)
    entries = (
        lambda s: AdvectionConfig(0.01, 1, s),
        lambda s: contract(w, vel, 0.01, s),
        lambda s: interface_point_values(u, 0, signs, s),
        lambda s: reconstruct_at_interface(window, s),
        lambda s: extrusion_integral(window, s, 0.5, 0.01, 1.0),
        lambda s: extrusion_integral(window, s, 0.0, 0.01, 1.0),
    )
    for entry in entries:
        for bad in (None, 5, "weno9", "WENO5", ["weno5"]):
            with pytest.raises(ValueError, match=r"^unknown scheme .* "
                               r"\(options: upwind, weno5, weno7\)$"):
                entry(bad)
    # a name and its member give the same bits, and a member passes as it is
    for scheme in SchemeKind:
        assert SchemeKind.from_name(scheme) is scheme
        assert AdvectionConfig(0.01, 1, scheme.value).scheme is scheme
        assert np.array_equal(
            contract(w, vel, 0.01, scheme.value).cochain.values,
            contract(w, vel, 0.01, scheme).cochain.values)
        assert np.array_equal(
            interface_point_values(u, 1, signs, scheme.value),
            interface_point_values(u, 1, signs, scheme))
    five = SchemeKind.WENO5
    assert (reconstruct_at_interface(window, "weno5")
            == reconstruct_at_interface(window, five))
    assert (extrusion_integral(window, "weno5", 0.5, 0.01, 1.0)
            == extrusion_integral(window, five, 0.5, 0.01, 1.0))


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("flow", ["vortex", "rough"])
@pytest.mark.parametrize("nx,ny", [(24, 20), (18, 26)])
def test_closed_1form_keeps_its_periods(scheme, flow, nx, ny):
    # omega0 = df + a dx + b dy is closed, and L omega = i(d omega) +
    # d(i omega) reduces to the exact d(i omega); so the sum of the
    # x-edges of any row (an x-loop of the torus) stays a * nx * h, and
    # that of the y-edges of any column (a y-loop) stays b * ny * h.
    # The bound: a loop sum adds n <= 26 values of size at most
    # M = |a| + |b| + max|omega0| (the run stays below M; asserted), so one
    # evaluation rounds by up to n * eps * M ~ 6e-15 * M. Each step adds
    # an increment whose loop sums telescope to zero, up to the same
    # rounding, and k = 60 steps of such errors, adding like a random
    # walk, reach sqrt(k) * n * eps * M ~ 4.5e-14 * M. The bound is twice
    # that; the drift measured over 300 steps on 32^2 was 1.2e-15.
    rng = np.random.default_rng(263)
    h = 1.0 / max(nx, ny)
    g = build_complex(nx, ny, h)
    if flow == "vortex":
        field = rudman_vortex()
    else:
        # node psi drawn at random: every flux changes sign at grid scale
        psi = rng.standard_normal(g.shape)
        field = StreamFunctionVelocity(lambda X, Y: psi)
    vel = discretize_velocity(field, g)
    target = COURANT_PC if scheme is SchemeKind.UPWIND else COURANT_WENO
    dt = target / max_courant(vel, 1.0)
    a, b = 0.7, -0.3
    f = rng.standard_normal(g.shape)
    w0 = Cochain.from_components(g, np.roll(f, -1, axis=1) - f + a * h,
                                 np.roll(f, -1, axis=0) - f + b * h)
    size = abs(a) + abs(b) + np.abs(w0.values).max()
    bound = 1e-13 * size
    worst = []

    def periods(k, w):
        x_loops = w.component("x").sum(axis=1)
        y_loops = w.component("y").sum(axis=0)
        assert np.abs(w.values).max() <= size
        worst.append(max(np.abs(x_loops - a * nx * h).max(),
                         np.abs(y_loops - b * ny * h).max(),
                         np.ptp(x_loops), np.ptp(y_loops)))

    advect(w0, vel, AdvectionConfig(dt, 60, scheme), observer=periods)
    assert len(worst) == 61
    assert max(worst) <= bound, (max(worst), bound)


def test_non_finite_state_is_flagged():
    rng = np.random.default_rng(239)
    g, vel = _setup(rng)
    bad = np.ones(g.shape)
    bad[2, 2] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteValueError):
            step(Cochain.from_plane(g, 2, bad), vel, AdvectionConfig(0.05, 1))


@pytest.mark.parametrize("scheme", [SchemeKind.UPWIND, SchemeKind.WENO5,
                                    SchemeKind.WENO7])
def test_2form_mass_is_conserved(scheme):
    rng = np.random.default_rng(241)
    g, vel = _setup(rng, 24, 24, h=1.0 / 24.0)
    w0 = Cochain.from_plane(g, 2, rng.standard_normal(g.shape))
    w = advect(w0, vel, AdvectionConfig(0.3 / 24.0, 50, scheme))
    m0 = math.fsum(w0.values.tolist())
    m1 = math.fsum(w.values.tolist())
    assert abs(m1 - m0) <= 1e-12 * math.fsum(np.abs(w0.values).tolist())


def test_advect_errors_name_the_step():
    # Upwind at Courant number 1 on both axes amplifies every step, so a
    # state near the top of the float range overflows a few steps in.
    g = build_complex(9, 8, 0.25)
    vel = StaggeredVelocity(g, np.full(g.shape, 0.25), np.full(g.shape, 0.25))
    rng = np.random.default_rng(251)
    w0 = Cochain.from_plane(g, 2, rng.standard_normal(g.shape) * 1e300)
    config = AdvectionConfig(0.25, 100, courant_limit=1.0)
    state, first_bad = w0, None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, config.steps + 1):
            try:
                state = step(state, vel, config)
            except NonFiniteValueError:
                first_bad = k
                break
        assert first_bad is not None and first_bad > 1
        with pytest.raises(NonFiniteValueError,
                           match=rf"^step {first_bad} \(upwind, 9x8\): "
                                 r"non-finite value at CellRef"):
            advect(w0, vel, config)
    with pytest.raises(CourantError,
                       match=r"^step 1 \(weno5, 9x8\): courant number 1 "
                             r"exceeds the configured limit 0\.5"):
        advect(w0, vel, AdvectionConfig(0.25, 3, SchemeKind.WENO5))
