"""Transport steps assembled from derivative + contraction."""

import math
import sys
import threading

import numpy as np
import pytest

import reference
from lieform.advection import AdvectionConfig, advect, lie_increment, step
from lieform.contraction import contract
from lieform.derivative import exterior_derivative
from lieform.forms import Cochain, NonFiniteValueError, axpy
from lieform.grid import build_complex
from lieform.reconstruct import CourantError, SchemeKind
from lieform.scenarios import split_fv_step
from lieform.velocity import StaggeredVelocity


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
    with pytest.raises(ValueError):
        AdvectionConfig(0.1, 5, courant_limit=0.0)
    with pytest.raises(ValueError):
        AdvectionConfig(0.1, 5, courant_limit=1.5)


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


@pytest.mark.parametrize("scheme", [SchemeKind.UPWIND, SchemeKind.WENO7])
def test_step_2form_matches_split_fv(scheme):
    rng = np.random.default_rng(227)
    g, vel = _setup(rng, 9, 8)
    w = Cochain.from_plane(g, 2, rng.standard_normal(g.shape))
    dt = 0.05
    config = AdvectionConfig(dt, 1, scheme)
    fv = w
    for _ in range(5):
        w = step(w, vel, config)
        fv = split_fv_step(fv, vel, dt, scheme)
        assert np.array_equal(w.plane(), fv.plane())


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
    indices = [read for read in (*vel._face_upwind, *vel._node_upwind)
               if isinstance(read, np.ndarray)]
    held = [omega.values, vel.flux_x, vel.flux_y, *vel._node_sums,
            *vel._node_fluxes, *indices]
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


@pytest.mark.parametrize("scheme", [SchemeKind.UPWIND, SchemeKind.WENO5])
def test_zero_velocity_is_exact_invariance(scheme):
    rng = np.random.default_rng(233)
    g = build_complex(8, 8, 0.25)
    still = StaggeredVelocity(g, np.zeros(g.shape), np.zeros(g.shape))
    w = Cochain.from_components(g, rng.standard_normal(g.shape),
                                rng.standard_normal(g.shape))
    out = advect(w, still, AdvectionConfig(0.05, 10, scheme))
    assert np.array_equal(out.values, w.values)


@pytest.mark.parametrize("scheme,shape,extent", [
    (SchemeKind.WENO7, (7, 12), 7),
    (SchemeKind.WENO7, (12, 7), 7),
    (SchemeKind.WENO5, (9, 5), 5),
])
def test_advect_checks_stencil_extent_first(scheme, shape, extent):
    g = build_complex(*shape, 0.25)
    vel = StaggeredVelocity(g, np.full(g.shape, 0.01), np.full(g.shape, 0.01))
    seen = []
    with pytest.raises(ValueError,
                       match=rf"^grid extent {extent} too small for "
                             rf"{scheme.value} \(needs at least "
                             rf"{scheme.stencil_width + 1} cells\)$"):
        advect(Cochain.zeros(g, 1), vel, AdvectionConfig(0.01, 3, scheme),
               observer=lambda k, w: seen.append(k))
    assert seen == []


def test_non_finite_state_is_flagged():
    rng = np.random.default_rng(239)
    g, vel = _setup(rng)
    bad = np.ones(g.shape)
    bad[2, 2] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteValueError):
            step(Cochain.from_plane(g, 2, bad), vel, AdvectionConfig(0.05, 1))


@pytest.mark.parametrize("scheme", [SchemeKind.UPWIND, SchemeKind.WENO7])
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
