"""Staggered flux fields: construction, divergence, courant numbers."""

import dataclasses
import re

import numpy as np
import pytest

from lieform.advection import AdvectionConfig, step
from lieform.contraction import contract
from lieform.forms import Cochain
from lieform.grid import build_complex
from lieform.reconstruct import SchemeKind
from lieform.velocity import (ConstantVelocity, StaggeredVelocity,
                              StreamFunctionVelocity, discretize_velocity,
                              max_courant, rudman_vortex)


def test_constant_velocity_fluxes():
    g = build_complex(8, 8, 0.25)
    vel = discretize_velocity(ConstantVelocity(1.5, -0.75), g)
    assert np.all(vel.flux_x == 1.5 * 0.25)
    assert np.all(vel.flux_y == -0.75 * 0.25)
    assert max_courant(vel, g.h) == 1.5     # peak flux / h
    assert np.all(vel.divergence() == 0.0)


def test_staggered_passthrough_checks_grid():
    g = build_complex(8, 8, 0.125)
    vel = StaggeredVelocity(g, np.ones(g.shape), np.ones(g.shape))
    assert discretize_velocity(vel, g) is vel
    other = build_complex(8, 8, 0.25)
    with pytest.raises(ValueError):
        discretize_velocity(vel, other)


def test_staggered_validation():
    g = build_complex(8, 8, 0.125)
    with pytest.raises(ValueError):
        StaggeredVelocity(g, np.ones((8, 7)), np.ones((8, 8)))
    bad = np.ones((8, 8))
    bad[3, 3] = np.nan
    with pytest.raises(ValueError):
        StaggeredVelocity(g, np.ones((8, 8)), bad)
    # the first non-finite entry is named by the edge it crosses:
    # flux_x[j, i] crosses y-edge (i, j), flux_y[j, i] x-edge (i, j)
    bad = np.ones((8, 8))
    bad[2, 5] = -np.inf
    bad[6, 1] = np.nan
    for fx, fy, want in (
            (bad, np.ones((8, 8)),
             "flux_x contains non-finite entries, first -inf at "
             "CellRef(dim=1, i=5, j=2, axis='y')"),
            (np.ones((8, 8)), bad,
             "flux_y contains non-finite entries, first -inf at "
             "CellRef(dim=1, i=5, j=2, axis='x')")):
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            StaggeredVelocity(g, fx, fy)


def test_stream_function_frozen_fluxes():
    # psi depending on y only drives a pure x flow
    g = build_complex(4, 4, 0.25)
    psi = StreamFunctionVelocity(lambda x, y: np.cos(2.0 * np.pi * y) / (2.0 * np.pi))
    vel = discretize_velocity(psi, g)
    assert vel.flux_x[0, 0] == 0.15915494309189535
    assert np.all(vel.flux_y == 0.0)


def test_stream_function_divergence_free():
    # integer-valued psi: the telescoping cancels exactly
    g = build_complex(5, 4, 1.0)
    vel = discretize_velocity(
        StreamFunctionVelocity(lambda x, y: 3.0 * x * y + x), g)
    assert np.all(vel.divergence() == 0.0)
    g48 = build_complex(48, 48, 1.0 / 48)
    smooth = discretize_velocity(rudman_vortex(), g48)
    assert np.max(np.abs(smooth.divergence())) < 1e-17


def test_rudman_vortex_speed():
    g = build_complex(48, 48, 1.0 / 48)
    vel = discretize_velocity(rudman_vortex(), g)
    assert 0.95 < max_courant(vel, g.h) <= 1.0


def test_node_sums_frozen():
    g = build_complex(6, 5, 0.2)
    fx = np.zeros(g.shape)
    fx[2, 4] = 2.0
    sx, sy = StaggeredVelocity(g, fx, np.zeros(g.shape))._node_sums
    assert sx[2, 4] == 2.0 and sx[3, 4] == 2.0
    assert np.count_nonzero(sx) == 2
    assert np.all(sy == 0.0)


def test_max_courant_frozen():
    g = build_complex(48, 48, 1.0 / 48)
    vel = discretize_velocity(ConstantVelocity(1.0, 1.0), g)
    assert max_courant(vel, 1e-3) == 0.048
    assert max_courant(vel, 0.0) == 0.0


def test_fluxes_are_read_only_copies():
    g = build_complex(6, 5, 0.2)
    fx = np.linspace(-0.1, 0.1, g.size).reshape(g.shape)
    fy = np.full(g.shape, 0.05)
    vel = StaggeredVelocity(g, fx, fy)
    with pytest.raises(ValueError):
        vel.flux_x[0, 0] = 1.0
    with pytest.raises(ValueError):
        vel.flux_y[...] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        vel.flux_x = np.zeros(g.shape)
    sx, sy = vel._node_sums
    assert not sx.flags.writeable and not sy.flags.writeable
    assert vel._node_sums[0] is sx
    # the caller keeps a writable array of its own
    fx[0, 0] = 1.0
    assert vel.flux_x[0, 0] == -0.1
    assert fx.flags.writeable


def test_source_mutation_leaves_velocity_unchanged():
    g = build_complex(8, 8, 0.25)
    rng = np.random.default_rng(17)
    fx = rng.uniform(-0.1, 0.1, g.shape)
    fy = rng.uniform(-0.1, 0.1, g.shape)
    want = StaggeredVelocity(g, fx.copy(), fy.copy())
    w = Cochain.from_components(g, rng.standard_normal(g.shape),
                                rng.standard_normal(g.shape))
    want_inc = contract(w, want, 0.05).cochain.values
    vel = StaggeredVelocity(g, fx, fy)
    # one derived datum cached before the writes, the rest after them
    assert max_courant(vel, 0.05) == max_courant(want, 0.05)
    fx *= -4.0
    fy[2, 3] = 9.0
    assert np.array_equal(vel.flux_x, want.flux_x)
    assert np.array_equal(vel.flux_y, want.flux_y)
    assert max_courant(vel, 0.05) == max_courant(want, 0.05)
    assert np.array_equal(contract(w, vel, 0.05).cochain.values, want_inc)


def test_reused_velocity_matches_fresh_objects():
    # A velocity carries its derived data across calls; it must depend
    # on the fluxes alone, never on the dt, scheme or form it first saw.
    g = build_complex(9, 8, 0.25)
    rng = np.random.default_rng(19)
    fx = rng.uniform(-1.0, 1.0, g.shape) * 0.125
    fy = rng.uniform(-1.0, 1.0, g.shape) * 0.125
    forms = [Cochain.from_plane(g, 0, rng.standard_normal(g.shape)),
             Cochain.from_components(g, rng.standard_normal(g.shape),
                                     rng.standard_normal(g.shape)),
             Cochain.from_plane(g, 2, rng.standard_normal(g.shape))]
    shared = StaggeredVelocity(g, fx, fy)
    for dt in (0.05, 0.0125):
        for scheme in SchemeKind:
            config = AdvectionConfig(dt, 1, scheme)
            for omega in forms:
                got = contract(omega, shared, dt, scheme).cochain.values
                want = contract(omega, StaggeredVelocity(g, fx, fy), dt,
                                scheme).cochain.values
                assert got.tobytes() == want.tobytes()
                got = step(omega, shared, config).values
                want = step(omega, StaggeredVelocity(g, fx, fy), config).values
                assert got.tobytes() == want.tobytes()
            assert (max_courant(shared, dt)
                    == max_courant(StaggeredVelocity(g, fx, fy), dt))


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_upwind_steps_cache_no_index_plane(degree):
    # Upwind reads are shifts overwritten through bool sign masks, so a
    # velocity caches no integer plane, whichever degree it advected.
    g = build_complex(9, 8, 0.25)
    rng = np.random.default_rng(23)
    vel = StaggeredVelocity(g, rng.uniform(-1.0, 1.0, g.shape) * 0.125,
                            rng.uniform(-1.0, 1.0, g.shape) * 0.125)
    omega = Cochain(g, degree, rng.standard_normal(g.cell_count(degree)))
    step(omega, vel, AdvectionConfig(0.05, 1, SchemeKind.UPWIND))
    cached = []
    for value in vars(vel).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                cached.append(item)
    assert any(plane.dtype == np.bool_ for plane in cached)
    for plane in cached:
        assert not np.issubdtype(plane.dtype, np.integer), plane.dtype
