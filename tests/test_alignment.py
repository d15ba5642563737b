"""Buffer placement: every float buffer of a step starts on a 64-byte
line, and the bits of a run do not depend on the SIMD loops numpy picks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lieform.advection import AdvectionConfig, advect, step
from lieform.contraction import contract
from lieform.forms import Cochain, scratch
from lieform.grid import build_complex
from lieform.reconstruct import SchemeKind, interface_point_values
from lieform.velocity import (ConstantVelocity, discretize_velocity,
                              max_courant, rudman_vortex)

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:     # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

LINE = 64


def _unaligned(arrays):
    # A zero-length array (a contraction's empty degree -1) holds no data.
    return [k for k, a in enumerate(arrays) if a.size and a.ctypes.data % LINE]


def _velocities():
    # 16 x 8 cells: every plane is a whole number of lines, so each half
    # of a 1-form and each plane of a stacked buffer starts on one too.
    # The vortex's flux has mixed signs, the constant one none.
    g = build_complex(16, 8, 1.0 / 16)
    return g, (discretize_velocity(rudman_vortex(), g),
               discretize_velocity(ConstantVelocity(1.0, 0.5), g))


def _courant_dt(vel, nu=0.4):
    # The vortex's stream function is periodic on the unit square only,
    # so on a grid that is not square its flux jumps across the seam.
    return nu / max_courant(vel, 1.0)


def _state(g, degree, seed):
    omega = Cochain.zeros(g, degree)
    omega.values[:] = np.random.default_rng(seed).standard_normal(
        omega.values.size)
    return omega


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("scheme", [SchemeKind.UPWIND, SchemeKind.WENO7])
def test_every_step_buffer_starts_on_a_line(scheme, degree):
    g, vels = _velocities()
    for vel in vels:
        config = AdvectionConfig(_courant_dt(vel), 4, scheme)
        planes = [vel.flux_x, vel.flux_y, *vel._node_sums]
        assert _unaligned(planes) == []
        omega = _state(g, degree, 401 + degree)
        seen = []
        advect(omega, vel, config, lambda k, state: seen.append(state.values))
        assert len(seen) == config.steps + 1
        assert _unaligned(seen) == []
        # Every buffer the step's workspace hands out, and each fresh
        # result of contract.
        work = {}
        results = [step(omega, vel, config, work).values]
        for form in (omega, Cochain.empty(g, 3)):
            results.append(contract(form, vel, config.dt,
                                    scheme).cochain.values)
        assert work
        assert _unaligned(list(work.values())) == []
        assert _unaligned(results) == []


def test_fresh_buffers_start_on_a_line():
    g, (vortex, _) = _velocities()
    shapes = [(1,), (3,), g.shape, (2, *g.shape), (7, 2, 9, 8), (128,)]
    assert _unaligned([scratch(None, "tmp", s) for s in shapes]) == []
    u = np.random.default_rng(409).standard_normal(g.shape)
    outs = [interface_point_values(u, axis, signs, scheme)
            for scheme in SchemeKind
            for axis, signs in ((0, vortex.flux_y), (1, vortex.flux_x),
                                (0, np.ones(g.shape)), (1, np.ones(g.shape)))]
    assert _unaligned(outs) == []


def _vortex_runs():
    """A seeded 24 x 16 1-form, 12 steps in the vortex, per scheme."""
    g = build_complex(24, 16, 1.0 / 24)
    vel = discretize_velocity(rudman_vortex(), g)
    omega = Cochain(g, 1, np.random.default_rng(419).standard_normal(
        g.cell_count(1)))
    return {scheme.value: advect(omega, vel, AdvectionConfig(
                _courant_dt(vel), 12, scheme)).values.view(np.int64)
            for scheme in (SchemeKind.UPWIND, SchemeKind.WENO7)}


# Run in a process whose numpy may not use the listed SIMD features: it
# prints each feature that is still on, then each run's bits.
_NARROW_PROBE = """
import sys
import test_alignment as t
feats = t._umath.__cpu_features__
print(" ".join(f for f in sys.argv[1:] if feats.get(f)))
for name, bits in t._vortex_runs().items():
    print(name, bits.tobytes().hex())
"""


def test_bits_do_not_depend_on_simd_width():
    # The AVX2 and AVX-512 targets numpy dispatches to at run time (on
    # numpy 2.4: X86_V3, X86_V4, AVX512_ICL and AVX512_SPR); switching
    # them off leaves its narrower loops, which must give the same bits.
    narrow = [f for f in _umath.__cpu_dispatch__
              if f not in _umath.__cpu_baseline__
              and (f.startswith("AVX") or f in ("X86_V3", "X86_V4"))]
    if not narrow:
        pytest.skip("numpy dispatches to no AVX2 or AVX-512 loop here")
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(here.parent / "src"), str(here),
                    env.get("PYTHONPATH")) if p)
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(narrow)
    proc = subprocess.run([sys.executable, "-c", _NARROW_PROBE, *narrow],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    still_on, *lines = proc.stdout.splitlines()
    assert still_on == ""
    got = dict(line.split() for line in lines)
    want = _vortex_runs()
    assert sorted(got) == sorted(want)
    for name, bits in want.items():
        assert np.array_equal(
            np.frombuffer(bytes.fromhex(got[name]), dtype=np.int64), bits), name
