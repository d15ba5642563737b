"""Deterministic workload inputs, built through lieform's public API.

This module imports only the standard library. The set-up probe imports
it before starting its clock and then hands in the freshly imported
lieform package, so the probe times lieform alone.
"""

from __future__ import annotations

import math

# The seed moves the rectangle support of the API workloads by whole
# cells: (seed % 4, (seed // 4) % 4) cells along x and y. Sixteen shifts
# keep the table of expected results small.
N_SHIFTS = 4

API_WORKLOADS = {
    # Mixed-sign flux, so both upwind directions are reconstructed.
    "vortex-weno7": dict(n=48, velocity="rudman", scheme="weno7",
                         courant=0.05, steps=100, reverse=True),
    # Constant (1, 1) flux over one full period: the trajectory closes
    # and reconstruction is never called.
    "translate-upwind": dict(n=128, velocity="constant", scheme="upwind",
                             courant=0.45, steps=None, reverse=False),
}

# Argument vectors for lieform.cli.main; run.py appends --out. These
# workloads take no input from the seed.
CLI_WORKLOADS = {
    "equivalence-weno5": ["run", "volume-2form-equivalence", "--res", "64",
                          "--scheme", "weno5", "--steps", "250"],
    "vortex-dumps": ["run", "rudman-vortex", "--res", "128",
                     "--scheme", "upwind", "--steps", "110"],
}

WORKLOADS = tuple(API_WORKLOADS) + tuple(CLI_WORKLOADS)


def rect_shift(seed: int) -> tuple[int, int]:
    """Whole-cell (x, y) shift of the rectangle support for a seed."""
    return seed % N_SHIFTS, (seed // N_SHIFTS) % N_SHIFTS


def build_api_inputs(lf, name: str, shift: tuple[int, int], tick=None) -> dict:
    """Grid, velocity, initial 1-form and config of one API workload.

    `tick(label)` is called after each public build call, so a caller can
    time them one by one.
    """
    spec = API_WORKLOADS[name]
    mark = tick or (lambda label: None)
    n = spec["n"]
    grid = lf.build_complex(n, n, 1.0 / n)
    mark("grid.build_complex")
    field = (lf.rudman_vortex() if spec["velocity"] == "rudman"
             else lf.ConstantVelocity(1.0, 1.0))
    vel = lf.discretize_velocity(field, grid)
    mark("velocity.discretize_velocity")
    sx, sy = shift
    h = grid.h
    form = lf.RectangleForm(1, 0.3 + sx * h, 0.7 + sx * h, 0.3 + sy * h,
                            0.7 + sy * h, dx_coeff=0.0, dy_coeff=1.0)
    omega0 = lf.discretize(form, grid)
    mark("forms.discretize")
    if spec["steps"] is None:
        # One period of the unit-speed field, with dt chosen so that
        # steps * dt is exactly one domain length.
        steps = math.ceil(n / spec["courant"])
        dt = 1.0 / steps
    else:
        steps = spec["steps"]
        dt = spec["courant"] / lf.max_courant(vel, 1.0)
    config = lf.AdvectionConfig(dt=dt, steps=steps, scheme=spec["scheme"])
    back = (lf.StaggeredVelocity(grid, -vel.flux_x, -vel.flux_y)
            if spec["reverse"] else None)
    return dict(grid=grid, vel=vel, back=back, omega0=omega0, config=config)
