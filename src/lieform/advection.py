"""Explicit transport of discrete forms along a staggered flux field.

Each step subtracts one assembled increment:

    increment = contract(d omega) + d(contract(omega))
    omega_new = omega - increment

The two pieces are added before the subtraction, so the increment is
available to callers as a single cochain; the update omega - increment
is written by one subtraction into the increment's buffer. That is the
axpy (-1) * increment + omega bit for bit, since IEEE arithmetic
defines a - b as a + (-b).

Each advect call makes one workspace, a dict, and owns it: step passes
it down through lie_increment to exterior_derivative and contract, and
forms.scratch hands out its buffers, one per (role, shape). Only that
call uses it, one operator at a time, so two advect calls (in one
thread or in two) never share a buffer; the rule for thread safety is
that one advect call owns its workspace, and a caller that passes a
workspace to step or contract itself must not share it between
threads. It holds the buffers that die within a step: d's result and
its shifted plane; the upwind contraction's 0-form and its c * flux
and second-term planes; and the WENO contraction's averaged planes,
wrapped copies, windows and kernel temporaries (see reconstruct.py). A
1-form upwind step needs four planes of it. Nothing that step returns
lives in it. Called without a workspace, every operator returns fresh
buffers.

Of the two pieces one is always fresh: for a 0-form the second, the
zero form d makes of the empty contraction; otherwise the first. The
sum goes into it, and step writes the update into the increment in
place. So a step of a 0- or 1-form allocates one float buffer, the new
state, with either scheme; a 2-form step also allocates contraction's
1-form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .contraction import contract
from .derivative import exterior_derivative
from .forms import Cochain, NonFiniteValueError, _check_finite
# Unused here, but perfbench wraps lieform.advection.axpy.
from .forms import axpy  # noqa: F401
from .reconstruct import CourantError, SchemeKind, _require_extent
from .velocity import StaggeredVelocity, max_courant


@dataclass(frozen=True)
class AdvectionConfig:
    dt: float
    steps: int
    scheme: SchemeKind = SchemeKind.UPWIND
    courant_limit: float = 0.5

    def __post_init__(self) -> None:
        if isinstance(self.scheme, str):
            object.__setattr__(self, "scheme", SchemeKind.from_name(self.scheme))
        if not (self.dt > 0.0 and self.dt < float("inf")):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (isinstance(self.steps, int) and self.steps >= 0):
            raise ValueError(f"steps must be a non-negative integer, got {self.steps}")
        if not 0.0 < self.courant_limit <= 1.0:
            raise ValueError(
                f"courant_limit must lie in (0, 1], got {self.courant_limit}")


def lie_increment(omega: Cochain, vel: StaggeredVelocity,
                  config: AdvectionConfig, work: dict | None = None) -> Cochain:
    """Single-step transport increment (Cartan assembly), any degree.

    The increment is a fresh buffer, also when a workspace is passed.
    """
    nu = max_courant(vel, config.dt)
    if nu > config.courant_limit:
        raise CourantError(
            f"courant number {nu:.6g} exceeds the configured "
            f"limit {config.courant_limit:g}")
    a = contract(exterior_derivative(omega, work), vel, config.dt,
                 config.scheme, work).cochain
    b = exterior_derivative(
        contract(omega, vel, config.dt, config.scheme, work).cochain, work)
    # The sum goes into the fresh piece; addition commutes, so the bits
    # do not depend on which piece that is.
    fresh, other = (b, a) if omega.degree == 0 else (a, b)
    values = fresh.values
    values += other.values
    return Cochain(omega.grid, omega.degree, values)


def step(omega: Cochain, vel: StaggeredVelocity, config: AdvectionConfig,
         work: dict | None = None) -> Cochain:
    out = lie_increment(omega, vel, config, work)
    values = out.values
    np.subtract(omega.values, values, out=values)
    _check_finite(values, out.grid, out.degree, "after advection step")
    return out


def advect(omega: Cochain, vel: StaggeredVelocity, config: AdvectionConfig,
           observer: Optional[Callable[[int, Cochain], None]] = None) -> Cochain:
    """Run config.steps updates; the observer sees state 0 first.

    A grid too small for the scheme's stencil raises ValueError before
    the observer is called. A CourantError or NonFiniteValueError raised
    by step k is re-raised as the same type, its message prefixed with
    the step, scheme and grid size: "step k (scheme, NXxNY): ...". Each
    step calls the module-level step, so a replaced one is the one that
    runs. This is the library's only step loop; the lockstep equivalence
    scenario runs through it with an observer. The call's workspace is
    made here and passed to every step; the observer sees only fresh
    states.
    """
    grid = omega.grid
    _require_extent(min(grid.nx, grid.ny), config.scheme)
    state = omega
    work: dict = {}
    if observer is not None:
        observer(0, state)
    for k in range(1, config.steps + 1):
        try:
            state = step(state, vel, config, work)
        except (CourantError, NonFiniteValueError) as err:
            raise type(err)(f"step {k} ({config.scheme.value}, "
                            f"{grid.nx}x{grid.ny}): {err}") from err
        if observer is not None:
            observer(k, state)
    return state
