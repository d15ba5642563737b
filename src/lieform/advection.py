"""Explicit transport of discrete forms along a staggered flux field.

Each step subtracts one assembled increment:

    increment = contract(d omega) + d(contract(omega))
    omega_new = omega - increment

The two pieces are added before the subtraction, so the increment is
available to callers as a single cochain and the update is an axpy.
Every operator returns a fresh flat buffer that it filled in place, so
the sum is written into the first piece and the axpy makes the step's
only new state buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .contraction import contract
from .derivative import exterior_derivative
from .forms import Cochain, NonFiniteValueError, _check_finite, axpy
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
                  config: AdvectionConfig) -> Cochain:
    """Single-step transport increment (Cartan assembly), any degree."""
    nu = max_courant(vel, config.dt)
    if nu > config.courant_limit:
        raise CourantError(
            f"courant number {nu:.6g} exceeds the configured "
            f"limit {config.courant_limit:g}")
    a = contract(exterior_derivative(omega), vel, config.dt, config.scheme).cochain
    b = exterior_derivative(contract(omega, vel, config.dt, config.scheme).cochain)
    # a's values are a fresh buffer, so the sum goes straight into it.
    values = a.values
    values += b.values
    return Cochain(omega.grid, omega.degree, values)


def step(omega: Cochain, vel: StaggeredVelocity,
         config: AdvectionConfig) -> Cochain:
    inc = lie_increment(omega, vel, config)
    out = axpy(-1.0, inc, omega)
    _check_finite(out.values, out.grid, out.degree, "after advection step")
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
    scenario runs through it with an observer.
    """
    grid = omega.grid
    _require_extent(min(grid.nx, grid.ny), config.scheme)
    state = omega
    if observer is not None:
        observer(0, state)
    for k in range(1, config.steps + 1):
        try:
            state = step(state, vel, config)
        except (CourantError, NonFiniteValueError) as err:
            raise type(err)(f"step {k} ({config.scheme.value}, "
                            f"{grid.nx}x{grid.ny}): {err}") from err
        if observer is not None:
            observer(k, state)
    return state
