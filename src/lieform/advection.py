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
it down through lie_increment to exterior_derivative, the contraction
bodies and reconstruct._reconstruct, and forms.scratch hands out its
buffers, one per (role, shape). Only that call uses it, one operator at
a time, so two advect calls (in one thread or in two) never share a
buffer; the rule for thread safety is that one advect call owns its
workspace, and a caller that passes a workspace to step or contract
itself must not share it between threads. A scenario's lockstep check
passes scenarios.split_fv_step a workspace of its own, never advect's.

lie_increment splits both contractions of the step at their reads
(contraction._contraction) and reads all their interfaces in one
_reconstruct call; then it runs both contractions' arithmetic and the
Cartan sum. So the workspace holds d omega while the contraction of
omega reads. It holds the buffers that die within a step: d's result
and its shifted plane; the 1-form contraction's two read planes and its
0-form; the upwind 2-form contraction's c * flux plane; the WENO
contractions' averaged planes; and the wrapped copies, windows and
kernel temporaries of the step's one reconstruction call (see
reconstruct.py). A 1-form upwind step needs four planes of it: the
"form" plane that holds d omega, into which the 1-form contraction then
reads its first node term, the "tmp" plane, and the 1-form d makes of
the contraction's 0-form. Nothing that step returns lives in it. Called
without a workspace, every operator returns fresh buffers. Every
buffer, the workspace's and the fresh ones alike, starts on a 64-byte
line (forms._empty): numpy aligns to 16 bytes only, and its AVX-512
loops run about twice as fast on an output that starts on a line, so
the step's speed does not follow the allocation history.

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

from .contraction import _check_transport, _contraction
# Unused here, but perfbench wraps lieform.advection.contract.
from .contraction import contract  # noqa: F401
from .derivative import exterior_derivative
from .forms import Cochain, NonFiniteValueError, _check_finite
# Unused here, but perfbench wraps lieform.advection.axpy.
from .forms import axpy  # noqa: F401
from .grid import _is_count, _require_positive
from .reconstruct import CourantError, SchemeKind, _reconstruct
from .velocity import StaggeredVelocity
# Unused here, but perfbench wraps lieform.advection.max_courant.
from .velocity import max_courant  # noqa: F401


@dataclass(frozen=True)
class AdvectionConfig:
    dt: float
    steps: int
    scheme: SchemeKind = SchemeKind.UPWIND
    courant_limit: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", SchemeKind.from_name(self.scheme))
        _require_positive("dt", self.dt)
        if not _is_count(self.steps):
            raise ValueError(f"steps must be a non-negative integer, got {self.steps!r}")
        object.__setattr__(self, "steps", int(self.steps))
        if isinstance(self.courant_limit, bool) or not 0.0 < self.courant_limit <= 1.0:
            raise ValueError(
                f"courant_limit must lie in (0, 1], got {self.courant_limit}")


def _at_step(err: Exception, k: int, config: AdvectionConfig,
             grid) -> Exception:
    """err's type, its message prefixed with the step, scheme and grid."""
    return type(err)(f"step {k} ({config.scheme.value}, "
                     f"{grid.nx}x{grid.ny}): {err}")


def lie_increment(omega: Cochain, vel: StaggeredVelocity,
                  config: AdvectionConfig, work: dict | None = None) -> Cochain:
    """Single-step transport increment (Cartan assembly), any degree.

    The increment is a fresh buffer, also when a workspace is passed.
    The run is checked here, once, by _check_transport with
    config.courant_limit, as contract checks it; config has checked dt.
    """
    dt, scheme = config.dt, config.scheme
    _check_transport(omega, vel, dt, scheme, config.courant_limit)
    # Both contractions read in one call, since their reads need only
    # omega and d omega. For a 1-form, d omega is the "form" plane that
    # the upwind 1-form contraction reads into: the 2-form's jobs, which
    # read d omega, come first, and upwind jobs run in order. The
    # 1-form's arithmetic runs first, as it frees the "tmp" plane that
    # the 2-form's upwind arithmetic writes.
    jobs_a, finish_a = _contraction(
        exterior_derivative(omega, work), vel, dt, scheme, work)
    jobs_b, finish_b = _contraction(omega, vel, dt, scheme, work)
    _reconstruct(jobs_a + jobs_b, scheme, work)
    b = exterior_derivative(finish_b(), work)
    a = finish_a()
    # The sum goes into the fresh piece; addition commutes, so the bits
    # do not depend on which piece that is.
    fresh, other = (b, a) if omega.degree == 0 else (a, b)
    values = fresh.values
    values += other.values
    return Cochain(omega.grid, omega.degree, values)


def step(omega: Cochain, vel: StaggeredVelocity, config: AdvectionConfig,
         work: dict | None = None) -> Cochain:
    """omega - lie_increment(omega), a fresh buffer also with work.

    Checks, in order: the extent and the grid match (ValueError), the
    Courant number against config.courant_limit (CourantError), then the
    result: NonFiniteValueError names its first non-finite cell.
    """
    out = lie_increment(omega, vel, config, work)
    values = out.values
    np.subtract(omega.values, values, out=values)
    _check_finite(values, out.grid, out.degree, "after advection step")
    return out


def advect(omega: Cochain, vel: StaggeredVelocity, config: AdvectionConfig,
           observer: Optional[Callable[[int, Cochain], None]] = None) -> Cochain:
    """Run config.steps updates; the observer sees state 0 first.

    _check_transport checks the run, as in step, before the observer is
    called. A CourantError or NonFiniteValueError raised by step k is
    re-raised as the same type, its message prefixed with the step,
    scheme and grid size: "step k (scheme, NXxNY): ..."; the Courant
    check before the loop reads as step 1's. Each step calls the
    module-level step, so a replaced one is the one that runs, and it
    still makes its own checks. This is the library's only step loop;
    the lockstep equivalence scenario runs through it with an observer.
    The call's workspace is made here and passed to every step; the
    observer sees only fresh states.
    """
    grid = omega.grid
    try:
        _check_transport(omega, vel, config.dt, config.scheme,
                         config.courant_limit)
    except CourantError as err:
        raise _at_step(err, 1, config, grid) from err
    state = omega
    work: dict = {}
    if observer is not None:
        observer(0, state)
    for k in range(1, config.steps + 1):
        try:
            state = step(state, vel, config, work)
        except (CourantError, NonFiniteValueError) as err:
            raise _at_step(err, k, config, grid) from err
        if observer is not None:
            observer(k, state)
    return state
