"""Built-in experiment scenarios and the driver that runs them.

Every scenario is fully determined by its parameters: no randomness, no
environment dependence, so repeated runs produce identical artifacts
(modulo the runtime_ms column, which records wall time).

All scenarios advect an initial form along a closed trajectory and report
the final-vs-initial L1/L2 error per (resolution, scheme). Two rules
follow from what a scenario states, with no flag for either:

- The velocity kind fixes the trajectory: constant and zero fields close
  over one run (one domain period for the constant one), and the vortex
  runs forward for the duration and then back in the negated field.
- The form's degree fixes the lockstep check: every 2-form run steps
  flux differencing (split_fv_step) beside advect and writes the
  largest gap between the two to equivalence.txt; a nan gap is the
  largest. The check keeps a workspace of its own for the whole run,
  apart from the one advect owns, checks each update's run as contract
  does, and reads its WENO faces on the degree-2 step's own read jobs
  (contraction._contract_2form): one private reconstruction call with
  the velocity's cached face masks.

A Scenario checks its fields when it is made, so a bad one fails before
any directory is written.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .advection import AdvectionConfig, advect
# Unused here, but perfbench's CLI workloads patch lieform.scenarios.step.
from .advection import step  # noqa: F401
from .contraction import _check_transport, _contract_2form
from .forms import (AnalyticForm, Cochain, RectangleForm, axpy, discretize,
                    norm)
from .grid import _is_count, _require_positive, build_complex, shifted
from .output import ErrorRecord, render_field, write_error_table, write_field, write_pgm
from .reconstruct import SchemeKind, _reconstruct
# Unused here, but perfbench wraps lieform.scenarios.interface_point_values.
from .reconstruct import interface_point_values  # noqa: F401
from .velocity import (ConstantVelocity, StaggeredVelocity, discretize_velocity,
                       rudman_vortex)

DEFAULT_SCHEMES = (SchemeKind.UPWIND, SchemeKind.WENO7)

# Largest per-leg step count a run may resolve to; beyond it a time step
# is a configuration error, not a run that never ends.
MAX_STEPS = 10 ** 7

# Per-scheme courant targets used when a scenario sets no base_dt. The
# explicit one-increment update tolerates a large number for
# piecewise-constant transport but needs real slack for the high-order
# reconstructions.
COURANT_PC = 0.45
COURANT_WENO = 0.05


def _smooth1(x, y):
    # Sum rather than product of the fundamentals: each component then
    # damps one-dimensionally under upwinding, so the coarsest grids
    # stay inside the first-order regime over a full period.
    return np.sin(2.0 * np.pi * x) + np.sin(2.0 * np.pi * y)


# Initial form of each form kind; its degree fixes the lockstep check.
_FORMS = {
    "smooth0": AnalyticForm(0, (lambda x, y: np.sin(2.0 * np.pi * x)
                                * np.sin(2.0 * np.pi * y),)),
    "smooth1": AnalyticForm(1, (_smooth1, _smooth1)),
    "rect1": RectangleForm(1, 0.3, 0.7, 0.3, 0.7, dx_coeff=0.0, dy_coeff=1.0),
    "rect2": RectangleForm(2, 0.3, 0.7, 0.3, 0.7, density=1.0),
}

# Field of each velocity kind, and whether a run goes back in its negation.
_VELOCITIES = {
    "constant": (ConstantVelocity(1.0, 1.0), False),
    "rudman": (rudman_vortex(), True),
    "zero": (ConstantVelocity(0.0, 0.0), False),
}


@dataclass(frozen=True)
class Scenario:
    name: str
    form: str                     # a key of _FORMS; fixes the degree
    velocity: str                 # a key of _VELOCITIES; fixes the reversal
    resolutions: tuple[int, ...]
    schemes: tuple[SchemeKind, ...] = DEFAULT_SCHEMES   # members or names
    duration: float = 1.0         # per leg for reversed runs
    base_dt: Optional[float] = None   # dt at resolutions[0], scaled with h
    dumps: int = 0                # dump every total // dumps steps (at least
                                  # every step); first and last state always
    steps: Optional[int] = None   # explicit per-leg step count override

    def __post_init__(self) -> None:
        for what, kind, table in (("form", self.form, _FORMS),
                                  ("velocity", self.velocity, _VELOCITIES)):
            if kind not in table:
                raise ValueError(f"unknown {what} kind {kind!r} "
                                 f"(options: {', '.join(table)})")
        # A bare str or bytes would iterate as characters or byte values.
        for what in ("resolutions", "schemes"):
            value = getattr(self, what)
            if isinstance(value, (str, bytes)):
                raise ValueError(f"scenario {what} must be a collection, "
                                 f"not {type(value).__name__} {value!r}")
        if not self.resolutions:
            raise ValueError("scenario needs at least one resolution")
        for n in self.resolutions:
            if not _is_count(n, 8):
                raise ValueError("scenario resolutions must be integers of at "
                                 f"least 8, got {n!r}")
        # Each (resolution, scheme) pair names one run directory, so
        # neither list may repeat an entry.
        resolutions = tuple(int(n) for n in self.resolutions)
        if len(set(resolutions)) < len(resolutions):
            raise ValueError(f"scenario resolutions repeat, got {resolutions!r}")
        object.__setattr__(self, "resolutions", resolutions)
        schemes = tuple(SchemeKind.from_name(s) for s in self.schemes)
        if not schemes or len(set(schemes)) < len(schemes):
            raise ValueError("scenario schemes must be one or more distinct "
                             f"schemes, got {self.schemes!r}")
        object.__setattr__(self, "schemes", schemes)
        _require_positive("duration", self.duration)
        if self.base_dt is not None:
            _require_positive("time step", self.base_dt)
        if self.steps is not None:
            if not _is_count(self.steps, 1, MAX_STEPS):
                raise ValueError(f"step count must be an integer in [1, {MAX_STEPS}], "
                                 f"got {self.steps!r}")
            object.__setattr__(self, "steps", int(self.steps))
        if not _is_count(self.dumps):
            raise ValueError(f"dump count must be a non-negative integer, got {self.dumps!r}")
        object.__setattr__(self, "dumps", int(self.dumps))


_BUILTINS = {
    "square-translate": Scenario(
        name="square-translate", form="rect1", velocity="constant",
        resolutions=(48,), base_dt=1e-3),
    "rudman-vortex": Scenario(
        name="rudman-vortex", form="rect1", velocity="rudman",
        resolutions=(48,), base_dt=1e-3, dumps=5),
    "convergence-smooth-constant": Scenario(
        name="convergence-smooth-constant", form="smooth1",
        velocity="constant", resolutions=(16, 32, 64, 128)),
    "convergence-smooth-vortex": Scenario(
        name="convergence-smooth-vortex", form="smooth1",
        velocity="rudman", resolutions=(16, 32, 64), duration=0.125),
    "convergence-discontinuous": Scenario(
        name="convergence-discontinuous", form="rect1",
        velocity="constant", resolutions=(16, 32, 64, 128)),
    "scalar-0form": Scenario(
        name="scalar-0form", form="smooth0", velocity="constant",
        resolutions=(48,), base_dt=1e-3),
    "volume-2form-equivalence": Scenario(
        name="volume-2form-equivalence", form="rect2",
        velocity="constant", resolutions=(48,), base_dt=1e-3),
}


def scenario_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin_scenario(name: str) -> Scenario:
    try:
        return _BUILTINS[name]
    except KeyError:
        options = ", ".join(_BUILTINS)
        raise ValueError(f"unknown scenario {name!r} (options: {options})") from None


def apply_overrides(scenario: Scenario, resolutions=None, dt=None,
                    steps=None, scheme=None) -> Scenario:
    # Each value given passes through as it is (the resolutions as a
    # tuple of them, the scheme as a one-entry tuple), so Scenario's
    # checks see what the caller passed and reject a bad one rather than
    # a cast of it.
    given = {"resolutions": None if resolutions is None else tuple(resolutions),
             "base_dt": dt, "steps": steps,
             "schemes": None if scheme is None else (scheme,)}
    changes = {k: v for k, v in given.items() if v is not None}
    return dataclasses.replace(scenario, **changes) if changes else scenario


def _resolve_steps(scenario: Scenario, scheme: SchemeKind,
                   vel: StaggeredVelocity, h: float,
                   h0: float) -> tuple[float, int]:
    """Per-leg (dt, steps). dt is nudged so steps * dt spans the duration.

    A step count above MAX_STEPS raises ValueError naming the time step.
    """
    if scenario.steps is not None:
        if scenario.base_dt is not None:
            return scenario.base_dt * (h / h0), scenario.steps
        return scenario.duration / scenario.steps, scenario.steps
    if scenario.base_dt is not None:
        raw = scenario.base_dt * (h / h0)
    else:
        peak = vel._peak_flux
        if peak == 0.0:
            return scenario.duration, 1
        target = COURANT_PC if scheme.stencil_width == 1 else COURANT_WENO
        raw = target * h ** 2 / peak
    try:
        steps = max(1, round(scenario.duration / raw))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"time step {raw!r} is too small: the step count over "
                         f"duration {scenario.duration!r} overflows") from None
    if steps > MAX_STEPS:
        raise ValueError(f"time step {raw!r} is too small: it needs {steps:.6g} "
                         f"steps over duration {scenario.duration!r}, more "
                         f"than the limit of {MAX_STEPS}")
    return scenario.duration / steps, steps


def split_fv_step(rho: Cochain, vel: StaggeredVelocity, dt: float,
                  scheme: SchemeKind, work: dict | None = None) -> Cochain:
    """One conservative flux-differencing update of a cell field.

    Spelled as per-face transport differences; the face terms combine in
    the coboundary's documented order, which makes the update coincide
    with the geometric degree-2 step exactly.

    The run is checked as contract checks it, by
    contraction._check_transport with the Courant limit 1. A bad scheme
    (it takes a SchemeKind member or its name), dt, grid extent or grid
    match raises ValueError, in that order, and a Courant number above
    1 CourantError; so rho on another grid than vel's is an error, not
    a caller's duty.

    A WENO update reads both face sets in one reconstruct._reconstruct
    call, on the jobs contraction._contract_2form makes: the plane w / h
    with the velocity's cached face masks, into two fresh planes. The
    body's finish is not run; the face arithmetic below is the oracle's
    own. The upwind update selects its faces with np.where and np.roll.

    work is an optional workspace (see forms.scratch), as for
    advection.step: the scaled plane w / h and the reconstruction's
    "pad", "window" and "weno" buffers come from it, so a caller that
    passes one dict to every update of a run allocates them once. It
    is not advect's workspace: one workspace serves one caller. The
    read faces and the returned cochain are fresh arrays, so the result
    shares no memory with work. The upwind update uses no workspace.
    """
    scheme = _check_transport(rho, vel, dt, scheme, 1.0)
    grid = rho.grid
    w = rho.plane()
    h = grid.h
    if scheme.stencil_width == 1:
        south = (-(dt / h ** 2)) * vel.flux_y * np.where(
            vel.flux_y >= 0.0, np.roll(w, 1, axis=0), w)
        west = (dt / h ** 2) * vel.flux_x * np.where(
            vel.flux_x >= 0.0, np.roll(w, 1, axis=1), w)
    else:
        jobs, _ = _contract_2form(rho, vel, dt, scheme, work)
        _reconstruct(jobs, scheme, work)
        (*_, ry), (*_, rx) = jobs
        south = -(((ry * vel.flux_y) * dt) / h)
        west = ((rx * vel.flux_x) * dt) / h
    net = south + shifted(west, di=1) - shifted(south, dj=1) - west
    return Cochain(grid, 2, (w - net).ravel())


def _dump_steps(total: int, dumps: int) -> set:
    chosen = {0, total}
    if dumps > 0:
        every = max(1, total // dumps)
        chosen.update(range(0, total + 1, every))
    return chosen


def run_scenario(scenario: Scenario, out_dir) -> list[ErrorRecord]:
    """Execute every (resolution, scheme) pair and write all artifacts.

    The (dt, steps) of every pair are resolved before the first run
    starts, so a bad time step at any resolution fails before any
    directory is made. Each pair runs one leg, or two for a reversing
    velocity (the second in the negated field, built once per
    resolution and shared by its schemes), under one observer: it dumps
    the wanted states, counted across both legs, and for a 2-form
    advances flux differencing with the leg's field, under one
    workspace of the pair's own, and records the largest gap to the
    geometric state.
    A pair's directory is made when state 0 is dumped, which advect does
    only after its checks, so a run that fails them leaves none.
    """
    field, reverses = _VELOCITIES[scenario.velocity]
    h0 = 1.0 / scenario.resolutions[0]
    runs = []
    for n in scenario.resolutions:
        grid = build_complex(n, n, 1.0 / n)
        vel = discretize_velocity(field, grid)
        pairs = [(scheme, *_resolve_steps(scenario, scheme, vel, grid.h, h0))
                 for scheme in scenario.schemes]
        runs.append((grid, vel, pairs))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for grid, vel, pairs in runs:
        n = grid.nx
        w0 = discretize(_FORMS[scenario.form], grid)
        legs = (vel,)
        if reverses:
            legs += (StaggeredVelocity(grid, -vel.flux_x, -vel.flux_y),)
        lockstep = w0.degree == 2
        for scheme, dt, steps in pairs:
            total = len(legs) * steps
            wanted = _dump_steps(total, scenario.dumps)
            cfg = AdvectionConfig(dt=dt, steps=steps, scheme=scheme)
            rundir = out / f"{n}_{scheme.value}"
            fv, worst, fv_work = w0, 0.0, {}

            def observe(k: int, w: Cochain) -> None:
                nonlocal fv, worst
                if k and lockstep:
                    fv = split_fv_step(fv, leg_vel, dt, scheme, fv_work)
                    # np.maximum keeps a nan gap, which max() would drop.
                    worst = float(np.maximum(worst, np.max(np.abs(w.values - fv.values))))
                at = offset + k
                if at == 0:
                    rundir.mkdir(exist_ok=True)
                if (k or not offset) and at in wanted:
                    write_field(rundir / f"field_{at:06d}.txt", w)
                    write_pgm(rundir / f"field_{at:06d}.pgm", render_field(w))

            started = time.perf_counter()
            final = w0
            for leg, leg_vel in enumerate(legs):
                offset = leg * steps
                final = advect(final, leg_vel, cfg, observer=observe)
            runtime_ms = (time.perf_counter() - started) * 1e3
            if lockstep:
                (rundir / "equivalence.txt").write_text(
                    f"steps {total}\nmax_abs_diff {worst!r}\n")
            diff = axpy(-1.0, w0, final)
            records.append(ErrorRecord(
                resolution=n, scheme=scheme,
                l1=norm(diff, 1), l2=norm(diff, 2), runtime_ms=runtime_ms))
    write_error_table(out / "errors.csv", records)
    return records


def fit_convergence_slope(records) -> dict:
    """Least-squares slope of log error against log h, per norm.

    Records must share one scheme and cover at least three resolutions.
    A norm whose errors are all zero reports "exact" instead of a slope.
    """
    records = list(records)
    schemes = {r.scheme for r in records}
    if len(schemes) > 1:
        raise ValueError("slope fit mixes schemes; fit one scheme at a time")
    if len({r.resolution for r in records}) < 3:
        raise ValueError("slope fit needs at least 3 distinct resolutions")
    hs = np.array([1.0 / r.resolution for r in records])
    out = {}
    for key in ("l1", "l2"):
        errs = np.array([getattr(r, key) for r in records])
        if np.all(errs == 0.0):
            out[key] = "exact"
            continue
        if np.any(errs <= 0.0):
            raise ValueError(f"{key} errors must be positive to fit a slope")
        out[key] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return out
