"""The four benchmark workloads: one repeat, a short variant, and the check
that each repeat's outputs are correct.

API workloads call `lieform.advect` on inputs built in this process; CLI
workloads call `lieform.cli.main` in-process and read the artifacts back.
Every call goes through the `lieform` package or `lieform.cli` attribute,
so the traced run can wrap it there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import time
from pathlib import Path
from typing import Optional

import numpy as np

import lieform
import lieform.cli
from inputs import API_WORKLOADS, CLI_WORKLOADS, build_api_inputs, rect_shift
from tracing import patched

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
COMMUTATION_RTOL = 1e-12


class StepClock:
    """Per-step wall times: the gaps between consecutive step boundaries."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last: Optional[float] = None

    def restart(self) -> None:
        self._last = None

    def tick(self) -> None:
        now = time.perf_counter()
        if self._last is not None:
            self.samples.append(now - self._last)
        self._last = now


@dataclasses.dataclass
class Outcome:
    """What one repeat produced, kept for the check after timing."""

    l1: float = float("nan")
    final: Optional[lieform.Cochain] = None
    fields: list = dataclasses.field(default_factory=list)
    pgms: list = dataclasses.field(default_factory=list)
    bytes_written: int = 0


def shift_key(shift: tuple[int, int]) -> str:
    return f"{shift[0]},{shift[1]}"


class ApiWorkload:
    """`advect` forward, and back in the negated field when reversed."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.shift = rect_shift(seed)
        self.inputs = build_api_inputs(lieform, name, self.shift)
        self.cells = self.inputs["grid"].size

    def reset(self) -> None:
        pass

    def run(self, clock: StepClock, steps: Optional[int] = None) -> Outcome:
        inp = self.inputs
        config = inp["config"]
        if steps is not None:
            config = dataclasses.replace(config, steps=steps)

        def observe(k, state):
            if k == 0:
                clock.restart()
            clock.tick()

        state = lieform.advect(inp["omega0"], inp["vel"], config, observe)
        if inp["back"] is not None:
            state = lieform.advect(state, inp["back"], config, observe)
        return Outcome(final=state)

    def l1_error(self, final) -> float:
        return lieform.norm(lieform.axpy(-1.0, self.inputs["omega0"], final), 1)

    def check(self, out: Outcome) -> list[str]:
        inp = self.inputs
        final = out.final
        if not np.isfinite(final.values).all():
            return ["final state is not finite"]
        out.l1 = self.l1_error(final)
        expected = json.loads(EXPECTED_PATH.read_text())[self.name]
        recorded = expected[shift_key(self.shift)]
        problems = []
        if out.l1 != recorded:
            problems.append(f"l1_error {out.l1!r} != recorded {recorded!r} "
                            f"for shift {self.shift}")
        if self.name == "vortex-weno7":
            gap = commutation_gap(final, inp["vel"], inp["config"])
            if not gap <= COMMUTATION_RTOL:
                problems.append(f"commutation gap {gap:.3e} > {COMMUTATION_RTOL}")
        return problems


def commutation_gap(omega, vel, config) -> float:
    """max |d(L w) - L(d w)| relative to the larger of the two sides."""
    d = lieform.exterior_derivative
    a = d(lieform.lie_increment(omega, vel, config)).values
    b = lieform.lie_increment(d(omega), vel, config).values
    scale = max(np.abs(a).max(), np.abs(b).max())
    return float(np.abs(a - b).max() / scale) if scale > 0.0 else 0.0


class CliWorkload:
    """`lieform run ...` in-process; vortex-dumps also reads artifacts back."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.argv = CLI_WORKLOADS[name]
        self.out = workdir / name
        res = int(self.argv[self.argv.index("--res") + 1])
        self.cells = res * res
        self.read_back = name == "vortex-dumps"

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, clock: StepClock, steps: Optional[int] = None) -> Outcome:
        argv = list(self.argv)
        if steps is not None:
            argv[argv.index("--steps") + 1] = str(steps)

        def timed(step):
            def timed_step(*args, **kwargs):
                clock.tick()
                return step(*args, **kwargs)
            return timed_step

        clock.restart()
        # The scenario driver reaches `step` through advect (looked up in
        # lieform.advection) and through its lockstep equivalence loop
        # (looked up in lieform.scenarios).
        sites = [(m.__name__, "step", timed(m.step))
                 for m in (lieform.advection, lieform.scenarios)]
        with patched(sites), contextlib.redirect_stdout(io.StringIO()):
            code = lieform.cli.main(argv + ["--out", str(self.out)])
        if code != 0:
            raise RuntimeError(f"lieform {' '.join(argv)} exited with {code}")
        out = Outcome()
        if self.read_back:
            out.fields = [lieform.read_field(p)
                          for p in sorted(self.out.glob("*/field_??????.txt"))]
            out.pgms = [lieform.read_pgm(p)
                        for p in sorted(self.out.glob("*/field_??????.pgm"))]
        return out

    def check(self, out: Outcome) -> list[str]:
        out.bytes_written = sum(p.stat().st_size for p in self.out.rglob("*")
                                if p.is_file())
        records = lieform.read_error_table(self.out / "errors.csv")
        if len(records) != 1:
            return [f"errors.csv has {len(records)} rows, expected 1"]
        out.l1 = records[0].l1
        if not np.isfinite(out.l1):
            return [f"l1 {out.l1!r} is not finite"]
        rundir = self.out / f"{records[0].resolution}_{records[0].scheme.value}"
        if self.name == "equivalence-weno5":
            lines = (rundir / "equivalence.txt").read_text().splitlines()
            if "max_abs_diff 0.0" not in lines:
                return [f"equivalence.txt reports {lines}"]
            return []
        return self._check_dumps(out)

    def _check_dumps(self, out: Outcome) -> list[str]:
        if len(out.fields) < 2 or len(out.fields) != len(out.pgms):
            return [f"read back {len(out.fields)} fields and "
                    f"{len(out.pgms)} rasters"]
        problems = []
        first, last = out.fields[0], out.fields[-1]
        l1 = lieform.norm(lieform.axpy(-1.0, first, last), 1)
        if l1 != out.l1:
            problems.append(f"L1 of last dump minus first {l1!r} != "
                            f"errors.csv l1 {out.l1!r}")
        for k, (field, pixels) in enumerate(zip(out.fields, out.pgms)):
            if not np.array_equal(lieform.render_field(field).pixels, pixels):
                problems.append(f"raster {k} does not match its field dump")
        return problems


def make(name: str, seed: int, workdir: Path):
    cls = ApiWorkload if name in API_WORKLOADS else CliWorkload
    return cls(name, seed, workdir)
