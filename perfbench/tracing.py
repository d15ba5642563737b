"""In-memory spans around lieform's public functions, for the traced run.

Each function is wrapped at the name its caller looks up: advection does
`from .contraction import contract`, so the wrapper goes on
`lieform.advection.contract`, not on `lieform.contraction.contract`.
Spans are recorded only while a root span opened by run.py is open,
kept in memory, and summarised when the run ends. A span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
import tracemalloc

RECONSTRUCT = "reconstruct.interface_point_values"


def _contract_name(omega, *args, **kwargs) -> str:
    return f"contraction.contract.d{omega.degree}"


def _reconstruct_attrs(u, axis, signs, scheme):
    # The kernel skips its minus-direction pass when no sign is negative,
    # so a call reconstructs u.size interfaces when one-signed and twice
    # that when mixed; either way u.size values are returned and used.
    return scheme.value, bool((signs < 0).any()), u.size


# (module, attribute, span name or naming function, attribute function)
SPAN_SITES = (
    ("lieform", "advect", "advection.advect", None),
    ("lieform.scenarios", "advect", "advection.advect", None),
    ("lieform.advection", "step", "advection.step", None),
    ("lieform.scenarios", "step", "advection.step", None),
    ("lieform.advection", "lie_increment", "advection.lie_increment", None),
    ("lieform.advection", "contract", _contract_name, None),
    ("lieform.advection", "exterior_derivative",
     "derivative.exterior_derivative", None),
    ("lieform.advection", "max_courant", "velocity.max_courant", None),
    ("lieform.contraction", "max_courant", "velocity.max_courant", None),
    ("lieform.advection", "axpy", "forms.axpy", None),
    ("lieform.scenarios", "axpy", "forms.axpy", None),
    ("lieform.scenarios", "norm", "forms.norm", None),
    ("lieform.contraction", "interface_point_values", RECONSTRUCT,
     _reconstruct_attrs),
    ("lieform.scenarios", "interface_point_values", RECONSTRUCT,
     _reconstruct_attrs),
    ("lieform.scenarios", "split_fv_step", "scenarios.split_fv_step", None),
    ("lieform.cli", "run_scenario", "scenarios.run_scenario", None),
    ("lieform.cli", "main", "cli.main", None),
    ("lieform.scenarios", "build_complex", "grid.build_complex", None),
    ("lieform.output", "build_complex", "grid.build_complex", None),
    ("lieform.scenarios", "discretize_velocity",
     "velocity.discretize_velocity", None),
    ("lieform.scenarios", "discretize", "forms.discretize", None),
    ("lieform.scenarios", "write_field", "output.write_field", None),
    ("lieform.scenarios", "write_pgm", "output.write_pgm", None),
    ("lieform.scenarios", "render_field", "output.render_field", None),
    ("lieform.scenarios", "write_error_table", "output.write_error_table",
     None),
    ("lieform", "read_field", "output.read_field", None),
    ("lieform", "read_pgm", "output.read_pgm", None),
)


@contextlib.contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples; restore them on exit."""
    saved = []
    try:
        for module, attr, value in replacements:
            mod = importlib.import_module(module)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


class Tracer:
    """Span recorder. A span is [name, start, end, parent, child_s, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name, attrs) -> list:
        parent = self._stack[-1]
        rec = [name, 0.0, 0.0, parent, 0.0, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()
        if rec[3] >= 0:
            self.spans[rec[3]][4] += rec[2] - rec[1]

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a root span; library calls are recorded only inside one."""
        self._stack.append(-1)
        rec = self._open(name, None)
        try:
            yield
        finally:
            self._close(rec)
            self._stack.pop()

    def wrap(self, fn, name, describe):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            attrs = describe(*args, **kwargs) if describe else None
            label = name(*args, **kwargs) if callable(name) else name
            rec = self._open(label, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site in SPAN_SITES for the duration of the block."""
        replacements = []
        for module, attr, name, describe in SPAN_SITES:
            fn = getattr(importlib.import_module(module), attr)
            replacements.append((module, attr, self.wrap(fn, name, describe)))
        with patched(replacements):
            yield


def summarize(spans) -> dict:
    """Per-name calls, total seconds and self seconds."""
    out: dict[str, dict] = {}
    for name, start, end, _parent, child_s, _attrs in spans:
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += (end - start) - child_s
    return out


@contextlib.contextmanager
def reconstruct_peak_alloc(record: list):
    """Append the peak bytes allocated inside each reconstruction call.

    Runs under tracemalloc, which slows allocation, so it is a pass of its
    own and never overlaps a timed one.
    """
    def wrap(fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                record.append(tracemalloc.get_traced_memory()[1] - base)
        return measured

    sites = [(m, a) for m, a, name, _ in SPAN_SITES if name == RECONSTRUCT]
    replacements = [(m, a, wrap(getattr(importlib.import_module(m), a)))
                    for m, a in sites]
    tracemalloc.start()
    try:
        with patched(replacements):
            yield
    finally:
        tracemalloc.stop()


def per_layer_metrics(spans, agg, *, traced_total_s, peak_alloc_bytes,
                      bytes_written, setup_runs, builds_in_scenarios,
                      import_scipy_s, overhead_ratio) -> dict:
    """Per-layer metrics as {name: (value, unit)}; 0 where a layer was not
    called. Per-step figures divide by the number of advection steps.

    `setup_runs` holds the set-up probe timings. The build calls of an API
    workload are part of its set-up and come from there; a CLI workload
    builds inside the scenario driver (`builds_in_scenarios`), so its build
    calls are read from the spans made directly under the scenario driver.
    """
    def get(name, key):
        return agg.get(name, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = get("advection.step", "calls")
    ms = 1e3
    recon = [(s[2] - s[1], s[5]) for s in spans if s[0] == RECONSTRUCT]
    mixed = [d for d, (_, is_mixed, _) in recon if is_mixed]
    one_signed = [d for d, (_, is_mixed, _) in recon if not is_mixed]
    returned = sum(n for _, (_, _, n) in recon)
    computed = sum(n * (2 if is_mixed else 1) for _, (_, is_mixed, n) in recon)

    def ns_per_interface(scheme):
        sel = [(d, n) for d, (sch, _, n) in recon if sch == scheme]
        return ratio(sum(d for d, _ in sel) * 1e9, sum(n for _, n in sel))

    m = {
        "reconstruct.interface_point_values.mixed.ms_per_call":
            (ratio(sum(mixed) * ms, len(mixed)), "ms"),
        "reconstruct.interface_point_values.one_signed.ms_per_call":
            (ratio(sum(one_signed) * ms, len(one_signed)), "ms"),
        "reconstruct.calls_per_step": (ratio(len(recon), steps), "count"),
        "reconstruct.ns_per_interface.weno5": (ns_per_interface("weno5"), "ns"),
        "reconstruct.ns_per_interface.weno7": (ns_per_interface("weno7"), "ns"),
        "reconstruct.useful_fraction": (ratio(returned, computed), "ratio"),
        "reconstruct.peak_alloc_mb": (peak_alloc_bytes / 2 ** 20, "MB"),
        "reconstruct.self_share":
            (ratio(get(RECONSTRUCT, "self_s"), traced_total_s), "ratio"),
    }
    for k in (0, 1, 2):
        name = f"contraction.contract.d{k}"
        m[f"{name}.self_ms_per_call"] = (
            ratio(get(name, "self_s") * ms, get(name, "calls")), "ms")
    for name in ("derivative.exterior_derivative", "velocity.max_courant"):
        m[f"{name}.calls_per_step"] = (ratio(get(name, "calls"), steps), "count")
        m[f"{name}.ms_per_step"] = (ratio(get(name, "total_s") * ms, steps), "ms")
    for name in ("advection.step", "advection.lie_increment"):
        m[f"{name}.self_ms_per_step"] = (
            ratio(get(name, "self_s") * ms, steps), "ms")
    m["forms.axpy.ms_per_step"] = (
        ratio(get("forms.axpy", "total_s") * ms, steps), "ms")
    for name in ("scenarios.split_fv_step", "output.write_field",
                 "output.write_pgm", "output.render_field", "output.read_field",
                 "output.read_pgm"):
        m[f"{name}.ms_per_call"] = (
            ratio(get(name, "total_s") * ms, get(name, "calls")), "ms")
    m["output.bytes_written"] = (bytes_written, "B")

    m["setup.import_s"] = (
        statistics.median(r["import"] for r in setup_runs), "s")
    m["setup.import_scipy_s"] = (import_scipy_s, "s")
    for name in ("grid.build_complex", "velocity.discretize_velocity",
                 "forms.discretize"):
        if builds_in_scenarios:
            # Library spans always have a parent: at least the repeat.
            under = [s[2] - s[1] for s in spans if s[0] == name
                     and spans[s[3]][0] == "scenarios.run_scenario"]
            value = ratio(sum(under) * ms, len(under))
        else:
            value = statistics.median(r[name] for r in setup_runs) * ms
        m[f"{name}.ms"] = (value, "ms")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    m["trace.unattributed_share"] = (
        ratio(get("bench.repeat", "self_s"), traced_total_s), "ratio")
    return m
