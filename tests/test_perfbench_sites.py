"""The library names the benchmark wraps stay where it looks for them.

perfbench's traced runs wrap every (module, attribute) pair listed in
perfbench/tracing.py's SPAN_SITES, and its CLI workloads replace `step`
in lieform.advection and lieform.scenarios to time each step. A rename
or a moved import breaks those runs without failing any other test.
perfbench is not a package, so tracing.py is loaded by its path; it
imports only the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import lieform.advection
import lieform.scenarios
from lieform.advection import AdvectionConfig, advect
from lieform.forms import Cochain
from lieform.grid import build_complex
from lieform.velocity import discretize_velocity, rudman_vortex

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _span_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_SITES


def test_every_wrapped_name_resolves():
    sites = _span_sites()
    assert sites
    for module, attr, *_ in sites:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"
    # the CLI workloads patch step in both modules
    for module in (lieform.advection, lieform.scenarios):
        assert callable(getattr(module, "step", None)), module.__name__


def test_advect_calls_the_module_step_once_per_step(monkeypatch):
    # The CLI workloads time a step as the gap between two calls of the
    # replaced step; without one call per step their percentiles read NaN.
    calls = []
    real = lieform.advection.step

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lieform.advection, "step", counted)
    g = build_complex(12, 10, 0.1)
    vel = discretize_velocity(rudman_vortex(), g)
    w = Cochain.from_components(g, np.ones(g.shape), np.zeros(g.shape))
    for k in (0, 1, 7):
        calls.clear()
        advect(w, vel, AdvectionConfig(0.01, k, "weno5"))
        assert len(calls) == k
