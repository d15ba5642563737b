"""Scenario driver, artifact layout, slope fits, and the CLI surface."""

import re
import shutil
import subprocess
from argparse import ArgumentTypeError

import numpy as np
import pytest

import lieform.scenarios
import reference
from lieform.cli import _parse_res, main
from lieform.forms import Cochain
from lieform.grid import build_complex
from lieform.output import CSV_HEADER, ErrorRecord, read_error_table
from lieform.reconstruct import SchemeKind, Stencil1D, extrusion_integral
from lieform.scenarios import (Scenario, apply_overrides, builtin_scenario,
                               fit_convergence_slope, run_scenario,
                               scenario_names, split_fv_step)
from lieform.velocity import StaggeredVelocity

ALL_SCENARIOS = (
    "square-translate", "rudman-vortex", "convergence-smooth-constant",
    "convergence-smooth-vortex", "convergence-discontinuous",
    "scalar-0form", "volume-2form-equivalence")


def test_scenario_registry():
    assert scenario_names() == ALL_SCENARIOS
    sq = builtin_scenario("square-translate")
    assert sq.base_dt == 1e-3
    with pytest.raises(ValueError):
        builtin_scenario("nope")


def test_scenario_validation(tmp_path, monkeypatch):
    with pytest.raises(ValueError):
        Scenario(name="x", form="rect1", velocity="zero",
                 resolutions=())
    with pytest.raises(ValueError):
        Scenario(name="x", form="rect1", velocity="zero",
                 resolutions=(4,))
    for bad_duration in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Scenario(name="x", form="rect1", velocity="zero",
                     resolutions=(8,), duration=bad_duration)
    for bad_dt in (0.0, -1e-3, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Scenario(name="x", form="rect1", velocity="zero",
                     resolutions=(8,), base_dt=bad_dt)
    for bad_steps in (0, -1, lieform.scenarios.MAX_STEPS + 1):
        with pytest.raises(ValueError):
            Scenario(name="x", form="rect1", velocity="zero",
                     resolutions=(8,), steps=bad_steps)
    # A resolution or step count that is not an integer, or is a bool,
    # is named in the error; numpy integers are kept as Python ints.
    for bad_res in (8.5, np.float64(16.0), True):
        with pytest.raises(ValueError, match=re.escape(f"got {bad_res!r}") + "$"):
            Scenario(name="x", form="rect1", velocity="zero",
                     resolutions=(16, bad_res))
    for bad_steps in (True, 2.0, np.float64(3.0)):
        with pytest.raises(ValueError, match=re.escape(f"got {bad_steps!r}") + "$"):
            Scenario(name="x", form="rect1", velocity="zero",
                     resolutions=(8,), steps=bad_steps)
    # A bare scheme name or resolution is named as given, not split into
    # characters or byte values.
    for field, bad in (("schemes", "weno5"), ("resolutions", "16"),
                       ("resolutions", b"16"), ("schemes", b"weno5")):
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must be a collection, not {type(bad).__name__} "
                f"{bad!r}") + "$"):
            Scenario(**{"name": "x", "form": "rect1", "velocity": "zero",
                        "resolutions": (8,), field: bad})
    sc = Scenario(name="x", form="rect1", velocity="zero",
                  resolutions=[np.int64(8), 16], steps=np.int32(3))
    assert sc.resolutions == (8, 16) and sc.steps == 3
    assert all(type(n) is int for n in (*sc.resolutions, sc.steps))
    base = builtin_scenario("square-translate")
    with pytest.raises(ValueError):
        apply_overrides(base, dt=0.0)
    with pytest.raises(ValueError):
        apply_overrides(base, steps=0)
    # Overrides reach the same checks instead of being truncated.
    with pytest.raises(ValueError, match=r"got 8\.5$"):
        apply_overrides(base, resolutions=[16, 8.5])
    with pytest.raises(ValueError, match=r"got 2\.5$"):
        apply_overrides(base, steps=2.5)
    with pytest.raises(ValueError, match=r"^time step must be positive and "
                                         r"finite, got True$"):
        apply_overrides(base, dt=True)
    # A dump count follows the same count rule.
    for bad_dumps in (2.5, -3, True):
        with pytest.raises(ValueError, match=re.escape(f"got {bad_dumps!r}") + "$"):
            Scenario(name="x", form="rect1", velocity="zero",
                     resolutions=(8,), dumps=bad_dumps)
    dumps = Scenario(name="x", form="rect1", velocity="zero",
                     resolutions=(8,), dumps=np.int16(3)).dumps
    assert dumps == 3 and type(dumps) is int
    # An unknown form or velocity kind fails when the scenario is made,
    # before any directory exists.
    for field, bad in (("form", "rect3"), ("velocity", "swirl")):
        kinds = {"form": "rect1", "velocity": "zero", field: bad}
        with pytest.raises(ValueError, match=rf"^unknown {field} kind '{bad}' "
                                             r"\(options: "):
            run_scenario(Scenario(name="x", resolutions=(8,), **kinds),
                         tmp_path / "kind")
    assert not (tmp_path / "kind").exists()
    # Schemes resolve by name when the scenario is made. Each (resolution,
    # scheme) pair names one run directory, so neither list repeats.
    named = Scenario(name="x", form="rect1", velocity="constant",
                     resolutions=(8,), schemes=("weno5",), base_dt=1e-3,
                     steps=1)
    assert named.schemes == (SchemeKind.WENO5,)
    assert [r.scheme for r in run_scenario(named, tmp_path / "named")] == [
        SchemeKind.WENO5]
    for bad_schemes in ((), ("upwind", "upwind"), (SchemeKind.WENO7, "weno7")):
        with pytest.raises(ValueError, match=re.escape(f"got {bad_schemes!r}") + "$"):
            Scenario(name="x", form="rect1", velocity="zero",
                     resolutions=(8,), schemes=bad_schemes)
    with pytest.raises(ValueError, match=r"^unknown scheme None \(options: "):
        Scenario(name="x", form="rect1", velocity="zero",
                 resolutions=(8,), schemes=(None,))
    for bad_res, shown in (((8, 8), "(8, 8)"), ((16, np.int64(16)), "(16, 16)")):
        with pytest.raises(ValueError, match=re.escape(f"got {shown}") + "$"):
            Scenario(name="x", form="rect1", velocity="zero",
                     resolutions=bad_res)
    # Only the finer leg exceeds the step limit (dt halves with h, so it
    # needs about 1.3e7 steps against 6.7e6 at 8^2); it must fail before
    # any run starts or any directory is made.
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before every leg was resolved")

    monkeypatch.setattr(lieform.scenarios, "advect", no_run)
    two = Scenario(name="x", form="rect1", velocity="constant",
                   resolutions=(8, 16), base_dt=1.5e-7,
                   schemes=(SchemeKind.UPWIND,))
    with pytest.raises(ValueError, match=r"^time step 7\.5e-08 is too small: "
                                         r"it needs 1\.33333e\+07 steps"):
        run_scenario(two, tmp_path / "two")
    assert not (tmp_path / "two").exists()


def test_apply_overrides():
    base = builtin_scenario("square-translate")
    assert apply_overrides(base) is base
    out = apply_overrides(base, resolutions=[16, 32], dt=0.5, steps=7,
                          scheme="weno5")
    assert out.resolutions == (16, 32)
    assert out.base_dt == 0.5
    assert out.steps == 7
    assert out.schemes == (SchemeKind.WENO5,)
    assert out.name == base.name


@pytest.mark.parametrize("scheme", [SchemeKind.UPWIND, SchemeKind.WENO5,
                                    SchemeKind.WENO7])
def test_split_fv_step_matches_loop_driver(scheme):
    rng = np.random.default_rng(307)
    g = build_complex(9, 8, 0.25)
    h = g.h
    fx = rng.uniform(-1.0, 1.0, g.shape) * (h * 0.5)
    fy = rng.uniform(-1.0, 1.0, g.shape) * (h * 0.5)
    vel = StaggeredVelocity(g, fx, fy)
    w = rng.standard_normal(g.shape)
    dt = 0.05

    if scheme is SchemeKind.UPWIND:
        def transport(vals, flux):
            return dt / h ** 2 * flux * vals[0]
    else:
        def transport(vals, flux):
            sign = 1 if flux >= 0.0 else -1
            window = Stencil1D(tuple(float(v) / h for v in vals), sign)
            return extrusion_integral(window, scheme, float(flux), dt, h)

    got = split_fv_step(Cochain.from_plane(g, 2, w), vel, dt, scheme)
    want = reference.fv_step_2form_loop(
        w.tolist(), fx.tolist(), fy.tolist(), dt, h,
        scheme.stencil_width, transport)
    assert np.array_equal(got.plane(), np.array(want))
    # The scheme's name takes the member's path.
    named = split_fv_step(Cochain.from_plane(g, 2, w), vel, dt, scheme.value)
    assert np.array_equal(named.values.view(np.int64), got.values.view(np.int64))


def test_run_scenario_artifacts(tmp_path):
    sc = apply_overrides(builtin_scenario("square-translate"),
                         resolutions=(8,), dt=1e-3, steps=3)
    out = tmp_path / "out"
    records = run_scenario(sc, out)
    assert [(r.resolution, r.scheme) for r in records] == [
        (8, SchemeKind.UPWIND), (8, SchemeKind.WENO7)]
    assert all(r.l1 > 0.0 and r.l2 > 0.0 for r in records)
    table = (out / "errors.csv").read_text().splitlines()
    assert table[0] == CSV_HEADER
    assert read_error_table(out / "errors.csv") == records
    for scheme in ("upwind", "weno7"):
        rundir = out / f"8_{scheme}"
        names = sorted(p.name for p in rundir.glob("field_??????.txt"))
        assert names == ["field_000000.txt", "field_000003.txt"]
        assert sorted(p.name for p in rundir.glob("field_??????.pgm")) == [
            "field_000000.pgm", "field_000003.pgm"]
        assert (rundir / "field_000003.pgm.txt").exists()


def test_run_scenario_reverse_dump_schedule(tmp_path):
    sc = apply_overrides(builtin_scenario("rudman-vortex"),
                         resolutions=(8,), steps=3)
    run_scenario(sc, tmp_path)
    for scheme in ("upwind", "weno7"):
        rundir = tmp_path / f"8_{scheme}"
        names = sorted(p.name for p in rundir.glob("field_??????.txt"))
        assert names == [f"field_{k:06d}.txt" for k in range(7)]
        assert len(list(rundir.glob("field_??????.pgm"))) == 7
        assert len(list(rundir.glob("field_??????.pgm.txt"))) == 7


def test_reverse_leg_velocity_is_built_once_per_resolution(tmp_path,
                                                          monkeypatch):
    # Both schemes at a resolution advect in the same two leg velocities,
    # the second the first negated.
    honest = lieform.scenarios.advect
    legs = []

    def recording(omega, vel, *args, **kwargs):
        legs.append(vel)
        return honest(omega, vel, *args, **kwargs)

    monkeypatch.setattr(lieform.scenarios, "advect", recording)
    sc = apply_overrides(builtin_scenario("rudman-vortex"),
                         resolutions=(8, 9), steps=2)
    run_scenario(sc, tmp_path)
    assert len(legs) == 8
    for n, runs in ((8, legs[:4]), (9, legs[4:])):
        forward, back = runs[:2]
        assert runs[2] is forward and runs[3] is back
        assert forward is not back
        assert forward.grid.nx == back.grid.nx == n
        assert np.array_equal(back.flux_x, -forward.flux_x)
        assert np.array_equal(back.flux_y, -forward.flux_y)


def test_steps_without_base_dt_span_the_duration():
    # With steps given and no base_dt, dt is the duration over the steps
    # at every resolution and for every scheme; the flux plays no part.
    sc = Scenario(name="x", form="rect1", velocity="rudman",
                  resolutions=(8, 16), duration=0.7, steps=3)
    for n in sc.resolutions:
        g = build_complex(n, n, 1.0 / n)
        vel = StaggeredVelocity(g, np.full(g.shape, 0.5 / n),
                                np.zeros(g.shape))
        for scheme in sc.schemes:
            dt, steps = lieform.scenarios._resolve_steps(
                sc, scheme, vel, g.h, 1.0 / sc.resolutions[0])
            assert steps == 3
            assert dt == 0.7 / 3
            assert dt * steps == sc.duration


def test_equivalence_scenario_reports_zero_gap(tmp_path):
    sc = apply_overrides(builtin_scenario("volume-2form-equivalence"),
                         resolutions=(8,), steps=5)
    run_scenario(sc, tmp_path)
    for scheme in ("upwind", "weno7"):
        text = (tmp_path / f"8_{scheme}" / "equivalence.txt").read_text()
        assert text == "steps 5\nmax_abs_diff 0.0\n"
    # Every 2-form run is checked, a reversed one over both legs, each
    # against flux differencing in that leg's field.
    vortex = Scenario(name="x", form="rect2", velocity="rudman",
                      resolutions=(8,), schemes=("upwind", "weno5"),
                      base_dt=1e-3, steps=3, dumps=2)
    run_scenario(vortex, tmp_path / "vortex")
    for scheme in ("upwind", "weno5"):
        rundir = tmp_path / "vortex" / f"8_{scheme}"
        text = (rundir / "equivalence.txt").read_text()
        assert text == "steps 6\nmax_abs_diff 0.0\n"
        names = sorted(p.name for p in rundir.glob("field_??????.txt"))
        assert names == [f"field_{k:06d}.txt" for k in (0, 3, 6)]


def test_equivalence_scenario_reports_a_gap(tmp_path, monkeypatch):
    # The lockstep check must notice a flux-differencing step that differs.
    honest = lieform.scenarios.split_fv_step
    calls = []

    def perturbed(rho, *args):
        out = honest(rho, *args)
        calls.append(1)
        if len(calls) == 2:
            out = Cochain(out.grid, 2, out.values + 1e-3)
        return out

    monkeypatch.setattr(lieform.scenarios, "split_fv_step", perturbed)
    sc = apply_overrides(builtin_scenario("volume-2form-equivalence"),
                         resolutions=(8,), steps=3, scheme="upwind")
    run_scenario(sc, tmp_path)
    lines = (tmp_path / "8_upwind" / "equivalence.txt").read_text().splitlines()
    assert lines[0] == "steps 3"
    assert lines[1].startswith("max_abs_diff ")
    assert float(lines[1].split()[1]) > 0.0
    assert len(calls) == 3


def test_run_scenario_is_deterministic(tmp_path):
    sc = apply_overrides(builtin_scenario("square-translate"),
                         resolutions=(8,), steps=2)
    run_scenario(sc, tmp_path / "a")
    run_scenario(sc, tmp_path / "b")
    rows_a = (tmp_path / "a" / "errors.csv").read_text().splitlines()
    rows_b = (tmp_path / "b" / "errors.csv").read_text().splitlines()
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        assert ra.split(",")[:4] == rb.split(",")[:4]
    for rel in ("8_upwind/field_000002.txt", "8_upwind/field_000002.pgm",
                "8_weno7/field_000002.txt"):
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes()


def test_zero_velocity_scenario_is_exact(tmp_path):
    sc = Scenario(name="still", form="rect1", velocity="zero",
                  resolutions=(8,), schemes=(SchemeKind.UPWIND,))
    records = run_scenario(sc, tmp_path)
    assert len(records) == 1
    assert records[0].l1 == 0.0 and records[0].l2 == 0.0


def _table(errs, scheme=SchemeKind.UPWIND, res=(16, 32, 64)):
    return [ErrorRecord(n, scheme, e, e, 1.0) for n, e in zip(res, errs)]


def test_fit_convergence_slope():
    first = fit_convergence_slope(_table([8e-2, 4e-2, 2e-2]))
    assert first["l1"] == pytest.approx(1.0, abs=1e-12)
    assert first["l2"] == pytest.approx(1.0, abs=1e-12)
    second = fit_convergence_slope(_table([1.6e-1, 4e-2, 1e-2]))
    assert second["l1"] == pytest.approx(2.0, abs=1e-12)
    assert fit_convergence_slope(_table([0.0, 0.0, 0.0])) == {
        "l1": "exact", "l2": "exact"}
    with pytest.raises(ValueError):
        fit_convergence_slope(_table([0.0, 1e-2, 1e-3]))
    with pytest.raises(ValueError):
        fit_convergence_slope(_table([8e-2, 4e-2], res=(16, 32)))
    mixed = _table([8e-2, 4e-2, 2e-2])
    mixed[1] = ErrorRecord(32, SchemeKind.WENO7, 4e-2, 4e-2, 1.0)
    with pytest.raises(ValueError):
        fit_convergence_slope(mixed)


def test_parse_res():
    assert _parse_res("8") == [8]
    assert _parse_res("8,16,32") == [8, 16, 32]
    with pytest.raises(ArgumentTypeError):
        _parse_res("abc")
    with pytest.raises(ArgumentTypeError):
        _parse_res(",")


def test_cli_run_happy_path(tmp_path, capsys):
    code = main(["run", "square-translate", "--res", "8", "--steps", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert f"wrote 2 records to {tmp_path / 'out'}/errors.csv" in out
    assert "   8 upwind l1=" in out
    assert "   8 weno7  l1=" in out


def test_cli_slope_happy_path(tmp_path, capsys):
    from lieform.output import write_error_table
    path = tmp_path / "errors.csv"
    write_error_table(path, _table([8e-2, 4e-2, 2e-2]))
    assert main(["slope", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("upwind l1 ")
    assert float(lines[0].split()[2]) == pytest.approx(1.0, abs=1e-6)
    write_error_table(path, _table([0.0, 0.0, 0.0]))
    main(["slope", str(path)])
    assert "upwind l1 exact" in capsys.readouterr().out


def test_cli_exit_codes(tmp_path, capsys):
    assert main([]) == 2
    assert main(["run", "nope"]) == 2
    assert main(["run", "square-translate", "--res", "abc"]) == 2
    # base dt 1.0 at 48^2 blows straight through the courant limit
    capsys.readouterr()
    assert main(["run", "square-translate", "--dt", "1.0",
                 "--out", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: step 1 (upwind, 48x48): courant number")
    # the lockstep equivalence scenario names its failing step the same way
    assert main(["run", "volume-2form-equivalence", "--res", "16", "--dt", "1.0",
                 "--out", str(tmp_path / "e")]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: step 1 (upwind, 16x16): courant number")
    # advect checks the Courant number before its observer dumps state 0,
    # and a run's directory is made with that dump, so none is left
    for name in ("c", "e"):
        assert not list((tmp_path / name).rglob("*"))
    # a time step or step count that is no step at all is a configuration
    # error, caught before any directory is made
    for dt in ("0", "-0.001", "inf", "nan"):
        assert main(["run", "square-translate", "--dt", dt,
                     "--out", str(tmp_path / "dt")]) == 2
    assert main(["run", "convergence-smooth-constant", "--steps", "0",
                 "--out", str(tmp_path / "steps")]) == 2
    assert not (tmp_path / "dt").exists()
    assert not (tmp_path / "steps").exists()
    # a step count too large to count is a configuration error too,
    # raised before the first step
    capsys.readouterr()
    assert main(["run", "square-translate", "--dt", "1e-320",
                 "--out", str(tmp_path / "tiny")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: time step 1e-320 ")
    assert not list((tmp_path / "tiny").glob("*/field_*"))
    # a step count that can be counted but not run in any sensible time
    # is refused the same way, not run until the process is killed
    assert main(["run", "square-translate", "--res", "8", "--dt", "1e-300",
                 "--out", str(tmp_path / "huge")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: time step 1e-300 is too small: "
                          "it needs 1e+300 steps")
    assert not (tmp_path / "huge").exists()
    assert main(["run", "square-translate", "--res", "8", "--steps", "10000001",
                 "--out", str(tmp_path / "many")]) == 2
    assert not (tmp_path / "many").exists()
    assert main(["slope", str(tmp_path / "missing.csv")]) == 4
    short = tmp_path / "short.csv"
    from lieform.output import write_error_table
    write_error_table(short, _table([8e-2, 4e-2], res=(16, 32)))
    assert main(["slope", str(short)]) == 2
    # a table holding a norm that is no number at all is rejected, not fitted
    nan_table = tmp_path / "nan.csv"
    nan_table.write_text(CSV_HEADER + "\n" + "".join(
        f"{n},weno7,nan,0.1,1.0\n" for n in (16, 32, 64)))
    capsys.readouterr()
    assert main(["slope", str(nan_table)]) == 2
    captured = capsys.readouterr()
    assert "weno7 l1" not in captured.out
    assert captured.err.startswith(
        f"configuration error: {nan_table}: row '16,weno7,nan,0.1,1.0': "
        "l1 norm must be finite and non-negative, got nan")
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    assert main(["run", "square-translate", "--res", "8", "--steps", "1",
                 "--out", str(blocker / "sub")]) == 4
    capsys.readouterr()


def test_cli_entry_point_subprocess(tmp_path):
    binary = shutil.which("lieform")
    assert binary, "console script lieform is not installed"
    proc = subprocess.run(
        [binary, "run", "scalar-0form", "--res", "8", "--steps", "1",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "wrote 2 records" in proc.stdout
    assert (tmp_path / "out" / "errors.csv").exists()
