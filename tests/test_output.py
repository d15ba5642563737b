"""Artifact writers and readers: CSV tables, field dumps, PGM rasters."""

import numpy as np
import pytest

from lieform.forms import Cochain
from lieform.grid import build_complex
from lieform.output import (CSV_HEADER, DUMP_CHUNK, ErrorRecord, RasterImage,
                            read_error_table, read_field, read_pgm,
                            render_field, write_error_table, write_field,
                            write_pgm)
from lieform.reconstruct import SchemeKind


def test_error_record_guard(tmp_path):
    with pytest.raises(ValueError):
        ErrorRecord(16, SchemeKind.UPWIND, -0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        ErrorRecord(16, SchemeKind.UPWIND, 0.1, -1e-30, 1.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=r"l1 norm .* \(resolution 32, "
                                             r"scheme weno7\)"):
            ErrorRecord(32, SchemeKind.WENO7, bad, 0.1, 1.0)
        with pytest.raises(ValueError, match="l2 norm"):
            ErrorRecord(32, SchemeKind.WENO7, 0.1, bad, 1.0)
        with pytest.raises(ValueError, match=r"runtime_ms .* \(resolution 32"):
            ErrorRecord(32, SchemeKind.WENO7, 0.1, 0.1, bad)
    with pytest.raises(ValueError, match="runtime_ms"):
        ErrorRecord(32, SchemeKind.WENO7, 0.1, 0.1, -1.0)
    # the resolution is a count of at least 4, the smallest grid
    for bad in (-8, 0, 3, 8.0, True, "8"):
        with pytest.raises(ValueError, match="resolution must be"):
            ErrorRecord(bad, SchemeKind.UPWIND, 0.1, 0.1, 1.0)
    assert ErrorRecord(np.int64(4), SchemeKind.UPWIND, 0.0, 0.0, 0.0)
    # the scheme is resolved first, by SchemeKind.from_name
    for bad in ("bogus", None, "WENO5"):
        with pytest.raises(ValueError, match=r"unknown scheme .* \(options: "
                                             r"upwind, weno5, weno7\)"):
            ErrorRecord(8, bad, 0.1, 0.1, 1.0)
    with pytest.raises(ValueError, match=r"l1 norm .*scheme upwind\)"):
        ErrorRecord(8, "upwind", float("nan"), 0.1, 1.0)
    record = ErrorRecord(8, "weno5", 0.1, 0.2, 1.5)
    assert record.scheme is SchemeKind.WENO5
    assert record == ErrorRecord(8, SchemeKind.WENO5, 0.1, 0.2, 1.5)
    path = tmp_path / "errors.csv"
    write_error_table(path, [record])
    assert path.read_text().splitlines()[1] == "8,weno5,0.1,0.2,1.5"
    assert read_error_table(path) == [record]


def test_error_table_round_trip(tmp_path):
    path = tmp_path / "errors.csv"
    records = [
        ErrorRecord(16, SchemeKind.UPWIND, 0.5, 0.25, 12.0),
        ErrorRecord(32, SchemeKind.WENO7, 1.0 / 3.0, 0.1 + 0.2, 7.125),
    ]
    write_error_table(path, records)
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert text.splitlines()[1] == "16,upwind,0.5,0.25,12.0"
    back = read_error_table(path)
    assert back == records


def test_error_table_rejects_bad_shapes(tmp_path):
    path = tmp_path / "errors.csv"
    path.write_text("res,scheme,l1,l2,runtime_ms\n16,upwind,1,1,1\n")
    with pytest.raises(ValueError):
        read_error_table(path)
    path.write_text(CSV_HEADER + "\n16,upwind,1,1\n")
    with pytest.raises(ValueError):
        read_error_table(path)
    path.write_text(CSV_HEADER + "\n16,weno9,1,1,1\n")
    with pytest.raises(ValueError):
        read_error_table(path)
    # a bad row names the file and the row
    path.write_text(CSV_HEADER + "\n16,upwind,1,1,1\n32,upwind,nan,1,1\n")
    with pytest.raises(ValueError, match=r"errors\.csv: row '32,upwind,nan,1,1'"):
        read_error_table(path)
    path.write_text(CSV_HEADER + "\n16,upwind,1,x,1\n")
    with pytest.raises(ValueError, match=r"errors\.csv: row .*could not convert"):
        read_error_table(path)
    # a negative resolution would send the convergence fit into the log
    # of a negative h; a nan runtime is no measurement
    for row in ("-8,upwind,0.4,0.4,1", "8,upwind,0.1,0.2,nan"):
        path.write_text(CSV_HEADER + f"\n{row}\n")
        with pytest.raises(ValueError, match=rf"errors\.csv: row '{row}'"):
            read_error_table(path)


# (nx, ny, degree) per case: degrees 0-3 below one chunk, then one
# chunk exactly, two chunks, and two chunks plus a partial third.
_ROWS = DUMP_CHUNK // 64
DUMP_CASES = {
    "0": (6, 4, 0),
    "1": (6, 4, 1),
    "2": (6, 4, 2),
    "3-empty": (6, 4, 3),
    "one-chunk": (_ROWS, 64, 0),
    "two-chunks": (_ROWS, 64, 1),
    "ragged-last-chunk": (_ROWS + 1, 64, 1),
}


@pytest.mark.parametrize("nx,ny,degree", list(DUMP_CASES.values()),
                         ids=list(DUMP_CASES))
def test_field_dump_round_trip(tmp_path, nx, ny, degree):
    rng = np.random.default_rng(55)
    g = build_complex(nx, ny, 0.125)
    size = g.cell_count(degree) if degree in (0, 1, 2) else 0
    values = rng.standard_normal(size)
    specials = (-0.0, 5e-324, 1e16, 1e-05)
    if size:
        values[:4] = specials
        values[-4:] = specials
    w = Cochain(g, degree, values)
    path = tmp_path / "field.txt"
    write_field(path, w)
    header = [f"degree {degree}", f"nx {nx}", f"ny {ny}", "h 0.125"]
    expected = "\n".join(header + [repr(v) for v in values.tolist()]) + "\n"
    assert path.read_bytes() == expected.encode()
    back = read_field(path)
    assert back.grid == g
    assert back.degree == degree
    assert np.array_equal(back.values.view(np.int64), values.view(np.int64))


def test_field_dump_skips_blank_lines(tmp_path):
    path = tmp_path / "field.txt"
    rows = ["", "0.5", "  ", "-0.0", "", "\t", "1e-05"] + ["2.5"] * 13 + ["", ""]
    path.write_text("degree 0\nnx 4\nny 4\nh 0.25\n" + "\n".join(rows) + "\n")
    back = read_field(path)
    want = np.array([0.5, -0.0, 1e-05] + [2.5] * 13)
    assert np.array_equal(back.values.view(np.int64), want.view(np.int64))


def test_field_dump_truncated(tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("degree 2\nnx 4\n")
    with pytest.raises(ValueError):
        read_field(path)
    path.write_text("nx 4\nny 4\nh 0.25\nwrong 1\n0.0\n")
    with pytest.raises(ValueError):
        read_field(path)


def test_field_dump_errors_name_the_file(tmp_path):
    path = tmp_path / "field_000007.txt"
    header = "degree 1\nnx 8\nny 8\nh 0.125\n"
    path.write_text(header + "0.5\n")
    with pytest.raises(ValueError, match=r"field_000007\.txt: degree-1 cochain "
                                         r"needs 128 values, got 1"):
        read_field(path)
    path.write_text(header + "0.5\nabc\n")
    with pytest.raises(ValueError, match=r"field_000007\.txt: could not convert"):
        read_field(path)
    with pytest.raises(ValueError, match=r"field_000007\.txt: could not convert "
                                         r"string to float: 'abc' \(line 6\)$"):
        read_field(path)
    # blank lines count: the row is the eighth line of the file
    path.write_text(header + "0.5\n\n \n1.5 x\n")
    with pytest.raises(ValueError, match=r"'1\.5 x' \(line 8\)$"):
        read_field(path)
    path.write_text("degree 2\nnx 2\nny 8\nh 0.125\n")
    with pytest.raises(ValueError, match=r"field_000007\.txt: grid must be"):
        read_field(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
def test_read_field_rejects_non_finite_values(tmp_path, bad):
    # A dump of a non-finite field would render as vmin = vmax = nan;
    # the reader names the file and the line of the first such value.
    g = build_complex(4, 4, 0.25)
    path = tmp_path / "field_000002.txt"
    write_field(path, Cochain.from_plane(g, 2, np.ones(g.shape)))
    lines = path.read_text().splitlines()
    lines[9] = bad
    lines[12] = "nan"
    path.write_text("\n".join(lines[:8] + [""] + lines[8:]) + "\n")
    with pytest.raises(ValueError, match=r"field_000002\.txt: non-finite "
                                         r"value .* \(line 11\)$"):
        read_field(path)


def test_render_1form_frozen():
    g = build_complex(6, 4, 0.25)
    wx = np.zeros(g.shape)
    wx[2, 3] = 2.0
    img = render_field(Cochain.from_components(g, wx, np.zeros(g.shape)))
    assert (img.vmin, img.vmax) == (0.0, 1.0)
    assert not img.degenerate
    assert sorted(np.argwhere(img.pixels).tolist()) == [[1, 3], [2, 3]]
    assert set(np.unique(img.pixels)) == {0, 255}


def test_render_0form_matches_loop():
    # Each cell averages |value| over its four corners, in the order
    # (i, j), (i+1, j), (i, j+1), (i+1, j+1), wrapping at the edges.
    g = build_complex(6, 4, 0.25)
    v = np.random.default_rng(17).standard_normal(g.shape)
    img = render_field(Cochain.from_plane(g, 0, v))
    ny, nx = g.shape
    a = np.abs(v).tolist()
    mag = [[(a[j][i] + a[j][(i + 1) % nx] + a[(j + 1) % ny][i]
             + a[(j + 1) % ny][(i + 1) % nx]) / 4.0 for i in range(nx)]
           for j in range(ny)]
    vmin = min(min(row) for row in mag)
    vmax = max(max(row) for row in mag)
    assert (img.vmin, img.vmax) == (vmin, vmax)
    want = [[round((m - vmin) / (vmax - vmin) * 255.0) for m in row]
            for row in mag]
    assert img.pixels.dtype == np.uint8
    assert img.pixels.tolist() == want


def test_render_degenerate_and_errors():
    g = build_complex(6, 4, 0.25)
    img = render_field(Cochain.from_plane(g, 2, np.full(g.shape, 3.5)))
    assert img.degenerate
    assert np.all(img.pixels == 0)
    assert img.vmin == img.vmax == 3.5
    with pytest.raises(ValueError):
        render_field(Cochain.empty(g, 3))


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(57)
    pixels = rng.integers(0, 256, size=(4, 6), dtype=np.uint8)
    img = RasterImage(pixels, 0.0, 1.0)
    path = tmp_path / "field_000000.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n6 4\n255\n")
    assert np.array_equal(read_pgm(path), pixels)
    sidecar = tmp_path / "field_000000.pgm.txt"
    assert sidecar.read_text() == "min 0.0\nmax 1.0\ndegenerate false\n"


def test_pgm_sidecar_never_shadows_field_dump(tmp_path):
    # dump and raster share the step stem; both must survive
    g = build_complex(6, 4, 0.25)
    w = Cochain.from_plane(g, 2, np.arange(24.0).reshape(g.shape))
    write_field(tmp_path / "field_000003.txt", w)
    write_pgm(tmp_path / "field_000003.pgm", render_field(w))
    assert (tmp_path / "field_000003.txt").read_text().startswith("degree 2")
    assert (tmp_path / "field_000003.pgm.txt").exists()
    assert np.array_equal(read_field(tmp_path / "field_000003.txt").values,
                          w.values)


def test_pgm_degenerate_sidecar(tmp_path):
    img = RasterImage(np.zeros((3, 3), dtype=np.uint8), 2.0, 2.0)
    path = tmp_path / "flat.pgm"
    write_pgm(path, img)
    assert (tmp_path / "flat.pgm.txt").read_text() == (
        "min 2.0\nmax 2.0\ndegenerate true\n")


def test_read_pgm_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n127\n" + bytes(4))
    with pytest.raises(ValueError):
        read_pgm(path)
    # a truncated raster or a bad size line names the file
    path.write_bytes(b"P5\n8 8\n255\n" + bytes(3))
    with pytest.raises(ValueError, match=r"bad\.pgm: cannot reshape"):
        read_pgm(path)
    path.write_bytes(b"P5\n8 x\n255\n" + bytes(64))
    with pytest.raises(ValueError, match=r"bad\.pgm: invalid literal"):
        read_pgm(path)
    # bytes after the raster, and sizes below 1, name the file too
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(5))
    with pytest.raises(ValueError, match=r"bad\.pgm: 1 bytes after the 2x2 "
                                         r"raster"):
        read_pgm(path)
    for size in (b"0 4", b"4 0", b"-1 4", b"-2 -2"):
        path.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(8))
        with pytest.raises(ValueError, match=r"bad\.pgm: raster size must "
                                             r"be at least 1x1"):
            read_pgm(path)
