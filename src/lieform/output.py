"""Artifact I/O: error tables, plain-text field dumps, raster images.

Everything here is deterministic byte-for-byte given the same inputs:
floats are written with repr (shortest round-trip) and rows follow the
caller's order. Field dumps carry a four-line header (degree, nx, ny, h)
followed by one value per line in canonical index order.

Field dumps stream through one open file, so their memory does not grow
with the field beyond its values array. write_field formats DUMP_CHUNK
values at a time: besides the cochain it holds one chunk's Python
floats, repr strings and joined text, about 0.45 MB at 4096 values
whatever the grid (tracemalloc peak). read_field parses one line at a
time into the array it returns. Building the whole text instead held
about 15 bytes per byte of values (3.8 MB for a 128^2 1-form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import filterfalse
from pathlib import Path

import numpy as np

from .forms import Cochain
from .grid import build_complex, shifted
from .reconstruct import SchemeKind

CSV_HEADER = "resolution,scheme,l1,l2,runtime_ms"

# Values formatted per write by write_field.
DUMP_CHUNK = 4096


@dataclass(frozen=True)
class ErrorRecord:
    resolution: int
    scheme: SchemeKind
    l1: float
    l2: float
    runtime_ms: float

    def __post_init__(self) -> None:
        for name in ("l1", "l2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"{name} norm must be finite and non-negative, got "
                    f"{value!r} (resolution {self.resolution}, scheme "
                    f"{self.scheme.value})")


def write_error_table(path, records) -> None:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.resolution},{r.scheme.value},{r.l1!r},{r.l2!r},{r.runtime_ms!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_error_table(path) -> list[ErrorRecord]:
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: expected header {CSV_HEADER!r}")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}: malformed row {ln!r}")
        try:
            records.append(ErrorRecord(
                resolution=int(parts[0]),
                scheme=SchemeKind.from_name(parts[1]),
                l1=float(parts[2]),
                l2=float(parts[3]),
                runtime_ms=float(parts[4])))
        except ValueError as err:
            raise ValueError(f"{path}: row {ln!r}: {err}") from None
    return records


def write_field(path, omega: Cochain) -> None:
    """Header, then one repr per value, written DUMP_CHUNK values at a time.

    The file reads "\n".join(header + [repr(v) for v in values]) + "\n".
    """
    g = omega.grid
    values = omega.values
    with open(path, "w") as f:
        f.write(f"degree {omega.degree}\nnx {g.nx}\nny {g.ny}\nh {g.h!r}\n")
        for start in range(0, values.size, DUMP_CHUNK):
            f.write("\n".join(map(repr, values[start:start + DUMP_CHUNK].tolist())))
            f.write("\n")


def _bad_row(f, start):
    """The error of the first value line from start that does not parse,
    naming its line in the file; None when every line parses."""
    f.seek(start)
    for number, line in enumerate(f, start=5):
        if not line.isspace():
            try:
                float(line.rstrip("\n"))
            except ValueError as err:
                return ValueError(f"{err} (line {number})")
    return None


def read_field(path) -> Cochain:
    with open(path) as f:
        header = {}
        for _ in range(4):
            line = f.readline()
            if not line:
                raise ValueError(f"{path}: truncated field dump")
            key, _, raw = line.rstrip("\n").partition(" ")
            header[key] = raw
        start = f.tell()
        try:
            degree = int(header["degree"])
            grid = build_complex(int(header["nx"]), int(header["ny"]),
                                 float(header["h"]))
            # Blank lines are skipped; the parse runs in C iterators, and
            # only a row that does not parse reads the file again to
            # name its line.
            try:
                values = np.fromiter(map(float, filterfalse(str.isspace, f)),
                                     dtype=np.float64)
            except ValueError as err:
                raise (_bad_row(f, start) or err) from None
            return Cochain(grid, degree, values)
        except KeyError as missing:
            raise ValueError(f"{path}: header line {missing} missing") from None
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None


@dataclass(frozen=True)
class RasterImage:
    pixels: np.ndarray   # (ny, nx) uint8, row j=0 at the bottom
    vmin: float
    vmax: float

    @property
    def degenerate(self) -> bool:
        return self.vmin == self.vmax


def render_field(omega: Cochain) -> RasterImage:
    """Per-cell magnitude raster with linear min-max normalization.

    Degree 0 averages |corner values|, degree 1 takes the root mean
    square of the four boundary edges, degree 2 uses |cell value|.
    """
    if omega.degree == 0:
        a = np.abs(omega.plane())
        mag = (a + shifted(a, di=1) + shifted(a, dj=1) + shifted(a, di=1, dj=1)) / 4.0
    elif omega.degree == 1:
        wx = omega.component("x")
        wy = omega.component("y")
        mag = np.sqrt((wx ** 2 + shifted(wx, dj=1) ** 2
                       + wy ** 2 + shifted(wy, di=1) ** 2) / 4.0)
    elif omega.degree == 2:
        mag = np.abs(omega.plane())
    else:
        raise ValueError(f"cannot render degree {omega.degree}")
    vmin = float(mag.min())
    vmax = float(mag.max())
    if vmax > vmin:
        pixels = np.rint((mag - vmin) / (vmax - vmin) * 255.0).astype(np.uint8)
    else:
        pixels = np.zeros(mag.shape, dtype=np.uint8)
    return RasterImage(pixels, vmin, vmax)


def write_pgm(path, image: RasterImage) -> None:
    """Binary PGM (P5), top row last in grid order, plus a sidecar.

    The normalization metadata goes to "<name>.pgm.txt" next to the image,
    appended rather than substituted so it can never shadow a field dump
    that shares the stem.
    """
    path = Path(path)
    ny, nx = image.pixels.shape
    header = f"P5\n{nx} {ny}\n255\n".encode("ascii")
    path.write_bytes(header + np.flipud(image.pixels).tobytes())
    sidecar = path.parent / (path.name + ".txt")
    sidecar.write_text(
        f"min {image.vmin!r}\n"
        f"max {image.vmax!r}\n"
        f"degenerate {'true' if image.degenerate else 'false'}\n")


def read_pgm(path) -> np.ndarray:
    """Pixel plane of a binary PGM, flipped back to grid row order."""
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    if parts[2] != b"255":
        raise ValueError(f"{path}: unexpected maxval {parts[2]!r}")
    try:
        nx, ny = (int(t) for t in parts[1].split())
        pixels = np.frombuffer(parts[3][:nx * ny], dtype=np.uint8).reshape(ny, nx)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return np.flipud(pixels).copy()
