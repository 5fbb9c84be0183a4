"""Bit-stable file formats: codebook JSON and evaluation/sweep CSV.

Floats are always written with 17 significant digits, enough to round-trip
IEEE doubles exactly, so write -> read -> write is byte-identical.  The
codebook writer fills one `%.17g` template per beam row, and the reader
checks and stores one row at a time, so neither runs a Python loop per
number.  Every number must be a finite JSON number that fits a double.  The
reader validates structure before constructing anything and reports the
JSON pointer of the first offending field in document order.
"""

from __future__ import annotations

import json
import math
import warnings
from itertools import chain

import numpy as np

from .array_model import MODULUS_TOL, BeamVector, SystemConfig
from .codebook import Codebook
from .zones import ZonePartition, virtual_interval

SCHEMA_VERSION = 1


class CodebookFormatError(ValueError):
    """Malformed codebook file; `pointer` locates the offending field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer or '/'}: {message}")


def _f(x: float) -> str:
    return format(float(x), ".17g")


def codebook_json(cb: Codebook) -> str:
    """Canonical JSON text for a codebook; fixed key order, LF line endings."""
    c = cb.provenance["config"]
    lines = [
        "{",
        f'  "version": {SCHEMA_VERSION},',
        '  "config": {'
        f'"f_c_hz": {_f(c["f_c"])}, "b_hz": {_f(c["B"])}, '
        f'"n": {int(c["N"])}, "l": {int(c["L"])}}},',
        f'  "delta_omega": {_f(cb.partition.delta_omega)},',
        '  "boundaries_rad": [' + ", ".join(_f(b) for b in cb.partition.boundaries) + "],",
        '  "beams": [',
    ]
    # `%.17g` gives the same text as format(x, ".17g") for every double
    row = "    [" + ", ".join(["[%.17g, %.17g]"] * int(c["N"])) + "]"
    lines.append(",\n".join([row % tuple(w.weights.view(np.float64).tolist())
                              for w in cb.beams]))
    # ending the last line with the newline lets one join build the text; a
    # trailing `+ "\n"` would copy all of it once more
    lines.append("  ]")
    lines.append("}\n")
    return "\n".join(lines)


def write_codebook(path, cb: Codebook) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(codebook_json(cb))


def _require(cond: bool, pointer: str, message: str) -> None:
    if not cond:
        raise CodebookFormatError(pointer, message)


def _number(value, pointer: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             pointer, "expected a number")
    try:
        x = float(value)
    except OverflowError:  # a JSON integer beyond the double range
        x = math.inf
    _require(math.isfinite(x), pointer, "expected a finite number")
    return x


_NUMBER_TYPES = {float, int}  # exact types, so bools are rejected


def _fill_row(row, n: int, out: np.ndarray) -> bool:
    """Copy one `[[re, im], ...]` beam row into `out` (2n doubles).

    Returns False, with `out` unspecified, when any check fails: the row is
    not a list of n pairs, a value is not a JSON number, or a value is not
    finite as a double.  Every check runs at C speed over the whole row.
    """
    if type(row) is not list or len(row) != n:
        return False
    if set(map(type, row)) != {list} or set(map(len, row)) != {2}:
        return False
    flat = list(chain.from_iterable(row))
    if not set(map(type, flat)) <= _NUMBER_TYPES:
        return False
    try:
        out[:] = flat
    except OverflowError:
        return False
    return bool(np.isfinite(out).all())


def _row_fault(row, n: int, pointer: str) -> None:
    """Raise at the first field of a row that `_fill_row` rejected."""
    _require(isinstance(row, list), pointer, "expected a list")
    _require(len(row) == n, pointer, f"expected {n} weights for n={n}")
    for k, pair in enumerate(row):
        _require(isinstance(pair, list) and len(pair) == 2,
                 f"{pointer}/{k}", "expected an [re, im] pair")
        _number(pair[0], f"{pointer}/{k}/0")
        _number(pair[1], f"{pointer}/{k}/1")
    # _fill_row rejects exactly the rows with one of the faults above
    raise CodebookFormatError(pointer, "malformed beam row")


def parse_codebook(text: str) -> tuple[Codebook, SystemConfig]:
    """Validate and reconstruct a codebook from JSON text.

    Raises CodebookFormatError with a JSON pointer on the first structural
    problem.  The zone intervals are rebuilt from the stored boundaries:
    with the stored bandwidth if that reproduces the stored width, with the
    plain sine mapping otherwise (the narrowband file stores its zero-band
    partition alongside a nonzero operating bandwidth).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CodebookFormatError("", f"not valid JSON: {e}") from e
    _require(isinstance(doc, dict), "", "top level must be an object")
    _require(doc.get("version") == SCHEMA_VERSION, "/version",
             f"expected {SCHEMA_VERSION}")

    conf = doc.get("config")
    _require(isinstance(conf, dict), "/config", "expected an object")
    f_c = _number(conf.get("f_c_hz"), "/config/f_c_hz")
    b = _number(conf.get("b_hz"), "/config/b_hz")
    _require(f_c > 0, "/config/f_c_hz", "must be positive")
    _require(0 <= b < 2 * f_c, "/config/b_hz", "must satisfy 0 <= b < 2*f_c")
    n = conf.get("n")
    l = conf.get("l")
    _require(isinstance(n, int) and n >= 1, "/config/n", "expected integer >= 1")
    _require(isinstance(l, int) and l >= 1, "/config/l", "expected integer >= 1")

    delta = _number(doc.get("delta_omega"), "/delta_omega")
    _require(delta > 0, "/delta_omega", "must be positive")

    bounds = doc.get("boundaries_rad")
    _require(isinstance(bounds, list), "/boundaries_rad", "expected a list")
    _require(len(bounds) == l + 1, "/boundaries_rad",
             f"expected {l + 1} boundaries for l={l}")
    bvals = np.array([_number(v, f"/boundaries_rad/{i}") for i, v in enumerate(bounds)])
    _require(bool(np.all(np.diff(bvals) > 0)), "/boundaries_rad",
             "must be strictly increasing")
    _require(abs(bvals[0] + np.pi / 2) <= 1e-9 and abs(bvals[-1] - np.pi / 2) <= 1e-9,
             "/boundaries_rad", "must span [-pi/2, pi/2]")

    beams_doc = doc.get("beams")
    _require(isinstance(beams_doc, list), "/beams", "expected a list")
    _require(len(beams_doc) == l, "/beams", f"expected {l} beams for l={l}")
    # size the array by n only once a row has been seen to hold n pairs
    if not (isinstance(beams_doc[0], list) and len(beams_doc[0]) == n):
        _row_fault(beams_doc[0], n, "/beams/0")
    weights = np.empty((l, n), dtype=complex)
    values = weights.view(np.float64)
    for i, row in enumerate(beams_doc):
        if not _fill_row(row, n, values[i]):
            _row_fault(row, n, f"/beams/{i}")
        dev = np.abs(np.abs(weights[i]) - 1.0 / np.sqrt(n)).max()
        _require(dev <= MODULUS_TOL, f"/beams/{i}",
                 f"constant-modulus violation (max deviation {dev:.3e})")
    beams = [BeamVector(w) for w in weights]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a stored L < N file is still readable
        cfg = SystemConfig(f_c=f_c, B=b, N=n, L=l)
    banded = np.array([virtual_interval(cfg, bvals[i], bvals[i + 1])
                       for i in range(l)])
    if np.abs((banded[:, 1] - banded[:, 0]) - delta).max() <= 1e-9:
        intervals = banded
    else:
        s = np.sin(bvals)
        intervals = np.stack([s[:-1], s[1:]], axis=1)
    partition = ZonePartition(boundaries=bvals, delta_omega=delta, intervals=intervals)
    cb = Codebook.assemble(tuple(beams), partition, cfg, solver_cfg=None, kind="loaded")
    return cb, cfg


def read_codebook(path) -> tuple[Codebook, SystemConfig]:
    with open(path, encoding="utf-8") as fh:
        return parse_codebook(fh.read())


def write_eval_csv(path, report) -> None:
    """Rows phi_deg,gain,best_beam; dot decimals, LF endings, header first."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("phi_deg,gain,best_beam\n")
        for phi, g, idx in zip(report.angles, report.gains, report.best_indices):
            fh.write(f"{_f(np.degrees(phi))},{_f(g)},{int(idx)}\n")


def write_sweep_csv(path, rows) -> None:
    """Rows N,B_GHz,worst_case,bound; empty worst_case for bound-only sweeps."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("N,B_GHz,worst_case,bound\n")
        for n, b_ghz, worst, bound in rows:
            worst_s = "" if worst is None else _f(worst)
            fh.write(f"{int(n)},{_f(b_ghz)},{worst_s},{_f(bound)}\n")
