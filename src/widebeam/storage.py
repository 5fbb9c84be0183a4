"""Bit-stable file formats: codebook JSON and evaluation/sweep CSV.

Floats are always written with 17 significant digits, enough to round-trip
IEEE doubles exactly, and the reader turns the `-0` that this writes for a
negative zero back into -0.0, so write -> read -> write is byte-identical.

The writer emits schema version 2 from the book's (L, N) weight block,
`book.weights`.  Every book the library builds is one beam shifted to
each zone center, so a book whose rows check out as row 0 shifted by
steering(c_l - c_0) to the partition's centers c_l, to MODULUS_TOL, is
stored as `reference_beam` (row 0, bit for bit) and `centers`.  Each
stored center must be the one the stored boundaries give, bit for bit,
and the reader rebuilds the whole block from the reference beam and those
centers in one steering product.  Any other book keeps the `beams` rows
of version 1.  Version 2 also names the zone `intervals` mapping, which
the reader of a version 1 file has to guess from `delta_omega`.  Both
versions are read; only version 2 is written.

The writer fills each row from one `%.17g` template; the reader checks a
row one weight at a time (a shift book has one row, `reference_beam`).
Every number must be a finite JSON number that fits a double.  The
reader checks each field before it builds anything from it and reports
the JSON pointer of the first offending field in document order.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .array_model import MODULUS_TOL, SystemConfig, phase_powers
from .codebook import Codebook
from .zones import MAPPINGS, ZonePartition, zone_intervals

SCHEMA_VERSION = 2


class CodebookFormatError(ValueError):
    """Malformed codebook file; `pointer` locates the offending field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer or '/'}: {message}")


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _pairs(weights: np.ndarray) -> str:
    """`[re, im], ...` text of a weight vector; `%.17g` matches _f exactly."""
    return ", ".join(["[%.17g, %.17g]"] * weights.size) % tuple(
        weights.view(np.float64).tolist())


def _shifted(reference: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Rows reference * steering(c_l - c_0), C-ordered; row 0 is reference
    bit for bit.  The steering table is built by doubling (phase_powers)."""
    rows = np.multiply(phase_powers(reference.size, centers[0] - centers).T,
                       reference, order="C")
    rows[0] = reference  # a product with 1 + 0j can flip the sign of a zero
    return rows


def _reference_beam(cb: Codebook) -> np.ndarray | None:
    """Beam 0 if every beam is beam 0 shifted between the partition's
    centers, to MODULUS_TOL; None otherwise."""
    derived = _shifted(cb.weights[0], cb.partition.centers())
    return cb.weights[0] if np.abs(cb.weights - derived).max() <= MODULUS_TOL else None


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
        f'  "intervals": "{cb.partition.mapping}",',
    ]
    reference = _reference_beam(cb)
    if reference is not None:
        lines.append(f'  "reference_beam": [{_pairs(reference)}],')
        lines.append('  "centers": [' + ", ".join(_f(x) for x in cb.partition.centers()) + "]")
    else:
        lines.append('  "beams": [')
        lines.append(",\n".join([f"    [{_pairs(w)}]" for w in cb.weights]))
        lines.append("  ]")
    # ending the last line with the newline lets one join build the text; a
    # trailing `+ "\n"` would copy all of it once more
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


def _json_int(literal: str):
    # `%.17g` writes -0.0 as `-0`; json would read that as the integer 0
    return -0.0 if literal == "-0" else int(literal)


def _weight_row(row, n: int, pointer: str) -> np.ndarray:
    """One checked `[[re, im], ...]` row of n constant-modulus weights."""
    _require(isinstance(row, list), pointer, "expected a list")
    _require(len(row) == n, pointer, f"expected {n} weights for n={n}")
    flat = []
    for k, pair in enumerate(row):
        _require(isinstance(pair, list) and len(pair) == 2,
                 f"{pointer}/{k}", "expected an [re, im] pair")
        flat.append(_number(pair[0], f"{pointer}/{k}/0"))
        flat.append(_number(pair[1], f"{pointer}/{k}/1"))
    w = np.array(flat).view(complex)
    dev = np.abs(np.abs(w) - 1.0 / np.sqrt(n)).max()
    _require(dev <= MODULUS_TOL, pointer,
             f"constant-modulus violation (max deviation {dev:.3e})")
    return w


def _shifted_beams(doc: dict, n: int, partition: ZonePartition) -> np.ndarray:
    """The (l, n) weights of a `reference_beam` + `centers` payload.

    Each stored center must be the partition's, bit for bit (the sign of a
    zero included), which every written file meets; the beams are rebuilt
    from the partition's centers."""
    _require("beams" not in doc, "/beams", "not allowed next to reference_beam")
    reference = _weight_row(doc["reference_beam"], n, "/reference_beam")
    centers = partition.centers()
    l = centers.size
    centers_doc = doc.get("centers")
    _require(isinstance(centers_doc, list), "/centers", "expected a list")
    _require(len(centers_doc) == l, "/centers", f"expected {l} centers for l={l}")
    for i, (v, c) in enumerate(zip(centers_doc, centers)):
        x = _number(v, f"/centers/{i}")
        _require(x == c and math.copysign(1.0, x) == math.copysign(1.0, c),
                 f"/centers/{i}", f"must be the center {_f(c)} of zone {i + 1}")
    return _shifted(reference, centers)


def parse_codebook(text: str) -> tuple[Codebook, SystemConfig]:
    """Validate and reconstruct a codebook from JSON text.

    Raises CodebookFormatError with a JSON pointer on the first structural
    problem.  The zone intervals are rebuilt from the stored boundaries
    with the stored mapping.  A version 1 file names none: its mapping is
    "banded" if the stored bandwidth reproduces the stored width, "sine"
    otherwise (the narrowband file stores its zero-band partition
    alongside a nonzero operating bandwidth).
    """
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as e:
        raise CodebookFormatError("", f"not valid JSON: {e}") from e
    _require(isinstance(doc, dict), "", "top level must be an object")
    version = doc.get("version")
    _require(version in (1, 2), "/version", "expected 1 or 2")

    conf = doc.get("config")
    _require(isinstance(conf, dict), "/config", "expected an object")
    f_c = _number(conf.get("f_c_hz"), "/config/f_c_hz")
    b = _number(conf.get("b_hz"), "/config/b_hz")
    _require(f_c > 0, "/config/f_c_hz", "must be positive")
    _require(0 <= b < 2 * f_c, "/config/b_hz", "must satisfy 0 <= b < 2*f_c")
    n = conf.get("n")
    l = conf.get("l")
    # exact ints: isinstance would take a JSON true as 1
    _require(type(n) is int and n >= 1, "/config/n", "expected integer >= 1")
    _require(type(l) is int and l >= 1, "/config/l", "expected integer >= 1")

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

    mapping = None
    if version == 2:
        mapping = doc.get("intervals")
        _require(mapping in MAPPINGS, "/intervals", 'expected "banded" or "sine"')

    cfg = SystemConfig(f_c=f_c, B=b, N=n, L=l)
    if mapping is None:
        widths = np.diff(zone_intervals(cfg, bvals, "banded"), axis=1)[:, 0]
        mapping = "banded" if np.abs(widths - delta).max() <= 1e-9 else "sine"
    partition = ZonePartition(bvals, delta, zone_intervals(cfg, bvals, mapping), mapping)

    if version == 2 and "reference_beam" in doc:
        weights = _shifted_beams(doc, n, partition)
    else:
        beams_doc = doc.get("beams")
        _require(isinstance(beams_doc, list), "/beams", "expected a list")
        _require(len(beams_doc) == l, "/beams", f"expected {l} beams for l={l}")
        weights = np.array([_weight_row(row, n, f"/beams/{i}")
                            for i, row in enumerate(beams_doc)])
    cb = Codebook.assemble(weights, partition, cfg, solver_cfg=None, kind="loaded")
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
