"""File formats: canonical codebook JSON and the two CSV writers."""

import json
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from widebeam import SystemConfig, build_codebook, evaluate, narrowband_codebook
from widebeam.array_model import MODULUS_TOL, BeamVector
from widebeam.storage import (
    CodebookFormatError,
    codebook_json,
    parse_codebook,
    read_codebook,
    write_codebook,
    write_eval_csv,
    write_sweep_csv,
)


@pytest.fixture(scope="module")
def small_designed():
    return build_codebook(SystemConfig(f_c=140e9, B=10e9, N=8, L=16))


def doc_of(cb):
    return json.loads(codebook_json(cb))


# an integer too large for a double: 1 followed by 400 zeros
HUGE = 10 ** 400


def oracle_codebook_json(cb):
    """The per-element writer the templated one replaced, kept as reference."""
    def f(x):
        return format(float(x), ".17g")

    c = cb.provenance["config"]
    lines = [
        "{",
        '  "version": 1,',
        '  "config": {'
        f'"f_c_hz": {f(c["f_c"])}, "b_hz": {f(c["B"])}, '
        f'"n": {int(c["N"])}, "l": {int(c["L"])}}},',
        f'  "delta_omega": {f(cb.partition.delta_omega)},',
        '  "boundaries_rad": [' + ", ".join(f(b) for b in cb.partition.boundaries) + "],",
        '  "beams": [',
    ]
    beam_rows = []
    for w in cb.beams:
        pairs = ", ".join(f"[{f(v.real)}, {f(v.imag)}]" for v in w.weights)
        beam_rows.append(f"    [{pairs}]")
    lines.append(",\n".join(beam_rows))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _oracle_require(cond, pointer, message):
    if not cond:
        raise CodebookFormatError(pointer, message)


def _oracle_number(value, pointer):
    _oracle_require(isinstance(value, (int, float)) and not isinstance(value, bool),
                    pointer, "expected a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    _oracle_require(finite, pointer, "expected a finite number")
    return float(value)


def oracle_beams(doc):
    """The per-element beam reader the row-wise one replaced, kept as reference.

    Walks `doc["beams"]` of an otherwise valid document and returns the
    (L, N) weights, or raises at the first bad field in document order.
    """
    n = doc["config"]["n"]
    rows = []
    for i, row in enumerate(doc["beams"]):
        _oracle_require(isinstance(row, list), f"/beams/{i}", "expected a list")
        _oracle_require(len(row) == n, f"/beams/{i}", f"expected {n} weights for n={n}")
        w = np.empty(n, dtype=complex)
        for k, pair in enumerate(row):
            _oracle_require(isinstance(pair, list) and len(pair) == 2,
                            f"/beams/{i}/{k}", "expected an [re, im] pair")
            w[k] = complex(_oracle_number(pair[0], f"/beams/{i}/{k}/0"),
                           _oracle_number(pair[1], f"/beams/{i}/{k}/1"))
        dev = np.abs(np.abs(w) - 1.0 / np.sqrt(n)).max()
        _oracle_require(dev <= MODULUS_TOL, f"/beams/{i}",
                        f"constant-modulus violation (max deviation {dev:.3e})")
        rows.append(w)
    return np.array(rows)


def loaded_weights(cb):
    return np.stack([w.weights for w in cb.beams])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestRoundTrip:
    def test_write_read_write_is_byte_identical(self, small_designed):
        text = codebook_json(small_designed)
        again, _ = parse_codebook(text)
        assert codebook_json(again) == text

    def test_seventeen_digits_reproduce_every_double(self, cfg16, small_designed):
        for cb in (narrowband_codebook(cfg16), small_designed):
            loaded, _ = parse_codebook(codebook_json(cb))
            assert np.array_equal(loaded.partition.boundaries,
                                  cb.partition.boundaries)
            assert loaded.partition.delta_omega == cb.partition.delta_omega
            for wa, wb in zip(loaded.beams, cb.beams):
                assert np.array_equal(wa.weights, wb.weights)

    def test_file_round_trip(self, tmp_path, small_designed):
        path = tmp_path / "cb.json"
        write_codebook(path, small_designed)
        loaded, cfg = read_codebook(path)
        assert cfg == SystemConfig(f_c=140e9, B=10e9, N=8, L=16)
        assert len(loaded) == 16
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"]\n}\n")

    def test_loaded_codebook_evaluates_identically(self, small_designed):
        cfg = SystemConfig(f_c=140e9, B=10e9, N=8, L=16)
        loaded, cfg2 = parse_codebook(codebook_json(small_designed))
        a = evaluate(cfg, small_designed)
        b = evaluate(cfg2, loaded)
        assert np.array_equal(a.gains, b.gains)
        assert a.worst_case == b.worst_case

    def test_single_antenna_zero_band_book(self):
        # N=1 weights are exactly 1 + 0j, which 17 significant digits write
        # as the JSON integers 1 and 0
        book = narrowband_codebook(SystemConfig(f_c=140e9, B=0.0, N=1, L=2))
        text = codebook_json(book)
        assert "    [[1, 0]],\n    [[1, 0]]\n" in text
        again, cfg = parse_codebook(text)
        assert (cfg.N, cfg.L, cfg.B) == (1, 2, 0.0)
        assert codebook_json(again) == text

    def test_rewriting_the_same_book_is_stable(self, tmp_path, small_designed):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_codebook(p1, small_designed)
        write_codebook(p2, small_designed)
        assert p1.read_bytes() == p2.read_bytes()


@lru_cache(maxsize=None)
def zero_band_book(n, l):
    return narrowband_codebook(SystemConfig(f_c=140e9, B=0.0, N=n, L=l))


def unit_pairs(n):
    """[re, im] of modulus 1/sqrt(n): on the axes (signed zeros included),
    at a drawn phase, or with one component small enough to need an
    exponent in its 17-digit text."""
    a = 1.0 / math.sqrt(n)
    axis = st.sampled_from([(a, 0.0), (-a, -0.0), (0.0, a), (-0.0, -a),
                            (a, -0.0), (-0.0, a)])
    phase = st.floats(-math.pi, math.pi).map(lambda t: (a * math.cos(t), a * math.sin(t)))
    small = st.tuples(st.floats(1e-300, 1e-5), st.booleans(), st.booleans()).map(
        lambda d: _with_small(a, *d))
    return st.one_of(axis, phase, small)


def _with_small(a, t, negative, swap):
    pair = (math.sqrt(a * a - t * t), -t if negative else t)
    return pair[::-1] if swap else pair


@st.composite
def drawn_books(draw):
    n = draw(st.integers(1, 6))
    l = draw(st.integers(n, n + 3))
    base = zero_band_book(n, l)
    pairs = st.lists(unit_pairs(n), min_size=n, max_size=n)
    beams = [BeamVector(np.array([complex(*p) for p in draw(pairs)]))
             for _ in range(l)]
    return replace(base, beams=tuple(beams))


class TestAgainstPerElementOracles:
    @settings(deadline=None, max_examples=150)
    @given(book=drawn_books())
    def test_writer_bytes_match_the_per_element_writer(self, book):
        text = codebook_json(book)
        assert text == oracle_codebook_json(book)
        loaded, _ = parse_codebook(text)
        assert same_bits(loaded_weights(loaded), oracle_beams(json.loads(text)))

    def test_writer_on_designed_and_narrowband_books(self, cfg16, small_designed):
        for cb in (small_designed, narrowband_codebook(cfg16)):
            assert codebook_json(cb) == oracle_codebook_json(cb)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_first_fault_matches_the_per_element_reader(self, small_designed, data):
        base = data.draw(st.sampled_from([small_designed, zero_band_book(1, 2),
                                          zero_band_book(3, 5)]))
        n, l = len(base.beams[0].weights), len(base)
        fault = st.tuples(st.integers(0, l - 1), st.integers(0, n - 1),
                          st.integers(0, 1), st.sampled_from(sorted(CORRUPTIONS)))
        pointer = assert_same_first_fault(base, data.draw(st.lists(fault, min_size=1, max_size=2)))
        assert pointer.startswith("/beams/")

    def test_earlier_row_wins_over_a_later_one(self, small_designed):
        pointer = assert_same_first_fault(
            small_designed, [(5, 3, 1, "string"), (2, 6, 0, "modulus")])
        assert pointer == "/beams/2"


def assert_same_first_fault(base, faults):
    """Corrupt base's beams; both readers must name the same first fault,
    and it must sit in the earliest corrupted row.  Returns its pointer."""
    doc = doc_of(base)
    for row, k, part, kind in faults:
        CORRUPTIONS[kind](doc["beams"][row], k, part)
    with pytest.raises(CodebookFormatError) as want:
        oracle_beams(doc)
    with pytest.raises(CodebookFormatError) as got:
        parse_codebook(json.dumps(doc))
    assert (got.value.pointer, str(got.value)) == (want.value.pointer, str(want.value))
    assert got.value.pointer.split("/")[2] == str(min(row for row, *_ in faults))
    return got.value.pointer


def _set(value):
    def corrupt(row, k, part):
        if row:
            row[k % len(row)][part] = value
    return corrupt


def _triple(row, k, part):
    if row:
        row[k % len(row)].append(0.0)


def _short(row, k, part):
    if row:
        row.pop()


def _off_modulus(row, k, part):
    # modulus 1.06, off 1/sqrt(n) for every n
    if row:
        row[k % len(row)] = [0.75, 0.75]


CORRUPTIONS = {
    "true": _set(True),
    "string": _set("x"),
    "null": _set(None),
    "nan": _set(float("nan")),
    "infinity": _set(float("inf")),
    "-infinity": _set(float("-inf")),
    "huge integer": _set(HUGE),
    "three-element pair": _triple,
    "short row": _short,
    "modulus": _off_modulus,
}


class TestPartitionReconstruction:
    def test_banded_intervals_when_width_matches(self, small_designed):
        loaded, _ = parse_codebook(codebook_json(small_designed))
        assert np.allclose(loaded.partition.intervals,
                           small_designed.partition.intervals, atol=1e-12)

    def test_sine_intervals_for_zero_band_partitions(self, cfg16):
        # the narrowband file pairs a B=0 partition with a nonzero operating
        # bandwidth; reconstruction must not force the banded widths onto it
        book = narrowband_codebook(cfg16)
        loaded, _ = parse_codebook(codebook_json(book))
        s = np.sin(loaded.partition.boundaries)
        assert np.allclose(loaded.partition.intervals[:, 0], s[:-1], atol=1e-15)
        assert np.allclose(loaded.partition.intervals[:, 1], s[1:], atol=1e-15)
        assert loaded.partition.delta_omega == book.partition.delta_omega


def _drop_config(d):
    del d["config"]


def _bad_version(d):
    d["version"] = 2


def _bad_fc(d):
    d["config"]["f_c_hz"] = "fast"


def _band_too_wide(d):
    d["config"]["b_hz"] = 3e11


def _fractional_n(d):
    d["config"]["n"] = 7.5


def _zero_l(d):
    d["config"]["l"] = 0


def _negative_delta(d):
    d["delta_omega"] = -0.1


def _huge_n(d):
    # no beam row can hold this many weights; sizing by it must not crash
    d["config"]["n"] = 10 ** 20


def _short_boundaries(d):
    d["boundaries_rad"].pop()


def _non_monotone(d):
    d["boundaries_rad"][3] = d["boundaries_rad"][2]


def _bad_span(d):
    d["boundaries_rad"][0] = -1.0


def _string_boundary(d):
    d["boundaries_rad"][1] = "x"


def _short_beams(d):
    d["beams"].pop()


def _short_row(d):
    d["beams"][0].pop()


def _lonely_pair(d):
    d["beams"][0][2] = [1.0]


def _string_imag(d):
    d["beams"][0][2] = [0.9, "x"]


def _infinite_real(d):
    d["beams"][1][0] = [float("inf"), 0.0]


def _wrong_modulus(d):
    d["beams"][0][0] = [1.0, 0.0]


def _huge_fc(d):
    d["config"]["f_c_hz"] = HUGE


def _huge_delta(d):
    d["delta_omega"] = HUGE


def _huge_weight(d):
    d["beams"][1][0] = [-HUGE, 0.0]


class TestParseErrors:
    @pytest.mark.parametrize("mutate, pointer", [
        (_bad_version, "/version"),
        (_drop_config, "/config"),
        (_bad_fc, "/config/f_c_hz"),
        (_band_too_wide, "/config/b_hz"),
        (_fractional_n, "/config/n"),
        (_zero_l, "/config/l"),
        (_huge_n, "/beams/0"),
        (_negative_delta, "/delta_omega"),
        (_short_boundaries, "/boundaries_rad"),
        (_non_monotone, "/boundaries_rad"),
        (_bad_span, "/boundaries_rad"),
        (_string_boundary, "/boundaries_rad/1"),
        (_short_beams, "/beams"),
        (_short_row, "/beams/0"),
        (_lonely_pair, "/beams/0/2"),
        (_string_imag, "/beams/0/2/1"),
        (_infinite_real, "/beams/1/0/0"),
        (_wrong_modulus, "/beams/0"),
    ])
    def test_pointer_locates_the_first_problem(self, small_designed, mutate, pointer):
        doc = doc_of(small_designed)
        mutate(doc)
        with pytest.raises(CodebookFormatError) as err:
            parse_codebook(json.dumps(doc))
        assert err.value.pointer == pointer
        assert str(err.value).startswith(pointer)

    @pytest.mark.parametrize("mutate, pointer", [
        (_huge_fc, "/config/f_c_hz"),
        (_huge_delta, "/delta_omega"),
        (_huge_weight, "/beams/1/0/0"),
    ])
    def test_huge_integers_are_not_finite(self, small_designed, mutate, pointer):
        doc = doc_of(small_designed)
        mutate(doc)
        with pytest.raises(CodebookFormatError) as err:
            parse_codebook(json.dumps(doc))
        assert err.value.pointer == pointer
        assert str(err.value) == f"{pointer}: expected a finite number"

    def test_modulus_message_names_the_violation(self, small_designed):
        doc = doc_of(small_designed)
        _wrong_modulus(doc)
        with pytest.raises(CodebookFormatError, match="constant-modulus"):
            parse_codebook(json.dumps(doc))

    def test_truncated_json(self):
        with pytest.raises(CodebookFormatError) as err:
            parse_codebook('{"version": 1, "config"')
        assert err.value.pointer == ""
        assert "not valid JSON" in str(err.value)

    def test_top_level_must_be_an_object(self):
        with pytest.raises(CodebookFormatError) as err:
            parse_codebook("[]")
        assert err.value.pointer == ""


class TestCsv:
    def test_eval_rows(self, tmp_path, cfg16):
        report = evaluate(cfg16, narrowband_codebook(cfg16))
        path = tmp_path / "eval.csv"
        write_eval_csv(path, report)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "phi_deg,gain,best_beam"
        assert len(lines) == report.angles.size + 1
        first = lines[1].split(",")
        assert float(first[0]) == np.degrees(report.angles[0]) == -90.0
        assert float(first[1]) == report.gains[0]
        assert first[2] == str(int(report.best_indices[0]))
        assert b"\r" not in path.read_bytes()

    def test_sweep_rows_and_empty_worst(self, tmp_path):
        rows = [(16, 0.0, None, 32.0), (16, 10.0, 8.5, 27.96)]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "N,B_GHz,worst_case,bound"
        assert lines[1] == "16,0,,32"
        cells = lines[2].split(",")
        assert cells[0] == "16" and float(cells[1]) == 10.0
        assert float(cells[2]) == 8.5 and float(cells[3]) == 27.96
