"""File formats: canonical codebook JSON and the two CSV writers."""

import json
import logging
import math
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from widebeam import (Codebook, SystemConfig, build_codebook, evaluate,
                      narrowband_codebook, shift_beam, storage)
from widebeam.alm import SolverConfig, solve
from widebeam.array_model import MODULUS_TOL
from widebeam.cli import main
from widebeam.codebook import shift_rows
from widebeam.prv import prv_beam, prv_plan
from widebeam.storage import (
    CodebookFormatError,
    codebook_json,
    parse_codebook,
    read_codebook,
    write_codebook,
    write_eval_csv,
    write_sweep_csv,
)
from widebeam.zones import divide_zones

from test_codebook import random_cm_beam


@pytest.fixture(scope="module")
def small_designed():
    return build_codebook(SystemConfig(f_c=140e9, B=10e9, N=8, L=16))


DATA = Path(__file__).resolve().parent / "data"


def doc_of(cb):
    """The version 1 document of a book: every beam as a row."""
    return json.loads(oracle_codebook_json(cb))


def v2_doc_of(cb):
    return json.loads(codebook_json(cb))


# an integer too large for a double: 1 followed by 400 zeros
HUGE = 10 ** 400


def oracle_codebook_json(cb):
    """The per-element version 1 writer, kept as reference and as the
    source of version 1 text now that the library writes version 2."""
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
    for w in cb.weights:
        pairs = ", ".join(f"[{f(v.real)}, {f(v.imag)}]" for v in w)
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


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestRoundTrip:
    def test_write_read_write_is_byte_identical(self, small_designed):
        text = codebook_json(small_designed)
        again, _ = parse_codebook(text)
        assert codebook_json(again) == text

    def test_seventeen_digits_reproduce_every_double(self, cfg16, small_designed):
        for cb in (narrowband_codebook(cfg16), small_designed):
            loaded, _ = parse_codebook(oracle_codebook_json(cb))
            assert np.array_equal(loaded.partition.boundaries,
                                  cb.partition.boundaries)
            assert loaded.partition.delta_omega == cb.partition.delta_omega
            assert np.array_equal(loaded.weights, cb.weights)

    def test_shifted_beams_come_back(self, cfg16, small_designed):
        # designed and narrowband books are both built from row 0 by the
        # reader's shift rule, and both come back bit for bit
        for cb in (narrowband_codebook(cfg16), small_designed):
            loaded, _ = parse_codebook(codebook_json(cb))
            assert np.array_equal(loaded.partition.boundaries,
                                  cb.partition.boundaries)
            assert same_bits(loaded.partition.intervals, cb.partition.intervals)
            assert loaded.partition.mapping == cb.partition.mapping
            assert same_bits(loaded.weights, cb.weights)

    def test_book_without_config_is_refused(self, small_designed):
        book = Codebook(weights=small_designed.weights, partition=small_designed.partition,
                        provenance={})
        with pytest.raises(ValueError, match="no config.*Codebook.assemble"):
            codebook_json(book)

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
        loaded, cfg2 = parse_codebook(oracle_codebook_json(small_designed))
        a = evaluate(cfg, small_designed)
        b = evaluate(cfg2, loaded)
        assert np.array_equal(a.gains, b.gains)
        assert a.worst_case == b.worst_case

    def test_shifted_book_evaluates_identically(self, small_designed):
        cfg = SystemConfig(f_c=140e9, B=10e9, N=8, L=16)
        loaded, cfg2 = parse_codebook(codebook_json(small_designed))
        a = evaluate(cfg, small_designed)
        b = evaluate(cfg2, loaded)
        assert np.array_equal(b.gains, a.gains)
        assert np.array_equal(b.best_indices, a.best_indices)
        assert np.array_equal(b.per_zone, a.per_zone)

    def test_single_antenna_zero_band_book(self):
        # N=1 weights are exactly 1 + 0j, which 17 significant digits write
        # as the JSON integers 1 and 0
        book = narrowband_codebook(SystemConfig(f_c=140e9, B=0.0, N=1, L=2))
        text = codebook_json(book)
        assert '  "reference_beam": [[1, 0]],\n' in text
        again, cfg = parse_codebook(text)
        assert (cfg.N, cfg.L, cfg.B) == (1, 2, 0.0)
        assert codebook_json(again) == text

    @pytest.mark.parametrize("second, payload", [
        (complex(1.0, -0.0), '  "reference_beam": [[1, -0]],\n'),
        (complex(-0.0, -1.0), '    [[1, -0]],\n    [[-0, -1]]\n'),
    ])
    def test_signed_zeros_survive(self, second, payload):
        # `%.17g` writes -0.0 as `-0`, which plain json.loads reads as the
        # integer 0; both payloads must hand back the negative zero
        base = narrowband_codebook(SystemConfig(f_c=140e9, B=0.0, N=1, L=2))
        book = replace(base, weights=[[complex(1.0, -0.0)], [second]])
        text = codebook_json(book)
        assert payload in text
        loaded, _ = parse_codebook(text)
        assert same_bits(loaded.weights[0], np.array([complex(1.0, -0.0)]))
        if "beams" in v2_doc_of(book):
            assert same_bits(loaded.weights, book.weights)
        assert codebook_json(loaded) == text

    def test_negative_zero_is_not_an_integer(self, small_designed):
        text = codebook_json(small_designed).replace('"n": 8', '"n": -0')
        with pytest.raises(CodebookFormatError) as err:
            parse_codebook(text)
        assert str(err.value) == "/config/n: expected integer >= 1"

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
    return replace(base, weights=[[complex(*p) for p in draw(pairs)] for _ in range(l)])


ROWS = '\n  "beams": [\n'


class TestAgainstPerElementOracles:
    @settings(deadline=None, max_examples=150)
    @given(book=drawn_books())
    def test_version1_rows_read_back_bit_for_bit(self, book):
        loaded, _ = parse_codebook(oracle_codebook_json(book))
        assert same_bits(loaded.weights, book.weights)

    @settings(deadline=None, max_examples=150)
    @given(book=drawn_books())
    def test_writer_bytes_match_the_per_element_writer(self, book):
        text = codebook_json(book)
        loaded, _ = parse_codebook(text)
        assert codebook_json(loaded) == text
        if ROWS in text:
            assert text.split(ROWS)[1] == oracle_codebook_json(book).split(ROWS)[1]
            assert same_bits(loaded.weights, book.weights)
        else:
            # an N=1 book of beams equal to MODULUS_TOL is one beam shifted
            # to every center
            assert np.abs(loaded.weights - book.weights).max() <= MODULUS_TOL

    def test_writer_on_designed_and_narrowband_books(self, cfg16, small_designed):
        # a version 1 file of a built book rewrites as that book's version 2 text
        for cb in (small_designed, narrowband_codebook(cfg16)):
            loaded, _ = parse_codebook(oracle_codebook_json(cb))
            assert codebook_json(loaded) == codebook_json(cb)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_first_fault_matches_the_per_element_reader(self, small_designed, data):
        base = data.draw(st.sampled_from([small_designed, zero_band_book(1, 2),
                                          zero_band_book(3, 5)]))
        l, n = base.weights.shape
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

    def test_version1_files_infer_the_mapping(self, cfg16, small_designed):
        # version 1 names no mapping: the stored width tells banded from sine
        for book in (small_designed, narrowband_codebook(cfg16)):
            assert '"intervals"' not in oracle_codebook_json(book)
            loaded, _ = parse_codebook(oracle_codebook_json(book))
            assert loaded.partition.mapping == book.partition.mapping
            assert same_bits(loaded.partition.intervals, book.partition.intervals)


def _drop_config(d):
    del d["config"]


def _bad_version(d):
    d["version"] = 3


def _bad_fc(d):
    d["config"]["f_c_hz"] = "fast"


def _band_too_wide(d):
    d["config"]["b_hz"] = 3e11


def _fractional_n(d):
    d["config"]["n"] = 7.5


def _zero_l(d):
    d["config"]["l"] = 0


def _bool_n(d):
    d["config"]["n"] = True


def _bool_l(d):
    # isinstance(True, int) holds; a true must not read as a one-zone book
    d["config"]["l"] = True


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
        (_bool_n, "/config/n"),
        (_bool_l, "/config/l"),
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


def _unknown_intervals(d):
    d["intervals"] = "cosine"


def _no_intervals(d):
    del d["intervals"]


def _reference_not_a_list(d):
    d["reference_beam"] = 0.5


def _short_reference(d):
    d["reference_beam"].pop()


def _reference_lonely_pair(d):
    d["reference_beam"][2] = [1.0]


def _reference_string_imag(d):
    d["reference_beam"][2] = [0.9, "x"]


def _reference_huge_real(d):
    d["reference_beam"][0] = [HUGE, 0.0]


def _reference_modulus(d):
    d["reference_beam"][0] = [1.0, 0.0]


def _both_payloads(d):
    d["beams"] = []


def _no_centers(d):
    del d["centers"]


def _short_centers(d):
    d["centers"].pop()


def _string_center(d):
    d["centers"][3] = "x"


def _infinite_center(d):
    d["centers"][1] = float("inf")


def _far_center(d):
    d["centers"][2] = 5.0


def _moved_center(d):
    # a beam pointing off its zone
    d["centers"][3] += 0.05


class TestVersion2ParseErrors:
    @pytest.mark.parametrize("mutate, error", [
        (_unknown_intervals, '/intervals: expected "banded" or "sine"'),
        (_no_intervals, '/intervals: expected "banded" or "sine"'),
        (_reference_not_a_list, "/reference_beam: expected a list"),
        (_short_reference, "/reference_beam: expected 8 weights for n=8"),
        (_reference_lonely_pair, "/reference_beam/2: expected an [re, im] pair"),
        (_reference_string_imag, "/reference_beam/2/1: expected a number"),
        (_reference_huge_real, "/reference_beam/0/0: expected a finite number"),
        (_reference_modulus, "/reference_beam: constant-modulus violation"),
        (_both_payloads, "/beams: not allowed next to reference_beam"),
        (_no_centers, "/centers: expected a list"),
        (_short_centers, "/centers: expected 16 centers for l=16"),
        (_string_center, "/centers/3: expected a number"),
        (_infinite_center, "/centers/1: expected a finite number"),
        (_far_center, "/centers/2: must be the center"),
        (_moved_center, "/centers/3: must be the center"),
    ])
    def test_pointer_and_message(self, small_designed, mutate, error):
        doc = v2_doc_of(small_designed)
        mutate(doc)
        with pytest.raises(CodebookFormatError) as err:
            parse_codebook(json.dumps(doc))
        assert str(err.value).startswith(error)
        assert err.value.pointer == error.split(":")[0]

    def test_center_keeps_the_sign_of_zero(self):
        # the middle zone of an odd narrowband book is centred on +0.0
        doc = v2_doc_of(narrowband_codebook(SystemConfig(f_c=140e9, B=10e9, N=4, L=15)))
        assert doc["centers"][7] == 0 and math.copysign(1.0, doc["centers"][7]) == 1.0
        doc["centers"][7] = -0.0
        with pytest.raises(CodebookFormatError) as err:
            parse_codebook(json.dumps(doc))
        assert str(err.value) == "/centers/7: must be the center 0 of zone 8"

    def test_rows_payload_faults_keep_their_pointers(self, small_designed):
        doc = v2_doc_of(replace(small_designed, weights=tuple(
            random_cm_beam(8, seed=i) for i in range(16))))
        assert "reference_beam" not in doc
        _infinite_real(doc)
        with pytest.raises(CodebookFormatError) as err:
            parse_codebook(json.dumps(doc))
        assert str(err.value) == "/beams/1/0/0: expected a finite number"


@lru_cache(maxsize=None)
def partition_of(l, mapping):
    b = 10e9 if mapping == "banded" else 0.0
    part = divide_zones(SystemConfig(f_c=140e9, B=b, N=1, L=l))
    assert part.mapping == mapping
    return part


class TestShiftPayload:
    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 64), extra=st.integers(0, 16),
           mapping=st.sampled_from(["banded", "sine"]), seed=st.integers(0, 2 ** 32 - 1))
    def test_shifted_prototypes_write_the_compact_payload(self, n, extra, mapping, seed):
        l = n + extra
        partition = partition_of(l, mapping)
        cfg = SystemConfig(f_c=140e9, B=10e9, N=n, L=l)
        proto = random_cm_beam(n, seed=seed)
        book = Codebook.assemble([shift_beam(proto, c) for c in partition.centers()],
                                 partition, cfg, None, kind="wideband")
        text = codebook_json(book)
        doc = json.loads(text)
        assert "beams" not in doc and len(doc["reference_beam"]) == n
        assert doc["intervals"] == mapping
        loaded, _ = parse_codebook(text)
        assert codebook_json(loaded) == text
        assert same_bits(loaded.partition.intervals, partition.intervals)
        assert np.abs(loaded.weights - book.weights).max() <= 1e-12

    def test_random_beams_fall_back_to_rows(self, small_designed):
        book = replace(small_designed,
                       weights=tuple(random_cm_beam(8, seed=i) for i in range(16)))
        assert small_designed.shifted and not book.shifted
        text = codebook_json(book)
        doc = json.loads(text)
        assert "reference_beam" not in doc and len(doc["beams"]) == 16
        loaded, _ = parse_codebook(text)
        assert same_bits(loaded.weights, book.weights)
        assert codebook_json(loaded) == text

    @pytest.fixture
    def shift_calls(self, monkeypatch):
        """The center counts of the shift_rows calls made from now on."""
        calls = []

        def counted(reference, centers):
            calls.append(centers.size)
            return shift_rows(reference, centers)

        monkeypatch.setattr("widebeam.codebook.shift_rows", counted)
        return calls

    def test_writer_builds_no_shift_table(self, shift_calls):
        # the book knows it is a shift book; the writer only reads that
        book = build_codebook(SystemConfig(f_c=140e9, B=10e9, N=16, L=32))
        shift_calls.clear()
        assert not hasattr(storage, "shift_rows")
        assert '"reference_beam"' in codebook_json(book)
        assert shift_calls == []

    def test_one_shift_table_per_book(self, shift_calls):
        # a book built or read from row 0 builds its rows once, and a block
        # is tested against one table
        cfg = SystemConfig(f_c=140e9, B=10e9, N=16, L=32)
        designed = build_codebook(cfg)
        text = codebook_json(designed)
        for make in (lambda: build_codebook(cfg), lambda: narrowband_codebook(cfg),
                     lambda: parse_codebook(text), lambda: replace(designed)):
            shift_calls.clear()
            make()
            assert shift_calls == [cfg.L]

    def test_assembled_shifts_write_the_built_book(self):
        # build_codebook's stages, one at a time, as a traced run calls them
        cfg = SystemConfig(f_c=140e9, B=10e9, N=16, L=32)
        partition = divide_zones(cfg)
        init = prv_beam(prv_plan(cfg.N, partition.delta_omega))
        proto, _ = solve(cfg, SolverConfig(), partition.delta_omega, init)
        assembled = Codebook.assemble(
            [shift_beam(proto, c) for c in partition.centers()],
            partition, cfg, SolverConfig(), kind="wideband")
        assert codebook_json(assembled) == codebook_json(build_codebook(cfg))

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(1, 48), l=st.integers(1, 96),
           b_ghz=st.sampled_from([0, 2, 10, 18, 40]),
           build=st.sampled_from([build_codebook, narrowband_codebook]))
    @example(n=48, l=96, b_ghz=40, build=build_codebook)
    @example(n=48, l=96, b_ghz=40, build=narrowband_codebook)
    def test_designed_book_is_its_reread(self, n, l, b_ghz, build):
        # the reader rebuilds the rows by the rule both builders built them with
        cfg = SystemConfig(f_c=140e9, B=b_ghz * 1e9, N=n, L=l, n_freq=17, n_angle=64)
        try:
            book = build(cfg)
        except RuntimeError:  # the initializer's null at L = 1, even N
            reject()
        loaded, _ = parse_codebook(codebook_json(book))
        assert same_bits(loaded.weights, book.weights)
        a, b = evaluate(cfg, book), evaluate(cfg, loaded)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.best_indices, b.best_indices)

    def test_version2_narrowband_file_takes_the_matched_path(self, cfg16, caplog):
        loaded, cfg = parse_codebook(codebook_json(narrowband_codebook(cfg16)))
        with caplog.at_level(logging.DEBUG, logger="widebeam.codebook"):
            evaluate(cfg, loaded)
        assert any(r.getMessage().startswith("matched path") for r in caplog.records)


class TestAssembledBooks:
    @settings(deadline=None, max_examples=80)
    @given(n=st.integers(1, 12), l=st.integers(1, 20), rows=st.integers(-1, 1),
           cols=st.integers(-1, 1), shifted=st.booleans(),
           mapping=st.sampled_from(["banded", "sine"]), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_accepted_book_round_trips(self, n, l, rows, cols, shifted, mapping, seed):
        # the block may miss the config's shape by a row or a column; what
        # assemble accepts, the reader takes back
        partition = partition_of(l, mapping)
        cfg = SystemConfig(f_c=140e9, B=10e9, N=n, L=l)
        shape = (max(l + rows, 1), max(n + cols, 1))
        if shifted:
            proto = random_cm_beam(shape[1], seed=seed)
            weights = [shift_beam(proto, c)
                       for c in np.append(partition.centers(), 0.0)[:shape[0]]]
        else:
            rng = np.random.default_rng(seed)
            weights = np.exp(1j * rng.uniform(0, 2 * np.pi, shape)) / np.sqrt(shape[1])
        try:
            book = Codebook.assemble(weights, partition, cfg, None, kind="wideband")
        except ValueError:
            assert shape != (l, n)
            return
        assert shape == (l, n)
        text = codebook_json(book)
        loaded, loaded_cfg = parse_codebook(text)
        assert (loaded_cfg.N, loaded_cfg.L) == (n, l)
        assert codebook_json(loaded) == text
        assert np.abs(loaded.weights - book.weights).max() <= 1e-12


class TestVersion1Fixtures:
    """Files written by the version 1 writer (`widebeam design` and
    `widebeam baseline` at N=8, L=16, B=10 GHz) and the golden `eval --csv`
    of each.  The designed one was re-pinned once, when the general sweep's
    phase table changed; the narrowband one is as the version 1 code wrote it."""

    CFG = SystemConfig(f_c=140e9, B=10e9, N=8, L=16)

    @pytest.mark.parametrize("name, build", [
        ("designed_v1", build_codebook), ("baseline_v1", narrowband_codebook)])
    def test_loaded_book_is_the_in_memory_book(self, name, build):
        book = build(self.CFG)
        loaded, cfg = read_codebook(DATA / f"{name}.json")
        assert (cfg.f_c, cfg.B, cfg.N, cfg.L) == (140e9, 10e9, 8, 16)
        assert loaded.partition.mapping == book.partition.mapping
        if name == "baseline_v1":
            assert same_bits(loaded.partition.boundaries, book.partition.boundaries)
            assert same_bits(loaded.partition.intervals, book.partition.intervals)
            assert codebook_json(loaded) == codebook_json(book)
            # the reader keeps the file's one-exp-per-entry rows; the book
            # builds its rows from row 0, so the two agree bit for bit at
            # row 0 and to rounding elsewhere, and the file rewritten as
            # version 2 reads back as the book itself
            assert same_bits(loaded.weights[0], book.weights[0])
            assert same_bits(parse_codebook(codebook_json(loaded))[0].weights, book.weights)
            assert np.abs(loaded.weights - book.weights).max() <= 1e-13
            return
        # the designed file's zones were bisected, and its broadside boundary
        # sits at 5.8e-13 rad where the closed form puts exactly 0; the gaps
        # measured were 1.6e-12 rad, 3.5e-13 relative in the width, 5.2e-12
        # in the weights and 2.6e-13 relative in the worst case
        assert np.abs(loaded.partition.boundaries - book.partition.boundaries).max() <= 1e-11
        assert loaded.partition.delta_omega == pytest.approx(book.partition.delta_omega,
                                                             rel=2e-12, abs=0)
        assert np.abs(loaded.weights - book.weights).max() <= 3e-11
        assert evaluate(cfg, loaded).worst_case == pytest.approx(
            evaluate(cfg, book).worst_case, rel=1.5e-12, abs=0)

    @pytest.mark.parametrize("name", ["designed_v1", "baseline_v1"])
    def test_eval_csv_is_unchanged(self, name, tmp_path, capsys):
        csv = tmp_path / "eval.csv"
        assert main(["eval", str(DATA / f"{name}.json"), "--csv", str(csv)]) == 0
        capsys.readouterr()
        assert csv.read_bytes() == (DATA / f"{name}_eval.csv").read_bytes()

    def test_version2_rewrites_evaluate_like_version1(self, tmp_path, capsys):
        for name in ("designed_v1", "baseline_v1"):
            v2 = tmp_path / f"{name}.v2.json"
            write_codebook(v2, read_codebook(DATA / f"{name}.json")[0])
            csv = tmp_path / f"{name}.csv"
            assert main(["eval", str(v2), "--csv", str(csv)]) == 0
            capsys.readouterr()
            got = np.loadtxt(csv, delimiter=",", skiprows=1)
            want = np.loadtxt(DATA / f"{name}_eval.csv", delimiter=",", skiprows=1)
            if name == "baseline_v1":
                # the matched path reads centers, not weights
                assert csv.read_bytes() == (DATA / f"{name}_eval.csv").read_bytes()
            assert np.array_equal(got[:, 0], want[:, 0])
            assert np.allclose(got[:, 1], want[:, 1], rtol=1e-12, atol=0)
            # a different winner is a tie to rounding
            differ = got[:, 2] != want[:, 2]
            assert np.allclose(got[differ, 1], want[differ, 1], rtol=1e-12, atol=0)


class TestVersion2Fixture:
    """A version 2 file (`widebeam design` at N=8, L=16, B=10 GHz) written
    while the zones were still found by bisection: its stored boundaries and
    centers are not the closed form's, and must read as stored."""

    PATH = DATA / "designed_v2.json"

    def test_reads_from_its_stored_boundaries(self):
        loaded, cfg = read_codebook(self.PATH)
        doc = json.loads(self.PATH.read_text(encoding="utf-8"))
        bounds = np.array(doc["boundaries_rad"])
        assert same_bits(loaded.partition.boundaries, bounds)
        # the bisected broadside boundary, where divide_zones puts 0
        assert bounds[8] > 0 and divide_zones(cfg).boundaries[8] == 0
        # the stored centers pass the reader's bit check against the
        # partition rebuilt from those boundaries
        assert same_bits(loaded.partition.centers(), np.array(doc["centers"]))

    def test_rewrite_is_byte_identical(self, tmp_path):
        again = tmp_path / "again.json"
        write_codebook(again, read_codebook(self.PATH)[0])
        assert again.read_bytes() == self.PATH.read_bytes()


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
