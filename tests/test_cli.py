import argparse
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semirigid
from semirigid.catalog import catalog_build, catalog_names
from semirigid import cli
from semirigid.cli import _search_config, build_parser, main
from semirigid.commuting import MatrixTuple, joint_spectrum, trace_monomials, tuple_scale
from semirigid.exterior import (
    Bivector,
    SkewPairing,
    bivector_rank,
    kernel,
    pair_list,
    wedge,
)
from semirigid.scalars import PreconditionError, ScalarMode, cleared
from semirigid.serialize import (
    bivector_from_json,
    bivector_to_json,
    canonical_json,
    pairing_from_json,
    pairing_to_json,
    scalar_from_json,
    tuple_from_json,
    tuple_to_json,
)
from semirigid import verdict
from semirigid.verdict import NOT_SEMI_RIGID, SEMI_RIGID, SearchConfig, SearchResult, decide
from util import (
    PLANTED_BELOW_BOUND,
    eigh_min_norm_step,
    exact_matrix,
    perfbench_items,
    planted_below_bound,
    projective_distance,
    symplectic_pair_pairing,
    wire_scalar,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_value_error_exit_2(code, out, err):
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "ValueError"


def one_pair_files(v):
    """A rational pairing file and a witness file, at d = 2, whose one value is v."""
    return (rational_file(2, 1, {(0, 1): [v]}),
            {"dim_v": 2, "coeffs": [{"i": 0, "j": 1, "value": v}]})


def read_rational(v):
    """One rational wire scalar as the pairing and the witness reader read it;
    both must read it the same."""
    pairing, witness = one_pair_files(v)
    p, w = pairing_from_json(pairing), bivector_from_json(witness)
    assert p.is_rational() and w.is_rational()
    assert p.entries[0][0] == w.coeffs[0]
    return w.coeffs[0]


def written(v):
    """One scalar as the witness writer writes it, at d = 2."""
    return bivector_to_json(Bivector(2, (v,)))["coeffs"][0]["value"]


class TestScalarJson:
    """Rational wire scalars are read by the pairing and witness readers;
    ``scalar_from_json`` reads one complex scalar."""

    def test_rational_canonical_form(self):
        assert written(Fraction(4, 6)) == "2/3"
        assert written(3) == "3/1"
        assert written(Fraction(-5, 10)) == "-1/2"
        assert read_rational("2/3") == Fraction(2, 3)
        assert read_rational("7") == 7
        assert read_rational(7) == 7

    def test_rational_rejects_floats(self):
        pairing, witness = one_pair_files(0.5)
        with pytest.raises(ValueError):
            pairing_from_json(pairing)
        # a witness with a float value is complex, each rational value rounded once
        assert bivector_from_json(witness).values.tolist() == [0.5 + 0j]

    def test_rational_reads_unreduced_and_negative_denominators(self):
        assert read_rational("2/-4") == Fraction(-1, 2)
        assert read_rational("-6/-4") == Fraction(3, 2)
        assert read_rational("5/-1") == -5
        assert read_rational("+2") == read_rational("+4/+2") == 2

    @pytest.mark.parametrize("kind, v", [("rational", True), ("rational", False),
                                         ("complex", True), ("complex", [True, 0]),
                                         ("complex", [0, False])])
    def test_booleans_are_not_scalars(self, kind, v):
        if kind == "complex":
            with pytest.raises(ValueError):
                scalar_from_json(v)
            return
        pairing, witness = one_pair_files(v)
        for read, obj in (pairing_from_json, pairing), (bivector_from_json, witness):
            with pytest.raises(ValueError):
                read(obj)

    def test_complex_pairs(self):
        assert written(1 + 2j) == [1.0, 2.0]
        assert scalar_from_json([1.5, -2.0]) == 1.5 - 2j


class TestPairingJson:
    def test_roundtrip_rational(self):
        p = SkewPairing.from_map(3, 2, {(0, 1): (1, Fraction(-2, 3)), (1, 2): (0, 5)})
        obj = pairing_to_json(p)
        assert obj["scalar"] == "rational"
        assert pairing_from_json(obj) == p

    def test_omitted_pairs_are_zero(self):
        obj = {"dim_v": 3, "dim_w": 1, "scalar": "rational", "entries": []}
        p = pairing_from_json(obj)
        assert p == SkewPairing.zero(3, 1)

    def test_rejects_bad_index_order(self):
        obj = {"dim_v": 3, "dim_w": 1, "scalar": "rational",
               "entries": [{"i": 2, "j": 1, "values": ["1/1"]}]}
        with pytest.raises(ValueError):
            pairing_from_json(obj)

    def test_roundtrip_complex(self):
        p = SkewPairing.from_map(3, 1, {(0, 2): (1 + 1j,)})
        back = pairing_from_json(pairing_to_json(p))
        assert back.entries == p.entries


class TestComplexPairingWire:
    """Complex pairings are read in one numpy pass; a value it cannot take goes
    through ``scalar_from_json``, which refuses it as before."""

    @staticmethod
    def one_by_one(obj):
        # omitted pairs are complex zeros, as the file is complex
        d, m = obj["dim_v"], obj["dim_w"]
        cols = {pair_list(d).index((e["i"], e["j"])): e["values"] for e in obj["entries"]}
        return tuple(tuple(scalar_from_json(x) for x in cols[k]) if k in cols
                     else (0j,) * m for k in range(comb(d, 2)))

    @given(d=st.integers(2, 6), m=st.integers(0, 4), data=st.data())
    def test_matches_the_scalar_parser(self, d, m, data):
        part = st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False)
        pairs = data.draw(st.lists(st.sampled_from(pair_list(d)), unique=True))
        entries = [{"i": i, "j": j,
                    "values": data.draw(st.lists(st.lists(part, min_size=2, max_size=2),
                                                 min_size=m, max_size=m))}
                   for i, j in pairs]
        obj = {"dim_v": d, "dim_w": m, "scalar": "complex", "entries": entries}
        p = pairing_from_json(obj)
        want = self.one_by_one(obj)
        assert p.entries == want
        assert p == SkewPairing(d, m, want) and hash(p) == hash(SkewPairing(d, m, want))
        # each part keeps its bits, the sign of a zero too
        assert [repr(z) for row in p.entries for z in row] == [repr(z) for row in want for z in row]

    def test_a_complex_file_is_complex(self, capsys, tmp_path):
        # omitted pairs are complex zeros, so no entries still make a complex pairing
        obj = {"dim_v": 3, "dim_w": 1, "scalar": "complex", "entries": []}
        p = pairing_from_json(obj)
        assert not p.is_rational() and p == SkewPairing.zero(3, 1)
        path = tmp_path / "pairing.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run_cli(capsys, "kernel", "--pairing", str(path))
        values = [c["value"] for b in json.loads(out)["kernel"]["basis"] for c in b["coeffs"]]
        assert code == 0 and values == [[1.0, -0.0]] * 3

    @pytest.mark.parametrize("bad, message", [
        ([True, 1.0], "must be a [re, im] pair of numbers"),
        ([1.0, 2.0, 3.0], "must be a [re, im] pair of numbers"),
        ([None, 1.0], "parts must be numbers"),
        ([float("inf"), 0.0], "must be finite"),
        ([0.0, float("nan")], "must be finite"),
    ])
    def test_refusals_keep_their_messages(self, bad, message):
        obj = {"dim_v": 3, "dim_w": 2, "scalar": "complex",
               "entries": [{"i": 0, "j": 1, "values": [[1.0, 2.0], [3.0, 4.0]]},
                           {"i": 1, "j": 2, "values": [[5.0, 6.0], bad]}]}
        with pytest.raises(ValueError, match=message.replace("[", r"\[").replace("]", r"\]")):
            pairing_from_json(obj)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**300, 2**300)
    | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4)
                   | st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=3)),
    max_leaves=30)


def assert_written_as_json(obj, ref=None):
    """canonical_json(obj) is the text of json.dumps(ref, indent=2,
    sort_keys=True, allow_nan=False), ref = obj by default; where json
    refuses a NaN or an infinity there, canonical_json raises PreconditionError."""
    try:
        want = json.dumps(obj if ref is None else ref, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        with pytest.raises(PreconditionError, match="outside the float range"):
            canonical_json(obj)
    else:
        assert canonical_json(obj) == want


class TestCanonicalJson:
    """The report writer gives the bytes of json.dumps(indent=2,
    sort_keys=True, allow_nan=False), and refuses a NaN or an infinity."""

    @given(JSON_VALUES)
    @example({"": [], "b": {}, "a": [[1.0, -0.0], [1e-300, 2**70]]})
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 10**40])
    @example({"\u00e9\u2603\x00\x1f\"\\": "\ud83d\ude00\n\t", "x": [[[0.5, 1.5]]]})
    @example([[1.0, 2], [True, 1.0], [1.0, None], [1.0, 2.0, 3.0], (1.0, 2.0)])
    def test_matches_json_dumps(self, obj):
        assert_written_as_json(obj)

    def test_non_json_values_are_refused(self):
        for obj in ({(1, 2): 3}, [object()], {"a": {1, 2}}):
            with pytest.raises(TypeError):
                canonical_json(obj)


def assert_precondition_exit_3(code, out, err, message):
    """Exit 3 with one JSON error line naming ``message``, and nothing on stdout."""
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {"type": "PreconditionError", "message": message}


class TestReportsAreStrictJson:
    """A report with a value beyond the float range is refused, exit 3,
    rather than written with the literals Infinity or NaN, which no reader
    of the package takes back."""

    def test_construct_stable_beyond_the_float_range(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps({"dim_v": 4, "coeffs": [{"i": 0, "j": 2, "value": "1"}]}))
        code, out, err = run_cli(capsys, "construct", "stable", "--pairing", "catalog:curve:2",
                                 "--witness", str(path), "--n", "3", "--epsilon", "1e308",
                                 "--mode", "complex")
        assert_precondition_exit_3(code, out, err, "a reported value lies outside the float range")

    def test_invariants_beyond_the_float_range(self, capsys, tmp_path):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"n": 2, "d": 1, "scalar": "complex",
                                    "matrices": [[[[1e200, 0], [0, 0]], [[0, 0], [0, 0]]]]}))
        code, out, err = run_cli(capsys, "commuting", "invariants", "--tuple", str(path))
        assert_precondition_exit_3(code, out, err, "a reported value lies outside the float range")


@st.composite
def pair_arrays(draw):
    """Lists nested three or four deep over [re, im] pairs, the shape of a
    tuple's matrices in a report: rectangular or ragged, with parts that are
    finite floats, -0.0, NaN, +-inf or ints."""
    depth = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=depth, max_size=depth))
    ragged = draw(st.booleans())
    part = draw(st.sampled_from([
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0),
        st.floats(),
        st.floats(allow_nan=False, allow_infinity=False) | st.integers(-3, 3),
    ]))

    def build(level):
        if level == depth:
            return draw(st.lists(part, min_size=2, max_size=2))
        size = draw(st.integers(1, 3)) if ragged else sizes[level]
        return [build(level + 1) for _ in range(size)]

    return build(0)


@st.composite
def complex_arrays(draw):
    """complex128 arrays of 1-4 axes of sizes 0-3, C-ordered or transposed,
    whose parts are finite floats, -0.0, NaN or +-inf."""
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))
    part = draw(st.sampled_from([
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0),
        st.floats(),
    ]))
    parts = draw(st.lists(part, min_size=2 * prod(shape), max_size=2 * prod(shape)))
    a = np.array(parts, dtype=float).view(complex).reshape(shape)
    return a.T if draw(st.booleans()) else a


def re_im(x):
    """The nested [re, im] list of a complex array's tolist()."""
    return [re_im(y) for y in x] if isinstance(x, list) else [x.real, x.imag]


class TestCanonicalPairArrays:
    """Nested lists of [re, im] pairs, and complex arrays, which are written
    as the nested [re, im] lists of their entries: the bytes are those of
    json.dumps of the lists, and a NaN or an infinity is refused."""

    @given(pair_arrays(), st.integers(0, 2))
    @example([[[1.0, -0.0], [float("nan"), 2.0]]], 0)
    @example([[[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]], 1)
    @example([[[float("inf"), 0.5]], [[1e-300, -float("inf")]]], 0)
    @example([[[1.0, 2]]], 2)
    def test_matches_json_dumps(self, obj, wrap):
        for _ in range(wrap):
            obj = {"x": [obj, 1.5]}
        assert_written_as_json(obj)

    @given(complex_arrays(), st.integers(0, 2))
    @example(np.array([[complex(-0.0, 1.5), complex(0.0, -0.0)]]), 0)
    @example(np.array([complex(float("nan"), 1.0), complex(2.0, -float("inf"))]), 1)
    @example(np.zeros((2, 0, 3), dtype=complex), 2)
    def test_complex_array_matches_its_nested_list(self, a, wrap):
        obj, ref = a, re_im(a.tolist())
        for _ in range(wrap):
            obj, ref = {"x": [obj, 1.5]}, {"x": [ref, 1.5]}
        assert_written_as_json(obj, ref)

    @pytest.mark.parametrize("a", [np.array([1j, 2], dtype=object), np.zeros((2, 2))])
    def test_other_arrays_are_refused(self, a):
        for obj in (a, {"x": [a]}):
            with pytest.raises(TypeError):
                canonical_json(obj)

    def test_tuple_writer_keeps_each_entry(self):
        """A complex tuple's matrices are its stack: the same values, signed
        zeros included, as one wire_scalar per entry."""
        rng = np.random.default_rng(3)
        values = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        values[0, 0, 0], values[1, 2, 3] = complex(-0.0, 0.0), complex(0.0, -0.0)
        alpha = MatrixTuple.from_matrices(list(values))
        mats = [[[wire_scalar(x, "complex") for x in row] for row in m] for m in values]
        assert canonical_json(tuple_to_json(alpha)["matrices"]) == canonical_json(mats)
        assert np.copysign(1, tuple_to_json(alpha)["matrices"][0, 0, 0].real) == -1


def wire_fraction(v) -> Fraction:
    """Reference reading of a rational wire scalar, one Fraction at a time."""
    if isinstance(v, int):
        return Fraction(v)
    num, _, den = v.partition("/")
    return Fraction(int(num), int(den or 1))


BIG = 2**200
WIRE_RATIONALS = st.one_of(
    st.integers(-9, 9),
    st.integers(BIG - 3, BIG + 3) | st.integers(-BIG - 3, -BIG + 3),
    st.builds(str, st.integers(-9, 9)),
    st.builds("{}/{}".format, st.integers(-12, 12) | st.integers(BIG - 3, BIG + 3),
              st.integers(-12, -1) | st.integers(1, 12) | st.just(-BIG)),
)


@st.composite
def rational_pairing_files(draw):
    d, m = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    pairs = draw(st.lists(st.sampled_from(pair_list(d)), unique=True)) if d > 1 else []
    entries = [{"i": i, "j": j, "values": draw(st.lists(WIRE_RATIONALS, min_size=m, max_size=m))}
               for i, j in pairs]
    return {"dim_v": d, "dim_w": m, "scalar": "rational", "entries": entries}


def rational_file(d, m, values):
    return {"dim_v": d, "dim_w": m, "scalar": "rational",
            "entries": [{"i": i, "j": j, "values": v} for (i, j), v in values.items()]}


class TestRationalPairingWire:
    """A rational pairing file is parsed straight to its cleared form."""

    @given(obj=rational_pairing_files())
    # every denominator +-1, so none is scaled: the sign of "3/-1" is the parser's
    @example(obj=rational_file(2, 1, {(0, 1): ["3/-1"]}))
    @example(obj=rational_file(3, 2, {(0, 1): ["2/-4", "6/4"], (1, 2): ["1/3", 5]}))
    @example(obj=rational_file(3, 0, {(0, 2): []}))
    @example(obj=rational_file(4, 2, {(0, 3): [f"{BIG}/{-BIG - 2}", "7"]}))
    def test_same_pairing_as_one_fraction_per_entry(self, obj):
        p = pairing_from_json(obj)
        ref = SkewPairing.from_map(obj["dim_v"], obj["dim_w"], {
            (e["i"], e["j"]): tuple(map(wire_fraction, e["values"])) for e in obj["entries"]})
        assert p == ref and hash(p) == hash(ref)
        assert p.entries == ref.entries
        assert p.is_rational() and ref.is_rational()
        ints, den = p.values, p.den
        want_ints, want_den = cleared(ref.matrix())
        assert (ints.tolist(), den) == (want_ints.tolist(), want_den)
        assert all(type(x) is int for x in ints.flat) and type(den) is int and den > 0
        assert kernel(p).basis == kernel(ref).basis
        assert pairing_to_json(p) == pairing_to_json(ref)

    # each distinct text is read once: the same ints, den and first refusal
    # as one int() per scalar, and as scalars.cleared over the Fractions
    @pytest.mark.parametrize("values, want", [
        (["1/2", "2/4", "-1/-2", 1, "1", "1/2", "3"], ([1, 1, 1, 2, 2, 1, 6], 2)),
        (["2/-4", "6/4", "2/-4", 5, "-6/-4"], ([-1, 3, -1, 10, 3], 2)),
        (["1/2", "2/4", "-1/-2", 1, "1", "1/2", "x/3", "y"],
         "invalid literal for int() with base 10: 'x'"),
        (["1/2", "1/2", "2/4", "1/y", "3/z"], "invalid literal for int() with base 10: 'y'"),
        (["1/y", "1/2", "1/2", "x/2"], "invalid literal for int() with base 10: 'x'"),
        (["1/2", "1/2/3", "1/2/3"], "invalid literal for int() with base 10: '2/3'"),
        (["1/2", "1", "1/2", "3/0", "1/0"], "rational scalar has a zero denominator: '3/0'"),
        ([1, "1/2", 1, 0.5], "rational scalar must be an integer or 'p/q' string, got 0.5"),
    ])
    def test_repeated_texts(self, values, want):
        obj = rational_file(2, len(values), {(0, 1): values})
        if isinstance(want, str):
            with pytest.raises(ValueError) as err:
                pairing_from_json(obj)
            assert str(err.value) == want
            return
        p = pairing_from_json(obj)
        ints, den = p.values, p.den
        ref_ints, ref_den = cleared(np.array(list(map(wire_fraction, values)), dtype=object))
        assert (ints.ravel().tolist(), den) == (ref_ints.tolist(), ref_den) == want

    def test_stored_matrix_is_read_only(self):
        p = pairing_from_json(rational_file(3, 1, {(0, 1): ["1/2"]}))
        ints, den = p.values, p.den
        assert (ints.tolist(), den) == ([[1, 0, 0]], 2)
        with pytest.raises(ValueError):
            ints[0, 0] = 5
        with pytest.raises(AttributeError):
            p.dim_w = 2

    def test_zero_kernel_analyze_builds_no_fraction(self, capsys, tmp_path, monkeypatch):
        # a unit upper triangular integer matrix with each row divided by its
        # own q has full column rank, so the kernel is zero
        d, n = 9, comb(9, 2)
        rng = np.random.default_rng(9)
        rows = [[int(rng.integers(-3, 4)) if c > r else int(c == r) for c in range(n)]
                for r in range(n)]
        qs = [int(q) for q in rng.integers(1, 6, size=n)]
        path = tmp_path / "pairing.json"
        path.write_text(json.dumps({"dim_v": d, "dim_w": n, "scalar": "rational", "entries": [
            {"i": i, "j": j, "values": [f"{rows[r][k]}/{qs[r]}" for r in range(n)]}
            for k, (i, j) in enumerate(pair_list(d))]}))
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        assert Fraction(1, 2) == Fraction(2, 4) and len(built) == 2
        built.clear()
        code, out, _ = run_cli(capsys, "analyze", "--pairing", str(path))
        assert code == 0
        assert json.loads(out)["verdict"]["certificate"] == "kernel_zero"
        assert built == []


class TestTupleJson:
    def test_roundtrip_rational(self):
        alpha = MatrixTuple.from_matrices(
            [exact_matrix([[1, Fraction(1, 2)], [0, 2]]), exact_matrix(np.eye(2, dtype=int))])
        back = tuple_from_json(tuple_to_json(alpha))
        for a, b in zip(alpha.matrices, back.matrices):
            assert np.all(a == b)

    def test_roundtrip_complex(self):
        alpha = MatrixTuple.from_matrices([np.array([[1j, 0], [0, -1j]])])
        back = tuple_from_json(json.loads(canonical_json(tuple_to_json(alpha))))
        assert np.allclose(np.asarray(back.matrices[0], complex),
                           np.asarray(alpha.matrices[0], complex))


COMPLEX_PARTS = st.floats(allow_nan=False, allow_infinity=False, width=64)
FRACTIONS = st.fractions(max_denominator=50) | st.integers(-2**70, 2**70).map(Fraction)


@st.composite
def scalar_matrices(draw, kind, rows, cols):
    if kind == "rational":
        flat = draw(st.lists(FRACTIONS, min_size=rows * cols, max_size=rows * cols))
        return np.array(flat, dtype=object).reshape(rows, cols)
    flat = draw(st.lists(st.tuples(COMPLEX_PARTS, COMPLEX_PARTS),
                         min_size=rows * cols, max_size=rows * cols))
    return np.array([complex(*z) for z in flat], dtype=complex).reshape(rows, cols)


class TestWireRoundTrips:
    """A pairing and a tuple of each scalar kind come back from their report
    text as they went in: the same kind and the same values."""

    @given(st.sampled_from(["rational", "complex"]), st.integers(1, 5), st.integers(0, 3),
           st.data())
    def test_pairing(self, kind, d, m, data):
        values = data.draw(scalar_matrices(kind, m, comb(d, 2)))
        if kind == "rational":
            p = SkewPairing.from_matrix(d, *cleared(values))
        else:
            p = SkewPairing.from_matrix(d, values)
        back = pairing_from_json(json.loads(canonical_json(pairing_to_json(p))))
        assert (back.dim_v, back.dim_w) == (d, m)
        assert back.is_rational() == (kind == "rational")
        assert np.array_equal(back.matrix(), p.matrix())

    @given(st.sampled_from(["rational", "complex"]), st.integers(1, 3), st.integers(1, 4),
           st.data())
    def test_tuple(self, kind, d, n, data):
        mats = [data.draw(scalar_matrices(kind, n, n)) for _ in range(d)]
        alpha = MatrixTuple(n, d, mats)
        back = tuple_from_json(json.loads(canonical_json(tuple_to_json(alpha))))
        assert (back.n, back.d, back.den) == (n, d, alpha.den)
        assert back.is_rational() == (kind == "rational")
        if kind == "rational":
            assert np.array_equal(back.values, alpha.values)
        else:
            # bit for bit, the sign of zero too
            assert back.values.tobytes() == alpha.values.tobytes()


    @given(st.sampled_from(["rational", "complex"]), st.integers(1, 5), st.integers(0, 3),
           st.integers(1, 3), st.data())
    def test_writers_match_one_scalar_per_entry(self, kind, d, m, n, data):
        """The writers read the stored values / den; each wire scalar is the
        one wire_scalar writes for that entry, and zero rows and
        coefficients are left out as before."""
        values = data.draw(scalar_matrices(kind, m, comb(d, 2)))
        values[:, data.draw(st.lists(st.booleans(), min_size=comb(d, 2), max_size=comb(d, 2)))] = 0
        p = SkewPairing.from_matrix(d, *(cleared(values) if kind == "rational" else (values, 1)))
        entries = [{"i": i, "j": j, "values": [wire_scalar(x, kind) for x in row]}
                   for (i, j), row in zip(pair_list(d), p.entries) if any(row)]
        assert canonical_json(pairing_to_json(p)) == canonical_json(
            {"dim_v": d, "dim_w": m, "scalar": kind, "entries": entries})
        if m:
            w = Bivector(d, tuple(values[0]))
            coeffs = [{"i": i, "j": j, "value": wire_scalar(c, kind)}
                      for (i, j), c in zip(pair_list(d), w.coeffs) if c != 0]
            assert canonical_json(bivector_to_json(w)) == canonical_json(
                {"dim_v": d, "coeffs": coeffs})
        alpha = MatrixTuple(n, 2, [data.draw(scalar_matrices(kind, n, n)) for _ in range(2)])
        mats = [[[wire_scalar(x, kind) for x in row] for row in a] for a in alpha.matrices]
        assert canonical_json(tuple_to_json(alpha)["matrices"]) == canonical_json(mats)


class TestBivectorJson:
    def test_roundtrip(self):
        w = Bivector.from_pairs(4, {(0, 1): Fraction(3, 7), (2, 3): -2})
        assert bivector_from_json(bivector_to_json(w)) == w

    def test_zero_coeffs_omitted(self):
        w = Bivector.from_pairs(4, {(0, 1): 1})
        obj = bivector_to_json(w)
        assert len(obj["coeffs"]) == 1

    @pytest.mark.parametrize("obj, message", [
        ({"dim_v": -3, "coeffs": []}, "need dim_v >= 1"),
        ({"dim_v": 0, "coeffs": []}, "need dim_v >= 1"),
        ({"dim_v": 4, "coeffs": [{"i": 0, "j": 2}]}, "bivector object missing field: 'value'"),
    ])
    def test_malformed_fields_are_refused(self, obj, message):
        with pytest.raises(ValueError) as err:
            bivector_from_json(obj)
        assert message in str(err.value)


class TestCatalog:
    def test_expected_verdicts_hold(self):
        cases = [
            ("symplectic-surface", (2,)), ("symplectic-surface", (4,)),
            ("symplectic-surface", (6,)),
            ("torus", (1,)), ("torus", (2,)),
            ("curve", (1,)), ("curve", (2,)), ("curve", (3,)),
            ("zero", (3, 2)), ("zero", (1, 0)), ("zero", (2, 0)),
            ("identity", (2,)), ("identity", (5,)),
        ]
        for name, params in cases:
            entry = catalog_build(name, params)
            verdict = decide(entry.pairing, cfg=SearchConfig(restarts=16, seed=0))
            assert verdict.status == entry.expected_status, (name, params)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            catalog_build("moebius", (2,))

    def test_bad_parity_rejected(self):
        with pytest.raises(ValueError):
            catalog_build("symplectic-surface", (3,))

    def test_names_listed(self):
        assert set(catalog_names()) == {
            "symplectic-surface", "torus", "curve", "zero", "identity"}


class TestCliAnalyze:
    def test_symplectic_4_not_semirigid(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--pairing",
                               "catalog:symplectic-surface:4", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"]["status"] == "not_semi_rigid"
        assert report["verdict"]["certificate"] in ("exact_low_dim", "dimension_criterion")
        assert report["verdict"]["witness"] is not None
        assert report["seed"] == 7

    def test_curve_catalog_verdicts(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--pairing", "catalog:curve:1")
        assert code == 0 and json.loads(out)["verdict"]["status"] == "semi_rigid"
        code, out, _ = run_cli(capsys, "analyze", "--pairing", "catalog:curve:2")
        assert code == 0 and json.loads(out)["verdict"]["status"] == "not_semi_rigid"

    def test_pairing_file(self, capsys, tmp_path):
        p = catalog_build("torus", (1,)).pairing
        path = tmp_path / "pairing.json"
        path.write_text(json.dumps(pairing_to_json(p)))
        code, out, _ = run_cli(capsys, "analyze", "--pairing", str(path))
        assert code == 0
        assert json.loads(out)["verdict"]["status"] == "semi_rigid"

    def test_rank4_line_at_d5_is_decided_exactly(self, capsys, tmp_path):
        # every pair but (2, 3) goes to its own coordinate, and (2, 3) to minus
        # that of (0, 1): the kernel is the line of e0^e1 + e2^e3, of rank 4
        others = [pq for pq in pair_list(5) if pq != (2, 3)]
        values = {pq: tuple(int(i == j) for j in range(9)) for i, pq in enumerate(others)}
        values[(2, 3)] = tuple(-x for x in values[(0, 1)])
        path = tmp_path / "pairing.json"
        path.write_text(json.dumps(pairing_to_json(SkewPairing.from_map(5, 9, values))))
        code, out, _ = run_cli(capsys, "analyze", "--pairing", str(path))
        assert code == 0
        verdict = json.loads(out)["verdict"]
        assert (verdict["status"], verdict["certificate"]) == ("semi_rigid", "exact_low_dim")
        assert verdict["evidence"]["kernel_dim"] == 1 and verdict["witness"] is None

    @pytest.mark.parametrize("d, k, kind", PLANTED_BELOW_BOUND)
    def test_search_witness_below_the_bound(self, capsys, tmp_path, d, k, kind):
        """A planted kernel below the dimension bound is proved to hold a
        decomposable by the search's witness, which lies on the plant."""
        p, plant = planted_below_bound(np.random.default_rng(0), d, k, kind)
        path = tmp_path / "pairing.json"
        path.write_text(canonical_json(pairing_to_json(p)))
        code, out, _ = run_cli(capsys, "analyze", "--pairing", str(path))
        assert code == 0
        report = json.loads(out)["verdict"]
        assert (report["status"], report["certificate"]) == ("not_semi_rigid", "search_witness")
        evidence = report["evidence"]
        assert evidence["kernel_dim"] == k and evidence["restarts_used"] >= 1
        assert evidence["best_residual"] <= 1e-18
        w = bivector_from_json(report["witness"])
        mode = ScalarMode.exact() if kind == "rational" else ScalarMode.floating()
        verdict._verify_witness(p, w, mode)
        assert projective_distance(w, plant) < 1e-6

    def test_byte_identical_reports(self, capsys):
        outputs = set()
        for _ in range(3):
            code, out, _ = run_cli(capsys, "analyze", "--pairing",
                                   "catalog:symplectic-surface:6", "--seed", "5")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_missing_file_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--pairing", "/nonexistent.json")
        assert code == 2
        assert json.loads(err.splitlines()[0])["error"]

    @pytest.mark.parametrize("command", ["analyze", "kernel", "construct-auto",
                                         "construct-witness", "construct-witness-tuple"])
    def test_rational_mode_on_complex_data_exit_2(self, capsys, tmp_path, command):
        # e0 ^ e2 spans the kernel together with e1 ^ e2
        p = SkewPairing.from_map(3, 1, {(0, 1): (1 + 0j,)})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(pairing_to_json(p)))
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps(bivector_to_json(Bivector.basis_element(3, 0, 2))))
        # a commuting complex tuple, which has mu = 0
        tuple_path = tmp_path / "t.json"
        tuple_path.write_text(canonical_json(tuple_to_json(
            MatrixTuple.from_matrices([np.eye(2, dtype=complex)] * 3))))
        argv = {"analyze": ["analyze"], "kernel": ["kernel"],
                "construct-auto": ["construct", "stable", "--auto", "--n", "2"],
                "construct-witness": ["construct", "stable", "--witness", str(witness),
                                      "--n", "2"],
                "construct-witness-tuple": ["construct", "witness",
                                            "--tuple", str(tuple_path)]}[command]
        argv += ["--pairing", str(path)]
        assert run_cli(capsys, *argv)[0] == 0
        code, out, err = run_cli(capsys, *argv, "--mode", "rational")
        assert_value_error_exit_2(code, out, err)
        assert json.loads(err)["error"]["message"] == "rational mode requires rational input"

    def test_witness_failing_recheck_exit_1(self, capsys, monkeypatch):
        # e0 ^ e1 pairs to 1 under the symplectic form, so it is not in the kernel
        outside = Bivector.basis_element(6, 0, 1)
        monkeypatch.setattr(verdict, "witness_search",
                            lambda k, cfg: SearchResult(outside, 0.0, 1))
        code, out, err = run_cli(capsys, "analyze", "--pairing",
                                 "catalog:symplectic-surface:6")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "WitnessVerificationError"

    def test_witness_of_rank_2_to_the_svd_only_exit_2(self, capsys, tmp_path):
        # u ^ v + 1e-7 x: the SVD counts 2 singular values above DEFAULT_TOL,
        # but the factors from its largest entry miss it at its own norm.  The
        # factorization is the one rank test, so it is not of rank 2: malformed
        # input, as every witness that is not, and no failed verification
        u, v = [3, 1, 1, 2, -2], [-1, -2, -3, 0, 1]
        x = [3, -2, 3, 2, 0, -1, 1, 0, -2, 3]
        coeffs = [float(c) + 1e-7 * e for c, e in zip(wedge(u, v).coeffs, x)]
        assert bivector_rank(Bivector(5, tuple(map(complex, coeffs))), ScalarMode.floating()) == 2
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps({"dim_v": 5, "coeffs": [
            {"i": i, "j": j, "value": [c, 0.0]} for (i, j), c in zip(pair_list(5), coeffs)]}))
        # the zero pairing into W = 0 holds every bivector in its kernel
        pairing = tmp_path / "pairing.json"
        pairing.write_text(json.dumps({"dim_v": 5, "dim_w": 0, "scalar": "complex",
                                       "entries": []}))
        code, out, err = run_cli(capsys, "construct", "stable", "--pairing", str(pairing),
                                 "--witness", str(witness), "--n", "2")
        assert_value_error_exit_2(code, out, err)
        assert "rank exactly 2" in err

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMIRIGID_SEED", "99")
        code, out, _ = run_cli(capsys, "analyze", "--pairing", "catalog:torus:1")
        assert code == 0 and json.loads(out)["seed"] == 99
        code, out, _ = run_cli(capsys, "analyze", "--pairing", "catalog:torus:1",
                               "--seed", "3")
        assert code == 0 and json.loads(out)["seed"] == 3


class TestCliKernel:
    def test_kernel_of_symplectic_4(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--pairing",
                               "catalog:symplectic-surface:4")
        assert code == 0
        payload = json.loads(out)["kernel"]
        assert payload["dim"] == 5 and payload["dim_v"] == 4
        assert len(payload["basis"]) == 5

    @pytest.mark.parametrize("mode", ["rational", "complex"])
    @pytest.mark.parametrize("pairing", ["catalog:identity:1", "catalog:zero:1:2"])
    def test_dim_v_1(self, capsys, pairing, mode):
        # Lambda^2 of a line is 0: the kernel is 0 in either mode
        code, out, _ = run_cli(capsys, "kernel", "--pairing", pairing, "--mode", mode)
        assert code == 0
        assert json.loads(out)["kernel"] == {"basis": [], "dim": 0, "dim_v": 1}
        code, out, _ = run_cli(capsys, "analyze", "--pairing", pairing, "--mode", mode)
        assert code == 0
        assert json.loads(out)["verdict"]["certificate"] == "kernel_zero"

    def test_dim_v_1_samples(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "mu-zero", "--pairing", "catalog:identity:1",
                               "--n", "2", "--starts", "2")
        assert code == 0
        samples = json.loads(out)["samples"]
        assert samples["attempted"] == samples["converged"] == len(samples["points"]) == 2


class TestCliCommuting:
    def test_spectrum_diagonal_pair(self, capsys, tmp_path):
        alpha = MatrixTuple.from_matrices(
            [exact_matrix(np.diag([1, 2])), exact_matrix(np.diag([3, 4]))])
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(tuple_to_json(alpha)))
        code, out, _ = run_cli(capsys, "commuting", "spectrum", "--tuple", str(path))
        assert code == 0
        points = json.loads(out)["spectrum"]["points"]
        assert sorted(points) == sorted([["1/1", "3/1"], ["2/1", "4/1"]])

    @pytest.mark.parametrize("command", ["spectrum", "invariants", "analyze"])
    def test_rational_mode_on_complex_tuple_exit_2(self, capsys, tmp_path, command):
        alpha = MatrixTuple.from_matrices([np.diag([1, 2]).astype(complex)])
        path = tmp_path / "tuple.json"
        path.write_text(canonical_json(tuple_to_json(alpha)))
        argv = ("commuting", command, "--tuple", str(path))
        assert run_cli(capsys, *argv)[0] == 0
        code, out, err = run_cli(capsys, *argv, "--mode", "rational")
        assert_value_error_exit_2(code, out, err)
        assert json.loads(err)["error"]["message"] == "rational mode requires rational input"

    def test_noncommuting_spectrum_exit_3(self, capsys, tmp_path):
        alpha = MatrixTuple.from_matrices(
            [exact_matrix([[0, 1], [0, 0]]), exact_matrix([[0, 0], [1, 0]])])
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(tuple_to_json(alpha)))
        code, _, err = run_cli(capsys, "commuting", "spectrum", "--tuple", str(path))
        assert code == 3
        assert json.loads(err.splitlines()[0])["error"]["type"] == "NotCommutingError"

    def test_invariants(self, capsys, tmp_path):
        alpha = MatrixTuple.from_matrices(
            [exact_matrix(np.diag([1, 2])), exact_matrix(np.diag([3, 4]))])
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(tuple_to_json(alpha)))
        code, out, _ = run_cli(capsys, "commuting", "invariants", "--tuple", str(path),
                               "--max-degree", "2")
        assert code == 0
        monos = {tuple(m["word"]): m["value"]
                 for m in json.loads(out)["invariants"]["monomials"]}
        assert monos[(1,)] == "3/1" and monos[(1, 2)] == "11/1"

    @pytest.mark.parametrize("kind", ["rational", "complex"])
    def test_writers_match_one_scalar_per_value(self, capsys, tmp_path, kind):
        """The spectrum points and the invariant values are written from the
        stored form: each the wire scalar of its own value."""
        diags = [[Fraction(1, 2), Fraction(-2, 3), 4], [Fraction(3, 4), Fraction(5, 6), -1]]
        if kind == "complex":
            diags = [[complex(x) + 0.5j for x in row] for row in diags]
        alpha = MatrixTuple.from_matrices([np.diag(np.array(row, dtype=object))
                                           for row in diags])
        path = tmp_path / "tuple.json"
        path.write_text(canonical_json(tuple_to_json(alpha)))
        code, out, _ = run_cli(capsys, "commuting", "spectrum", "--tuple", str(path))
        assert code == 0
        want = sorted(([wire_scalar(x, kind) for x in p] for p in joint_spectrum(alpha).points),
                      key=json.dumps)
        assert json.loads(out)["spectrum"]["points"] == want
        code, out, _ = run_cli(capsys, "commuting", "invariants", "--tuple", str(path),
                               "--max-degree", "3")
        assert code == 0
        monos = trace_monomials(alpha, 3)
        assert {tuple(m["word"]): m["value"] for m in json.loads(out)["invariants"]["monomials"]
                } == {w: wire_scalar(v, kind) for w, v in monos.items()}

    def test_values_beyond_the_float_range_stay_exact(self, capsys, tmp_path):
        big = 10 ** 400
        alpha = MatrixTuple.from_matrices([exact_matrix([[big, 0], [0, 1]])])
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(tuple_to_json(alpha)))
        code, out, _ = run_cli(capsys, "commuting", "spectrum", "--tuple", str(path))
        assert code == 0
        assert sorted(json.loads(out)["spectrum"]["points"]) == [["1/1"], [f"{big}/1"]]
        code, out, _ = run_cli(capsys, "commuting", "analyze", "--tuple", str(path))
        assert code == 0
        assert json.loads(out)["analysis"] == {
            "commutant_dim": 2, "algebra_dim": 2, "radical_dim": 0, "irreducible": False,
            "semisimple": True, "stable": False}

    def test_float_view_rounds_each_value_once(self, capsys, tmp_path):
        # diag(1, 10^-400) is held as diag(10^400, 1) / 10^400; its float view
        # is diag(1, 0), though the cleared integers lie outside the float range
        alpha = MatrixTuple.from_matrices([[[1, 0], [0, Fraction(1, 10 ** 400)]]])
        assert alpha.den == 10 ** 400 and tuple_scale(alpha) == 1.0
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(tuple_to_json(alpha)))
        code, out, _ = run_cli(capsys, "commuting", "analyze", "--mode", "complex",
                               "--tuple", str(path))
        assert code == 0
        assert json.loads(out)["analysis"] == {
            "commutant_dim": 2, "algebra_dim": 2, "radical_dim": 0, "irreducible": False,
            "semisimple": True, "stable": False}
        code, out, _ = run_cli(capsys, "commuting", "spectrum", "--mode", "complex",
                               "--tuple", str(path))
        assert code == 0
        spectrum = json.loads(out)["spectrum"]
        assert (spectrum["d"], spectrum["n"], spectrum["scalar"]) == (1, 2, "complex")
        assert json.dumps(spectrum["points"]) == "[[[0.0, 0.0]], [[1.0, 0.0]]]"

    def test_float_spectrum_of_a_conjugated_jordan_pair(self, capsys, tmp_path):
        # P 3I P^-1 and P J2 P^-1, P a complex float: the joint spectrum is
        # (3, 0) twice, though the first matrix's restriction is near scalar
        rng = np.random.default_rng(4)
        p = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 3 * np.eye(2)
        alpha = MatrixTuple.from_matrices(
            [p @ m @ np.linalg.inv(p) for m in (3 * np.eye(2), np.array([[0, 1], [0, 0]]))])
        path = tmp_path / "tuple.json"
        path.write_text(canonical_json(tuple_to_json(alpha)))
        code, out, _ = run_cli(capsys, "commuting", "spectrum", "--mode", "complex",
                               "--tuple", str(path))
        assert code == 0
        points = np.array(json.loads(out)["spectrum"]["points"])
        points = points[..., 0] + 1j * points[..., 1]
        assert np.abs(points - [3, 0]).max() <= 1e-6 * tuple_scale(alpha)

    def test_analyze_tuple(self, capsys, tmp_path):
        from semirigid.verdict import witness_to_tuple
        alpha = witness_to_tuple(Bivector.basis_element(2, 0, 1), 2)
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(tuple_to_json(alpha)))
        code, out, _ = run_cli(capsys, "commuting", "analyze", "--tuple", str(path))
        assert code == 0
        payload = json.loads(out)["analysis"]
        assert payload["stable"] and payload["commutant_dim"] == 1


class TestCliConstructAndSample:
    def test_construct_stable_auto(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "stable", "--pairing",
                               "catalog:curve:2", "--auto", "--n", "3",
                               "--epsilon", "1/10")
        assert code == 0
        report = json.loads(out)
        assert report["tuple"]["n"] == 3 and report["tuple"]["d"] == 4
        assert report["witness"]["coeffs"]

    def test_construct_stable_auto_witnesses_match_the_eigh_step(self, capsys, monkeypatch):
        # curve:3 has a one-row annihilator, so the search's J is wide: its
        # row-form step must give the witnesses of the eigh min-norm step
        def witnesses():
            out = []
            for n in range(2, 9):
                code, report, _ = run_cli(capsys, "construct", "stable", "--pairing",
                                          "catalog:curve:3", "--auto", "--n", str(n),
                                          "--seed", str(n))
                assert code == 0
                w = bivector_from_json(json.loads(report)["witness"])
                out.append([complex(c) for c in w.coeffs])
            return np.array(out)

        got = witnesses()
        monkeypatch.setattr(verdict, "_min_norm_step", eigh_min_norm_step)
        want = witnesses()
        assert np.abs(got - want).max() <= 1e-12

    def test_construct_stable_witness_file(self, capsys, tmp_path):
        w = Bivector.basis_element(4, 0, 2)
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(bivector_to_json(w)))
        code, out, _ = run_cli(capsys, "construct", "stable", "--pairing",
                               "catalog:curve:2", "--witness", str(path),
                               "--n", "2", "--epsilon", "1")
        assert code == 0

    def test_construct_stable_on_a_subnormal_witness(self, capsys, tmp_path):
        # the witness fuzzer's pinned multiple of e0 ^ e3, in the kernel, whose
        # largest entry is subnormal
        tiny = 2.225073858507203e-309
        path = tmp_path / "witness.json"
        path.write_text(json.dumps({"dim_v": 4, "coeffs": [
            {"i": 0, "j": 3, "value": [tiny, tiny]}]}))
        code, out, err = run_cli(capsys, "construct", "stable", "--pairing", "catalog:curve:2",
                                 "--witness", str(path), "--n", "2")
        assert code == 0 and err.count("\n") == 1
        report = json.loads(out)["tuple"]
        assert report["scalar"] == "complex"
        assert report["matrices"][0] == [[[0.0, 0.0], [0.0, 0.0]], [[tiny, tiny], [0.0, 0.0]]]

    @pytest.mark.parametrize("pairing, pairs, message", [
        # e0 ^ e1 pairs to 1 under the genus-2 form; e0 ^ e1 + e2 ^ e3 has rank 4
        ("catalog:curve:2", [(0, 1)], "not in the kernel"),
        ("catalog:zero:4:1", [(0, 1), (2, 3)], "rank exactly 2"),
    ])
    @pytest.mark.parametrize("s", [1e-200, 1e200])
    def test_construct_stable_refuses_a_bad_witness_at_any_size(self, capsys, tmp_path,
                                                                pairing, pairs, message, s):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps({"dim_v": 4, "coeffs": [
            {"i": i, "j": j, "value": [s, 0.0]} for i, j in pairs]}))
        code, out, err = run_cli(capsys, "construct", "stable", "--pairing", pairing,
                                 "--witness", str(path), "--n", "2")
        assert_value_error_exit_2(code, out, err)
        assert message in err

    def test_construct_stable_witness_honours_mode(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(bivector_to_json(Bivector.basis_element(4, 0, 2))))
        argv = ("construct", "stable", "--pairing", "catalog:curve:2", "--witness", str(path),
                "--n", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["tuple"]["scalar"] == "rational"
        code, out, _ = run_cli(capsys, *argv, "--mode", "complex")
        assert code == 0 and json.loads(out)["tuple"]["scalar"] == "complex"

    def test_construct_stable_auto_searched_witness_keeps_its_regime(self, capsys):
        # search finds a float witness for this rational pairing, and --mode
        # rational governs only the pairing, so the float witness is still used
        argv = ("construct", "stable", "--pairing", "catalog:symplectic-surface:6", "--auto",
                "--n", "2", "--seed", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["tuple"]["scalar"] == "complex"
        assert run_cli(capsys, *argv, "--mode", "rational")[:2] == (0, out)

    def test_sample_mu_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "mu-zero", "--pairing",
                               "catalog:symplectic-surface:2", "--n", "2",
                               "--starts", "6", "--seed", "1")
        assert code == 0
        payload = json.loads(out)["samples"]
        assert payload["attempted"] == 6
        assert all(pt["commuting"] for pt in payload["points"])

    @pytest.mark.parametrize("entry", ["identity:3", "curve:3"])
    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_sample_nonpositive_n_exit_2(self, capsys, entry, n):
        code, out, err = run_cli(capsys, "sample", "mu-zero", "--pairing", f"catalog:{entry}",
                                 "--n", n, "--starts", "2", "--seed", "1")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["message"] == "need n >= 1"

    @pytest.mark.parametrize("entry", ["identity:3", "curve:3"])
    def test_sample_n1_commuting(self, capsys, entry):
        # 1 x 1 matrices always commute, so every start is a commuting sample
        code, out, _ = run_cli(capsys, "sample", "mu-zero", "--pairing", f"catalog:{entry}",
                               "--n", "1", "--starts", "3", "--seed", "1")
        assert code == 0
        payload = json.loads(out)["samples"]
        assert payload["attempted"] == payload["converged"] == 3
        assert all(pt["commuting"] for pt in payload["points"])

    @pytest.mark.parametrize("entry, n, commuting", [("identity:4", "3", True),
                                                     ("curve:3", "4", False)])
    def test_sample_deterministic_with_labels(self, capsys, entry, n, commuting):
        argv = ("sample", "mu-zero", "--pairing", f"catalog:{entry}", "--n", n,
                "--starts", "8", "--seed", "7")
        code, first, _ = run_cli(capsys, *argv)
        code2, second, _ = run_cli(capsys, *argv)
        assert code == code2 == 0
        assert first == second
        payload = json.loads(first)["samples"]
        assert payload["attempted"] == payload["converged"] == 8
        assert [pt["commuting"] for pt in payload["points"]] == [commuting] * 8


def witness_argv(tmp_path, matrices, pairing="catalog:zero:4:1"):
    """``construct witness`` on a tuple file of ``matrices`` and a pairing."""
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(tuple_to_json(MatrixTuple.from_matrices(matrices))))
    return ("construct", "witness", "--pairing", pairing, "--tuple", str(path))


class TestCliConstructWitness:
    """``construct witness`` reads a kernel element back off a mu-zero tuple."""

    @pytest.mark.parametrize("entry", ["curve:2", "curve:3", "symplectic-surface:4"])
    @pytest.mark.parametrize("mode", ["rational", "complex"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trip_of_construct_stable(self, capsys, tmp_path, entry, mode, n):
        pairing = f"catalog:{entry}"
        code, out, _ = run_cli(capsys, "construct", "stable", "--pairing", pairing, "--auto",
                               "--n", str(n), "--mode", mode)
        assert code == 0
        report = json.loads(out)
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(report["tuple"]))
        code, out, err = run_cli(capsys, "construct", "witness", "--pairing", pairing,
                                 "--tuple", str(path))
        assert code == 0 and err.count("\n") == 1
        contraction = json.loads(out)["contraction"]
        assert contraction["decomposable"] is True
        w, back = (bivector_from_json(x) for x in (report["witness"], contraction["bivector"]))
        if w.is_rational():
            # exactly proportional: every 2 x 2 minor of (w, back) vanishes
            minors = np.outer(w.values, back.values)
            assert back.values.any() and (minors == minors.T).all()
        else:
            assert projective_distance(w, back) < 1e-9

    def test_contraction_of_rank_4_is_no_failed_check(self, capsys, tmp_path):
        # every tuple has mu = 0 on the zero pairing; at n = 3 the first
        # contraction that does not vanish has rank 4, and it is reported
        mats = np.random.default_rng(0).integers(-2, 3, size=(4, 3, 3))
        code, out, err = run_cli(capsys, *witness_argv(tmp_path, list(mats)))
        assert code == 0 and err.count("\n") == 1
        contraction = json.loads(out)["contraction"]
        assert contraction["decomposable"] is False
        assert bivector_rank(bivector_from_json(contraction["bivector"]),
                             ScalarMode.exact()) == 4

    def test_commuting_tuple_gives_no_bivector(self, capsys, tmp_path):
        mats = [np.diag([k, -k]) for k in range(4)]
        code, out, _ = run_cli(capsys, *witness_argv(tmp_path, mats))
        assert code == 0
        assert json.loads(out)["contraction"] == {"bivector": None, "decomposable": False}

    def test_mu_nonzero_exit_3(self, capsys, tmp_path):
        # [E_12, E_21] = H pairs to 1 under e0 ^ e1 of the symplectic form
        mats = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], np.zeros((2, 2), int), np.zeros((2, 2), int)]
        code, out, err = run_cli(capsys, *witness_argv(tmp_path, mats,
                                                       "catalog:symplectic-surface:4"))
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "MuNonzeroError"

    @staticmethod
    def sl2_argv(tmp_path, s):
        """``construct witness`` on the sl2 tuple of e0 ^ e1 at n = 2 times s,
        whose one commutator is 2 s^2, and the zero pairing, which kills e0 ^ e1."""
        x = np.array([[0, 1], [0, 0]], dtype=complex)
        alpha = MatrixTuple.from_matrices([s * x, s * x.T, 0 * x, 0 * x])
        path = tmp_path / "tuple.json"
        path.write_text(canonical_json(tuple_to_json(alpha)))
        return ("construct", "witness", "--pairing", "catalog:zero:4:1", "--tuple", str(path))

    @pytest.mark.parametrize("s", [1e-90, 1e-100])
    def test_witness_of_a_tuple_far_from_unit_size(self, capsys, tmp_path, s):
        code, out, err = run_cli(capsys, *self.sl2_argv(tmp_path, s))
        assert code == 0 and err.count("\n") == 1
        contraction = json.loads(out)["contraction"]
        assert contraction["decomposable"] is True
        w = bivector_from_json(contraction["bivector"])
        assert w.values[0] == pytest.approx(2 * s * s, rel=1e-15) and not w.values[1:].any()

    @pytest.mark.parametrize("s", [1e155, 1e-200])
    def test_witness_beyond_the_float_range_exit_3(self, capsys, tmp_path, s):
        code, out, err = run_cli(capsys, *self.sl2_argv(tmp_path, s))
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "PreconditionError" and "float range" in error["message"]

    def test_subnormal_witness_exit_3(self, capsys, tmp_path):
        # the one coefficient 2 s^2 would be about 1.8e-321, a subnormal
        code, out, err = run_cli(capsys, *self.sl2_argv(tmp_path, 3e-161))
        assert_precondition_exit_3(code, out, err, "the witness lies outside the float range")

    @pytest.mark.parametrize("s", [1e-9, 1e-6, 1.0])
    def test_mu_is_judged_at_the_pairings_size(self, capsys, tmp_path, s):
        # a random tuple has |mu| about s |A|^2
        rng = np.random.default_rng(1)
        alpha = MatrixTuple.from_matrices(list(rng.standard_normal((4, 2, 2))
                                               + 1j * rng.standard_normal((4, 2, 2))))
        paths = tmp_path / "pairing.json", tmp_path / "tuple.json"
        for path, obj in zip(paths, (pairing_to_json(symplectic_pair_pairing(s)),
                                     tuple_to_json(alpha))):
            path.write_text(canonical_json(obj))
        code, out, err = run_cli(capsys, "construct", "witness", "--pairing", str(paths[0]),
                                 "--tuple", str(paths[1]))
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "MuNonzeroError"

    def test_tuple_length_other_than_dim_v_exit_2(self, capsys, tmp_path):
        mats = [np.eye(2, dtype=int)] * 3
        code, out, err = run_cli(capsys, *witness_argv(tmp_path, mats))
        assert_value_error_exit_2(code, out, err)
        assert "tuple length does not match pairing dimension" in err


def leaf_parsers(parser, path=()):
    """(subcommand words, parser) of every leaf subcommand under ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from leaf_parsers(sub, (*path, name))

    def test_input_digest_covers_the_second_file(self, capsys, tmp_path):
        # two witnesses, or two tuples, on one pairing give two digests;
        # --auto reads no second file and keeps the pairing's digest
        pairing = ("--pairing", "catalog:curve:2")
        reports = [json.loads(run_cli(capsys, "construct", "stable", *pairing, "--auto",
                                      "--n", "2", f"--epsilon={e}")[1]) for e in ("1", "1/2")]
        assert reports[0]["input_digest"] == reports[1]["input_digest"]
        w = reports[0]["witness"]
        doubled = {**w, "coeffs": [{**c, "value": "2/1"} for c in w["coeffs"]]}
        runs = ([("stable", "--witness", obj, "--n", "2") for obj in (w, doubled)]
                + [("witness", "--tuple", r["tuple"]) for r in reports])
        digests = {reports[0]["input_digest"]}
        for k, (command, flag, obj, *rest) in enumerate(runs):
            path = tmp_path / f"{k}.json"
            path.write_text(json.dumps(obj))
            code, out, _ = run_cli(capsys, "construct", command, *pairing, flag, str(path), *rest)
            assert code == 0
            digests.add(json.loads(out)["input_digest"])
        assert len(digests) == 5


class TestReadmeCliBlock:
    """README's CLI block names every leaf subcommand and each of its flags;
    --seed and --help, which every subcommand takes, are left to its prose."""

    def test_every_subcommand_and_flag_is_named(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
        # one usage per command: a "semirigid" line and its indented continuations
        usages = re.split(r"\n(?=semirigid )", block.strip())
        for path, parser in leaf_parsers(build_parser()):
            command = re.compile(r"semirigid\s+" + r"\s+".join(map(re.escape, path)) + r"(?!\S)")
            found = [u for u in usages if command.match(u)]
            assert len(found) == 1, path
            flags = {a.option_strings[-1] for a in parser._actions if a.option_strings}
            missing = {f for f in flags - {"--seed", "--help"}
                       if not re.search(rf"(?<![\w-]){re.escape(f)}(?![\w-])", found[0])}
            assert not missing, (path, missing)


class TestCliVerifyAndMisc:
    def test_verify_chevalley(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "chevalley", "--n", "2", "--d", "2",
                               "--samples", "10", "--seed", "3")
        assert code == 0
        assert json.loads(out)["chevalley"]["passed"] is True

    def test_verify_chevalley_failures_exit_1(self, capsys, monkeypatch):
        separates, monomials = cli.chevalley_separates, cli.trace_monomials

        def one_wrong_value(alpha, max_degree):
            out = monomials(alpha, max_degree)
            out[(1,)] += 1
            return out

        monkeypatch.setattr(cli, "chevalley_separates", lambda *a: not separates(*a))
        monkeypatch.setattr(cli, "trace_monomials", one_wrong_value)
        code, out, _ = run_cli(capsys, "verify", "chevalley", "--n", "2", "--d", "2",
                               "--samples", "3", "--seed", "3")
        assert code == 1
        report = json.loads(out)  # exactly one JSON document on stdout
        assert report["chevalley"]["passed"] is False
        assert report["chevalley"]["failures"] == {
            "power_sums": 3, "conjugation": 3, "perturbation": 3}

    def test_split_dim(self, capsys):
        code, out, _ = run_cli(capsys, "split-dim", "--n", "63", "--dim-m", "10")
        assert code == 0
        assert json.loads(out)["split_component_dimension"] == 630

    def test_catalog_list_and_show(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0
        names = {e["name"] for e in json.loads(out)["catalog"]}
        assert names == set(catalog_names())
        code, out, _ = run_cli(capsys, "catalog", "show", "curve", "2")
        assert code == 0
        entry = json.loads(out)["entry"]
        assert entry["expected_status"] == "not_semi_rigid"
        assert entry["pairing"]["dim_v"] == 4

    def test_catalog_list_notes_match_show(self, capsys):
        _, out, _ = run_cli(capsys, "catalog", "list")
        for listed in json.loads(out)["catalog"]:
            params = ["2"] * len(listed["params"].split())
            code, out, _ = run_cli(capsys, "catalog", "show", listed["name"], *params)
            assert code == 0
            assert json.loads(out)["entry"]["notes"] == listed["notes"]

    def test_catalog_pseudo_path_matches_show(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "show", "torus", "1")
        shown = json.loads(out)["entry"]["pairing"]
        p = pairing_from_json(shown)
        assert p == catalog_build("torus", (1,)).pairing

    def test_unknown_catalog_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--pairing", "catalog:moebius:2")
        assert code == 2

    def test_missing_required_argument_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze")
        assert code == 2
        assert json.loads(err.splitlines()[0])["error"]

    def test_timing_on_stderr_only(self, capsys):
        code, out, err = run_cli(capsys, "split-dim", "--n", "2", "--dim-m", "3")
        assert code == 0
        assert "timing_ms" not in out
        assert "timing_ms" in err


class TestCliMalformedInput:
    @pytest.mark.parametrize("entries", [
        [{"i": 0, "j": 1, "values": 5}],
        [5],
        [[0, 1, ["1"]]],
        5,
        [{"i": [0], "j": 1, "values": ["1"]}],
        [{"i": None, "j": 1, "values": ["1"]}],
        [{"i": 0, "j": 1, "values": ["1/0"]}],
        [{"i": 0, "j": 1, "values": [True]}],
        [{"i": 0, "j": 1, "values": ["1/2/3"]}],
        [{"i": 0.7, "j": 1, "values": ["1"]}],
        [{"i": "0", "j": 1, "values": ["1"]}],
        [{"i": False, "j": 1, "values": ["1"]}],
        [{"i": 0, "j": 1, "values": ["1"]}, {"i": 0, "j": 1, "values": ["2"]}],
    ])
    def test_malformed_rational_pairing_exit_2(self, capsys, tmp_path, entries):
        path = tmp_path / "pairing.json"
        path.write_text(json.dumps({"dim_v": 3, "dim_w": 1, "scalar": "rational",
                                    "entries": entries}))
        code, out, err = run_cli(capsys, "analyze", "--pairing", str(path))
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("entries", [
        [{"i": 0, "j": 1, "values": [True]}],
        [{"i": 0, "j": 1, "values": [[True, 0]]}],
        [{"i": 0.7, "j": 1, "values": [[1, 0]]}],
        [{"i": "0", "j": 1, "values": [[1, 0]]}],
        [{"i": 0, "j": 1, "values": [[1, 0]]}, {"i": 0, "j": 1, "values": [[2, 0]]}],
    ])
    def test_malformed_complex_pairing_exit_2(self, capsys, tmp_path, entries):
        path = tmp_path / "pairing.json"
        path.write_text(json.dumps({"dim_v": 3, "dim_w": 1, "scalar": "complex",
                                    "entries": entries}))
        assert_value_error_exit_2(*run_cli(capsys, "kernel", "--pairing", str(path)))

    # int() reads each of these; the wire format is an optional sign and ASCII
    # digits, "p" or "p/q"
    @pytest.mark.parametrize("value", ["1_000", " 3 ", "\u0663", "1/ 2"])
    @pytest.mark.parametrize("file", ["pairing", "tuple", "witness"])
    def test_rational_scalar_beyond_its_format_exit_2(self, capsys, tmp_path, file, value):
        pairing, witness = one_pair_files(value)
        obj = {"pairing": pairing, "witness": witness,
               "tuple": {"n": 1, "d": 1, "scalar": "rational", "matrices": [[[value]]]}}[file]
        path = tmp_path / f"{file}.json"
        path.write_text(json.dumps(obj))
        argv = {"pairing": ("analyze", "--pairing", str(path)),
                "tuple": ("commuting", "analyze", "--tuple", str(path)),
                "witness": ("construct", "stable", "--pairing", "catalog:zero:2:1",
                            "--witness", str(path), "--n", "2")}[file]
        code, out, err = run_cli(capsys, *argv)
        assert_value_error_exit_2(code, out, err)
        assert json.loads(err)["error"]["message"] == (
            f"rational scalar must be an integer or 'p/q' string, got {value!r}")

    def test_complex_scalar_with_non_numeric_part_exit_2(self, capsys, tmp_path):
        path = tmp_path / "pairing.json"
        path.write_text(json.dumps({"dim_v": 3, "dim_w": 1, "scalar": "complex",
                                    "entries": [{"i": 0, "j": 1, "values": [[{}, 1]]}]}))
        code, _, err = run_cli(capsys, "analyze", "--pairing", str(path))
        assert code == 2
        assert json.loads(err.splitlines()[0])["error"]["type"] == "ValueError"

    # a part too large for a float: in a complex file it is malformed input
    # (exit 2), in a rational pairing that a float stage needs, a violated
    # precondition (exit 3)
    @pytest.mark.parametrize("argv, code", [
        (("kernel", "--pairing", "COMPLEX"), 2),
        (("analyze", "--pairing", "BARE"), 2),
        (("commuting", "analyze", "--tuple", "TUPLE"), 2),
        (("construct", "stable", "--pairing", "catalog:curve:2", "--witness", "WITNESS",
          "--n", "2"), 2),
        (("kernel", "--pairing", "RATIONAL", "--mode", "complex"), 3),
        (("analyze", "--pairing", "RATIONAL"), 3),
        (("sample", "mu-zero", "--pairing", "RATIONAL", "--n", "2"), 3),
        (("construct", "stable", "--pairing", "RATIONAL", "--auto", "--n", "2"), 3),
        # at d = 4 the Pfaffian's roots are irrational, and its coefficients huge
        (("analyze", "--pairing", "PFAFFIAN"), 3),
        (("construct", "witness", "--pairing", "catalog:curve:2", "--tuple", "TUPLE"), 2),
    ])
    def test_value_outside_the_float_range_is_refused(self, capsys, tmp_path, argv, code):
        big = 10**400
        files = {
            "COMPLEX": {"dim_v": 3, "dim_w": 1, "scalar": "complex",
                        "entries": [{"i": 0, "j": 1, "values": [[big, 0]]}]},
            "BARE": {"dim_v": 3, "dim_w": 1, "scalar": "complex",
                     "entries": [{"i": 0, "j": 1, "values": [big]}]},
            "TUPLE": {"n": 2, "d": 1, "scalar": "complex",
                      "matrices": [[[[0, 0], [1, 0]], [[0, big], [0, 0]]]]},
            "WITNESS": {"dim_v": 4, "coeffs": [{"i": 0, "j": 2, "value": [0, big]}]},
            # at d = 5 the kernel is at the dimension bound, and its basis
            # holds -10^400
            "RATIONAL": {"dim_v": 5, "dim_w": 1, "scalar": "rational",
                         "entries": [{"i": 0, "j": 1, "values": ["1"]},
                                     {"i": 0, "j": 2, "values": [str(big)]}]},
            "PFAFFIAN": {"dim_v": 4, "dim_w": 4, "scalar": "rational", "entries": [
                {"i": i, "j": j, "values": values} for (i, j), values in zip(
                    pair_list(4), [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                   ["0", "0", "1", "0"], ["0", "0", "0", "1"],
                                   ["2", "0", str(big), "3"], ["1", "5", "0", "7"]])]},
        }
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        got, out, err = run_cli(capsys, *argv)
        assert got == code and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == (
            "ValueError" if code == 2 else "PreconditionError")
        assert "outside the float range" in lines[0]

    @pytest.mark.parametrize("filtration", [
        5,
        {"v": [[1], 0, 0], "w": [0]},
        {"v": [0, 0, 0]},
        {"v": ["0", 0, 0], "w": [0]},
        {"v": [True, 0, 0], "w": [0]},
        {"v": [0, 0, 0], "w": [0]},
    ])
    @pytest.mark.parametrize("command", ["analyze", "kernel"])
    def test_filtration_key_is_ignored(self, capsys, tmp_path, command, filtration):
        # a "filtration" key, well-formed or not, is read like any key the
        # format does not name: the report is that of the file without it
        obj = {"dim_v": 3, "dim_w": 1, "scalar": "rational",
               "entries": [{"i": 0, "j": 1, "values": ["1/2"]}]}
        reports = []
        for name, extra in ("plain.json", {}), ("filtered.json", {"filtration": filtration}):
            path = tmp_path / name
            path.write_text(json.dumps({**obj, **extra}))
            code, out, _ = run_cli(capsys, command, "--pairing", str(path))
            assert code == 0
            reports.append([line for line in out.splitlines() if '"input_digest"' not in line])
        assert reports[0] == reports[1] and len(reports[0]) > 5

    # complex parts are JSON numbers: float() would read the strings, and
    # Python counts a boolean as an int
    NON_NUMBER_PARTS = [["1", "0"], ["1e3", " 2 "], [1.0, "0"], [None, 1.0], [{}, 0], [0, True]]

    @pytest.mark.parametrize("value", NON_NUMBER_PARTS)
    def test_complex_pairing_non_number_parts_exit_2(self, capsys, tmp_path, value):
        path = tmp_path / "pairing.json"
        path.write_text(json.dumps({"dim_v": 3, "dim_w": 1, "scalar": "complex",
                                    "entries": [{"i": 0, "j": 1, "values": [value]}]}))
        code, out, err = run_cli(capsys, "kernel", "--pairing", str(path))
        assert_value_error_exit_2(code, out, err)
        assert "numbers" in err

    @pytest.mark.parametrize("value", NON_NUMBER_PARTS)
    def test_complex_tuple_non_number_parts_exit_2(self, capsys, tmp_path, value):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"n": 2, "d": 1, "scalar": "complex",
                                    "matrices": [[[value, [0, 0]], [[0, 0], [2, 0]]]]}))
        code, out, err = run_cli(capsys, "commuting", "analyze", "--tuple", str(path))
        assert_value_error_exit_2(code, out, err)
        assert "numbers" in err

    @pytest.mark.parametrize("value", NON_NUMBER_PARTS)
    def test_complex_witness_non_number_parts_exit_2(self, capsys, tmp_path, value):
        # (0, 2) lies in the kernel of curve:2, so only the value's parts are wrong
        path = tmp_path / "witness.json"
        path.write_text(json.dumps({"dim_v": 4, "coeffs": [{"i": 0, "j": 2, "value": value}]}))
        code, out, err = run_cli(capsys, "construct", "stable", "--pairing", "catalog:curve:2",
                                 "--witness", str(path), "--n", "2")
        assert_value_error_exit_2(code, out, err)
        assert "numbers" in err

    # sizes must be JSON integers, not floats, strings or booleans
    @pytest.mark.parametrize("cmd", ["kernel", "analyze"])
    @pytest.mark.parametrize("dims", [
        {"dim_v": 3.7, "dim_w": "1"},
        {"dim_v": True, "dim_w": 1},
        {"dim_v": 3, "dim_w": 1.0},
        {"dim_v": "3", "dim_w": 1},
        {"dim_v": 3, "dim_w": False},
    ])
    def test_non_integer_pairing_dims_exit_2(self, capsys, tmp_path, cmd, dims):
        path = tmp_path / "pairing.json"
        path.write_text(json.dumps({**dims, "scalar": "rational",
                                    "entries": [{"i": 0, "j": 1, "values": ["1"]}]}))
        code, out, err = run_cli(capsys, cmd, "--pairing", str(path))
        assert_value_error_exit_2(code, out, err)
        assert "must be an integer" in err

    @pytest.mark.parametrize("cmd", ["spectrum", "analyze"])
    @pytest.mark.parametrize("sizes", [
        {"n": 2.5, "d": 1},
        {"n": "2", "d": 1},
        {"n": 2, "d": True},
        {"n": 2, "d": 1.0},
    ])
    def test_non_integer_tuple_sizes_exit_2(self, capsys, tmp_path, cmd, sizes):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({**sizes, "scalar": "rational",
                                    "matrices": [[["1", "0"], ["0", "2"]]]}))
        code, out, err = run_cli(capsys, "commuting", cmd, "--tuple", str(path))
        assert_value_error_exit_2(code, out, err)
        assert "must be an integer" in err

    @pytest.mark.parametrize("dim_v", [4.0, "4", True])
    def test_non_integer_witness_dim_exit_2(self, capsys, tmp_path, dim_v):
        # (0, 2) lies in the kernel of curve:2, so only the dimension is wrong
        path = tmp_path / "witness.json"
        path.write_text(json.dumps({"dim_v": dim_v, "coeffs": [{"i": 0, "j": 2, "value": "1"}]}))
        code, out, err = run_cli(capsys, "construct", "stable", "--pairing", "catalog:curve:2",
                                 "--witness", str(path), "--n", "2")
        assert_value_error_exit_2(code, out, err)
        assert "must be an integer" in err

    @pytest.mark.parametrize("matrices", [
        5,
        [5],
        [[5, 5]],
        [[["1", "0"], 5]],
        [[["1", "0"], ["0"]]],
    ])
    def test_malformed_tuple_exit_2(self, capsys, tmp_path, matrices):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"n": 2, "d": 1, "scalar": "rational",
                                    "matrices": matrices}))
        assert_value_error_exit_2(*run_cli(capsys, "commuting", "analyze", "--tuple",
                                           str(path)))

    @pytest.mark.parametrize("cmd", ["spectrum", "invariants", "analyze"])
    def test_empty_tuple_exit_2(self, capsys, tmp_path, cmd):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"n": 2, "d": 0, "scalar": "rational", "matrices": []}))
        assert_value_error_exit_2(*run_cli(capsys, "commuting", cmd, "--tuple", str(path)))

    @pytest.mark.parametrize("cmd", ["spectrum", "invariants", "analyze"])
    @pytest.mark.parametrize("n, matrices", [(0, [[]]), (-1, [[]])])
    def test_nonpositive_matrix_size_exit_2(self, capsys, tmp_path, cmd, n, matrices):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"n": n, "d": 1, "scalar": "complex",
                                    "matrices": matrices}))
        code, out, err = run_cli(capsys, "commuting", cmd, "--tuple", str(path))
        assert_value_error_exit_2(code, out, err)
        assert "n >= 1" in err

    @pytest.mark.parametrize("mode", ["rational", "complex"])
    @pytest.mark.parametrize("epsilon", ["1/0", "inf", "-inf", "nan", "x", "1/x", "1e400"])
    def test_bad_epsilon_exit_2(self, capsys, mode, epsilon):
        assert_value_error_exit_2(*run_cli(
            capsys, "construct", "stable", "--pairing", "catalog:curve:2", "--auto",
            "--n", "2", f"--epsilon={epsilon}", "--mode", mode))

    @pytest.mark.parametrize("epsilon", ["1_0/ 3", "\u0661", " 3 ", "1_0"])
    def test_epsilon_not_in_ascii_form_exit_2(self, capsys, epsilon):
        # int() and float() take these; README's "p/q or a decimal" does not
        assert_value_error_exit_2(*run_cli(
            capsys, "construct", "stable", "--pairing", "catalog:curve:2", "--auto",
            "--n", "2", f"--epsilon={epsilon}"))

    @pytest.mark.parametrize("epsilon", ["1", "1/10", "0.5", "1e-3"])
    def test_epsilon_forms_exit_0(self, capsys, epsilon):
        assert run_cli(capsys, "construct", "stable", "--pairing", "catalog:curve:2",
                       "--auto", "--n", "2", f"--epsilon={epsilon}")[0] == 0

    def test_rational_epsilon_beyond_float_range(self, capsys):
        # exact: taken as it is; complex: it has no float value, so it is refused
        argv = ("construct", "stable", "--pairing", "catalog:curve:2", "--auto", "--n", "2",
                f"--epsilon={10**400}/1", "--mode")
        code, out, _ = run_cli(capsys, *argv, "rational")
        assert code == 0 and f"{10**400}/1" in out
        assert_value_error_exit_2(*run_cli(capsys, *argv, "complex"))

    @pytest.mark.parametrize("sizes", [("0", "2", "2"), ("2", "0", "2"), ("-1", "1", "2"),
                                       ("2", "2", "0"), ("2", "2", "-3")])
    def test_verify_chevalley_nonpositive_size_exit_2(self, capsys, sizes):
        n, d, samples = sizes
        code, out, err = run_cli(capsys, "verify", "chevalley", "--n", n, "--d", d,
                                 "--samples", samples)
        assert_value_error_exit_2(code, out, err)
        assert "--n, --d and --samples >= 1" in err

    @pytest.mark.parametrize("degree", ["0", "-2"])
    def test_invariants_nonpositive_max_degree_exit_2(self, capsys, tmp_path, degree):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"n": 2, "d": 1, "scalar": "rational",
                                    "matrices": [[["1", "0"], ["0", "2"]]]}))
        code, out, err = run_cli(capsys, "commuting", "invariants", "--tuple", str(path),
                                 "--max-degree", degree)
        assert_value_error_exit_2(code, out, err)
        assert "max_degree >= 1" in err

    @pytest.mark.parametrize("coeffs", [
        5,
        [5],
        [[0, 1, "1"]],
        [{"i": [0], "j": 1, "value": "1"}],
        [{"i": None, "j": 1, "value": "1"}],
        # (0, 2) lies in the kernel of curve:2, so these are refused for their form
        [{"i": "0", "j": 2, "value": "1"}],
        [{"i": 0, "j": 2, "value": True}],
        [{"i": 0, "j": 2, "value": "1"}, {"i": 0, "j": 2, "value": "2"}],
        [{"i": 0, "j": 2}],
        # a whole witness file in place of the coefficients
        pytest.param({"dim_v": -3, "coeffs": []}, id="dim_v -3"),
        pytest.param({"dim_v": 0, "coeffs": []}, id="dim_v 0"),
    ])
    def test_malformed_witness_exit_2(self, capsys, tmp_path, coeffs):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(coeffs if isinstance(coeffs, dict)
                                   else {"dim_v": 4, "coeffs": coeffs}))
        assert_value_error_exit_2(*run_cli(capsys, "construct", "stable", "--pairing",
                                           "catalog:curve:2", "--witness", str(path),
                                           "--n", "2"))


    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("kind", ["pairing", "tuple", "witness"])
    def test_non_finite_complex_scalar_exit_2(self, capsys, tmp_path, kind, bad):
        # json writes these as the non-standard literals Infinity, -Infinity and NaN
        path = tmp_path / f"{kind}.json"
        obj, argv = {
            "pairing": (
                {"dim_v": 3, "dim_w": 1, "scalar": "complex",
                 "entries": [{"i": 0, "j": 1, "values": [[bad, 0]]}]},
                ("kernel", "--pairing")),
            "tuple": (
                {"n": 2, "d": 1, "scalar": "complex",
                 "matrices": [[[[1, 0], [0, bad]], [[0, 0], [1, 0]]]]},
                ("commuting", "spectrum", "--tuple")),
            "witness": (
                {"dim_v": 4, "coeffs": [{"i": 0, "j": 2, "value": [bad, 0]}]},
                ("construct", "stable", "--pairing", "catalog:curve:2", "--n", "2",
                 "--witness")),
        }[kind]
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert_value_error_exit_2(code, out, err)
        assert "must be finite" in err

    @pytest.mark.parametrize("argv", [
        ("construct", "stable", "--pairing", "catalog:curve:2", "--n", "2", "--witness"),
        ("analyze", "--pairing"),
        ("commuting", "spectrum", "--tuple"),
    ])
    def test_missing_input_file_exit_2(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, str(tmp_path / "absent.json"))
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "_CliInputError"


# the three readers, each through one subcommand that reads a file of its kind
READERS = {
    "pairing": ("kernel", "--pairing"),
    "tuple": ("commuting", "spectrum", "--tuple"),
    "witness": ("construct", "stable", "--pairing", "catalog:curve:2", "--n", "2", "--witness"),
}
DEEP = "[" * 100_000 + "]" * 100_000
# sizes no reader can hold: C(10^9, 2) pair coordinates, or a 400-digit size
# (a tuple's sizes are checked against its lists before anything is made)
TOO_BIG = {
    "pairing": [{"dim_v": 10**9, "dim_w": 1, "scalar": "rational", "entries": []},
                {"dim_v": 10**400, "dim_w": 1, "scalar": "rational", "entries": []},
                {"dim_v": 10**9, "dim_w": 0, "scalar": "complex", "entries": []},
                {"dim_v": 10**9, "dim_w": 1, "scalar": "complex", "entries": []},
                {"dim_v": 10**400, "dim_w": 1, "scalar": "complex", "entries": []}],
    "tuple": [{"n": 10**9, "d": 1, "scalar": "rational", "matrices": [[]]},
              {"n": 2, "d": 10**400, "scalar": "complex", "matrices": []}],
    "witness": [{"dim_v": 10**9, "coeffs": []}, {"dim_v": 10**400, "coeffs": []}],
}


def main_on_file(reader, text, argv=None):
    """cli.main on a file holding ``text``, read by ``reader`` (or by the
    command ``argv``, whose last flag takes the file): exit code, stdout, and
    stderr with a line for each warning, as a terminal shows it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{reader}.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*(argv or READERS[reader]), str(path)])
    return code, out.getvalue(), err.getvalue() + "".join(f"{w.message}\n" for w in caught)


def assert_exit_2_or_3_or_a_report(code, out, err):
    """The CLI's contract on any file: a report (exit 0), or exit 2 or 3 with
    one JSON error line on stderr and nothing on stdout."""
    assert code in (0, 2, 3)
    lines = err.splitlines()
    assert len(lines) == 1
    if code == 0:
        assert "timing_ms" in json.loads(lines[0]) and json.loads(out)
    else:
        assert out == "" and set(json.loads(lines[0])["error"]) == {"type", "message"}


class TestInputTooBigToHold:
    """Input nested or sized beyond what the process can hold is malformed input."""

    @pytest.mark.parametrize("reader", READERS)
    def test_deep_nesting_exit_2(self, reader):
        code, out, err = main_on_file(reader, DEEP)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "_CliInputError"
        assert error["message"].startswith(f"cannot read {reader} file: maximum recursion depth")

    @pytest.mark.parametrize("reader, which", [
        (reader, which) for reader, objs in TOO_BIG.items() for which in range(len(objs))])
    def test_oversize_dimension_exit_2(self, reader, which):
        code, out, err = main_on_file(reader, json.dumps(TOO_BIG[reader][which]))
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0])

    def test_rational_pairing_of_10_9_is_a_memory_error(self):
        # numpy refuses the C(10^9, 2)-column matrix before allocating it
        code, _, err = main_on_file("pairing", json.dumps(TOO_BIG["pairing"][0]))
        assert code == 2 and "MemoryError" in json.loads(err)["error"]["type"]


BIG_INT = 10**399 + 7  # 400 digits
SMALL = st.integers(-3, 3)
# JSON of every kind, with no integer large enough to size an allocation
JUNK = st.recursive(
    st.none() | st.booleans() | SMALL | st.floats() | st.text(max_size=3)
    | st.sampled_from(["1/2", "-3/4", "1/0", "2/-6", "7", "x", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=3),
    max_leaves=8)
RATIONAL_SCALARS = SMALL | st.sampled_from([BIG_INT, -BIG_INT, "1/2", f"{BIG_INT}/3", "2/-6"])
COMPLEX_SCALARS = st.lists(st.floats(-4, 4) | SMALL, min_size=2, max_size=2)


def scalars_of(kind, clean):
    """Scalars of the file's kind; unless ``clean``, now and then one of the
    other kind or junk."""
    valid = RATIONAL_SCALARS if kind == "rational" else COMPLEX_SCALARS
    return valid if clean else st.one_of(valid, valid, valid, st.just([BIG_INT, 0]),
                                         RATIONAL_SCALARS | COMPLEX_SCALARS | JUNK)


def corrupted(draw, obj, fields, clean):
    """obj, unless ``clean`` with now and then a field dropped or replaced
    from ``fields``."""
    for key, alt in ({} if clean else fields).items():
        roll = draw(st.integers(0, 9))
        if roll == 0:
            obj.pop(key, None)
        elif roll == 1:
            obj[key] = draw(alt)
    return obj


@st.composite
def pairing_texts(draw, huge=True):
    """Pairing files, now and then with a "filtration" key, which the format
    does not name and the reader ignores; unless ``huge``, every size is
    small, for the commands that work on a pairing of whatever size the
    reader holds."""
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(JUNK))
    d, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    kind, clean = draw(st.sampled_from(["rational", "complex"])), draw(st.booleans())
    pairs = draw(st.lists(st.sampled_from(pair_list(d)), unique=True)) if d > 1 else []
    values = st.lists(scalars_of(kind, clean), min_size=m, max_size=m)
    obj = {"dim_v": d, "dim_w": m, "scalar": kind,
           "entries": [{"i": i, "j": j, "values": draw(values)} for i, j in pairs]}
    if draw(st.integers(0, 3)) == 0:
        levels = st.integers(0, 2)
        obj["filtration"] = {"v": draw(st.lists(levels, min_size=d, max_size=d)),
                             "w": draw(st.lists(levels, min_size=m, max_size=m))}
    # 10^9 and 10^400 are refused by the reader at any dim_w, or by kernel at dim_w 0
    dim_v = JUNK | st.sampled_from([BIG_INT, 10**9]) if huge else JUNK
    return json.dumps(corrupted(draw, obj, {
        "dim_v": dim_v, "dim_w": JUNK | st.just(BIG_INT), "scalar": JUNK, "entries": JUNK,
        "filtration": JUNK}, clean))


@st.composite
def tuple_texts(draw):
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(JUNK))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kind, clean = draw(st.sampled_from(["rational", "complex"])), draw(st.booleans())
    zero = "0" if kind == "rational" else [0, 0]
    # diagonal matrices commute, so their spectrum is computed
    diagonal = draw(st.booleans())
    mats = [[[draw(scalars_of(kind, clean)) if i == j or not diagonal else zero
              for j in range(n)] for i in range(n)] for _ in range(d)]
    obj = {"n": n, "d": d, "scalar": kind, "matrices": mats}
    return json.dumps(corrupted(draw, obj, {
        "n": JUNK | st.just(BIG_INT), "d": JUNK | st.just(BIG_INT), "scalar": JUNK,
        "matrices": JUNK}, clean))


@st.composite
def witness_texts(draw):
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(JUNK))
    # (0, 2), (0, 3), (1, 2), (1, 3) span kernel bivectors of curve:2, of rank 2 and 4
    pairs = draw(st.lists(st.sampled_from([(0, 2), (0, 3), (1, 2), (1, 3), (0, 1)]),
                          unique=True))
    kind, clean = draw(st.sampled_from(["rational", "complex"])), draw(st.booleans())
    obj = {"dim_v": 4, "coeffs": [{"i": i, "j": j, "value": draw(scalars_of(kind, clean))}
                                  for i, j in pairs]}
    return json.dumps(corrupted(draw, obj, {
        "dim_v": JUNK | st.sampled_from([BIG_INT, 10**9]), "coeffs": JUNK}, clean))


class TestReaderFuzz:
    """Seeded Hypothesis files through cli.main: every one ends in a report
    or in exit 2 or 3 with one JSON error line, never in a traceback."""

    @given(text=pairing_texts())
    @example(text=DEEP)
    @example(text=json.dumps(TOO_BIG["pairing"][0]))
    @example(text=json.dumps(TOO_BIG["pairing"][2]))
    @settings(max_examples=60)
    def test_pairing_files(self, text):
        assert_exit_2_or_3_or_a_report(*main_on_file("pairing", text))

    @given(text=tuple_texts())
    @example(text=DEEP)
    @example(text=json.dumps(TOO_BIG["tuple"][0]))
    @settings(max_examples=60)
    def test_tuple_files(self, text):
        assert_exit_2_or_3_or_a_report(*main_on_file("tuple", text))

    @pytest.mark.parametrize("argv", [
        ("analyze", "--restarts", "2", "--max-iterations", "5", "--pairing"),
        ("sample", "mu-zero", "--n", "2", "--starts", "2", "--pairing"),
        ("construct", "stable", "--auto", "--n", "2", "--restarts", "2", "--pairing"),
    ])
    @given(text=pairing_texts(huge=False))
    @settings(max_examples=20)
    def test_pairing_files_through_every_command(self, argv, text):
        assert_exit_2_or_3_or_a_report(*main_on_file("pairing", text, argv))

    @pytest.mark.parametrize("argv", [
        ("commuting", "invariants", "--max-degree", "2", "--tuple"),
        ("commuting", "analyze", "--tuple"),
    ])
    @given(text=tuple_texts())
    @settings(max_examples=20)
    def test_tuple_files_through_every_command(self, argv, text):
        assert_exit_2_or_3_or_a_report(*main_on_file("tuple", text, argv))

    @given(text=witness_texts())
    @example(text=DEEP)
    # a subnormal pivot, factored at its own binary exponent, with no warning
    @example(text=json.dumps({"dim_v": 4, "coeffs": [
        {"i": 0, "j": 3, "value": [2.225073858507203e-309, 2.225073858507203e-309]}]}))
    @example(text=json.dumps(TOO_BIG["witness"][0]))
    @settings(max_examples=60)
    def test_witness_files(self, text):
        assert_exit_2_or_3_or_a_report(*main_on_file("witness", text))


def test_cli_import_loads_no_scipy():
    src = str(Path(semirigid.__file__).resolve().parent.parent)
    code = ("import sys, semirigid.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The package pins one OpenBLAS thread unless the caller set a count, so
    a report is the same with the variable unset and set to 1: on the
    seed-1001 items of the benchmark whose reports moved with two threads,
    three witnesses (through the float kernel basis) and two sampler runs."""
    root = Path(semirigid.__file__).resolve().parents[2]
    ids = ("31-bound-d12", "32-bound-d13", "33-bound-d14", "51-sample-identity:3-n5",
           "65-sample-curve:3-n5")
    argvs = [i.argv for i in perfbench_items().build("complex-float", 1001, str(tmp_path))
             if i.id in ids]
    assert len(argvs) == len(ids)
    code = ("import contextlib, io, json, sys; from semirigid.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert main(argv) == 0\n"
            "    print(json.dumps(out.getvalue()))")
    unset = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    unset["PYTHONPATH"] = str(root / "src")
    outs = [subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                           capture_output=True, text=True, check=True).stdout.splitlines()
            for env in (unset, {**unset, "OPENBLAS_NUM_THREADS": "1"})]
    assert len(outs[0]) == len(ids)
    assert json.loads(json.loads(outs[0][0]))["verdict"]["witness"] is not None
    assert outs[0] == outs[1]


def test_catalog_list_searches_for_no_primes():
    # the modular engine finds its primes on first use, not at import
    src = str(Path(semirigid.__file__).resolve().parent.parent)
    code = ("import sys, semirigid.cli as c, semirigid.scalars as s; "
            "c.main(['catalog', 'list']); print(s._prime.cache_info().currsize, file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout and out.stderr.splitlines()[-1] == "0"


class TestCliSearchDefaults:
    def test_unset_flags_take_search_config_defaults(self):
        for argv in (["analyze", "--pairing", "x"],
                     ["construct", "stable", "--pairing", "x", "--auto", "--n", "2"],
                     ["sample", "mu-zero", "--pairing", "x", "--n", "2"]):
            args = build_parser().parse_args(argv)
            assert _search_config(args, 5) == SearchConfig(seed=5)

    def test_explicit_flags_pass_through(self):
        args = build_parser().parse_args(
            ["analyze", "--pairing", "x", "--restarts", "3", "--max-iterations", "7"])
        assert _search_config(args, 2) == SearchConfig(restarts=3, max_iterations=7, seed=2)
        args = build_parser().parse_args(
            ["sample", "mu-zero", "--pairing", "x", "--n", "2", "--starts", "5"])
        assert _search_config(args, 0) == SearchConfig(restarts=5)

    @pytest.mark.parametrize("argv", [
        ("analyze", "--restarts", "0"),
        ("analyze", "--max-iterations", "0"),
        ("analyze", "--max-iterations", "-1"),
        ("sample", "mu-zero", "--n", "2", "--starts", "-1"),
        ("analyze", "--restarts", "-2"),
        ("construct", "stable", "--auto", "--n", "2", "--restarts", "0"),
        ("sample", "mu-zero", "--n", "2", "--starts", "0"),
        ("analyze", "--seed", "-1"),
        ("kernel", "--seed", "-1"),
        ("construct", "stable", "--auto", "--n", "2", "--seed", "-1"),
        ("sample", "mu-zero", "--n", "2", "--seed", "-1"),
        # the seed is refused before the tuple file is read
        ("construct", "witness", "--tuple", "unread.json", "--seed", "-1"),
    ])
    def test_zero_or_negative_settings_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--pairing", "catalog:curve:2")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("argv", [
        ("analyze", "--pairing", "catalog:curve:3"),
        ("commuting", "spectrum", "--tuple", "TUPLE"),
        ("commuting", "invariants", "--tuple", "TUPLE"),
        ("commuting", "analyze", "--tuple", "TUPLE"),
        ("verify", "chevalley", "--n", "2", "--d", "2", "--samples", "1"),
        ("catalog", "list"),
        ("catalog", "show", "curve", "2"),
        ("split-dim", "--n", "3", "--dim-m", "2"),
    ])
    def test_negative_seed_exit_2(self, capsys, monkeypatch, tmp_path, argv):
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"n": 2, "d": 1, "scalar": "rational",
                                    "matrices": [[["1", "0"], ["0", "2"]]]}))
        argv = [str(path) if a == "TUPLE" else a for a in argv]
        monkeypatch.delenv("SEMIRIGID_SEED", raising=False)
        code, out, err = run_cli(capsys, *argv, "--seed", "-3")
        assert_value_error_exit_2(code, out, err)
        assert "got -3" in err
        monkeypatch.setenv("SEMIRIGID_SEED", "-3")
        code, out, err = run_cli(capsys, *argv)
        assert_value_error_exit_2(code, out, err)
        assert "got -3" in err

    def test_tol_rank_flag_is_a_usage_error(self, capsys):
        # a witness is re-checked at the default rank tolerance; no flag sets it
        code, out, err = run_cli(capsys, "analyze", "--pairing", "catalog:curve:2",
                                 "--tol-rank", "1e-6")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "_CliInputError"

    @pytest.mark.parametrize("value", ["1e-12", "-1", "0"])
    def test_tol_plucker_flag_is_a_usage_error(self, capsys, value):
        # the search accepts at a residual derived from the one tolerance
        code, out, err = run_cli(capsys, "analyze", "--pairing", "catalog:curve:2",
                                 "--tol-plucker", value)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "_CliInputError"


class TestParserBuiltOnce:
    def _runs(self, tuple_path):
        """Every subcommand with and without --seed (invariants also with and
        without --max-degree), then a usage error, then all in reverse order."""
        t = ("--tuple", tuple_path)
        commands = [
            ("analyze", "--pairing", "catalog:curve:2"),
            ("kernel", "--pairing", "catalog:curve:2"),
            ("commuting", "spectrum", *t),
            ("commuting", "invariants", *t),
            ("commuting", "invariants", *t, "--max-degree", "2"),
            ("commuting", "analyze", *t),
            ("construct", "stable", "--pairing", "catalog:curve:2", "--auto", "--n", "2"),
            ("sample", "mu-zero", "--pairing", "catalog:curve:2", "--n", "2", "--starts", "1"),
            ("verify", "chevalley", "--n", "2", "--d", "2", "--samples", "1"),
            ("catalog", "list"),
            ("catalog", "show", "curve", "2"),
            ("split-dim", "--n", "3", "--dim-m", "2"),
        ]
        runs = [argv + extra for argv in commands for extra in ((), ("--seed", "7"))]
        return runs + [("commuting", "invariants", *t, "--max-degree")] + runs[::-1]

    def _outcomes(self, capsys, runs):
        return [run_cli(capsys, *argv)[:2] for argv in runs]

    def test_shared_parser_matches_fresh_parsers(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("SEMIRIGID_SEED", raising=False)
        alpha = MatrixTuple.from_matrices(
            [exact_matrix([[2, 1], [0, 2]]),
             exact_matrix([[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(1, 2)]])])
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps(tuple_to_json(alpha)))
        runs = self._runs(str(path))
        assert build_parser() is build_parser()
        shared = self._outcomes(capsys, runs)
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        assert self._outcomes(capsys, runs) == shared
        for argv, (code, out) in zip(runs, shared):
            if argv[-1] == "--max-degree":
                assert code == 2 and out == ""
                continue
            assert code == 0
            report = json.loads(out)
            # no flag of an earlier call carries over into a later one
            assert report["seed"] == (7 if "--seed" in argv else 0)
            if "invariants" in argv:
                assert report["invariants"]["max_degree"] == (2 if "2" in argv else 4)
