"""One regime rule: every entry point with a ``mode`` takes it from
``scalars.resolve_mode``, so an exact request on non-rational input is a
ValueError everywhere and no mode means exact on rational input.  Which input
is rational is one rule too, ``scalars.stored``, which every constructor
builds its stored form with."""

import math
import numbers
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semirigid.catalog import catalog_build
from semirigid.commuting import (
    MatrixTuple,
    chevalley_separates,
    joint_spectrum,
    rep_analysis,
    simultaneous_triangularize,
)
from semirigid.exterior import (
    Bivector,
    KernelSubspace,
    SkewPairing,
    decomposable_exists_exact,
    kernel,
)
from semirigid.scalars import PreconditionError, ScalarMode, eigenvalues, resolve_mode
from semirigid.verdict import (
    CERT_EXACT_LOW_DIM,
    construct_stable_point,
    decide,
    tuple_to_witness,
    witness_to_tuple,
)

from util import exact_matrix

EXACT = ScalarMode.exact()
FLOAT = ScalarMode.floating()
REFUSAL = "rational mode requires rational input"

# genus-2 intersection form on V = C^4; e0 ^ e2 is a rank-2 element of its kernel
CURVE = catalog_build("curve", [2]).pairing
W = Bivector.basis_element(4, 0, 2)
STABLE = witness_to_tuple(W, 2, EXACT)
# e0^e1 + e2^e3 and e0^e1 - e2^e3: the Pfaffian quadric on their span has the
# rational roots found exactly, the float branch solves it with cmath
PLANE = (Bivector(4, (1, 0, 0, 0, 0, 1)), Bivector(4, (1, 0, 0, 0, 0, -1)))
# diag(1, 1 + 1e-12): exact arithmetic sees two eigenvalues and an algebra of
# dimension 2, float arithmetic at tol_rank 1e-8 sees one and dimension 1
SPLIT = MatrixTuple.from_matrices([exact_matrix([[1, 0], [0, 1 + Fraction(1, 10**12)]])])
ONE = MatrixTuple.from_matrices([exact_matrix([[1, 0], [0, 1]])])


def complex_pairing(p: SkewPairing) -> SkewPairing:
    return SkewPairing(p.dim_v, p.dim_w, tuple(tuple(complex(x) for x in r) for r in p.entries))


def complex_bivector(w: Bivector) -> Bivector:
    return Bivector(w.dim_v, tuple(complex(c) for c in w.coeffs))


def pairing(rational):
    return CURVE if rational else complex_pairing(CURVE)


def witness(rational):
    return W if rational else complex_bivector(W)


def tuple_(base, rational):
    return base if rational else base.to_float()


# name -> (call on rational or complex input with a mode, is the output exact)
ENTRY_POINTS = {
    "kernel": (lambda r, mode: kernel(pairing(r), mode),
               lambda k: k.dim == 5 and all(b.is_rational() for b in k.basis)),
    "decomposable_exists_exact": (
        lambda r, mode: decomposable_exists_exact(
            KernelSubspace(4, tuple(b if r else complex_bivector(b) for b in PLANE)), mode),
        lambda dec: dec.witness.is_rational()),
    "decide": (lambda r, mode: decide(pairing(r), mode),
               lambda v: v.certificate == CERT_EXACT_LOW_DIM and v.witness.is_rational()),
    "witness_to_tuple": (lambda r, mode: witness_to_tuple(witness(r), 2, mode),
                         MatrixTuple.is_rational),
    "tuple_to_witness": (lambda r, mode: tuple_to_witness(tuple_(STABLE, r), pairing(r), mode),
                         lambda w: w is not None and w.is_rational()),
    # a rational witness: only the pairing's regime is at stake
    "construct_stable_point": (
        lambda r, mode: construct_stable_point(pairing(r), W, 2, Fraction(1, 2), mode),
        MatrixTuple.is_rational),
    "simultaneous_triangularize": (
        lambda r, mode: simultaneous_triangularize(tuple_(SPLIT, r), mode),
        lambda out: out[0].dtype == object and out[1].is_rational()),
    "joint_spectrum": (lambda r, mode: joint_spectrum(tuple_(SPLIT, r), mode),
                       lambda s: s.is_rational() and len(set(s.points)) == 2),
    "rep_analysis": (lambda r, mode: rep_analysis(tuple_(SPLIT, r), mode),
                     lambda out: out.algebra_dim == 2),
    # both return whether the joint spectra agree: exactly they do not
    "chevalley_separates": (
        lambda r, mode: chevalley_separates(tuple_(SPLIT, r), tuple_(ONE, r), mode),
        lambda same: not same),
}


class TestResolveMode:
    def test_none_follows_the_input(self):
        assert resolve_mode(None, CURVE, W).is_exact
        assert not resolve_mode(None, CURVE, complex_bivector(W)).is_exact
        assert resolve_mode(None).is_exact

    def test_float_request_is_returned_unchanged(self):
        assert resolve_mode(FLOAT, CURVE) is FLOAT
        assert resolve_mode(FLOAT, complex_pairing(CURVE)) is FLOAT

    def test_exact_request_on_non_rational_input_is_refused(self):
        assert resolve_mode(EXACT, CURVE, STABLE) is EXACT
        with pytest.raises(ValueError, match=REFUSAL):
            resolve_mode(EXACT, CURVE, STABLE.to_float())

    def test_one_float_tuple_puts_both_in_float(self):
        # with no mode given, the float copy puts the rational tuple in float
        # mode as well, where the two agree
        alpha = MatrixTuple.from_matrices([exact_matrix([[0, 1], [2, 0]])])
        assert chevalley_separates(alpha, alpha.to_float())


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
class TestEntryPointRegimes:
    def test_exact_request_on_complex_input_raises_value_error(self, name):
        call, _ = ENTRY_POINTS[name]
        with pytest.raises(ValueError, match=REFUSAL):
            call(False, EXACT)

    def test_no_mode_on_rational_input_is_exact(self, name):
        call, is_exact = ENTRY_POINTS[name]
        assert is_exact(call(True, None))
        assert not is_exact(call(True, FLOAT))


NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
# a rational value beyond the float range: refused wherever it must be rounded
HUGE = Fraction(10**400, 7)


def numpy_int(dtype, v):
    return dtype(abs(v) if np.issubdtype(dtype, np.unsignedinteger) else v)


# the kinds of entry a constructor is given
ENTRY_KINDS = (
    st.integers(-2**70, 2**70),
    st.booleans(),
    st.builds(numpy_int, st.sampled_from(NUMPY_INTS), st.integers(-100, 100)),
    st.fractions(max_denominator=30),
    st.sampled_from([HUGE, -HUGE, 10**400]),
    st.integers(-9, 9).map(float),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def entry_mixes(draw):
    """Twelve entries: a list mixing a few kinds, or an integer ndarray."""
    if draw(st.integers(0, 4)) == 0:
        dtype = draw(st.sampled_from(NUMPY_INTS))
        return np.array([numpy_int(dtype, v) for v in draw(
            st.lists(st.integers(-100, 100), min_size=12, max_size=12))], dtype=dtype)
    kinds = draw(st.lists(st.sampled_from(ENTRY_KINDS), min_size=1, max_size=3, unique=True))
    return draw(st.lists(st.one_of(kinds), min_size=12, max_size=12))


def expected_form(flat):
    """(values, den) of the one rule: cleared Python ints when every entry is a
    numbers.Rational, else complex with den 1; None when a rational value must
    be rounded beyond the float range."""
    if all(isinstance(x, numbers.Rational) for x in flat):
        fs = [Fraction(int(x.numerator), int(x.denominator)) for x in flat]
        den = math.lcm(*(f.denominator for f in fs))
        return [int(f * den) for f in fs], den
    try:
        return [complex(x) for x in flat], 1
    except OverflowError:
        return None


def constructors(xs):
    """Each constructor on the twelve entries xs, with the entries it holds:
    two bivectors at d = 4 of six each, and a pairing into C^2, a kernel of
    those two bivectors and a tuple of three 2 x 2 matrices of all twelve."""
    rows = np.stack([xs[:6], xs[6:]], axis=1) if isinstance(xs, np.ndarray) else [
        (xs[p], xs[6 + p]) for p in range(6)]
    mats = (xs.reshape(3, 2, 2) if isinstance(xs, np.ndarray) else
            [[xs[4 * i:4 * i + 2], xs[4 * i + 2:4 * i + 4]] for i in range(3)])
    return {
        "Bivector, first": (lambda: Bivector(4, xs[:6]), xs[:6]),
        "Bivector, second": (lambda: Bivector(4, xs[6:]), xs[6:]),
        "SkewPairing": (lambda: SkewPairing(4, 2, rows), xs),
        "KernelSubspace": (lambda: KernelSubspace(4, (Bivector(4, xs[:6]), Bivector(4, xs[6:]))),
                           xs),
        "MatrixTuple": (lambda: MatrixTuple(2, 3, mats), xs),
    }


class TestOneRationalRule:
    @settings(max_examples=200)
    @given(xs=entry_mixes())
    @example(xs=[np.int64(1)] + [0] * 11)
    @example(xs=np.arange(12))
    @example(xs=[HUGE, 1j] + [0] * 10)
    @example(xs=[True, Fraction(1, 2), np.uint8(3), 2**70] + [0] * 8)
    def test_every_constructor_holds_the_same_form(self, xs):
        for name, (build, held) in constructors(xs).items():
            want = expected_form(list(held))
            if want is None:
                with pytest.raises(PreconditionError):
                    build()
                continue
            obj = build()
            values, den = want
            assert obj.values.ravel().tolist() == values and obj.den == den, name
            if obj.is_rational():
                assert all(type(x) is int for x in obj.values.flat) and type(obj.den) is int, name
            else:
                assert obj.values.dtype == np.complex128, name
            assert obj.is_rational() == all(isinstance(x, numbers.Rational) for x in held), name

    def test_numpy_integer_pairing_decides_exactly(self):
        # symplectic-surface:4 from np.int64 entries, as an array and as
        # scalars, gets the exact witness and certificate of its Python ints
        ref = catalog_build("symplectic-surface", [4]).pairing
        want = decide(ref)
        assert want.witness.is_rational()
        as_array = np.array(ref.entries, dtype=np.int64)
        for entries in as_array, [[np.int64(x) for x in row] for row in ref.entries]:
            p = SkewPairing(4, 1, entries)
            assert p.is_rational() and p == ref
            assert decide(p) == want

    def test_exact_eigenvalues_take_the_rule(self):
        assert eigenvalues(np.diag(np.array([3, -1], dtype=np.int16)), EXACT) == [-1, 3]
        with pytest.raises(ValueError, match=REFUSAL):
            eigenvalues(np.diag([3.0, -1.0]), EXACT)
