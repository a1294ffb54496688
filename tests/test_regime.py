"""One regime rule: every entry point with a ``mode`` takes it from
``scalars.resolve_mode``, so an exact request on non-rational input is a
ValueError everywhere and no mode means exact on rational input."""

from fractions import Fraction

import pytest

from semirigid.catalog import catalog_build
from semirigid.commuting import (
    MatrixTuple,
    chevalley_separates,
    joint_spectrum,
    regular_locus_test,
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
from semirigid.scalars import ScalarMode, exact_matrix, resolve_mode
from semirigid.verdict import (
    CERT_EXACT_LOW_DIM,
    construct_stable_point,
    decide,
    tuple_to_witness,
    witness_to_tuple,
)

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
    "regular_locus_test": (lambda r, mode: regular_locus_test(tuple_(SPLIT, r), mode),
                           lambda distinct: distinct),
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
