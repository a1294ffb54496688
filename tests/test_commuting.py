
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semirigid.commuting import (
    JointSpectrum,
    MatrixTuple,
    NotCommutingError,
    chevalley_separates,
    chi,
    chi_norm,
    is_commuting,
    joint_spectrum,
    mu,
    regular_locus_test,
    regular_sl2_triple,
    rep_analysis,
    simultaneous_triangularize,
    trace_contraction,
    trace_monomials,
)
from semirigid.exterior import Bivector, SkewPairing, apply, bivector_rank, pair_list
from semirigid.scalars import ScalarMode, exact_matrix, float_matrix, to_float
from util import unitriangular_pair

EXACT = ScalarMode.exact()
FLOAT = ScalarMode.floating()


def exact_tuple(*mats):
    return MatrixTuple.from_matrices([exact_matrix(m) for m in mats])


def float_tuple(*mats):
    return MatrixTuple.from_matrices([float_matrix(m) for m in mats])


def sl2_pair(n=2):
    t = regular_sl2_triple(n)
    return MatrixTuple.from_matrices([t.x, t.y])


def symplectic_pairing(d):
    return SkewPairing.from_map(d, 1, {(2 * k, 2 * k + 1): (1,) for k in range(d // 2)})


def conjugated_diagonal_float(rng, n, d, spread=3):
    diags = [np.diag(rng.integers(-spread, spread + 1, size=n).astype(complex))
             for _ in range(d)]
    p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
    pinv = np.linalg.inv(p)
    mats = [p @ dg @ pinv for dg in diags]
    points = [tuple(complex(dg[j, j]) for dg in diags) for j in range(n)]
    return MatrixTuple.from_matrices(mats), points


class TestChi:
    def test_diagonal_tuple_commutes(self):
        alpha = exact_tuple(np.diag([1, 2]), np.diag([3, 4]))
        assert all(np.all(c == 0) for c in chi(alpha))

    def test_sl2_pair_gives_h(self):
        t = regular_sl2_triple(2)
        alpha = sl2_pair(2)
        (c,) = chi(alpha)
        assert np.all(c == t.h)

    def test_scalars_commute(self):
        alpha = exact_tuple([[5]], [[7]], [[-1]])
        assert all(np.all(c == 0) for c in chi(alpha))


class TestMu:
    def test_kernel_direction_gives_zero(self):
        # pairing killing e0 ^ e1
        p = SkewPairing.from_map(2, 1, {(0, 1): (0,)})
        alpha = sl2_pair(2)
        out = mu(alpha, p)
        assert all(np.all(m == 0) for m in out)
        assert chi_norm(alpha) > 0

    def test_symplectic_gives_h(self):
        t = regular_sl2_triple(2)
        out = mu(sl2_pair(2), symplectic_pairing(2))
        assert np.all(out[0] == t.h)

    def test_commuting_tuple_always_zero(self):
        rng = np.random.default_rng(1)
        alpha = exact_tuple(np.diag([1, 2, 3]), np.diag([0, 5, -1]))
        for _ in range(5):
            d, m = 2, int(rng.integers(1, 4))
            p = SkewPairing.from_map(
                d, m, {(0, 1): tuple(int(x) for x in rng.integers(-3, 4, size=m))})
            assert all(np.all(x == 0) for x in mu(alpha, p))

    def test_factorization_through_chi(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n, d, m = int(rng.integers(2, 4)), int(rng.integers(2, 5)), int(rng.integers(1, 4))
            alpha = MatrixTuple.from_matrices(
                [exact_matrix(rng.integers(-2, 3, size=(n, n))) for _ in range(d)])
            p = SkewPairing.from_map(
                d, m,
                {pair: tuple(int(x) for x in rng.integers(-2, 3, size=m))
                 for pair in pair_list(d)})
            direct = mu(alpha, p)
            commutators = chi(alpha)
            for r in range(n):
                for s in range(n):
                    entry_bivector = Bivector(d, tuple(c[r, s] for c in commutators))
                    contracted = apply(p, entry_bivector)
                    for k in range(m):
                        assert direct[k][r, s] == contracted[k]


class TestTraceContraction:
    def test_sl2_contraction_with_h(self):
        t = regular_sl2_triple(2)
        out = trace_contraction(sl2_pair(2), t.h)
        assert out == Bivector.from_pairs(2, {(0, 1): 2})

    def test_commuting_gives_zero(self):
        alpha = exact_tuple(np.diag([1, 2]), np.diag([3, 4]))
        assert trace_contraction(alpha, exact_matrix([[1, 2], [3, 4]])).is_zero()

    def test_identity_contraction_always_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n, d = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            alpha = MatrixTuple.from_matrices(
                [exact_matrix(rng.integers(-3, 4, size=(n, n))) for _ in range(d)])
            out = trace_contraction(alpha, exact_matrix(np.eye(n, dtype=int)))
            assert out.is_zero()

    def test_compatibility_with_mu(self):
        # pairing applied to the contraction equals the trace of mu against h
        rng = np.random.default_rng(12)
        for _ in range(20):
            n, d, m = 2, int(rng.integers(2, 5)), int(rng.integers(1, 3))
            alpha = MatrixTuple.from_matrices(
                [exact_matrix(rng.integers(-2, 3, size=(n, n))) for _ in range(d)])
            h = exact_matrix(rng.integers(-2, 3, size=(n, n)))
            p = SkewPairing.from_map(
                d, m,
                {pair: tuple(int(x) for x in rng.integers(-2, 3, size=m))
                 for pair in pair_list(d)})
            lhs = apply(p, trace_contraction(alpha, h))
            mus = mu(alpha, p)
            rhs = [sum((mk @ h)[i, i] for i in range(n)) for mk in mus]
            assert all(a == b for a, b in zip(lhs, rhs))

    def test_gl2_rank_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            alpha = MatrixTuple.from_matrices(
                [exact_matrix(rng.integers(-3, 4, size=(2, 2))) for _ in range(d)])
            h = rng.integers(-3, 4, size=(2, 2))
            h[1, 1] = -h[0, 0]  # traceless
            out = trace_contraction(alpha, exact_matrix(h))
            assert bivector_rank(out, EXACT) <= 2


class TestTriangularize:
    def test_requires_commuting(self):
        t = regular_sl2_triple(2)
        with pytest.raises(NotCommutingError):
            simultaneous_triangularize(MatrixTuple.from_matrices([t.x, t.y]), EXACT)

    def test_already_diagonal(self):
        alpha = exact_tuple(np.diag([1, 2]), np.diag([3, 4]))
        q, tri = simultaneous_triangularize(alpha, EXACT, seed=5)
        for m in tri.matrices:
            assert all(m[i, j] == 0 for i in range(2) for j in range(2) if i > j)
        assert sorted((m[0, 0], m[1, 1]) for m in tri.matrices) == [(1, 2), (3, 4)]

    def test_conjugated_diagonal_exact(self):
        rng = np.random.default_rng(7)
        p, pinv = unitriangular_pair(rng, 3)
        d1, d2 = exact_matrix(np.diag([1, 2, 3])), exact_matrix(np.diag([0, 5, -1]))
        alpha = MatrixTuple.from_matrices([p @ d1 @ pinv, p @ d2 @ pinv])
        q, tri = simultaneous_triangularize(alpha, EXACT, seed=1)
        for m in tri.matrices:
            assert all(m[i, j] == 0 for i in range(3) for j in range(3) if i > j)
        spec = joint_spectrum(alpha, EXACT)
        assert sorted(spec.points) == sorted([(1, 0), (2, 5), (3, -1)])

    def test_jordan_block_with_identity(self):
        alpha = exact_tuple([[0, 1], [0, 0]], np.eye(2, dtype=int))
        q, tri = simultaneous_triangularize(alpha, EXACT, seed=0)
        first, second = tri.matrices
        assert first[1, 0] == 0 and first[0, 0] == 0 and first[1, 1] == 0
        assert second[0, 0] == 1 and second[1, 1] == 1 and second[1, 0] == 0

    def test_irrational_joint_spectrum_raises_exact(self):
        from semirigid.scalars import IrrationalSpectrumError
        alpha = exact_tuple([[0, 1], [2, 0]], np.eye(2, dtype=int))
        with pytest.raises(IrrationalSpectrumError):
            simultaneous_triangularize(alpha, EXACT, seed=2)

    def test_structurally_nilpotent_pair(self):
        # every linear combination has a single repeated eigenvalue, so the
        # split must happen through common-eigenvector deflation
        j3 = np.zeros((3, 3), dtype=int)
        j3[0, 1] = j3[1, 2] = 1
        alpha = exact_tuple(j3, j3 @ j3)
        q, tri = simultaneous_triangularize(alpha, EXACT, seed=0)
        for m in tri.matrices:
            assert all(m[i, j] == 0 for i in range(3) for j in range(3) if i >= j)

    def test_float_unitary_and_triangular(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            alpha, _ = conjugated_diagonal_float(rng, n, d)
            q, tri = simultaneous_triangularize(alpha, FLOAT, seed=3)
            assert np.linalg.norm(q.conj().T @ q - np.eye(n)) < 1e-10
            scale = max(np.linalg.norm(np.asarray(m, complex)) for m in alpha.matrices)
            for m in tri.matrices:
                lower = np.tril(np.asarray(m, complex), -1)
                assert np.linalg.norm(lower) <= 1e-8 * max(1.0, scale)


class TestJointSpectrum:
    def test_diagonal_pair(self):
        alpha = exact_tuple(np.diag([1, 2]), np.diag([3, 4]))
        spec = joint_spectrum(alpha, EXACT)
        assert sorted(spec.points) == [(1, 3), (2, 4)]

    def test_nilpotent(self):
        alpha = exact_tuple([[0, 1], [0, 0]], [[0, 0], [0, 0]])
        spec = joint_spectrum(alpha, EXACT)
        assert sorted(spec.points) == [(0, 0), (0, 0)]

    def test_conjugation_invariance_float(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            alpha, points = conjugated_diagonal_float(rng, 3, 2)
            spec = joint_spectrum(alpha, FLOAT)
            assert spec.multiset_equal(JointSpectrum(tuple(points)), FLOAT)


class TestTraceMonomials:
    def test_single_letter(self):
        alpha = exact_tuple(np.diag([1, 2]), np.diag([3, 4]))
        out = trace_monomials(alpha, 1)
        assert out[(1,)] == 3 and out[(2,)] == 7

    def test_cyclic_words_reported_once(self):
        alpha = exact_tuple(np.diag([1, 2]), np.diag([3, 4]))
        out = trace_monomials(alpha, 3)
        assert (1, 2) in out and (2, 1) not in out
        assert (1, 1, 2) in out and (1, 2, 1) not in out and (2, 1, 1) not in out

    def test_pair_word_is_spectrum_sum(self):
        alpha = exact_tuple(np.diag([1, 2]), np.diag([3, 4]))
        out = trace_monomials(alpha, 2)
        assert out[(1, 2)] == 1 * 3 + 2 * 4

    def test_zero_tuple(self):
        alpha = exact_tuple(np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int))
        assert all(v == 0 for v in trace_monomials(alpha, 3).values())

    def test_spectral_consistency_float(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            n, d = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            alpha, points = conjugated_diagonal_float(rng, n, d)
            monos = trace_monomials(alpha, 4)
            for word, val in monos.items():
                expected = sum(
                    np.prod([pt[i - 1] for i in word]) for pt in points)
                assert abs(val - expected) < 1e-8 * max(1.0, abs(expected))


class TestChevalleySeparates:
    def test_conjugate_pair_equal(self):
        rng = np.random.default_rng(41)
        alpha, _ = conjugated_diagonal_float(rng, 3, 2)
        beta, _ = conjugated_diagonal_float(rng, 3, 2)
        q = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 3 * np.eye(3)
        conj = MatrixTuple.from_matrices(
            [q @ np.asarray(m, complex) @ np.linalg.inv(q) for m in alpha.matrices])
        assert chevalley_separates(alpha, conj, FLOAT)

    def test_swapped_spectra_differ(self):
        a = exact_tuple(np.diag([1, 2]), np.diag([3, 4]))
        b = exact_tuple(np.diag([1, 2]), np.diag([4, 3]))
        assert not chevalley_separates(a, b, EXACT)

    def test_self_equal(self):
        a = exact_tuple(np.diag([1, 2]), np.diag([3, 4]))
        assert chevalley_separates(a, a, EXACT)

    def test_agrees_with_trace_monomials(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            n, d = 2, 2
            alpha, pa = conjugated_diagonal_float(rng, n, d)
            beta, pb = conjugated_diagonal_float(rng, n, d)
            same_spec = chevalley_separates(alpha, beta, FLOAT)
            ma = trace_monomials(alpha, n)
            mb = trace_monomials(beta, n)
            traces_agree = all(
                abs(ma[w] - mb[w]) < 1e-6 * max(1.0, abs(ma[w])) for w in ma)
            assert same_spec == traces_agree


class TestSl2Triple:
    def test_n2_matrices(self):
        t = regular_sl2_triple(2)
        assert np.all(t.x == exact_matrix([[0, 1], [0, 0]]))
        assert np.all(t.y == exact_matrix([[0, 0], [1, 0]]))
        assert np.all(t.h == exact_matrix(np.diag([1, -1])))

    def test_n3_values(self):
        t = regular_sl2_triple(3)
        assert [t.h[i, i] for i in range(3)] == [2, 0, -2]
        assert t.y[1, 0] == 2 and t.y[2, 1] == 2

    def test_relations_exact(self):
        for n in range(2, 7):
            assert regular_sl2_triple(n).relation_residual() == 0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            regular_sl2_triple(1)


class TestRepAnalysis:
    def test_sl2_pair_irreducible(self):
        out = rep_analysis(sl2_pair(2), EXACT)
        assert out.commutant_dim == 1
        assert out.algebra_dim == 4
        assert out.irreducible and out.stable and out.semisimple

    def test_distinct_diagonals(self):
        alpha = exact_tuple(np.diag([1, 2, 3]), np.diag([0, 5, -1]))
        out = rep_analysis(alpha, EXACT)
        assert out.commutant_dim == 3
        assert out.semisimple and not out.irreducible and not out.stable

    def test_single_jordan_block(self):
        alpha = exact_tuple([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        out = rep_analysis(alpha, EXACT)
        assert out.algebra_dim == 3
        assert out.radical_dim == 2
        assert not out.semisimple

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n, d = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            alpha = MatrixTuple.from_matrices(
                [float_matrix(rng.integers(-2, 3, size=(n, n))) for _ in range(d)])
            base = rep_analysis(alpha, FLOAT)
            q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
            conj = MatrixTuple.from_matrices(
                [q @ np.asarray(m, complex) @ np.linalg.inv(q) for m in alpha.matrices])
            assert rep_analysis(conj, FLOAT) == base

    def test_irreducible_implies_invariants(self):
        rng = np.random.default_rng(59)
        seen = 0
        for _ in range(20):
            n = int(rng.integers(2, 4))
            alpha = MatrixTuple.from_matrices(
                [exact_matrix(rng.integers(-2, 3, size=(n, n))) for _ in range(2)])
            out = rep_analysis(alpha, EXACT)
            if out.irreducible:
                seen += 1
                assert out.commutant_dim == 1
                assert out.algebra_dim == n * n
                assert out.semisimple
        assert seen >= 5


class TestRegularLocus:
    def test_distinct_joint_vectors(self):
        assert regular_locus_test(exact_tuple(np.diag([1, 2]), np.diag([3, 4])), EXACT)

    def test_jordan_pair_rejected(self):
        alpha = exact_tuple([[0, 1], [0, 0]], [[0, 0], [0, 0]])
        assert not regular_locus_test(alpha, EXACT)

    def test_repeated_single_matrix_spectrum_ok(self):
        # joint vectors (1, 2) and (1, 3) are distinct even though the first
        # matrix has a repeated eigenvalue
        alpha = exact_tuple(np.diag([1, 1]), np.diag([2, 3]))
        assert regular_locus_test(alpha, EXACT)

    def test_regular_implies_semisimple_with_torus_commutant(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            alpha, _ = conjugated_diagonal_float(rng, n, 2, spread=6)
            if regular_locus_test(alpha, FLOAT):
                out = rep_analysis(alpha, FLOAT)
                assert out.semisimple
                assert out.commutant_dim == n


def test_is_commuting_scale_invariant():
    commuting = float_tuple(np.diag([1, 2]), np.diag([3, 4]))
    noncommuting = float_tuple([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    for s in (1e-6, 1.0, 1e6):
        assert is_commuting(commuting.scaled(s), FLOAT)
        assert not is_commuting(noncommuting.scaled(s), FLOAT)


# ---------------------------------------------------------------------------
# metamorphic properties of the exact joint spectrum (fixed-seed Hypothesis
# profile from conftest.py)

small_ints = st.integers(-3, 3)
rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def commuting_rational_tuples(draw, diagonalizable=False):
    """Polynomials of degree <= 2 in one upper-triangular integer matrix T.

    They commute, and their joint eigenvalues are the polynomials evaluated
    at the diagonal entries of T.  With ``diagonalizable`` T is diagonal.
    """
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    t = np.diag(draw(st.lists(small_ints, min_size=n, max_size=n)))
    if not diagonalizable:
        upper = draw(st.lists(small_ints, min_size=n * n, max_size=n * n))
        t = t + np.triu(np.reshape(upper, (n, n)), 1)
    t = exact_matrix(t)
    powers = [exact_matrix(np.eye(n, dtype=int)), t, t @ t]
    coeffs = draw(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                           min_size=d, max_size=d))
    return MatrixTuple.from_matrices(
        [sum(c * pw for c, pw in zip(cs, powers)) for cs in coeffs])


def conjugated(alpha, seed):
    p, pinv = unitriangular_pair(np.random.default_rng(seed), alpha.n)
    return MatrixTuple.from_matrices([p @ m @ pinv for m in alpha.matrices])


class TestJointSpectrumMetamorphic:
    @given(alpha=commuting_rational_tuples(), seed=st.integers(0, 2**16))
    def test_unimodular_conjugation_preserves_exact_spectrum(self, alpha, seed):
        spec = joint_spectrum(alpha, EXACT)
        assert joint_spectrum(conjugated(alpha, seed), EXACT).multiset_equal(spec, EXACT)

    @given(alpha=commuting_rational_tuples(), c=rationals)
    def test_rational_scaling_scales_joint_eigenvalues(self, alpha, c):
        scaled = [tuple(c * x for x in pt) for pt in joint_spectrum(alpha, EXACT).points]
        spec = joint_spectrum(alpha.scaled(c), EXACT)
        assert sorted(spec.points) == sorted(scaled)

    @given(alpha=commuting_rational_tuples(diagonalizable=True), seed=st.integers(0, 2**16))
    def test_exact_and_float_spectra_agree(self, alpha, seed):
        beta = conjugated(alpha, seed)
        exact = joint_spectrum(beta, EXACT)
        assert exact.is_rational()
        assert exact.multiset_equal(joint_spectrum(beta.to_float(), FLOAT), FLOAT)


@st.composite
def diagonal_tuple_pairs(draw):
    """Two exact diagonal integer tuples of one shape."""
    n, d = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    diagonals = st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=d, max_size=d)
    return tuple(exact_tuple(*(np.diag(v) for v in draw(diagonals))) for _ in range(2))


class TestFloatSpectrumScaling:
    @given(pair=diagonal_tuple_pairs(), k=st.integers(-12, 6))
    def test_scaling_keeps_float_answers(self, pair, k):
        # the float tolerances are relative, so 10^k alpha must give the exact
        # answers of alpha at every k
        alpha, beta = pair
        a, b = (t.to_float().scaled(10.0 ** k) for t in pair)
        assert regular_locus_test(a, FLOAT) == regular_locus_test(alpha, EXACT)
        assert chevalley_separates(a, b, FLOAT) == chevalley_separates(alpha, beta, EXACT)

    def test_small_distinct_points_stay_distinct(self):
        a = float_tuple(np.diag([1e-9, 2e-9, 3e-9]))
        assert regular_locus_test(a, FLOAT)
        assert not chevalley_separates(a, float_tuple(np.diag([1e-9, 2e-9, 2e-9])), FLOAT)


@st.composite
def rational_tuples(draw):
    """Integer tuples, n <= 4 and d <= 3; with ``upper`` all matrices are upper
    triangular, so the first coordinate line is invariant and the
    representation is reducible."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    mats = [np.reshape(draw(st.lists(small_ints, min_size=n * n, max_size=n * n)), (n, n))
            for _ in range(d)]
    if draw(st.booleans()):
        mats = [np.triu(m) for m in mats]
    return MatrixTuple.from_matrices([exact_matrix(m) for m in mats])


class TestRepAnalysisMetamorphic:
    @given(alpha=rational_tuples(), seed=st.integers(0, 2**16))
    def test_unimodular_conjugation_preserves_exact_rep_analysis(self, alpha, seed):
        assert rep_analysis(conjugated(alpha, seed), EXACT) == rep_analysis(alpha, EXACT)
