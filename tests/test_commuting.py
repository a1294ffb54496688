
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semirigid import commuting, scalars
from semirigid.commuting import (
    MatrixTuple,
    NotCommutingError,
    chevalley_separates,
    chi,
    chi_norm,
    is_commuting,
    joint_spectrum,
    mu,
    regular_sl2_triple,
    rep_analysis,
    simultaneous_triangularize,
    trace_monomials,
    tuple_scale,
)
from semirigid.exterior import Bivector, SkewPairing, apply, bivector_rank, pair_list
from semirigid.scalars import (
    IrrationalSpectrumError,
    ScalarMode,
    to_float,
)
from util import (
    exact_matrix,
    fraction_chi,
    fraction_rep_analysis,
    fraction_triangularize,
    incremental_float_rep_analysis,
    mixed_fraction_matrix,
    trace_contraction,
    unitriangular_pair,
    walk_separates,
)

EXACT = ScalarMode.exact()
FLOAT = ScalarMode.floating()


def exact_tuple(*mats):
    return MatrixTuple.from_matrices([exact_matrix(m) for m in mats])


def float_tuple(*mats):
    return MatrixTuple.from_matrices([np.array(m, dtype=complex) for m in mats])


def sl2_pair(n=2):
    t = regular_sl2_triple(n)
    return MatrixTuple.from_matrices([t.x, t.y])


def symplectic_pairing(d):
    return SkewPairing.from_map(d, 1, {(2 * k, 2 * k + 1): (1,) for k in range(d // 2)})


def conjugated_float(*mats, seed):
    """The tuple conjugated by a seeded well-conditioned complex matrix, in float."""
    rng = np.random.default_rng(seed)
    n = mats[0].shape[0]
    p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
    return MatrixTuple.from_matrices([p @ m @ np.linalg.inv(p) for m in mats])


def conjugated_diagonal_float(rng, n, d, spread=3):
    diags = [np.diag(rng.integers(-spread, spread + 1, size=n).astype(complex))
             for _ in range(d)]
    p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
    pinv = np.linalg.inv(p)
    mats = [p @ dg @ pinv for dg in diags]
    points = [tuple(complex(dg[j, j]) for dg in diags) for j in range(n)]
    return MatrixTuple.from_matrices(mats), points


class TestFromLists:
    FLOATS = [[[0.5, 1.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]

    def test_float_lists_take_the_float_regime(self):
        alpha = MatrixTuple.from_matrices(self.FLOATS)
        assert not alpha.is_rational()
        assert all(m.dtype == complex for m in alpha.matrices)
        assert chi_norm(alpha) == 0
        assert rep_analysis(alpha).algebra_dim == 2
        assert sorted(complex(p[0]).real for p in joint_spectrum(alpha).points) == [0.5, 1.0]
        assert mu(alpha, SkewPairing.from_map(2, 1, {(0, 1): (1,)}))[0].dtype == complex

    def test_integer_and_fraction_lists_stay_exact(self):
        alpha = MatrixTuple.from_matrices([[[1, 2], [0, 1]], [[Fraction(1, 2), 0], [0, 3]]])
        assert alpha.is_rational()
        assert all(type(x) is Fraction for m in alpha.matrices for x in m.flat)
        assert rep_analysis(alpha) == rep_analysis(exact_tuple([[1, 2], [0, 1]],
                                                               [[Fraction(1, 2), 0], [0, 3]]))

    def test_one_float_entry_makes_the_matrix_complex(self):
        alpha = MatrixTuple.from_matrices([[[1, 2], [0, 1.5]]])
        assert alpha.matrices[0].dtype == complex and not alpha.is_rational()


class TestGenerators:
    def test_identity_and_tuple_times_one_denominator(self):
        # (f I, A'_1, ..., A'_d) for A = A' / f: f times (I, A_1, ..., A_d)
        alpha = exact_tuple([[Fraction(1, 2), 1], [0, Fraction(-1, 3)]], [[0, 2], [1, 0]])
        gens, _ = commuting._generators(alpha, EXACT)
        assert all(type(x) is int for x in gens.flat)
        assert (gens[0] == 6 * np.eye(2, dtype=int)).all()
        assert all((g == 6 * m).all() for g, m in zip(gens[1:], alpha.matrices))
        gens, _ = commuting._generators(alpha.to_float(), FLOAT)
        assert gens.dtype == complex and (gens[0] == np.eye(2)).all()


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
        # conjugated diagonal tuples, then P 3I P^-1 with P J2 P^-1, and
        # diag(1, 3, 3) with a Jordan block on its 3-eigenspace, P a complex
        # float: their deflation meets a restriction that is (near) scalar
        rng = np.random.default_rng(23)
        cases = []
        for _ in range(10):
            n, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            cases.append((conjugated_diagonal_float(rng, n, d)[0], None))
        j3 = np.zeros((3, 3))
        j3[1, 2] = 1
        families = [((3 * np.eye(2), [[0, 1], [0, 0]]), [(3, 0), (3, 0)]),
                    ((np.diag([1, 3, 3]), j3), None)]
        for _ in range(10):
            for mats, points in families:
                n = len(mats[0])
                p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
                cases.append((float_tuple(*(p @ m @ np.linalg.inv(p) for m in mats)), points))
        for alpha, points in cases:
            n = alpha.n
            q, tri = simultaneous_triangularize(alpha, FLOAT, seed=3)
            assert np.linalg.norm(q.conj().T @ q - np.eye(n)) < 1e-10
            # a float level draws nothing: the seed matters only in rational mode
            assert np.array_equal(q, simultaneous_triangularize(alpha, FLOAT, seed=4)[0])
            scale = max(np.linalg.norm(np.asarray(m, complex)) for m in alpha.matrices)
            for m in tri.matrices:
                lower = np.tril(np.asarray(m, complex), -1)
                assert np.linalg.norm(lower) <= 1e-8 * max(1.0, scale)
            if points:
                assert _same_multiset_brute_force(
                    joint_spectrum(alpha, FLOAT).points, points, 1e-6 * scale)


def _count_eigenvalue_calls(monkeypatch):
    calls = []
    real = commuting.eigenvalues

    def counting(a, mode):
        calls.append(a.shape[0])
        return real(a, mode)

    monkeypatch.setattr(commuting, "eigenvalues", counting)
    return calls


class TestOneCombinationPerLevel:
    """Each level draws one random combination: its eigenvalue groups split
    the space, or the level deflates by a common eigenvector at once."""

    def test_nilpotent_pair_deflates_at_once(self, monkeypatch):
        calls = _count_eigenvalue_calls(monkeypatch)
        j3 = np.zeros((3, 3), dtype=int)
        j3[0, 1] = j3[1, 2] = 1
        simultaneous_triangularize(exact_tuple(j3, j3 @ j3), EXACT)
        assert len(calls) <= 4

    def test_scalar_blocks_deflate_at_once(self, monkeypatch):
        calls = _count_eigenvalue_calls(monkeypatch)
        _, tri = simultaneous_triangularize(
            exact_tuple(np.eye(4, dtype=int), np.diag([1, 1, 2, 2])), EXACT)
        assert len(calls) <= 7
        assert sorted(zip(*(np.diagonal(m) for m in tri.matrices))) == [
            (1, 1), (1, 1), (1, 2), (1, 2)]

    def test_irrational_combination_raises_at_once(self, monkeypatch):
        calls = _count_eigenvalue_calls(monkeypatch)
        with pytest.raises(IrrationalSpectrumError) as err:
            simultaneous_triangularize(exact_tuple([[0, 1], [2, 0]], np.eye(2, dtype=int)),
                                       EXACT)
        assert len(calls) == 1
        assert "random combinations" not in str(err.value)


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
            # the points' coordinates are at most 3
            assert _same_multiset_brute_force(spec.points, points, 30 * FLOAT.tol_residual)


def _same_multiset_brute_force(a, b, thr):
    """Whether some matching of the points pairs each within thr."""
    return any(all(np.linalg.norm(np.subtract(a[i], b[j])) <= thr for i, j in enumerate(perm))
               for perm in permutations(range(len(b))))


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

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e3])
    def test_defective_float_tuple_equals_its_conjugate(self, scale):
        j3 = np.diag([1.0, 1.0], 1)
        alpha = float_tuple(scale * j3, scale * (j3 @ j3))
        assert chevalley_separates(alpha, conjugated_float(*alpha.matrices, seed=5), FLOAT)

    def test_nilpotent_jordan_block_equals_its_conjugate(self):
        assert chevalley_separates(float_tuple([[0, 1], [0, 0]]),
                                   float_tuple([[1, 1], [-1, -1]]), FLOAT)

    def test_irrational_spectrum_equals_its_conjugate_exactly(self):
        alpha = exact_tuple([[0, 1], [2, 0]], np.eye(2, dtype=int))
        p, pinv = unitriangular_pair(np.random.default_rng(3), 2)
        conj = MatrixTuple.from_matrices([p @ m @ pinv for m in alpha.matrices])
        assert chevalley_separates(alpha, conj, EXACT)

    def test_irrational_spectra_differ_exactly(self):
        # eigenvalues +-sqrt(2) against +-sqrt(3)
        alpha = exact_tuple([[0, 1], [2, 0]], np.eye(2, dtype=int))
        beta = exact_tuple([[0, 1], [3, 0]], np.eye(2, dtype=int))
        assert not chevalley_separates(alpha, beta, EXACT)

    def test_denominators_are_cleared_in_common(self):
        half_third = exact_tuple([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
        assert chevalley_separates(
            half_third, exact_tuple([[Fraction(1, 3), 0], [0, Fraction(1, 2)]]), EXACT)
        assert not chevalley_separates(
            half_third, exact_tuple([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]), EXACT)
        # half_third and 6 half_third clear to the same integers one by one
        assert not chevalley_separates(half_third, half_third.scaled(6), EXACT)
        # a conjugate that brings in a denominator
        assert chevalley_separates(exact_tuple(np.diag([1, 2])),
                                   exact_tuple([[1, Fraction(1, 2)], [0, 2]]), EXACT)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_top_degree_power_sum_separates(self, mode):
        # diag(0, 0) and diag(1, -1) share p_1 = 0 and differ at p_2
        zero, split = exact_tuple(np.diag([0, 0])), exact_tuple(np.diag([1, -1]))
        assert not chevalley_separates(zero, split, mode)
        assert not chevalley_separates(split, zero, mode)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_either_tuple_not_commuting_raises(self, mode):
        diagonal = exact_tuple(np.diag([1, 2]), np.diag([3, 4]))
        sl2 = sl2_pair()
        with pytest.raises(NotCommutingError):
            chevalley_separates(sl2, diagonal, mode)
        with pytest.raises(NotCommutingError):
            chevalley_separates(diagonal, sl2, mode)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_no_eigenvalues_computed(self, monkeypatch, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("chevalley_separates computed eigenvalues")

        monkeypatch.setattr(commuting, "eigenvalues", refuse)
        monkeypatch.setattr(commuting, "simultaneous_triangularize", refuse)
        alpha = exact_tuple([[0, 1], [2, 0]], np.eye(2, dtype=int))
        assert chevalley_separates(alpha, alpha, mode)
        assert not chevalley_separates(alpha, alpha.scaled(2), mode)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("points, other", [
        ([[0, 0], [1, 1]], [[0, 1], [1, 0]]),  # x and y agree
        ([[0, 0], [1, 0]], [[0, 1], [1, -1]]),  # x and x + y agree
        ([[0, 0], [1, 0]], [[Fraction(1, 2), Fraction(-1, 2)],
                            [Fraction(1, 2), Fraction(1, 2)]]),  # x + y and x - y agree
    ])
    def test_spectra_agreeing_on_two_directions_differ(self, mode, points, other):
        alpha, beta, same = spectrum_pair(points, other, 4)
        assert not same and not chevalley_separates(alpha, beta, mode)
        assert chevalley_separates(beta, conjugated(beta, 6), mode)

    @pytest.mark.parametrize("mode, limit", [(FLOAT, 0.1), (EXACT, 0.5)])
    def test_n8_d8_walks_no_words(self, mode, limit):
        # the C(16, 8) - 1 word walk takes 0.3 s in float and 0.6-1 s exact on a
        # 2-vCPU host
        rng = np.random.default_rng(8)
        diags = [np.diag(rng.integers(-4, 5, size=8)) for _ in range(8)]
        if mode.is_exact:
            alpha = exact_tuple(*diags)
            beta = conjugated(alpha, 8)
        else:
            alpha, beta = (conjugated_float(*diags, seed=s) for s in (1, 2))
        took = []
        for _ in range(2):
            start = time.perf_counter()
            assert chevalley_separates(alpha, beta, mode)
            took.append(time.perf_counter() - start)
        assert min(took) < limit


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
        # [x, y] = h, [h, x] = 2x and [h, y] = -2y, on the Python integers
        for n in range(2, 7):
            t = regular_sl2_triple(n)
            assert all(type(v) is int for m in (t.x, t.y, t.h) for v in m.flat)
            assert np.array_equal(t.x @ t.y - t.y @ t.x, t.h)
            assert np.array_equal(t.h @ t.x - t.x @ t.h, 2 * t.x)
            assert np.array_equal(t.h @ t.y - t.y @ t.h, -2 * t.y)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            regular_sl2_triple(1)


def float_closure_tuples():
    """Seeded dense and conjugated block-upper-triangular float tuples, then
    diag(1..14), which loses its top power below tol_rank (algebra_dim 13), a
    pair whose product is far smaller than |X| |Y|, and two idempotents whose
    product is rounding noise."""
    out = []
    for seed in range(6):
        rng = np.random.default_rng([72, seed])
        n, d = 2 + seed, 1 + seed % 3
        block = rng.integers(-3, 4, size=(2, n, n)).astype(complex)
        block[:, n // 2:, :n // 2] = 0
        out += [MatrixTuple.from_matrices(list(rng.standard_normal((d, n, n)))),
                conjugated_float(*block, seed=seed)]
    return out + [
        float_tuple(np.diag(np.arange(1.0, 15.0))),
        MatrixTuple.from_matrices([exact_matrix([[1, Fraction(1, 10**4)], [0, 0]]),
                                   exact_matrix([[1, 0], [-9 * 10**3, 0]])]).to_float(),
        conjugated_float(np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), seed=6),
    ]


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
                [np.array(rng.integers(-2, 3, size=(n, n)), dtype=complex) for _ in range(d)])
            base = rep_analysis(alpha, FLOAT)
            q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
            conj = MatrixTuple.from_matrices(
                [q @ np.asarray(m, complex) @ np.linalg.inv(q) for m in alpha.matrices])
            assert rep_analysis(conj, FLOAT) == base

    @pytest.mark.parametrize("eta, eps", [(Fraction(1, 10**4), Fraction(1, 10)),
                                          (Fraction(1, 10**5), Fraction(1, 2))])
    def test_float_partly_cancelling_product_counts(self, eta, eps):
        # X = e1 v^T and Y = w e1^T with v . w = eps: XY = eps E_11 is far
        # smaller than |X| |Y|, about 1/eta, and it is the product that makes
        # the algebra all of gl_2; judged at its own norm it is new
        x = exact_matrix([[1, eta], [0, 0]])
        y = exact_matrix([[1, 0], [(eps - 1) / eta, 0]])
        alpha = MatrixTuple.from_matrices([x, y])
        assert rep_analysis(alpha, EXACT).algebra_dim == 4
        assert rep_analysis(alpha.to_float(), FLOAT) == rep_analysis(alpha, EXACT)

    def test_float_commutant_judged_at_the_tuple_norm(self):
        # a split of 1e-12 is below tol_rank times the norm: the algebra is the
        # scalars, and its commutant all of gl_2
        alpha = MatrixTuple.from_matrices([np.diag([1.0, 1.0 + 1e-12]).astype(complex)])
        out = rep_analysis(alpha, FLOAT)
        assert (out.algebra_dim, out.commutant_dim) == (1, 4)

    def test_generator_vanishing_mod_the_first_prime(self):
        # A = diag(0, 2^31 - 1) is 0 mod the first prime, 2^31 - 1, which sees
        # only the identity; the algebra is the diagonal one
        out = rep_analysis(exact_tuple(np.diag([0, 2**31 - 1])), EXACT)
        assert (out.algebra_dim, out.radical_dim, out.commutant_dim) == (2, 0, 2)

    def test_last_round_of_a_dense_pair_makes_no_lift(self, monkeypatch):
        # a dense pair at n = 6 spans M_6 with its words of length <= 5; the
        # last round stacks 63 vectors, whose full rank mod p ends the closure
        lifted = []

        def lift(a, *args):
            lifted.append(a.shape)
            return original(a, *args)

        original = scalars._lift
        monkeypatch.setattr(scalars, "_lift", lift)
        rng = np.random.default_rng(71)
        alpha = exact_tuple(*rng.integers(-9, 10, size=(2, 6, 6)))
        assert rep_analysis(alpha, EXACT).irreducible
        # the closure's stacks have 36 rows (the commutant's has 72); round 2
        # repeats A and B as I A and I B, so it lifts
        closure = [cols for rows, cols in lifted if rows == 36]
        assert closure == [9]

    @pytest.mark.parametrize("alpha", float_closure_tuples())
    def test_float_matches_the_incremental_closure(self, alpha):
        assert rep_analysis(alpha, FLOAT) == incremental_float_rep_analysis(alpha, FLOAT)

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


@st.composite
def normal_float_tuples(draw):
    """A unitarily conjugated diagonal float tuple and its joint eigenvalues:
    integer points, or one integer point n times, shifted by 0 or 1e3 and
    moved by 0, 1e-12 or 1e-2, so that every pairwise distance is far from
    tol_rank times the tuple's norm."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-2, 2)] * d)
    pts = np.array(draw(st.lists(point, min_size=n, max_size=n)), dtype=float)
    if draw(st.booleans()):
        pts[:] = pts[0]
    pts[:, 0] += draw(st.sampled_from([0.0, 1e3]))
    pts[:, 0] += np.array(draw(st.lists(st.sampled_from([0.0, 1e-12, 1e-2]),
                                        min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    alpha = MatrixTuple.from_matrices([u @ np.diag(pts[:, k]) @ u.conj().T for k in range(d)])
    return alpha, pts


class TestBeyondTheFloatRange:
    """Rational mode takes no float scale, so values outside the float range
    stay exact."""

    BIG = 10 ** 400

    def test_regular_locus_and_chevalley(self):
        alpha = exact_tuple([[self.BIG, 0], [0, 1]], [[1, 0], [0, Fraction(2, 3)]])
        assert is_commuting(alpha, EXACT)
        assert chevalley_separates(alpha, conjugated(alpha, 4), EXACT)
        assert not chevalley_separates(alpha, alpha.scaled(2), EXACT)

    def test_joint_spectrum(self):
        alpha = exact_tuple([[self.BIG, 0], [0, 1]], [[1, 0], [0, Fraction(2, 3)]])
        assert sorted(joint_spectrum(conjugated(alpha, 4), EXACT).points) == [
            (1, Fraction(2, 3)), (self.BIG, 1)]


def regular(alpha, mode) -> bool:
    """Whether the commuting tuple has n distinct joint eigenvalue vectors,
    read off rep_analysis: a semisimple algebra makes the tuple
    diagonalizable, and its commutant, of dimension the sum of the squared
    joint eigenspace dimensions, then has dimension n exactly when they are
    distinct."""
    out = rep_analysis(alpha, mode)
    return out.semisimple and out.commutant_dim == alpha.n


class TestRegularLocus:
    """The commutant and the radical of rep_analysis decide the regular locus;
    float mode ranks the commutant at tol_rank times the tuple's norm."""

    @settings(max_examples=100)
    @given(case=normal_float_tuples())
    def test_normal_tuples_follow_the_pairwise_distance_rule(self, case):
        # on a normal tuple the commutant's singular values are the distances
        # between joint eigenvalue vectors, so float mode separates them at
        # tol_rank times the tuple's norm, not at the size of the largest gap
        alpha, pts = case
        thr = FLOAT.tol_rank * max(np.linalg.norm(pts, axis=0))
        distinct = all(np.linalg.norm(pts[i] - pts[j]) > thr
                       for i in range(len(pts)) for j in range(i))
        assert regular(alpha, FLOAT) == distinct

    def test_distinct_joint_vectors(self):
        assert regular(exact_tuple(np.diag([1, 2]), np.diag([3, 4])), EXACT)

    def test_jordan_pair_rejected(self):
        alpha = exact_tuple([[0, 1], [0, 0]], [[0, 0], [0, 0]])
        assert not regular(alpha, EXACT)

    def test_repeated_single_matrix_spectrum_ok(self):
        # joint vectors (1, 2) and (1, 3) are distinct even though the first
        # matrix has a repeated eigenvalue
        alpha = exact_tuple(np.diag([1, 1]), np.diag([2, 3]))
        assert regular(alpha, EXACT)

    def test_irrational_spectrum_answered_exact(self):
        # eigenvalues +-sqrt 2: distinct, though not rational
        alpha = exact_tuple([[0, 1], [2, 0]], np.eye(2, dtype=int))
        assert regular(alpha, EXACT)
        assert not regular(alpha.scaled(0), EXACT)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e3])
    def test_conjugated_jordan_block_not_regular(self, scale):
        # one joint eigenvalue vector, (0, 0), three times; the float spectrum
        # of a defective matrix scatters by eps^(1/3), far above any cluster
        # threshold, so this needs the semisimplicity of the algebra
        j3 = np.zeros((3, 3))
        j3[0, 1] = j3[1, 2] = 1
        alpha = conjugated_float(scale * j3, scale * scale * (j3 @ j3), seed=5)
        out = rep_analysis(alpha, FLOAT)
        assert (out.algebra_dim, out.radical_dim) == (3, 2)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e3])
    def test_conjugated_idempotents_regular(self, scale):
        # joint vectors (1, 0), (0, 1), (0, 0); the product of the two is zero,
        # and in float it is rounding noise that must not count as a new direction
        alpha = conjugated_float(scale * np.diag([1.0, 0, 0]), scale * np.diag([0, 1.0, 0]),
                                 seed=6)
        out = rep_analysis(alpha, FLOAT)
        assert (out.algebra_dim, out.radical_dim) == (3, 0)

    def test_gaps_are_judged_at_the_tuple_norm(self):
        # every gap is 1e-9, far below tol_rank times the norm of about 1.7e3,
        # though it is the largest gap the commutant's operator sees
        d = np.diag([1e3, 1e3 + 1e-9, 1e3 + 2e-9])
        assert not regular(float_tuple(d), FLOAT)
        assert not regular(conjugated_float(d, seed=8), FLOAT)
        assert regular(float_tuple(d - 1e3 * np.eye(3)), FLOAT)

    @pytest.mark.parametrize("diagonal", [list(range(1, 15)),
                                          [Fraction(k, 10) for k in range(10, 20)]])
    def test_well_separated_large_spectra_regular(self, diagonal):
        # the powers of one diagonal generator span the diagonal algebra only up
        # to Vandermonde products, about 2e-9 and 4e-9 of the top power here,
        # below tol_rank; the commutant follows the gaps of 1 and 0.1
        d = np.diag(np.array(diagonal, dtype=float))
        assert regular(float_tuple(d), FLOAT)
        assert regular(conjugated_float(d, seed=7), FLOAT)
        repeated = np.diag(np.array(diagonal[:-1] + diagonal[-2:-1], dtype=float))
        assert not regular(float_tuple(repeated), FLOAT)
        assert not regular(conjugated_float(repeated, seed=7), FLOAT)

    def test_regular_implies_semisimple_with_torus_commutant(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            alpha, points = conjugated_diagonal_float(rng, n, 2, spread=6)
            if len(set(points)) == n:
                out = rep_analysis(alpha, FLOAT)
                assert out.semisimple
                assert out.commutant_dim == n


def test_is_commuting_scale_invariant():
    commuting = float_tuple(np.diag([1, 2]), np.diag([3, 4]))
    noncommuting = float_tuple([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    for s in (1e-200, 1e-6, 1.0, 1e6, 1e200):
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
        assert sorted(joint_spectrum(conjugated(alpha, seed), EXACT).points) == sorted(spec.points)

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
        floated = joint_spectrum(beta.to_float(), FLOAT)
        scale = max(abs(x) for p in exact.points for x in p)
        assert _same_multiset_brute_force(exact.points, floated.points,
                                          10 * FLOAT.tol_residual * scale)


@st.composite
def diagonal_tuple_pairs(draw):
    """Two exact diagonal integer tuples of one shape."""
    n, d = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    diagonals = st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=d, max_size=d)
    return tuple(exact_tuple(*(np.diag(v) for v in draw(diagonals))) for _ in range(2))


class TestAcrossTheFloatRange:
    """Float tuples are judged at unit size, so entries near 1e+-200, whose
    commutators and squared norms lie outside the float range, get the
    answers of the same tuple at scale 1."""

    A, B = float_tuple(np.diag([1, 2, 3])), float_tuple(np.diag([1, 2, 4]))

    @pytest.mark.parametrize("s", [1e-200, 1e200])
    def test_tuple_scale(self, s):
        assert tuple_scale(self.A.scaled(s)) == pytest.approx(s * np.sqrt(14), rel=1e-15, abs=0)

    @pytest.mark.parametrize("s", [1e-200, 1e200])
    def test_rep_analysis(self, s):
        out = rep_analysis(self.A.scaled(s))
        assert out == rep_analysis(self.A)
        assert out.commutant_dim == out.algebra_dim == 3

    @pytest.mark.parametrize("s", [1e-200, 1e200])
    def test_chevalley_separates(self, s):
        a, b = self.A.scaled(s), self.B.scaled(s)
        assert not chevalley_separates(a, b, FLOAT)
        assert chevalley_separates(a, a, FLOAT)

    def test_joint_spectrum_of_a_jordan_family(self):
        # P diag(1, 3, 3) P^-1 with P J P^-1, J a Jordan block on the
        # 3-eigenspace: its commutators are rounding of size eps |A|^2
        rng = np.random.default_rng(0)
        j3 = np.zeros((3, 3))
        j3[1, 2] = 1
        for _ in range(10):
            p = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 3 * np.eye(3)
            alpha = float_tuple(*(1e100 * p @ m @ np.linalg.inv(p)
                                  for m in (np.diag([1, 3, 3]), j3)))
            points = [tuple(np.asarray(x) / 1e100) for x in joint_spectrum(alpha, FLOAT).points]
            assert _same_multiset_brute_force(points, [(1, 0), (3, 0), (3, 0)], 1e-6)


class TestOneFloatCommutingTest:
    def test_norms_equal_numpy_norm(self):
        rng = np.random.default_rng(7)
        for m in (3, 4, 9, 16, 25, 64, 200):
            x = rng.standard_normal((6, 5, m)) + 1j * rng.standard_normal((6, 5, m))
            want = np.array([[np.linalg.norm(row) for row in rows] for rows in x])
            assert commuting._norms(x).tobytes() == want.tobytes()

    def test_norms_scale_back_from_unit_size_exactly(self):
        rng = np.random.default_rng(8)
        for s in (1e-6, 1.0, 3.0, 1e6):
            mats = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
            a = float_tuple(*mats).scaled(s)
            assert chi_norm(a) == max(np.linalg.norm(c) for c in chi(a))
            assert tuple_scale(a) == max(np.linalg.norm(m) for m in a.matrices)


class TestFloatSpectrumScaling:
    @given(pair=diagonal_tuple_pairs(), k=st.integers(-12, 6))
    def test_scaling_keeps_float_answers(self, pair, k):
        # the float tolerances are relative, so 10^k alpha must give the exact
        # answers of alpha at every k
        alpha, beta = pair
        a, b = (t.to_float().scaled(10.0 ** k) for t in pair)
        assert chevalley_separates(a, b, FLOAT) == chevalley_separates(alpha, beta, EXACT)

    def test_small_distinct_points_stay_distinct(self):
        a = float_tuple(np.diag([1e-9, 2e-9, 3e-9]))
        assert not chevalley_separates(a, float_tuple(np.diag([1e-9, 2e-9, 2e-9])), FLOAT)


def spectrum_pair(points, other, seed):
    """Unimodular conjugates of the diagonal integer tuples with joint spectra
    ``points`` and ``other`` (n x d), and whether those multisets agree."""
    alpha, beta = (conjugated(exact_tuple(*(np.diag(c) for c in np.transpose(p))), seed + i)
                   for i, p in enumerate((points, other)))
    return alpha, beta, sorted(map(tuple, points)) == sorted(map(tuple, other))


@st.composite
def spectrum_pairs(draw):
    """A pair from ``spectrum_pair``: the second spectrum is the first permuted,
    then left alone, with one coordinate bumped, or with one coordinate column
    reversed, which keeps every coordinate projection."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    points = np.array(draw(st.lists(st.lists(small_ints, min_size=d, max_size=d),
                                    min_size=n, max_size=n)))
    other = points[draw(st.permutations(range(n)))]
    j = draw(st.integers(0, d - 1))
    change = draw(st.sampled_from(["none", "bump", "reverse"]))
    if change == "bump":
        other[draw(st.integers(0, n - 1)), j] += 1
    elif change == "reverse":
        other[:, j] = other[::-1, j].copy()
    return spectrum_pair(points, other, draw(st.integers(0, 2**16)))


class TestChevalleyAgainstWordWalk:
    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @given(pair=spectrum_pairs())
    @example(pair=spectrum_pair([[2]], [[2]], 0))
    @example(pair=spectrum_pair([[2]], [[3]], 0))
    @example(pair=spectrum_pair([[1], [2], [-1]], [[2], [-1], [1]], 1))
    @example(pair=spectrum_pair([[0, 0], [1, 1], [2, 0]], [[0, 1], [1, 0], [2, 0]], 2))
    def test_agrees_with_the_word_walk(self, mode, pair):
        alpha, beta, same = pair
        assert chevalley_separates(alpha, beta, mode) == same
        assert walk_separates(alpha, beta, mode) == same


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


SCALINGS = [Fraction(1, 7), Fraction(-3, 5), Fraction(12)]


class TestRepAnalysisMetamorphic:
    @given(alpha=rational_tuples(), seed=st.integers(0, 2**16))
    def test_unimodular_conjugation_preserves_exact_rep_analysis(self, alpha, seed):
        assert rep_analysis(conjugated(alpha, seed), EXACT) == rep_analysis(alpha, EXACT)

    @given(alpha=rational_tuples(), c=st.sampled_from(SCALINGS))
    def test_rational_scaling_keeps_rep_analysis(self, alpha, c):
        assert rep_analysis(alpha.scaled(c), EXACT) == rep_analysis(alpha, EXACT)

    @given(alpha=rational_tuples(), c=st.sampled_from(SCALINGS))
    def test_rational_scaling_scales_chi_by_its_square(self, alpha, c):
        for scaled, base in zip(chi(alpha.scaled(c)), chi(alpha)):
            assert scaled.tolist() == (c * c * base).tolist()


# ---------------------------------------------------------------------------
# the cleared integer products against the same formulas in Fractions


def mixed_denominator_tuples(commuting_only):
    """Seeded tuples with n <= 6, d <= 3 and denominators up to 6.

    The commuting ones are polynomials in an upper-triangular matrix,
    conjugated by a unimodular P, so their spectra are rational; (J3, J3^2)
    takes the deflation path.  Without ``commuting_only`` random tuples join,
    pairs up to n = 4 (the full matrix algebra) and single matrices beyond.
    """
    rng = np.random.default_rng(70)
    j3 = exact_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    out = [MatrixTuple.from_matrices([j3, j3 @ j3]),
           MatrixTuple.from_matrices([j3 * Fraction(2, 3), j3 @ j3 * Fraction(-1, 5)])]
    for n in range(1, 7):
        t = np.triu(mixed_fraction_matrix(rng, n))
        powers = [exact_matrix(np.eye(n, dtype=int)), t, t @ t]
        p, pinv = unitriangular_pair(rng, n)
        out.append(MatrixTuple.from_matrices(
            [p @ sum(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5))) * pw
                     for pw in powers) @ pinv for _ in range(1 + n % 3)]))
        if not commuting_only:
            out.append(MatrixTuple.from_matrices(
                [mixed_fraction_matrix(rng, n) for _ in range(2 if n <= 4 else 1)]))
    return out


# tuples whose levels deflate by a common eigenvector: the two of
# TestOneCombinationPerLevel, and (A, -70/27 A) with joint spectrum (0, 0),
# (27, -70), (54, -140), which the first combination at seed 0, 70 A_1 + 27 A_2,
# sends to one group; that level deflates by v = (-1, 1, 0), whose first entry
# is negative, and the block left splits into two groups
_A = exact_matrix([[-54, -54, 54], [135, 135, -108], [27, 27, 0]])
DEFLATING_TUPLES = [
    MatrixTuple.from_matrices([exact_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
                               exact_matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])]),
    MatrixTuple.from_matrices([exact_matrix(np.eye(4, dtype=int)),
                               exact_matrix(np.diag([1, 1, 2, 2]))]),
    MatrixTuple.from_matrices([_A, _A * Fraction(-70, 27)]),
]


def closure_tuples():
    """Seeded integer tuples whose closure runs several rounds: dense ones,
    which span M_n, and block-upper-triangular ones, which do not."""
    rng = np.random.default_rng(73)
    out = [MatrixTuple.from_matrices([exact_matrix(m) for m in
                                      rng.integers(-9, 10, size=(d, n, n))])
           for n, d in ((3, 3), (4, 2))]
    for n in (3, 4, 5):
        block = rng.integers(-3, 4, size=(2, n, n))
        block[:, n // 2 + 1:, :n // 2 + 1] = 0
        out.append(MatrixTuple.from_matrices([exact_matrix(m) for m in block]))
    return out


class TestClearedProductsMatchFractions:
    def test_chi(self):
        for alpha in mixed_denominator_tuples(commuting_only=False):
            ours, ref = chi(alpha), fraction_chi(alpha)
            assert [m.tolist() for m in ours] == [m.tolist() for m in ref]
            assert all(type(x) is Fraction for m in ours for x in m.flat)

    def test_simultaneous_triangularize(self):
        for seed, alpha in enumerate(mixed_denominator_tuples(commuting_only=True)):
            q, tri = simultaneous_triangularize(alpha, EXACT, seed=seed)
            ref_q, ref_tri = fraction_triangularize(alpha, seed)
            assert q.tolist() == ref_q.tolist()
            assert [m.tolist() for m in tri.matrices] == [m.tolist() for m in ref_tri]
            assert all(type(x) is Fraction for m in (q, *tri.matrices) for x in m.flat)
            _, ref_tri = fraction_triangularize(alpha, 0)
            assert sorted(joint_spectrum(alpha, EXACT).points) == sorted(
                zip(*(np.diagonal(m) for m in ref_tri)))

    @pytest.mark.parametrize("alpha", DEFLATING_TUPLES)
    def test_deflation_matches_the_fraction_reference(self, alpha):
        for seed in range(8):
            q, tri = simultaneous_triangularize(alpha, EXACT, seed=seed)
            ref_q, ref_tri = fraction_triangularize(alpha, seed)
            assert q.tolist() == ref_q.tolist()
            assert [m.tolist() for m in tri.matrices] == [m.tolist() for m in ref_tri]
        assert joint_spectrum(alpha, EXACT).points == tuple(
            zip(*(np.diagonal(m) for m in fraction_triangularize(alpha, 0)[1])))

    def test_exact_joint_spectrum_solves_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("joint_spectrum called solve")

        tuples = [*mixed_denominator_tuples(commuting_only=True), *DEFLATING_TUPLES]
        expected = [sorted(joint_spectrum(alpha, EXACT).points) for alpha in tuples]
        monkeypatch.setattr(commuting, "solve", refuse)
        assert [sorted(joint_spectrum(alpha, EXACT).points) for alpha in tuples] == expected

    def test_rep_analysis(self):
        for alpha in [*mixed_denominator_tuples(commuting_only=False), *closure_tuples()]:
            assert rep_analysis(alpha, EXACT) == fraction_rep_analysis(alpha)

    def test_trace_monomials(self):
        for alpha in mixed_denominator_tuples(commuting_only=False):
            expected = {}
            for word in trace_monomials(alpha, 4):
                m = alpha.matrices[word[0] - 1]
                for idx in word[1:]:
                    m = m @ alpha.matrices[idx - 1]
                expected[word] = sum(m[i, i] for i in range(alpha.n))
            out = trace_monomials(alpha, 4)
            assert out == expected
            assert all(type(x) is Fraction for x in out.values())
