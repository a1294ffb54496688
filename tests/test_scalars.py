import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semirigid import scalars
from semirigid.commuting import MatrixTuple, joint_spectrum
from semirigid.exterior import SkewPairing, kernel
from semirigid.scalars import (
    IrrationalSpectrumError,
    ScalarMode,
    cleared,
    eigenvalues,
    identity,
    nullspace,
    rank,
    solve,
    to_float,
)
from semirigid.scalars import _berkowitz, _rational_roots, _rref
from util import (Echelon, echelon_nullspace, echelon_rank, echelon_rref, echelon_solve,
                  exact_matrix, unitriangular_pair)

EXACT = ScalarMode.exact()
FLOAT = ScalarMode.floating()


def random_rational_matrix(rng, shape, lo=-4, hi=5):
    return exact_matrix(rng.integers(lo, hi, size=shape))


def random_complex_matrix(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestMode:
    def test_tolerances_are_not_settable(self):
        with pytest.raises(TypeError):
            ScalarMode("complex", tol_rank=1e-3)
        with pytest.raises(TypeError):
            ScalarMode.floating(1e-3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            FLOAT.tol_residual = 1e-3

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown scalar mode"):
            ScalarMode("real")


class TestRank:
    def test_identity(self):
        assert rank(exact_matrix(np.eye(3, dtype=int)), EXACT) == 3
        assert rank(np.array(np.eye(3), dtype=complex), FLOAT) == 3

    def test_zero(self):
        assert rank(exact_matrix(np.zeros((2, 2), dtype=int)), EXACT) == 0
        assert rank(np.zeros((2, 2), dtype=complex), FLOAT) == 0

    def test_rank_one_rational(self):
        # [[1,2],[2,4]]: second row is twice the first.
        assert rank(exact_matrix([[1, 2], [2, 4]]), EXACT) == 1

    def test_matches_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(11)
        for _ in range(25):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            a = random_rational_matrix(rng, shape, -2, 3)
            expected = sympy.Matrix([[int(x) for x in row] for row in a]).rank()
            assert rank(a, EXACT) == expected

    def test_scale_invariance_float(self):
        rng = np.random.default_rng(5)
        a = random_complex_matrix(rng, (4, 6))
        a[3] = a[0] + a[1]
        for s in (1e-6, 1.0, 1e6):
            assert rank(s * a, FLOAT) == 3


class TestNullspace:
    def test_identity_empty(self):
        assert nullspace(exact_matrix(np.eye(4, dtype=int)), EXACT) == []

    def test_zero_matrix_full(self):
        basis = nullspace(exact_matrix(np.zeros((2, 3), dtype=int)), EXACT)
        assert len(basis) == 3

    def test_single_row(self):
        basis = nullspace(exact_matrix([[1, 1, 0]]), EXACT)
        assert len(basis) == 2
        for v in basis:
            assert v[0] + v[1] == 0

    def test_residual_bound_float(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_complex_matrix(rng, (3, 6))
            a[2] = 2 * a[0] - a[1]
            basis = nullspace(a, FLOAT)
            assert len(basis) == 4
            norm_a = np.linalg.norm(a)
            for v in basis:
                res = np.linalg.norm(a @ v)
                assert res <= FLOAT.tol_residual * norm_a * np.linalg.norm(v)

    def test_rank_nullity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            a = random_rational_matrix(rng, shape, -2, 3)
            assert rank(a, EXACT) + len(nullspace(a, EXACT)) == shape[1]
            af = random_complex_matrix(rng, shape)
            assert rank(af, FLOAT) + len(nullspace(af, FLOAT)) == shape[1]

    def test_order_independence_exact(self):
        # Rank and nullspace span are unchanged under row/column permutations.
        rng = np.random.default_rng(13)
        a = random_rational_matrix(rng, (4, 5), -2, 3)
        base = nullspace(a, EXACT)
        r = rank(a, EXACT)
        for _ in range(6):
            p = rng.permutation(4)
            q = rng.permutation(5)
            b = a[np.ix_(p, q)]
            assert rank(b, EXACT) == r
            other = nullspace(b, EXACT)
            assert len(other) == len(base)
            # spans agree after undoing the column permutation
            if len(base):
                stacked = np.array(base + [w[np.argsort(q)] for w in other], dtype=object)
                assert rank(stacked, EXACT) == len(base)


def fraction_matrix(rng, shape, of_rank=None):
    """Entries p/q with small p and q; a given rank comes from a product of two factors."""
    if of_rank is not None:
        return (fraction_matrix(rng, (shape[0], of_rank))
                @ fraction_matrix(rng, (of_rank, shape[1])))
    a = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        a[idx] = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
    return a


def with_zero_row(a, at):
    z = np.empty((1, a.shape[1]), dtype=object)
    z[...] = Fraction(0)
    return np.concatenate([a[:at], z, a[at:]], axis=0)


def with_zero_column(a, at):
    z = np.empty((a.shape[0], 1), dtype=object)
    z[...] = Fraction(0)
    return np.concatenate([a[:, :at], z, a[:, at:]], axis=1)


def huge_matrix(rng, shape, of_rank=None):
    """Entries near 2^200 over small denominators; a given rank as in fraction_matrix."""
    if of_rank is not None:
        return huge_matrix(rng, (shape[0], of_rank)) @ fraction_matrix(rng, (of_rank, shape[1]))
    return exact_matrix([[Fraction((1 << 200) + int.from_bytes(rng.bytes(20), "big")
                                   * int(rng.choice([-1, 1])), int(rng.integers(1, 8)))
                          for _ in range(shape[1])] for _ in range(shape[0])])


def oracle_inputs():
    """Tall, wide, rank-deficient and zero-row rational matrices with denominators,
    zero columns, 1 x n, n x 1 and empty shapes, and entries near 2^200."""
    rng = np.random.default_rng(23)
    out = []
    for _ in range(4):
        out += [
            fraction_matrix(rng, (6, 3)),
            fraction_matrix(rng, (3, 6)),
            fraction_matrix(rng, (5, 5), of_rank=2),
            fraction_matrix(rng, (4, 7), of_rank=3),
            with_zero_row(fraction_matrix(rng, (4, 5), of_rank=3), 1),
            with_zero_row(fraction_matrix(rng, (3, 3)), 3),
        ]
    out.append(np.empty((0, 4), dtype=object))
    rng = np.random.default_rng(71)
    out += [np.empty((3, 0), dtype=object), fraction_matrix(rng, (1, 5)),
            fraction_matrix(rng, (5, 1)), exact_matrix([[0, 0, 0]]), exact_matrix([[0], [0]])]
    for shape, r in (((6, 6), 3), ((5, 8), 2), ((8, 5), 4), ((7, 7), 6), ((4, 9), 1)):
        a = fraction_matrix(rng, shape, of_rank=r)
        out += [with_zero_column(with_zero_row(a, 2), 1), with_zero_column(a, shape[1]),
                huge_matrix(rng, shape, of_rank=r)]
    out += [huge_matrix(rng, (4, 4)), huge_matrix(rng, (6, 3)), huge_matrix(rng, (3, 6))]
    return out


def to_sympy(sympy, a):
    return sympy.Matrix(a.shape[0], a.shape[1],
                        [sympy.Rational(x.numerator, x.denominator) for x in a.flat])


def from_sympy(m):
    return [[Fraction(int(m[i, j].p), int(m[i, j].q)) for j in range(m.cols)]
            for i in range(m.rows)]


def sympy_nullspace(sympy, a):
    return [[row[0] for row in from_sympy(v)] for v in to_sympy(sympy, a).nullspace()]


class TestCleared:
    def test_fractions_share_the_least_denominator(self):
        ints, den = cleared(np.array([[Fraction(1, 2), Fraction(-2, 3)], [4, Fraction(0)]],
                                     dtype=object))
        assert (ints.tolist(), den) == ([[3, -4], [24, 0]], 6)

    def test_python_ints_are_returned_as_they_are(self):
        a = np.array([[2**70, -3], [0, 5]], dtype=object)
        ints, den = cleared(a)
        assert ints is a and den == 1

    @pytest.mark.parametrize("a", [
        np.array([True, False, True]),
        np.array([True, 2, Fraction(1)], dtype=object),
        np.array([np.int64(2**62), np.int64(-3)], dtype=object),
    ])
    def test_other_integers_become_python_ints(self, a):
        ints, den = cleared(a)
        assert den == 1
        assert all(type(x) is int for x in ints.flat)
        assert ints.tolist() == [int(x) for x in a]
        # Python ints do not wrap around where int64 would
        assert (ints * ints).tolist() == [int(x) ** 2 for x in a]


class TestExactEchelon:
    def test_rref_and_rank_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        for a in oracle_inputs():
            rows, pivots = echelon_rref(a)
            expected, expected_pivots = to_sympy(sympy, a).rref()
            assert pivots == list(expected_pivots)
            assert rows == from_sympy(expected)[:len(pivots)]
            assert rank(a, EXACT) == len(expected_pivots)
            if a.size:
                assert _rref(a)[0] == list(expected_pivots)

    def test_rows_are_det_times_rref(self):
        rng = np.random.default_rng(29)
        a = with_zero_row(fraction_matrix(rng, (5, 6), of_rank=4), 2)
        ech = Echelon()
        grew = [ech.add(cleared(row)[0].tolist()) for row in a]
        assert grew.count(True) == ech.rank == 4
        for row, p in zip(ech.rows, ech.pivots):
            assert all(isinstance(x, int) for x in row)
            assert [row[q] for q in ech.pivots] == [ech.det if q == p else 0
                                                    for q in ech.pivots]

    def test_nullspace_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for a in oracle_inputs():
            assert [list(v) for v in nullspace(a, EXACT)] == sympy_nullspace(sympy, a)

    def test_inverse_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(31)
        for n in (1, 2, 4, 6):
            a = fraction_matrix(rng, (n, n))
            while to_sympy(sympy, a).det() == 0:
                a = fraction_matrix(rng, (n, n))
            inv = solve(a, identity(n, EXACT))
            assert inv.tolist() == from_sympy(to_sympy(sympy, a).inv())

    def test_tall_solve_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(37)
        for shape in ((6, 3), (5, 5), (4, 2)):
            a = with_zero_row(fraction_matrix(rng, shape), 1)
            x = fraction_matrix(rng, (shape[1], 2))
            b = a @ x
            got = solve(a, b)
            assert got.tolist() == from_sympy(to_sympy(sympy, a).solve(to_sympy(sympy, b)))
            assert got.tolist() == x.tolist()

    def test_solve_rejects_singular_and_inconsistent(self):
        rng = np.random.default_rng(41)
        singular = fraction_matrix(rng, (4, 4), of_rank=3)
        with pytest.raises(ValueError):
            solve(singular, identity(4, EXACT))
        wide = fraction_matrix(rng, (2, 4))
        with pytest.raises(ValueError):
            solve(wide, fraction_matrix(rng, (2, 1)))
        tall = fraction_matrix(rng, (5, 2))
        b = tall @ fraction_matrix(rng, (2, 1))
        b[0, 0] += 1
        with pytest.raises(ValueError):
            solve(tall, b)


def determinant_p0():
    """A dense 3 x 3 integer matrix whose determinant is the first prime."""
    p0 = scalars._prime(0)
    lower = exact_matrix([[1, 0, 0], [2, 1, 0], [-1, 3, 1]])
    upper = exact_matrix([[1, 2, -1], [0, 1, 4], [0, 0, 1]])
    return lower @ exact_matrix(np.diag([1, 1, p0]).astype(object)) @ upper


@pytest.fixture
def primes_taken(monkeypatch):
    """The indices of the primes the engine asks for."""
    taken, prime = [], scalars._prime
    monkeypatch.setattr(scalars, "_prime", lambda i: taken.append(i) or prime(i))
    return taken


class TestModularEngine:
    def test_pivot_that_vanishes_mod_the_first_prime(self, primes_taken):
        # mod p0 the pivot is column 1, over Q it is column 0
        sympy = pytest.importorskip("sympy")
        p0 = scalars._prime(0)
        a = exact_matrix([[p0, 1]])
        assert [list(v) for v in nullspace(a, EXACT)] == sympy_nullspace(sympy, a)
        assert rank(a, EXACT) == 1
        assert solve(exact_matrix([[p0]]), exact_matrix([[1]])).tolist() == [[Fraction(1, p0)]]
        assert 1 in primes_taken

    def test_determinant_divisible_by_the_first_prime(self, primes_taken):
        sympy = pytest.importorskip("sympy")
        a = determinant_p0()
        assert to_sympy(sympy, a).det() == scalars._prime(0)
        assert rank(a, EXACT) == 3
        assert nullspace(a, EXACT) == []
        inv = solve(a, identity(3, EXACT))
        assert inv.tolist() == from_sympy(to_sympy(sympy, a).inv())
        assert 1 in primes_taken
        # with a dependent row appended, the rank loss mod p0 hides a pivot
        # that only a row outside the r rows used can reveal
        b = np.concatenate([a, a[:1] + a[2:]])
        assert rank(b, EXACT) == 3
        assert nullspace(b.T, EXACT)[0].tolist() == sympy_nullspace(sympy, b.T)[0]

    def test_solve_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(73)
        for a in (fraction_matrix(rng, (1, 1)), fraction_matrix(rng, (6, 4)),
                  with_zero_row(fraction_matrix(rng, (5, 5)), 0),
                  huge_matrix(rng, (5, 3)), huge_matrix(rng, (4, 4))):
            x = fraction_matrix(rng, (a.shape[1], 2))
            b = a @ x
            got = solve(a, b)
            assert got.tolist() == x.tolist()
            assert got.tolist() == from_sympy(to_sympy(sympy, a).solve(to_sympy(sympy, b)))

    def test_solve_refuses_what_sympy_cannot_solve_uniquely(self):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(79)
        tall = huge_matrix(rng, (5, 2))
        inconsistent = tall @ fraction_matrix(rng, (2, 1))
        inconsistent[4, 0] += 1
        cases = [(fraction_matrix(rng, (4, 4), of_rank=3), identity(4, EXACT)),
                 (fraction_matrix(rng, (2, 4)), fraction_matrix(rng, (2, 1))),
                 (with_zero_column(fraction_matrix(rng, (4, 2)), 1), fraction_matrix(rng, (4, 1))),
                 (tall, inconsistent)]
        for a, b in cases:
            with pytest.raises(ValueError):
                solve(a, b)
            sa = to_sympy(sympy, a)
            assert not sa.rank() == a.shape[1] == sa.row_join(to_sympy(sympy, b)).rank()

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5), st.data())
    def test_matches_the_echelon_references(self, m, n, r, data):
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        left = data.draw(st.lists(st.lists(entries, min_size=min(r, n), max_size=min(r, n)),
                                  min_size=m, max_size=m))
        right = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=min(r, n), max_size=min(r, n)))
        a = exact_matrix(left) @ exact_matrix(right) if min(r, n) else exact_matrix([[0] * n] * m)
        assert rank(a, EXACT) == echelon_rank(a)
        assert [list(v) for v in nullspace(a, EXACT)] == echelon_nullspace(a)
        b = exact_matrix(data.draw(st.lists(st.lists(entries, min_size=1, max_size=1),
                                            min_size=m, max_size=m)))
        try:
            want = echelon_solve(a, b)
        except ValueError:
            with pytest.raises(ValueError):
                solve(a, b)
        else:
            assert solve(a, b).tolist() == want

    @pytest.mark.parametrize("rows,dim,limit", [(190, 0, 0.5), (130, 60, 1.2)])
    def test_exact_kernel_at_d20_in_bounded_time(self, rows, dim, limit):
        rng = np.random.default_rng(20)
        mat = rng.integers(-3, 4, size=(rows, 190))
        p = SkewPairing(20, rows, tuple(tuple(int(x) for x in col) for col in mat.T))
        k, took = seconds(kernel, p)
        assert k.dim == dim and took < limit
        if dim:
            # every sixth basis vector, on cleared integers
            basis = cleared(np.array([b.coeffs for b in k.basis[::6]], dtype=object))[0]
            assert not np.any(mat.astype(object) @ basis.T)


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def planted_split_poly(rng):
    """Random polynomial (coefficients low to high) that splits over Q, and its roots.

    Roots have denominators up to 6 and multiplicities up to 4, zero is among
    them in about a quarter of the draws, and the leading coefficient is not 1.
    """
    roots = []
    for _ in range(int(rng.integers(1, 4))):
        num = 0 if rng.random() < 0.15 else int(rng.integers(-40, 41))
        roots += [Fraction(num, int(rng.integers(1, 7)))] * int(rng.integers(1, 5))
    poly = [Fraction(int(rng.choice([-3, 2, 5])), int(rng.choice([1, 3, 7])))]
    for r in roots:
        poly = poly_mul(poly, [-r, Fraction(1)])
    return poly, sorted(roots)


# x^2 - 2, x^2 + 1, 3x^2 - x + 5, x^3 - 2, x^3 - x - 1, 2x^3 + 3x + 6: no rational roots
IRREDUCIBLE_FACTORS = [
    [-2, 0, 1], [1, 0, 1], [5, -1, 3], [-2, 0, 0, 1], [-1, -1, 0, 1], [6, 3, 0, 2],
]


def seconds(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


class TestEigenvalues:
    def test_diagonal(self):
        vals = eigenvalues(exact_matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]]), EXACT)
        assert sorted(vals) == [1, 2, 3]

    def test_nilpotent_block(self):
        vals = eigenvalues(exact_matrix([[0, 1], [0, 0]]), EXACT)
        assert vals == [0, 0]

    def test_swap_matrix(self):
        # characteristic polynomial x^2 - 1
        vals = eigenvalues(exact_matrix([[0, 1], [1, 0]]), EXACT)
        assert sorted(vals) == [-1, 1]

    def test_rational_spectrum(self):
        vals = eigenvalues(exact_matrix([[Fraction(1, 2), 0], [1, Fraction(-3, 4)]]), EXACT)
        assert sorted(vals) == [Fraction(-3, 4), Fraction(1, 2)]

    def test_repeated_non_integer_eigenvalue_under_a_denominator(self):
        # A = A' / 6 with eigenvalues 5/6 (twice, one Jordan block), -1/3 and 7/2
        rng = np.random.default_rng(68)
        p, pinv = unitriangular_pair(rng, 4)
        t = exact_matrix([[Fraction(5, 6), 1, 0, 0], [0, Fraction(5, 6), 0, 0],
                          [0, 0, Fraction(-1, 3), Fraction(1, 2)], [0, 0, 0, Fraction(7, 2)]])
        a = p @ t @ pinv
        assert cleared(a)[1] == 6
        assert eigenvalues(a, EXACT) == [Fraction(-1, 3), Fraction(5, 6), Fraction(5, 6),
                                          Fraction(7, 2)]

    def test_irrational_spectrum_raises(self):
        with pytest.raises(IrrationalSpectrumError):
            eigenvalues(exact_matrix([[0, 1], [2, 0]]), EXACT)

    def test_float_accuracy(self):
        a = np.array([[0, 1], [1, 0]], dtype=complex)
        vals = sorted(eigenvalues(a, FLOAT), key=lambda z: z.real)
        assert abs(vals[0] + 1) < 1e-12 and abs(vals[1] - 1) < 1e-12

    def test_similarity_invariance_float(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = np.diag(rng.integers(-3, 4, size=4).astype(complex))
            p = random_complex_matrix(rng, (4, 4)) + 4 * np.eye(4)
            b = p @ d @ np.linalg.inv(p)
            va = sorted(eigenvalues(d, FLOAT), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
            vb = sorted(eigenvalues(b, FLOAT), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
            for x, y in zip(va, vb):
                assert abs(x - y) <= 10 * FLOAT.tol_residual * max(1.0, abs(x))

    def test_exact_similarity_invariance(self):
        a = exact_matrix([[1, 0], [0, 2]])
        p = exact_matrix([[1, 1], [0, 1]])
        pinv = exact_matrix([[1, -1], [0, 1]])
        assert sorted(eigenvalues(p @ a @ pinv, EXACT)) == [1, 2]

    def test_planted_roots_ascending_with_multiplicity(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            poly, roots = planted_split_poly(rng)
            assert _rational_roots(poly, len(poly) - 1) == roots

    def test_matches_sympy_roots(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = np.random.default_rng(62)
        for _ in range(25):
            poly, _ = planted_split_poly(rng)
            expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
                       for i, c in enumerate(poly))
            oracle = sorted(Fraction(int(r.p), int(r.q)) for r, k in sympy.roots(expr, x).items()
                            for _ in range(k))
            assert _rational_roots(poly, len(poly) - 1) == oracle

    def test_irreducible_factor_raises(self):
        rng = np.random.default_rng(63)
        for i in range(24):
            split, _ = planted_split_poly(rng)
            factor = [Fraction(c) for c in IRREDUCIBLE_FACTORS[i % len(IRREDUCIBLE_FACTORS)]]
            # the squared factor makes the square-free part differ from the polynomial
            for poly in (poly_mul(split, factor), poly_mul(poly_mul(split, factor), factor)):
                with pytest.raises(IrrationalSpectrumError):
                    _rational_roots(poly, len(poly) - 1)

    def test_constant_and_linear(self):
        assert _rational_roots([Fraction(3)], 0) == []
        assert _rational_roots([Fraction(5), Fraction(-2)], 1) == [Fraction(5, 2)]

    def test_large_eigenvalues_in_bounded_time(self):
        near_million = [999983, 999999, 10**6 + 3, 10**6 + 33]
        primes_near_1e12 = [999999999989, 1000000000039, 1000000000061, 1000000000063]
        for vals in (near_million, primes_near_1e12):
            out, took = seconds(eigenvalues, exact_matrix(np.diag(vals).astype(object)), EXACT)
            assert out == vals and took < 2.0

    def test_joint_spectrum_n8_in_bounded_time(self):
        rng = np.random.default_rng(8)
        p, pinv = unitriangular_pair(rng, 8)
        diags = [[int(x) for x in rng.integers(-4, 5, size=8)] for _ in range(3)]
        alpha = MatrixTuple.from_matrices([p @ exact_matrix(np.diag(dg)) @ pinv for dg in diags])
        spec, took = seconds(joint_spectrum, alpha, EXACT)
        assert sorted(spec.points) == sorted(zip(*diags)) and took < 2.0


def sympy_char_poly(sympy, a):
    """Coefficients of the characteristic polynomial from sympy, low to high."""
    return [Fraction(int(c.p), int(c.q))
            for c in reversed(to_sympy(sympy, a).charpoly().all_coeffs())]


def cleared_char_poly(a):
    """What eigenvalues reads: the characteristic polynomial of the cleared
    integers A' = f A by Berkowitz, and f."""
    ints, f = cleared(a)
    return _berkowitz(ints), ints, f


class TestCharPoly:
    """Berkowitz on the cleared integer matrix against sympy's charpoly."""

    def test_matches_sympy_with_mixed_denominators(self):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(64)
        for n in range(1, 9):
            for _ in range(4):
                a = exact_matrix([[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                                   for _ in range(n)] for _ in range(n)])
                coeffs, ints, _ = cleared_char_poly(a)
                assert coeffs == sympy_char_poly(sympy, ints)

    def test_nilpotent_scalar_and_one_by_one(self):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(65)
        nilpotent = np.triu(fraction_matrix(rng, (5, 5)), 1)
        scalar = exact_matrix(np.eye(4, dtype=int)) * Fraction(-5, 3)
        cases = [
            (nilpotent, [0] * 5 + [1]),
            (scalar, [Fraction(625, 81), Fraction(500, 27), Fraction(50, 3), Fraction(20, 3), 1]),
            (exact_matrix([[Fraction(-3, 7)]]), [Fraction(3, 7), 1]),
            (exact_matrix([[0]]), [0, 1]),
        ]
        for a, expected in cases:
            coeffs, ints, f = cleared_char_poly(a)
            assert coeffs == sympy_char_poly(sympy, ints)
            assert all(type(c) is int for c in coeffs)
            # f^(n-k) c_k is the k-th coefficient of A' = f A
            assert [Fraction(c, f ** (len(a) - k)) for k, c in enumerate(coeffs)] == expected
            assert expected == sympy_char_poly(sympy, a)

    def test_entries_near_two_to_the_200(self):
        # the integer recursion stays polynomial in the bit size of the entries
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(66)
        a = exact_matrix([[Fraction(int.from_bytes(rng.bytes(25), "big") * (-1) ** (i + j),
                                    int(rng.integers(1, 8)))
                           for j in range(6)] for i in range(6)])
        (coeffs, ints, _), took = seconds(cleared_char_poly, a)
        assert coeffs == sympy_char_poly(sympy, ints) and took < 1.0

    def test_exact_eigenvalues_at_n8_in_milliseconds(self):
        rng = np.random.default_rng(67)
        p, pinv = unitriangular_pair(rng, 8)
        vals = [Fraction(int(x), int(y)) for x, y in zip(rng.integers(-4, 5, size=8),
                                                         rng.integers(1, 4, size=8))]
        a = p @ exact_matrix(np.diag(vals).astype(object)) @ pinv
        out, took = seconds(eigenvalues, a, EXACT)
        assert out == sorted(vals) and took < 0.5


def test_to_float_roundtrip():
    a = exact_matrix([[Fraction(1, 3), 2], [0, Fraction(-5, 4)]])
    f = to_float(a)
    assert f.dtype == complex
    assert abs(f[0, 0] - (1 / 3)) < 1e-15


class TestAtUnitSize:
    """``scalars._at_unit_size`` divides by a power of two, so it is exact."""

    @pytest.mark.parametrize("shape, k", [((6, 3, 4, 4), 3), ((5, 7), 1), ((4, 10), 2),
                                          ((12,), 1), ((3, 2, 5), 2)])
    def test_unit_times_two_to_the_e_is_the_input(self, shape, k):
        rng = np.random.default_rng(sum(shape) + k)
        lead = shape[:len(shape) - k]
        # one scale from 1e-300 to 1e300 per leading index, zeros of both signs
        scale = 10.0 ** rng.uniform(-300, 300, size=lead + (1,) * k)
        a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
        for part in (a.real, a.imag):
            zero = rng.random(shape) < 0.25
            part[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))
        if lead:
            a[(0,) * len(lead)] = -0.0
        unit, e = scalars._at_unit_size(a, k)
        assert np.shape(e) == lead
        back = np.empty_like(a)
        back.real, back.imag = (np.ldexp(x, np.reshape(e, lead + (1,) * k))
                                for x in (unit.real, unit.imag))
        assert back.tobytes() == a.tobytes()
        top = np.maximum(abs(unit.real), abs(unit.imag)).max(axis=tuple(range(-k, 0)))
        nonzero = top > 0
        assert ((0.5 <= top[nonzero]) & (top[nonzero] < 1)).all()
        assert (np.asarray(e)[~nonzero] == 0).all()
