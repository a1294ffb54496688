import cmath
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from util import plucker_square_reference

from semirigid import exterior
from semirigid.exterior import (
    NO,
    NOT_APPLICABLE,
    YES,
    Bivector,
    KernelSubspace,
    SkewPairing,
    apply,
    bivector_rank,
    decomposable_exists_exact,
    dimension_criterion,
    kernel,
    pair_index,
    pair_list,
    restricted_quadrics,
    skew,
    wedge,
)
from semirigid.scalars import ScalarMode, cleared, nullspace, stored, to_float
from semirigid.verdict import _verify_witness

EXACT = ScalarMode.exact()
FLOAT = ScalarMode.floating()


def symplectic_pairing(d):
    # nondegenerate skew form into a one-dimensional W
    values = {(2 * k, 2 * k + 1): (1,) for k in range(d // 2)}
    return SkewPairing.from_map(d, 1, values)


def plucker_square(w: Bivector) -> np.ndarray:
    """den^2 (w ^ w): the k = 1 column of restricted_quadrics on w's stored values."""
    return restricted_quadrics(w.values[None], w.dim_v)[:, 0]


def random_bivector(rng, d, lo=-3, hi=4):
    return Bivector(d, tuple(int(x) for x in rng.integers(lo, hi, size=len(pair_list(d)))))


class TestIndexing:
    def test_pair_index_roundtrip(self):
        for d in range(2, 7):
            for idx, (i, j) in enumerate(pair_list(d)):
                assert pair_index(i, j, d) == idx

    def test_antisymmetric_coefficient(self):
        w = Bivector.from_pairs(3, {(0, 1): 5})
        assert w.coefficient(0, 1) == 5
        assert w.coefficient(1, 0) == -5
        assert w.coefficient(2, 2) == 0


class TestSkew:
    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("dtype", [object, complex])
    def test_lift_of_pair_coordinates(self, d, dtype):
        rng = np.random.default_rng(d)
        n = len(pair_list(d))
        if dtype is object:
            x = np.array([[Fraction(int(a), int(b)) for a, b in
                           zip(rng.integers(-5, 6, size=n), rng.integers(1, 4, size=n))]
                          for _ in range(3)], dtype=object)
        else:
            x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        m = skew(x, d)
        assert m.shape == (3, d, d) and m.dtype == x.dtype
        for idx, (i, j) in enumerate(pair_list(d)):
            assert np.array_equal(m[:, i, j], x[:, idx])
        assert np.array_equal(m, -m.transpose(0, 2, 1))
        # one bivector, no leading axis
        assert np.array_equal(skew(x[1], d), m[1])


def loop_apply(p, omega):
    """Reference: the pairing's rows weighted by the bivector's coefficients."""
    out = [0] * p.dim_w
    for row, c in zip(p.entries, omega.coeffs):
        for k in range(p.dim_w):
            out[k] = out[k] + c * row[k]
    return out


class TestApply:
    @pytest.mark.parametrize("pairing_complex", [False, True])
    @pytest.mark.parametrize("bivector_complex", [False, True])
    def test_regime_and_values(self, pairing_complex, bivector_complex):
        rng = np.random.default_rng((pairing_complex, bivector_complex))

        def scalar(is_complex):
            if is_complex:
                return complex(rng.standard_normal(), rng.standard_normal())
            return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))

        for d in range(1, 6):
            for m in range(4):
                p = SkewPairing(d, m, tuple(tuple(scalar(pairing_complex) for _ in range(m))
                                            for _ in pair_list(d)))
                w = Bivector(d, tuple(scalar(bivector_complex) for _ in pair_list(d)))
                out, ref = apply(p, w), loop_apply(p, w)
                assert out.shape == (m,)
                # for d = 1 or m = 0 one side holds no scalars at all
                if d > 1 and (pairing_complex and m or bivector_complex):
                    assert out.dtype == complex
                    assert np.allclose(out, np.array(ref, dtype=complex), rtol=0, atol=1e-12)
                else:
                    assert out.dtype == object
                    assert list(out) == ref


    def test_symplectic_d2(self):
        p = symplectic_pairing(2)
        out = apply(p, Bivector.basis_element(2, 0, 1))
        assert list(out) == [1]

    def test_zero_bivector(self):
        p = symplectic_pairing(4)
        assert all(x == 0 for x in apply(p, Bivector.zero(4)))

    def test_identity_pairing(self):
        p = SkewPairing.identity(2)
        out = apply(p, Bivector.basis_element(2, 0, 1))
        assert list(out) == [1]

    def test_bilinear(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = int(rng.integers(1, 4))
            p = SkewPairing.from_map(
                d, m,
                {pair: tuple(int(v) for v in rng.integers(-3, 4, size=m))
                 for pair in pair_list(d)})
            w1, w2 = random_bivector(rng, d), random_bivector(rng, d)
            a, b = Fraction(2, 3), Fraction(-5)
            left = apply(p, a * w1 + b * w2)
            right = a * apply(p, w1) + b * apply(p, w2)
            assert all(x == y for x, y in zip(left, right))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(symplectic_pairing(2), Bivector.zero(3))


class TestKernel:
    def test_symplectic_d2_injective(self):
        assert kernel(symplectic_pairing(2), EXACT).dim == 0

    def test_symplectic_d4_hyperplane(self):
        assert kernel(symplectic_pairing(4), EXACT).dim == 5

    def test_zero_pairing(self):
        assert kernel(SkewPairing.zero(3, 0), EXACT).dim == 3

    def test_kernel_elements_map_to_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = int(rng.integers(3, 6))
            m = int(rng.integers(1, 4))
            p = SkewPairing.from_map(
                d, m,
                {pair: tuple(int(v) for v in rng.integers(-2, 3, size=m))
                 for pair in pair_list(d)})
            for b in kernel(p, EXACT).basis:
                assert all(x == 0 for x in apply(p, b))


class TestRankAndPlucker:
    def test_rank_examples(self):
        assert bivector_rank(Bivector.basis_element(4, 0, 1), EXACT) == 2
        w = Bivector.from_pairs(4, {(0, 1): 1, (2, 3): 1})
        assert bivector_rank(w, EXACT) == 4
        assert bivector_rank(Bivector.zero(4), EXACT) == 0

    def test_plucker_examples(self):
        assert all(x == 0 for x in plucker_square(Bivector.basis_element(4, 0, 1)))
        w = Bivector.from_pairs(4, {(0, 1): 1, (2, 3): 1})
        assert plucker_square(w).tolist() == [2]
        assert plucker_square(random_bivector(np.random.default_rng(0), 3)).tolist() == []

    def test_rank_invariant_under_basis_change(self):
        rng = np.random.default_rng(9)
        for d in (4, 5):
            for _ in range(10):
                w = random_bivector(rng, d)
                m = w.skew_matrix()
                p = np.array(rng.integers(-2, 3, size=(d, d)), dtype=object)
                while _exact_det_is_zero(p):
                    p = np.array(rng.integers(-2, 3, size=(d, d)), dtype=object)
                t = p.T @ m @ p
                transformed = Bivector(d, tuple(t[i, j] for i, j in pair_list(d)))
                assert bivector_rank(transformed, EXACT) == bivector_rank(w, EXACT)

    def test_plucker_vanishes_iff_rank_at_most_two(self):
        rng = np.random.default_rng(21)
        for d in (4, 5, 6):
            for k in range(1000):
                if k % 2:
                    u = rng.integers(-3, 4, size=d)
                    v = rng.integers(-3, 4, size=d)
                    w = wedge([int(x) for x in u], [int(x) for x in v])
                else:
                    w = random_bivector(rng, d)
                vanishes = all(x == 0 for x in plucker_square(w))
                assert vanishes == (bivector_rank(w, EXACT) <= 2)


def random_basis(rng, d, k, field):
    """k seeded bivectors at d: entries p/q with q in [1, 6], or complex."""
    n = len(pair_list(d))
    if field == "rational":
        return [Bivector(d, tuple(Fraction(int(p), int(q)) for p, q in
                                  zip(rng.integers(-5, 6, n), rng.integers(1, 7, n))))
                for _ in range(k)]
    return [Bivector(d, tuple(complex(z) for z in rng.standard_normal(n)
                              + 1j * rng.standard_normal(n))) for _ in range(k)]


class TestRestrictedQuadrics:
    """The one builder of the Plucker quadrics restricted to a span."""

    @pytest.mark.parametrize("field", ["rational", "complex"])
    def test_columns_are_the_polar_forms_of_the_reference(self, field):
        rng = np.random.default_rng(27)
        # k = 1, 2, 3, 4 in turn, each at two or three d
        for d in range(4, 13):
            k = 1 + d % 4
            basis = random_basis(rng, d, k, field)
            rows = np.array([w.coeffs for w in basis], dtype=object)
            xs, den = cleared(rows) if field == "rational" else (to_float(rows), 1)
            got = restricted_quadrics(xs, d)
            assert got.shape == (comb(d, 4), k * (k + 1) // 2)
            q = [np.array(plucker_square_reference(w), dtype=object) for w in basis]
            for col, (i, j) in enumerate(zip(*np.triu_indices(k))):
                # Q(x_i + x_j) - Q(x_i) - Q(x_j) = 2 B(x_i, x_j)
                polar = q[i] if i == j else (np.array(plucker_square_reference(
                    basis[i] + basis[j]), dtype=object) - q[i] - q[j]) / 2
                if field == "rational":
                    assert den > 1
                    assert got[:, col].tolist() == (polar * den ** 2).tolist()
                else:
                    assert np.allclose(got[:, col], to_float(polar), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("field", ["rational", "complex"])
    def test_plucker_square_is_the_reference(self, field):
        # the k = 1 column at every d, d < 4 included, on a bivector's stored
        # values: den^2 times the square
        rng = np.random.default_rng(27)
        for d in range(1, 13):
            for w in random_basis(rng, d, 2, field):
                got, ref = plucker_square(w), plucker_square_reference(w)
                assert len(got) == comb(d, 4)
                if field == "rational":
                    assert got.tolist() == [x * w.den ** 2 for x in ref]
                else:
                    assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


def _exact_det_is_zero(p):
    from semirigid.scalars import rank as _rank
    return _rank(p, EXACT) < p.shape[0]


class TestDimensionCriterion:
    def test_bound_cases(self):
        k5 = KernelSubspace(4, tuple(Bivector.basis_element(4, i, j)
                                     for i, j in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
        assert dimension_criterion(k5) is True
        k3 = KernelSubspace(5, tuple(Bivector.basis_element(5, 0, j) for j in (1, 2, 3)))
        assert dimension_criterion(k3) is False
        k1 = KernelSubspace(3, (Bivector.basis_element(3, 0, 1),))
        assert dimension_criterion(k1) is True


def _pf4(w):
    c = w.coeffs
    return c[0] * c[5] - c[1] * c[4] + c[2] * c[3]


def _net_finds_pf_zero(k1, k2, n_grid):
    """Brute-force net scan of the plane spanned by two bivectors for a zero
    of the restricted Pfaffian quadric.

    Works on the two affine charts x*k1 + k2 and k1 + y*k2, which together
    cover the projective line of the plane with parameters of modulus <= 3.
    The acceptance threshold 5*h (h = grid spacing, quadric scaled by its
    largest coefficient) is guaranteed to fire at a net point next to a true
    zero, so refining the net can only help.
    """
    a = complex(_pf4(k1))
    c = complex(_pf4(k2))
    b = complex(_pf4(k1 + k2)) - a - c
    maxcoef = max(abs(a), abs(b), abs(c))
    if maxcoef == 0:
        return True
    h = 6.0 / (n_grid - 1)
    grid = np.linspace(-3, 3, n_grid)
    x = (grid[:, None] + 1j * grid[None, :]).ravel()
    for lead, mid, last in ((a, b, c), (c, b, a)):
        vals = np.abs(lead * x * x + mid * x + last) / maxcoef
        if vals.min() <= 5 * h:
            return True
    return False


class TestDecomposableExistsExact:
    def test_low_dim_cases(self):
        assert decomposable_exists_exact(KernelSubspace(3, ())).kind == NO
        dec = decomposable_exists_exact(KernelSubspace(2, (Bivector.basis_element(2, 0, 1),)))
        assert dec.kind == YES
        assert dec.witness.coeffs == (1,)
        assert decomposable_exists_exact(KernelSubspace(5, ())).kind == NO
        e = [Bivector.basis_element(5, i, j) for i, j in ((0, 1), (0, 2), (1, 2))]
        # a plane of three at d = 5, and a complex pencil there, stay with the search
        assert decomposable_exists_exact(KernelSubspace(5, tuple(e))).kind == NOT_APPLICABLE
        pencil = KernelSubspace(5, tuple(Bivector(5, tuple(map(complex, b.coeffs)))
                                         for b in e[:2]))
        assert decomposable_exists_exact(pencil).kind == NOT_APPLICABLE
        assert decomposable_exists_exact(KernelSubspace(5, tuple(e[:2])), EXACT).kind == YES

    def test_symplectic_hyperplane_witness(self):
        k = kernel(symplectic_pairing(4), EXACT)
        dec = decomposable_exists_exact(k)
        assert dec.kind == YES
        assert bivector_rank(dec.witness, FLOAT if not dec.witness.is_rational() else EXACT) == 2
        assert _net_finds_pf_zero(k.basis[0], k.basis[1], 41)

    def test_rank4_generator_is_no(self):
        gen = Bivector.from_pairs(4, {(0, 1): 1, (2, 3): 1})
        dec = decomposable_exists_exact(KernelSubspace(4, (gen,)))
        assert dec.kind == NO
        assert _pf4(gen) != 0

    def test_irrational_discriminant_gives_complex_witness(self):
        # Pfaffian form x^2 - 2 y^2 on the plane: no rational zero
        k1 = Bivector.from_pairs(4, {(0, 1): 1, (2, 3): 1})
        k2 = Bivector.from_pairs(4, {(0, 2): 1, (1, 3): 2})
        dec = decomposable_exists_exact(KernelSubspace(4, (k1, k2)))
        assert dec.kind == YES
        assert not dec.witness.is_rational()
        assert bivector_rank(dec.witness, FLOAT) == 2

    def test_definite_form_needs_complex_point(self):
        # Pfaffian form x^2 + y^2: zeros only at complex parameters
        k1 = Bivector.from_pairs(4, {(0, 1): 1, (2, 3): 1})
        k2 = Bivector.from_pairs(4, {(0, 2): 1, (1, 3): -1})
        dec = decomposable_exists_exact(KernelSubspace(4, (k1, k2)))
        assert dec.kind == YES
        assert bivector_rank(dec.witness, FLOAT) == 2

    def test_agrees_with_net_oracle_on_random_instances(self):
        from semirigid.scalars import rank as _rank
        rng = np.random.default_rng(33)
        for _ in range(40):
            dim_k = int(rng.integers(1, 4))
            basis = []
            while len(basis) < dim_k:
                cand = random_bivector(rng, 4, -2, 3)
                stacked = np.array([list(b.coeffs) for b in basis + [cand]], dtype=object)
                if not cand.is_zero() and _rank(stacked, EXACT) == len(basis) + 1:
                    basis.append(cand)
            k = KernelSubspace(4, tuple(basis))
            dec = decomposable_exists_exact(k)
            if dim_k == 1:
                # exhaustive check of the one-dimensional space is exact
                assert (dec.kind == YES) == (_pf4(basis[0]) == 0)
            else:
                assert dec.kind == YES
                found = any(_net_finds_pf_zero(basis[0], basis[1], n) for n in (41, 81, 161))
                assert found
            if dec.kind == YES:
                mode = EXACT if dec.witness.is_rational() else FLOAT
                assert bivector_rank(dec.witness, mode) == 2


def pencil_pairing(k1, k2):
    """Rational pairing whose kernel is exactly span(k1, k2)."""
    ann = nullspace(np.array([k1.coeffs, k2.coeffs], dtype=object), EXACT)
    return SkewPairing(k1.dim_v, len(ann), tuple(zip(*(tuple(v) for v in ann))))


def restricted_forms(k1, k2):
    """The Plucker quadrics on s k1 + t k2 as coefficient arrays a, b, c, from
    the reference by polarization."""
    a, c, ab = (np.array(plucker_square_reference(w), dtype=object) for w in (k1, k2, k1 + k2))
    return a, ab - a - c, c


def random_wedge(rng, d):
    u, v = ([int(x) for x in rng.integers(-3, 4, size=d)] for _ in range(2))
    return wedge(u, v)


def is_multiple(omega, of):
    """Whether the rational bivector omega is a nonzero multiple of ``of``."""
    j = next(i for i, x in enumerate(of.coeffs) if x != 0)
    return not omega.is_zero() and omega.coeffs[j] * of == of.coeffs[j] * omega


class TestPencilRule:
    """The Plucker quadrics restricted to a pencil, at every d."""

    @pytest.mark.parametrize("d", range(5, 13))
    def test_random_pencils_hold_no_decomposable(self, d):
        rng = np.random.default_rng(d)
        k1, k2 = random_bivector(rng, d), random_bivector(rng, d)
        assert decomposable_exists_exact(KernelSubspace(d, (k1, k2))).kind == NO

    @pytest.mark.parametrize("d", range(5, 13))
    def test_planted_decomposable_gets_an_exact_witness(self, d):
        rng = np.random.default_rng(100 + d)
        plant, r = random_wedge(rng, d), random_bivector(rng, d)
        x0 = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        k1, k2 = r, plant - x0 * r  # x0 k1 + k2 is the plant
        dec = decomposable_exists_exact(KernelSubspace(d, (k1, k2)))
        assert dec.kind == YES and dec.witness.is_rational()
        assert is_multiple(dec.witness, plant)
        _verify_witness(pencil_pairing(k1, k2), dec.witness, EXACT)
        assert bivector_rank(dec.witness, EXACT) == 2

    @pytest.mark.parametrize("d", range(5, 9))
    def test_pencil_of_two_decomposables(self, d):
        rng = np.random.default_rng(200 + d)
        p1, p2 = random_wedge(rng, d), random_wedge(rng, d)
        # x k1 + k2 = (x + 1) p1 + (x - 2) p2: decomposable at x = -1 and 2
        k1, k2 = p1 + p2, p1 - 2 * p2
        dec = decomposable_exists_exact(KernelSubspace(d, (k1, k2)))
        assert dec.kind == YES
        assert is_multiple(dec.witness, p1) or is_multiple(dec.witness, p2)
        _verify_witness(pencil_pairing(k1, k2), dec.witness, EXACT)

    def test_common_zero_at_the_second_root(self):
        k1 = Bivector.from_pairs(5, {(0, 1): 1, (0, 2): 1, (1, 3): 1, (3, 4): 1})
        k2 = Bivector.from_pairs(5, {(0, 1): -1, (0, 2): -1, (1, 2): -1, (1, 3): -2,
                                     (3, 4): -2})
        a, b, c = restricted_forms(k1, k2)
        f = int(np.argmax(np.abs(a)))
        # the roots of f are 1, tried first, and 2; only 2 is a common root
        assert (a[f] + b[f] + c[f], 4 * a[f] + 2 * b[f] + c[f]) == (0, 0) and a[f] < 0
        assert bivector_rank(k1 + k2, EXACT) == 4
        dec = decomposable_exists_exact(KernelSubspace(5, (k1, k2)))
        assert dec.kind == YES and dec.witness == 2 * k1 + k2
        _verify_witness(pencil_pairing(k1, k2), dec.witness, EXACT)

    def test_rational_roots_of_f_that_no_other_form_shares(self):
        k1 = Bivector.from_pairs(5, {(0, 3): -1, (0, 4): -1, (2, 4): 1})
        k2 = Bivector.from_pairs(5, {(0, 1): -1, (0, 3): 1, (3, 4): -1})
        a, b, c = restricted_forms(k1, k2)
        f = int(np.argmax(np.abs(a)))
        # f = 2 x^2 - 2 x has the roots 0 and 1; a form -2 x and a constant 2 share none
        assert (a[f], b[f], c[f]) == (2, -2, 0)
        assert decomposable_exists_exact(KernelSubspace(5, (k1, k2))).kind == NO

    def test_conjugate_pair_over_q_sqrt2(self):
        rng = np.random.default_rng(2)
        u, v, u2, v2 = ([int(x) for x in rng.integers(-3, 4, size=6)] for _ in range(4))
        # (u + sqrt2 u2) wedge (v + sqrt2 v2) = p + sqrt2 q: x q + p is
        # decomposable at x = +-sqrt2, and at no rational x
        p = wedge(u, v) + 2 * wedge(u2, v2)
        q = wedge(u, v2) + wedge(u2, v)
        a, b, c = restricted_forms(q, p)
        f = int(np.argmax(np.abs(a)))
        assert b[f] == 0 and c[f] == -2 * a[f] != 0
        dec = decomposable_exists_exact(KernelSubspace(6, (q, p)))
        assert dec.kind == YES and not dec.witness.is_rational()
        assert bivector_rank(dec.witness, FLOAT) == 2
        _verify_witness(pencil_pairing(q, p), dec.witness, EXACT)

    def test_irrational_roots_of_f_that_not_every_form_shares(self):
        k1 = Bivector.from_pairs(5, {(0, 4): 1, (1, 4): 1, (2, 3): 1})
        k2 = Bivector.from_pairs(5, {(0, 3): 1, (2, 4): -1})
        a, b, c = restricted_forms(k1, k2)
        f = int(np.argmax(np.abs(a)))
        # f = 2 x^2 + 2 has the roots +-i; the form 2 x^2 is no multiple of it
        assert (a[f], b[f], c[f]) == (2, 0, 2) and [2, 0, 0] in np.array([a, b, c]).T.tolist()
        assert decomposable_exists_exact(KernelSubspace(5, (k1, k2))).kind == NO

    def test_agrees_with_the_common_factor_of_the_forms(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = np.random.default_rng(7)
        answers = set()
        for trial in range(24):
            d = 5 + trial % 2
            # sparse entries, so that both answers come up
            k1, k2 = (Bivector(d, tuple(int(s) * int(t) for s, t in zip(
                rng.integers(-1, 2, size=len(pair_list(d))),
                rng.integers(0, 2, size=len(pair_list(d)))))) for _ in range(2))
            if trial % 4 == 0:
                k2 = random_wedge(rng, d) - int(rng.integers(-2, 3)) * k1
            if k1.is_zero() or k2.is_zero():
                continue
            a, b, c = restricted_forms(k1, k2)
            forms = [int(ai) * x ** 2 + int(bi) * x + int(ci) for ai, bi, ci in zip(a, b, c)]
            common = not any(a) or sympy.degree(sympy.gcd_list(forms), x) >= 1
            dec = decomposable_exists_exact(KernelSubspace(d, (k1, k2)))
            assert (dec.kind == YES) == common
            answers.add(dec.kind)
        assert answers == {YES, NO}

    def test_rule_does_not_evaluate_plucker_square(self, monkeypatch):
        rng = np.random.default_rng(112)
        plant, r = random_wedge(rng, 12), random_bivector(rng, 12)
        k = kernel(pencil_pairing(r, plant - 3 * r), EXACT)
        assert any(x.denominator > 1 for b in k.basis for x in b.coeffs)
        expected = decomposable_exists_exact(k)
        assert expected.kind == YES and is_multiple(expected.witness, plant)

        # plucker_square is gone; the rule reads the kernel's stored integer
        # rows and clears none (only the witness, one bivector, when it is
        # built by scalars.stored)
        assert not hasattr(exterior, "plucker_square")

        def refuse_rows(a):
            assert np.ndim(a) == 1, "the pencil rule cleared its rows"
            return stored(a)

        monkeypatch.setattr(exterior, "stored", refuse_rows)
        assert decomposable_exists_exact(k) == expected

    def test_irrational_witness_from_the_forms_on_k1_and_k2(self):
        # the quadric 4/3 x^2 + 8/9 on x k1 + k2, roots +-i sqrt(2/3); the
        # cleared rows (den 3) give 9 times it, whose floats round apart
        third = Fraction(1, 3)
        k1 = Bivector.from_pairs(4, {(0, 2): -1, (1, 3): 2 * third})
        k2 = Bivector.from_pairs(4, {(0, 1): 2 * third, (2, 3): 2 * third})
        a, b, c = restricted_forms(k1, k2)
        assert (a[0], b[0], c[0]) == (Fraction(4, 3), 0, Fraction(8, 9))
        af, bf, disc = (complex(v) for v in (a[0], b[0], b[0] ** 2 - 4 * a[0] * c[0]))
        x = (-bf + cmath.sqrt(disc)) / (2 * af)
        expected = tuple(x * complex(s) + complex(t) for s, t in zip(k1.coeffs, k2.coeffs))
        dec = decomposable_exists_exact(KernelSubspace(4, (k1, k2)))
        assert dec.kind == YES and dec.witness.coeffs == expected

    def test_line_is_a_rank_test_at_every_d(self):
        for d in (5, 8, 12):
            gen = Bivector.from_pairs(d, {(0, 1): 1, (2, 3): 1})
            assert decomposable_exists_exact(KernelSubspace(d, (gen,))).kind == NO
            line = KernelSubspace(d, (Bivector.basis_element(d, 1, d - 1),))
            assert decomposable_exists_exact(line).kind == YES
            floated = KernelSubspace(d, (Bivector(d, tuple(map(complex, gen.coeffs))),))
            assert decomposable_exists_exact(floated).kind == NO

