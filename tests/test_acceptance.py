"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line; the suite is the release exit check.
"""

import json
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from semirigid.catalog import catalog_build
from semirigid.cli import main as cli_main
from semirigid.commuting import (
    MatrixTuple,
    chevalley_separates,
    chi,
    chi_norm,
    mu,
    rep_analysis,
    trace_monomials,
    tuple_scale,
)
from semirigid.exterior import (
    Bivector,
    KernelSubspace,
    SkewPairing,
    apply,
    bivector_rank,
    kernel,
    pair_list,
)
from semirigid.scalars import ScalarMode, rank
from semirigid.verdict import (
    CERT_DIMENSION_CRITERION,
    CERT_EXACT_LOW_DIM,
    NOT_SEMI_RIGID,
    SEMI_RIGID,
    SearchConfig,
    construct_stable_point,
    decide,
    mu_zero_sampler,
    split_component_dimension,
    tuple_to_witness,
    witness_search,
    witness_to_tuple,
)
from util import (exact_matrix, planted_kernel_pairing, projective_distance,
                  random_rank2_bivector, trace_contraction)

EXACT = ScalarMode.exact()
FLOAT = ScalarMode.floating()


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {desc}", flush=True)
        raise
    print(f"[criterion {num}] PASS: {desc}", flush=True)


def random_exact_pairing(rng, d, m):
    return SkewPairing.from_map(
        d, m,
        {pair: tuple(int(x) for x in rng.integers(-3, 4, size=m))
         for pair in pair_list(d)})


def random_exact_tuple(rng, n, d):
    return MatrixTuple.from_matrices(
        [exact_matrix(rng.integers(-2, 3, size=(n, n))) for _ in range(d)])


def random_float_pairing(rng, d, m):
    return SkewPairing.from_map(
        d, m,
        {pair: tuple(complex(a, b) for a, b in
                     zip(rng.standard_normal(m), rng.standard_normal(m)))
         for pair in pair_list(d)})


def random_float_tuple(rng, n, d):
    return MatrixTuple.from_matrices(
        [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
         for _ in range(d)])


def factorization_residual(alpha, p):
    """Max entrywise deviation between the direct map and the two-step route."""
    direct = mu(alpha, p)
    commutators = chi(alpha)
    worst = 0
    exact = alpha.is_rational() and p.is_rational()
    for r in range(alpha.n):
        for s in range(alpha.n):
            entry = Bivector(alpha.d, tuple(c[r, s] for c in commutators))
            routed = apply(p, entry)
            for k in range(p.dim_w):
                delta = direct[k][r, s] - routed[k]
                worst = max(worst, abs(delta) if not exact else (0 if delta == 0 else 1))
    return worst


def test_criterion_1_factorization_identity():
    with criterion(1, "mu equals the pairing applied to the commutator map"):
        rng = np.random.default_rng(1001)
        for n in (2, 3):
            for d in (2, 3, 4):
                for _ in range(500):
                    p = random_exact_pairing(rng, d, int(rng.integers(1, 4)))
                    alpha = random_exact_tuple(rng, n, d)
                    assert factorization_residual(alpha, p) == 0
                for _ in range(500):
                    p = random_float_pairing(rng, d, int(rng.integers(1, 4)))
                    alpha = random_float_tuple(rng, n, d)
                    scale = tuple_scale(alpha)
                    assert factorization_residual(alpha, p) <= 1e-10 * scale ** 2


def test_criterion_2_forward_construction():
    with criterion(2, "planted kernel elements give mu-zero tuples and round-trip"):
        rng = np.random.default_rng(1002)
        for _ in range(100):
            d = int(rng.integers(3, 8))
            omega, _, _ = random_rank2_bivector(rng, d)
            p = planted_kernel_pairing(rng, d, int(rng.integers(1, 4)), omega)
            alpha = witness_to_tuple(omega, 2)
            assert all(np.all(m == 0) for m in mu(alpha, p))
            assert chi_norm(alpha) > 0
            back = tuple_to_witness(alpha, p)
            assert back is not None
            assert projective_distance(back, omega) <= 1e-8


def test_criterion_3_reverse_direction_gl2():
    with criterion(3, "gl2 trace contractions are rank 2 and land in the kernel"):
        rng = np.random.default_rng(1003)
        for _ in range(200):
            d = int(rng.integers(3, 7))
            omega, _, _ = random_rank2_bivector(rng, d)
            p = planted_kernel_pairing(rng, d, 2, omega)
            alpha = witness_to_tuple(omega, 2)
            # drift along scalar directions: mu and chi are unchanged
            mats = list(alpha.matrices)
            for i in range(d):
                c = Fraction(int(rng.integers(-3, 4)))
                mats[i] = mats[i] + c * exact_matrix(np.eye(2, dtype=int))
            alpha = MatrixTuple(2, d, tuple(mats))
            assert all(np.all(m == 0) for m in mu(alpha, p))
            assert chi_norm(alpha) > 0
            candidates = [exact_matrix([[0, 1], [0, 0]]),
                          exact_matrix([[0, 0], [1, 0]]),
                          exact_matrix([[1, 0], [0, -1]])]
            for _ in range(3):
                h = rng.integers(-3, 4, size=(2, 2))
                h[1, 1] = -h[0, 0]
                candidates.append(exact_matrix(h))
            seen_nonzero = False
            for h in candidates:
                w = trace_contraction(alpha, h)
                if w.is_zero():
                    continue
                seen_nonzero = True
                assert bivector_rank(w, EXACT) == 2
                residual = np.array([complex(x) for x in apply(p, w)])
                norm = np.linalg.norm([complex(x) for x in w.coeffs])
                assert np.linalg.norm(residual) <= 1e-8 * max(1.0, norm)
            assert seen_nonzero


def test_criterion_4_dimension_bound_search():
    with criterion(4, "kernels at the dimension bound yield search witnesses"):
        rng = np.random.default_rng(1004)
        import math
        found = 0
        total = 0
        for d in (4, 5, 6, 7, 8):
            bound = math.comb(d - 2, 2) + 1
            npairs = len(pair_list(d))
            for _ in range(20):
                total += 1
                basis = []
                while len(basis) < bound:
                    cand = Bivector(d, tuple(int(x) for x in
                                             rng.integers(-3, 4, size=npairs)))
                    stacked = np.array([list(b.coeffs) for b in basis + [cand]],
                                       dtype=object)
                    if not cand.is_zero() and rank(stacked, EXACT) == len(basis) + 1:
                        basis.append(cand)
                k = KernelSubspace(d, tuple(basis))
                out = witness_search(k, SearchConfig(seed=int(rng.integers(1 << 30))))
                if out.witness is not None:
                    assert bivector_rank(out.witness, FLOAT) == 2
                    found += 1
                else:
                    # existence is still certified by the dimension bound
                    rows = [list(b.coeffs) for b in basis]
                    comp = np.array(rows, dtype=object)
                    from semirigid.scalars import nullspace as _ns
                    perp = _ns(comp, EXACT)
                    m = len(perp)
                    entries = tuple(tuple(perp[r][idx] for r in range(m))
                                    for idx in range(npairs))
                    p = SkewPairing(d, m, entries)
                    assert kernel(p, EXACT).dim == bound
                    v = decide(p)
                    assert v.status == NOT_SEMI_RIGID
                    assert v.certificate in (CERT_DIMENSION_CRITERION, CERT_EXACT_LOW_DIM)
        assert found >= 95, f"witness search succeeded only {found}/{total} times"


def test_criterion_5_injective_pairings_sample_commuting():
    with criterion(5, "Newton samples of injective pairings are all commuting"):
        pairings = [catalog_build("symplectic-surface", (2,)).pairing,
                    SkewPairing.identity(2),
                    SkewPairing.identity(3),
                    SkewPairing.identity(4)]
        for p in pairings:
            for n in (2, 3):
                out = mu_zero_sampler(p, n, SearchConfig(restarts=64, seed=11))
                assert out.converged >= 32
                for s in out.samples:
                    scale = tuple_scale(s.alpha)
                    assert s.commuting
                    assert s.chi_residual <= 1e-8 * max(1.0, scale)


def test_criterion_6_chevalley_desk_scale():
    with criterion(6, "trace monomials match power sums; separation matches spectra"):
        rng = np.random.default_rng(1006)
        for n in (2, 3):
            for d in (2, 3):
                for _ in range(200):
                    diags = [np.diag(rng.integers(-4, 5, size=n).astype(complex))
                             for _ in range(d)]
                    q = (rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n))
                    qinv = np.linalg.inv(q)
                    alpha = MatrixTuple.from_matrices([q @ dg @ qinv for dg in diags])
                    points = [tuple(dg[j, j] for dg in diags) for j in range(n)]
                    for word, val in trace_monomials(alpha, 4).items():
                        expected = sum(np.prod([pt[i - 1] for i in word])
                                       for pt in points)
                        assert abs(val - expected) <= 1e-8 * max(1.0, abs(expected))
        # separation agrees with multiset equality, including near collisions
        for trial in range(50):
            n, d = 2, 2
            diags = [np.diag(rng.integers(-4, 5, size=n).astype(complex))
                     for _ in range(d)]
            q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) \
                + 3 * np.eye(n)
            qinv = np.linalg.inv(q)
            alpha = MatrixTuple.from_matrices([q @ dg @ qinv for dg in diags])
            conj = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) \
                + 3 * np.eye(n)
            beta = MatrixTuple.from_matrices(
                [conj @ np.asarray(m, complex) @ np.linalg.inv(conj)
                 for m in alpha.matrices])
            assert chevalley_separates(alpha, beta, FLOAT)
            shifted = [dg.copy() for dg in diags]
            shifted[trial % d][0, 0] += 1e-4
            gamma = MatrixTuple.from_matrices([q @ dg @ qinv for dg in shifted])
            assert not chevalley_separates(alpha, gamma, FLOAT)


def test_criterion_7_stable_points_every_n():
    with criterion(7, "stable points at every matrix size and scale"):
        p = SkewPairing.zero(3, 1)
        omega = Bivector.basis_element(3, 0, 1)
        for n in (2, 3, 4, 5):
            flags = []
            for eps in (1, Fraction(1, 1000)):
                alpha = construct_stable_point(p, omega, n, eps)
                assert all(np.all(m == 0) for m in mu(alpha, p))
                out = rep_analysis(alpha, EXACT)
                assert out.commutant_dim == 1
                assert out.algebra_dim == n * n
                flags.append(out)
            assert flags[0] == flags[1]


def test_criterion_8_catalog_anchor_quantities():
    with criterion(8, "catalog verdicts and the split-component dimension"):
        assert decide(catalog_build("symplectic-surface", (2,)).pairing).status == SEMI_RIGID
        v4 = decide(catalog_build("symplectic-surface", (4,)).pairing)
        assert v4.status == NOT_SEMI_RIGID
        assert decide(catalog_build("curve", (1,)).pairing).status == SEMI_RIGID
        assert decide(catalog_build("curve", (2,)).pairing).status == NOT_SEMI_RIGID
        assert split_component_dimension(63, 10) == 630


def test_criterion_9_byte_identical_reports(capsys):
    with criterion(9, "repeated analyze runs are byte-identical"):
        entries = ["catalog:symplectic-surface:2", "catalog:symplectic-surface:4",
                   "catalog:torus:2", "catalog:curve:2", "catalog:identity:3"]
        for spec in entries:
            outputs = set()
            for _ in range(10):
                code = cli_main(["analyze", "--pairing", spec, "--seed", "7"])
                captured = capsys.readouterr()
                assert code == 0
                outputs.add(captured.out)
            assert len(outputs) == 1
            payload = json.loads(outputs.pop())
            assert payload["verdict"]["status"] in (SEMI_RIGID, NOT_SEMI_RIGID)
