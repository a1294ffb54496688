"""Shared helpers for the test suite."""

from fractions import Fraction
from math import comb

import numpy as np

from semirigid.exterior import Bivector, KernelSubspace, SkewPairing, pair_list, wedge
from semirigid.scalars import ScalarMode, exact_matrix, rank

EXACT = ScalarMode.exact()


def projective_distance(w1: Bivector, w2: Bivector) -> float:
    """Sine of the angle between two bivectors seen as projective points."""
    a = np.array([complex(c) for c in w1.coeffs])
    b = np.array([complex(c) for c in w2.coeffs])
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 1.0
    a = a / na
    b = b / nb
    return float(np.linalg.norm(a - np.vdot(b, a) * b))


def random_rank2_bivector(rng, d):
    while True:
        u = [int(x) for x in rng.integers(-3, 4, size=d)]
        v = [int(x) for x in rng.integers(-3, 4, size=d)]
        w = wedge(u, v)
        if not w.is_zero():
            return w, u, v


def planted_search_kernels():
    """60 kernels below the dimension bound at d = 5..10, each spanned by one
    planted u wedge v and random bivectors: 30 complex, then 30 integer.
    Returns (kernel, plant) pairs."""
    rng = np.random.default_rng(60)
    out = []
    for i in range(60):
        d = 5 + i % 6
        q, m = comb(d, 2), int(rng.integers(1, comb(d - 2, 2) + 1))
        if i < 30:
            u, v = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
            plant = Bivector(d, tuple(complex(z) for z in wedge(u, v).coeffs))
            rest = [Bivector(d, tuple(complex(z) for z in
                                      rng.standard_normal(q) + 1j * rng.standard_normal(q)))
                    for _ in range(m - 1)]
        else:
            plant, _, _ = random_rank2_bivector(rng, d)
            rest = [Bivector(d, tuple(int(x) for x in rng.integers(-3, 4, size=q)))
                    for _ in range(m - 1)]
        out.append((KernelSubspace(d, (plant, *rest)), plant))
    return out


def planted_kernel_pairing(rng, d, m, plant: Bivector) -> SkewPairing:
    """Random rational pairing corrected so the planted bivector is in its kernel."""
    npairs = len(pair_list(d))
    w = [Fraction(int(c)) for c in plant.coeffs]
    ww = sum(x * x for x in w)
    rows = []
    for _ in range(m):
        row = [Fraction(int(x)) for x in rng.integers(-3, 4, size=npairs)]
        rw = sum(r * x for r, x in zip(row, w))
        row = [r - rw * x / ww for r, x in zip(row, w)]
        rows.append(row)
    entries = tuple(tuple(rows[k][idx] for k in range(m)) for idx in range(npairs))
    return SkewPairing(d, m, entries)


def random_injective_pairing(rng, d, extra=2) -> SkewPairing:
    """Random rational pairing with zero kernel (full column rank tensor)."""
    npairs = len(pair_list(d))
    m = npairs + extra
    while True:
        mat = rng.integers(-3, 4, size=(m, npairs))
        obj = np.empty((m, npairs), dtype=object)
        for i in range(m):
            for j in range(npairs):
                obj[i, j] = Fraction(int(mat[i, j]))
        if rank(obj, EXACT) == npairs:
            entries = tuple(tuple(obj[k, idx] for k in range(m)) for idx in range(npairs))
            return SkewPairing(d, m, entries)


def unitriangular_pair(rng, n):
    """Random integer P with determinant 1 and its exact inverse."""
    upper = np.eye(n, dtype=int) + np.triu(rng.integers(-2, 3, size=(n, n)), 1)
    lower = np.eye(n, dtype=int) + np.tril(rng.integers(-2, 3, size=(n, n)), -1)

    def inv_uni(m):
        nil = exact_matrix(m) - exact_matrix(np.eye(n, dtype=int))
        out = exact_matrix(np.eye(n, dtype=int))
        term = exact_matrix(np.eye(n, dtype=int))
        for _ in range(n - 1):
            term = -1 * (term @ nil)
            out = out + term
        return out

    p = exact_matrix(lower) @ exact_matrix(upper)
    pinv = inv_uni(upper) @ inv_uni(lower)
    return p, pinv
