"""Shared helpers for the test suite."""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from semirigid import commuting
from semirigid.commuting import MatrixTuple, RepAnalysis, chi, tuple_scale
from semirigid.exterior import Bivector, KernelSubspace, SkewPairing, pair_list, skew, wedge
from semirigid.scalars import (
    ScalarMode,
    cleared,
    eigenvalues,
    identity,
    nullspace,
    rank,
    solve,
    stored,
    zeros,
)
from semirigid.verdict import _ACCEPTANCE, SearchResult

EXACT = ScalarMode.exact()


def frobenius(m) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=complex)))


def exact_matrix(rows) -> np.ndarray:
    """An object array of Fractions with Python-int parts, of rational entries."""
    return np.vectorize(Fraction, otypes=[object])(*stored(rows))


def perfbench_items():
    """The benchmark's ``items`` module, imported from ``perfbench/``."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        import items
    finally:
        sys.path.remove(bench)
    return items


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


def plucker_square_reference(omega: Bivector) -> tuple:
    """Coefficients of omega wedge omega on the 4-fold wedges, one 4-subset at
    a time: twice the Pfaffian of each 4 x 4 principal minor, in
    ``combinations`` order.  The reference for ``exterior.restricted_quadrics``."""
    w = omega.coefficient
    return tuple(
        2 * (w(a, b) * w(c, e) - w(a, c) * w(b, e) + w(a, e) * w(b, c))
        for a, b, c, e in combinations(range(omega.dim_v), 4)
    )


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


# (d, dim K, kind) of planted kernels below the dimension bound in which the
# search finds the plant at seed 0 and the default 64 restarts
PLANTED_BELOW_BOUND = [(6, 3, "rational"), (7, 4, "rational"), (6, 3, "complex")]


def planted_below_bound(rng, d, k, kind):
    """A pairing whose kernel has dimension k, below the dimension bound, and
    is spanned by a planted u wedge v and k - 1 random bivectors; returns the
    pairing and the plant.  The pairing's rows are the nullspace of the
    kernel basis: exact from integer bivectors for "rational", orthonormal
    from complex normal ones for "complex"."""
    q = comb(d, 2)
    if kind == "rational":
        plant, _, _ = random_rank2_bivector(rng, d)
        rows = np.array([list(plant.coeffs)] + [list(map(int, rng.integers(-3, 4, size=q)))
                                                for _ in range(k - 1)], dtype=object)
        return SkewPairing.from_matrix(d, *cleared(np.array(nullspace(rows, EXACT)))), plant
    u, v = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
    plant = wedge(u, v)
    rows = np.vstack([plant.values, rng.standard_normal((k - 1, q))
                      + 1j * rng.standard_normal((k - 1, q))])
    return SkewPairing.from_matrix(d, np.array(nullspace(rows, ScalarMode.floating()))), plant


def wire_scalar(x, kind: str):
    """Reference writing of one wire scalar, one Fraction at a time: "p/q"
    reduced with q > 0 for "rational", else [re, im]."""
    if kind == "rational":
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    z = complex(x)
    return [z.real, z.imag]


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


def symplectic_pair_pairing(s) -> SkewPairing:
    """The complex pairing e0 ^ e1 + e2 ^ e3 on C^4 into C, times s."""
    values = np.zeros((1, 6), dtype=complex)
    values[0, [0, 5]] = s  # the pairs (0, 1) and (2, 3)
    return SkewPairing.from_matrix(4, values)

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


def trace_contraction(alpha: MatrixTuple, h: np.ndarray) -> Bivector:
    """Bivector of traces of the commutators against a fixed matrix: the
    reference for the contractions that ``tuple_to_witness`` reads off the
    commutators."""
    h = MatrixTuple.from_matrices([h])
    if h.n != alpha.n:
        raise ValueError("contraction matrix must be n x n")
    if alpha.is_rational() != h.is_rational():
        alpha, h = alpha.to_float(), h.to_float()
    # the diagonal summed in order: np.trace may round a complex sum otherwise
    return Bivector(alpha.d, tuple(sum((comm @ h.matrices[0]).diagonal()) for comm in chi(alpha)))


# ---------------------------------------------------------------------------
# the exact tuple layer in Fraction arithmetic, one product at a time: the
# references for the cleared integer products in ``commuting``


def fraction_chi(alpha):
    mats = alpha.matrices
    return tuple(mats[i] @ mats[j] - mats[j] @ mats[i] for i, j in pair_list(alpha.d))


def _fraction_inverse(q):
    return solve(q, identity(q.shape[0], EXACT))


def _fraction_common_eigenvector(mats):
    n = mats[0].shape[0]
    s = identity(n, EXACT)
    for a in mats:
        if s.shape[1] == 1:
            break
        m = solve(s, a @ s)
        lam = min(eigenvalues(m, EXACT))
        s = s @ np.column_stack(nullspace(m - lam * identity(len(m), EXACT), EXACT))
    return s[:, 0]


def _fraction_triangularize(mats, rng):
    n = mats[0].shape[0]
    if n <= 1:
        return identity(n, EXACT)
    coeffs = [Fraction(int(c)) for c in rng.integers(-99, 100, size=len(mats))]
    b = sum(c * m for c, m in zip(coeffs, mats))
    groups = sorted(Counter(eigenvalues(b, EXACT)).items())
    if len(groups) > 1:
        q0 = np.column_stack([
            v for lam, count in groups
            for v in nullspace(np.linalg.matrix_power(b - lam * identity(n, EXACT), count),
                               EXACT)])
        sizes = [count for _, count in groups]
    else:
        q0 = commuting._complete_basis(_fraction_common_eigenvector(mats), EXACT)
        sizes = [1, n - 1]
    q0_inv = _fraction_inverse(q0)
    transformed = [q0_inv @ a @ q0 for a in mats]
    offs = np.cumsum([0] + sizes)
    qb = zeros((n, n), EXACT)
    for lo, hi in zip(offs, offs[1:]):
        qb[lo:hi, lo:hi] = _fraction_triangularize([t[lo:hi, lo:hi] for t in transformed], rng)
    return q0 @ qb


def fraction_triangularize(alpha, seed=0):
    """(q, transformed matrices) of ``simultaneous_triangularize`` in rational mode."""
    q = _fraction_triangularize(list(alpha.matrices), np.random.default_rng(seed))
    q_inv = _fraction_inverse(q)
    return q, [q_inv @ a @ q for a in alpha.matrices]


def fraction_rep_analysis(alpha) -> RepAnalysis:
    """``rep_analysis`` in rational mode: the commutant's basis counted, the
    closure of the identity and the generators, tr(b_i b_j) as a matrix product."""
    n, eye = alpha.n, identity(alpha.n, EXACT)
    stack = np.concatenate([np.kron(a, eye) - np.kron(eye, a.T) for a in alpha.matrices])
    commutant_dim = len(nullspace(stack, EXACT))
    span, basis = Echelon(), []
    for m in (eye, *alpha.matrices):
        if span.add(cleared(m.reshape(-1))[0].tolist()):
            basis.append(m)
    frontier = list(basis)
    while frontier and span.rank < n * n:
        new_frontier = []
        for b in frontier:
            for g in alpha.matrices:
                cand = b @ g
                if span.rank < n * n and span.add(cleared(cand.reshape(-1))[0].tolist()):
                    basis.append(cand)
                    new_frontier.append(cand)
        frontier = new_frontier
    gram = exact_matrix([[np.trace(x @ y) for y in basis] for x in basis])
    radical_dim = len(basis) - rank(gram, EXACT)
    algebra_dim = span.rank
    return RepAnalysis(commutant_dim=commutant_dim, algebra_dim=algebra_dim,
                       radical_dim=radical_dim, irreducible=algebra_dim == n * n,
                       semisimple=radical_dim == 0, stable=algebra_dim == n * n)


def incremental_float_rep_analysis(alpha, mode) -> RepAnalysis:
    """``rep_analysis`` in float mode, one candidate at a time: each is kept
    when two Gram-Schmidt passes against the orthonormal rows so far leave
    more than tol_rank times its own norm, and a product b g is skipped when
    it vanishes at |b| |g|."""
    n = alpha.n
    gens, sylvester = commuting._generators(alpha, mode)
    commutant_dim = n * n - rank(sylvester, mode, tuple_scale(alpha))
    rows = []

    def add(m):
        w = np.asarray(m, dtype=complex).reshape(-1)
        orig = np.linalg.norm(w)
        if orig == 0:
            return False
        for row in rows:
            w = w - np.vdot(row, w) * row
        for row in rows:
            w = w - np.vdot(row, w) * row
        norm = np.linalg.norm(w)
        if norm <= mode.tol_rank * orig:
            return False
        rows.append(w / norm)
        return True

    frontier = [m for m in gens if add(m)]
    while frontier and len(rows) < n * n:
        new_frontier = []
        for b in frontier:
            for g in gens[1:]:
                cand = b @ g
                if mode.vanishes([cand], frobenius(b) * frobenius(g)):
                    continue
                if len(rows) < n * n and add(cand):
                    new_frontier.append(cand)
        frontier = new_frontier
    algebra_dim = len(rows)
    radical_dim = commuting._radical_dim(np.array(rows).reshape(-1, n, n), mode)
    return RepAnalysis(commutant_dim=commutant_dim, algebra_dim=algebra_dim,
                       radical_dim=radical_dim, irreducible=algebra_dim == n * n,
                       semisimple=radical_dim == 0, stable=algebra_dim == n * n)


def mixed_fraction_matrix(rng, n):
    """n x n entries p/q with p in [-5, 5] and q in [1, 6]."""
    return exact_matrix([[Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))
                          for _ in range(n)] for _ in range(n)])


# ---------------------------------------------------------------------------
# exact rank, nullspace and solve by incremental Bareiss elimination of the
# cleared rows: the references for the modular engine in ``scalars``


class Echelon:
    """Incremental fraction-free Gauss-Jordan elimination of integer rows.

    The stored rows are the integer matrix ``det * RREF``: each holds ``det``
    at its own pivot and 0 at every other pivot, where ``det`` is the pivot
    minor of the rows taken so far.  Every update divides exactly by the
    previous ``det`` (Bareiss, Math. Comp. 1968), so entries stay minors of
    the input.
    """

    def __init__(self):
        self.rows = []
        self.pivots = []
        self.det = 1

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row) -> bool:
        """Add a row of Python ints; return whether the span grew."""
        det = self.det
        w = [det * x for x in row]
        for r, p in zip(self.rows, self.pivots):
            c = row[p]
            if c:
                w = [x - c * y for x, y in zip(w, r)]
        q = next((j for j, x in enumerate(w) if x), None)
        if q is None:
            return False
        new = w[q]
        self.rows = [[(new * x - r[q] * y) // det for x, y in zip(r, w)] for r in self.rows]
        self.rows.append(w)
        self.pivots.append(q)
        self.det = new
        return True



def echelon_rref(a):
    """Reduced row echelon form of a rational matrix as Fraction rows, and its
    sorted pivot columns."""
    ech = Echelon()
    for row in np.asarray(a, dtype=object):
        ech.add(cleared(row)[0].tolist())
    order = sorted(range(ech.rank), key=ech.pivots.__getitem__)
    return ([[Fraction(x, ech.det) for x in ech.rows[i]] for i in order],
            [ech.pivots[i] for i in order])


def echelon_rank(a) -> int:
    return len(echelon_rref(a)[1]) if np.asarray(a).size else 0


def echelon_nullspace(a) -> list:
    """The nullspace basis read off the RREF, one list per free column."""
    ncols = a.shape[1]
    if a.shape[0] == 0:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    m, pivots = echelon_rref(a)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def echelon_solve(a, b) -> list:
    """Rows of X with a X = b, or ValueError when a is rank deficient or the
    system is inconsistent."""
    k = a.shape[1]
    m, pivots = echelon_rref(np.concatenate([a, b], axis=1))
    if pivots != list(range(k)):
        raise ValueError("linear system has no unique exact solution")
    return [row[k:] for row in m]


# ---------------------------------------------------------------------------
# joint spectra compared by the power sums of all words: the reference for the
# direction power sums of ``commuting.chevalley_separates``


def _word_power_sums(mats):
    """tr(A_1^a_1 ... A_d^a_d), 1 <= |a| <= n, depth first over nondecreasing
    words: one product per word on its prefix, at most n d held at a time."""
    n = mats[0].shape[0]
    stack = [(1, j, m) for j, m in enumerate(mats)]
    while stack:
        degree, j, m = stack.pop()
        yield sum(m.diagonal())
        if degree < n:
            stack += [(degree + 1, k, m @ mats[k]) for k in range(j, len(mats))]


def walk_separates(alpha, beta, mode) -> bool:
    """Whether two commuting tuples have equal joint spectra, by the C(n+d, d) - 1
    power sums p_a, 1 <= |a| <= n, of each (Weyl's polarization theorem).
    Rational mode compares the integers of both tuples cleared with one common
    denominator; float mode divides both by the larger tuple norm and judges
    each difference at tol_residual n."""
    if not mode.is_exact:
        alpha, beta = alpha.to_float(), beta.to_float()
    mats = np.array(alpha.matrices + beta.matrices)
    if mode.is_exact:
        mats, _ = cleared(mats)
    else:
        mats = mats / (max(tuple_scale(alpha), tuple_scale(beta)) or 1.0)
    sums = zip(_word_power_sums(mats[:alpha.d]), _word_power_sums(mats[alpha.d:]))
    return all(mode.vanishes([x - y], alpha.n) for x, y in sums)


# ---------------------------------------------------------------------------
# the witness search one restart at a time, on the plane's 2d coordinates with
# a projected Jacobian and a min-norm ``lstsq`` per step: the reference for
# the stacked tangent-coordinate search of ``verdict.witness_search``


def factor_residual(a3, uv):
    """a(u wedge v) for the frame uv = [u v], and its (r, 2, d) Jacobian.

    ``a3`` is the annihilator of the kernel as an antisymmetric (r, d, d)
    array, so the residual is sum_ij a3[w, i, j] u_i v_j.  It is bilinear in
    (u, v); by antisymmetry the blocks are d/du = a3 v and d/dv = -a3 u.
    """
    du = a3 @ uv[:, 1]
    return du @ uv[:, 0], np.stack([du, -(a3 @ uv[:, 0])], axis=1)


def projected_search(k: KernelSubspace, cfg) -> SearchResult:
    """``witness_search`` with each restart run on its own: Gauss-Newton on
    orthonormal frames [u v], the Jacobian projected off the plane and the
    step the min-norm ``lstsq`` solution in 2d coordinates."""
    if k.dim == 0:
        return SearchResult(None, float("inf"), 0)
    d = k.dim_v
    raw = np.column_stack([np.array([complex(c) for c in b.coeffs]) for b in k.basis])
    m = raw.shape[1]
    floating = ScalarMode.floating()
    ann = np.reshape(nullspace(raw.T, floating), (-1, raw.shape[0]))
    a3 = skew(ann, d)
    best = float("inf")
    for r in range(cfg.restarts):
        rng = np.random.default_rng((cfg.seed, r))
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        uv = np.linalg.svd(skew(raw @ x, d))[0][:, :2]
        for _ in range(cfg.max_iterations):
            res, jac = factor_residual(a3, uv)
            f = float(np.linalg.norm(res) ** 2)
            best = min(best, f)
            if f <= _ACCEPTANCE:
                return SearchResult(wedge(uv[:, 0], uv[:, 1]), f, r + 1)
            scale = np.linalg.norm(jac) * np.linalg.norm(res)
            jac = (jac - (jac @ uv) @ uv.conj().T).reshape(len(res), 2 * d)
            if floating.vanishes([jac.conj().T @ res], scale):
                break
            step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
            if not np.all(np.isfinite(step)):
                break
            uv, _ = np.linalg.qr(uv + step.reshape(2, d).T)
    return SearchResult(None, best, cfg.restarts)


def eigh_min_norm_step(jac, res, full_rank):
    """Min-norm solutions of J z = -res from J^H J = V diag(lam) V^H, an
    eigenvalue at or below (columns) eps lam_max counted as zero, with the
    signature of ``verdict._min_norm_step``: the reference for its damped
    Gram solve on a wide J."""
    jh = np.swapaxes(jac.conj(), 1, 2)
    lam, vec = np.linalg.eigh(jh @ jac)
    coef = np.swapaxes(vec.conj(), 1, 2) @ (jh @ res[..., None])
    kept = (lam > lam.shape[1] * np.finfo(float).eps * lam[:, -1:])[..., None]
    return -(vec @ np.divide(coef, lam[..., None], out=np.zeros_like(coef), where=kept))[..., 0]


def _hessian_layout(w: int):
    """Gather indices and signs for two real forms in the coordinates
    [x; y] of z = x + i y: [[Re A, -Im A], [Im A, Re A]] of A = J^H J, and
    [[Re B, -Im B], [-Im B, -Re B]] of B = [[0, K], [K^T, 0]], the matrix of
    Re(z^T B z).  They index the real view of one row [J^H J, K, 0] (w x w,
    h x h and one complex zero, h = w / 2) and give a (2, 2w, 2w) stack."""
    h = w // 2
    i, j = np.indices((2 * w, 2 * w))
    lower, right, ii, jj = i >= w, j >= w, i % w, j % w
    part = lower != right
    gram = 2 * (ii * w + jj) + part
    # B[ii, jj] is K[ii, jj - h] above the diagonal blocks, K[jj, ii - h]
    # below them, and zero in them
    upper = (ii < h) & (jj >= h)
    below = (jj < h) & (ii >= h)
    zero = 2 * (w * w + h * h)
    quad = np.where(upper, 2 * (w * w + ii * h + jj - h) + part,
                    np.where(below, 2 * (w * w + jj * h + ii - h) + part, zero))
    sign = np.stack([np.where(right & ~lower, -1.0, 1.0), np.where(right | lower, -1.0, 1.0)])
    return np.stack([gram, quad]), sign


def gathered_newton_system(a3, g, jac, res, grad):
    """``verdict._newton_system`` by gathering G and H from the real view of
    one row [J^H J, K, 0] per frame with :func:`_hessian_layout`: the
    reference for its block construction."""
    n, d, _ = g.shape
    w = jac.shape[2]
    perp = g[:, :, 2:]
    k = np.swapaxes(perp, 1, 2) @ (res.conj()[:, None] @ a3).reshape(n, d, d) @ perp
    row = np.concatenate([(np.swapaxes(jac.conj(), 1, 2) @ jac).reshape(n, -1),
                          k.reshape(n, -1), np.zeros((n, 1))], axis=1)
    layout, sign = _hessian_layout(w)
    parts = np.take(row.view(float), layout, axis=1) * sign
    gram, hess = parts[:, 0], parts[:, 0] + parts[:, 1]
    hess.reshape(n, -1)[:, ::2 * w + 1] -= np.vecdot(res, res).real[:, None]
    return gram, hess, np.concatenate([grad.real, grad.imag], axis=1)
