"""Matrix-tuple layer: commutator maps, spectra, and representation analysis.

A tuple of d square matrices encodes an element of V tensor gl_n.  This
module provides the commutator map and its pairing-contracted quadratic
companion, simultaneous triangularization of commuting tuples with joint
spectra, trace-monomial invariants, regular sl2 triples, and
representation-theoretic analysis (commutant, generated algebra, radical,
irreducibility, stability).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, product, repeat

import numpy as np

from .exterior import SkewPairing, pair_list, skew
from .scalars import (
    PreconditionError,
    ScalarMode,
    cleared,
    eigenvalues,
    identity,
    rank,
    resolve_mode,
    solve,
    stored,
    to_float,
    zeros,
)
from .scalars import _at_unit_size, _full_rank_mod_p, _kernel_basis, _rref, _svd_rank


class NotCommutingError(PreconditionError):
    """An operation requiring a pairwise-commuting tuple received one that is not."""


@dataclass(frozen=True, init=False, eq=False)
class MatrixTuple:
    """d square matrices of size n, held once as a read-only (d, n, n) stack
    values / den: Python ints with den > 0 and gcd(den, values) = 1, or
    complex128 with den = 1, as :func:`scalars.stored` builds them from the
    stacked matrices; ``matrices`` reads them back, in Fractions."""

    n: int
    d: int
    values: np.ndarray
    den: int

    def __init__(self, n: int, d: int, matrices):
        arrays = [m if isinstance(m, np.ndarray) else np.array(m, dtype=object) for m in matrices]
        if not arrays or len(arrays) != d or any(m.shape != (n, n) for m in arrays):
            raise ValueError("need d >= 1 matrices, each n x n")
        self._hold(*stored(np.array(arrays)))

    def _hold(self, values: np.ndarray, den: int = 1) -> "MatrixTuple":
        values.flags.writeable = False
        d, n, _ = values.shape
        for name, x in ("n", n), ("d", d), ("values", values), ("den", den):
            object.__setattr__(self, name, x)
        return self

    @classmethod
    def _from_stack(cls, values: np.ndarray, den: int = 1) -> "MatrixTuple":
        """The tuple of a stack already in the stored form, made read-only."""
        return cls.__new__(cls)._hold(values, den)

    @classmethod
    def from_matrices(cls, mats) -> "MatrixTuple":
        mats = list(mats)
        return cls(len(mats[0]) if mats else 0, len(mats), mats)

    @property
    def matrices(self) -> tuple:
        return tuple(self.values * Fraction(1, self.den) if self.is_rational() else self.values)

    def is_rational(self) -> bool:
        return self.values.dtype == object

    def to_float(self) -> "MatrixTuple":
        """Each value of values / den rounded once, even with integers beyond the float range."""
        return MatrixTuple._from_stack(to_float(self.values, self.den))

    def scaled(self, factor) -> "MatrixTuple":
        return MatrixTuple.from_matrices(np.array(self.matrices) * factor)


def _commutators(a: np.ndarray) -> np.ndarray:
    """[A_i, A_j], i < j, of each tuple of a (..., d, n, n) stack, on axis -3."""
    i, j = np.array(pair_list(a.shape[-3]), dtype=int).reshape(-1, 2).T
    return a[..., i, :, :] @ a[..., j, :, :] - a[..., j, :, :] @ a[..., i, :, :]


def _norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last axis, summed as ``np.linalg.norm`` sums a
    flat complex array, Re . Re + Im . Im, so that they equal its values."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _unit_tuple(alpha: MatrixTuple):
    """A float tuple at unit size and its e; a rational one as it is, with e = 0."""
    unit, e = (alpha.values, 0) if alpha.is_rational() else _at_unit_size(alpha.values, 3)
    return MatrixTuple._from_stack(unit, alpha.den), e


def _float_commuting(a: np.ndarray):
    """The float commuting test of each tuple of a complex (..., d, n, n)
    stack, every commutator's norm negligible at the squared tuple scale, with
    the chi norm and the tuple scale: the largest norm of a commutator and of
    a matrix.  Judged at unit size, where no norm leaves the float range."""
    unit, e = _at_unit_size(a, 3)
    chis, scales = (_norms(x.reshape(*x.shape[:-2], a.shape[-1] ** 2)).max(axis=-1, initial=0.0)
                    for x in (_commutators(unit), unit))
    with np.errstate(over="ignore"):  # a norm scaled back beyond the float range is inf
        return (ScalarMode.floating().negligible(chis, scales ** 2),
                np.ldexp(chis, 2 * e), np.ldexp(scales, e))


def tuple_scale(alpha: MatrixTuple) -> float:
    return float(_float_commuting(alpha.to_float().values)[2])


def chi(alpha: MatrixTuple) -> tuple:
    """Pairwise commutators, one matrix per basis bivector (i < j)."""
    # a rational tuple A = A' / f: [A_i, A_j] = [A'_i, A'_j] / f^2, one division
    c = _commutators(alpha.values)
    return tuple(c * Fraction(1, alpha.den ** 2) if alpha.is_rational() else c)


def chi_norm(alpha: MatrixTuple) -> float:
    return float(_float_commuting(alpha.to_float().values)[1])


def is_commuting(alpha: MatrixTuple, mode: ScalarMode) -> bool:
    if resolve_mode(mode, alpha).is_exact:
        # the cleared integer commutators [A'_i, A'_j] = f^2 [A_i, A_j] against 0
        return not _commutators(alpha.values).any()
    return bool(_float_commuting(alpha.to_float().values)[0])


def _require_commuting(alpha: MatrixTuple, mode: ScalarMode):
    if not is_commuting(alpha, mode):
        raise NotCommutingError("tuple is not pairwise commuting within tolerance")


def _mu_kernel(c: np.ndarray, a: np.ndarray):
    """mu of a tuple stacked as a (d, n, n) array, with its partial sums; a
    (..., d, n, n) stack of tuples gives one of each per tuple.

    ``c`` is the pairing as an antisymmetric (dim_w, d, d) array, C[k, i, j]
    the k-th W-coordinate of e_i wedge e_j, in the dtype of ``a``.  Returns
    mu, with mu_k = sum_ij C[k,i,j] A_i A_j, and S, with
    S_kb = sum_i C[k,i,b] A_i, so that mu_k = sum_b S_kb A_b and the
    derivative of mu_k along A_b is V -> S_kb V - V S_kb.
    """
    s = np.einsum('kib,...inm->...kbnm', c, a)
    return np.einsum('...kbnm,...bml->...knl', s, a), s


def _mu_jacobian(s: np.ndarray) -> np.ndarray:
    """Jacobian of the row-major flattened mu in the flattened tuple: block
    (k, b) is S_kb (x) I - I (x) S_kb^T.  A (..., m, d, n, n) stack of S, as
    :func:`_mu_kernel` returns it, gives one Jacobian per tuple, written into
    one array with no temporary of its size."""
    *lead, m, d, n, _ = s.shape
    # jac[..., k, p, q, b, r, t] = S_kb[p, r] delta_qt - delta_pr S_kb[t, q]
    jac = np.zeros((*lead, m, n, n, d, n, n), dtype=s.dtype)
    for q in range(n):
        jac[..., q, :, :, q] += np.swapaxes(s, -3, -2)
        jac[..., q, :, :, q, :] -= np.moveaxis(s, -1, -3)
    return jac.reshape(*lead, m * n * n, d * n * n)


def mu(alpha: MatrixTuple, p: SkewPairing) -> tuple:
    """Pairing-contracted commutators: one matrix per basis vector of W."""
    if alpha.d != p.dim_v:
        raise ValueError("tuple length does not match pairing dimension")
    if resolve_mode(None, alpha, p).is_exact:
        # integer arithmetic, one division: C = C' / e and A = A' / f give
        # mu = mu(C', A') / (e f^2)
        c, e, f = p.values, p.den, alpha.den
        return tuple(_mu_kernel(skew(c, alpha.d), alpha.values)[0] * Fraction(1, e * f * f))
    return tuple(_mu_kernel(skew(to_float(p.values, p.den), alpha.d), alpha.to_float().values)[0])


# ---------------------------------------------------------------------------
# simultaneous triangularization and joint spectra

def _in_regime(alpha: MatrixTuple, mode: ScalarMode | None):
    """The resolved mode, and the tuple converted to float for a float mode."""
    mode = resolve_mode(mode, alpha)
    return (alpha if mode.is_exact else alpha.to_float()), mode


def _product(*factors) -> tuple[np.ndarray, int]:
    """Matrix product, broadcast over a (d, n, n) stack among the factors, as
    (values, den) in the stored form of :class:`MatrixTuple`: rational
    factors are cleared, multiplied in integers and reduced once."""
    if factors[0].dtype != object:
        return reduce(np.matmul, factors), 1
    ints, dens = zip(*map(cleared, factors))
    prod, den = reduce(np.matmul, ints), math.prod(dens)
    g = math.gcd(den, *prod.flat)
    return prod // g, den // g


def _common_eigenvector(mats: np.ndarray, mode: ScalarMode, scale) -> np.ndarray:
    """A common eigenvector of a commuting (d, n, n) stack: s spans the common
    eigenspace so far of each matrix's least eigenvalue (first in float
    order).  On integers, s is a product of RREF kernel bases, so s[rows] is
    a positive multiple of I and (a s)[rows] that of a's restriction.  In
    floats s is orthonormal, m - lam I is ranked at ``scale``, the tuple's
    2-norm (at m's own norm a near-scalar m is all rounding), and lam is an
    eigenvalue of m + E, |E| ~ eps |m|, so none is empty.  Nothing is drawn."""
    n = mats.shape[-1]
    s, rows = (np.eye(n, dtype=object) if mode.is_exact else identity(n, mode)), list(range(n))
    for a in mats:
        if s.shape[1] == 1:
            break
        if mode.is_exact:
            m = (a @ s)[rows]
            lam = min(eigenvalues(m, mode))
            basis, free, _ = _kernel_basis(
                lam.denominator * m - lam.numerator * np.eye(len(m), dtype=object))
            s, rows = s @ basis, [rows[j] for j in free]
            continue
        m = s.conj().T @ a @ s
        lam = min(eigenvalues(m, mode), key=lambda z: (z.real, z.imag))
        _, sv, vh = np.linalg.svd(m - lam * identity(len(m), mode))
        s = s @ vh[_svd_rank(sv, mode, scale):].conj().T
    v = s[:, 0]
    return v * Fraction(1, v[rows[0]]) if mode.is_exact else v


def _complete_basis(v: np.ndarray, mode: ScalarMode) -> np.ndarray:
    """[v, e_R], R all indices but v's first nonzero entry (its largest in
    float mode, where the basis is made unitary): invertible, first column v."""
    n = v.shape[0]
    if mode.is_exact:
        pivot = next(i for i in range(n) if v[i] != 0)
    else:
        pivot = int(np.argmax(np.abs(np.asarray(v, dtype=complex))))
    m = np.column_stack([v, identity(n, mode)[:, [k for k in range(n) if k != pivot]]])
    return m if mode.is_exact else np.linalg.qr(m)[0]


def _exact_blocks(mats: np.ndarray, b: np.ndarray, groups, scale: int, mode: ScalarMode):
    """q0 of a rational level of :func:`_triangularize`, and its scaled blocks."""
    n = b.shape[0]
    if len(groups) > 1:
        # A' S' = S' M on ker (r B' - p)^k for the group p / r: (A' S')[F] = den M
        kernels = [_kernel_basis(reduce(np.matmul, repeat(
            lam.denominator * b - lam.numerator * np.eye(n, dtype=object), count)))
            for lam, count in groups]
        q0 = np.hstack([s * Fraction(1, den) for s, _, den in kernels])
        return q0, [((mats @ s)[:, free], scale * den) for s, free, den in kernels]
    v = _common_eigenvector(mats, mode, scale)
    w = cleared(v)[0]
    p = next(i for i, x in enumerate(w) if x)
    w, rest = (w if w[p] > 0 else -w), [i for i in range(n) if i != p]
    # q0 = [v, e_R]: q0^-1 A q0 = [[lam, A[p, R] / v_p], [0, A[R, R] - v_R A[p, R] / v_p]]
    block = w[p] * mats[:, rest][:, :, rest] - w[rest, None] * mats[:, None, p, rest]
    return _complete_basis(v, mode), [
        ((mats @ w)[:, p, None, None], scale * w[p]), (block, scale * w[p])]


def _triangularize(mats: np.ndarray, scale, mode: ScalarMode, rng):
    """The diagonal of a triangular form q^-1 A q of the commuting (d, n, n)
    stack A, read off the 1 x 1 leaves top to bottom, and a function building q.

    Float mode: A = ``mats``, ``scale`` the tuple's 2-norm at every level, and
    each level deflates by the common eigenvector v of :func:`_common_eigenvector`
    and recurses on the diagonal blocks of q0^H A q0, q0 = unitary [v, ...].
    Rational mode: A = ``mats`` / ``scale``, the denominator; ``rng`` seeds
    one combination B per level, whose eigenvalue groups split the level,
    or, with one group, it deflates by v.  It runs on the integers
    A' = scale A and inverts nothing: for the group p / r and S' the kernel
    basis of (r B' - p)^k, S'[F] = den I, the block is (A' S')[F]; v
    cleared, v_p > 0 its first nonzero entry and R the rest, gives the point
    (A' v)_p / v_p and the block v_p A'[R, R] - v_R (x) A'[p, R].  These are
    positive multiples of the blocks of q0^-1 A q0, so the groups, draws and
    q are the conjugations' own.  Each of the at most n levels adds one
    denominator to the entries: the time is polynomial in the bit size.
    """
    d, n, _ = mats.shape
    if n == 1:
        point = [Fraction(x, scale) for x in mats[:, 0, 0]] if mode.is_exact else mats[:, 0, 0]
        return [tuple(point)], lambda: identity(1, mode)
    if mode.is_exact:
        b = sum(int(c) * m for c, m in zip(rng.integers(-99, 100, size=d), mats))
        # an irrational spectrum here stands: a rational triangular form would
        # give every rational combination a rational spectrum
        groups = sorted(Counter(eigenvalues(b, mode)).items())
        q0, blocks = _exact_blocks(mats, b, groups, scale, mode)
    else:
        q0 = _complete_basis(_common_eigenvector(mats, mode, scale), mode)
        t = q0.conj().T @ mats @ q0
        blocks = [(t[:, :1, :1], scale), (t[:, 1:, 1:], scale)]
    children = [_triangularize(block, s, mode, rng) for block, s in blocks]

    def basis():
        qb, lo = zeros((n, n), mode), 0
        for q in (child() for _, child in children):
            qb[lo:lo + len(q), lo:lo + len(q)] = q
            lo += len(q)
        q, den = _product(q0, qb)
        return q * Fraction(1, den) if mode.is_exact else q
    return [p for points, _ in children for p in points], basis


def _leaves(alpha: MatrixTuple, mode: ScalarMode, seed: int):
    """:func:`_triangularize` on a commuting tuple already in its regime."""
    _require_commuting(alpha, mode)
    # float: the largest singular value in the tuple, which bounds every
    # restriction and, unlike the Frobenius norm of large entries, is finite
    scale = alpha.den if mode.is_exact else np.linalg.norm(alpha.values, 2, (1, 2)).max()
    return _triangularize(alpha.values, scale, mode, np.random.default_rng(seed))


def simultaneous_triangularize(alpha: MatrixTuple, mode: ScalarMode | None = None,
                               seed: int = 0):
    """Common triangularizing basis change for a commuting tuple.

    Returns (q, transformed) with every transformed matrix upper triangular
    (within tolerance in float mode); q is unitary in float mode.  q is built
    from the per-level bases of :func:`_triangularize`, and the tuple is
    conjugated once, by q and its one inverse.  ``seed`` matters only in
    rational mode, where a combination whose spectrum does not split over Q
    raises IrrationalSpectrumError.
    """
    alpha, mode = _in_regime(alpha, mode)
    q = _leaves(alpha, mode, seed)[1]()
    # the tuple's 1 / den folded into q^-1, so that its values go in as they are
    q_inv = (solve(q, identity(alpha.n, mode) * Fraction(1, alpha.den)) if mode.is_exact
             else q.conj().T)
    return q, MatrixTuple._from_stack(*_product(q_inv, alpha.values, q))


@dataclass(frozen=True, eq=False)
class JointSpectrum:
    """Multiset of n joint eigenvalue vectors in C^d."""

    points: tuple

    @property
    def n(self) -> int:
        return len(self.points)

    def is_rational(self) -> bool:
        return stored(self.points)[0].dtype == object


def joint_spectrum(alpha: MatrixTuple, mode: ScalarMode | None = None) -> JointSpectrum:
    """The diagonal of :func:`simultaneous_triangularize` at seed 0, as a
    multiset of d-vectors, read off the 1 x 1 leaves of the recursion: no
    basis, inverse or conjugation is formed."""
    return JointSpectrum(tuple(_leaves(*_in_regime(alpha, mode), 0)[0]))


def _min_rotation(word: tuple) -> tuple:
    return min(tuple(word[k:] + word[:k]) for k in range(len(word)))


def trace_monomials(alpha: MatrixTuple, max_degree: int) -> dict:
    """Traces of products over words (1-based indices) up to cyclic rotation."""
    if max_degree < 1:
        raise ValueError("need max_degree >= 1")
    # a rational tuple A = A' / f: each trace in integers, divided by f^degree
    mats, f = alpha.values, alpha.den if alpha.is_rational() else None
    out = {}
    for degree in range(1, max_degree + 1):
        for word in product(range(1, alpha.d + 1), repeat=degree):
            if word != _min_rotation(word):
                continue
            t = sum(reduce(np.matmul, (mats[idx - 1] for idx in word)).diagonal())
            out[word] = t if f is None else Fraction(t, f ** degree)
    return out


def chevalley_separates(alpha: MatrixTuple, beta: MatrixTuple,
                        mode: ScalarMode | None = None) -> bool:
    """Whether two commuting tuples have equal joint spectra as multisets.

    B_t = sum_i t_i A_i has the eigenvalues <t, x> over the joint spectrum,
    and tr(B_t^j), j = 1..n, fix them; no eigenvalue is computed.  The k =
    (d-1)(2n-1) + 1 directions t = (1, s, ..., s^(d-1)), s distinct, decide:
    unequal spectra differ by a nonzero signed measure on at most 2n points,
    and as any d directions are independent, a point q != p shares p's fibre
    in at most d-1 of them, so some direction separates p (Renyi 1952,
    Heppes 1956).  Rational mode takes s = 0..k-1 on both tuples cleared with
    one common denominator and compares integers, exact for irrational
    spectra too.  Float mode takes the k-th roots of unity, divides both
    tuples by d times the larger tuple norm, so that |B_t| <= 1, and judges
    each difference at tol_residual n; a cluster of m joint eigenvalues is
    resolved to about tol_residual^(1/m) times that scale.
    """
    if (alpha.n, alpha.d) != (beta.n, beta.d):
        raise ValueError("tuples must share matrix size and length")
    mode = resolve_mode(mode, alpha, beta)
    if not mode.is_exact:
        alpha, beta = alpha.to_float(), beta.to_float()
    _require_commuting(alpha, mode)
    _require_commuting(beta, mode)
    n, d = alpha.n, alpha.d
    k = (d - 1) * (2 * n - 1) + 1
    if mode.is_exact:
        # A = A' / f and B = B' / g on the one denominator f g
        mats = np.array([alpha.values * beta.den, beta.values * alpha.den])
        s = np.arange(k, dtype=object)
    else:
        mats = (np.array([alpha.values, beta.values])
                / (d * max(tuple_scale(alpha), tuple_scale(beta)) or 1.0))
        s = np.exp(2j * np.pi * np.arange(k) / k)
    b = np.tensordot(np.vander(s, d, increasing=True), mats, (1, 1))  # (k, 2, n, n)
    powers = accumulate(repeat(b, n), np.matmul)  # B_t^j, j = 1..n
    sums = np.array([np.trace(p, axis1=2, axis2=3) for p in powers])
    return mode.vanishes(np.ravel(sums[..., 0] - sums[..., 1]), n)


# ---------------------------------------------------------------------------
# sl2 triples


@dataclass(frozen=True, eq=False)
class Sl2Triple:
    x: np.ndarray
    y: np.ndarray
    h: np.ndarray


def regular_sl2_triple(n: int) -> Sl2Triple:
    """The sl2 triple through the regular nilpotent single Jordan block.

    x has superdiagonal ones, h = diag(n-1, n-3, ..., 1-n), and the
    subdiagonal of y is k(n-k); the triple relations hold exactly and the
    action on C^n is irreducible.  The matrices hold Python ints.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k = np.arange(1, n)
    x, y = np.diag(np.ones_like(k), 1), np.diag(k * (n - k), -1)
    h = np.diag(np.arange(n - 1, -n, -2))
    return Sl2Triple(x.astype(object), y.astype(object), h.astype(object))


# ---------------------------------------------------------------------------
# representation analysis


@dataclass(frozen=True)
class RepAnalysis:
    commutant_dim: int
    algebra_dim: int
    radical_dim: int
    irreducible: bool
    semisimple: bool
    stable: bool


def _generators(alpha: MatrixTuple, mode: ScalarMode):
    """(I, A_1, ..., A_d) as one (d + 1, n, n) array, and the maps
    X -> A X - X A on row-major vec(X) stacked over the tuple, whose common
    nullspace is the commutant (conditioned by the eigenvalue gaps).  Rational
    mode takes them times the denominator f, which scales a product of k of
    them by f^k and so changes no span, nullspace or rank taken from them."""
    eye = np.eye(alpha.n, dtype=alpha.values.dtype) * alpha.den
    gens = np.concatenate([eye[None], alpha.values])
    return gens, np.concatenate([np.kron(a, eye) - np.kron(eye, a.T) for a in gens[1:]])


def _radical_dim(basis: np.ndarray, mode: ScalarMode) -> int:
    """Dimension of the kernel of the trace form (x, y) -> tr(xy) on the span
    of a (k, n, n) basis; the radical of the algebra it spans (characteristic
    zero).  tr(x y) is the sum of the entries of x * y^T."""
    k = len(basis)
    return k - rank(basis.reshape(k, -1) @ basis.transpose(0, 2, 1).reshape(k, -1).T, mode)


def _algebra_basis(gens: np.ndarray, mode: ScalarMode) -> list | None:
    """A basis of the algebra that gens = (I, A_1, ..., A_d) generate, or
    None when it is all of M_n.

    Each round keeps, in order, the candidates new to the span: first the
    generators, then the products b A_k of the elements b the last round
    kept.  Rational mode reads them off the pivots of one
    :func:`scalars._rref`, after one full-rank pass mod p on a stack of n^2
    or more vectors.  Float mode keeps a candidate that two Gram-Schmidt
    passes leave above tol_rank times its own norm, and returns the
    orthonormal basis: the products grow like powers of the tuple's scale,
    and would make the trace form's rank scale-bound.
    """
    n2 = gens[0].size
    span, cands = [], list(gens)
    while len(span) < n2:
        if mode.is_exact:
            stack = np.array(span + cands).reshape(-1, n2)
            if len(stack) >= n2 and _full_rank_mod_p(stack):
                return None
            # the span is independent, so it takes the first pivots
            new = [cands[j - len(span)] for j in _rref(stack.T)[0][len(span):]]
            span += new
        else:
            new = []
            for c in cands:
                w = c.reshape(-1)
                orig = np.linalg.norm(w)
                for row in span + span:  # twice, for stability
                    w = w - np.vdot(row, w) * row
                norm = np.linalg.norm(w)
                if orig and norm > mode.tol_rank * orig:
                    span.append(w / norm)
                    new.append(c)
                    if len(span) == n2:
                        break
        if not new:
            return span
        products = ((b @ g, b, g) for b in new for g in gens[1:])
        # float products are formed as the span takes them, so none is formed
        # past n^2; one that vanishes exactly is rounding noise of the size
        # |b| |g|, which is no new direction at its own norm
        cands = ([c for c, _, _ in products] if mode.is_exact else
                 (c for c, b, g in products
                  if not mode.vanishes([c], np.linalg.norm(b) * np.linalg.norm(g))))
    return None


def rep_analysis(alpha: MatrixTuple, mode: ScalarMode | None = None) -> RepAnalysis:
    """Commutant, generated algebra, radical, and the derived stability flags.

    The commutant is the nullspace of the stacked Sylvester operators; the
    algebra is the multiplicative closure of identity and generators, capped
    at n^2; the radical is the kernel of the trace form on the algebra.
    Irreducibility is algebra_dim == n^2 and stability (closed orbit with
    scalar stabilizer) coincides with it.
    """
    # integer outputs: a float tuple is judged at unit size, where no product leaves the float range
    alpha, mode = _in_regime(alpha, mode)
    alpha = _unit_tuple(alpha)[0]
    n = alpha.n
    gens, sylvester = _generators(alpha, mode)
    # rational values may lie outside the float range: no scale is taken
    commutant_dim = n * n - rank(sylvester, mode, None if mode.is_exact else tuple_scale(alpha))

    basis = _algebra_basis(gens, mode)
    algebra_dim = n * n if basis is None else len(basis)
    # M_n is simple, so its radical is 0
    radical_dim = 0 if basis is None else _radical_dim(np.array(basis).reshape(-1, n, n), mode)
    irreducible = algebra_dim == n * n
    return RepAnalysis(
        commutant_dim=commutant_dim,
        algebra_dim=algebra_dim,
        radical_dim=radical_dim,
        irreducible=irreducible,
        semisimple=radical_dim == 0,
        stable=irreducible,
    )
