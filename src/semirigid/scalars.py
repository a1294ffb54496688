"""Scalar and matrix layer with two arithmetic regimes.

All linear algebra in this package runs in one of two modes: exact rational
(Python ``Fraction`` entries, tolerance-free) or complex floating point with
an explicit tolerance policy.  The two regimes are never mixed inside a single
computation; the only supported conversion is rational -> float.
:func:`stored` is the one rule for which input is rational, and
:func:`resolve_mode` the one that picks the regime for given objects.

Matrices are plain numpy arrays: ``dtype=object`` holding ``Fraction``/``int``
entries in rational mode, ``dtype=complex`` in float mode.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

RATIONAL = "rational"
COMPLEX = "complex"

# the one float tolerance
DEFAULT_TOL = 1e-8


class PreconditionError(Exception):
    """An operation was invoked on input violating its mathematical precondition."""


class IrrationalSpectrumError(PreconditionError):
    """Exact eigenvalues requested but the characteristic polynomial does not split over Q."""


@dataclass(frozen=True)
class ScalarMode:
    """Arithmetic regime; float decisions read the one tolerance ``DEFAULT_TOL``.

    ``tol_rank`` is relative to the largest singular value; ``tol_residual``
    bounds accepted residuals relative to the natural scale of the input.
    Both are class attributes, not fields, and rational mode reads neither.
    """

    kind: str
    tol_rank = tol_residual = DEFAULT_TOL

    def __post_init__(self):
        if self.kind not in (RATIONAL, COMPLEX):
            raise ValueError(f"unknown scalar mode {self.kind!r}")

    @classmethod
    def exact(cls) -> "ScalarMode":
        return cls(RATIONAL)

    @classmethod
    def floating(cls) -> "ScalarMode":
        return cls(COMPLEX)

    @property
    def is_exact(self) -> bool:
        return self.kind == RATIONAL

    def vanishes(self, arrays, scale=1.0) -> bool:
        """Whether every array is zero: entry by entry in rational mode, else
        each Frobenius norm is at most ``tol_residual * scale``; a callable
        scale is only called here, as a rational one may overflow a float."""
        if self.is_exact:
            return all(np.all(np.asarray(a) == 0) for a in arrays)
        scale = scale() if callable(scale) else scale
        return all(self.negligible(np.linalg.norm(to_float(np.asarray(a))), scale)
                   for a in arrays)

    def negligible(self, norms, scale=1.0):
        """The float test of :meth:`vanishes` on norms already taken, entry by
        entry: each norm at most ``tol_residual * scale``."""
        return norms <= self.tol_residual * scale


def resolve_mode(mode: ScalarMode | None, *data) -> ScalarMode:
    """The regime for the given pairings, tuples or bivectors.

    ``None`` picks exact when every input is rational and float otherwise; a
    float request is returned as it is, and an exact request on non-rational
    input is refused rather than coerced.
    """
    rational = all(x.is_rational() for x in data)
    if mode is None:
        return ScalarMode.exact() if rational else ScalarMode.floating()
    if mode.is_exact and not rational:
        raise ValueError("rational mode requires rational input")
    return mode


# the types of a rational entry, checked as a set before the per-entry test
_RATIONAL_TYPES = {int, bool, Fraction}


def stored(a) -> tuple[np.ndarray, int]:
    """The stored form values / den of an array-like, a new array: the one
    rule for which input is rational.  Rational when every entry is a
    ``numbers.Rational`` (a Python or numpy integer, a bool, a Fraction), or
    ``a`` is an integer array: Python ints and den as :func:`cleared` gives
    them.  Otherwise complex128 with den 1, each rational value rounded once
    by :func:`to_float`, so that one beyond the float range is refused."""
    if isinstance(a, np.ndarray) and a.dtype != object:
        if a.dtype.kind in "iu":
            return a.astype(object), 1
        return np.array(a, dtype=complex), 1
    a = np.array(a, dtype=object)
    flat = a.ravel().tolist()
    if set(map(type, flat)) <= _RATIONAL_TYPES or all(isinstance(x, Rational) for x in flat):
        return cleared(a)
    return to_float(a), 1


def to_float(a: np.ndarray, den: int = 1) -> np.ndarray:
    """Explicit (lossy) rational -> complex float conversion of a / den, the
    only one: each value rounded once, as ``complex(Fraction)`` rounds it (an
    int / int division is correctly rounded); one beyond the float range is
    refused."""
    if a.dtype == object:
        try:
            out = np.array([complex(x) for x in (a if den == 1 else a / den).reshape(-1)],
                           dtype=complex)
        except OverflowError:
            raise PreconditionError("a rational value is outside the float range") from None
        return out.reshape(a.shape)
    return np.asarray(a, dtype=complex)


def _at_unit_size(a: np.ndarray, k: int):
    """A complex array over 2^e, exactly, and e: one e per leading index, the power
    of two at the largest real or imaginary part in its last k axes."""
    e = np.frexp(np.maximum(abs(a.real), abs(a.imag)).max(axis=tuple(range(-k, 0)), initial=0))[1]
    unit = np.empty_like(a)
    unit.real, unit.imag = (np.ldexp(x, -e.reshape(e.shape + (1,) * k)) for x in (a.real, a.imag))
    return unit, e


def zeros(shape, mode: ScalarMode) -> np.ndarray:
    if mode.is_exact:
        a = np.empty(shape, dtype=object)
        a[...] = Fraction(0)
        return a
    return np.zeros(shape, dtype=complex)


def identity(n: int, mode: ScalarMode) -> np.ndarray:
    a = zeros((n, n), mode)
    one = Fraction(1) if mode.is_exact else 1.0 + 0j
    for i in range(n):
        a[i, i] = one
    return a


def cleared(a) -> tuple[np.ndarray, int]:
    """Rational entries with their denominators cleared: an object array of
    Python ints and the lcm ``den`` of the denominators, so that a == ints / den
    and gcd(den, ints) = 1.  An array of Python ints is returned as it is,
    with den 1; callers only read the result."""
    a = np.asarray(a, dtype=object)
    flat = a.ravel().tolist()
    if set(map(type, flat)) <= {int}:
        return a, 1
    den = math.lcm(*(x.denominator for x in flat))
    ints = np.empty(a.shape, dtype=object)
    ints.flat[:] = [int(x.numerator) * (den // int(x.denominator)) for x in flat]
    return ints, den


# ---------------------------------------------------------------------------
# exact elimination


@functools.cache
def _prime(i: int) -> int:
    """The i-th prime below 2^31, counting down: 2^31 - 1, 2^31 - 19, ..."""
    n = 1 << 31 if i == 0 else _prime(i - 1)
    while True:
        n -= 1
        if n % 2 and all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            return n


def _gauss_jordan_mod(a: np.ndarray, p: int, width: int):
    """Gauss-Jordan elimination, in place, of an int64 matrix of residues mod
    p, with pivots taken in its first ``width`` columns.  Returns the reduced
    matrix, whose k-th row holds the k-th pivot, the pivot columns and the
    rows of ``a``, in pivot order, that are independent mod p.  A product of
    two residues is below 2^62, so each update is exact in int64.
    """
    rows, pivots = list(range(len(a))), []
    for j in range(width):
        r = len(pivots)
        if r == len(a):
            break
        if not a[r, j]:
            nonzero = a[r:, j].nonzero()[0]
            if not nonzero.size:
                continue
            i = r + int(nonzero[0])
            a[r], a[i] = a[i], a[r].copy()
            rows[r], rows[i] = rows[i], rows[r]
        inverse = pow(int(a[r, j]), -1, p)
        # one update scales row r by the inverse and clears column j elsewhere;
        # row r is zero left of column j, so the update may span every column
        factor = a[:, j] * inverse % p
        factor[r] = (1 - inverse) % p
        a -= factor[:, None] * a[r]
        a %= p
        pivots.append(j)
    return a, pivots, rows[:len(pivots)]


def _times_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x @ y mod p for int64 residues below 2^31; y is split into 16-bit
    halves so that no sum of products leaves int64 (y has under 2^15 rows)."""
    hi, lo = np.divmod(y, 1 << 16)
    return ((x @ hi % p << 16) + x @ lo) % p


def _wang(u: list, m: int):
    """Numerators and one common denominator of the rationals whose residues
    mod m are u, with numerators and denominators at most sqrt(m / 2) (Wang,
    SYMSAC 1981), or None.  Each entry is first multiplied by the denominator
    found so far, so only the entries that add to it need Euclid's algorithm."""
    bound, den = math.isqrt(m // 2), 1
    for x in u:
        v = den * x % m
        if min(v, m - v) <= bound:
            continue
        r0, r1, t0, t1 = m, v, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        den *= abs(t1)
        if den > bound or math.gcd(r1, t1) != 1:
            return None
    half = m // 2
    return [v - m if v > half else v for v in (den * x % m for x in u)], den


def _digits(a: np.ndarray, rows: list, pivots: list, free: list, first: np.ndarray, p: int):
    """The p-adic digits of B^-1 C for B = A[R, P] and C = A[R, F], from the
    first (Dixon, Numer. Math. 40, 1982): each step subtracts B times the last
    digit from the residual, divides by p exactly and multiplies by B^-1 mod p."""
    yield first
    b, c = a[rows][:, pivots], a[rows][:, free]
    r = len(rows)
    inverse = _gauss_jordan_mod(
        np.hstack([(b % p).astype(np.int64), np.eye(r, dtype=np.int64)]), p, r)[0][:, r:]
    # |residual| stays below max|a| (r + 1), so int64 holds the steps when
    # max|a| (r + 1) (p + 1) does; larger entries take the same steps on ints
    big = max((abs(x) for x in a[rows].flat), default=0)
    if big * (r + 1) * (p + 1) < 1 << 63:
        b, c = b.astype(np.int64), c.astype(np.int64)
    residual, digit = c, first
    while True:
        residual = (residual - b @ digit.astype(b.dtype)) // p
        digit = _times_mod(inverse, (residual % p).astype(np.int64), p)
        yield digit


def _lift(a: np.ndarray, reduced: np.ndarray, pivots: list, rows: list, p: int):
    """Y with A[R, P] Y = A[R, F] on the free columns F, lifted p-adically
    from its residues in the reduced matrix, checked on every row.

    Returns Y as integer numerators and one denominator when A[:, P] Y =
    A[:, F] holds over Z on all rows and column j of Y is zero at every pivot
    to the right of free column j; None when a candidate solves the r rows
    exactly but fails that check, which only an unlucky prime causes.
    """
    free = [j for j in range(a.shape[1]) if j not in pivots]
    shape = (len(pivots), len(free))
    # pivots at or right of free column j, which column j of Y must not use
    right = [(k, j) for j, f in enumerate(free) for k in range(bisect.bisect(pivots, f), shape[0])]
    # Hadamard: each r x r minor of A[R], so each numerator and the common
    # denominator, is at most h, the product of its row norms; once m / 2
    # reaches h^2 the reconstruction cannot miss
    h2 = None
    u, m = [0] * (shape[0] * shape[1]), 1
    for digit in _digits(a, rows, pivots, free, reduced[:len(rows), free], p):
        u = [x + d * m for x, d in zip(u, digit.ravel().tolist())]
        m *= p
        cand = _wang(u, m)
        if cand is not None:
            num, den = np.array(cand[0], dtype=object).reshape(shape), cand[1]
            residual = a[:, pivots] @ num - den * a[:, free]
            if not residual.any():
                return None if any(num[k, j] for k, j in right) else (num, den)
            if not residual[rows].any():
                return None
        h2 = h2 or math.prod(int(sum(x * x for x in row)) for row in a[rows])
        if m // 2 >= h2:
            return None


def _rref(a: np.ndarray):
    """Pivot columns P of a rational matrix's reduced row echelon form, and
    the solution Y of A[:, P] Y = A[:, F] on the free columns F, as integer
    numerators and one denominator.

    The matrix is cleared once and reduced mod a prime p < 2^31.  A nonzero
    minor mod p is nonzero over Z, so a pivot in every column mod p is a
    proof and needs no rational arithmetic.  Otherwise Y is lifted p-adically
    from the r rows independent mod p and checked on every row
    (:func:`_lift`).  A passing check proves that the rank is r, that P is
    the rational pivot set (each free column lies in the span of the pivots
    to its left, and the pivot columns are independent) and that -Y is the
    free part of the RREF.  A failing one means that p divides the pivot
    minor of the rational pivot rows and columns, so the next prime is
    taken.  Only the primes dividing that one nonzero minor can fail, so the
    loop takes time polynomial in the bit size.
    """
    ints = cleared(a)[0]
    for i in itertools.count():
        p = _prime(i)
        reduced, pivots, rows = _gauss_jordan_mod((ints % p).astype(np.int64), p, ints.shape[1])
        if len(pivots) == ints.shape[1]:
            return pivots, (np.empty((len(pivots), 0), dtype=object), 1)
        out = _lift(ints, reduced, pivots, rows, p)
        if out is not None:
            return pivots, out


def _full_rank_mod_p(a: np.ndarray) -> bool:
    """Whether a rational matrix has a pivot in every column mod the first
    prime, which proves full column rank over Q.  False proves nothing."""
    ints, p = cleared(a)[0], _prime(0)
    width = ints.shape[1]
    return len(_gauss_jordan_mod((ints % p).astype(np.int64), p, width)[1]) == width


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact X with a @ X == b, for a rational a of full column rank.

    Raises ValueError when a is rank deficient or the system is inconsistent.
    """
    pivots, (num, den) = _rref(np.concatenate([a, b], axis=1))
    if pivots != list(range(a.shape[1])):
        raise ValueError("linear system has no unique exact solution")
    return np.array([[Fraction(x, den) for x in row] for row in num.tolist()], dtype=object)


# ---------------------------------------------------------------------------
# rank / nullspace


def _svd_rank(s: np.ndarray, mode: ScalarMode, scale: float | None = None) -> int:
    """Number of singular values (descending) above ``tol_rank`` times the
    largest, or times ``scale`` for a matrix built from data of that size."""
    if s.size == 0 or s[0] == 0:
        return 0
    ref = s[0] if scale is None else scale
    return int(np.sum(s > mode.tol_rank * ref))


def rank(a: np.ndarray, mode: ScalarMode, scale: float | None = None) -> int:
    """Rank of a matrix; exact elimination, or SVD ranked by :func:`_svd_rank`."""
    a = np.asarray(a)
    if a.size == 0:
        return 0
    if mode.is_exact:
        # a wide matrix has the rank of its transpose, whose columns a full
        # rank mod p settles
        return len(_rref(a.T if a.shape[0] < a.shape[1] else a)[0])
    return _svd_rank(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False), mode, scale)


def _kernel_basis(a: np.ndarray):
    """(S, F, den): the RREF kernel basis of a rational matrix times den, its
    denominator, in integers, and its free rows F, where S[F] = den I."""
    pivots, (num, den) = _rref(a)
    free = [j for j in range(a.shape[1]) if j not in pivots]
    s = np.zeros((a.shape[1], len(free)), dtype=object)
    s[pivots] = -num
    s[free, range(len(free))] = den
    return s, free, den


def nullspace(a: np.ndarray, mode: ScalarMode) -> list[np.ndarray]:
    """Basis of the right nullspace; len(basis) == cols - rank.  In exact mode
    it is the basis read off the RREF; in float mode it is orthonormal, its
    rank taken relative to the largest singular value."""
    a = np.asarray(a)
    nrows, ncols = a.shape
    if nrows == 0 or ncols == 0:
        return [identity(ncols, mode)[:, j] for j in range(ncols)] if ncols else []
    if mode.is_exact:
        s, _, den = _kernel_basis(a)
        return [col * Fraction(1, den) for col in s.T]
    _, s, vh = np.linalg.svd(np.asarray(a, dtype=complex))
    return [np.conj(vh[j]) for j in range(_svd_rank(s, mode), ncols)]


# ---------------------------------------------------------------------------
# eigenvalues


def _berkowitz(a: np.ndarray) -> list[int]:
    """Monic characteristic polynomial of an integer matrix, low to high
    (Berkowitz, IPL 1984), division-free: bordering the k x k block M by row
    r, column c and corner a multiplies its polynomial by the Toeplitz matrix
    of (1, -a, -r c, -r M c, ...)."""
    poly = np.array([1], dtype=object)
    for k in range(len(a)):
        r, toeplitz = a[k, :k], [1, -a[k, k]]
        for _ in range(k):
            toeplitz.append(-(r @ a[:k, k]))
            r = r @ a[:k, :k]
        poly = np.convolve(np.array(toeplitz, dtype=object), poly)[:k + 2]
    return poly.tolist()[::-1]


def _pseudo_divmod(num: list, den: list):
    """quot, rem with lc^k num = quot den + rem for integer polynomials (low to
    high), lc = den[-1] and k = max(deg num - deg den + 1, 0); 0 is ``[]``."""
    lc, rem = den[-1], list(num)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for i in reversed(range(len(quot))):
        c = rem[i + len(den) - 1]
        if lc != 1:
            quot, rem = [lc * x for x in quot], [lc * x for x in rem]
        quot[i] = c
        for j, x in enumerate(den):
            rem[i + j] -= c * x
    rem = rem[: len(den) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _primitive(poly: list) -> list:
    """An integer polynomial divided by its content, leading coefficient
    positive; ``[]`` stays ``[]``."""
    g = math.gcd(*poly)
    return [c // g if poly[-1] > 0 else -c // g for c in poly]


def _poly_eval_mod(poly: list, x: int, m: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % m
    return acc


def _integer_roots_monic(h: list) -> list[int]:
    """Integer roots of a square-free monic integer polynomial (p-adic lifting).

    p is the smallest odd prime at which every root of h mod p is simple; one
    exists because only the primes dividing the (nonzero) discriminant fail.
    Every integer root of h reduces to one of those roots, and Newton (Hensel)
    lifting takes each to its unique lift modulo p^(2^k) > 2B, where
    B = 1 + max|h_i| bounds the roots (Cauchy).  The symmetric residue of
    each lift is then checked exactly, so the returned list is complete
    (Loos, SIAM J. Comput. 1983).
    """
    dh = [i * c for i, c in enumerate(h)][1:]
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            roots = [r for r in range(p) if _poly_eval_mod(h, r, p) == 0]
            if all(_poly_eval_mod(dh, r, p) for r in roots):
                break
        p += 2
    bound = 2 * (1 + max((abs(c) for c in h[:-1]), default=0))
    found = []
    for r in roots:
        m = p
        while m <= bound:
            m *= m
            r = (r - _poly_eval_mod(h, r, m) * pow(_poly_eval_mod(dh, r, m), -1, m)) % m
        if r > m // 2:
            r -= m
        if sum(c * r**i for i, c in enumerate(h)) == 0:
            found.append(r)
    return found


def _rational_roots(coeffs: list, degree: int) -> list[Fraction]:
    """All roots in ascending order with multiplicity, or raise if the
    polynomial does not split over Q.

    Cleared to a primitive integer f with leading coefficient a > 0,
    h(y) = a^(deg f - 1) f(y / a) is monic over Z, and its roots, a times
    those of f, are integers.  g = gcd(h, h') from the primitive remainder
    sequence (Collins, J. ACM 14, 1967) is primitive and divides h over Z
    (Gauss), so g and the square-free part h / g are monic, and
    :func:`_integer_roots_monic` finds the roots of h / g.  Multiplicities
    come from synthetic division.  Every step is polynomial in the bit size.
    """
    f = _primitive(cleared(coeffs[: degree + 1])[0].tolist())
    h = [c * f[-1] ** (len(f) - 2 - i) for i, c in enumerate(f[:-1])] + [1]
    g, rem = h, _primitive([i * c for i, c in enumerate(h)][1:])
    while rem:
        g, rem = rem, _primitive(_pseudo_divmod(g, rem)[1])
    roots = []
    for r in sorted(_integer_roots_monic(_pseudo_divmod(h, g)[0])):
        while True:
            quot, rem = _pseudo_divmod(h, [-r, 1])
            if rem:
                break
            roots.append(Fraction(r, f[-1]))
            h = quot
    if len(h) > 1:
        raise IrrationalSpectrumError(
            "characteristic polynomial does not split over the rationals"
        )
    return roots


def eigenvalues(a: np.ndarray, mode: ScalarMode) -> list:
    """Eigenvalues with multiplicity.

    Exact mode returns them in ascending order.  It requires the
    characteristic polynomial to split over Q and raises
    :class:`IrrationalSpectrumError` otherwise; that answer is exact.  It
    roots the monic integer polynomial of A' = f A in integers, by p-adic
    (Hensel) lifting, and divides each root by f once, so the time is
    polynomial in the bit size of the entries.  Float mode returns them in
    LAPACK's order.
    """
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("eigenvalues require a square matrix")
    if a.shape[0] == 0:
        return []
    if mode.is_exact:
        ints, f = stored(a)
        if ints.dtype != object:
            raise ValueError("rational mode requires rational input")
        return [r / f for r in _rational_roots(_berkowitz(ints), len(ints))]
    return list(np.linalg.eigvals(np.asarray(a, dtype=complex)))
