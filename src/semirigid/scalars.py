"""Scalar and matrix layer with two arithmetic regimes.

All linear algebra in this package runs in one of two modes: exact rational
(Python ``Fraction`` entries, tolerance-free) or complex floating point with
an explicit tolerance policy.  The two regimes are never mixed inside a single
computation; the only supported conversion is rational -> float.
:func:`resolve_mode` is the one rule that picks the regime for given input.

Matrices are plain numpy arrays: ``dtype=object`` holding ``Fraction``/``int``
entries in rational mode, ``dtype=complex`` in float mode.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

RATIONAL = "rational"
COMPLEX = "complex"

# the one default for both float tolerances
DEFAULT_TOL = 1e-8


class PreconditionError(Exception):
    """An operation was invoked on input violating its mathematical precondition."""


class IrrationalSpectrumError(PreconditionError):
    """Exact eigenvalues requested but the characteristic polynomial does not split over Q."""


@dataclass(frozen=True)
class ScalarMode:
    """Arithmetic regime plus the tolerances used by floating-point decisions.

    ``tol_rank`` is relative to the largest singular value; ``tol_residual``
    bounds accepted residuals relative to the natural scale of the input.
    Both are ignored (with a warning) in rational mode.
    """

    kind: str
    tol_rank: float = 0.0
    tol_residual: float = 0.0

    def __post_init__(self):
        if self.kind not in (RATIONAL, COMPLEX):
            raise ValueError(f"unknown scalar mode {self.kind!r}")
        if self.kind == RATIONAL:
            if self.tol_rank or self.tol_residual:
                warnings.warn("tolerances are ignored in exact rational mode", stacklevel=3)
        else:
            if not (self.tol_rank > 0 and self.tol_residual > 0):
                raise ValueError("complex mode requires strictly positive tolerances")

    @classmethod
    def exact(cls) -> "ScalarMode":
        return cls(RATIONAL)

    @classmethod
    def floating(cls, tol_rank: float = DEFAULT_TOL,
                 tol_residual: float = DEFAULT_TOL) -> "ScalarMode":
        return cls(COMPLEX, tol_rank=tol_rank, tol_residual=tol_residual)

    @property
    def is_exact(self) -> bool:
        return self.kind == RATIONAL

    def vanishes(self, arrays, scale: float = 1.0) -> bool:
        """Whether every array is zero: entry by entry in rational mode, else
        each Frobenius norm is at most ``tol_residual * scale``."""
        if self.is_exact:
            return all(np.all(np.asarray(a) == 0) for a in arrays)
        bound = self.tol_residual * scale
        return all(np.linalg.norm(to_float(np.asarray(a))) <= bound for a in arrays)


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


def as_fraction(x) -> Fraction:
    """Coerce to Fraction with plain-int internals (numpy ints are normalized)."""
    if isinstance(x, Fraction):
        if isinstance(x.numerator, int) and isinstance(x.denominator, int):
            return x
        return Fraction(int(x.numerator), int(x.denominator))
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return Fraction(x)


def exact_matrix(rows) -> np.ndarray:
    """Build an object-dtype matrix with Fraction entries."""
    a = np.empty((len(rows), len(rows[0]) if len(rows) else 0), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            a[i, j] = as_fraction(x)
    return a


def float_matrix(rows) -> np.ndarray:
    return np.array(rows, dtype=complex)


def to_float(a: np.ndarray) -> np.ndarray:
    """Explicit (lossy) rational -> complex float conversion."""
    if a.dtype == object:
        out = np.array([complex(x) for x in a.reshape(-1)], dtype=complex)
        return out.reshape(a.shape)
    return np.asarray(a, dtype=complex)


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


def is_exact_array(a: np.ndarray) -> bool:
    return a.dtype == object


def cleared(a) -> tuple[np.ndarray, int]:
    """Rational entries with their denominators cleared: an object array of
    Python ints and the lcm ``den`` of the denominators, so that a == ints / den."""
    a = np.asarray(a, dtype=object)
    den = math.lcm(*(x.denominator for x in a.flat))
    ints = np.empty(a.shape, dtype=object)
    ints.flat[:] = [int(x.numerator) * (den // x.denominator) for x in a.flat]
    return ints, den


# ---------------------------------------------------------------------------
# exact elimination


class Echelon:
    """Incremental fraction-free Gauss-Jordan elimination over Q.

    Each row has its denominators cleared on the way in (row scaling keeps the
    row space).  The stored rows are the integer matrix ``det * RREF``: each
    holds ``det`` at its own pivot and 0 at every other pivot, where ``det`` is
    the pivot minor of the rows taken so far.  Every update divides exactly by
    the previous ``det`` (Bareiss, Math. Comp. 1968), so entries stay minors
    of the input.
    """

    def __init__(self):
        self.rows = []
        self.pivots = []
        self.det = 1

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row) -> bool:
        """Add a row of Fraction/int entries; return whether the span grew."""
        v = cleared(row)[0].tolist()
        det = self.det
        w = [det * x for x in v]
        for r, p in zip(self.rows, self.pivots):
            c = v[p]
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

    def rref(self):
        """Reduced row echelon form as Fraction rows, and its sorted pivot columns."""
        order = sorted(range(self.rank), key=self.pivots.__getitem__)
        return ([[Fraction(x, self.det) for x in self.rows[i]] for i in order],
                [self.pivots[i] for i in order])


def _echelon(a: np.ndarray) -> Echelon:
    """Echelon of the rows of a rational matrix."""
    ech = Echelon()
    for row in (a if a.dtype == object else exact_matrix(a)):
        ech.add(row)
    return ech


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact X with a @ X == b, for a rational a of full column rank.

    Raises ValueError when a is rank deficient or the system is inconsistent.
    """
    k = a.shape[1]
    m, pivots = _echelon(np.concatenate([a, b], axis=1)).rref()
    if pivots != list(range(k)):
        raise ValueError("linear system has no unique exact solution")
    return np.array([row[k:] for row in m], dtype=object)


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
    """Rank of a matrix; exact elimination, or SVD with ``scale`` as in :func:`nullspace`."""
    a = np.asarray(a)
    if a.size == 0:
        return 0
    if mode.is_exact:
        return _echelon(a).rank
    return _svd_rank(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False), mode, scale)


def nullspace(a: np.ndarray, mode: ScalarMode, scale: float | None = None) -> list[np.ndarray]:
    """Basis of the right nullspace; len(basis) == cols - rank.  In float mode
    the basis is orthonormal and ``scale`` is passed to :func:`_svd_rank`."""
    a = np.asarray(a)
    nrows, ncols = a.shape
    if nrows == 0 or ncols == 0:
        return [identity(ncols, mode)[:, j] for j in range(ncols)] if ncols else []
    if mode.is_exact:
        m, pivots = _echelon(a).rref()
        free = [c for c in range(ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = np.empty(ncols, dtype=object)
            v[...] = Fraction(0)
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(v)
        return basis
    _, s, vh = np.linalg.svd(np.asarray(a, dtype=complex))
    return [np.conj(vh[j]) for j in range(_svd_rank(s, mode, scale), ncols)]


# ---------------------------------------------------------------------------
# eigenvalues


def _char_poly_exact(a: np.ndarray) -> list[Fraction]:
    """Monic characteristic polynomial of a rational matrix (Berkowitz, IPL 1984).

    Returned coefficients are [c_0, ..., c_{n-1}, 1] for
    p(x) = x^n + c_{n-1} x^{n-1} + ... + c_0.  The division-free recursion runs
    on the integers A' = f A, whose coefficient of x^(n-k) is f^k times A's:
    bordering the leading k x k block M by row r, column c and corner a
    multiplies its polynomial by the Toeplitz matrix of (1, -a, -r c, -r M c, ...).
    """
    a, f = cleared(a)
    poly = np.array([1], dtype=object)
    for k in range(len(a)):
        r, toeplitz = a[k, :k], [1, -a[k, k]]
        for _ in range(k):
            toeplitz.append(-(r @ a[:k, k]))
            r = r @ a[:k, :k]
        poly = np.convolve(np.array(toeplitz, dtype=object), poly)[:k + 2]
    return [Fraction(c, f ** k) for k, c in enumerate(poly)][::-1]


def _poly_divmod(num: list, den: list):
    """Quotient and remainder of polynomials over Q (coefficients low to high).

    ``den`` has a nonzero leading coefficient; the remainder has its zero
    leading coefficients dropped, so the zero polynomial is ``[]``.
    """
    rem = list(num)
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in reversed(range(len(quot))):
        c = quot[i] = rem[i + len(den) - 1] / den[-1]
        for j, x in enumerate(den):
            rem[i + j] -= c * x
    rem = rem[: len(den) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


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


def _rational_roots(coeffs: list[Fraction], degree: int) -> list[Fraction]:
    """All roots in ascending order with multiplicity, or raise if the
    polynomial does not split over Q.

    The distinct roots are those of the square-free part g = f / gcd(f, f').
    With g cleared to a primitive integer polynomial of leading coefficient a,
    h(y) = a^(deg g - 1) g(y / a) is monic with integer coefficients and its
    integer roots are a times the rational roots of g.  Multiplicities come
    from exact division of f.  Every step is polynomial in the bit size.
    """
    f = list(coeffs[: degree + 1])
    # Euclid over Q: g = gcd(f, f'), then the square-free part f / g
    df = [i * c for i, c in enumerate(f)][1:]
    g = f
    while df:
        g, df = df, _poly_divmod(g, df)[1]
    g = _poly_divmod(f, g)[0]
    den = math.lcm(*(c.denominator for c in g))
    ints = [int(c * den) for c in g]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    a = ints[-1]
    h = [c * a ** (len(ints) - 2 - i) for i, c in enumerate(ints[:-1])] + [1]
    roots = []
    for x in sorted(Fraction(y, a) for y in _integer_roots_monic(h)):
        while True:
            quot, rem = _poly_divmod(f, [-x, Fraction(1)])
            if rem:
                break
            roots.append(x)
            f = quot
    if len(f) > 1:
        raise IrrationalSpectrumError(
            "characteristic polynomial does not split over the rationals"
        )
    return roots


def eigenvalues(a: np.ndarray, mode: ScalarMode) -> list:
    """Eigenvalues with multiplicity.

    Exact mode returns them in ascending order.  It requires the
    characteristic polynomial to split over Q and raises
    :class:`IrrationalSpectrumError` otherwise; that answer is exact.  The
    roots come from p-adic (Hensel) lifting, so the time is polynomial in the
    bit size of the entries.  Float mode returns them in LAPACK's order.
    """
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("eigenvalues require a square matrix")
    if a.shape[0] == 0:
        return []
    if mode.is_exact:
        coeffs = _char_poly_exact(exact_matrix(a) if a.dtype != object else a)
        return _rational_roots(coeffs, a.shape[0])
    return list(np.linalg.eigvals(np.asarray(a, dtype=complex)))
