"""Bivector algebra on V: skew pairings, kernels, ranks, and decomposability.

A skew pairing is the tensor of a linear map from the second exterior power
of V into a target space W, stored on the strictly-upper-triangular index
pairs (i, j), i < j, and extended by antisymmetry.  Bivectors are stored the
same way.  A bivector is decomposable (rank 2) when :func:`rank2_factor`
writes it as u ^ v, the one rank-2 test, which decides a kernel line; the
Plucker quadrics restricted to a kernel decide a rational pencil and every
kernel at d <= 4, and the verdict engine's search handles the rest.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .scalars import ScalarMode, nullspace, rank, resolve_mode, stored, to_float
from .scalars import _at_unit_size, _kernel_basis

YES = "yes"
NO = "no"
NOT_APPLICABLE = "not_applicable"


def pair_count(d: int) -> int:
    return d * (d - 1) // 2


def pair_list(d: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def pair_index(i: int, j: int, d: int) -> int:
    if not 0 <= i < j < d:
        raise ValueError(f"need 0 <= i < j < d, got ({i}, {j}) with d={d}")
    return i * d - i * (i + 1) // 2 + (j - i - 1)


def skew(x, d: int) -> np.ndarray:
    """The antisymmetric (..., d, d) array, in x's dtype, whose entries (i, j)
    with i < j are the last axis of x, in :func:`pair_list` order."""
    x = np.asarray(x)
    i, j = np.triu_indices(d, 1)
    m = np.zeros(x.shape[:-1] + (d, d), dtype=x.dtype)
    m[..., i, j] = x
    m[..., j, i] = -x
    return m


class _Stored:
    """An object held once as a read-only array values / den: rational, Python
    ints with den > 0 and gcd(den, values) = 1; complex, complex128 with
    den = 1.  The constructors build it with :func:`scalars.stored`.
    Equality and hash read ``_key()``, built from the values."""

    def _hold(self, d: int, values: np.ndarray, den: int):
        values.flags.writeable = False
        for name, x in ("dim_v", d), ("values", values), ("den", den):
            object.__setattr__(self, name, x)
        return self

    @classmethod
    def _from_values(cls, d: int, values: np.ndarray, den: int = 1):
        """The object of values already in the stored form, made read-only."""
        return cls.__new__(cls)._hold(d, values, den)

    def __eq__(self, other):
        return isinstance(other, type(self)) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def is_rational(self) -> bool:
        return self.values.dtype == object


@dataclass(frozen=True, init=False, eq=False)
class Bivector(_Stored):
    """Element of the second exterior power of V, stored as the vector of its
    coefficients on the pairs i < j of :func:`pair_list`.  ``Bivector(dim_v,
    coeffs)`` is rational when :func:`scalars.stored` finds the coefficients so."""

    dim_v: int
    values: np.ndarray
    den: int

    def __init__(self, dim_v: int, coeffs):
        if len(coeffs) != pair_count(dim_v):
            raise ValueError("coefficient count does not match dim_v")
        self._hold(dim_v, *stored(coeffs))

    @classmethod
    def zero(cls, d: int) -> "Bivector":
        return cls(d, (0,) * pair_count(d))

    @classmethod
    def from_pairs(cls, d: int, values: dict) -> "Bivector":
        coeffs = [0] * pair_count(d)
        for (i, j), v in values.items():
            if i < j:
                coeffs[pair_index(i, j, d)] = v
            elif j < i:
                coeffs[pair_index(j, i, d)] = -v
            elif v != 0:
                raise ValueError("diagonal coefficient must vanish")
        return cls(d, tuple(coeffs))

    @classmethod
    def basis_element(cls, d: int, i: int, j: int) -> "Bivector":
        return cls.from_pairs(d, {(i, j): 1})

    @property
    def coeffs(self) -> tuple:
        """values / den: the ints themselves when den = 1, else Fractions."""
        v = self.values if self.den == 1 else self.values * Fraction(1, self.den)
        return tuple(v.tolist())

    def _key(self) -> tuple:
        return self.dim_v, self.coeffs

    def coefficient(self, i: int, j: int):
        if i == j:
            return 0
        x = self.values[pair_index(min(i, j), max(i, j), self.dim_v)]
        x = x if self.den == 1 else Fraction(x, self.den)
        return x if i < j else -x

    def is_zero(self) -> bool:
        return not self.values.any()

    def skew_matrix(self) -> np.ndarray:
        """The associated d x d skew-symmetric matrix, in Fractions when rational."""
        return skew(np.array(self.coeffs, dtype=object) if self.is_rational() else self.values,
                    self.dim_v)

    def __add__(self, other: "Bivector") -> "Bivector":
        if self.dim_v != other.dim_v:
            raise ValueError("dimension mismatch")
        return Bivector(self.dim_v, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Bivector") -> "Bivector":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "Bivector":
        return Bivector(self.dim_v, tuple(scalar * c for c in self.coeffs))

    def __neg__(self) -> "Bivector":
        return (-1) * self


def wedge(u, v) -> Bivector:
    """The decomposable bivector u wedge v."""
    d = len(u)
    if len(v) != d:
        raise ValueError("dimension mismatch")
    return Bivector(d, tuple(u[i] * v[j] - u[j] * v[i] for i, j in pair_list(d)))


@dataclass(frozen=True, init=False, eq=False)
class SkewPairing(_Stored):
    """Skew pairing into W, stored as its dim_w x pair_count matrix; column p
    is the image of the p-th basis bivector of :func:`pair_list`.
    ``SkewPairing(dim_v, dim_w, entries)`` takes the rows, ``entries[p][k]``
    the k-th W-coordinate of that image, as ``entries`` reads them back.
    ``dim_w == 0`` is the zero pairing.
    """

    dim_v: int
    dim_w: int
    values: np.ndarray
    den: int

    def __init__(self, dim_v: int, dim_w: int, entries):
        if dim_v < 1 or dim_w < 0:
            raise ValueError("need dim_v >= 1 and dim_w >= 0")
        if len(entries) != pair_count(dim_v):
            raise ValueError("entry rows do not match dim_v")
        if any(len(row) != dim_w for row in entries):
            raise ValueError("entry row length does not match dim_w")
        values, den = stored(entries)
        self._hold(dim_v, values.reshape(len(entries), dim_w).T, den)

    def _hold(self, d: int, values: np.ndarray, den: int) -> "SkewPairing":
        if d < 1 or values.ndim != 2 or values.shape[1] != pair_count(d):
            raise ValueError("need dim_v >= 1 and a dim_w x pair_count matrix")
        object.__setattr__(self, "dim_w", values.shape[0])
        return super()._hold(d, values, den)

    @classmethod
    def from_matrix(cls, d: int, values: np.ndarray, den: int = 1) -> "SkewPairing":
        """The pairing of matrix values / den, given in the stored form
        above; held as it is and made read-only."""
        return cls._from_values(d, values, den)

    @classmethod
    def zero(cls, d: int, m: int) -> "SkewPairing":
        return cls.from_matrix(d, np.zeros((m, pair_count(d)), dtype=object))

    @classmethod
    def identity(cls, d: int) -> "SkewPairing":
        """The identity pairing of V wedge V onto itself."""
        return cls.from_matrix(d, np.identity(pair_count(d), dtype=object))

    @classmethod
    def from_map(cls, d: int, m: int, values: dict) -> "SkewPairing":
        rows = [[0] * m for _ in range(pair_count(d))]
        for (i, j), vec in values.items():
            if not i < j:
                raise ValueError("pairs must satisfy i < j")
            if len(vec) != m:
                raise ValueError("value vector length does not match dim_w")
            rows[pair_index(i, j, d)] = list(vec)
        return cls(d, m, tuple(tuple(r) for r in rows))

    @property
    def entries(self) -> tuple:
        """The rows of :meth:`matrix`, one per basis bivector, as tuples."""
        return tuple(map(tuple, self.matrix().T.tolist()))

    def _key(self) -> tuple:
        return self.dim_v, self.dim_w, self.entries

    def matrix(self) -> np.ndarray:
        """``values`` itself when den = 1, else values / den in Fractions."""
        return self.values if self.den == 1 else self.values * Fraction(1, self.den)


@dataclass(frozen=True, init=False, eq=False)
class KernelSubspace(_Stored):
    """A subspace of the bivector space, stored as the k x pair_count matrix
    of a basis.  ``KernelSubspace(dim_v, basis)`` stacks the coefficients of
    the bivectors, rational when each is; ``basis`` reads the rows back once,
    each reduced."""

    dim_v: int
    values: np.ndarray
    den: int

    def __init__(self, dim_v: int, basis):
        if any(b.dim_v != dim_v for b in basis):
            raise ValueError("basis bivector dimension mismatch")
        values, den = stored([b.coeffs for b in basis])
        self._hold(dim_v, values.reshape(len(basis), pair_count(dim_v)), den)

    @functools.cached_property
    def basis(self) -> tuple:
        if self.den == 1:
            return tuple(Bivector._from_values(self.dim_v, row) for row in self.values)
        gs = (math.gcd(self.den, *row) for row in self.values)
        return tuple(Bivector._from_values(self.dim_v, row // g, self.den // g)
                     for row, g in zip(self.values, gs))

    def _key(self) -> tuple:
        return self.dim_v, self.basis

    @property
    def dim(self) -> int:
        return len(self.values)


def apply(p: SkewPairing, omega: Bivector) -> np.ndarray:
    """Evaluate the pairing on a bivector; linear in the bivector."""
    if p.dim_v != omega.dim_v:
        raise ValueError("dimension mismatch")
    if not resolve_mode(None, p, omega).is_exact:
        return to_float(p.values, p.den) @ to_float(omega.values, omega.den)
    return p.values @ omega.values * Fraction(1, p.den * omega.den)


def kernel(p: SkewPairing, mode: ScalarMode | None = None) -> KernelSubspace:
    """The kernel of the pairing: exact, the RREF basis S^T / den of
    :func:`scalars._kernel_basis`; float, the orthonormal rows of nullspace."""
    mode = resolve_mode(mode, p)
    d = p.dim_v
    if not mode.is_exact:
        basis = np.array(nullspace(to_float(p.values, p.den), mode), dtype=complex)
        return KernelSubspace._from_values(d, basis.reshape(len(basis), pair_count(d)))
    # ints / den and ints have one kernel
    s, _, den = _kernel_basis(p.values)
    return KernelSubspace._from_values(d, s.T, den)


def rank2_factor(omega: Bivector, mode: ScalarMode):
    """Vectors u, v with u ^ v = omega if omega has rank exactly 2, else None.

    A skew m of rank 2 is (c1 c2^T - c2 c1^T) / a for its columns j1, j2 and
    a = m[j1, j2], its largest |entry|.  Rational: tested on the integers
    m = den omega, u = c1 / a, v = c2 / den.  Float: u and the test read m at
    unit size (:func:`scalars._at_unit_size`), tested at its norm with no floor.
    """
    # rational omega in float mode: skewed in ints, so that each zero is +0
    m = skew(omega.values, omega.dim_v)
    if not mode.is_exact:
        m = to_float(m, omega.den)
    j1, j2 = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    a, c1, c2 = m[j1, j2], m[:, j1], m[:, j2]
    if a == 0:
        return None
    if mode.is_exact:
        ok = not (np.outer(c1, c2) - np.outer(c2, c1) - a * m).any()
        return (c1 * Fraction(1, a), c2 * Fraction(1, omega.den)) if ok else None
    unit = _at_unit_size(m, 2)[0]
    u, c = unit[:, j1] / unit[j1, j2], unit[:, j2]
    ok = mode.vanishes([np.outer(u, c) - np.outer(c, u) - unit], np.linalg.norm(unit))
    return (u, c2) if ok else None


def bivector_rank(omega: Bivector, mode: ScalarMode) -> int:
    """Rank of the associated skew matrix; always even: its singular values
    pair up, so an odd float count means the threshold fell inside a pair."""
    m = omega.skew_matrix()
    r = rank(m if mode.is_exact else to_float(m), mode)
    return r - r % 2


@functools.cache
def _pfaffian_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair indices (p, q), each (3, C(d, 4)), of the Pfaffian terms w_ab w_ce,
    w_ac w_be, w_ae w_bc of each 4-subset a < b < c < e, in combinations order."""
    a, b, c, e = np.array(list(combinations(range(d), 4)), dtype=np.intp).reshape(-1, 4).T
    index = skew(np.arange(pair_count(d)), d)
    return index[[a, a, a], [b, c, e]], index[[c, b, b], [e, e, c]]


_upper_pairs = functools.cache(np.triu_indices)


def restricted_quadrics(x, d: int) -> np.ndarray:
    """The Plucker quadrics on the span of the k rows of the array x (pair
    coordinates; Python ints or complex): the C(d, 4) x C(k + 1, 2) matrix with
    row s for the 4-subset s and column (i, j), i <= j in ``np.triu_indices(k)``
    order, the polar form B_s(x_i, x_j), B_s(w, w) being w ^ w's coefficient on s."""
    xp, xq = (x[:, r] for r in _pfaffian_pairs(d))
    i, j = _upper_pairs(len(x))
    t = xp[i] * xq[j] + xp[j] * xq[i]
    return (t[:, 0] - t[:, 1] + t[:, 2]).T


def dimension_criterion(k: KernelSubspace) -> bool:
    """Sufficient condition for a nonzero decomposable element in the subspace.

    True when dim K >= C(d - 2, 2) + 1, which forces the projectivised
    subspace to meet the rank-2 locus; false is inconclusive.
    """
    return k.dim >= math.comb(k.dim_v - 2, 2) + 1


@dataclass(frozen=True)
class DecomposableDecision:
    kind: str  # yes / no / not_applicable
    witness: Bivector | None = None


def decomposable_exists_exact(k: KernelSubspace, mode: ScalarMode | None = None
                              ) -> DecomposableDecision:
    """Whether the subspace holds a nonzero decomposable bivector, for d <= 4
    or dim K <= 2 (rational) / dim K = 1 (complex); else ``not_applicable``.

    A line is :func:`rank2_factor`'s test.  Otherwise the Plucker quadrics on the
    pencil s K1 + t K2 of the first two basis vectors are binary forms
    a_i s^2 + b_i st + c_i t^2, columns (1, 1), 2 (1, 2) and (2, 2) of
    :func:`restricted_quadrics` on the rows, cleared in rational mode (none for
    d <= 3, one Pfaffian for d = 4).  For d <= 4 that is all: a complex binary
    form always has a zero, so every plane meets the cone.  If a (c) vanishes,
    K1 (K2) is a witness; else every witness is x K1 + K2 with x a common
    root, in particular a root of the form f with the largest |a_i|.  A
    rational root is tested on every form.  When the discriminant of f is not
    a square, the conjugate of a common root is a common root too, so one
    exists exactly when every form is a multiple of f; its witness then has
    float coefficients.  A float "no" for a complex pencil at d >= 5 would
    need a scaled common-root test, so such a pencil is left to the search.
    """
    mode = resolve_mode(mode, k)
    d = k.dim_v
    if k.dim == 0:
        return DecomposableDecision(NO)
    if k.dim == 1:
        decomposable = rank2_factor(k.basis[0], mode) is not None
        return DecomposableDecision(YES, k.basis[0]) if decomposable else DecomposableDecision(NO)
    if d >= 5 and (k.dim >= 3 or not mode.is_exact):
        return DecomposableDecision(NOT_APPLICABLE)
    k1, k2 = k.basis[0], k.basis[1]
    # the stored rows are den K1, den K2, with den^2 times the forms on K1, K2:
    # the same roots and f; so do the rows 2^-e K1, 2^-e K2 of a float pencil at unit size
    xs, den = ((k.values[:2], k.den) if mode.is_exact
               else (_at_unit_size(to_float(k.values[:2], k.den), 2)[0], 1))
    q = restricted_quadrics(xs, d)
    a, b, c = q[:, 0], 2 * q[:, 1], q[:, 2]
    # the quadrics are twice the Pfaffians of the 4 x 4 minors
    scale = 2 * np.abs(xs).max() ** 2
    # a vanishing a also covers quadrics that vanish on the whole plane
    if mode.vanishes([a], scale):
        return DecomposableDecision(YES, k1)
    if mode.vanishes([c], scale):
        return DecomposableDecision(YES, k2)
    f = int(np.argmax(np.abs(a)))
    af, bf, cf = a[f], b[f], c[f]
    disc = bf * bf - 4 * af * cf
    if mode.is_exact:
        root = math.isqrt(max(disc, 0))
        if root * root == disc:
            # x = num / (2 af) is a common root when (2 af)^2 times each form vanishes
            for num in (-bf + root, -bf - root):
                if not any(a * num ** 2 + b * (2 * af * num) + c * (4 * af ** 2)):
                    return DecomposableDecision(YES, Fraction(num, 2 * af) * k1 + k2)
            return DecomposableDecision(NO)
        if any(af * b - bf * a) or any(af * c - cf * a):
            return DecomposableDecision(NO)
        # floats of the forms on K1, K2 themselves; their den^2 multiples may round apart
        af, bf, disc = Fraction(af, den ** 2), Fraction(bf, den ** 2), Fraction(disc, den ** 4)
    af, bf, disc = to_float(np.array([af, bf, disc], dtype=object)).tolist()
    x = (-bf + cmath.sqrt(disc)) / (2 * af)
    u, v = to_float(k.values[:2], k.den).tolist()
    witness = Bivector(d, tuple(x * s + t for s, t in zip(u, v)))
    return DecomposableDecision(YES, witness)

