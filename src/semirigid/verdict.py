"""Semi-rigidity verdict engine.

Decides whether the kernel of a skew pairing contains a nonzero decomposable
bivector.  A zero kernel or the exact small-kernel decision yields a
certified answer; otherwise a sufficient dimension bound certifies existence,
and a seeded numerical search over the kernel hunts for an explicit rank-2
witness.  The engine also converts witnesses to matrix tuples built on a
regular sl2 triple (giving stable points of the quadratic cone at every
matrix size), back again via trace contractions, and samples the cone by
Newton iteration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.linalg import _umath_linalg

from .commuting import (
    MatrixTuple,
    _float_commuting,
    _in_regime,
    _mu_jacobian,
    _mu_kernel,
    _norms,
    _unit_tuple,
    chi,
    chi_norm,
    is_commuting,
    mu,
    regular_sl2_triple,
    tuple_scale,
)
from .exterior import (
    NO,
    YES,
    Bivector,
    KernelSubspace,
    SkewPairing,
    apply,
    decomposable_exists_exact,
    dimension_criterion,
    kernel,
    rank2_factor,
    skew,
    wedge,
)
from .scalars import (
    DEFAULT_TOL,
    PreconditionError,
    ScalarMode,
    _at_unit_size,
    nullspace,
    resolve_mode,
    to_float,
)

SEMI_RIGID = "semi_rigid"
NOT_SEMI_RIGID = "not_semi_rigid"
UNKNOWN = "unknown"

CERT_KERNEL_ZERO = "kernel_zero"
CERT_EXACT_LOW_DIM = "exact_low_dim"
CERT_DIMENSION_CRITERION = "dimension_criterion"
CERT_SEARCH_WITNESS = "search_witness"
CERT_SEARCH_EXHAUSTED = "search_exhausted"


class MuNonzeroError(PreconditionError):
    """An operation requiring a mu-zero tuple received one with nonzero residual."""


class WitnessVerificationError(RuntimeError):
    """An emitted witness failed its independent re-check."""


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 64
    max_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iterations < 1:
            raise ValueError("restarts and max_iterations must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Evidence:
    kernel_dim: int
    restarts_used: int = 0
    best_residual: float | None = None


@dataclass(frozen=True)
class Verdict:
    status: str
    certificate: str
    witness: Bivector | None
    evidence: Evidence


@dataclass(frozen=True)
class SearchResult:
    witness: Bivector | None
    best_residual: float
    restarts_used: int


def _in_kernel(p: SkewPairing, omega: Bivector, mode: ScalarMode) -> bool:
    """Whether the pairing kills the bivector: exactly for a rational bivector
    in exact mode, else up to DEFAULT_TOL relative to |p| |omega| at unit size."""
    if mode.is_exact and omega.is_rational():
        return mode.vanishes([apply(p, omega)])
    m, w = (_at_unit_size(to_float(x.values, x.den), x.values.ndim)[0] for x in (p, omega))
    return ScalarMode.floating().vanishes([m @ w], np.linalg.norm(m) * np.linalg.norm(w))


def _unit_pairing(p: SkewPairing):
    """The float pairing at unit size (:func:`scalars._at_unit_size`) and its e."""
    m, e = _at_unit_size(to_float(p.values, p.den), 2)
    return SkewPairing.from_matrix(p.dim_v, m), e


def _size(c: np.ndarray):
    """A pairing's size, at which mu = 0 is judged: its largest real or imaginary part."""
    return abs(c.view(float)).max(initial=0)


def _verify_witness(p: SkewPairing, omega: Bivector, mode: ScalarMode):
    """Independent re-check of an emitted witness, raising on failure: it lies
    in the kernel, and :func:`exterior.rank2_factor` factors it."""
    if not _in_kernel(p, omega, mode):
        raise WitnessVerificationError("witness is not in the kernel")
    exact = mode.is_exact and omega.is_rational()
    if rank2_factor(omega, mode if exact else ScalarMode.floating()) is None:
        raise WitnessVerificationError("witness does not have rank 2")


# ---------------------------------------------------------------------------
# witness search on rank-2 factors

# a restart accepts at |a(u wedge v)|^2 <= (DEFAULT_TOL / 10)^2 = 1e-18: the
# annihilator a is orthonormal and |u wedge v| = 1, so an accepted witness is
# within DEFAULT_TOL / 10 of the kernel and passes the re-check of
# _verify_witness at DEFAULT_TOL with a margin of 10
_ACCEPTANCE = (DEFAULT_TOL / 10) ** 2


def _tangent_system(a3t: np.ndarray, g: np.ndarray):
    """Residuals, tangent Jacobians and scales of a stack of unitary frames.

    ``a3t`` is the annihilator of the kernel as an antisymmetric (r, d, d)
    array a, laid out as (d, r d) with a3t[i, w d + j] = a[w, i, j].  Each
    frame G of the (L, d, d) stack ``g`` holds the plane [u v] in its first
    two columns and G_perp in the rest.  One product P = [u v]^T a_w G gives
    the residual u^T a_w v = P[0, w, 1] and, by antisymmetry, the Jacobian
    along u + G_perp z_u, v + G_perp z_v: [-v^T a_w G_perp, u^T a_w G_perp],
    r x (2d - 4).  |P| is the norm of the Jacobian in (u, v) before the
    plane is projected out.
    """
    n, d, _ = g.shape
    r = a3t.shape[1] // d
    uv = g[:, :, :2].transpose(0, 2, 1).reshape(2 * n, d)
    p = ((uv @ a3t).reshape(n, 2 * r, d) @ g).reshape(n, 2, r, d)
    jac = np.concatenate([-p[:, 1, :, 2:], p[:, 0, :, 2:]], axis=2)
    return p[:, 0, :, 1], jac, np.linalg.norm(p.reshape(n, -1), axis=1)


# the damping of the Gram matrix of _min_norm_step, relative to its largest
# diagonal entry: a few roundings of that entry
_DAMPING = 10 * np.finfo(float).eps


def _damp(gram: np.ndarray) -> np.ndarray:
    """Add mu = 10 eps max diag to the diagonal of each Gram matrix of the
    stack, in place, and mu = 1 to a zero one; returns mu, one row each."""
    top = np.diagonal(gram, axis1=1, axis2=2).real.max(axis=1, initial=0)
    mu = np.where(top > 0, _DAMPING * top, 1.0)[:, None]
    diag = np.arange(gram.shape[1])
    gram[:, diag, diag] += mu
    return mu


def _min_norm_step(jac: np.ndarray, res: np.ndarray, full_rank: bool) -> np.ndarray:
    """Min-norm solutions z of J z = -res for a stack of Jacobians, each from
    one Gram system damped by mu = 10 eps max diag(Gram) and one stacked
    ``np.linalg.solve`` (damped Gauss-Newton, Nocedal & Wright 10.3).

    With ``full_rank`` (J has full column rank), the column form
    (J^H J + mu I) z = -J^H res.  Otherwise the row form z = -J^H y with
    (J J^H + mu I) y = res, then one refinement step with the same matrix,
    y += (J J^H + mu I)^-1 (res - J J^H y), which takes the bias of the
    damping from mu / sigma^2 to its square on a direction of singular value
    sigma.  The column form of a J of deficient column rank would hand the LU
    a Gram matrix singular up to mu, which amplifies the rounding of J^H res
    along the null directions of J by max diag / mu; the row form's Gram
    matrix has the null directions of J^H instead, and res has no component
    along them when J z = -res is consistent.  A zero Jacobian gets mu = 1,
    so that its step is zero and not a singular solve.
    """
    jh = np.swapaxes(jac.conj(), 1, 2)
    gram, rhs = (jh @ jac, jh @ res[..., None]) if full_rank else (jac @ jh, res[..., None])
    # damped in place: J^H J y (or J J^H y) is then gram @ y - mu y
    mu = _damp(gram)
    y = np.linalg.solve(gram, rhs)
    if full_rank:
        return -y[..., 0]
    y += np.linalg.solve(gram, rhs - gram @ y + mu[..., None] * y)
    return -(jh @ y)[..., 0]


def _block(rows) -> np.ndarray:
    """``np.block`` of stacks, without its checks, which cost more than it at the search's sizes."""
    return np.concatenate([np.concatenate(row, axis=-1) for row in rows], axis=-2)


def _newton_system(a3: np.ndarray, g: np.ndarray, jac: np.ndarray, res: np.ndarray,
                   grad: np.ndarray):
    """The real Gauss-Newton matrix G, Hessian H and gradient b of the
    Grassmannian objective, one per frame, with grad f = 2 b and
    hess f = 2 H at z = 0.

    Moving the plane to [u v] + G_perp Z, Z = [z_u z_v], gives the residual
    r + J z + q(z) with q_w(z) = z_u^T G_perp^T a_w G_perp z_v, and the
    unit plane's objective f(z) = |r + J z + q(z)|^2 / det(I + Z^H Z).  To
    second order, with A = J^H J - |r|^2 I, K = G_perp^T (sum_w conj(r_w) a_w)
    G_perp and B = [[0, K], [K^T, 0]], f = |r|^2 + 2 Re(b^H z) + z^H A z
    + Re(z^T B z), so that in the real coordinates z = x + i y
    H = [[Re(A+B), -Im(A+B)], [Im(A-B), Re(A-B)]] and b = [Re J^H r; Im J^H r].
    G is the same real form of J^H J alone, so that H is G plus the real form
    [[Re B, -Im B], [-Im B, -Re B]] of B, less |r|^2 on the diagonal.  ``a3``
    is the annihilator as an (r, d d) array, ``grad`` is J^H r.
    """
    n, d, _ = g.shape
    perp = g[:, :, 2:]
    # one product per frame, so that a frame's H does not depend on the stack
    k = np.swapaxes(perp, 1, 2) @ (res.conj()[:, None] @ a3).reshape(n, d, d) @ perp
    b = _block([[np.zeros_like(k), k], [np.swapaxes(k, 1, 2), np.zeros_like(k)]])
    jhj = np.swapaxes(jac.conj(), 1, 2) @ jac
    gram = _block([[jhj.real, -jhj.imag], [jhj.imag, jhj.real]])
    hess = gram + _block([[b.real, -b.imag], [-b.imag, -b.real]])
    hess.reshape(n, -1)[:, ::2 * jhj.shape[1] + 1] -= np.vecdot(res, res).real[:, None]
    return gram, hess, np.concatenate([grad.real, grad.imag], axis=1)


def _positive_definite(hess: np.ndarray) -> np.ndarray:
    """Which real symmetric matrices of the stack are positive definite: one
    stacked Cholesky, whose factor is NaN for each matrix that fails (numpy
    flags it as invalid, ignored here) and else starts with sqrt(h_00) > 0."""
    with np.errstate(all="ignore"):
        factor = _umath_linalg.cholesky_lo(hess, signature="d->d")
    return ~np.isnan(factor[:, 0, 0])


def _newton_step(a3: np.ndarray, g: np.ndarray, jac: np.ndarray, res: np.ndarray,
                 grad: np.ndarray) -> np.ndarray:
    """The Newton step H [x; y] = -b of :func:`_newton_system` for each frame
    whose H is positive definite, and for the others the damped Gauss-Newton
    step (G + mu I) [x; y] = -b of :func:`_min_norm_step`'s column form, in
    the same real coordinates: one stacked solve."""
    gram, hess, b = _newton_system(a3, g, jac, res, grad)
    pd = _positive_definite(hess)
    if not pd.all():
        _damp(gram)
        hess[~pd] = gram[~pd]
    xy = np.linalg.solve(hess, -b[..., None]).reshape(len(b), 2, -1)
    return xy[:, 0] + 1j * xy[:, 1]


def _start_frames(raw: np.ndarray, d: int, seed: int, restarts) -> np.ndarray:
    """The unitary U of the SVD of a random kernel element, one per restart
    index, each element drawn from ``default_rng((seed, index))``."""
    m = raw.shape[1]
    rngs = [np.random.default_rng((seed, r)) for r in restarts]
    starts = [raw @ (rng.standard_normal(m) + 1j * rng.standard_normal(m)) for rng in rngs]
    return np.linalg.svd(skew(np.array(starts), d))[0]


def _complete_q(a: np.ndarray) -> np.ndarray:
    """``np.linalg.qr(a, mode="complete")[0]`` of a complex stack, which it
    overwrites: the same two gufunc calls, without the copy and the R."""
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        tau = _umath_linalg.qr_r_raw(a, signature="D->D")
        return _umath_linalg.qr_complete(a, tau, signature="DD->D")


def _gauss_newton(a3t: np.ndarray, g: np.ndarray, cfg: SearchConfig, newton: bool):
    """Run the restarts of the start frames ``g`` in lockstep.

    Returns the index of the first restart that converged (None if none
    did), its frame [u v], and the least |res|^2 each restart reached.  The
    live set shrinks only when a restart ends: it converged, it is
    stationary, its step is not finite, or a restart before it converged.
    Each iteration takes one damped Gram solve for the whole stack
    (:func:`_min_norm_step`): in the column form when J has at least 2d - 4
    rows, which holds at and below the dimension bound, else in the row form.
    With ``newton`` (below the bound, where J is tall), each iteration takes
    one real solve instead (:func:`_newton_step`): the exact Newton step of
    f(z) = |r + J z + q(z)|^2 / det(I + Z^H Z) for each restart whose real
    Hessian passes one stacked Cholesky test (:func:`_positive_definite`),
    and the same damped Gauss-Newton step for the others.
    """
    floating = ScalarMode.floating()
    # 2d - 4 tangent coordinates: J has full column rank at a generic point
    # when it has at least as many rows
    d = g.shape[1]
    r = a3t.shape[1] // d
    full_rank = r >= 2 * d - 4
    # the (r, d d) layout of the annihilator, for the Newton step's K
    a3 = a3t.reshape(d, r, d).transpose(1, 0, 2).reshape(r, -1) if newton else None
    live = np.arange(len(g))
    best = np.full(len(g), np.inf)
    winner, plane = None, None
    for _ in range(cfg.max_iterations):
        res, jac, scale = _tangent_system(a3t, g)
        norm = np.linalg.norm(res, axis=1)
        best[live] = np.minimum(best[live], norm ** 2)
        ended = norm ** 2 <= _ACCEPTANCE
        if ended.any():
            first = int(np.argmax(ended))
            winner, plane = int(live[first]), g[first, :, :2]
        grad = (np.swapaxes(jac.conj(), 1, 2) @ res[..., None])[..., 0]
        # first-order stationarity of Gauss-Newton (Nocedal & Wright,
        # Numerical Optimization, 10.3): the step would be zero.  |P| is |J|
        # before the plane is projected out, so that a tangent J of rounding
        # size counts as stationary
        ended |= floating.negligible(np.linalg.norm(grad, axis=1), scale * norm)
        if winner is not None:
            ended |= live > winner
        if ended.any():
            live, g, jac, res, grad = (live[~ended], g[~ended], jac[~ended], res[~ended],
                                       grad[~ended])
            # with a winner, only restarts before it are left
            if not live.size:
                break
        step = (_newton_step(a3, g, jac, res, grad) if newton
                else _min_norm_step(jac, res, full_rank))
        finite = np.isfinite(step).all(axis=1)
        if not finite.all():
            live, g, step = live[finite], g[finite], step[finite]
            if not live.size:
                break
        z = step.reshape(len(g), 2, -1).transpose(0, 2, 1)
        g = _complete_q(g[:, :, :2] + g[:, :, 2:] @ z)
    return winner, plane, best


def witness_search(k: KernelSubspace, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Seeded random-restart Gauss-Newton search for a rank-2 element u wedge v.

    Solves a(u wedge v) = 0 for the orthonormal annihilator a of the subspace
    over unitary frames G = [u v G_perp] (Edelman, Arias & Smith, SIAM J.
    Matrix Anal. Appl. 20, 1998).  A step moves u and v along G_perp, so it
    moves the plane and not the frame inside it, in tangent coordinates
    2d - 4 wide where the Jacobian has full rank at a generic point; it is
    the min-norm Gauss-Newton step from one Gram system damped by
    mu = 10 eps max diag (:func:`_min_norm_step`), (J^H J + mu I) when J has
    at least 2d - 4 rows and J^H (J J^H + mu I)^-1 when it is wide, and a
    complete QR (:func:`_complete_q`) restores the frame, so u wedge v has
    unit norm and rank exactly 2 throughout.  A restart starts on the plane
    of the top two left singular vectors of a random kernel element, and
    accepts when |a(u wedge v)|^2 drops to ``_ACCEPTANCE``.  It also ends
    early at a stationary point with a nonzero residual, where the gradient
    J^H res vanishes relative to |J| |res|: the step is zero there, so
    further iterations cannot move it.

    At the dimension bound the restarts run one at a time, as the first one
    almost always finds the witness.  Below it every restart runs, all in
    lockstep as one stack; the result is the one of running them in order:
    the first restart to converge wins, and the best residual is taken over
    the restarts up to it.  The per-restart seed is derived from
    (seed, restart index), so results do not depend on scheduling.

    Below the bound a kernel seldom holds a decomposable, so most restarts
    end at a stationary point with a nonzero residual, which Gauss-Newton
    reaches only linearly.  There a restart whose real Hessian is positive
    definite, as one stacked Cholesky tells for all restarts at once, takes
    the exact Newton step of the Grassmannian objective (:func:`_newton_step`),
    and the others the damped Gauss-Newton step, in one stacked solve; at a
    local minimum Newton converges quadratically.  At the bound the first
    restart almost always converges to a zero residual, where Gauss-Newton
    is already quadratic, so it keeps the Gauss-Newton step alone.
    """
    if k.dim == 0:
        return SearchResult(None, float("inf"), 0)
    d = k.dim_v
    # the kernel basis as columns, C-contiguous: the LAPACK and BLAS calls
    # below round by the layout they are handed
    raw = np.ascontiguousarray(to_float(k.values, k.den).T)
    ann = np.reshape(nullspace(raw.T, ScalarMode.floating()), (-1, raw.shape[0]))
    a3t = skew(ann, d).transpose(1, 0, 2).reshape(d, -1)
    restarts = range(cfg.restarts)
    bound = dimension_criterion(k)
    batches = [[r] for r in restarts] if bound else [restarts]
    best = math.inf
    for batch in batches:
        winner, plane, least = _gauss_newton(a3t, _start_frames(raw, d, cfg.seed, batch), cfg,
                                             newton=not bound)
        if winner is not None:
            best = min(best, float(least[:winner + 1].min()))
            return SearchResult(wedge(plane[:, 0], plane[:, 1]), best, batch[winner] + 1)
        best = min(best, float(least.min()))
    return SearchResult(None, best, cfg.restarts)


# ---------------------------------------------------------------------------
# decision pipeline


def decide(p: SkewPairing, mode: ScalarMode | None = None,
           cfg: SearchConfig = SearchConfig()) -> Verdict:
    """Three-valued semi-rigidity verdict with a mandatory certificate.

    Pipeline: zero kernel is certified immediately; the exact rule decides
    every kernel in its domain (d <= 4, or dim K <= 2 for rational and
    dim K = 1 for complex input); when the dimension bound certifies
    existence the status is decided even if the search fails to produce the
    witness; an exhausted search alone yields Unknown, never a semi-rigid
    claim.
    """
    mode = resolve_mode(mode, p)
    k = kernel(p, mode)
    kd = k.dim
    if kd == 0:
        return Verdict(SEMI_RIGID, CERT_KERNEL_ZERO, None, Evidence(kernel_dim=0))
    dec = decomposable_exists_exact(k, mode)
    if dec.kind == YES:
        _verify_witness(p, dec.witness, mode)
        return Verdict(NOT_SEMI_RIGID, CERT_EXACT_LOW_DIM, dec.witness, Evidence(kernel_dim=kd))
    if dec.kind == NO:
        return Verdict(SEMI_RIGID, CERT_EXACT_LOW_DIM, None, Evidence(kernel_dim=kd))
    result = witness_search(k, cfg)
    if result.witness is not None:
        _verify_witness(p, result.witness, mode)
    evidence = Evidence(kernel_dim=kd, restarts_used=result.restarts_used,
                        best_residual=result.best_residual)
    if dimension_criterion(k):
        return Verdict(NOT_SEMI_RIGID, CERT_DIMENSION_CRITERION, result.witness, evidence)
    if result.witness is not None:
        return Verdict(NOT_SEMI_RIGID, CERT_SEARCH_WITNESS, result.witness, evidence)
    return Verdict(UNKNOWN, CERT_SEARCH_EXHAUSTED, None, evidence)


# ---------------------------------------------------------------------------
# witness <-> tuple constructions


def witness_to_tuple(omega: Bivector, n: int, mode: ScalarMode | None = None) -> MatrixTuple:
    """Matrix tuple u (x) X + v (x) Y from a rank-2 bivector u wedge v.

    u, v are :func:`exterior.rank2_factor`'s (ValueError if it finds none),
    and X, Y belong to the regular sl2 triple of size n, so the associated
    representation is irreducible; if the bivector is in the kernel of a
    pairing, the contracted quadratic map vanishes on the tuple while the
    commutator map does not.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    mode = resolve_mode(mode, omega)
    if (factors := rank2_factor(omega, mode)) is None:
        raise ValueError("bivector must have rank exactly 2")
    u, v = factors
    triple = regular_sl2_triple(n)
    x, y = (triple.x, triple.y) if mode.is_exact else (to_float(triple.x), to_float(triple.y))
    return MatrixTuple(n, omega.dim_v, u[:, None, None] * x + v[:, None, None] * y)


def tuple_to_witness(alpha: MatrixTuple, p: SkewPairing,
                     mode: ScalarMode | None = None) -> Bivector | None:
    """Extract a kernel bivector from a mu-zero tuple by trace contraction.

    The contraction of the commutators chi_p against a traceless matrix lands
    in the kernel of the pairing.  The candidates are read off the
    commutators: first tr(chi_p E_ab) = chi_p[b, a] for a != b, then
    chi_p[a, a] - chi_p[a+1, a+1], the contraction against
    E_aa - E_(a+1)(a+1).  The first one that does not vanish at chi_norm
    (the largest norm of a chi_p) times the norm of its matrix (1, then
    sqrt 2) is returned; for 2 x 2 tuples only with rank exactly 2, which
    the contraction bound guarantees for any nonzero value.  Returns None
    when the tuple commutes.  All is judged at unit size, A / 2^e, mu on the
    pairing at unit size at |A|^2 |C|, and the witness scaled back by 4^e, exactly;
    PreconditionError if a part then overflows, or a nonzero one is zero or subnormal.

    A traceless matrix whose off-diagonal entries and consecutive diagonal
    differences all vanish is zero.  If every candidate vanished, each chi_p
    would have norm at most tol_residual * chi_norm * sqrt(n (n-1) (2n-1)),
    so some candidate survives for every non-commuting tuple whenever
    tol_residual < 1 / (2 n^(3/2)), which the default meets.
    """
    alpha, mode = _in_regime(alpha, resolve_mode(mode, alpha, p))
    # tuple and pairing at unit size, where neither mu nor a commutator leaves the float range
    unit, e = _unit_tuple(alpha)
    q = p if alpha.is_rational() else _unit_pairing(p)[0]
    if not mode.vanishes([mu(unit, q)], lambda: tuple_scale(unit) ** 2 * _size(q.values)):
        raise MuNonzeroError("tuple does not satisfy mu = 0")
    if is_commuting(unit, mode):
        return None
    chis, chiscale = chi(unit), functools.cache(lambda: chi_norm(unit))
    n = alpha.n
    candidates = [(tuple(c[b, a] for c in chis), 1.0)
                  for a in range(n) for b in range(n) if a != b]
    candidates += [(tuple(c[a, a] - c[a + 1, a + 1] for c in chis), math.sqrt(2))
                   for a in range(n - 1)]
    for coeffs, norm in candidates:
        if mode.vanishes([coeffs], lambda: chiscale() * norm):
            continue
        w = Bivector(alpha.d, coeffs)
        if n == 2 and rank2_factor(w, mode) is None:
            continue
        if not e:
            return w
        parts = w.values.view(float)
        with np.errstate(over="ignore"):
            back = np.ldexp(parts, 2 * e)
        if np.isinf(back).any() or ((abs(back) < np.finfo(float).tiny) & (parts != 0)).any():
            raise PreconditionError("the witness lies outside the float range")
        return Bivector(alpha.d, back.view(complex))
    return None


def construct_stable_point(p: SkewPairing, omega: Bivector, n: int, epsilon,
                           mode: ScalarMode | None = None) -> MatrixTuple:
    """Scaled sl2-tuple through a rank-2 kernel element.

    The output satisfies mu = 0 and is stable (irreducible representation)
    at every scale, so shrinking epsilon produces stable points arbitrarily
    close to the origin of the cone.
    """
    mode = resolve_mode(mode, p, omega)
    # epsilon in the mode's own scalars, so that a rational one is never
    # rounded; one with no positive finite value there (10**400 as a float) is refused
    try:
        eps = Fraction(epsilon) if mode.is_exact else complex(epsilon)
    except (ArithmeticError, TypeError, ValueError):
        eps = None
    if not (eps is not None and eps.imag == 0 and 0 < eps.real < math.inf):
        raise ValueError("epsilon must be a positive finite real")
    if not _in_kernel(p, omega, mode):
        raise ValueError("bivector is not in the kernel of the pairing")
    return witness_to_tuple(omega, n, mode).scaled(eps)


# ---------------------------------------------------------------------------
# Newton sampling of the quadratic cone


@dataclass(frozen=True)
class MuZeroSample:
    alpha: MatrixTuple
    commuting: bool
    mu_residual: float
    chi_residual: float


@dataclass(frozen=True)
class SamplerResult:
    samples: tuple
    attempted: int
    converged: int


def _mu_test(c: np.ndarray, a: np.ndarray, mode: ScalarMode):
    """mu of each tuple of the (S, d, n, n) stack, flattened, with its partial
    sums (:func:`commuting._mu_kernel`), its norm, and the sampler's acceptance:
    that norm negligible at the squared largest |A_b| times |C| (:func:`_size`)."""
    mus, s = _mu_kernel(c, a)
    res = mus.reshape(len(a), -1)
    norms = _norms(res)
    scale = np.linalg.norm(a, axis=(2, 3)).max(axis=1) ** 2 * _size(c)
    return res, s, norms, mode.negligible(norms, scale)


# the most halvings an Euler ray's closed-form end looks ahead: 4^128 = 2^256
# keeps the predicted bounds finite
_RAY_HORIZON = 128


def _ray_finish(c: np.ndarray, a: np.ndarray, step: np.ndarray, res_norm: np.ndarray,
                budget: int, mode: ScalarMode):
    """The end of the Euler ray of each start of the stack ``a`` whose
    ``step`` is its ray step, at most ``budget`` halvings on: the indices of
    the starts that end, their points and their residual norms, as halving
    the step one iteration at a time would give them.

    On the ray a = T + t, T the scalar part and t the traceless one, the
    iterate k halvings on is T + t / 2^k, where mu = mu(a) / 4^k and
    |A_b|^2 = |T_b|^2 + |t_b|^2 / 4^k.  So it is accepted when
    |mu(a)| <= tol |C| max_b (4^k |T_b|^2 + |t_b|^2), a bound that grows with
    k, and the first halving K that passes is predicted from a alone.  The
    iterates at K - 1 and K are built by the ray's own recurrence (add the
    step, then halve it) and mu is taken at both, for all starts in one
    stack; a start ends there when K - 1 fails and K passes.  Any other start
    is left to the iteration.
    """
    horizon = min(budget, _RAY_HORIZON)
    none = np.zeros(0, dtype=int), a[:0], res_norm[:0]
    if horizon < 1:
        return none
    n = a.shape[-1]
    scalar = np.abs(np.trace(a, axis1=2, axis2=3)) ** 2 / n
    traceless = np.linalg.norm(a, axis=(2, 3)) ** 2 - scalar
    growth = np.ldexp(1.0, 2 * np.arange(1, horizon + 1))
    bound = (scalar[..., None] * growth + traceless[..., None]).max(axis=1) * _size(c)
    passes = mode.negligible(res_norm[:, None], bound)
    first = np.where(passes.any(axis=1), passes.argmax(axis=1) + 1, 0)
    sel = np.flatnonzero(first)
    if not sel.size:
        return none
    first = first[sel]
    point, step = a[sel], step[sel].copy()
    path = [point]
    for k in range(1, first.max() + 1):
        if k > 1:
            step /= 2
        point = point + step
        path.append(point)
    path = np.array(path)
    cols = np.arange(sel.size)
    ends = np.concatenate([path[first - 1, cols], path[first, cols]])
    _, _, norms, ok = _mu_test(c, ends, mode)
    done = ~ok[:sel.size] & ok[sel.size:]
    return sel[done], ends[sel.size:][done], norms[sel.size:][done]


def mu_zero_sampler(p: SkewPairing, n: int, cfg: SearchConfig = SearchConfig()) -> SamplerResult:
    """Newton samples of the quadratic cone, labeled commuting/non-commuting.

    Starts are drawn with unit total Frobenius norm; when the kernel exposes
    a rank-2 generator, the sl2 construction through it is used as the first
    start (it solves the system exactly, so Newton accepts it immediately).
    Residual acceptance is at |A|^2 |C|, on the pairing at unit size, as mu is
    quadratic in the tuple and linear in the pairing.  Non-converged starts
    are dropped and counted.

    mu is a homogeneous quadratic, so Euler's identity gives J(a) a = 2 mu(a),
    and J kills the scalar directions A_b + cI.  So -a/2 solves the Newton
    system, and the min-norm step is -1/2 of a's projection on the row space
    of J.  When that step is -x/2, x the traceless part of a, the
    start is on the ray a = T + tX toward a scalar tuple T, where J = t J(X)
    and mu = t^2 mu(X): every later step is half the one before, and is taken
    without a solve.  On an injective pairing (kernel of J = the scalars) the
    first step is already the ray step; the residual falls 4x per iteration,
    the linear rate of Newton at a singular root (Griewank & Osborne, SIAM J.
    Numer. Anal. 20, 1983).  So where the ray ends is known in advance: a
    start whose step has just put it on the ray leaves the loop with the
    ray's end (:func:`_ray_finish`), the halving at which it is accepted
    predicted in closed form and mu evaluated there and one halving before:
    the sample that halving the step one iteration at a time would give, bit
    for bit.  A start whose prediction fails stays in the stack and takes
    the next solved step, as every other start does.

    All starts run in lockstep as one (S, d, n, n) stack: one batched mu
    kernel and one stacked step (:func:`_min_norm_step`) per iteration.  That step
    is always in the row form: by Euler's identity J x = -mu is consistent
    at every a, while J has the trace rows and the scalar columns as null
    directions whatever its shape.  A start leaves the stack when it
    converges or its step is not finite; the samples come out in start
    order, each with the norm of its own residual, as if run one by one.
    The samples' commutator and scale norms are taken for all of them at
    once.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    mode = ScalarMode.floating()
    d = p.dim_v
    p, e = _unit_pairing(p)  # C / 2^e: mu is judged there and reported times 2^e
    c = skew(p.values, d)

    starts = []
    # the sl2 construction needs n >= 2; at n = 1 every tuple commutes anyway
    basis = kernel(p, mode).basis if n >= 2 else ()
    for b in basis:
        if rank2_factor(b, mode) is not None:
            # nonzero: u has the entry -1 at j2, where v is 0
            z0 = witness_to_tuple(b, n, mode).values.reshape(-1)
            starts.append(z0 / np.linalg.norm(z0))
            break
    idx = 0
    while len(starts) < cfg.restarts:
        rng = np.random.default_rng((cfg.seed, idx))
        z0 = rng.standard_normal(d * n * n) + 1j * rng.standard_normal(d * n * n)
        starts.append(z0 / np.linalg.norm(z0))
        idx += 1

    # every start in one (S, d, n, n) stack; a start leaves it when it ends
    a = np.array(starts).reshape(-1, d, n, n)
    live = np.arange(len(a))
    points = {}
    for it in range(cfg.max_iterations):
        res, s, norms, ok = _mu_test(c, a, mode)
        for i in np.flatnonzero(ok):
            points[live[i]] = (a[i], norms[i])
        live, a, res, s, norms = live[~ok], a[~ok], res[~ok], s[~ok], norms[~ok]
        if not live.size:
            break
        x = _min_norm_step(_mu_jacobian(s), res, False)
        ended = ~np.isfinite(x).all(axis=1)
        step = x.reshape(a.shape)
        t = a - np.trace(a, axis1=2, axis2=3)[..., None, None] / n * np.eye(n)
        t = t.reshape(len(a), -1)
        # a start whose step has just put it on its ray leaves with the ray's end
        ray = np.flatnonzero(mode.negligible(np.linalg.norm(x + t / 2, axis=1),
                                             np.linalg.norm(t, axis=1)))
        done, ends, end_norms = _ray_finish(c, a[ray], step[ray], norms[ray],
                                            cfg.max_iterations - 1 - it, mode)
        for i, point, res_norm in zip(ray[done], ends, end_norms):
            points[live[i]] = (point, res_norm)
        ended[ray[done]] = True
        live, a = live[~ended], a[~ended] + step[~ended]
        if not live.size:
            break

    samples = []
    if points:
        order = sorted(points)
        stack = np.array([points[i][0] for i in order])
        for k, point, c, chi_res in zip(order, stack, *_float_commuting(stack)[:2]):
            samples.append(MuZeroSample(MatrixTuple._from_stack(point), bool(c),
                                        float(np.ldexp(points[k][1], e)), float(chi_res)))
    return SamplerResult(tuple(samples), len(starts), len(points))


def split_component_dimension(n: int, dim_m: int) -> int:
    """Dimension of the split component through the n-fold direct sum point."""
    if n < 1:
        raise ValueError("need n >= 1")
    if dim_m < 0:
        raise ValueError("dim_m must be nonnegative")
    return n * dim_m
