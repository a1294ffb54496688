import inspect
import tracemalloc
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from semirigid.catalog import catalog_build
from semirigid.commuting import (
    MatrixTuple,
    _mu_jacobian,
    _mu_kernel,
    chi,
    chi_norm,
    is_commuting,
    mu,
    regular_sl2_triple,
    rep_analysis,
    tuple_scale,
)
from semirigid.exterior import (
    Bivector,
    KernelSubspace,
    SkewPairing,
    apply,
    bivector_rank,
    decomposable_exists_exact,
    kernel,
    pair_list,
    rank2_factor,
    skew,
    wedge,
)
from semirigid.scalars import DEFAULT_TOL, PreconditionError, ScalarMode, to_float, zeros
from semirigid.verdict import (
    CERT_DIMENSION_CRITERION,
    CERT_EXACT_LOW_DIM,
    CERT_KERNEL_ZERO,
    CERT_SEARCH_EXHAUSTED,
    CERT_SEARCH_WITNESS,
    NOT_SEMI_RIGID,
    SEMI_RIGID,
    UNKNOWN,
    MuNonzeroError,
    SearchConfig,
    WitnessVerificationError,
    _complete_q,
    _in_kernel,
    _min_norm_step,
    _newton_step,
    _newton_system,
    _positive_definite,
    _tangent_system,
    _verify_witness,
    construct_stable_point,
    decide,
    mu_zero_sampler,
    split_component_dimension,
    tuple_to_witness,
    witness_search,
    witness_to_tuple,
)
from semirigid import scalars, verdict
from util import (
    PLANTED_BELOW_BOUND,
    exact_matrix,
    factor_residual,
    frobenius,
    gathered_newton_system,
    planted_below_bound,
    planted_kernel_pairing,
    planted_search_kernels,
    projected_search,
    projective_distance,
    random_injective_pairing,
    random_rank2_bivector,
    symplectic_pair_pairing,
    trace_contraction,
    unitriangular_pair,
)

EXACT = ScalarMode.exact()
FLOAT = ScalarMode.floating()


def symplectic_pairing(d):
    return SkewPairing.from_map(d, 1, {(2 * k, 2 * k + 1): (1,) for k in range(d // 2)})


def kernel_line_pairing(d=2):
    """Pairing on C^d with e0 cup e1 = 0 (and everything else zero)."""
    return SkewPairing.zero(d, 1)


class TestDecide:
    def test_symplectic_d2_semirigid(self):
        v = decide(symplectic_pairing(2))
        assert v.status == SEMI_RIGID and v.certificate == CERT_KERNEL_ZERO

    def test_symplectic_d4_witnessed(self):
        v = decide(symplectic_pairing(4))
        assert v.status == NOT_SEMI_RIGID
        assert v.certificate == CERT_EXACT_LOW_DIM
        assert v.witness is not None
        mode = EXACT if v.witness.is_rational() else FLOAT
        assert bivector_rank(v.witness, mode) == 2
        assert v.evidence.kernel_dim == 5

    @pytest.mark.parametrize("mode", [None, FLOAT])
    def test_rank4_kernel_line_d4_semirigid(self, mode):
        # the kernel is the line of e0^e1 + e2^e3, whose Pfaffian is 1
        p = SkewPairing.from_map(4, 5, {(0, 2): (1, 0, 0, 0, 0), (0, 3): (0, 1, 0, 0, 0),
                                        (1, 2): (0, 0, 1, 0, 0), (1, 3): (0, 0, 0, 1, 0),
                                        (0, 1): (0, 0, 0, 0, 1), (2, 3): (0, 0, 0, 0, -1)})
        v = decide(p, mode)
        assert v.status == SEMI_RIGID and v.certificate == CERT_EXACT_LOW_DIM
        assert v.witness is None and v.evidence.kernel_dim == 1

    def test_identity_pairing_semirigid(self):
        for d in (2, 3, 4, 5):
            v = decide(SkewPairing.identity(d))
            assert v.status == SEMI_RIGID and v.certificate == CERT_KERNEL_ZERO

    def test_planted_kernels_never_semirigid(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            d = int(rng.integers(5, 8))
            plant, _, _ = random_rank2_bivector(rng, d)
            p = planted_kernel_pairing(rng, d, int(rng.integers(1, 4)), plant)
            v = decide(p, cfg=SearchConfig(restarts=16, seed=3))
            assert v.status == NOT_SEMI_RIGID
            if v.witness is not None:
                assert bivector_rank(v.witness, FLOAT) == 2

    def test_injective_pairings_semirigid(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            d = int(rng.integers(3, 7))
            v = decide(random_injective_pairing(rng, d))
            assert v.status == SEMI_RIGID and v.certificate == CERT_KERNEL_ZERO

    def test_unknown_only_from_exhausted_search(self):
        # random 3-dimensional complex kernels in d = 6: below the dimension
        # bound of 7, outside the exact rule, and holding no decomposable
        for seed in range(5):
            _, cols = random_complex_kernel(np.random.default_rng(seed), 6, 3)
            v = decide(pairing_with_kernel(cols, 6),
                       cfg=SearchConfig(restarts=4, max_iterations=50))
            assert v.status == UNKNOWN
            assert v.certificate == CERT_SEARCH_EXHAUSTED
            assert v.evidence.kernel_dim == 3 and v.evidence.best_residual > 1e-6
        # a single rank-4 kernel line is decided by its rank
        gen = Bivector.from_pairs(6, {(0, 1): 1, (2, 3): 1})
        v = decide(planted_kernel_pairing(np.random.default_rng(5), 6, 14, gen))
        assert (v.status, v.certificate) == (SEMI_RIGID, CERT_EXACT_LOW_DIM)
        assert v.witness is None and v.evidence.kernel_dim == 1

    @pytest.mark.parametrize("d, k, kind", PLANTED_BELOW_BOUND)
    def test_search_witness_below_the_bound(self, d, k, kind):
        """Below the dimension bound only the search's witness can prove a
        kernel holds a decomposable; on a planted kernel it finds the plant."""
        p, plant = planted_below_bound(np.random.default_rng(0), d, k, kind)
        assert k <= comb(d - 2, 2) and p.is_rational() == (kind == "rational")
        v = decide(p)
        assert (v.status, v.certificate) == (NOT_SEMI_RIGID, CERT_SEARCH_WITNESS)
        assert v.evidence.kernel_dim == k and v.evidence.restarts_used >= 1
        assert v.evidence.best_residual <= 1e-18
        _verify_witness(p, v.witness, EXACT if kind == "rational" else FLOAT)
        assert projective_distance(v.witness, plant) < 1e-6

    def test_deterministic(self):
        p = symplectic_pairing(6)
        cfg = SearchConfig(seed=11)
        v1 = decide(p, cfg=cfg)
        v2 = decide(p, cfg=cfg)
        assert v1 == v2


def random_complex_kernel(rng, d, m):
    """m random complex bivectors on C^d, as a subspace and as columns."""
    cols = rng.standard_normal((comb(d, 2), m)) + 1j * rng.standard_normal((comb(d, 2), m))
    basis = tuple(Bivector(d, tuple(complex(z) for z in cols[:, j])) for j in range(m))
    return KernelSubspace(d, basis), cols


def random_annihilator(rng, d, r):
    """r random complex rows on the pairs, and the same as an antisymmetric
    (r, d, d) array."""
    ann = rng.standard_normal((r, comb(d, 2))) + 1j * rng.standard_normal((r, comb(d, 2)))
    a3 = np.zeros((r, d, d), dtype=complex)
    for p, (i, j) in enumerate(pair_list(d)):
        a3[:, i, j], a3[:, j, i] = ann[:, p], -ann[:, p]
    return ann, a3


def k_columns(k):
    """The basis of a kernel as the columns of a complex matrix."""
    return np.array([[complex(c) for c in b.coeffs] for b in k.basis]).T


def pairing_with_kernel(cols, d):
    """Complex pairing whose kernel is exactly the column span of cols."""
    q, _ = np.linalg.qr(cols, mode="complete")
    ann = q[:, cols.shape[1]:].conj().T
    return SkewPairing(d, ann.shape[0], tuple(tuple(complex(z) for z in row) for row in ann.T))


def count_solves(monkeypatch):
    """The stack size of every ``np.linalg.solve`` call, in order: in the
    search's column form, the restarts that take a step in each stacked
    solve."""
    sizes = []
    solve = np.linalg.solve

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return sizes


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def pinv_step(jac, res, rtol):
    """Min-norm solutions of J z = -res from ``np.linalg.pinv``, singular
    values at or below rtol sigma_max counted as zero; and the condition
    number of each J on the singular values it keeps."""
    steps, conds = [], []
    for j, r in zip(jac, res):
        sv = np.linalg.svd(j, compute_uv=False)
        kept = sv[sv > rtol * sv[0]]
        steps.append(-np.linalg.pinv(j, rcond=rtol) @ r)
        conds.append(kept[0] / kept[-1])
    return np.array(steps), np.array(conds)


def sampler_jacobians(rng, entry, n, deltas):
    """mu's Jacobians and residuals, flattened as the sampler solves them, at
    a = D + delta X for random diagonal D and random X, one per delta: the
    smaller delta, the nearer a commuting tuple and the worse conditioned J."""
    name, arg = entry.split(":")
    p = catalog_build(name, (arg,)).pairing
    d = p.dim_v
    a = np.zeros((len(deltas), d, n, n), dtype=complex)
    a[..., range(n), range(n)] = complex_normal(rng, len(deltas), d, n)
    a += np.array(deltas)[:, None, None, None] * complex_normal(rng, len(deltas), d, n, n)
    mus, s = _mu_kernel(skew(to_float(p.matrix()), d), a)
    return _mu_jacobian(s), mus.reshape(len(deltas), -1)


EPS = np.finfo(float).eps


class TestMinNormStep:
    """The damped Gram solve of ``_min_norm_step`` against the min-norm step
    of ``np.linalg.pinv``."""

    @staticmethod
    def conditioned(rng, count, rows, cols, cond):
        """Complex Jacobians of full rank min(rows, cols), singular values
        spread from 1 down to 1 / cond."""
        k = min(rows, cols)
        u = np.linalg.qr(complex_normal(rng, count, rows, rows))[0][..., :k]
        v = np.linalg.qr(complex_normal(rng, count, cols, cols))[0][..., :k]
        return (u * np.logspace(0, -np.log10(cond), k)) @ np.swapaxes(v.conj(), 1, 2)

    @pytest.mark.parametrize("rows, cols", [(14, 8), (24, 24), (8, 8)])
    def test_column_form_full_rank(self, rows, cols):
        rng = np.random.default_rng((rows, cols))
        jac = self.conditioned(rng, 6, rows, cols, 10)
        res = complex_normal(rng, 6, rows)
        want, _ = pinv_step(jac, res, 1e-12)
        err = np.linalg.norm(_min_norm_step(jac, res, True) - want, axis=1)
        # the Gram matrix squares the condition number, 10 here, and the
        # damping's bias is 10 eps cond^2
        assert np.all(err <= 1e3 * EPS * 10 ** 2 * np.linalg.norm(want, axis=1))

    @pytest.mark.parametrize("cols", [6, 8, 24])
    def test_row_form_one_row(self, cols):
        # the search's J on curve:3, whose annihilator has one row
        rng = np.random.default_rng(cols)
        jac, res = complex_normal(rng, 6, 1, cols), complex_normal(rng, 6, 1)
        want, _ = pinv_step(jac, res, 1e-12)
        err = np.linalg.norm(_min_norm_step(jac, res, False) - want, axis=1)
        assert np.all(err <= 100 * EPS * np.linalg.norm(want, axis=1))

    @pytest.mark.parametrize("entry, n", [("identity:3", 3), ("identity:4", 2), ("torus:2", 2),
                                          ("curve:3", 2), ("symplectic-surface:4", 3)])
    def test_row_form_on_sampler_jacobians(self, entry, n):
        # J kills the scalar tuples and the trace rows of J^H are zero, both
        # exactly; J x = -mu is consistent by Euler's identity
        rng = np.random.default_rng(n)
        jac, res = sampler_jacobians(rng, entry, n, [1, 1e-1, 1e-2])
        want, cond = pinv_step(jac, res, 1e-10)
        assert cond.max() > 50
        err = np.linalg.norm(_min_norm_step(jac, res, False) - want, axis=1)
        # undamped, the null directions make the solve singular; without the
        # refinement step the damping's bias is 10 eps cond^2
        assert np.all(err <= 100 * EPS * cond * np.linalg.norm(want, axis=1))

    @pytest.mark.parametrize("full_rank", [True, False])
    def test_zero_jacobian_in_the_stack(self, full_rank):
        rng = np.random.default_rng(0)
        if full_rank:
            jac, res = self.conditioned(rng, 3, 14, 8, 10), complex_normal(rng, 3, 14)
        else:
            jac, res = sampler_jacobians(rng, "identity:3", 2, [1, 1, 1])
        jac[1] = 0
        step = _min_norm_step(jac, res, full_rank)
        assert np.all(step[1] == 0)
        want, _ = pinv_step(jac[::2], res[::2], 1e-10)
        err = np.linalg.norm(step[::2] - want, axis=1)
        assert np.all(err <= 1e-11 * np.linalg.norm(want, axis=1))


class TestWitnessSearch:
    def test_single_rank2_generator_immediate(self, monkeypatch):
        calls = count_solves(monkeypatch)
        k = KernelSubspace(6, (Bivector.basis_element(6, 0, 1),))
        out = witness_search(k, SearchConfig(restarts=4))
        assert out.witness is not None
        # the start is the plane of a kernel element, here e0 wedge e1 itself
        assert out.restarts_used == 1 and not calls
        assert projective_distance(out.witness, Bivector.basis_element(6, 0, 1)) < 1e-8

    def test_two_dim_plane_finds_component(self):
        k1 = Bivector.from_pairs(6, {(0, 1): 1, (2, 3): 1})
        k2 = Bivector.from_pairs(6, {(0, 1): 1, (2, 3): -1})
        out = witness_search(KernelSubspace(6, (k1, k2)), SearchConfig(restarts=8))
        assert out.witness is not None
        e01 = Bivector.basis_element(6, 0, 1)
        e23 = Bivector.basis_element(6, 2, 3)
        assert min(projective_distance(out.witness, e01),
                   projective_distance(out.witness, e23)) < 1e-6

    def test_every_returned_witness_passes_the_recheck(self):
        """An accepted restart is within DEFAULT_TOL / 10 of the kernel, so
        its witness passes the re-check at DEFAULT_TOL: at the bound, and one
        below it with a planted u wedge v, at d = 5..8."""
        for d in range(5, 9):
            rng = np.random.default_rng(d)
            bound = comb(d - 2, 2) + 1
            for m in (bound, bound - 1):
                _, cols = random_complex_kernel(rng, d, m)
                if m < bound:
                    u, v = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
                    cols[:, 0] = np.array(wedge(u, v).coeffs, dtype=complex)
                k = KernelSubspace(d, tuple(Bivector(d, tuple(map(complex, c))) for c in cols.T))
                out = witness_search(k, SearchConfig(seed=d))
                assert out.witness is not None
                _verify_witness(pairing_with_kernel(cols, d), out.witness, FLOAT)

    def test_rank4_line_has_no_witness(self):
        gen = Bivector.from_pairs(6, {(0, 1): 1, (2, 3): 1})
        out = witness_search(KernelSubspace(6, (gen,)), SearchConfig(restarts=4))
        assert out.witness is None
        assert out.best_residual > 0.1

    @pytest.mark.parametrize("d", range(4, 10))
    def test_residual_is_the_pairing_of_the_wedge(self, d):
        rng = np.random.default_rng(d)
        ann, a3 = random_annihilator(rng, d, 3)
        uv = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
        res, jac = factor_residual(a3, uv)
        assert res.shape == (3,) and jac.shape == (3, 2, d)
        expected = ann @ np.array(wedge(uv[:, 0], uv[:, 1]).coeffs)
        assert np.allclose(res, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", range(4, 10))
    def test_jacobian_central_difference(self, d):
        rng = np.random.default_rng(d)
        _, a3 = random_annihilator(rng, d, 5)
        uv, delta = (rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
                     for _ in range(2))
        _, jac = factor_residual(a3, uv)
        # the residual is bilinear in (u, v): the central difference is exact
        central = factor_residual(a3, uv + delta)[0] - factor_residual(a3, uv - delta)[0]
        assert np.allclose(central, 2 * np.einsum("wkd,dk->w", jac, delta), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", range(4, 10))
    def test_tangent_system(self, d):
        rng = np.random.default_rng(d)
        ann, a3 = random_annihilator(rng, d, 5)
        a3t = a3.transpose(1, 0, 2).reshape(d, -1)
        g = np.linalg.qr(rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d)))[0]
        res, jac, scale = _tangent_system(a3t, g)
        assert res.shape == (3, 5) and jac.shape == (3, 5, 2 * d - 4)
        for frame, r, j, p_norm in zip(g, res, jac, scale):
            u, v, perp = frame[:, 0], frame[:, 1], frame[:, 2:]
            assert np.allclose(r, ann @ np.array(wedge(u, v).coeffs), rtol=0, atol=1e-12)
            # |P| is the norm of the Jacobian in (u, v) before the projection
            assert np.isclose(p_norm, np.linalg.norm(factor_residual(a3, frame[:, :2])[1]))
            # bilinear again: moving u and v along G_perp, the central
            # difference is exact
            z = rng.standard_normal(2 * d - 4) + 1j * rng.standard_normal(2 * d - 4)
            move = perp @ z.reshape(2, d - 2).T
            central = (factor_residual(a3, frame[:, :2] + move)[0]
                       - factor_residual(a3, frame[:, :2] - move)[0])
            assert np.allclose(central, 2 * j @ z, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["rank4_line", "below_bound"])
    def test_restarts_stop_at_a_stationary_point(self, monkeypatch, case):
        rng = np.random.default_rng(6)
        steps = count_solves(monkeypatch)
        cfg = SearchConfig(restarts=8)
        if case == "rank4_line":
            # decide settles this line by its rank, so the search runs on it alone
            p = planted_kernel_pairing(rng, 6, 14, Bivector.from_pairs(6, {(0, 1): 1, (2, 3): 1}))
            k = kernel(p)
            assert k.dim == 1
            out = witness_search(k, cfg)
            assert out.witness is None and out.restarts_used == 8
        else:
            kd = comb(4, 2)
            p = pairing_with_kernel(random_complex_kernel(rng, 6, kd)[1], 6)
            v = decide(p, cfg=cfg)
            assert (v.status, v.certificate) == (UNKNOWN, CERT_SEARCH_EXHAUSTED)
            assert v.evidence.kernel_dim == kd and v.evidence.restarts_used == 8
        # the Gauss-Newton step is zero at a stationary point: no restart may
        # spin there for the rest of its iterations
        assert sum(steps) < cfg.restarts * cfg.max_iterations / 4

    def test_below_the_bound_one_solve_per_iteration(self, monkeypatch):
        # the restarts run in lockstep: as many stacked solves as the longest
        # restart takes steps, where one at a time, with the same Newton
        # steps, they took one per step
        rng = np.random.default_rng(6)
        k, _ = random_complex_kernel(rng, 6, comb(4, 2))
        cfg = SearchConfig(restarts=8, seed=2)
        sizes = count_solves(monkeypatch)
        out = witness_search(k, cfg)
        lockstep = list(sizes)
        per_restart = []
        search = verdict._gauss_newton

        def alone(a3t, g, cfg, newton):
            before = len(sizes)
            result = search(a3t, g, cfg, newton=True)
            per_restart.append(len(sizes) - before)
            return result

        monkeypatch.setattr(verdict, "dimension_criterion", lambda _: True)
        monkeypatch.setattr(verdict, "_gauss_newton", alone)
        reference = witness_search(k, cfg)
        assert out.witness is None and reference.witness is None
        assert len(per_restart) == cfg.restarts
        assert len(lockstep) == max(per_restart) < sum(per_restart) == sum(lockstep)

    # (d, kernel dimension, seed): below, at and above the bound at d = 5..10
    REFERENCE_CASES = [(d, comb(d - 2, 2) + 1 + shift, d + shift)
                       for d in range(5, 11) for shift in (-1, 0, 1)]

    def test_matches_the_projected_search(self):
        """The tangent-coordinate search and the projected ``lstsq`` search it
        replaced give the same status, restarts and residual, and the same
        witness unless they land on two decomposables of one kernel."""
        other_decomposable = 0
        for d, m, seed in self.REFERENCE_CASES:
            k, _ = random_complex_kernel(np.random.default_rng((d, m, seed)), d, max(m, 1))
            cfg = SearchConfig(restarts=8, seed=seed)
            got, want = witness_search(k, cfg), projected_search(k, cfg)
            assert (got.witness is None) == (want.witness is None)
            assert got.restarts_used == want.restarts_used
            if got.witness is None:
                assert got.best_residual == pytest.approx(want.best_residual, rel=1e-13)
            elif projective_distance(got.witness, want.witness) > 1e-10:
                other_decomposable += 1
                for w in (got.witness, want.witness):
                    _verify_witness(pairing_with_kernel(k_columns(k), d), w, FLOAT)
        assert other_decomposable == 0

    def test_lockstep_matches_one_restart_at_a_time(self, monkeypatch):
        """Below the bound the restarts run in lockstep; run one at a time, as
        at the bound, with the same step rule, Newton or Gauss-Newton, they
        give the same result."""
        cases = [k for k, _ in planted_search_kernels()[:30:5]]
        cases += [random_complex_kernel(np.random.default_rng(d), d, comb(d - 2, 2))[0]
                  for d in (5, 6, 7)]
        search = verdict._gauss_newton
        for newton in (True, False):
            monkeypatch.setattr(verdict, "_gauss_newton",
                                lambda a3t, g, cfg, newton, _rule=newton:
                                search(a3t, g, cfg, newton=_rule))
            for k in cases:
                cfg = SearchConfig(restarts=8, seed=k.dim_v)
                for bound in (False, True):
                    monkeypatch.setattr(verdict, "dimension_criterion", lambda _, b=bound: b)
                    out = witness_search(k, cfg)
                    if not bound:
                        lockstep = out
                assert (out.witness is None) == (lockstep.witness is None)
                assert out.restarts_used == lockstep.restarts_used
                assert out.best_residual == pytest.approx(lockstep.best_residual, rel=1e-12,
                                                          abs=1e-30)
                if out.witness is not None:
                    assert np.allclose(out.witness.coeffs, lockstep.witness.coeffs, rtol=0,
                                       atol=1e-12)

    @pytest.mark.parametrize("d", range(5, 9))
    def test_newton_system_central_difference(self, d):
        """grad f = 2 b and hess f = 2 H for the objective
        f(z) = |a(u' wedge v')|^2 / det([u' v']^H [u' v']) of the plane moved
        to [u' v'] = [u v] + G_perp Z, by central differences; G is the real
        form [[Re A, -Im A], [Im A, Re A]] of A = J^H J."""
        rng = np.random.default_rng(d)
        r = comb(d, 2) - comb(d - 2, 2)
        _, a3 = random_annihilator(rng, d, r)
        a3t = a3.transpose(1, 0, 2).reshape(d, -1)
        g = np.linalg.qr(complex_normal(rng, 2, d, d))[0]
        res, jac, _ = _tangent_system(a3t, g)
        grad = (np.swapaxes(jac.conj(), 1, 2) @ res[..., None])[..., 0]
        gram, hess, b = _newton_system(a3.reshape(r, -1), g, jac, res, grad)
        h, eps = d - 2, 1e-4
        for frame, j, gm, hs, bb in zip(g, jac, gram, hess, b):
            a = j.conj().T @ j
            assert np.array_equal(gm, np.block([[a.real, -a.imag], [a.imag, a.real]]))

            def f(xy):
                z = (xy[:2 * h] + 1j * xy[2 * h:]).reshape(2, h).T
                uv = frame[:, :2] + frame[:, 2:] @ z
                res_z = np.einsum("wij,i,j->w", a3, uv[:, 0], uv[:, 1])
                return np.linalg.norm(res_z) ** 2 / np.linalg.det(uv.conj().T @ uv).real

            e = eps * np.eye(4 * h)
            grad_f = np.array([f(x) - f(-x) for x in e]) / (2 * eps)
            hess_f = np.array([[f(x + y) - f(x - y) - f(y - x) + f(-x - y) for y in e]
                               for x in e]) / (4 * eps ** 2)
            assert np.allclose(grad_f, 2 * bb, rtol=0, atol=1e-6 * np.abs(grad_f).max())
            assert np.allclose(hess_f, 2 * hs, rtol=0, atol=1e-6 * np.abs(hess_f).max())

    @pytest.mark.parametrize("d", range(5, 15))
    def test_newton_system_matches_the_gathered_reference(self, d):
        """The block construction of G and H equals the gather from one real
        row [J^H J, K, 0] bit for bit, the sign of each zero included."""
        rng = np.random.default_rng(d)
        r = comb(d, 2) - comb(d - 2, 2) - 1
        _, a3 = random_annihilator(rng, d, r)
        a3t = a3.transpose(1, 0, 2).reshape(d, -1)
        g = np.linalg.qr(complex_normal(rng, 16, d, d))[0]
        res, jac, _ = _tangent_system(a3t, g)
        grad = (np.swapaxes(jac.conj(), 1, 2) @ res[..., None])[..., 0]
        got = _newton_system(a3.reshape(r, -1), g, jac, res, grad)
        want = gathered_newton_system(a3.reshape(r, -1), g, jac, res, grad)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)
            assert np.array_equal(np.signbit(x), np.signbit(y))

    def test_newton_step_only_where_the_hessian_is_positive_definite(self):
        """A frame whose real Hessian is positive definite takes the Newton
        step; any other takes the damped Gauss-Newton step, equal to the
        complex column form of _min_norm_step.  Frames near a planted
        decomposable of the kernel have a small residual and a positive
        definite Hessian, random ones mostly do not."""
        kinds = set()
        for d in (5, 6, 7):
            rng = np.random.default_rng(d)
            u, v = complex_normal(rng, 2, d)
            cols = complex_normal(rng, comb(d, 2), comb(d - 2, 2))
            cols[:, 0] = wedge(u, v).coeffs
            ann = np.linalg.qr(cols, mode="complete")[0][:, cols.shape[1]:].conj().T
            a3 = skew(ann, d)
            r = len(a3)
            a3t = a3.transpose(1, 0, 2).reshape(d, -1)
            near = np.column_stack([u, v]) + 1e-3 * complex_normal(rng, d, 2)
            frames = [np.column_stack([near, complex_normal(rng, d, d - 2)]) for _ in range(4)]
            frames += list(complex_normal(rng, 4, d, d))
            g = np.linalg.qr(np.array(frames))[0]
            res, jac, _ = _tangent_system(a3t, g)
            grad = (np.swapaxes(jac.conj(), 1, 2) @ res[..., None])[..., 0]
            step = _newton_step(a3.reshape(r, -1), g, jac, res, grad)
            _, hess, b = _newton_system(a3.reshape(r, -1), g, jac, res, grad)
            gauss = _min_norm_step(jac, res, True)
            for i, z in enumerate(step):
                pd = np.linalg.eigvalsh(hess[i])[0] > 0
                kinds.add(bool(pd))
                xy = np.linalg.solve(hess[i], -b[i])
                want = xy[:2 * d - 4] + 1j * xy[2 * d - 4:] if pd else gauss[i]
                assert np.allclose(z, want, rtol=1e-9, atol=0)
        assert kinds == {True, False}

    def test_newton_only_below_the_bound(self, monkeypatch):
        """The Newton step, and with it the Cholesky test, runs below the
        dimension bound only."""
        calls = []
        test = verdict._positive_definite
        monkeypatch.setattr(verdict, "_positive_definite",
                            lambda hess: (calls.append(len(hess)), test(hess))[1])
        for shift in (0, 1, -1):
            calls.clear()
            k, _ = random_complex_kernel(np.random.default_rng(shift + 2), 7, 11 + shift)
            witness_search(k, SearchConfig(restarts=4, seed=1))
            assert bool(calls) == (shift < 0)

    def test_newton_halves_the_iterations_below_the_bound(self, monkeypatch):
        """Below the bound the restarts end at stationary points with a
        nonzero residual, where Gauss-Newton converges only linearly: the
        Newton steps take less than half its lockstep iterations."""
        iterations = {}
        search = verdict._gauss_newton
        for newton in (False, True):
            sizes = count_solves(monkeypatch)
            monkeypatch.setattr(verdict, "_gauss_newton",
                                lambda a3t, g, cfg, newton, _rule=newton:
                                search(a3t, g, cfg, newton=_rule))
            for d in (6, 7):
                k, _ = random_complex_kernel(np.random.default_rng(d), d, comb(d - 2, 2))
                assert witness_search(k, SearchConfig(restarts=8, seed=d)).witness is None
            iterations[newton] = len(sizes)
            monkeypatch.undo()
        assert 2 * iterations[True] < iterations[False]

    def test_search_memory_at_the_bound(self):
        # d = 14 at the dimension bound: a q x m x m Plucker tensor would take
        # 1001 x 67 x 67 complex entries, over 70 MB
        d = 14
        k, _ = random_complex_kernel(np.random.default_rng(14), d, comb(d - 2, 2) + 1)
        tracemalloc.start()
        try:
            out = witness_search(k, SearchConfig(restarts=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.witness is not None
        assert peak < 32e6

    def test_search_memory_at_d20(self):
        # d = 20 at the dimension bound: the (r, d, d) annihilator has
        # 36 x 20 x 20 complex entries, 0.2 MB
        d = 20
        k, _ = random_complex_kernel(np.random.default_rng(20), d, comb(d - 2, 2) + 1)
        tracemalloc.start()
        try:
            out = witness_search(k, SearchConfig(restarts=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.witness is not None
        assert peak < 8e6

    @pytest.mark.parametrize("d", [5, 8, 11])
    def test_witness_is_a_unit_wedge_of_an_orthonormal_frame(self, d):
        k, _ = random_complex_kernel(np.random.default_rng(d), d, comb(d - 2, 2) + 1)
        out = witness_search(k, SearchConfig(restarts=8))
        assert out.witness is not None
        s = np.linalg.svd(out.witness.skew_matrix(), compute_uv=False)
        assert np.allclose(s[:2], 1, rtol=0, atol=1e-12)
        assert np.all(s[2:] < 1e-12)

    @pytest.mark.parametrize("bound", [True, False])
    def test_a_rational_kernel_is_rounded_once(self, bound):
        # integers of about 61 bits over den 3: float(x) / 3 rounds twice and
        # moves the basis, so the search must start from complex(Fraction(x, 3))
        rng = np.random.default_rng(60)
        d = 6
        k = comb(d - 2, 2) + (1 if bound else -1)
        width = comb(d, 2)
        rows = [tuple(Fraction((int(x) << 54) + int(y), 3) for x, y in
                      zip(rng.integers(-99, 100, width), rng.integers(1, 1 << 20, width)))
                for _ in range(k)]
        exact = KernelSubspace(d, tuple(Bivector(d, r) for r in rows))
        assert exact.den == 3 and exact.is_rational()
        floated = KernelSubspace(d, tuple(Bivector(d, tuple(map(complex, r))) for r in rows))
        assert not (to_float(exact.values) / 3 == floated.values).all()
        cfg = SearchConfig(restarts=2, max_iterations=20)
        got, want = witness_search(exact, cfg), witness_search(floated, cfg)
        assert got.best_residual == want.best_residual
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert got.witness.values.tobytes() == want.witness.values.tobytes()

    def test_planted_kernels_below_the_bound(self):
        kernels = planted_search_kernels()
        found = 0
        for k, plant in kernels:
            out = witness_search(k, SearchConfig(restarts=16))
            if out.witness is not None:
                found += 1
                # below the bound the planted line is the only decomposable one
                assert projective_distance(out.witness, plant) < 1e-6
        # the Plucker-quadric search this one replaced found 57 of these 60
        # (it missed kernels 22, 32 and 58)
        assert found >= 57


def cholesky_passes(m) -> bool:
    try:
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        return False


class TestSearchGufuncs:
    """The search calls numpy's private linalg gufuncs, in place of the
    public wrappers; these tests pin what it relies on, so that a numpy
    release that changes them fails here."""

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_positive_definite_is_the_cholesky_test(self, n):
        """On stacks that mix positive definite, indefinite and singular
        semidefinite matrices, the one stacked test agrees with a Cholesky
        per matrix, and warns of no failed factorization, which the gufunc
        alone does."""
        rng = np.random.default_rng(n)
        x = rng.standard_normal((12, n, n))
        y = rng.standard_normal((12, n, n - 1)) if n > 1 else np.zeros((12, 1, 1))
        stack = np.concatenate([x[:4] @ x[:4].transpose(0, 2, 1) + np.eye(n),
                                x[4:8] + x[4:8].transpose(0, 2, 1) - n * np.eye(n),
                                y[8:] @ y[8:].transpose(0, 2, 1)])[rng.permutation(12)]
        want = [cholesky_passes(m) for m in stack]
        assert True in want and False in want
        with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert _positive_definite(stack).tolist() == want
            with pytest.warns(RuntimeWarning):
                np.linalg._umath_linalg.cholesky_lo(stack, signature="d->d")

    @pytest.mark.parametrize("d", [3, 5, 8, 14])
    def test_complete_q_is_numpy_qr(self, d):
        """The frame update's Q is ``np.linalg.qr(..., mode="complete")``'s,
        bit for bit, the signs of zeros too."""
        rng = np.random.default_rng(d)
        g = np.linalg.qr(complex_normal(rng, 6, d, d))[0]
        z = complex_normal(rng, 6, d - 2, 2)
        frames = g[:, :, :2] + g[:, :, 2:] @ z
        want = np.linalg.qr(frames, mode="complete")[0]
        got = _complete_q(frames.copy())
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


class TestWitnessToTuple:
    def test_basis_witness_n2(self):
        p = kernel_line_pairing(2)
        omega = Bivector.basis_element(2, 0, 1)
        alpha = witness_to_tuple(omega, 2)
        t = regular_sl2_triple(2)
        assert all(np.all(m == 0) for m in mu(alpha, p))
        (c,) = chi(alpha)
        assert np.all(c == t.h) or np.all(c == -t.h)

    def test_zero_padding_in_larger_v(self):
        omega = Bivector.basis_element(5, 0, 1)
        alpha = witness_to_tuple(omega, 2)
        for m in alpha.matrices[2:]:
            assert np.all(m == 0)

    def test_n4_irreducible(self):
        alpha = witness_to_tuple(Bivector.basis_element(3, 0, 1), 4)
        out = rep_analysis(alpha, EXACT)
        assert out.commutant_dim == 1 and out.algebra_dim == 16 and out.stable

    def test_scaled_witness(self):
        omega = 2 * Bivector.basis_element(3, 0, 1)
        alpha = witness_to_tuple(omega, 2)
        t = regular_sl2_triple(2)
        (c01, c02, c12) = chi(alpha)
        assert np.all(c01 == 2 * t.h)
        assert np.all(c02 == 0) and np.all(c12 == 0)

    def test_generic_rank2_exact_factorization(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            d = int(rng.integers(3, 7))
            omega, _, _ = random_rank2_bivector(rng, d)
            alpha = witness_to_tuple(omega, 2)
            coeffs = [c[0, 1] for c in chi(alpha)]
            rebuilt = Bivector(d, tuple(coeffs))
            # chi recovers omega times the (0,1) entry of h, which is zero;
            # use the full h-coefficient instead
            contraction = [np.all(c == x * regular_sl2_triple(2).h)
                           for c, x in zip(chi(alpha), omega.coeffs)]
            assert all(contraction)

    def test_rank_not_two_rejected(self):
        with pytest.raises(ValueError):
            witness_to_tuple(Bivector.from_pairs(4, {(0, 1): 1, (2, 3): 1}), 2)
        with pytest.raises(ValueError):
            witness_to_tuple(Bivector.zero(3), 2)


class TestRank2FactorFloat:
    """exterior.rank2_factor in float mode, checked at the bivector's own norm."""

    @staticmethod
    def scaled_wedge(norm):
        rng = np.random.default_rng(17)
        u, v = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        w = np.array(wedge(u, v).coeffs)
        return Bivector(6, tuple(complex(z) for z in norm * w / np.linalg.norm(w)))

    @pytest.mark.parametrize("norm", [1e-11, 1.0, 1e6])
    def test_factor_reconstructs_the_witness(self, norm):
        omega = self.scaled_wedge(norm)
        u, v = rank2_factor(omega, FLOAT)
        rebuilt = np.array(wedge(u, v).coeffs)
        assert np.linalg.norm(rebuilt - np.array(omega.coeffs)) < 1e-12 * norm

    @pytest.mark.parametrize("pivot", [
        2.225073858507203e-309 * (1 + 1j), 5e-324, -3e-310j, 0.75 - 2j])
    def test_factor_at_the_pivots_own_exponent(self, pivot):
        # 1 / |a| inside numpy's division overflows for a subnormal pivot a
        omega = Bivector.from_pairs(4, {(0, 3): pivot, (1, 3): pivot / 2})
        u, v = rank2_factor(omega, FLOAT)
        rebuilt = np.array(wedge(u, v).coeffs) - np.array(omega.coeffs)
        assert np.abs(rebuilt).max() <= 1e-15 * abs(pivot)

    def test_wrong_factor_of_a_small_witness_refused(self):
        # a rank-4 bivector has no factorization; the rank-2 part taken from
        # its largest entry misses it by about its own norm of 1e-11
        omega = Bivector.from_pairs(4, {(0, 1): 2e-11, (2, 3): 1e-11})
        assert rank2_factor(omega, FLOAT) is None

    def test_rounding_noise_entry_is_not_the_pivot(self):
        # u wedge v has (0, 1) entry u0 v1 - u1 v0 = 0, up to rounding noise;
        # dividing by that entry would blow the factors up by 1e17
        u, v = np.array([1.0, 0, 1, 2, 0]), np.array([0, 0, 1, -1, 3.0])
        coeffs = list(wedge(u, v).coeffs)
        coeffs[0] = 1e-17
        omega = Bivector(5, tuple(complex(c) for c in coeffs))
        f, g = rank2_factor(omega, FLOAT)
        rebuilt = np.array(wedge(f, g).coeffs)
        assert np.linalg.norm(rebuilt - np.array(omega.coeffs)) < 1e-12

    def test_exact_factor_of_an_int_witness(self):
        # int coefficients: the division by the pivot -7 must stay exact
        omega = wedge([1, 2, 0, -1], [3, -1, 2, 1])
        assert all(type(c) is int for c in omega.coeffs)
        u, v = rank2_factor(omega, EXACT)
        assert all(isinstance(x, Fraction) for x in (*u, *v))
        assert wedge(u, v) == omega

    def test_check_has_no_absolute_floor(self):
        assert "max(1.0" not in inspect.getsource(rank2_factor)

    @pytest.mark.parametrize("omega", [Bivector.zero(4), Bivector.zero(1),
                                       Bivector(3, (0j, 0j, 0j))])
    def test_zero_has_no_factors(self, omega):
        assert rank2_factor(omega, FLOAT) is None
        if omega.is_rational():
            assert rank2_factor(omega, EXACT) is None


def fraction_formula(omega):
    """The factors as the Fraction matrix gives them: u = m[:, j1] / a and
    v = m[:, j2], a = m[j1, j2] the first largest |entry| of m."""
    m = exact_matrix(omega.skew_matrix())
    j1, j2 = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    return m[:, j1] / m[j1, j2], m[:, j2], m[j1, j2]


def fraction_bits(x):
    return [(type(c), c.numerator, c.denominator) for c in x]


class TestRank2FactorExact:
    """exterior.rank2_factor on rational input: a test in cleared integers."""

    @pytest.mark.parametrize("omega, pivot", [
        # ints, den 1, pivot -7
        (wedge([1, 2, 0, -1], [3, -1, 2, 1]), -7),
        # den 24, pivot -25/12
        (wedge([Fraction(1, 2), 0, Fraction(-3, 4), 1], [2, Fraction(5, 3), 0, Fraction(-1, 6)]),
         Fraction(-25, 12)),
    ])
    def test_factors_are_the_fraction_formula_bit_for_bit(self, omega, pivot):
        u, v, a = fraction_formula(omega)
        assert a == pivot
        got = rank2_factor(omega, EXACT)
        assert fraction_bits(got[0]) == fraction_bits(u)
        assert fraction_bits(got[1]) == fraction_bits(v)
        assert wedge(*got) == omega

    @pytest.mark.parametrize("pairs", [
        {(0, 1): 1, (2, 3): 1},
        {(0, 1): Fraction(1, 3), (2, 3): Fraction(-1, 10**30)},
        {(0, 1): 1, (0, 2): 1, (1, 2): 1, (3, 4): 1},
    ])
    def test_rank_four_has_no_factors(self, pairs):
        omega = Bivector.from_pairs(5, pairs)
        assert bivector_rank(omega, EXACT) == 4
        assert rank2_factor(omega, EXACT) is None

    def test_agrees_with_the_rank_on_random_bivectors(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            d = int(rng.integers(2, 7))
            if rng.random() < 0.5:
                u, v = (rng.integers(-3, 4, size=d).tolist() for _ in range(2))
                omega = wedge(u, v)
            else:
                omega = Bivector(d, tuple(int(x) for x in rng.integers(-2, 3, size=d * (d - 1) // 2)))
            omega = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))) * omega
            got = rank2_factor(omega, EXACT)
            assert (got is not None) == (bivector_rank(omega, EXACT) == 2)
            if got is not None:
                assert wedge(*got) == omega


class TestRankTwoTestNeedsNoElimination:
    """With the kernel taken, the exact rank-2 questions are answered by the
    factorization alone: they run with the modular elimination disabled."""

    @staticmethod
    def disable_rref(monkeypatch):
        def refuse(a):
            raise AssertionError("the rank-2 test ran an elimination")
        monkeypatch.setattr(scalars, "_rref", refuse)

    @staticmethod
    def line_pairing(omega):
        """A rational pairing whose kernel is the line through omega."""
        ann = scalars.nullspace(np.array([omega.coeffs], dtype=object), EXACT)
        return SkewPairing(omega.dim_v, len(ann), tuple(zip(*(tuple(v) for v in ann))))

    @pytest.mark.parametrize("omega, kind", [
        (wedge([1, 2, 0, -1], [3, -1, 2, 1]), "yes"),
        (Bivector.from_pairs(4, {(0, 1): 1, (2, 3): 1}), "no"),
    ])
    def test_line_decision_at_d4(self, monkeypatch, omega, kind):
        k = kernel(self.line_pairing(omega), EXACT)
        assert k.dim == 1
        self.disable_rref(monkeypatch)
        dec = decomposable_exists_exact(k, EXACT)
        assert dec.kind == kind
        assert dec.witness == (k.basis[0] if kind == "yes" else None)

    def test_pencil_witness_recheck(self, monkeypatch):
        rng = np.random.default_rng(105)
        plant = wedge(*(rng.integers(-3, 4, size=5).tolist() for _ in range(2)))
        r = Bivector(5, tuple(int(x) for x in rng.integers(-3, 4, size=10)))
        k1, k2 = r, plant - Fraction(3, 2) * r
        ann = scalars.nullspace(np.array([k1.coeffs, k2.coeffs], dtype=object), EXACT)
        p = SkewPairing(5, len(ann), tuple(zip(*(tuple(v) for v in ann))))
        dec = decomposable_exists_exact(kernel(p, EXACT), EXACT)
        assert dec.kind == "yes" and dec.witness.is_rational()
        # k1 lies in the kernel and has rank 4: the re-check refuses it
        assert bivector_rank(k1, EXACT) == 4
        self.disable_rref(monkeypatch)
        verdict._verify_witness(p, dec.witness, EXACT)
        with pytest.raises(WitnessVerificationError, match="rank 2"):
            verdict._verify_witness(p, k1, EXACT)

    def test_witness_to_tuple(self, monkeypatch):
        omega = wedge([Fraction(1, 2), 0, Fraction(-3, 4), 1], [2, Fraction(5, 3), 0, -1])
        want = witness_to_tuple(omega, 3, EXACT)
        self.disable_rref(monkeypatch)
        got = witness_to_tuple(omega, 3, EXACT)
        assert all(np.array_equal(a, b) for a, b in zip(got.matrices, want.matrices))
        assert all(type(x) is Fraction for m in got.matrices for x in m.flat)
        with pytest.raises(ValueError, match="rank exactly 2"):
            witness_to_tuple(Bivector.from_pairs(4, {(0, 1): 1, (2, 3): 1}), 3, EXACT)

class TestTupleToWitness:
    def test_commuting_returns_none(self):
        alpha = MatrixTuple.from_matrices(
            [exact_matrix(np.diag([1, 2])), exact_matrix(np.diag([3, 4]))])
        assert tuple_to_witness(alpha, kernel_line_pairing(2)) is None

    def test_roundtrip_recovers_projective_point(self):
        p = kernel_line_pairing(2)
        omega = Bivector.basis_element(2, 0, 1)
        alpha = witness_to_tuple(omega, 2)
        back = tuple_to_witness(alpha, p)
        assert back is not None
        assert not back.is_zero()
        assert projective_distance(back, omega) < 1e-12

    def test_roundtrip_generic(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = int(rng.integers(3, 7))
            omega, _, _ = random_rank2_bivector(rng, d)
            p = planted_kernel_pairing(rng, d, int(rng.integers(1, 4)), omega)
            alpha = witness_to_tuple(omega, 2)
            back = tuple_to_witness(alpha, p)
            assert back is not None
            assert bivector_rank(back, EXACT) == 2
            assert projective_distance(back, omega) < 1e-8
            assert all(x == 0 for x in apply(p, back))

    def test_values_beyond_the_float_range(self):
        # rational mode takes no float scale of the tuple, its mu or its chi
        big = 10 ** 400
        commuting = MatrixTuple.from_matrices([exact_matrix([[big, 0], [0, 1]])] * 2)
        assert tuple_to_witness(commuting, kernel_line_pairing(2)) is None
        omega = Bivector(2, (big,))
        back = tuple_to_witness(witness_to_tuple(omega, 2), kernel_line_pairing(2))
        assert back is not None and back.coeffs[0] != 0

    def test_mu_nonzero_rejected(self):
        alpha = witness_to_tuple(Bivector.basis_element(2, 0, 1), 2)
        with pytest.raises(MuNonzeroError):
            tuple_to_witness(alpha, symplectic_pairing(2))

    @pytest.mark.parametrize("s", [1e-200, 1.0, 1e100, 1e200])
    def test_mu_nonzero_rejected_across_the_float_range(self, s):
        # mu is judged at unit size: at 1e-200 it would underflow to zero
        p = catalog_build("curve", ("2",)).pairing
        rng = np.random.default_rng(1)
        alpha = MatrixTuple.from_matrices(rng.standard_normal((p.dim_v, 2, 2))
                                          + 1j * rng.standard_normal((p.dim_v, 2, 2)))
        with pytest.raises(MuNonzeroError):
            tuple_to_witness(alpha.scaled(s), p)

    def test_n2_witness_rank_exactly_two(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            d = 5
            omega, _, _ = random_rank2_bivector(rng, d)
            p = planted_kernel_pairing(rng, d, 2, omega)
            alpha = witness_to_tuple(omega, 2)
            back = tuple_to_witness(alpha, p)
            assert back is not None and bivector_rank(back, EXACT) == 2


def _reference_witness(alpha, p, mode):
    """The contraction scan written out: E_ab for a != b, then
    E_aa - E_(a+1)(a+1), each through trace_contraction, and the first value
    that does not vanish at chi_norm times the matrix's norm (rank exactly 2
    for n = 2)."""
    if is_commuting(alpha, mode):
        return None
    n = alpha.n
    one = Fraction(1) if mode.is_exact else 1.0 + 0j
    scan = []
    for a in range(n):
        for b in range(n):
            if a != b:
                h = zeros((n, n), mode)
                h[a, b] = one
                scan.append(h)
    for a in range(n - 1):
        h = zeros((n, n), mode)
        h[a, a], h[a + 1, a + 1] = one, -one
        scan.append(h)
    chiscale = chi_norm(alpha)
    for h in scan:
        w = trace_contraction(alpha, h)
        if mode.vanishes([w.coeffs], chiscale * frobenius(h)):
            continue
        if n == 2 and bivector_rank(w, mode) != 2:
            continue
        return w
    return None


def _float_conjugate(alpha, rng):
    n = alpha.n
    q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
    return MatrixTuple.from_matrices(
        [q @ to_float(m) @ np.linalg.inv(q) for m in alpha.matrices])


def _exact_conjugate(alpha, rng):
    p, pinv = unitriangular_pair(rng, alpha.n)
    return MatrixTuple.from_matrices([p @ m @ pinv for m in alpha.matrices])


def _block_sum(alpha, beta):
    """The direct sum of two tuples of one length."""
    n = alpha.n + beta.n
    mats = []
    for a, b in zip(alpha.matrices, beta.matrices):
        m = zeros((n, n), EXACT)
        m[:alpha.n, :alpha.n], m[alpha.n:, alpha.n:] = a, b
        mats.append(m)
    return MatrixTuple.from_matrices(mats)


class TestTupleToWitnessReadsCommutators:
    def test_matches_the_contraction_scan(self):
        rng = np.random.default_rng(71)
        found = 0
        for trial in range(24):
            d, n = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            omega, _, _ = random_rank2_bivector(rng, d)
            p = planted_kernel_pairing(rng, d, int(rng.integers(1, 4)), omega)
            # an sl2 tuple, a 4 x 4 direct sum of two scaled apart, or a
            # commuting diagonal tuple
            kind = trial % 3
            if kind == 0:
                alpha = witness_to_tuple(omega, n)
            elif kind == 1:
                alpha = _block_sum(witness_to_tuple(omega, 2).scaled(int(rng.integers(2, 4))),
                                   witness_to_tuple(omega, 2))
            else:
                alpha = MatrixTuple.from_matrices(
                    [exact_matrix(np.diag(rng.integers(-3, 4, size=n))) for _ in range(d)])
            for mode, tup in ((EXACT, alpha), (EXACT, _exact_conjugate(alpha, rng)),
                              (FLOAT, alpha.to_float()), (FLOAT, _float_conjugate(alpha, rng))):
                got = tuple_to_witness(tup, p, mode)
                assert got == _reference_witness(tup, p, mode)
                found += got is not None
        assert found >= 40

    def test_diagonal_candidate_threshold_is_sqrt2_chi_norm(self):
        # chi = diag(1, t^2, -t^2, -1) with 1 - t^2 = 2.4e-8: the first diagonal
        # difference lies between 1 and sqrt 2 times tol * chi_norm, so it
        # vanishes, and the second, 2 t^2, is the witness
        t = np.sqrt(1 - 2.4e-8)
        a1, a2 = np.zeros((4, 4), complex), np.zeros((4, 4), complex)
        a1[0, 3], a1[1, 2], a2[3, 0], a2[2, 1] = 1, t, 1, t
        alpha = MatrixTuple.from_matrices([a1, a2])
        p = SkewPairing.zero(2, 1)
        w = tuple_to_witness(alpha, p, FLOAT)
        assert w == _reference_witness(alpha, p, FLOAT)
        assert abs(w.coeffs[0] - 2) < 1e-6

    @given(d=st.integers(2, 6), n=st.integers(2, 4), seed=st.integers(0, 2**16),
           exact=st.booleans())
    def test_conjugated_sl2_tuples_give_a_witness(self, d, n, seed, exact):
        rng = np.random.default_rng(seed)
        omega, _, _ = random_rank2_bivector(rng, d)
        p = planted_kernel_pairing(rng, d, int(rng.integers(1, 4)), omega)
        alpha = witness_to_tuple(omega, n)
        alpha = _exact_conjugate(alpha, rng) if exact else _float_conjugate(alpha, rng)
        w = tuple_to_witness(alpha, p)
        assert w is not None
        assert projective_distance(w, omega) < 1e-8


def times_two_to(x, k):
    """A complex array times 2^k, exactly: part by part, as np.ldexp scales."""
    return np.ldexp(np.ascontiguousarray(x, dtype=complex).view(float), k).view(complex)


class TestWitnessChecksAcrossTheFloatRange:
    """The kernel re-check, the rank-2 test, the pencil rule and the
    contraction read their floats at unit size, so entries near 1e+-200,
    whose squares leave the float range, get the answers of scale 1."""

    SL2 = witness_to_tuple(Bivector.basis_element(4, 0, 1), 2, FLOAT)
    ZERO = catalog_build("zero", ("4", "1")).pairing

    @pytest.mark.parametrize("s", [1e-200, 1e160, 1e200])
    def test_in_kernel(self, s):
        rng = np.random.default_rng(3)
        p = SkewPairing.from_matrix(5, complex_normal(rng, 3, 10))
        outside, inside = complex_normal(rng, 10), kernel(p, FLOAT).values[0]
        for q in (p, SkewPairing.from_matrix(5, s * p.values)):
            assert not _in_kernel(q, Bivector(5, tuple(s * outside)), FLOAT)
            assert _in_kernel(q, Bivector(5, tuple(s * inside)), FLOAT)

    @pytest.mark.parametrize("s", [1e-200, 1e-160, 1e160, 1e200])
    def test_rank2_factor(self, s):
        for t in (1.0, 1e-5):
            assert rank2_factor(Bivector.from_pairs(4, {(0, 1): s, (2, 3): t * s}), FLOAT) is None
        u, v = complex_normal(np.random.default_rng(4), 2, 5)
        omega = Bivector(5, tuple(s * np.array(wedge(u, v).coeffs)))
        rebuilt = np.array(wedge(*rank2_factor(omega, FLOAT)).coeffs)
        assert np.abs(rebuilt - omega.values).max() <= 1e-14 * np.abs(omega.values).max()

    @pytest.mark.parametrize("s", [1e-120, 1e-200, 1e200])
    def test_pencil_rule(self, s):
        def pencil(t):
            return KernelSubspace(4, [Bivector.from_pairs(4, {(0, 1): t, (2, 3): t}),
                                      Bivector.from_pairs(4, {(0, 2): t, (1, 3): t})])
        want, got = (decomposable_exists_exact(pencil(t), FLOAT) for t in (1.0, s))
        assert got.kind == want.kind == "yes"
        unit = Bivector(4, tuple(got.witness.values / s))
        assert rank2_factor(unit, FLOAT) is not None
        assert projective_distance(unit, want.witness) < 1e-12

    @pytest.mark.parametrize("s", [1e-90, 1e-100, 1e100, 1e153])
    def test_tuple_to_witness(self, s):
        want = tuple_to_witness(self.SL2, self.ZERO)
        got = tuple_to_witness(self.SL2.scaled(s), self.ZERO)
        assert got is not None
        assert np.abs(got.values / s / s - want.values).max() <= 1e-15 * np.abs(want.values).max()

    @pytest.mark.parametrize("k", [-500, -7, 0, 5, 500])
    def test_tuple_to_witness_scales_back_exactly(self, k):
        want = tuple_to_witness(self.SL2, self.ZERO)
        got = tuple_to_witness(self.SL2.scaled(2.0 ** k), self.ZERO)
        assert got.values.tobytes() == times_two_to(want.values, 2 * k).tobytes()

    @pytest.mark.parametrize("s", [1e155, 1e-200])
    def test_tuple_to_witness_refuses_a_witness_beyond_the_float_range(self, s):
        # None would say that the tuple commutes
        with pytest.raises(PreconditionError, match="outside the float range"):
            tuple_to_witness(self.SL2.scaled(s), self.ZERO)

    @classmethod
    def decisions(cls, p, bivectors, tuples, j, k):
        """The float decisions on the objects, p scaled by 2^j and the rest by 2^k."""
        q = SkewPairing.from_matrix(p.dim_v, times_two_to(p.values, j))
        out, in_, rank2, rank4 = (Bivector(4, times_two_to(w.values, k)) for w in bivectors)
        pencil = decomposable_exists_exact(KernelSubspace(4, [rank4, out]), FLOAT)
        return (
            _in_kernel(q, out, FLOAT), _in_kernel(q, in_, FLOAT),
            rank2_factor(rank2, FLOAT) is not None, rank2_factor(rank4, FLOAT) is not None,
            pencil.kind, times_two_to(pencil.witness.values, -k).tobytes(),
            *(decomposable_exists_exact(KernelSubspace(4, [w]), FLOAT).kind
              for w in (rank2, rank4)),
            *(tuple_to_witness(MatrixTuple.from_matrices(times_two_to(t, k)), cls.ZERO) is None
              for t in tuples))

    @given(seed=st.integers(0, 2**16), j=st.integers(-450, 450), k=st.integers(-450, 450))
    def test_scaling_by_a_power_of_two_changes_no_decision(self, seed, j, k):
        rng = np.random.default_rng(seed)
        p = SkewPairing.from_matrix(4, complex_normal(rng, 2, 6))
        u, v = complex_normal(rng, 2, 4)
        bivectors = [Bivector(4, complex_normal(rng, 6)), Bivector(4, kernel(p, FLOAT).values[0]),
                     wedge(u, v), Bivector(4, complex_normal(rng, 6))]
        # a random tuple, which has mu = 0 on the zero pairing, and a commuting one
        tuples = [complex_normal(rng, 4, 2, 2),
                  np.array([np.diag(x) for x in complex_normal(rng, 4, 2)])]
        assert (self.decisions(p, bivectors, tuples, j, k)
                == self.decisions(p, bivectors, tuples, 0, 0))


class TestMuZeroAtThePairingsSize:
    """mu is quadratic in the tuple and linear in the pairing, so the sampler
    and tuple_to_witness judge |mu| at |A|^2 |C|, on the pairing at unit size,
    |C| its largest real or imaginary part; a sample reports its residual
    for the pairing as given."""

    SAMPLER = SearchConfig(restarts=8, seed=3)

    @given(seed=st.integers(0, 2**16), k=st.integers(-300, 300))
    def test_scaling_the_pairing_by_a_power_of_two_scales_only_the_residuals(self, seed, k):
        rng = np.random.default_rng(seed)
        p = SkewPairing.from_matrix(4, complex_normal(rng, 2, 6))
        cfg = SearchConfig(restarts=3, seed=seed)
        want = mu_zero_sampler(p, 2, cfg)
        got = mu_zero_sampler(SkewPairing.from_matrix(4, times_two_to(p.values, k)), 2, cfg)
        assert (got.attempted, got.converged) == (want.attempted, want.converged)
        for g, w in zip(got.samples, want.samples):
            assert g.alpha.values.tobytes() == w.alpha.values.tobytes()
            assert (g.commuting, g.chi_residual) == (w.commuting, w.chi_residual)
            assert g.mu_residual == np.ldexp(w.mu_residual, k)

    @pytest.mark.parametrize("s", [1e-9, 1e-4, 1e12])
    def test_samples_have_mu_zero_at_the_pairings_size(self, s):
        p = symplectic_pair_pairing(s)
        out = mu_zero_sampler(p, 3, self.SAMPLER)
        assert out.converged == out.attempted == 8
        for sample in out.samples:
            scale = max(map(frobenius, sample.alpha.values))
            assert frobenius(mu(sample.alpha, p)) <= DEFAULT_TOL * scale ** 2 * s
            # construct witness takes it as a mu-zero tuple on the same pairing
            tuple_to_witness(sample.alpha, p)

    @pytest.mark.parametrize("s", [1e-9, 1e-6, 1.0])
    def test_tuple_to_witness_judges_mu_at_the_pairings_size(self, s):
        rng = np.random.default_rng(1)
        alpha = MatrixTuple.from_matrices(list(complex_normal(rng, 4, 2, 2)))
        with pytest.raises(MuNonzeroError):
            tuple_to_witness(alpha, symplectic_pair_pairing(s))

    def test_tuple_to_witness_refuses_a_subnormal_witness(self):
        # the one coefficient 2 s^2 would be about 1.8e-321, a subnormal
        sl2, zero = (TestWitnessChecksAcrossTheFloatRange.SL2,
                     TestWitnessChecksAcrossTheFloatRange.ZERO)
        with pytest.raises(PreconditionError, match="outside the float range"):
            tuple_to_witness(sl2.scaled(3e-161), zero)


class TestConstructStablePoint:
    def test_mu_zero_and_flags(self):
        p = kernel_line_pairing(3)
        omega = Bivector.basis_element(3, 0, 1)
        alpha = construct_stable_point(p, omega, 3, Fraction(1, 10))
        assert all(np.all(m == 0) for m in mu(alpha, p))
        out = rep_analysis(alpha, EXACT)
        assert out.commutant_dim == 1 and out.algebra_dim == 9 and out.stable

    def test_scale_does_not_change_flags(self):
        p = kernel_line_pairing(3)
        omega = Bivector.basis_element(3, 0, 1)
        a1 = construct_stable_point(p, omega, 2, 1)
        a2 = construct_stable_point(p, omega, 2, Fraction(1, 100))
        assert rep_analysis(a1, EXACT) == rep_analysis(a2, EXACT)
        assert tuple_scale(a2) < tuple_scale(a1)

    def test_norm_scales_linearly(self):
        p = kernel_line_pairing(3)
        omega = Bivector.basis_element(3, 0, 1)
        base = construct_stable_point(p, omega, 2, 1)
        small = construct_stable_point(p, omega, 2, Fraction(1, 1000))
        assert abs(tuple_scale(small) - tuple_scale(base) / 1000) < 1e-12

    def test_rejects_non_kernel_bivector(self):
        with pytest.raises(ValueError):
            construct_stable_point(symplectic_pairing(2), Bivector.basis_element(2, 0, 1),
                                   2, Fraction(1))

    def test_n2_output_irreducible(self):
        p = kernel_line_pairing(2)
        alpha = construct_stable_point(p, Bivector.basis_element(2, 0, 1), 2, 1)
        assert rep_analysis(alpha, EXACT).irreducible


def test_search_config_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="got -1"):
        SearchConfig(seed=-1)


class TestMuZeroSampler:
    def test_injective_pairing_all_commuting(self):
        p = symplectic_pairing(2)
        out = mu_zero_sampler(p, 2, SearchConfig(restarts=16, seed=1))
        assert out.converged >= 1
        for s in out.samples:
            assert s.commuting

    def test_kernel_pairing_has_noncommuting_sample(self):
        p = kernel_line_pairing(2)
        out = mu_zero_sampler(p, 2, SearchConfig(restarts=8, seed=1))
        assert any(not s.commuting for s in out.samples)
        # the sl2 seed start solves the system exactly
        first = out.samples[0]
        assert first.mu_residual < 1e-12

    def test_zero_pairing_accepts_everything(self):
        p = SkewPairing.zero(3, 0)
        out = mu_zero_sampler(p, 2, SearchConfig(restarts=6, seed=2))
        assert out.converged == out.attempted == 6
        labels = {s.commuting for s in out.samples}
        assert False in labels

    def test_unconverged_starts_give_no_sample(self):
        out = mu_zero_sampler(catalog_build("identity", [3]).pairing, 3,
                              SearchConfig(restarts=6, max_iterations=1))
        assert (out.attempted, out.converged, out.samples) == (6, 0, ())

    def test_samples_satisfy_mu(self):
        p = symplectic_pairing(4)
        out = mu_zero_sampler(p, 2, SearchConfig(restarts=8, seed=4))
        for s in out.samples:
            scale = tuple_scale(s.alpha)
            assert max(map(frobenius, mu(s.alpha, p))) <= 1e-8 * max(scale ** 2, 1e-300)

    @pytest.mark.parametrize("entry, n", [("identity:4", 3), ("torus:2", 4)])
    def test_one_solve_per_start_on_injective_pairings(self, monkeypatch, entry, n):
        name, arg = entry.split(":")
        p = catalog_build(name, (arg,)).pairing
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: pytest.fail("lstsq called"))
        sizes = count_solves(monkeypatch)
        out = mu_zero_sampler(p, n, SearchConfig(restarts=8, seed=0))
        assert out.attempted == out.converged == 8
        # each step is a solve and its refinement, on the same stack of starts
        first, refinement = sizes[::2], sizes[1::2]
        assert first == refinement
        # the first step of every start is already the ray step; a solve at
        # every iteration took about 15 per start
        assert sum(first) <= 8

    @pytest.mark.parametrize("entry", ["identity:3", "identity:4", "identity:5", "torus:2"])
    def test_ray_finish_matches_the_stepwise_ray(self, entry):
        """The closed-form end of an Euler ray is the point and the residual
        norm of halving the step one iteration at a time, bit for bit, at
        every budget: on the rays of seeded starts of injective pairings, whose
        first step is already the ray step, at n = 2..5 and with
        max_iterations 1..20 (a budget of one halving less)."""
        name, arg = entry.split(":")
        p = catalog_build(name, (arg,)).pairing
        d = p.dim_v
        c = skew(to_float(p.matrix()), d)
        for n in (2, 3, 4, 5):
            a = complex_normal(np.random.default_rng(n), 4, d, n, n)
            a /= np.linalg.norm(a.reshape(4, -1), axis=1)[:, None, None, None]
            res, s, norms, ok = verdict._mu_test(c, a, FLOAT)
            step = _min_norm_step(_mu_jacobian(s), res, False).reshape(a.shape)
            t = (a - np.trace(a, axis1=2, axis2=3)[..., None, None] / n * np.eye(n)).reshape(4, -1)
            assert not ok.any()
            assert FLOAT.negligible(np.linalg.norm(step.reshape(4, -1) + t / 2, axis=1),
                                    np.linalg.norm(t, axis=1)).all()
            # the stepwise ray: the halving at which each start is accepted
            first, ends, end_norms = np.zeros(4, dtype=int), np.empty_like(a), np.empty(4)
            point, halved = a, step.copy()
            for k in range(1, 20):
                if k > 1:
                    halved /= 2
                point = point + halved
                _, _, k_norms, k_ok = verdict._mu_test(c, point, FLOAT)
                new = k_ok & (first == 0)
                first[new], ends[new], end_norms[new] = k, point[new], k_norms[new]
            assert first.all()
            for budget in range(20):
                done, points, point_norms = verdict._ray_finish(c, a, step, norms, budget, FLOAT)
                want = np.flatnonzero(first <= budget)
                assert np.array_equal(done, want)
                assert points.tobytes() == ends[want].tobytes()
                assert point_norms.tobytes() == end_norms[want].tobytes()

    @pytest.mark.parametrize("entry", ["identity:3", "identity:4", "torus:2", "curve:3"])
    def test_samples_match_the_stepwise_ray(self, monkeypatch, entry):
        """Every ray start that the sampler hands to _ray_finish comes back
        done, so each sample on a ray is the stepwise ray's own, bit for bit
        (test_ray_finish_matches_the_stepwise_ray); no start is left to halve
        its step one iteration at a time."""
        name, arg = entry.split(":")
        p = catalog_build(name, (arg,)).pairing
        cfg = SearchConfig(restarts=3, seed=1)
        finish, calls = verdict._ray_finish, []

        def counted(c, a, step, res_norm, budget, mode):
            out = finish(c, a, step, res_norm, budget, mode)
            calls.append((len(a), len(out[0])))
            return out

        monkeypatch.setattr(verdict, "_ray_finish", counted)
        for n in (2, 3, 4):
            out = mu_zero_sampler(p, n, cfg)
            assert out.converged == out.attempted
        assert [done for _, done in calls] == [k for k, _ in calls]
        # on an injective pairing every start's first step is its ray step
        assert sum(k for k, _ in calls) == (0 if name == "curve" else 3 * 3)

    def test_sampler_memory(self):
        # identity:4 at n = 4: each stacked step holds the 8 Jacobians
        # (8 x 96 x 64 complex, 0.8 MB), their conjugate transposes and the
        # 8 x 96 x 96 Gram matrices (1.2 MB), about 2.9 MB in all
        p = catalog_build("identity", ("4",)).pairing
        tracemalloc.start()
        try:
            out = mu_zero_sampler(p, 4, SearchConfig(restarts=8, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.converged == 8
        assert peak < 4e6

    @pytest.mark.parametrize("entry", ["identity:3", "identity:4", "torus:2", "curve:3",
                                       "symplectic-surface:4"])
    def test_matches_plain_newton(self, entry):
        name, arg = entry.split(":")
        p = catalog_build(name, (arg,)).pairing
        for n in (2, 3, 4):
            for seed in range(3):
                cfg = SearchConfig(restarts=4, seed=seed)
                got = mu_zero_sampler(p, n, cfg)
                attempted, points = plain_newton_samples(p, n, cfg)
                assert (got.attempted, got.converged) == (attempted, len(points))
                for s, a in zip(got.samples, points):
                    alpha = MatrixTuple(n, p.dim_v, tuple(a))
                    assert s.commuting == is_commuting(alpha, FLOAT)
                    scale = tuple_scale(alpha)
                    assert np.linalg.norm(np.array(s.alpha.matrices) - a) <= 1e-10 * scale


def plain_newton_samples(p, n, cfg):
    """``mu_zero_sampler``'s starts, each run through Newton with one ``lstsq``
    per iteration; returns the number of starts and the converged points."""
    d = p.dim_v
    c = skew(to_float(p.matrix()), d)
    starts = []
    for b in kernel(p, FLOAT).basis:
        if bivector_rank(b, FLOAT) == 2:
            z0 = np.array(witness_to_tuple(b, n, FLOAT).matrices, dtype=complex)
            starts.append(z0 / np.linalg.norm(z0))
            break
    idx = 0
    while len(starts) < cfg.restarts:
        rng = np.random.default_rng((cfg.seed, idx))
        z0 = rng.standard_normal(d * n * n) + 1j * rng.standard_normal(d * n * n)
        starts.append((z0 / np.linalg.norm(z0)).reshape(d, n, n))
        idx += 1
    points = []
    for a in starts:
        for _ in range(cfg.max_iterations):
            mus, s = _mu_kernel(c, a)
            if FLOAT.vanishes([mus], np.linalg.norm(a, axis=(1, 2)).max() ** 2):
                points.append(a)
                break
            step, *_ = np.linalg.lstsq(_mu_jacobian(s), -mus.reshape(-1), rcond=None)
            a = a + step.reshape(d, n, n)
    return len(starts), points


def sparse_complex_pairing(rng, d, m):
    rows = []
    for _ in pair_list(d):
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        rows.append(tuple(complex(v) if rng.random() < 0.5 else 0 for v in vals))
    return SkewPairing(d, m, tuple(rows))


def commutator_loop_mu(p, mats):
    """Reference mu: one commutator per pair, weighted into each W-coordinate;
    in Fractions for a rational pairing and rational matrices."""
    n = mats[0].shape[0]
    mode = EXACT if p.is_rational() and all(m.dtype == object for m in mats) else FLOAT
    out = [zeros((n, n), mode) for _ in range(p.dim_w)]
    for (i, j), row in zip(pair_list(p.dim_v), p.entries):
        comm = mats[i] @ mats[j] - mats[j] @ mats[i]
        for k, c in enumerate(row):
            out[k] = out[k] + (c if mode.is_exact else complex(c)) * comm
    return out


def random_fraction(rng, max_den):
    return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, max_den + 1)))


class TestMuKernel:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_residual_and_jacobian(self, d, m, n):
        rng = np.random.default_rng((d, m, n))
        p = sparse_complex_pairing(rng, d, m)
        c = skew(to_float(p.matrix()), d)
        z = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
        v = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
        mus, s = _mu_kernel(c, z)
        expected = commutator_loop_mu(p, list(z))
        assert mus.shape == (m, n, n)
        for k in range(m):
            assert np.allclose(mus[k], expected[k], rtol=0, atol=1e-12)

        # F is homogeneous quadratic, so the central difference is exact up to rounding
        def f(a):
            return _mu_kernel(c, a)[0].reshape(-1)

        jac = _mu_jacobian(s)
        assert jac.shape == (m * n * n, d * n * n)
        central = (f(z + v) - f(z - v)) / 2
        assert np.allclose(jac @ v.reshape(-1), central, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_euler_identity_and_scalar_kernel(self, d, m, n):
        # the sampler's ray step rests on both: mu is homogeneous quadratic, so
        # J(a) a = 2 mu(a), and mu only sees commutators, so J kills A_b + cI
        rng = np.random.default_rng((d, m, n))
        p = sparse_complex_pairing(rng, d, m)
        c = skew(to_float(p.matrix()), d)
        a = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
        mus, s = _mu_kernel(c, a)
        jac = _mu_jacobian(s)
        assert np.allclose(jac @ a.reshape(-1), 2 * mus.reshape(-1), rtol=0, atol=1e-12)
        for b in range(d):
            scalar = np.zeros((d, n, n))
            scalar[b] = np.eye(n)
            assert np.allclose(jac @ scalar.reshape(-1), 0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_exact_mu_matches_the_commutator_loop(self, d, m):
        # entries with different denominators on both sides, so that a wrong
        # power of the tuple's or the pairing's denominator shows
        rng = np.random.default_rng((d, m, 11))
        for n in (1, 2, 3):
            p = SkewPairing(d, m, tuple(tuple(random_fraction(rng, 6) for _ in range(m))
                                        for _ in pair_list(d)))
            alpha = MatrixTuple.from_matrices(
                [exact_matrix([[random_fraction(rng, 4) for _ in range(n)]
                               for _ in range(n)]) for _ in range(d)])
            got = mu(alpha, p)
            assert len(got) == m
            for g, e in zip(got, commutator_loop_mu(p, alpha.matrices)):
                assert g.shape == (n, n)
                assert all(isinstance(x, Fraction) for x in g.flat)
                assert np.array_equal(g, e)

    def test_float_mu_matches_exact_on_rational_pairing(self):
        rng = np.random.default_rng(17)
        for d, m, n in ((2, 1, 2), (3, 2, 3), (4, 3, 2), (5, 4, 3)):
            entries = tuple(tuple(Fraction(int(x), int(y)) for x, y in
                                  zip(rng.integers(-4, 5, size=m), rng.integers(1, 4, size=m)))
                            for _ in pair_list(d))
            p = SkewPairing(d, m, entries)
            alpha = MatrixTuple.from_matrices(
                [exact_matrix(rng.integers(-3, 4, size=(n, n)).tolist()) for _ in range(d)])
            exact = mu(alpha, p)
            assert all(x.dtype == object for x in exact)
            floated = mu(alpha.to_float(), p)
            assert len(floated) == len(exact) == m
            for e, f in zip(exact, floated):
                assert f.dtype == complex
                assert np.allclose(f, np.array(e, dtype=complex), rtol=0, atol=1e-12)


class TestSplitComponentDimension:
    def test_values(self):
        assert split_component_dimension(63, 10) == 630
        assert split_component_dimension(1, 7) == 7
        assert split_component_dimension(2, 10) == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            split_component_dimension(0, 5)
        with pytest.raises(ValueError):
            split_component_dimension(2, -1)


# ---------------------------------------------------------------------------
# metamorphic invariance of certified verdicts (fixed-seed Hypothesis profile
# from conftest.py)

CERTIFIED = {CERT_KERNEL_ZERO, CERT_EXACT_LOW_DIM, CERT_DIMENSION_CRITERION}
# these certificates do not depend on the search, so a short one will do
SHORT_SEARCH = SearchConfig(restarts=2, max_iterations=20)


@st.composite
def certified_pairings(draw):
    """Small integer pairings, d <= 6.  From d = 5 on, a kernel is certified
    when it is zero, of dimension <= 2 (the pencil rule), or at the dimension
    bound, so dim W avoids 7 (a kernel of dimension 3) at d = 5 and is 13 or
    14 (dimension 2 or 1) at d = 6."""
    d = draw(st.integers(2, 6))
    npairs = comb(d, 2)
    m = draw(st.sampled_from([0, 1, 2, 4, 6, 8, 9, 10, 11]) if d == 5
             else st.sampled_from([13, 14]) if d == 6
             else st.integers(0, npairs + 1))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                         min_size=npairs, max_size=npairs))
    return SkewPairing(d, m, tuple(tuple(row) for row in rows))


def pulled_back(p, g):
    """The pairing omega -> p((Lambda^2 g) omega)."""
    return SkewPairing(p.dim_v, p.dim_w, tuple(
        tuple(apply(p, wedge(g[:, i], g[:, j]))) for i, j in pair_list(p.dim_v)))


def certified_decision(p):
    v = decide(p, cfg=SHORT_SEARCH)
    assume(v.certificate in CERTIFIED)
    return v.status, v.certificate, v.evidence.kernel_dim


class TestDecideMetamorphic:
    @given(p=certified_pairings(), seed=st.integers(0, 2**16))
    def test_unimodular_change_of_basis_keeps_verdict(self, p, seed):
        g, _ = unitriangular_pair(np.random.default_rng(seed), p.dim_v)
        assert certified_decision(pulled_back(p, g)) == certified_decision(p)

    @given(p=certified_pairings(),
           c=st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 4)))
    def test_rational_rescaling_keeps_verdict(self, p, c):
        scaled = SkewPairing(p.dim_v, p.dim_w,
                             tuple(tuple(c * x for x in row) for row in p.entries))
        assert certified_decision(scaled) == certified_decision(p)
