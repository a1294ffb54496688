"""Workload items: generated CLI commands, each with the answer it must give.

A workload is a list of items, which each pass replays.  An item is one
``semirigid`` command line plus a check of its JSON report.  Inputs come from
the workload seed and are written as JSON files into a work directory.  The
checks use only numpy and ``Fraction`` arithmetic done here, never the
package, so a wrong report cannot vouch for itself.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

import numpy as np

# Float checks use the package's default tolerances (1e-8); recomputed
# residuals get a factor of 2 for the different summation order.
TOL = 1e-8
SLACK = 2.0

# Eigenvalues of the planted commuting tuples.  The spectra are one fixed draw
# from this range per (n, length) slot, made from SPECTRUM_STREAM and not from
# the workload seed, so the cost of the exact rational-root search is the same
# in every run; the seed changes the conjugating matrices.
EIG_RANGE = (-4, 4)
SPECTRUM_STREAM = 0


@dataclass
class Item:
    id: str
    argv: list
    # report -> (problems, counts); counts feed the workload's rates
    check: Callable[[dict], tuple]
    # runs in every k-th pass only: the slowest items, which lie above the
    # tail percentile, so that the others are sampled more often
    every: int = 1


# ---------------------------------------------------------------------------
# small exact and float helpers


def pairs(d):
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def frac(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den or 1))


def scalar(v):
    """A JSON scalar as Fraction (rational) or complex."""
    if isinstance(v, list):
        return complex(v[0], v[1])
    return frac(v)


def frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def rref(rows):
    """Reduced row echelon form over Q; returns (nonzero rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unimodular(rng, n):
    """Integer matrix of determinant 1: unit lower times unit upper triangular."""
    low = [[int(i == j) for j in range(n)] for i in range(n)]
    up = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            low[i][j] = int(rng.integers(-2, 3))
            up[j][i] = int(rng.integers(-2, 3))
    return matmul(low, up)


def scale_rows(rng, rows):
    """Divide each row by its own small integer; kernel and rank are unchanged."""
    out = []
    for row in rows:
        q = int(rng.integers(1, 6))
        out.append([Fraction(x, q) for x in row])
    return out


def annihilator(kernel_rows, width):
    """Rows whose common nullspace is exactly the span of kernel_rows, and
    the reduced kernel basis."""
    red, piv = rref(kernel_rows)
    out = []
    for j in range(width):
        if j in piv:
            continue
        row = [Fraction(0)] * width
        row[j] = Fraction(1)
        for k, c in zip(red, piv):
            row[c] = -k[j]
        out.append(row)
    return out, red


def pairing_json(d, mat, kind):
    """Pairing file from a dim_w x C(d, 2) matrix."""
    enc = (lambda x: [float(x.real), float(x.imag)]) if kind == "complex" else frac_str
    entries = [{"i": i, "j": j, "values": [enc(row[p]) for row in mat]}
               for p, (i, j) in enumerate(pairs(d))]
    return {"dim_v": d, "dim_w": len(mat), "scalar": kind, "entries": entries}


def write(workdir, name, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def bivector(obj):
    """Witness JSON -> (coefficient list in pair order, all rational?)."""
    d = obj["dim_v"]
    index = {ij: p for p, ij in enumerate(pairs(d))}
    w = [Fraction(0)] * comb(d, 2)
    for c in obj["coeffs"]:
        w[index[(c["i"], c["j"])]] = scalar(c["value"])
    return w, all(isinstance(x, Fraction) for x in w)


def witness_problems(mat, wjson) -> list:
    """A witness must be a nonzero rank-2 bivector in the pairing's kernel."""
    w, exact = bivector(wjson)
    d = wjson["dim_v"]
    if exact and all(isinstance(x, Fraction) for row in mat for x in row):
        if all(x == 0 for x in w):
            return ["witness is zero"]
        if any(sum(a * b for a, b in zip(row, w)) != 0 for row in mat):
            return ["witness not in kernel (exact)"]
        skew = [[Fraction(0)] * d for _ in range(d)]
        for (i, j), c in zip(pairs(d), w):
            skew[i][j], skew[j][i] = c, -c
        return [] if len(rref(skew)[1]) == 2 else ["witness rank is not 2 (exact)"]
    m = np.array([[complex(x) for x in row] for row in mat])
    wf = np.array([complex(x) for x in w])
    scale = np.linalg.norm(m) * np.linalg.norm(wf)
    problems = []
    if scale == 0 or np.linalg.norm(m @ wf) > TOL * SLACK * scale:
        problems.append("witness not in kernel within tolerance")
    skew = np.zeros((d, d), complex)
    for (i, j), c in zip(pairs(d), wf):
        skew[i, j], skew[j, i] = c, -c
    s = np.linalg.svd(skew, compute_uv=False)
    if s[0] == 0 or int(np.sum(s > TOL * s[0])) != 2:
        problems.append("witness rank is not 2 within tolerance")
    return problems


def expect(report, path, want) -> list:
    got = report
    for key in path:
        got = got[key]
    return [] if got == want else [f"{'.'.join(path)} = {got!r}, expected {want!r}"]


def item_seed(seed, index) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# complex-float: analyze on complex pairings


def _analyze_check(mat, kernel_dim, kind):
    def check(report):
        v = report["verdict"]
        problems = expect(v, ("evidence", "kernel_dim"), kernel_dim)
        if kind == "zero":
            problems += expect(v, ("status",), "semi_rigid")
            problems += expect(v, ("certificate",), "kernel_zero")
        elif kind == "bound":
            problems += expect(v, ("status",), "not_semi_rigid")
            problems += expect(v, ("certificate",), "dimension_criterion")
        elif v["status"] == "semi_rigid":
            problems.append("below the bound but reported semi_rigid")
        if v["witness"] is not None:
            problems += witness_problems(mat, v["witness"])
        counts = {}
        if kind == "bound":
            counts = {"at_bound": 1, "at_bound_with_witness": int(v["witness"] is not None)}
        return problems, counts
    return check


# Restart budget of the searches below the bound, which always spend all of it.
BELOW_RESTARTS = 8


def _complex_items(rng, seed, workdir, smoke):
    """Kernels at the dimension bound on a ladder of d, fourteen one below it
    (the search spends its whole budget), and a few zero kernels.  The d = 10
    block holds the median and the d = 6 block below the bound the tail; the
    items above the tail run every third pass."""
    if smoke:
        plan = [("bound", 5), ("bound", 6), ("below", 5), ("zero", 4)]
    else:
        ladder = [5, 5, 6, 6, 7, 7, 8, 8, 9, 9] + [10] * 12 + [11, 12, 13, 14]
        plan = ([("zero", d) for d in (4, 5, 5, 6, 7, 7, 8, 9)] + [("bound", d) for d in ladder]
                + [("below", d) for d in [6] * 10 + [7] * 2 + [8] * 2])
    out = []
    for index, (kind, d) in enumerate(plan):
        width = comb(d, 2)
        rows = {"bound": 2 * d - 4, "below": 2 * d - 3, "zero": width}[kind]
        mat = rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))
        name = f"{index}-{kind}-d{d}"
        path = write(workdir, name + ".json", pairing_json(d, mat, "complex"))
        argv = ["analyze", "--pairing", path, "--seed", str(item_seed(seed, index))]
        if kind == "below":
            argv += ["--restarts", str(4 if smoke else BELOW_RESTARTS)]
        slow = (kind, d) in (("bound", 13), ("bound", 14), ("below", 8))
        out.append(Item(name, argv, _analyze_check(mat.tolist(), width - rows, kind),
                        every=3 if slow else 1))
    return out


# ---------------------------------------------------------------------------
# exact-rational


def _pfaffian4(w):
    return w[0] * w[5] - w[1] * w[4] + w[2] * w[3]


def _wedge(u, v):
    return [u[i] * v[j] - u[j] * v[i] for i, j in pairs(len(u))]


def _planted(rng, d, kernel_rows):
    """Rational pairing whose kernel is exactly the span of kernel_rows:
    the annihilator mixed by a unimodular matrix, rows scaled by 1/q."""
    ann, red = annihilator(kernel_rows, comb(d, 2))
    mixed = matmul(unimodular(rng, len(ann)), ann)
    return scale_rows(rng, mixed), red


def _kernel_check(mat, dim):
    def check(report):
        k = report["kernel"]
        problems = expect(k, ("dim",), dim)
        basis = [bivector(b)[0] for b in k["basis"]]
        if any(sum(a * b for a, b in zip(row, w)) != 0 for row in mat for w in basis):
            problems.append("kernel basis vector not in kernel")
        if basis and len(rref(basis)[1]) != len(basis):
            problems.append("kernel basis is dependent")
        return problems, {}
    return check


def _low_dim_check(mat, dim, status):
    def check(report):
        v = report["verdict"]
        problems = (expect(v, ("status",), status) + expect(v, ("certificate",), "exact_low_dim")
                    + expect(v, ("evidence", "kernel_dim"), dim))
        if v["witness"] is not None:
            problems += witness_problems(mat, v["witness"])
        elif status == "not_semi_rigid":
            problems.append("no witness for exact_low_dim not_semi_rigid")
        return problems, {}
    return check


def _spectrum_check(points):
    def check(report):
        got = sorted(tuple(frac(x) for x in p) for p in report["spectrum"]["points"])
        return ([] if got == sorted(points) else ["joint spectrum differs from planted"]), {}
    return check


def _rep_check(points):
    mult = {}
    for p in points:
        mult[p] = mult.get(p, 0) + 1
    want = {"commutant_dim": sum(m * m for m in mult.values()), "algebra_dim": len(mult),
            "radical_dim": 0, "irreducible": False, "semisimple": True, "stable": False}

    def check(report):
        got = report["analysis"]
        return [f"analysis.{k} = {got[k]!r}, expected {w!r}"
                for k, w in want.items() if got[k] != w], {}
    return check


def _rational_items(rng, seed, workdir, smoke):
    """Dense zero-kernel pairings (exact elimination), the exact Pfaffian
    decision at d <= 4, planted kernels, and planted commuting tuples.  The
    kernel block at d = 7 holds the median and the d = 9 block the tail; the
    four slowest items run every fourth pass."""
    out = []

    def add(name, argv, check, every=1):
        index = len(out)
        argv = argv + ["--seed", str(item_seed(seed, index))]
        out.append(Item(f"{index}-{name}", argv, check, every))

    for d in ((4, 5) if smoke else (6, 8, *[9] * 10, 12)):
        width = comb(d, 2)
        mat = scale_rows(rng, unimodular(rng, width))
        path = write(workdir, f"{len(out)}.json", pairing_json(d, mat, "rational"))
        add(f"zero-d{d}", ["analyze", "--pairing", path], _analyze_check(mat, 0, "zero"),
            every=4 if d == 12 else 1)

    def ints(d):
        return [int(x) for x in rng.integers(-3, 4, size=d)]

    # d <= 4: the answer follows from the planted kernel; for d = 4 a plane
    # always meets the Pfaffian quadric, a line only if its Pfaffian vanishes
    low = []
    for _ in range(1 if smoke else 2):
        rank4 = [a + b for a, b in zip(_wedge(ints(4), ints(4)), _wedge(ints(4), ints(4)))]
        low += [("rank4", 4, [rank4]), ("rank2", 4, [_wedge(ints(4), ints(4))]),
                ("plane", 4, [ints(6), ints(6)]), ("line", 3, [ints(3)])]
    for name, d, gens in low:
        mat, red = _planted(rng, d, gens)
        path = write(workdir, f"{len(out)}.json", pairing_json(d, mat, "rational"))
        if not red:
            check = _analyze_check(mat, 0, "zero")
        else:
            decomposable = d <= 3 or len(red) >= 2 or _pfaffian4(red[0]) == 0
            check = _low_dim_check(mat, len(red),
                                   "not_semi_rigid" if decomposable else "semi_rigid")
        add(f"low-{name}", ["analyze", "--pairing", path], check)

    kernels = (((5, 2),) if smoke else
               ((5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (6, 3),
                *[(7, 1 + k % 4) for k in range(14)], (8, 4)))
    for d, r in kernels:
        mat, red = _planted(rng, d, [ints(comb(d, 2)) for _ in range(r)])
        path = write(workdir, f"{len(out)}.json", pairing_json(d, mat, "rational"))
        add(f"kernel-d{d}", ["kernel", "--pairing", path], _kernel_check(mat, len(red)))

    lo, hi = EIG_RANGE
    for n in ((3,) if smoke else (3, 4, 5, 6, 7)):
        for t in ((2,) if smoke else (2, 3)):
            diag = np.random.default_rng([SPECTRUM_STREAM, n, t]).integers(lo, hi + 1, size=(t, n))
            points = [tuple(Fraction(int(diag[a, j])) for a in range(t)) for j in range(n)]
            s = unimodular(rng, n)
            s_inv = [row[n:] for row in rref([row + [int(i == j) for j in range(n)]
                                              for i, row in enumerate(s)])[0]]
            mats = [matmul(matmul(s, [[int(diag[a, i]) * (i == j) for j in range(n)]
                                      for i in range(n)]), s_inv) for a in range(t)]
            obj = {"n": n, "d": t, "scalar": "rational",
                   "matrices": [[[frac_str(x) for x in row] for row in m] for m in mats]}
            path = write(workdir, f"{len(out)}.json", obj)
            add(f"spectrum-n{n}-t{t}", ["commuting", "spectrum", "--tuple", path],
                _spectrum_check(points), every=4 if (n, t) >= (6, 3) else 1)
            add(f"rep-n{n}-t{t}", ["commuting", "analyze", "--tuple", path], _rep_check(points))
    return out


# ---------------------------------------------------------------------------
# complex-float: sampling the cone mu = 0


def _catalog_mu(name, d):
    """The pairing of a catalog entry as a list of (component, [(i, j, coeff)])."""
    if name in ("identity", "torus"):
        return [[(i, j, 1)] for i, j in pairs(d)]
    return [[(2 * k, 2 * k + 1, 1) for k in range(d // 2)]]


def _catalog_matrix(name, d):
    index = {ij: p for p, ij in enumerate(pairs(d))}
    mat = []
    for comp in _catalog_mu(name, d):
        row = [Fraction(0)] * comb(d, 2)
        for i, j, c in comp:
            row[index[(i, j)]] = Fraction(c)
        mat.append(row)
    return mat


def _residuals(name, mats):
    """(mu residual, max commutator norm, scale) of a float tuple."""
    d = len(mats)
    comm = {(i, j): mats[i] @ mats[j] - mats[j] @ mats[i] for i, j in pairs(d)}
    mu = [sum(c * comm[(i, j)] for i, j, c in comp) for comp in _catalog_mu(name, d)]
    mu_res = float(np.sqrt(sum(np.linalg.norm(m) ** 2 for m in mu)))
    chi = max((np.linalg.norm(c) for c in comm.values()), default=0.0)
    scale = max(np.linalg.norm(m) for m in mats)
    return mu_res, float(chi), float(scale)


def _sample_check(name, d, n, starts, injective):
    def check(report):
        s = report["samples"]
        problems = expect(s, ("attempted",), starts)
        if s["converged"] != len(s["points"]) or s["converged"] > starts:
            problems.append("converged count does not match the points")
        noncommuting = 0
        for k, p in enumerate(s["points"]):
            mats = [np.array([[complex(*x) for x in row] for row in m]) for m in p["matrices"]]
            if len(mats) != d or mats[0].shape != (n, n):
                problems.append(f"point {k} has the wrong shape")
                continue
            mu_res, chi, scale = _residuals(name, mats)
            bound = TOL * max(scale ** 2, 1e-300)
            if mu_res > SLACK * bound or p["mu_residual"] > bound:
                problems.append(f"point {k} mu residual above tolerance")
            if p["commuting"] != (chi <= bound) and abs(chi - bound) > 0.5 * bound:
                problems.append(f"point {k} commuting label disagrees with its commutators")
            noncommuting += not p["commuting"]
        if injective and noncommuting:
            problems.append("non-commuting sample of an injective pairing")
        if not injective and not noncommuting:
            problems.append("no non-commuting sample of a decomposable kernel")
        return problems, {"starts": s["attempted"], "converged": s["converged"]}
    return check


def _construct_check(name, d, n):
    mat = _catalog_matrix(name, d)

    def check(report):
        problems = witness_problems(mat, report["witness"])
        tup = report["tuple"]
        if (tup["n"], tup["d"]) != (n, d):
            return problems + ["tuple has the wrong shape"], {}
        if tup["scalar"] == "rational":
            mats = [[[frac(x) for x in row] for row in m] for m in tup["matrices"]]
            comm = {}
            for i, j in pairs(d):
                ab, ba = matmul(mats[i], mats[j]), matmul(mats[j], mats[i])
                comm[(i, j)] = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
            for comp in _catalog_mu(name, d):
                if any(sum(c * comm[(i, j)][a][b] for i, j, c in comp) != 0
                       for a in range(n) for b in range(n)):
                    problems.append("mu of the constructed tuple is not zero")
            if all(x == 0 for c in comm.values() for row in c for x in row):
                problems.append("constructed tuple commutes")
        else:
            mats = [np.array([[complex(*x) for x in row] for row in m]) for m in tup["matrices"]]
            mu_res, chi, scale = _residuals(name, mats)
            if mu_res > SLACK * TOL * scale ** 2:
                problems.append("mu of the constructed tuple is above tolerance")
            if chi <= 1e3 * TOL * scale ** 2:
                problems.append("constructed tuple commutes")
        return problems, {}
    return check


_CATALOG = {"identity:3": ("identity", 3, True), "identity:4": ("identity", 4, True),
            "torus:2": ("torus", 4, True), "symplectic-surface:4": ("symplectic-surface", 4, False),
            "curve:3": ("curve", 6, False)}


def _cone_items(seed, smoke, first):
    """Newton samples of mu = 0 on injective and decomposable catalog pairings,
    and stable points built through a searched witness; item indices start at
    ``first``.  The decomposable samples at n = 4 join the median and the
    identity:4 block at n = 3 holds the tail; the three slowest samples, above
    the tail, run every third pass.  identity:4 and torus:2 stop at n = 4: at
    n = 5 they would put two more items above the tail and push it to the
    block's edge."""
    if smoke:
        samples = [("identity:3", 2), ("symplectic-surface:4", 2)]
        builds = [("symplectic-surface:4", 2), ("curve:3", 2)]
        starts = 2
    else:
        samples = ([(entry, n) for entry in _CATALOG for n in (2, 3, 4, 5)
                    if (entry, n) not in (("identity:4", 5), ("torus:2", 5))]
                   + [(entry, n) for entry in ("symplectic-surface:4", "curve:3") for n in (2, 3)]
                   + [("curve:3", 4)] * 10 + [("identity:4", 3)] * 8)
        builds = [(entry, n) for entry in ("symplectic-surface:4", "curve:3")
                  for n in range(2, 9)]
        starts = 8
    slow = {("identity:3", 5), ("identity:4", 4), ("torus:2", 4)}
    out = []
    for entry, n in samples:
        name, d, injective = _CATALOG[entry]
        index = first + len(out)
        argv = ["sample", "mu-zero", "--pairing", f"catalog:{entry}", "--n", str(n),
                "--starts", str(starts), "--seed", str(item_seed(seed, index))]
        out.append(Item(f"{index}-sample-{entry}-n{n}", argv,
                        _sample_check(name, d, n, starts, injective),
                        every=3 if (entry, n) in slow else 1))
    for entry, n in builds:
        name, d, _ = _CATALOG[entry]
        index = first + len(out)
        argv = ["construct", "stable", "--auto", "--pairing", f"catalog:{entry}", "--n", str(n),
                "--seed", str(item_seed(seed, index))]
        out.append(Item(f"{index}-construct-{entry}-n{n}", argv,
                        _construct_check(name, d, n)))
    return out


def _float_items(rng, seed, workdir, smoke):
    """The floating-point regime: witness search through ``analyze`` and the
    mu = 0 sampler, which the exact workload never reaches."""
    analyze = _complex_items(rng, seed, workdir, smoke)
    return analyze + _cone_items(seed, smoke, len(analyze))


_BUILDERS = {"complex-float": (_float_items, 1),
             "exact-rational": (_rational_items, 2)}
WORKLOADS = tuple(_BUILDERS)


def build(workload, seed, workdir, smoke=False):
    """The workload's items, fixed by the seed; every pass replays them."""
    builder, key = _BUILDERS[workload]
    return builder(np.random.default_rng([seed, key]), seed, workdir, smoke)
