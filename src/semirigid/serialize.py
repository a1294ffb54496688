"""JSON wire formats for pairings, tuples, bivectors, and verdicts.

Rational scalars travel as strings "p/q" with q > 0 and gcd(p, q) = 1;
complex scalars as two-element arrays [re, im] of finite decimal floats.  All keys
are snake_case and emission is deterministic for identical values.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

from .commuting import MatrixTuple
from .exterior import Bivector, FilteredPairing, SkewPairing, pair_list
from .scalars import COMPLEX, RATIONAL, as_fraction
from .verdict import Evidence, Verdict


def scalar_to_json(x, kind: str):
    if kind == RATIONAL:
        f = as_fraction(x)
        return f"{f.numerator}/{f.denominator}"
    z = complex(x)
    return [z.real, z.imag]


def scalar_from_json(v, kind: str):
    if kind == RATIONAL:
        if isinstance(v, str):
            if "/" in v:
                num, den = v.split("/", 1)
                if int(den) == 0:
                    raise ValueError(f"rational scalar has a zero denominator: {v!r}")
                return Fraction(int(num), int(den))
            return Fraction(int(v))
        if isinstance(v, int):
            return Fraction(v)
        raise ValueError(f"rational scalar must be an integer or 'p/q' string, got {v!r}")
    if isinstance(v, (list, tuple)) and len(v) == 2:
        try:
            z = complex(float(v[0]), float(v[1]))
        except TypeError as exc:
            raise ValueError(f"complex scalar parts must be numbers, got {v!r}") from exc
    elif isinstance(v, (int, float)):
        z = complex(v)
    else:
        raise ValueError(f"complex scalar must be a [re, im] pair, got {v!r}")
    if not cmath.isfinite(z):
        raise ValueError(f"complex scalar must be finite, got {v!r}")
    return z


def infer_kind(data) -> str:
    """Wire kind of a pairing, tuple, bivector or spectrum."""
    return RATIONAL if data.is_rational() else COMPLEX


# ---------------------------------------------------------------------------
# pairings


def pairing_to_json(p: SkewPairing, filtration: FilteredPairing | None = None) -> dict:
    kind = infer_kind(p)
    entries = []
    for (i, j), row in zip(pair_list(p.dim_v), p.entries):
        if any(x != 0 for x in row):
            entries.append({"i": i, "j": j,
                            "values": [scalar_to_json(x, kind) for x in row]})
    out = {"dim_v": p.dim_v, "dim_w": p.dim_w, "scalar": kind, "entries": entries}
    if filtration is not None:
        out["filtration"] = {"v": list(filtration.filt_v), "w": list(filtration.filt_w)}
    return out


def pairing_from_json(obj: dict):
    """Parse a pairing; returns (pairing, filtered_or_none)."""
    try:
        d = int(obj["dim_v"])
        m = int(obj["dim_w"])
        kind = obj["scalar"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"pairing object missing field: {exc}") from exc
    if kind not in (RATIONAL, COMPLEX):
        raise ValueError(f"unknown scalar kind {kind!r}")
    values = {}
    entries = obj.get("entries", [])
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ValueError("pairing entries must be a list of objects")
    for entry in entries:
        try:
            i, j = int(entry["i"]), int(entry["j"])
        except TypeError as exc:
            raise ValueError(f"pairing entry indices must be integers, got {entry!r}") from exc
        if not 0 <= i < j < d:
            raise ValueError(f"pairing entries require 0 <= i < j < dim_v, got ({i}, {j})")
        vec = entry["values"]
        if not (isinstance(vec, list) and len(vec) == m):
            raise ValueError(f"entry values must be a list of dim_w = {m} scalars, got {vec!r}")
        values[(i, j)] = tuple(scalar_from_json(x, kind) for x in vec)
    pairing = SkewPairing.from_map(d, m, values)
    filtered = None
    if "filtration" in obj:
        filt = obj["filtration"]
        if not (isinstance(filt, dict) and all(
                isinstance(filt.get(k), list) and all(isinstance(x, int) for x in filt[k])
                for k in ("v", "w"))):
            raise ValueError("filtration must be an object whose v and w are lists of integers")
        filtered = FilteredPairing(pairing, tuple(filt["v"]), tuple(filt["w"]))
    return pairing, filtered


# ---------------------------------------------------------------------------
# matrix tuples


def tuple_to_json(alpha: MatrixTuple) -> dict:
    kind = infer_kind(alpha)
    mats = [[[scalar_to_json(m[i, j], kind) for j in range(alpha.n)]
             for i in range(alpha.n)] for m in alpha.matrices]
    return {"n": alpha.n, "d": alpha.d, "scalar": kind, "matrices": mats}


def tuple_from_json(obj: dict) -> MatrixTuple:
    try:
        n = int(obj["n"])
        d = int(obj["d"])
        kind = obj["scalar"]
        mats = obj["matrices"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"tuple object missing field: {exc}") from exc
    if kind not in (RATIONAL, COMPLEX):
        raise ValueError(f"unknown scalar kind {kind!r}")
    if d < 1:
        raise ValueError("tuple needs at least one matrix")
    if n < 1:
        raise ValueError("tuple matrices need size n >= 1")
    if not isinstance(mats, list) or len(mats) != d:
        raise ValueError("matrices must be a list of d matrices")
    out = []
    for m in mats:
        if not (isinstance(m, list) and len(m) == n
                and all(isinstance(row, list) and len(row) == n for row in m)):
            raise ValueError("matrices must be n x n lists of scalars")
        if kind == RATIONAL:
            a = np.empty((n, n), dtype=object)
            for i in range(n):
                for j in range(n):
                    a[i, j] = scalar_from_json(m[i][j], kind)
        else:
            a = np.array([[scalar_from_json(x, kind) for x in row] for row in m],
                         dtype=complex)
        out.append(a)
    return MatrixTuple(n, d, tuple(out))


# ---------------------------------------------------------------------------
# bivectors and verdicts


def bivector_to_json(w: Bivector) -> dict:
    kind = infer_kind(w)
    coeffs = []
    for (i, j), c in zip(pair_list(w.dim_v), w.coeffs):
        if c != 0:
            coeffs.append({"i": i, "j": j, "value": scalar_to_json(c, kind)})
    return {"dim_v": w.dim_v, "coeffs": coeffs}


def bivector_from_json(obj: dict) -> Bivector:
    try:
        d = int(obj["dim_v"])
        coeffs = obj["coeffs"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bivector object missing field: {exc}") from exc
    if not (isinstance(coeffs, list) and all(isinstance(c, dict) for c in coeffs)):
        raise ValueError("bivector coeffs must be a list of objects")
    values = {}
    for c in coeffs:
        try:
            i, j = int(c["i"]), int(c["j"])
        except TypeError as exc:
            raise ValueError(f"bivector coeff indices must be integers, got {c!r}") from exc
        if not 0 <= i < j < d:
            raise ValueError(f"bivector coeffs require 0 <= i < j < dim_v, got ({i}, {j})")
        v = c["value"]
        kind = RATIONAL if isinstance(v, (str, int)) else COMPLEX
        values[(i, j)] = scalar_from_json(v, kind)
    return Bivector.from_pairs(d, values)


def verdict_to_json(v: Verdict) -> dict:
    return {
        "status": v.status,
        "certificate": v.certificate,
        "witness": bivector_to_json(v.witness) if v.witness is not None else None,
        "evidence": {
            "kernel_dim": v.evidence.kernel_dim,
            "restarts_used": v.evidence.restarts_used,
            "best_residual": v.evidence.best_residual,
        },
    }


def verdict_from_json(obj: dict) -> Verdict:
    witness = bivector_from_json(obj["witness"]) if obj.get("witness") else None
    ev = obj.get("evidence", {})
    return Verdict(
        status=obj["status"],
        certificate=obj["certificate"],
        witness=witness,
        evidence=Evidence(
            kernel_dim=int(ev.get("kernel_dim", 0)),
            restarts_used=int(ev.get("restarts_used", 0)),
            best_residual=ev.get("best_residual"),
        ),
    )
