"""JSON wire formats for pairings, tuples, bivectors, and verdicts.

Rational scalars are written as strings "p/q" with q > 0 and gcd(p, q) = 1,
and read from integers and strings "p" or "p/q" with any nonzero q; complex
scalars travel as two-element arrays [re, im] of finite decimal floats.
Booleans are not scalars, and sizes are JSON integers.  A pairing, a tuple
and a bivector are parsed straight to their stored form: cleared integers
and one denominator, with no Fraction per entry, or complex128; each
distinct rational text is read once.  A bivector (a witness file) has
dim_v >= 1, each of its coefficients a "value", and is rational only when
every value is a rational scalar; otherwise it is complex, each rational
value rounded once.  The writers write each "p/q" from the stored integers,
with no Fraction.
Keys a format does not name are ignored.  All keys are snake_case and
emission is deterministic for identical values: :func:`canonical_json`
writes the bytes of ``json.dumps(obj, indent=2, sort_keys=True,
allow_nan=False)``, strict JSON.  The one value it takes that json does not
is a complex numpy array, such as the stack that :func:`tuple_to_json` leaves
in a complex tuple's ``"matrices"``, written as the nested [re, im] lists.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .commuting import MatrixTuple
from .exterior import Bivector, SkewPairing, pair_count, pair_index, pair_list
from .scalars import COMPLEX, RATIONAL, PreconditionError, to_float
from .verdict import Verdict

# a rational wire string: "p" or "p/q", each an optional sign and ASCII digits
_RATIO = re.compile(r"[+-]?[0-9]+(/[+-]?[0-9]+)?")


def _ratio_table(values: list) -> dict:
    """Each distinct rational wire scalar of ``values``, an integer or a
    string "p" or "p/q", mapped to its numerator and denominator (p, q), with
    q > 0 and not reduced, in the order of first appearance.  Each distinct
    value is split at its first slash and read once: the first numerator
    int() refuses is named, then the first denominator, then the first value
    int() reads but the wire format does not."""
    if not values:
        return {}
    kinds = set(map(type, values))
    if not kinds <= {str, int}:
        bad = next(v for v in values if type(v) not in (str, int))
        raise ValueError(f"rational scalar must be an integer or 'p/q' string, got {bad!r}")
    distinct = list(dict.fromkeys(values))
    texts = distinct if kinds == {str} else list(map(str, distinct))
    nums, slashes, dens = zip(*map(str.partition, texts, repeat("/")))
    ps = list(map(int, nums))
    # "p" has no q; a q with a slash of its own is no integer, and int()
    # refuses it
    qs = [int(q) if slash else 1 for slash, q in zip(slashes, dens)]
    # int() also reads "1_000", " 3 " and non-ASCII digits
    bad = next((v for v, t in zip(distinct, texts) if not _RATIO.fullmatch(t)), None)
    if bad is not None:
        raise ValueError(f"rational scalar must be an integer or 'p/q' string, got {bad!r}")
    if 0 in qs:
        raise ValueError(f"rational scalar has a zero denominator: {distinct[qs.index(0)]!r}")
    return {v: (-p, -q) if q < 0 else (p, q) for v, p, q in zip(distinct, ps, qs)}


def _wire_scalars(values: list, den: int, kind: str) -> list:
    """The wire scalars of stored values / den: for Python ints and den > 0,
    each "p/q" reduced, with q > 0, by one gcd; for complex values, each
    [re, im]."""
    if kind == COMPLEX:
        return [[z.real, z.imag] for z in values]
    if den == 1:
        return [f"{v}/1" for v in values]
    return [f"{v // g}/{den // g}" for v in values for g in (math.gcd(v, den),)]


def scalar_from_json(v) -> complex:
    """One complex wire scalar, the fallback of :func:`_complex_values`."""
    # a boolean is no number here, though Python counts it as an int
    if isinstance(v, (list, tuple)) and len(v) == 2 and not any(type(x) is bool for x in v):
        parts = v
    elif isinstance(v, (int, float)) and type(v) is not bool:
        parts = v, 0
    else:
        raise ValueError(f"complex scalar must be a [re, im] pair of numbers, got {v!r}")
    # float() would also read a string part such as "1e3" or " 2 "
    if not all(isinstance(x, (int, float)) for x in parts):
        raise ValueError(f"complex scalar parts must be numbers, got {v!r}")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except OverflowError:
        raise ValueError("complex scalar part is outside the float range") from None
    if not cmath.isfinite(z):
        raise ValueError(f"complex scalar must be finite, got {v!r}")
    return z


def _complex_values(vecs: list) -> np.ndarray:
    """The complex wire scalars of the lists ``vecs``, in order, as one
    complex128 array.  Lists of [re, im] pairs of ints and floats are read in
    one numpy pass; anything else, and any value that is not finite, goes
    through :func:`scalar_from_json` one by one, which refuses it with its
    message."""
    flat = [x for vec in vecs for x in vec]
    if all(type(x) is list and len(x) == 2 for x in flat):
        parts = [y for x in flat for y in x]
        if set(map(type, parts)) <= {int, float}:
            try:
                pairs = np.array(parts, dtype=float).reshape(-1, 2)
            except OverflowError:
                pairs = None
            if pairs is not None and np.isfinite(pairs).all():
                # a view, so that each part keeps its bits, the sign of zero too
                return pairs.view(complex).reshape(-1)
    return np.array([scalar_from_json(x) for x in flat], dtype=complex)


def _by_pair(items, d: int, what: str) -> dict:
    """The objects of a list of {"i": i, "j": j, ...} by their pair index;
    i and j are integers, not booleans, with 0 <= i < j < d, and no pair
    comes twice."""
    if not (isinstance(items, list) and all(isinstance(x, dict) for x in items)):
        raise ValueError(f"{what} must be a list of objects")
    out = {}
    for x in items:
        i, j = x.get("i"), x.get("j")
        if not (type(i) is int and type(j) is int):
            raise ValueError(f"{what} indices must be integers, got {x!r}")
        k = pair_index(i, j, d)  # refuses all but 0 <= i < j < d
        if k in out:
            raise ValueError(f"{what} list the pair ({i}, {j}) twice")
        out[k] = x
    return out


def _integer(v, what: str) -> int:
    """v, which must be a JSON integer, not a boolean."""
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


def infer_kind(data) -> str:
    """Wire kind of a pairing, tuple, bivector or spectrum."""
    return RATIONAL if data.is_rational() else COMPLEX


# ---------------------------------------------------------------------------
# pairings


def pairing_to_json(p: SkewPairing) -> dict:
    kind = infer_kind(p)
    entries = [{"i": i, "j": j, "values": _wire_scalars(row, p.den, kind)}
               for (i, j), row in zip(pair_list(p.dim_v), p.values.T.tolist()) if any(row)]
    return {"dim_v": p.dim_v, "dim_w": p.dim_w, "scalar": kind, "entries": entries}


def _cleared_scalars(values: list) -> tuple[np.ndarray, int]:
    """Rational wire scalars as a flat object array of integers and one
    denominator den > 0 with gcd(den, ints) = 1, as scalars.cleared gives them.
    Each distinct value is cleared once and the list mapped through them."""
    table = _ratio_table(values)
    den = math.lcm(*{q for _, q in table.values()})
    ints = {v: p * (den // q) for v, (p, q) in table.items()}
    g = math.gcd(den, *ints.values())
    if g > 1:
        ints, den = {v: p // g for v, p in ints.items()}, den // g
    return np.array(list(map(ints.__getitem__, values)), dtype=object), den


def pairing_from_json(obj: dict):
    """Parse a pairing.  The columns go straight into its matrix, cleared or
    complex128, and omitted pairs are zero of the file's kind: a complex file
    is complex whatever its entries.  Keys the format does not name are
    ignored."""
    try:
        d = _integer(obj["dim_v"], "dim_v")
        m = _integer(obj["dim_w"], "dim_w")
        kind = obj["scalar"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"pairing object missing field: {exc}") from exc
    if kind not in (RATIONAL, COMPLEX):
        raise ValueError(f"unknown scalar kind {kind!r}")
    if d < 1 or m < 0:
        raise ValueError("need dim_v >= 1 and dim_w >= 0")
    cols = {}
    for k, entry in _by_pair(obj.get("entries", []), d, "pairing entries").items():
        vec = entry.get("values")
        if not (isinstance(vec, list) and len(vec) == m):
            raise ValueError(f"entry values must be a list of dim_w = {m} scalars, got {vec!r}")
        cols[k] = vec
    if kind == RATIONAL:
        ints, den = _cleared_scalars([x for vec in cols.values() for x in vec])
    else:
        ints, den = _complex_values(list(cols.values())), 1
    values = np.zeros((m, pair_count(d)), dtype=ints.dtype)
    values[:, list(cols)] = ints.reshape(len(cols), m).T
    return SkewPairing.from_matrix(d, values, den)


# ---------------------------------------------------------------------------
# matrix tuples


def tuple_to_json(alpha: MatrixTuple) -> dict:
    """The tuple as a JSON object.  A complex tuple's ``"matrices"`` is its
    stored read-only complex128 stack itself, which :func:`canonical_json`
    writes as nested [re, im] lists and ``json.dumps`` refuses; a rational
    tuple's is nested lists of "p/q" strings."""
    kind = infer_kind(alpha)
    if kind == COMPLEX:
        mats = alpha.values
    else:
        texts = _wire_scalars(alpha.values.ravel().tolist(), alpha.den, kind)
        mats = np.array(texts, dtype=object).reshape(alpha.values.shape).tolist()
    return {"n": alpha.n, "d": alpha.d, "scalar": kind, "matrices": mats}


def tuple_from_json(obj: dict) -> MatrixTuple:
    try:
        n = _integer(obj["n"], "n")
        d = _integer(obj["d"], "d")
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
    if not all(isinstance(m, list) and len(m) == n
               and all(isinstance(row, list) and len(row) == n for row in m) for m in mats):
        raise ValueError("matrices must be n x n lists of scalars")
    rows = [row for m in mats for row in m]
    if kind == RATIONAL:
        values, den = _cleared_scalars([x for row in rows for x in row])
    else:
        values, den = _complex_values(rows), 1
    return MatrixTuple._from_stack(values.reshape(d, n, n), den)


# ---------------------------------------------------------------------------
# bivectors and verdicts


def bivector_to_json(w: Bivector) -> dict:
    kind = infer_kind(w)
    nonzero = [(ij, c) for ij, c in zip(pair_list(w.dim_v), w.values.tolist()) if c]
    values = _wire_scalars([c for _, c in nonzero], w.den, kind)
    coeffs = [{"i": i, "j": j, "value": v} for ((i, j), _), v in zip(nonzero, values)]
    return {"dim_v": w.dim_v, "coeffs": coeffs}


def bivector_from_json(obj: dict) -> Bivector:
    """Parse a bivector.  Its values go straight into its vector, cleared when
    each is a rational wire scalar, else complex128 with each rational value
    rounded once; omitted pairs are zero."""
    try:
        d = _integer(obj["dim_v"], "dim_v")
        if d < 1:
            raise ValueError("need dim_v >= 1")
        by_pair = _by_pair(obj["coeffs"], d, "bivector coeffs")
        vals = [c["value"] for c in by_pair.values()]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bivector object missing field: {exc}") from exc
    rational = np.array([isinstance(v, (str, int)) for v in vals], dtype=bool)
    if rational.all():
        vec, den = _cleared_scalars(vals)
    else:
        vec, den = np.empty(len(vals), dtype=complex), 1
        vec[rational] = to_float(*_cleared_scalars([v for v, r in zip(vals, rational) if r]))
        vec[~rational] = _complex_values([[v for v, r in zip(vals, rational) if not r]])
    values = np.zeros(pair_count(d), dtype=vec.dtype)
    values[list(by_pair)] = vec
    return Bivector._from_values(d, values, den)


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


# ---------------------------------------------------------------------------
# the report writer


@functools.lru_cache(maxsize=256)
def _template(shape: tuple, pad: str) -> str:
    """The text of a nested list of this shape whose line starts after
    ``pad``, with a %s for each leaf."""
    if not shape:
        return "%s"
    inner = pad + "  "
    items = ("," + inner).join([_template(shape[1:], inner)] * shape[0])
    return "[" + inner + items + pad + "]" if items else "[]"


def _write(obj, pad: str) -> str:
    """One JSON value whose line starts after ``pad`` ("\n" and the indent).
    A complex array is the nested list of its entries' [re, im] parts, by one
    template of its shape.  A NaN or an infinity raises PreconditionError;
    any other array is refused, as any other value json does not write."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj - obj == 0:
            return float.__repr__(obj)
        raise PreconditionError("a reported value lies outside the float range")
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_write(x, inner) for x in obj]) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + _write(v, inner)
            for k, v in sorted(obj.items())]) + pad + "}"
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "c":
        # the parts of each entry, as one view, keep the sign of each zero
        parts = np.ascontiguousarray(obj, dtype=complex).view(float).reshape(obj.shape + (2,))
        if not np.isfinite(parts).all():
            raise PreconditionError("a reported value lies outside the float range")
        return _template(parts.shape, pad) % tuple(map(float.__repr__, parts.ravel().tolist()))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` for a
    JSON value with string keys, without the pure-Python encoder ``indent``
    makes json use.  A complex numpy array is written as json would write the
    nested list of its entries' [re, im] parts; a NaN or an infinity raises
    PreconditionError, and any other value json does not write TypeError."""
    return _write(obj, "\n")
