"""Command-line front end.

Subcommands analyze pairings, inspect kernels, work with commuting tuples,
construct stable points from a kernel witness and read a kernel element back
off a mu-zero tuple (``construct witness``), sample the quadratic cone, run the
Chevalley separation suite (``verify chevalley``), and expose the model
catalog.  Reports are JSON on stdout; timing goes to stderr so identical
inputs with identical seeds give byte-identical reports.  Exit codes: 0
success, 1 a failed verification (a verification suite or the re-check of an
emitted witness), 2 malformed input, 3 violated precondition.

Pairing arguments accept a file path or a pseudo-path ``catalog:NAME:P1[:P2]``
expanding to the same JSON that ``catalog show`` prints.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .catalog import catalog_build, catalog_names, catalog_notes, catalog_signature
from .commuting import (
    MatrixTuple,
    chevalley_separates,
    joint_spectrum,
    rep_analysis,
    trace_monomials,
)
from .exterior import kernel, rank2_factor
from .scalars import PreconditionError, ScalarMode, resolve_mode, stored
from .serialize import (
    _RATIO,
    _wire_scalars,
    bivector_from_json,
    bivector_to_json,
    canonical_json,
    infer_kind,
    pairing_from_json,
    pairing_to_json,
    tuple_from_json,
    tuple_to_json,
    verdict_to_json,
)
from .verdict import (
    SearchConfig,
    WitnessVerificationError,
    construct_stable_point,
    decide,
    mu_zero_sampler,
    split_component_dimension,
    tuple_to_witness,
)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3


class _CliInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliInputError(message)


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _read_json(path: str, what: str):
    """The JSON value in a file, and the digest of the file's bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw), _digest(raw)
    except (OSError, RecursionError) as exc:
        raise _CliInputError(f"cannot read {what} file: {exc}") from exc


def _load_pairing(source: str):
    """Load a pairing from a file or a catalog:NAME:PARAMS pseudo-path."""
    if source.startswith("catalog:"):
        parts = source.split(":")
        entry = catalog_build(parts[1], parts[2:])
        text = canonical_json(pairing_to_json(entry.pairing))
        return entry.pairing, _digest(text.encode())
    obj, digest = _read_json(source, "pairing")
    return pairing_from_json(obj), digest


def _resolve_seed(args) -> int:
    """``--seed``, else ``SEMIRIGID_SEED``, else 0; a negative seed is refused."""
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = int(os.environ.get("SEMIRIGID_SEED", 0))
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _search_config(args, seed: int) -> SearchConfig:
    """Search settings from the flags given; unset ones keep SearchConfig's defaults,
    and explicit ones pass through unchanged for SearchConfig to validate."""
    given = {name: getattr(args, name, None)
             for name in ("restarts", "max_iterations")}
    return SearchConfig(seed=seed, **{k: v for k, v in given.items() if v is not None})


def _requested_mode(args) -> ScalarMode | None:
    """``--mode`` as a ScalarMode; None leaves the regime to the input."""
    return {None: None, "rational": ScalarMode.exact(),
            "complex": ScalarMode.floating()}[args.mode]


def _emit(started: float, digest: str, seed: int, **payload) -> int:
    """Write the report: the envelope (version, input digest, seed) and the payload keys."""
    report = {"tool_version": __version__, "input_digest": digest, "seed": seed, **payload}
    sys.stdout.write(canonical_json(report) + "\n")
    sys.stderr.write(json.dumps({"timing_ms": round(1000 * (time.monotonic() - started), 3)})
                     + "\n")
    return EXIT_OK


def _wire_list(values: list, kind: str) -> list:
    """The wire scalars of ``values``, written from their stored form as
    every serialize writer writes its own."""
    ints, den = stored(values)
    return _wire_scalars(ints.tolist(), den, kind)


_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _parse_epsilon(text: str):
    """``--epsilon`` as a float (an ASCII decimal) or a Fraction ("p/q" in
    ASCII, as :data:`serialize._RATIO` reads it); ValueError otherwise."""
    if _DECIMAL.fullmatch(text):
        return float(text)
    num, den = map(int, text.split("/")) if _RATIO.fullmatch(text) else (0, 0)
    if den == 0:
        raise ValueError(f"epsilon must be a decimal or 'p/q' with q != 0, got {text!r}")
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_analyze(args, started):
    pairing, digest = _load_pairing(args.pairing)
    seed = _resolve_seed(args)
    cfg = _search_config(args, seed)
    verdict = decide(pairing, _requested_mode(args), cfg)
    return _emit(started, digest, seed, verdict=verdict_to_json(verdict))


def _cmd_kernel(args, started):
    pairing, digest = _load_pairing(args.pairing)
    k = kernel(pairing, resolve_mode(_requested_mode(args), pairing))
    return _emit(started, digest, _resolve_seed(args), kernel={
        "dim_v": k.dim_v,
        "dim": k.dim,
        "basis": [bivector_to_json(b) for b in k.basis],
    })


def _cmd_commuting(args, started):
    obj, digest = _read_json(args.tuple, "tuple")
    alpha = tuple_from_json(obj)
    mode = resolve_mode(_requested_mode(args), alpha)
    seed = _resolve_seed(args)
    if args.commuting_cmd == "spectrum":
        spectrum = joint_spectrum(alpha, mode)
        kind = infer_kind(spectrum)
        texts = _wire_list([x for p in spectrum.points for x in p], kind)
        pts = sorted((texts[i:i + alpha.d] for i in range(0, len(texts), alpha.d)),
                     key=json.dumps)
        payload = {"n": alpha.n, "d": alpha.d, "scalar": kind, "points": pts}
        key = "spectrum"
    elif args.commuting_cmd == "invariants":
        monos = sorted(trace_monomials(alpha, args.max_degree).items(),
                       key=lambda kv: (len(kv[0]), kv[0]))
        values = _wire_list([v for _, v in monos], infer_kind(alpha))
        payload = {
            "max_degree": args.max_degree,
            "monomials": [{"word": list(w), "value": v} for (w, _), v in zip(monos, values)],
        }
        key = "invariants"
    else:
        out = rep_analysis(alpha, mode)
        payload = {
            "commutant_dim": out.commutant_dim,
            "algebra_dim": out.algebra_dim,
            "radical_dim": out.radical_dim,
            "irreducible": out.irreducible,
            "semisimple": out.semisimple,
            "stable": out.stable,
        }
        key = "analysis"
    return _emit(started, digest, seed, **{key: payload})


def _cmd_construct(args, started):
    pairing, digest = _load_pairing(args.pairing)
    seed = _resolve_seed(args)
    # --mode governs the input; a witness found by search keeps its own regime
    mode = _requested_mode(args)
    if args.auto:
        verdict = decide(pairing, mode, _search_config(args, seed))
        if verdict.witness is None:
            raise _CliInputError(
                f"no witness available: verdict is {verdict.status} "
                f"({verdict.certificate})")
        omega, mode = verdict.witness, None
    else:
        obj, own = _read_json(args.witness, "witness")
        omega, digest = bivector_from_json(obj), _digest(f"{digest} {own}".encode())
    alpha = construct_stable_point(pairing, omega, args.n, _parse_epsilon(args.epsilon), mode)
    return _emit(started, digest, seed,
                 witness=bivector_to_json(omega), tuple=tuple_to_json(alpha))


def _cmd_witness(args, started):
    pairing, digest = _load_pairing(args.pairing)
    seed = _resolve_seed(args)
    obj, own = _read_json(args.tuple, "tuple")
    alpha, digest = tuple_from_json(obj), _digest(f"{digest} {own}".encode())
    mode = resolve_mode(_requested_mode(args), alpha, pairing)
    omega = tuple_to_witness(alpha, pairing, mode)
    return _emit(started, digest, seed, contraction={
        "bivector": None if omega is None else bivector_to_json(omega),
        "decomposable": omega is not None and rank2_factor(omega, mode) is not None,
    })


def _cmd_sample(args, started):
    pairing, digest = _load_pairing(args.pairing)
    seed = _resolve_seed(args)
    out = mu_zero_sampler(pairing, args.n, _search_config(args, seed))
    return _emit(started, digest, seed, samples={
        "attempted": out.attempted,
        "converged": out.converged,
        "points": [
            {
                "matrices": tuple_to_json(s.alpha)["matrices"],
                "commuting": s.commuting,
                "mu_residual": s.mu_residual,
                "chi_residual": s.chi_residual,
            }
            for s in out.samples
        ],
    })


def _cmd_verify_chevalley(args, started):
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    mode = ScalarMode.floating()
    n, d = args.n, args.d
    if min(n, d, args.samples) < 1:
        raise ValueError("verify chevalley needs --n, --d and --samples >= 1")
    failures = {"power_sums": 0, "conjugation": 0, "perturbation": 0}
    for _ in range(args.samples):
        diags = [np.diag(rng.integers(-4, 5, size=n).astype(complex)) for _ in range(d)]
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
        pinv = np.linalg.inv(p)
        alpha = MatrixTuple.from_matrices([p @ dg @ pinv for dg in diags])
        points = [tuple(dg[j, j] for dg in diags) for j in range(n)]
        monos = trace_monomials(alpha, min(4, max(n, 2)))
        for word, val in monos.items():
            expected = sum(math.prod(pt[i - 1] for i in word) for pt in points)
            if not mode.negligible(abs(val - expected), max(1.0, abs(expected))):
                failures["power_sums"] += 1
                break
        q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
        conj = MatrixTuple.from_matrices(
            [q @ np.asarray(m, complex) @ np.linalg.inv(q) for m in alpha.matrices])
        if not chevalley_separates(alpha, conj, mode):
            failures["conjugation"] += 1
        shifted = [dg.copy() for dg in diags]
        shifted[0][0, 0] += 1e-3
        beta = MatrixTuple.from_matrices([p @ dg @ pinv for dg in shifted])
        if chevalley_separates(alpha, beta, mode):
            failures["perturbation"] += 1
    passed = not any(failures.values())
    code = _emit(started, _digest(f"chevalley:{n}:{d}:{args.samples}".encode()), seed,
                 chevalley={"n": n, "d": d, "samples": args.samples,
                            "passed": passed, "failures": failures})
    return code if passed else EXIT_FAILED_CHECK


def _cmd_catalog(args, started):
    seed = _resolve_seed(args)
    if args.catalog_cmd == "list":
        payload = [
            {"name": name, "params": catalog_signature(name), "notes": catalog_notes(name)}
            for name in catalog_names()
        ]
        return _emit(started, _digest(b"catalog:list"), seed, catalog=payload)
    entry = catalog_build(args.name, args.params)
    pairing_json = pairing_to_json(entry.pairing)
    return _emit(started, _digest(canonical_json(pairing_json).encode()), seed, entry={
        "name": entry.name,
        "params": list(entry.params),
        "expected_status": entry.expected_status,
        "notes": entry.notes,
        "pairing": pairing_json,
    })


def _cmd_split_dim(args, started):
    value = split_component_dimension(args.n, args.dim_m)
    return _emit(started, _digest(f"split-dim:{args.n}:{args.dim_m}".encode()),
                 _resolve_seed(args), split_component_dimension=value)


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="semirigid",
                     description="semi-rigidity analysis of skew pairings")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("analyze", help="decide semi-rigidity of a pairing")
    p.add_argument("--pairing", required=True)
    p.add_argument("--mode", choices=["rational", "complex"], default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)
    add_seed(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("kernel", help="kernel basis of a pairing")
    p.add_argument("--pairing", required=True)
    p.add_argument("--mode", choices=["rational", "complex"], default=None)
    add_seed(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("commuting", help="commuting-tuple operations")
    csub = p.add_subparsers(dest="commuting_cmd", required=True)
    for name in ("spectrum", "invariants", "analyze"):
        cp = csub.add_parser(name)
        cp.add_argument("--tuple", required=True)
        cp.add_argument("--mode", choices=["rational", "complex"], default=None)
        if name == "invariants":
            cp.add_argument("--max-degree", dest="max_degree", type=int, default=4)
        add_seed(cp)
        cp.set_defaults(func=_cmd_commuting)

    p = sub.add_parser("construct", help="constructions between witnesses and tuples")
    csub = p.add_subparsers(dest="construct_cmd", required=True)
    cp = csub.add_parser("stable")
    cp.add_argument("--pairing", required=True)
    group = cp.add_mutually_exclusive_group(required=True)
    group.add_argument("--witness")
    group.add_argument("--auto", action="store_true")
    cp.add_argument("--n", type=int, required=True)
    cp.add_argument("--epsilon", default="1")
    cp.add_argument("--mode", choices=["rational", "complex"], default=None)
    cp.add_argument("--restarts", type=int, default=None)
    add_seed(cp)
    cp.set_defaults(func=_cmd_construct)
    cp = csub.add_parser("witness")
    cp.add_argument("--pairing", required=True)
    cp.add_argument("--tuple", required=True)
    cp.add_argument("--mode", choices=["rational", "complex"], default=None)
    add_seed(cp)
    cp.set_defaults(func=_cmd_witness)

    p = sub.add_parser("sample", help="sample the quadratic cone")
    ssub = p.add_subparsers(dest="sample_cmd", required=True)
    sp = ssub.add_parser("mu-zero")
    sp.add_argument("--pairing", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--starts", dest="restarts", type=int, default=None)
    add_seed(sp)
    sp.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="verification suites")
    vsub = p.add_subparsers(dest="verify_cmd", required=True)
    vp = vsub.add_parser("chevalley")
    vp.add_argument("--n", type=int, required=True)
    vp.add_argument("--d", type=int, required=True)
    vp.add_argument("--samples", type=int, default=50)
    add_seed(vp)
    vp.set_defaults(func=_cmd_verify_chevalley)

    p = sub.add_parser("catalog", help="model pairings")
    ksub = p.add_subparsers(dest="catalog_cmd", required=True)
    kp = ksub.add_parser("list")
    add_seed(kp)
    kp.set_defaults(func=_cmd_catalog)
    kp = ksub.add_parser("show")
    kp.add_argument("name")
    kp.add_argument("params", nargs="*", type=int)
    add_seed(kp)
    kp.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("split-dim", help="dimension of the split component")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim-m", dest="dim_m", type=int, required=True)
    add_seed(p)
    p.set_defaults(func=_cmd_split_dim)

    return parser


def _error_json(exc: Exception) -> str:
    return json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})


def main(argv=None) -> int:
    started = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # stderr holds JSON lines only: a float overflow shows in the checks it fails
        with np.errstate(all="ignore"):
            return args.func(args, started)
    except WitnessVerificationError as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return EXIT_FAILED_CHECK
    except PreconditionError as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return EXIT_PRECONDITION
    # a size too large to hold (dim_v 10^9, or 10^400) is malformed input too
    except (ValueError, KeyError, OSError, MemoryError, OverflowError) as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
