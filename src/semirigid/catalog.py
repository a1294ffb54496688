"""Catalog of model pairings with known verdicts.

Each entry builds a rational pairing from integer parameters:

* ``symplectic-surface d``: nondegenerate skew form on C^d into a line;
  injective exactly when d = 2, otherwise the kernel is a hyperplane.
* ``torus g``: identity pairing on the second exterior power of C^(2g);
  zero kernel at every genus.
* ``curve g``: the genus-g intersection form (e_{2k} paired with e_{2k+1})
  into a line; once g >= 2 independent one-forms with vanishing product
  exist, so the kernel picks up decomposables.
* ``zero d m``: the identically-zero pairing; every bivector is in the
  kernel.
* ``identity d``: identity pairing on the second exterior power of C^d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exterior import SkewPairing
from .verdict import NOT_SEMI_RIGID, SEMI_RIGID


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: tuple
    pairing: SkewPairing
    expected_status: str | None
    notes: str


def _standard_symplectic(d: int) -> SkewPairing:
    return SkewPairing.from_map(d, 1, {(2 * k, 2 * k + 1): (1,) for k in range(d // 2)})


# Each builder returns (pairing, expected status); catalog_build adds the notes.


def _build_symplectic_surface(d: int):
    if d < 2 or d % 2:
        raise ValueError("symplectic-surface requires an even dimension >= 2")
    return _standard_symplectic(d), SEMI_RIGID if d == 2 else NOT_SEMI_RIGID


def _build_torus(g: int):
    if g < 1:
        raise ValueError("torus requires genus >= 1")
    return SkewPairing.identity(2 * g), SEMI_RIGID


def _build_curve(g: int):
    if g < 1:
        raise ValueError("curve requires genus >= 1")
    return _standard_symplectic(2 * g), SEMI_RIGID if g == 1 else NOT_SEMI_RIGID


def _build_zero(d: int, m: int):
    if d < 1 or m < 0:
        raise ValueError("zero requires d >= 1 and m >= 0")
    return SkewPairing.zero(d, m), NOT_SEMI_RIGID if d >= 2 else SEMI_RIGID


def _build_identity(d: int):
    if d < 1:
        raise ValueError("identity requires d >= 1")
    return SkewPairing.identity(d), SEMI_RIGID


# name -> (builder, parameter signature, notes); the signature names each parameter
_BUILDERS = {
    "symplectic-surface": (
        _build_symplectic_surface, "d",
        "nondegenerate skew form into a line; injective only in dimension 2"),
    "torus": (
        _build_torus, "g",
        "identity pairing on the full bivector space of a rank-2g lattice"),
    "curve": (
        _build_curve, "g",
        "genus-g intersection form into a line; decomposable kernel elements "
        "appear exactly when g >= 2"),
    "zero": (
        _build_zero, "d m",
        "identically-zero pairing; the kernel is the whole bivector space"),
    "identity": (
        _build_identity, "d",
        "identity pairing on the full bivector space"),
}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def catalog_signature(name: str) -> str:
    return _BUILDERS[name][1]


def catalog_notes(name: str) -> str:
    return _BUILDERS[name][2]


def catalog_build(name: str, params) -> CatalogEntry:
    if name not in _BUILDERS:
        raise ValueError(f"unknown catalog entry {name!r}; "
                         f"known: {', '.join(catalog_names())}")
    builder, signature, notes = _BUILDERS[name]
    arity = len(signature.split())
    params = tuple(int(x) for x in params)
    if len(params) != arity:
        raise ValueError(f"catalog entry {name!r} takes {arity} integer parameter(s)")
    pairing, expected = builder(*params)
    return CatalogEntry(name, params, pairing, expected, notes)
