"""One tolerance policy: ``ScalarMode.vanishes`` and ``scalars._svd_rank`` make
every float zero and rank decision, and ``DEFAULT_TOL`` is the one default."""

import ast
import dataclasses
import inspect
import math
import re
import symtable
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import semirigid
from semirigid import cli, commuting, exterior, scalars, verdict
from semirigid.catalog import catalog_build
from semirigid.commuting import (
    MatrixTuple,
    is_commuting,
    rep_analysis,
    simultaneous_triangularize,
)
from semirigid.exterior import (
    Bivector,
    KernelSubspace,
    SkewPairing,
    decomposable_exists_exact,
    kernel,
    wedge,
)
from semirigid.scalars import DEFAULT_TOL, ScalarMode
from semirigid.serialize import bivector_from_json, pairing_from_json, tuple_from_json
from semirigid.verdict import (
    SearchConfig,
    mu_zero_sampler,
    tuple_to_witness,
    witness_search,
    witness_to_tuple,
)

from util import exact_matrix

EXACT = ScalarMode.exact()
FLOAT = ScalarMode.floating()

# genus-2 intersection form on V = C^4; e0 ^ e2 is a rank-2 element of its kernel
CURVE = catalog_build("curve", [2]).pairing
W = Bivector.basis_element(4, 0, 2)


class TestVanishes:
    def test_exact_mode_compares_entries_not_their_float_values(self):
        tiny = exact_matrix([[0, Fraction(1, 10**400)], [0, 0]])
        assert float(tiny[0, 1]) == 0.0
        assert not EXACT.vanishes([tiny])
        assert EXACT.vanishes([exact_matrix([[0, 0], [0, 0]]), np.zeros(3, dtype=object)])

    def test_exact_mode_ignores_scale(self):
        one = exact_matrix([[1]])
        assert not EXACT.vanishes([one], scale=1e300)

    def test_float_mode_bound_is_tol_residual_times_scale(self):
        scale = 1e3
        bound = FLOAT.tol_residual * scale
        for norm, expected in ((0.99 * bound, True), (1.01 * bound, False)):
            # two entries of equal modulus: Frobenius norm is |a| sqrt(2)
            a = np.full(2, norm / np.sqrt(2), dtype=complex)
            assert FLOAT.vanishes([np.zeros(2), a], scale) is expected
        assert not FLOAT.vanishes([np.full(2, 0.99 * bound)], scale / 10)

    def test_every_array_must_vanish(self):
        assert not FLOAT.vanishes([np.zeros(2), np.ones(2)])
        assert FLOAT.vanishes([])

    def test_defaults_come_from_one_constant(self):
        for mode in (FLOAT, EXACT, ScalarMode):
            assert mode.tol_rank == mode.tol_residual == DEFAULT_TOL


def _source_files():
    return sorted(Path(semirigid.__file__).parent.glob("*.py"))


class TestToleranceLiterals:
    """The float regime's thresholds are written in one place each."""

    def test_default_tolerance_is_written_once(self):
        hits = [(f.name, line.strip()) for f in _source_files()
                for line in f.read_text().splitlines() if "1e-8" in line]
        assert hits == [("scalars.py", "DEFAULT_TOL = 1e-8")]

    def test_no_ad_hoc_floor(self):
        assert not [f.name for f in _source_files() if "1e-300" in f.read_text()]

    def test_singular_value_threshold_only_in_svd_rank(self):
        threshold = re.compile(r"\bs\s*>\s*[\w.]+\s*\*")
        hits = [f.name for f in _source_files() for _ in threshold.finditer(f.read_text())]
        assert hits == ["scalars.py"]
        assert threshold.search(inspect.getsource(scalars._svd_rank))

    def test_residual_bound_only_in_negligible(self):
        # products tol_residual * ..., in code and not in docstrings
        hits = [f.name for f in _source_files() for node in ast.walk(ast.parse(f.read_text()))
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and ast.unparse(node.left).endswith("tol_residual")]
        assert hits == ["scalars.py"]

    def test_tuple_to_witness_has_no_regime_branch(self):
        assert "is_exact" not in inspect.getsource(tuple_to_witness)

    def test_one_unit_size_rule(self):
        # every float test that rescales finds its power of two in
        # scalars._at_unit_size, and no check keeps a floor of its own
        def hits(text):
            return [f.name for f in _source_files() if text in f.read_text()]
        assert hits("np.frexp") == hits("def _at_unit_size(") == ["scalars.py"]
        assert not hasattr(exterior, "_ldexp")
        assert "or 1.0" not in inspect.getsource(decomposable_exists_exact)

    def test_decomposable_exists_exact_has_no_own_zero_test(self):
        assert "tol_rank" not in inspect.getsource(decomposable_exists_exact)

    def test_search_has_no_rank_tolerance_of_its_own(self):
        assert "tol_rank" not in {f.name for f in dataclasses.fields(SearchConfig)}

    def test_scalar_mode_has_the_single_field_kind(self):
        assert [f.name for f in dataclasses.fields(ScalarMode)] == ["kind"]

    def test_search_config_has_no_tolerance_field(self):
        assert ([f.name for f in dataclasses.fields(SearchConfig)]
                == ["restarts", "max_iterations", "seed"])

    def test_search_acceptance_derives_from_default_tol(self):
        assert verdict._ACCEPTANCE == (DEFAULT_TOL / 10) ** 2 == 1e-18


class TestOneCopyPerBivectorMap:
    """The skew lift, mu and the rank-2 factorization are written once."""

    def test_skew_lift_only_in_exterior(self):
        hits = [f.name for f in _source_files() if "triu_indices" in f.read_text()]
        assert hits == ["exterior.py"]

    def test_one_float_commuting_test(self):
        # commuting._float_commuting judges is_commuting and the sampler's
        # labels; only commuting forms commutators, and no Frobenius helper
        # or gathered Hessian layout is left
        def hits(text):
            return [f.name for f in _source_files() if text in f.read_text()]
        assert hits("_commutators(") == ["commuting.py"]
        assert hits("_float_commuting(") == ["commuting.py", "verdict.py"]
        assert hits("frobenius") == hits("_hessian_layout") == []

    def test_regime_copies_are_gone(self):
        assert not hasattr(commuting, "_pairing_tensor")
        assert not hasattr(verdict, "_rank2_factor_exact")
        assert not hasattr(verdict, "_rank2_factor_float")

    def test_one_rank_two_test(self):
        # exterior.rank2_factor answers every "is it of rank 2?"; bivector_rank
        # stays for the API and the tests, with no caller in the package
        def lines(text):
            return [(f.name, line.strip()) for f in _source_files()
                    for line in f.read_text().splitlines() if text in line]
        assert lines("bivector_rank(") == [
            ("exterior.py", "def bivector_rank(omega: Bivector, mode: ScalarMode) -> int:")]
        assert lines("def rank2_factor(") == [
            ("exterior.py", "def rank2_factor(omega: Bivector, mode: ScalarMode):")]
        assert not hasattr(verdict, "_rank2_factor")


def _module_names(table) -> set:
    """The module-level names that a scope and the scopes nested in it read.
    A parameter or an assignment binds a local name, which is no reference
    to a function of the same name; a function passed as a value is one."""
    names = {s.get_name() for s in table.get_symbols() if s.is_global() and s.is_referenced()}
    for child in table.get_children():
        names |= _module_names(child)
    return names


def call_graph(sources: dict) -> dict:
    """The package's call graph over ``sources`` (module name -> text): each
    top-level function or class (module, name), and each module's top level
    (module, None), mapped to the (module, name) of the names it reads,
    followed through relative imports.  A class is one node, its methods
    included; a comprehension or lambda at the top level belongs to it."""
    graph = {}
    for mod, text in sources.items():
        body = ast.parse(text).body
        imports = {a.asname or a.name: (node.module, a.name) for node in body
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                   for a in node.names}
        defs = {node.name for node in body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        top = symtable.symtable(text, f"{mod}.py", "exec")
        reads = {None: {s.get_name() for s in top.get_symbols() if s.is_referenced()}}
        for child in top.get_children():
            name = child.get_name() if child.get_name() in defs else None
            reads.setdefault(name, set()).update(_module_names(child))
        for name, names in reads.items():
            graph[(mod, name)] = {imports.get(n, (mod, n)) for n in names}
    return graph


def reached(sources: dict, roots=()) -> set:
    """The (module, name) nodes that the CLI, or one of ``roots``, reaches.
    Importing cli runs the top level of every module, and that of cli calls
    main; every node the graph leads to from there is reached."""
    graph = call_graph(sources)
    seen, todo = set(), [(mod, None) for mod in sources] + list(roots)
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(graph.get(node, ()))
    return seen


def unreached(sources: dict, exported: dict) -> set:
    """The names of ``exported`` (name -> defining module) that the CLI does
    not reach."""
    seen = reached(sources)
    return {name for name, mod in exported.items() if (mod, name) not in seen}


def unreached_definitions(sources: dict, roots=()) -> set:
    """Every top-level function or class, private ones included, that
    neither the CLI nor one of ``roots`` reaches."""
    return {node for node in call_graph(sources) if node[1]} - reached(sources, roots)


SOURCES = {path.stem: path.read_text() for path in Path(cli.__file__).parent.glob("*.py")}
EXPORTED = {name: f.__module__.rpartition(".")[2] for name, f in vars(semirigid).items()
            if inspect.isfunction(f)}

# exported functions that no command reaches, each kept for its reason
LIBRARY_ONLY = {
    # the library's entry point to the triangularization whose 1 x 1 leaves
    # joint_spectrum reads, with no basis change built
    "simultaneous_triangularize",
    # perfbench/spans.py's TARGETS and two per-layer metrics of BENCHMARK.json
    # look it up by name
    "bivector_rank",
}
LIBRARY_ROOTS = {(EXPORTED[name], name) for name in LIBRARY_ONLY}


class TestEveryReaderIsCalled:
    """A wire reader or a public function that no command reaches is dead
    code: it is used by a command, or it leaves the package."""

    def test_every_reader_is_called_from_the_cli(self):
        readers = {name: mod for mod, name in call_graph(SOURCES)
                   if mod == "serialize" and name and name.endswith("_from_json")}
        assert readers and not unreached(SOURCES, readers)

    def test_every_public_function_is_reached_from_the_cli(self):
        assert unreached(SOURCES, EXPORTED) == LIBRARY_ONLY

    def test_a_planted_function_is_reported(self):
        sources = dict(SOURCES, commuting=SOURCES["commuting"] + (
            "\n\ndef planted(alpha):\n    return chi(alpha)\n"
            "\n\ndef planted_caller(alpha):\n    return planted(alpha)\n"))
        exported = dict(EXPORTED, planted="commuting", planted_caller="commuting")
        assert unreached(sources, exported) == LIBRARY_ONLY | {"planted", "planted_caller"}

    def test_every_definition_is_reached_from_the_cli_or_a_library_function(self):
        assert not unreached_definitions(SOURCES, LIBRARY_ROOTS)
        # scalars.solve is reached only through simultaneous_triangularize
        assert unreached_definitions(SOURCES) == {
            ("commuting", "simultaneous_triangularize"), ("exterior", "bivector_rank"),
            ("scalars", "solve")}

    def test_a_planted_private_helper_is_reported(self):
        sources = dict(SOURCES, scalars=SOURCES["scalars"] + (
            "\n\ndef _planted(a):\n    return _rref(a)\n"))
        assert unreached_definitions(sources, LIBRARY_ROOTS) == {("scalars", "_planted")}

    def test_a_local_name_is_no_reference(self):
        # mu is a local of both, though verdict imports commuting.mu
        graph = call_graph(SOURCES)
        assert ("commuting", "mu") in graph[("verdict", "tuple_to_witness")]
        for name in ("_damp", "_min_norm_step"):
            assert ("commuting", "mu") not in graph[("verdict", name)]

    def test_a_function_passed_as_a_value_counts(self):
        # commuting._product maps cleared over its factors
        assert ("scalars", "cleared") in call_graph(SOURCES)[("commuting", "_product")]


def _wire(kind, values):
    return pairing_from_json({"dim_v": 3, "dim_w": 2, "scalar": kind, "entries": [
        {"i": 0, "j": 2, "values": values}]})


# every constructor of a pairing, built when its case runs, with whether it is rational
PAIRINGS = {
    "ints": (lambda: SkewPairing(3, 2, ((1, -2), (0, 0), (4, 6))), True),
    "fractions": (lambda: SkewPairing(3, 1, ((Fraction(1, 2),), (0,), (Fraction(-2, 3),))),
                  True),
    "complex rows": (lambda: SkewPairing(3, 1, ((1j,), (0,), (2.5,))), False),
    "zero": (lambda: SkewPairing.zero(4, 2), True),
    "identity": (lambda: SkewPairing.identity(4), True),
    "from_map": (lambda: SkewPairing.from_map(3, 2, {(0, 2): (Fraction(3, 4), 1)}), True),
    "rational file": (lambda: _wire("rational", ["2/6", "-5/4"]), True),
    "complex file": (lambda: _wire("complex", [[1, 0.5], [-0.0, 2]]), False),
}


class TestOneStoredPairingForm:
    """A skew pairing is stored once, as its read-only matrix values / den;
    entries, matrix() and the kind are derived from it."""

    def test_no_second_form(self):
        p = PAIRINGS["rational file"][0]()
        for name in ("__getattr__", "from_cleared", "_rational", "cleared_form"):
            assert not hasattr(SkewPairing, name) and not hasattr(p, name)

    @pytest.mark.parametrize("name", PAIRINGS)
    def test_the_stored_matrix(self, name):
        build, rational = PAIRINGS[name]
        p = build()
        values, den = p.values, p.den
        assert values.shape == (p.dim_w, math.comb(p.dim_v, 2))
        assert not values.flags.writeable
        assert p.is_rational() == rational
        if rational:
            assert all(type(x) is int for x in values.flat) and type(den) is int
            assert den > 0 and math.gcd(den, *values.flat) == 1
        else:
            assert values.dtype == np.complex128 and den == 1


def _rational_pair():
    return [exact_matrix([[Fraction(1, 2), 1], [0, Fraction(-1, 3)]]),
            exact_matrix([[2, 0], [0, Fraction(5, 6)]])]


# every constructor of a tuple, built when its case runs, with whether it is rational
TUPLES = {
    "int lists": (lambda: MatrixTuple.from_matrices([[[1, 2], [0, 1]], [[3, 0], [0, -4]]]),
                  True),
    "Fraction arrays": (lambda: MatrixTuple.from_matrices(_rational_pair()), True),
    "MatrixTuple(n, d, ...)": (lambda: MatrixTuple(2, 2, tuple(_rational_pair())), True),
    "complex arrays": (lambda: MatrixTuple.from_matrices(
        [np.array([[1j, 0.5], [0, 2]]), np.eye(2, dtype=complex)]), False),
    "rational file": (lambda: tuple_from_json({
        "n": 2, "d": 1, "scalar": "rational",
        "matrices": [[["2/6", 0], ["4/-6", "-8/12"]]]}), True),
    "complex file": (lambda: tuple_from_json({
        "n": 2, "d": 1, "scalar": "complex",
        "matrices": [[[[1, 0.5], [-0.0, 2]], [3, [0, -1]]]]}), False),
    "witness_to_tuple exact": (lambda: witness_to_tuple(Fraction(1, 6) * W, 3, EXACT), True),
    "witness_to_tuple float": (lambda: witness_to_tuple(W, 3, FLOAT), False),
    "triangularized exact": (lambda: simultaneous_triangularize(
        MatrixTuple.from_matrices([[[1, Fraction(1, 2)], [0, 2]]]), EXACT)[1], True),
    "triangularized float": (lambda: simultaneous_triangularize(
        MatrixTuple.from_matrices([[[1, Fraction(1, 2)], [0, 2]]]), FLOAT)[1], False),
    "scaled exact": (lambda: MatrixTuple.from_matrices(_rational_pair()).scaled(Fraction(6, 5)),
                     True),
    "scaled float": (lambda: MatrixTuple.from_matrices(_rational_pair()).scaled(0.5), False),
    "to_float": (lambda: MatrixTuple.from_matrices(_rational_pair()).to_float(), False),
    "sampler": (lambda: mu_zero_sampler(CURVE, 2, SearchConfig(restarts=2)).samples[0].alpha,
                False),
}


class TestOneStoredTupleForm:
    """A matrix tuple is stored once, as its read-only (d, n, n) stack
    values / den; matrices and the kind are derived from it."""

    def test_no_second_form(self):
        assert not hasattr(MatrixTuple, "__post_init__")
        assert not hasattr(commuting, "_as_matrix")

    @pytest.mark.parametrize("name", TUPLES)
    def test_the_stored_stack(self, name):
        build, rational = TUPLES[name]
        alpha = build()
        values, den = alpha.values, alpha.den
        assert values.shape == (alpha.d, alpha.n, alpha.n)
        assert not values.flags.writeable
        assert alpha.is_rational() == rational
        mats = np.array(alpha.matrices)
        if rational:
            assert all(type(x) is int for x in values.flat) and type(den) is int
            assert den > 0 and math.gcd(den, *values.flat) == 1
            assert all(type(x) is Fraction for x in mats.flat)
            assert (mats * den == values).all()
        else:
            assert values.dtype == np.complex128 and den == 1
            assert (mats == values).all()

    def test_the_reader_reduces_by_the_gcd(self):
        alpha = TUPLES["rational file"][0]()
        assert alpha.den == 3 and alpha.values.ravel().tolist() == [1, 0, -2, -2]

    def test_clearing_only_in_the_tuple_and_the_integer_kernels(self):
        # the stored stack is built once, by scalars.stored; only _product and
        # _exact_blocks clear other rationals (the basis change and a common
        # eigenvector)
        tree = ast.parse(Path(commuting.__file__).read_text())

        def hits(name):
            return {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and any(isinstance(x, ast.Name) and x.id == name for x in ast.walk(node))}
        assert hits("cleared") == {"_product", "_exact_blocks"}
        assert hits("stored") == {"MatrixTuple", "JointSpectrum"}
        assert not [f.name for f in _source_files()
                    if "cleared(np.array(alpha.matrices))" in f.read_text()]


def _bivector_file(values):
    return bivector_from_json({"dim_v": 3, "coeffs": [
        {"i": 0, "j": k + 1, "value": v} for k, v in enumerate(values)]})


# a pairing whose exact kernel has den > 1 and rows of their own den
THIRDS = SkewPairing(3, 1, ((3,), (2,), (6,)))

# every constructor of a bivector, built when its case runs, with whether it is rational
BIVECTORS = {
    "ints": (lambda: Bivector(3, (1, -2, 0)), True),
    "Fractions": (lambda: Bivector(3, (Fraction(1, 2), 0, Fraction(-2, 3))), True),
    "complex": (lambda: Bivector(3, (1j, 0.5, -0.0)), False),
    "Fraction and complex": (lambda: Bivector(3, (Fraction(1, 3), 1j, 0)), False),
    "zero": (lambda: Bivector.zero(4), True),
    "from_pairs": (lambda: Bivector.from_pairs(3, {(2, 0): Fraction(3, 4)}), True),
    "wedge ints": (lambda: wedge([1, 2, 0], [0, Fraction(1, 2), 3]), True),
    "wedge floats": (lambda: wedge(np.array([1.0, 2j, 0]), np.array([0, 0.5, 3])), False),
    "sum and multiple": (lambda: Fraction(2, 3) * W + W, True),
    "rational file": (lambda: _bivector_file(["2/6", "-5/4"]), True),
    "complex file": (lambda: _bivector_file([[1, 0.5], [-0.0, 2]]), False),
    "mixed file": (lambda: _bivector_file(["1/3", [0, 1]]), False),
    "exact kernel row": (lambda: kernel(THIRDS, EXACT).basis[1], True),
    "float kernel row": (lambda: kernel(CURVE, FLOAT).basis[0], False),
    "search witness": (lambda: witness_search(kernel(CURVE, FLOAT)).witness, False),
    "tuple_to_witness": (lambda: tuple_to_witness(witness_to_tuple(W, 2, EXACT), CURVE, EXACT),
                         True),
}

W3 = Bivector(3, (Fraction(1, 2), 0, 1))

# a random integer pairing at d = 8 whose kernel has den > 1
RANDOM = SkewPairing.from_matrix(8, np.array(
    np.random.default_rng(1).integers(-3, 4, size=(14, 28)).tolist(), dtype=object))

# every constructor of a kernel, with whether it is rational
KERNELS = {
    "exact kernel": (lambda: kernel(THIRDS, EXACT), True),
    "exact random kernel": (lambda: kernel(RANDOM, EXACT), True),
    "float kernel": (lambda: kernel(THIRDS, FLOAT), False),
    "exact, dim_w = 0": (lambda: kernel(SkewPairing.zero(4, 0), EXACT), True),
    "float, dim_w = 0": (lambda: kernel(SkewPairing.zero(4, 0), FLOAT), False),
    "exact, d = 1": (lambda: kernel(SkewPairing.zero(1, 2), EXACT), True),
    "float, d = 1": (lambda: kernel(SkewPairing.zero(1, 2), FLOAT), False),
    "rational bivectors": (lambda: KernelSubspace(3, (W3, Bivector(3, (0, 1, Fraction(1, 3))))),
                           True),
    "complex bivectors": (lambda: KernelSubspace(3, (BIVECTORS["complex"][0](),)), False),
    "rational and complex": (lambda: KernelSubspace(3, (W3, BIVECTORS["complex"][0]())), False),
    "empty": (lambda: KernelSubspace(5, ()), True),
}


def _check_stored(values, den, rational):
    assert not values.flags.writeable
    if rational:
        assert all(type(x) is int for x in values.flat) and type(den) is int
        assert den > 0 and math.gcd(den, *values.flat) == 1
    else:
        assert values.dtype == np.complex128 and den == 1


class TestOneStoredBivectorForm:
    """A bivector and a kernel are stored once, as a read-only values / den;
    coeffs, basis, the kind, equality and hash are derived from it."""

    def test_no_second_form(self):
        for cls in (Bivector, KernelSubspace):
            assert not hasattr(cls, "__post_init__")
        assert not hasattr(exterior, "plucker_square")
        assert not hasattr(semirigid, "plucker_square")

    @pytest.mark.parametrize("name", BIVECTORS)
    def test_the_stored_vector(self, name):
        build, rational = BIVECTORS[name]
        b = build()
        assert b.values.shape == (math.comb(b.dim_v, 2),)
        assert b.is_rational() == rational
        _check_stored(b.values, b.den, rational)
        again = Bivector(b.dim_v, b.coeffs)
        assert again == b and hash(again) == hash(b)
        assert again.values.tolist() == b.values.tolist() and again.den == b.den

    @pytest.mark.parametrize("name", KERNELS)
    def test_the_stored_matrix(self, name):
        build, rational = KERNELS[name]
        k = build()
        assert k.values.shape == (k.dim, math.comb(k.dim_v, 2))
        assert k.is_rational() == rational
        _check_stored(k.values, k.den, rational)
        for row, b in zip(k.values, k.basis):
            _check_stored(b.values, b.den, rational)
            assert b.is_rational() == rational
            assert (b.values * k.den == row * b.den).all()
        again = KernelSubspace(k.dim_v, k.basis)
        assert again == k and hash(again) == hash(k)
        assert k.basis is k.basis

    def test_exact_kernel_rows_reduce_on_their_own(self):
        # the kernel of 3 e01 + 2 e02 + 6 e12 in the RREF: (-2/3, 1, 0), (-2, 0, 1)
        k = kernel(THIRDS, EXACT)
        assert k.den == 3 and k.values.tolist() == [[-2, 3, 0], [-6, 0, 3]]
        assert [(b.values.tolist(), b.den) for b in k.basis] == [([-2, 3, 0], 3), ([-2, 0, 1], 1)]

    def test_clearing_only_in_the_constructors(self):
        # each stored form is built once, by scalars.stored in its constructor;
        # the readers of exterior and verdict take values / den as it is
        tree = ast.parse(Path(exterior.__file__).read_text())
        pairs = {(cls.name, fn.name) for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)
                 for x in ast.walk(fn) if isinstance(x, ast.Name) and x.id == "stored"}
        lines = [x.lineno for x in ast.walk(tree) if isinstance(x, ast.Name) and x.id == "stored"]
        assert pairs == {("Bivector", "__init__"), ("SkewPairing", "__init__"),
                         ("KernelSubspace", "__init__")}
        # one call in each constructor
        assert len(lines) == 3
        assert not [x for x in ast.walk(tree) if isinstance(x, ast.Name) and x.id == "cleared"]
        assert "cleared" not in Path(verdict.__file__).read_text()


def _functions(tree):
    """(name, node) of each top-level function and method, "Class.method"."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef))


class TestOneRationalRule:
    """Which entries are rational is decided once, by ``scalars.stored``; the
    wire readers in serialize and cli decide it for JSON values, by their text."""

    def test_per_entry_classification_only_in_the_normalizer(self):
        rational_types = {"int", "bool", "Fraction", "Rational", "integer", "_RATIONAL_TYPES"}

        def names(node):
            return {x.id if isinstance(x, ast.Name) else x.attr for x in ast.walk(node)
                    if isinstance(x, (ast.Name, ast.Attribute))}

        type_tests, entry_loops = set(), set()
        for f in _source_files():
            if f.name in ("serialize.py", "cli.py"):
                continue
            for name, fn in _functions(ast.parse(f.read_text())):
                for x in ast.walk(fn):
                    # isinstance(x, <a rational type>), or entry types against a set
                    if (isinstance(x, ast.Call) and isinstance(x.func, ast.Name)
                            and x.func.id == "isinstance" and names(x.args[1]) & rational_types
                            or isinstance(x, ast.Name) and x.id == "_RATIONAL_TYPES"):
                        type_tests.add((f.name, name))
                    # is_rational() of each of several objects
                    if isinstance(x, (ast.GeneratorExp, ast.ListComp)) and "is_rational" in names(x):
                        entry_loops.add((f.name, name))
        assert type_tests == {("scalars.py", "stored")}
        assert entry_loops == {("scalars.py", "resolve_mode")}

    def test_the_other_rules_are_gone(self):
        for name in ("is_rational_scalar", "exact_matrix", "as_fraction"):
            assert not [f.name for f in _source_files() if name in f.read_text()], name
        assert not hasattr(SkewPairing, "cleared_form") and not hasattr(commuting, "trace")


def _conjugated(mats, seed):
    """The tuple conjugated by a seeded unitary, as a float tuple."""
    rng = np.random.default_rng(seed)
    n = mats[0].shape[0]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return MatrixTuple.from_matrices([q @ np.asarray(m, dtype=complex) @ q.conj().T
                                      for m in mats])


@st.composite
def mu_zero_tuples(draw):
    """Float tuples with mu = 0 for CURVE: the sl2 tuple through W (not
    commuting) or four diagonal matrices (commuting), in a random basis."""
    n = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        mats = witness_to_tuple(W, n, EXACT).matrices
    else:
        rng = np.random.default_rng(seed)
        mats = [np.diag(rng.integers(-3, 4, size=n)) for _ in range(CURVE.dim_v)]
    return _conjugated(mats, seed)


class TestRescalingMetamorphic:
    """Every float decision is relative to the input's scale, so multiplying a
    tuple by s changes none of them."""

    @given(alpha=mu_zero_tuples(), exponent=st.floats(-6, 6))
    def test_rescaling_keeps_float_decisions(self, alpha, exponent):
        scaled = alpha.scaled(10.0 ** exponent)
        assert is_commuting(scaled, FLOAT) == is_commuting(alpha, FLOAT)
        assert rep_analysis(scaled) == rep_analysis(alpha)
        assert ((tuple_to_witness(scaled, CURVE) is None)
                == (tuple_to_witness(alpha, CURVE) is None))
