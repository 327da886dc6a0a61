"""Rules on the package source, checked on its syntax tree.

* Invariants raise ModfolError subclasses: no `assert` statement and no
  AssertionError, which would vanish or leak under `python -O`.
* Each module-level function has one home: no name is defined at module
  level in two modules.
* The prime helpers live in `arith` alone.
* The Hecke routes that Heilbronn matrices replaced (Merel's family and
  the degeneracy-coset paths), and the Heilbronn family as a list of
  matrices, which the walk mod N replaced, live in the test oracles alone;
  only `congruence` reads the P^1 table that the walk runs on.
* QMatrix is the one integer matrix core: no module defines its own
  denominator clearing or integer matrix product, and only `linalg`
  reads the storage of a QMatrix.
* QMatrix.restrict is the one restriction to an invariant subspace: only
  `linalg` reads rows by index list, nothing defines or calls a solve or
  the pivot-row restriction, and cusp equivalence by search lives in the
  test oracles alone.
* LLL runs on integers: the Fraction Gram-Schmidt recomputation lives
  in the test oracles alone.
* Real embeddings decide signs on integers: no interval arithmetic over
  Fractions is defined in the package.
* eigen holds a vector over the eigenvalue field as one coordinate
  matrix: no per-entry row product, scalar action or lift is defined, and
  no field wrapper beside NumberField.
* QMatrix.rref is the one Gauss-Jordan body: polynomials factor modulo p
  by distinct-degree and equal-degree splitting, with no Berlekamp matrix
  and no elimination over GF(p) of their own.
* Linear systems over a number field are solved in eigen's coordinate
  form, by numfield.eigenspace on rational operators: no `nf_kernel` on
  lists of field elements.
* polys.parse_poly is the one parser of polynomial text: the CLI has no
  length parser (`_parse_combo`) of its own.
* Period integrals have one summation body, the integer fixed-point
  loop of `period_integral`: it makes no mpmath number per term, and the
  complex-power loop it replaced lives in the test oracles alone.
* No dead code: every function, method and class of the package is
  referenced by name in the package or its tests.  Dunder methods are
  exempt, and so is `_Parser.error`, which argparse calls.
"""

import ast
from collections import defaultdict
from pathlib import Path

import modfol
from modfol.linalg import QMatrix

SOURCES = sorted(Path(modfol.__file__).resolve().parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in SOURCES}
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _defined_functions():
    return {node.name for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _module_functions():
    homes = defaultdict(list)
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                homes[node.name].append(module)
    return homes


def test_sources_found():
    assert {"arith", "linalg", "numfield"} <= set(TREES)


def test_no_assert_and_no_assertion_error():
    found = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append("%s:%d" % (module, node.lineno))
    assert found == []


def test_each_module_function_defined_once():
    duplicates = {name: modules
                  for name, modules in _module_functions().items()
                  if len(modules) > 1}
    assert duplicates == {}


def test_prime_helpers_live_in_arith():
    homes = _module_functions()
    for name in ("is_prime", "next_prime", "primes_up_to", "factorize",
                 "_frac"):
        assert homes[name] == ["arith"], name


def test_replaced_hecke_routes_are_oracles_only():
    assert _defined_functions() & {"merel_family", "_coset_images",
                                   "hecke_column_paths", "heilbronn"} == set()
    readers = {module for module, tree in TREES.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "_table"}
    assert readers == {"congruence"}


def test_lll_runs_on_integers():
    assert "_gram_schmidt_int" not in _defined_functions()


def test_one_integer_matrix_core():
    assert _defined_functions() & {"_cleared", "_int_matmul",
                                   "_matrix_power"} == set()
    storage = set(QMatrix.__slots__) - {"rows", "cols"}
    readers = ["%s:%d" % (module, node.lineno)
               for module, tree in TREES.items() if module != "linalg"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in storage]
    assert readers == []


def _calls(name):
    """Where a function or method called ``name`` is called, by module."""
    return {module for module, tree in TREES.items()
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "attr", None),
                         getattr(node.func, "id", None))}


def test_one_restriction_idiom():
    assert _calls("select_rows") <= {"linalg"}
    for name in ("solve", "_restrict_to_span"):
        assert name not in _defined_functions(), name
        assert _calls(name) == set(), name
    assert "cusp_equivalent" not in _defined_functions()


def test_real_embeddings_run_on_integers():
    assert _defined_functions() & {"_interval_add", "_interval_mul",
                                   "_interval_eval"} == set()


def test_one_field_vector_form_in_eigen():
    assert _defined_functions() & {"_row_dot", "_scalar_action",
                                   "_lift_through", "eigen_field"} == set()


def test_one_gauss_jordan_body():
    assert _defined_functions() & {"_berlekamp", "_gfp_nullspace"} == set()


def test_one_kernel_over_k_and_one_polynomial_parser():
    assert _defined_functions() & {"nf_kernel", "_parse_combo"} == set()


def test_period_integrals_sum_on_integers():
    assert "power_loop_integral" not in _defined_functions()
    (body,) = [node for node in ast.walk(TREES["periods"])
               if isinstance(node, ast.FunctionDef)
               and node.name == "period_integral"]
    loops = [node for node in ast.walk(body)
             if isinstance(node, (ast.For, ast.While))]
    assert len(loops) == 1
    assert not [node for node in ast.walk(loops[0])
                if isinstance(node, ast.Name) and node.id == "mp"]


def _definitions(node, prefix=""):
    """(qualified name, name) of every definition under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            yield prefix + child.name, child.name
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def test_every_definition_is_referenced():
    names = set()
    for path in SOURCES + TESTS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    unreferenced = {"%s.%s" % (module, qualified)
                    for module, tree in TREES.items()
                    for qualified, name in _definitions(tree)
                    if name not in names
                    and not (name.startswith("__") and name.endswith("__"))}
    assert unreferenced - {"cli._Parser.error"} == set()
