"""Rules on the package source, checked on its syntax tree.

* Invariants raise ModfolError subclasses: no `assert` statement and no
  AssertionError, which would vanish or leak under `python -O`.
* Each module-level function has one home: no name is defined at module
  level in two modules.
* The prime helpers, the two readers of number arguments (`_as_int` for
  an integer, `_as_fraction` for an exact rational), `_integers` and
  `_lowest_terms`, the clearing of denominators, and `_power`, the
  binary-power loop, live in `arith` alone.  The public entry points that
  take a level, a prime, a term count, a precision, a matrix or lattice
  entry, an orbit index, a width or a period vector's integers read it
  through `_as_int`, themselves or through a private helper of the
  package, and call no `int()` on an argument or on a name bound from one
  (by a comprehension or `for` target, nested ones included, or by an
  assignment), which would truncate 2.5 to 2.
* No module but `arith` decides what number an argument may be: outside
  it no `isinstance(..., float)` is tested, no `int(x)` is compared with
  `x`, and no `Fraction(...)` is built of a parameter, but in the three
  readers of text and reals (`cli._parse_fraction`, `polys.parse_poly`
  and `periods._exact`).
* Exact coefficient lists have one integer core: `polys._zx_mul` holds
  the package's only `out[i + j] +=` accumulation, and
  `QPolynomial.__mul__`, `_zp_mul` and `NFElement.__mul__` call it;
  `QPolynomial.__add__` and `_zp_add` call `_zx_add`; `arith._power` is
  the one binary-power loop (no other function shifts `>>=` or tests
  `& 1`; `_gfp_powmod` reduces mod f over the bits of `bin(e)`), and both
  `__pow__` methods call it.
* Denominators are cleared in `arith._common_denominator`, which
  `_integers` calls for Fractions and an IET's constructor for its
  lengths.  No other function takes an `lcm`, but the two `_combine`
  sums of stored vectors (QMatrix and NFElement), over the lcm of their
  two denominators, and `QMatrix.rref`, over the lcm of its pivots.  An
  IET keeps the integer cut and shift columns its constructor sums, and
  `periodicity_report` and `minimality_probe` read them: they call no
  `lcm`, `_integers` or `_coordinate_rows` (which is not defined), and
  read no `denominator`, `integers`, `_cuts` or `_shifts`.
* The Hecke routes that Heilbronn matrices replaced (Merel's family and
  the degeneracy-coset paths), and the Heilbronn family as a list of
  matrices, which the walk mod N replaced, live in the test oracles alone;
  only `congruence` reads the P^1 class rows and units that the walk runs
  on, and nothing reads a flat table `_table`.
* P^1(Z/N) holds no N*N structure: every list that P1Space allocates by
  repetition has length N or one more than its point count, and no
  expression in it squares N.  The Heilbronn walk's move rows, one per
  quotient residue mod N, are built on first use: the constructor fills
  none of them.
* The Heilbronn walk is one continued-fraction recursion: its step
  `(2 * a + b) // (2 * b)` appears once in the package, in
  `P1Space.heilbronn_counts`, which drives the chains of r and -r
  together and folds the (0:1) start by the star involution.  There is
  one star map on P^1, `P1Space.star_permutation`: `star_matrix` reads
  it and looks up no symbol of its own.
* QMatrix is the one integer matrix core: no module defines its own
  denominator clearing or integer matrix product, and only `linalg`
  reads the storage of a QMatrix.
* QMatrix.restrict is the one restriction to an invariant subspace: only
  `linalg` reads rows by index list, nothing defines or calls a solve or
  the pivot-row restriction, and cusp equivalence by search lives in the
  test oracles alone.
* An operator reaches the +1 star half in one restriction, to
  `plus_span()`, an echelon basis of the quotient: no cuspidal Hecke
  matrix (`cuspidal_hecke_matrix`) or cuspidal star (`star_on_cuspidal`)
  is defined, and only `modsym` calls `restrict_to_cuspidal`; the route
  through the cuspidal subspace lives in the test oracles alone.
* An eigenvector over K has one route, with no arithmetic in K:
  `_adjugate_column` reads column 0 of adj(a*I - T) off the minimal
  polynomial by a rational Horner recurrence and calls no field operation
  (`gen`, `one`, `inverse`, `matrix`, `eigenspace`, `NFElement`).
  `rescale_eigenvector`, `_orbit_from_block` (simple and possibly-old
  blocks alike) and `dual_eigenvector` go through it; no module defines
  or imports a K-linear solver `eigenspace`, and no Krylov matrix
  (`krylov`) is defined.
* LLL runs on integers: the Fraction Gram-Schmidt recomputation lives
  in the test oracles alone.
* The Manin-symbol quotient is a spanning forest, not an elimination:
  `_build_quotient` and the cycle-space helper it calls name none of
  `rref`, `echelon_kernel`, `from_rows`, `from_integer_rows` or
  `QMatrix`.  `_build_boundary` is certified on the relations that
  `_build_quotient` hands it, not on coordinates: it reads no coordinate
  row (no `_symbol_coords`, no `compress`, nothing of `self.dim`) and
  multiplies no QMatrix; its one elimination is the echelon kernel of the
  boundary map.
* Only `modsym` knows how a symbol's coordinates are stored:
  `_symbol_coords` is named in `modsym` alone, there only by
  `_build_quotient`, which makes it, `symbol_sum`, the one sum of symbol
  coordinates, and `symbol_matrix`; other modules call those two.
* A rank decision eliminates once: `homology_generators` calls `rref`
  once per sweep, never `rank`; `_rank_step` is one loop that drops a
  dependent value per accepted relation, so it does not call itself, and
  no unimodular completion is defined in the package.
* Real embeddings decide signs on integers: no interval arithmetic over
  Fractions is defined in the package, and RealEmbedding builds no
  QMatrix: it reads an element's integers directly.
* Number-field elements are integers over one denominator:
  NFElement's arithmetic (every method but `__init__`, which takes
  int-or-Fraction coordinates, `coeffs`, the Fraction view, and
  `__hash__`, which hashes a rational element as its Fraction), the
  NumberField constructors it coerces through, and
  `hecke.eigenvalue_from_functional` construct no Fraction; of them only
  `from_rational`, which reads a rational argument, calls `_as_fraction`.
  NFElement's storage is read only in `numfield`, under names apart from
  QMatrix's.
* The set-up of a Keane probe runs on integers: NumberField.from_poly,
  module_rank and minimality_probe build no Fraction, call no
  `_as_fraction` and read no Fraction view (`coeffs`) of an element
  (from_poly reads only its polynomial's coefficients); module_rank reads
  no coordinate rows, and the probe narrows the generator's interval
  instead of calling `approx`.
* The distinct-degree loop has one body: `_gfp_distinct_degree` alone
  takes the Frobenius step x^(p^d) -> x^(p^(d+1)), in one loop, and the
  Zassenhaus path shared by factor_poly and is_irreducible hands its
  parts to the equal-degree split `_gfp_factor`; is_irreducible calls no
  factor_poly.
* A zero constant term takes the general factoring path: factor_poly and
  is_irreducible build no `x` and test no `coeffs[0]`, since Yun's parts
  and the subset search find x like any other factor.  The subset search
  is one for-else loop over `combinations(range(len(lifted)), size)`,
  with no `found` or `remaining` bookkeeping, and the Hensel lift is one
  tree, `_hensel_lift_tree`, with no `_hensel_lift_pair` beside it.
* A number field has one reduction by its defining polynomial:
  `NumberField.gen` calls `_reduce` alone, also at degree 1, and
  `NumberField.element` calls `from_poly` alone, for any length.
* eigen holds a vector over the eigenvalue field as one coordinate
  matrix: no per-entry row product, scalar action or lift is defined, and
  no field wrapper beside NumberField.
* QMatrix.rref is the one Gauss-Jordan body: polynomials factor modulo p
  by distinct-degree and equal-degree splitting, with no Berlekamp matrix
  and no elimination over GF(p) of their own.
* QMatrix.charpoly is the one determinant and characteristic-polynomial
  body: no function evaluates determinants at points or interpolates, no
  Bareiss elimination is defined, and the only other determinant is
  ad - bc of a group element (`mat_det`); is_unimodular reads its
  determinant off charpoly, and NFElement.inverse is one rref, with no
  extended Euclid (`divmod`) of its own.
* No linear system over a number field is solved: eigen's coordinate
  form holds vectors over K as rational matrices, and no `nf_kernel` on
  lists of field elements is defined.
* Polynomial remainders run on integers: gcds, squarefree parts and
  Sturm chains are primitive remainder sequences in Z[x], so there is no
  Euclid over Q (`poly_gcd`, `sturm_chain`, `squarefree_part`), no
  QPolynomial division and no matrix clearing of chain members in polys.
* polys.parse_poly is the one parser of polynomial text: the CLI has no
  length parser (`_parse_combo`) of its own.
* Period integrals have one summation body on integers: the series is
  embedded once, by the one `approx` call of `periods` (in
  `_fixed_series`, with no per-coefficient `_embedded_series`), its terms
  are summed once per residue class in `_residue_sums`, and a loop is
  the one loop of `_period_sum`, and the complex-power and per-term loops
  they replaced live in the test oracles alone.
* The package computes on stdlib numbers: no module imports mpmath.  pi
  (Machin's formula), exponentials (Taylor series after argument halving)
  and the roots of unity (powers of one root) are integer kernels in
  `periods`, and `detect_rank` reads an mpf off its `_mpf_` tuple.
* The Keane probe steps on certified integer enclosures: minimality_probe
  has one step loop, takes its enclosures from the public
  RealEmbedding.enclosures, calls the exact integer_sign at one site only,
  in that loop's branch for overlapping enclosures, and reads no private
  name of numfield.  Outside that branch a step builds no list: the step
  loop holds no slice and no list, tuple or comprehension display.
* No dead code: every function, method and class of the package is
  referenced by name in the package itself; a test is not a caller.
  Exempt are dunder methods, the module-level names in `modfol.__all__`
  (the public API), `_Parser.error`, which argparse calls, and
  `rescale_eigenvector`, which the Rauzy-loop certificate will call.
* The Atkin-Lehner involution W_N has one body,
  `ModularSymbolSpace.plus_atkin_lehner` in `modsym`, which alone maps an
  endpoint p/q to -q/(N p), and only `eigen` calls it; the W_N period
  series will share it.
* An EigenformOrbit is what `decompose` returns, and only `eigen` writes
  one: no other module stores to or deletes an orbit field outside its
  own classes, or a key of a `coefficient_map`, calls a method of a
  `coefficient_map` but `items`, `keys`, `values` and `get`, or calls
  `setattr` or `delattr`.  The class has no period slots and no
  `designated_embedding`: `periods` keeps each orbit's period data in
  `_PERIOD_DATA`, a weak-keyed map that only `ensure_series` and
  `_require_series` name.
* Prime escalation is one loop: `decompose` alone catches
  UndecidedSplitError, and resumes on its blocks; there is no restart
  wrapper (`auto_decompose`).
* The library is what the CLI and the API use: every public (unprefixed)
  module-level function or class is in `modfol.__all__` or is named by
  another module of the package, apart from `__init__`.  Exempt are
  `cli.main`, the console entry point, and `rescale_eigenvector`.
"""

import ast
from collections import defaultdict
from pathlib import Path

import modfol
from modfol.congruence import P1Space
from modfol.eigen import EigenformOrbit
from modfol.linalg import QMatrix
from modfol.numfield import NFElement

SOURCES = sorted(Path(modfol.__file__).resolve().parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in SOURCES}
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
    for name in ("is_prime", "next_prime", "_primes_up_to", "factorize",
                 "_as_fraction", "_as_int", "_integers", "_lowest_terms",
                 "_power"):
        assert homes[name] == ["arith"], name


def test_integer_arguments_read_through_as_int():
    entry_points = [
        _function("pipeline", "analyze_level"), _function("eigen", "decompose"),
        _function("congruence", "curve_data"),
        _methods("congruence", "P1Space")["__init__"],
        _methods("congruence", "P1Space")["heilbronn_counts"],
        _function("congruence", "cusp_classes")] + [
        _function("periods", name) for name in (
            "required_terms", "ensure_series", "period_integral",
            "numeric_jacobian", "positive_precision", "rank_precision")] + [
        _methods("periods", "PeriodVector")["__init__"],
        _function("linalg", "lll_reduce"),
        _function("linalg", "is_unimodular"), _function("arith", "is_prime"),
        _function("cache", "load"), _function("cache", "store"),
        _function("pipeline", "orbit_from_record"),
        _function("foliation", "classify_torus"),
        _function("foliation", "_integer_matrix"),
        _function("foliation", "basis_change"),
        _methods("modsym", "ModularSymbolSpace")["loop_class"],
        _methods("numfield", "RealEmbedding")["narrow"]]
    for node in entry_points:
        assert _truncations(node) == [], node.name
        assert _reaches_as_int(node), node.name


def _reaches_as_int(node):
    """Whether a function calls `_as_int`, itself or through the private
    module-level functions it calls (names are defined once, see
    test_each_module_function_defined_once)."""
    private = {child.name: child for tree in TREES.values()
               for child in tree.body if isinstance(child, ast.FunctionDef)
               and child.name.startswith("_")}
    seen, todo = set(), [node]
    while todo:
        called = _called(todo.pop())
        if "_as_int" in called:
            return True
        todo += [private[name] for name in called & set(private) - seen]
        seen |= called
    return False


def _truncations(node):
    """The int() calls in a function on its arguments or on the names bound
    from them: a comprehension or `for` target that runs over an argument
    or such a name, nested ones included, or an assignment target whose
    value names one."""
    read = {arg.arg for arg in node.args.args}
    bindings = [(loop.target, loop.iter) for loop in ast.walk(node)
                if isinstance(loop, (ast.comprehension, ast.For))]
    bindings += [(target, assign.value) for assign in ast.walk(node)
                 if isinstance(assign, ast.Assign) for target in assign.targets]
    while True:
        targets = {name.id for target, value in bindings
                   if _names(value) & read
                   for name in ast.walk(target) if isinstance(name, ast.Name)}
        if targets <= read:
            break
        read |= targets
    return [ast.unparse(call) for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "int"
            and _names(call) & read]


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_truncations_reach_nested_comprehensions():
    def truncations(source):
        return _truncations(ast.parse(source).body[0])
    assert truncations("def f(n): return int(n)") == ["int(n)"]
    assert truncations(
        "def f(rows): return [[int(x) for x in r] for r in rows]") == ["int(x)"]
    assert truncations("def f(rows): return [int(x) for r in rows "
                       "for x in (r, r)]") == ["int(x)"]
    # a name bound from an argument by an assignment or a for loop is read,
    # a record's JSON keys included
    assert truncations("def f(rec): m = rec['m']; "
                       "return {int(p): 1 for p in m}") == ["int(p)"]
    assert truncations("def f(rows):\n"
                       "    entries = rows[0] + rows[1]\n"
                       "    for x in entries:\n"
                       "        n = int(x)") == ["int(x)"]
    # the entry check a 2 x 2 reader made: a list built from the argument,
    # a copy of it, and a for loop over the copy
    assert truncations("def f(A):\n"
                       "    seq = list(A)\n"
                       "    entries = seq\n"
                       "    for x in entries:\n"
                       "        if x != int(x):\n"
                       "            raise ValueError\n"
                       "        out.append(int(x))") == ["int(x)", "int(x)"]
    # names bound from no argument are not read
    assert truncations("def f(n):\n"
                       "    m = range(3)\n"
                       "    for k in m:\n"
                       "        n += int(k)") == []


# the readers of text and reals, which build a Fraction of what they read
NUMBER_TEXT_READERS = {("cli", "_parse_fraction"), ("polys", "parse_poly"),
                       ("periods", "_exact")}


def _number_checks(node):
    """The number checks of a function: an isinstance test against float,
    an int(x) compared with x, and a Fraction built of a parameter."""
    params = {arg.arg for arg in node.args.posonlyargs + node.args.args
              + node.args.kwonlyargs}
    found = []
    for child in ast.walk(node):
        name = getattr(getattr(child, "func", None), "id", None)
        if name == "isinstance" and "float" in _names(child.args[1]):
            found.append(ast.unparse(child))
        elif name == "Fraction" and any(
                isinstance(arg, ast.Name) and arg.id in params
                for arg in child.args):
            found.append(ast.unparse(child))
        elif isinstance(child, ast.Compare):
            sides = [child.left] + child.comparators
            texts = {ast.unparse(side) for side in sides}
            if any(getattr(side, "func", None) is not None
                   and getattr(side.func, "id", None) == "int"
                   and ast.unparse(side.args[0]) in texts for side in sides):
                found.append(ast.unparse(child))
    return found


def test_number_checks_are_found():
    def checks(source):
        return _number_checks(ast.parse(source).body[0])
    assert checks("def f(x): return isinstance(x, (int, float))") == [
        "isinstance(x, (int, float))"]
    assert checks("def f(rows):\n"
                  "    for x in rows:\n"
                  "        if x != int(x):\n"
                  "            raise ValueError") == ["x != int(x)"]
    assert checks("def f(x, den): return Fraction(x.numerator, den)") == [
        "Fraction(x.numerator, den)"]
    assert checks("def f(x): return Fraction(len(x), 2) == int(len(x))") == []


def test_number_arguments_are_read_in_arith():
    found = ["%s.%s: %s" % (module, node.name, check)
             for module, tree in TREES.items() if module != "arith"
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             and (module, node.name) not in NUMBER_TEXT_READERS
             for check in _number_checks(node)]
    assert found == []
    assert all(_function(module, name) for module, name in NUMBER_TEXT_READERS)


def test_replaced_hecke_routes_are_oracles_only():
    assert _defined_functions() & {"merel_family", "_coset_images",
                                   "hecke_column_paths", "heilbronn"} == set()
    readers = {(module, node.attr) for module, tree in TREES.items()
               for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and node.attr in {"_table", "_rows", "_units"}}
    assert readers == {("congruence", "_rows"), ("congruence", "_units")}


def test_p1_allocates_no_square_table():
    cls = next(node for node in ast.walk(TREES["congruence"])
               if isinstance(node, ast.ClassDef) and node.name == "P1Space")
    sizes = {ast.unparse(node.right) for node in ast.walk(cls)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
             and isinstance(node.left, ast.List)}
    assert sizes == {"N", "len(self.reps) + 1"}
    squares = [ast.unparse(node) for node in ast.walk(cls)
               if isinstance(node, ast.BinOp)
               and isinstance(node.op, (ast.Mult, ast.Pow))
               and ast.unparse(node.left) == "N"
               and ast.unparse(node.right) in {"N", "2"}]
    assert squares == []
    assert P1Space(2000)._moves == [None] * 2000


def test_one_heilbronn_walk_and_one_star_map():
    steps = [(module, node.name) for module, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             for child in ast.walk(node) if isinstance(child, ast.BinOp)
             and ast.unparse(child) == "(2 * a + b) // (2 * b)"]
    assert steps == [("congruence", "heilbronn_counts")]
    star = _called(_function("modsym", "star_matrix"))
    assert "star_permutation" in star
    assert star & {"symbol_coords", "index"} == set()


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


def test_one_restriction_to_the_plus_half():
    assert _defined_functions() & {"cuspidal_hecke_matrix",
                                   "star_on_cuspidal"} == set()
    assert _calls("restrict_to_cuspidal") == {"modsym"}


def test_real_embeddings_run_on_integers():
    assert _defined_functions() & {"_interval_add", "_interval_mul",
                                   "_interval_eval"} == set()


def _class(module, name):
    (node,) = [node for node in ast.walk(TREES[module])
               if isinstance(node, ast.ClassDef) and node.name == name]
    return node


def _methods(module, name):
    return {node.name: node for node in _class(module, name).body
            if isinstance(node, ast.FunctionDef)}


def test_real_embeddings_build_no_qmatrix():
    # RealEmbedding and the numfield helpers it calls
    embedding = _class("numfield", "RealEmbedding")
    helpers = [node for node in TREES["numfield"].body
               if isinstance(node, ast.FunctionDef)
               and node.name in _called(embedding)]
    for node in [embedding] + helpers:
        named = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        assert "QMatrix" not in named, node.name
        assert _called(node) & {"from_rows", "integer_rows"} == set()


def test_field_elements_run_on_integers():
    methods = _methods("numfield", "NFElement")
    assert {"_combine", "__mul__", "inverse", "__pow__",
            "matrix"} <= set(methods)
    checked = [node for name, node in methods.items()
               if name not in {"__init__", "coeffs", "__hash__"}]
    constructors = _methods("numfield", "NumberField")
    checked += [constructors[name] for name in (
        "one", "gen", "from_rational", "from_integers", "coerce",
        "_reduce")]
    checked.append(_function("hecke", "eigenvalue_from_functional"))
    for node in checked:
        assert "Fraction" not in _called(node), node.name
        assert ("_as_fraction" in _called(node)) == (
            node.name == "from_rational"), node.name
    storage = set(NFElement.__slots__) - {"field"}
    assert storage and not storage & set(QMatrix.__slots__)
    readers = ["%s:%d" % (module, node.lineno)
               for module, tree in TREES.items() if module != "numfield"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in storage]
    assert readers == []


def test_field_set_up_runs_on_integers():
    # a length's image, the rank of the lengths and the probe's set-up read
    # integers: they build no Fraction and read no Fraction view (`coeffs`)
    # of an element; from_poly reads only its polynomial's coefficients
    from_poly = _methods("numfield", "NumberField")["from_poly"]
    rank = _function("foliation", "module_rank")
    probe = _function("iet", "minimality_probe")
    for node in (from_poly, rank, probe):
        assert _called(node) & {"Fraction", "_as_fraction"} == set(), node.name
    coeffs = {node.name: [ast.unparse(n) for n in ast.walk(node)
                          if isinstance(n, ast.Attribute)
                          and n.attr == "coeffs"]
              for node in (from_poly, rank, probe)}
    assert coeffs == {"from_poly": ["p.coeffs"], "module_rank": [],
                      "minimality_probe": []}
    assert "coordinate_rows" not in _called(rank)
    # the generator is sharpened by halving its interval, not through approx
    assert "approx" not in _called(probe)
    assert "narrow" in _called(probe)


def test_one_distinct_degree_loop():
    # the Frobenius step x^(p^d) -> x^(p^(d+1)) is taken in one loop, whose
    # parts the Zassenhaus path of is_irreducible and factor_poly reads and
    # hands on to the equal-degree split
    frobenius = {(module, node.name) for module, tree in TREES.items()
                 for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                 for call in ast.walk(node) if isinstance(call, ast.Call)
                 and getattr(call.func, "id", None) == "_gfp_powmod"
                 and ast.unparse(call.args[1]) == "p"}
    assert frobenius == {("polys", "_gfp_distinct_degree")}
    loops = [node for node in _loops(_function("polys", "_gfp_distinct_degree"))
             if isinstance(node, ast.While)]
    assert len(loops) == 1
    assert {"_gfp_distinct_degree", "_gfp_factor"} <= _called(
        _function("polys", "_factor_monic_squarefree_z"))
    irreducible = _called(_function("polys", "is_irreducible"))
    assert "_factor_monic_squarefree_z" in irreducible
    assert "factor_poly" not in irreducible


def test_zero_constant_takes_the_general_factoring_path():
    for name in ("factor_poly", "is_irreducible"):
        node = _function("polys", name)
        assert "x" not in _called(node), name
        assert [ast.unparse(n) for n in ast.walk(node)
                if isinstance(n, ast.Subscript)
                and ast.unparse(n).endswith("coeffs[0]")] == [], name


def test_one_recombination_loop():
    node = _function("polys", "_factor_monic_squarefree_z")
    (call,) = [call for call in ast.walk(node) if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "combinations"]
    assert ast.unparse(call) == "combinations(range(len(lifted)), size)"
    (loop,) = [loop for loop in _loops(node)
               if isinstance(loop, ast.For) and loop.iter is call]
    assert loop.orelse
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    assert names & {"found", "remaining", "rest"} == set()


def test_one_hensel_lift():
    assert "_hensel_lift_pair" not in _defined_functions()
    assert "_hensel_step" in _called(_function("polys", "_hensel_lift_tree"))


def test_one_field_reduction():
    field = _methods("numfield", "NumberField")
    assert _called(field["gen"]) == {"_reduce"}
    assert _called(field["element"]) == {"from_poly", "QPolynomial"}


def test_one_integer_product_sum_and_power():
    # the schoolbook accumulation out[i + j] += a_i b_j has one home
    accumulations = [(module, node.name) for module, tree in TREES.items()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     for child in ast.walk(node)
                     if isinstance(child, ast.AugAssign)
                     and isinstance(child.target, ast.Subscript)
                     and ast.unparse(child.target.slice) == "i + j"]
    assert accumulations == [("polys", "_zx_mul")]
    qpoly = _methods("polys", "QPolynomial")
    element = _methods("numfield", "NFElement")
    for node in (qpoly["__mul__"], _function("polys", "_zp_mul"),
                 element["__mul__"]):
        assert "_zx_mul" in _called(node), node.name
    for node in (qpoly["__add__"], _function("polys", "_zp_add")):
        assert "_zx_add" in _called(node), node.name
    # one binary-power loop (_gfp_powmod reduces mod f on its own bits)
    loops = {(module, node.name) for module, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             for child in ast.walk(node)
             if (isinstance(child, ast.AugAssign)
                 and isinstance(child.op, ast.RShift))
             or (isinstance(child, ast.BinOp)
                 and isinstance(child.op, ast.BitAnd)
                 and ast.unparse(child.right) == "1")}
    assert loops == {("arith", "_power")}
    for node in (qpoly["__pow__"], element["__pow__"]):
        assert "_power" in _called(node)


def test_denominators_are_cleared_in_arith():
    # every lcm in the package: the one clearing of denominators, the sum
    # of two stored vectors over the lcm of their two, and rref's pivots
    lcms = {(module, node.name) for module, tree in TREES.items()
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and "lcm" in {getattr(call.func, "id", None),
                          getattr(call.func, "attr", None)}}
    assert lcms == {("arith", "_common_denominator"), ("linalg", "_combine"),
                    ("numfield", "_combine"), ("linalg", "rref")}
    assert "_common_denominator" in _called(_function("arith", "_integers"))
    assert "_common_denominator" in _called(_methods("iet", "IET")["__init__"])
    # the exchange reports read the integer columns the exchange keeps
    assert "_coordinate_rows" not in _defined_functions()
    for name in ("periodicity_report", "minimality_probe"):
        node = _function("iet", name)
        assert _called(node) & {"lcm", "_integers",
                                "_coordinate_rows"} == set(), name
        read = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        assert read & {"denominator", "integers", "_cuts", "_shifts"} == set()
        assert {"_cut_cols", "_shift_cols"} <= read, name


def test_one_field_vector_form_in_eigen():
    assert _defined_functions() & {"_row_dot", "_scalar_action",
                                   "_lift_through", "eigen_field"} == set()


def test_one_gauss_jordan_body():
    assert _defined_functions() & {"_berlekamp", "_gfp_nullspace"} == set()


def _function(module, name):
    (node,) = [node for node in ast.walk(TREES[module])
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def _called(node):
    return {getattr(call.func, "attr", None) or getattr(call.func, "id", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_one_simple_eigenvector_route():
    assert "krylov" not in _defined_functions()
    assert "eigenspace" not in _defined_functions()
    imported = {alias.name for tree in TREES.values()
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "eigenspace" not in imported
    assert _called(_function("eigen", "_adjugate_column")) & {
        "gen", "one", "inverse", "matrix", "eigenspace", "NFElement"} == set()
    for route in ("rescale_eigenvector", "_orbit_from_block",
                  "dual_eigenvector"):
        called = _called(_function("eigen", route))
        assert "_adjugate_column" in called and "eigenspace" not in called


def test_the_quotient_is_a_spanning_forest():
    quotient = _function("modsym", "_build_quotient")
    helpers = [node for node in TREES["modsym"].body
               if isinstance(node, ast.FunctionDef)
               and node.name in _called(quotient)]
    assert [node.name for node in helpers] == ["_cycle_space"]
    eliminations = {"rref", "echelon_kernel", "from_rows",
                    "from_integer_rows", "QMatrix"}
    for node in [quotient] + helpers:
        named = _called(node) | {n.id for n in ast.walk(node)
                                 if isinstance(n, ast.Name)}
        assert named & eliminations == set(), node.name
    boundary = _function("modsym", "_build_boundary")
    named = {n.id for n in ast.walk(boundary) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(boundary) if isinstance(n, ast.Attribute)}
    assert named & {"_symbol_coords", "compress", "dim"} == set()
    calls = [getattr(call.func, "attr", None) or getattr(call.func, "id", None)
             for call in ast.walk(boundary) if isinstance(call, ast.Call)]
    assert [name for name in calls if name in eliminations | {
        "integer_rows"}] == ["echelon_kernel", "from_rows"]
    # no product has a built matrix as an operand
    operands = [side for node in ast.walk(boundary)
                if isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Mult, ast.MatMult))
                for side in (node.left, node.right)]
    assert operands and not any(isinstance(side, ast.Call) for side in operands)


def test_only_modsym_reads_symbol_coordinates():
    readers = {(module, node.name) for module, tree in TREES.items()
               for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               for child in ast.walk(node) if isinstance(child, ast.Attribute)
               and child.attr == "_symbol_coords"}
    assert readers == {("modsym", "_build_quotient"), ("modsym", "symbol_sum"),
                       ("modsym", "symbol_matrix")}
    assert "symbol_sum" in _called(_function("hecke", "hecke_matrix"))
    assert "symbol_sum" in _called(_function("modsym", "_path_from_infinity"))
    assert "symbol_matrix" in _called(_function("periods",
                                                "_functional_table"))


def test_a_rank_decision_eliminates_once():
    generators = _called(_function("modsym", "homology_generators"))
    assert "rref" in generators and "rank" not in generators
    assert "_rank_step" not in _called(_function("periods", "_rank_step"))
    assert {name for name in _defined_functions()
            if "unimodular" in name} == {"is_unimodular"}


def test_one_charpoly_body():
    homes = [module for module, tree in TREES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "charpoly"]
    assert homes == ["linalg"]
    words = {"det", "bareiss", "interpolate", "interpolation"}
    named = set().union(_defined_functions(), *map(_called, TREES.values()))
    # mat_det is ad - bc on the 2 x 2 integer group elements of congruence
    assert {name for name in named if name and words & set(
        name.lower().strip("_").split("_"))} == {"mat_det"}
    assert "charpoly" in _called(_function("linalg", "is_unimodular"))
    inverse = _called(_function("numfield", "inverse"))
    assert "rref" in inverse and "divmod" not in inverse


def test_one_kernel_over_k_and_one_polynomial_parser():
    assert _defined_functions() & {"nf_kernel", "_parse_combo"} == set()


def test_polynomial_remainders_run_on_integers():
    assert _defined_functions() & {
        "poly_gcd", "sturm_chain", "squarefree_part",
        "squarefree_decomposition", "_factor_squarefree_rational"} == set()
    (qpoly,) = [node for node in ast.walk(TREES["polys"])
                if isinstance(node, ast.ClassDef)
                and node.name == "QPolynomial"]
    methods = {node.name for node in qpoly.body
               if isinstance(node, ast.FunctionDef)}
    assert methods & {"divmod", "__mod__", "__floordiv__"} == set()
    imported = {node.module for node in ast.walk(TREES["polys"])
                if isinstance(node, ast.ImportFrom)}
    assert "linalg" not in imported


def _loops(node):
    return [child for child in ast.walk(node)
            if isinstance(child, (ast.For, ast.While))]


def test_period_integrals_sum_on_integers():
    assert _defined_functions() & {
        "power_loop_integral", "term_loop_sum", "approx_series",
        "mpmath_path_tables", "_embedded_series", "_fixed"} == set()
    assert _loops(_function("periods", "period_integral")) == []
    for name in ("_period_sum", "_residue_sums"):
        assert len(_loops(_function("periods", name))) == 1, name
    assert "_residue_sums" in _called(_function("periods", "_period_sum"))
    assert "_path_tables" in _called(_function("periods", "_residue_sums"))
    # one embedding body: one approx call per power of the generator
    calls = [(node, call) for node in ast.walk(TREES["periods"])
             if isinstance(node, ast.FunctionDef)
             for call in ast.walk(node) if isinstance(call, ast.Call)
             and getattr(call.func, "attr", None) == "approx"]
    assert [node.name for node, _ in calls] == ["_fixed_series"]
    (loop,) = [comp for comp in ast.walk(calls[0][0])
               if isinstance(comp, ast.ListComp)
               and calls[0][1] in ast.walk(comp)]
    (generator,) = loop.generators
    assert "degree" in {node.attr for node in ast.walk(generator.iter)
                        if isinstance(node, ast.Attribute)}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_mpmath():
    assert [module for module, tree in TREES.items()
            if any(name.split(".")[0] == "mpmath"
                   for name in _imported_modules(tree))] == []


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
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    unreferenced = {"%s.%s" % (module, qualified)
                    for module, tree in TREES.items()
                    for qualified, name in _definitions(tree)
                    if name not in names
                    and qualified not in modfol.__all__
                    and not (name.startswith("__") and name.endswith("__"))}
    assert unreferenced == {"cli._Parser.error", "eigen.rescale_eigenvector"}


def test_public_names_are_exported_or_shared():
    named = {module: {node.id if isinstance(node, ast.Name) else
                      node.attr if isinstance(node, ast.Attribute) else
                      node.name for node in ast.walk(tree)
                      if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
             for module, tree in TREES.items() if module != "__init__"}
    unshared = {"%s.%s" % (module, node.name)
                for module, tree in TREES.items() for node in tree.body
                if isinstance(node, DEFINITIONS)
                and not node.name.startswith("_")
                and node.name not in modfol.__all__
                and not any(node.name in names for other, names
                            in named.items() if other != module)}
    assert unshared == {"cli.main", "eigen.rescale_eigenvector"}


def _catches(node, name):
    """The except clauses under ``node`` that name the exception ``name``."""
    return [handler for handler in ast.walk(node)
            if isinstance(handler, ast.ExceptHandler) and handler.type
            and name in {getattr(n, "id", None) or getattr(n, "attr", None)
                         for n in ast.walk(handler.type)}]


def _orbit_writes(tree, own):
    """The nodes of `tree` that could write an EigenformOrbit: a store to or
    delete of an orbit field (outside the nodes in `own`, a module's own
    classes) or of a `coefficient_map` key, a call of a `coefficient_map`
    method that is not a read, and `setattr` or `delattr`."""
    fields = set(EigenformOrbit.__slots__) - {"__weakref__"}
    for node in ast.walk(tree):
        if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            if (isinstance(node, ast.Attribute) and node.attr in fields
                    and id(node) not in own):
                yield node
            if (isinstance(node, ast.Subscript)
                    and getattr(node.value, "attr", None) == "coefficient_map"):
                yield node
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) in {"setattr", "delattr"}:
                yield node
            elif (isinstance(func, ast.Attribute)
                  and getattr(func.value, "attr", None) == "coefficient_map"
                  and func.attr not in {"items", "keys", "values", "get"}):
                yield node


def test_only_eigen_writes_an_orbit():
    writes = []
    for module, tree in TREES.items():
        if module != "eigen":
            # a class of another module may store to its own instances
            own = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)}
            writes += ["%s:%d" % (module, node.lineno)
                       for node in _orbit_writes(tree, own)]
    assert writes == []
    # no period data on the orbit: no private slot but the weak reference's,
    # no slot named for a series, functional or embedding, no method for one
    assert {name for name in EigenformOrbit.__slots__
            if name.startswith("_") or {"series", "functional", "embedded",
                                        "period"} & set(name.split("_"))
            } == {"__weakref__"}
    assert "designated_embedding" not in _defined_functions()
    assert set(_methods("eigen", "EigenformOrbit")) == {"__init__", "__repr__"}
    namers = {(module, node.name) for module, tree in TREES.items()
              for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              for child in ast.walk(node)
              if "_PERIOD_DATA" in {getattr(child, "id", None),
                                    getattr(child, "attr", None)}}
    assert namers == {("periods", "ensure_series"),
                      ("periods", "_require_series")}
    assert {module for module, tree in TREES.items()
            for node in ast.walk(tree)
            if "_PERIOD_DATA" in {getattr(node, "id", None),
                                  getattr(node, "attr", None)}} == {"periods"}


def test_one_escalation_loop():
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert "auto_decompose" not in _defined_functions() | named
    assert "auto_decompose" not in modfol.__all__
    everywhere = [handler for tree in TREES.values()
                  for handler in _catches(tree, "UndecidedSplitError")]
    assert everywhere == _catches(_function("eigen", "decompose"),
                                  "UndecidedSplitError")
    assert len(everywhere) == 1


def test_one_atkin_lehner_body():
    homes = [module for module, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             and node.name == "plus_atkin_lehner"]
    assert homes == ["modsym"]
    assert "plus_atkin_lehner" in _methods("modsym", "ModularSymbolSpace")
    assert _calls("plus_atkin_lehner") == {"eigen"}
    images = [module for module, tree in TREES.items()
              for node in ast.walk(tree) if isinstance(node, ast.Tuple)
              and ast.unparse(node) == "(-q, N * p)"]
    assert images == ["modsym"]


def test_keane_probe_steps_on_enclosures():
    probe = _function("iet", "minimality_probe")
    steps = [node for node in ast.walk(probe) if isinstance(node, ast.For)
             and "max_steps" in {n.id for n in ast.walk(node.iter)
                                 if isinstance(n, ast.Name)}]
    assert len(steps) == 1
    assert "enclosures" in _called(probe)
    signs = [node for node in ast.walk(probe) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "integer_sign"]
    assert len(signs) == 1
    # the exact sign sits in the else branch of an if inside the step loop;
    # the innermost such branch (ast.walk goes breadth first) is the one
    # for overlapping enclosures
    overlaps = [node.orelse for node in ast.walk(steps[0])
                if isinstance(node, ast.If)
                and any(signs[0] in ast.walk(stmt) for stmt in node.orelse)]
    assert overlaps
    overlap = {node for stmt in overlaps[-1] for node in ast.walk(stmt)}
    displays = (ast.List, ast.Tuple, ast.ListComp, ast.SetComp, ast.DictComp,
                ast.GeneratorExp)
    built = [ast.unparse(node) for node in ast.walk(steps[0])
             if node not in overlap and (
                 isinstance(node, displays)
                 or isinstance(node, ast.Subscript)
                 and isinstance(node.slice, ast.Slice))]
    assert built == []
    private = {node.attr for node in ast.walk(probe)
               if isinstance(node, ast.Attribute)
               and node.attr.startswith("_")}
    numfield_private = {name for name in (
        {node.name for node in ast.walk(TREES["numfield"])
         if isinstance(node, DEFINITIONS)}
        | {node.attr for node in ast.walk(TREES["numfield"])
           if isinstance(node, ast.Attribute)})
        if name.startswith("_") and not name.endswith("__")}
    assert private & numfield_private == set()
    imported = {alias.name for node in ast.walk(TREES["iet"])
                if isinstance(node, ast.ImportFrom)
                and node.module == "numfield" for alias in node.names}
    assert not {name for name in imported if name.startswith("_")}
