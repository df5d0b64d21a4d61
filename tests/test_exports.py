"""The package exports what production runs and none of the test references."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import weylzeta

# defined in tests/reference.py, which the tests compare the package against
REFERENCE_NAMES = (
    "Series",
    "series_exp",
    "series_log",
    "IntMatrix",
    "det_identity_minus_wT",
    "cycle_product_from_traces",
    "count_closed_walks",
    "count_geodesic_walks",
    "count_semi_closings",
    "count_closed_galleries",
    "normalize_generators",
)

# functions and methods that no package module calls, each kept for a reason
UNCALLED_ALLOWED = {
    # the checked entry that the tests call and bench/tracer.py wraps
    "census.lambda_set_size",
    # the residue box the README documents
    "QuotientGroup.residues",
}


def test_exports_resolve_and_exclude_the_references():
    assert [name for name in weylzeta.__all__ if not hasattr(weylzeta, name)] == []
    assert len(set(weylzeta.__all__)) == len(weylzeta.__all__)
    modules = [weylzeta] + [
        importlib.import_module(f"weylzeta.{info.name}")
        for info in pkgutil.iter_modules(weylzeta.__path__)
        if info.name != "__main__"
    ]
    leaked = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in REFERENCE_NAMES
        if hasattr(module, name)
    ]
    assert leaked == []
    assert not hasattr(weylzeta.QuotientGroup, "transporter")
    assert not hasattr(weylzeta.TransferSystem, "closed_paths")
    assert not hasattr(weylzeta.TransferSystem, "permutation_matrix")


def test_the_half_lattice_api_and_the_aliases_are_gone():
    # canonical forms of orbits and half-lattice points live in
    # tests/reference.py; the quotient alone picks each orbit's representative
    assert "HalfVec" not in weylzeta.__all__
    assert not hasattr(weylzeta, "HalfVec") and not hasattr(weylzeta.rootgeom, "HalfVec")
    for name in ("in_translation_subgroup", "_sigma_half", "canonical_vertex", "_canonical_half"):
        assert not hasattr(weylzeta.QuotientGroup, name)
    for name in ("apply_half", "is_identity"):
        assert not hasattr(weylzeta.AffineMap, name)
    for name in ("coroot_index", "a2", "c2"):
        assert not hasattr(weylzeta.RootSystem, name)
    assert not hasattr(weylzeta.CycleProduct, "is_one")


def test_algebra_keeps_no_prime_sieve():
    # the Moebius exponents are peeled and each Phi_m is factored by the
    # primes of m; the sieve and the mu table live only in tests/reference.py
    for name in ("_primes", "_mobius_table"):
        assert not hasattr(weylzeta.algebra, name)


def test_transfer_systems_keep_one_record_of_their_cycles():
    # the zeta is the only record of a system's cycles, read through
    # build_*_system(q, rep).zeta() and CycleProduct.items()
    for name in ("zeta_walks", "zeta_semi", "zeta_galleries"):
        assert not hasattr(weylzeta, name)
    assert not hasattr(weylzeta.TransferSystem, "cycle_lengths")
    assert "states" not in [f.name for f in dataclasses.fields(weylzeta.TransferSystem)]
    assert not hasattr(weylzeta.identities, "_poly_json")


def test_transfer_systems_list_no_states():
    # a system keeps its size and its cycle product; the explicit successor
    # walk is the tests' oracle (tests/reference.py), and the grid keeps no
    # per-state lists
    fields = [f.name for f in dataclasses.fields(weylzeta.TransferSystem)]
    assert fields == ["kind", "rep", "step_in_w", "size", "product"]
    rs = weylzeta.RootSystem.make("A2")
    q = weylzeta.build(rs, weylzeta.KleinSpec((1, 0), (0, 1), 1, 1, 1))
    weylzeta.build_walk_system(q, "pi1")
    grid = weylzeta.zeta._grid(q)
    for name in ("moves", "reps", "_orbit", "_moves"):
        assert not hasattr(grid, name)
    assert not hasattr(weylzeta, "PermutationSystem")


def test_the_package_keeps_no_dense_polynomial_class():
    # every coefficient list comes from CycleProduct.expanded; the rational
    # Poly of tests/reference.py is the tests' only dense class
    assert "Poly" not in weylzeta.__all__
    assert not hasattr(weylzeta, "Poly") and not hasattr(weylzeta.algebra, "Poly")
    for name in ("num_den", "_reduced"):
        assert not hasattr(weylzeta.CycleProduct, name)
    assert weylzeta.LPolynomial.__mro__ == (weylzeta.LPolynomial, object)
    for name in ("coeffs", "coefficient"):
        assert not hasattr(weylzeta.LPolynomial, name)


def test_every_function_has_a_caller_in_the_package():
    # a function or method that only __init__ (or only the tests) names is a
    # second route that production never runs; it belongs in tests/reference.py
    package = Path(weylzeta.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for stem, tree in trees.items()
        if stem != "__init__"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = {}
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, functions):
                defined[f"{stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, functions) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        defined[f"{node.name}.{item.name}"] = item.name
    uncalled = {key for key, name in defined.items() if name not in referenced}
    assert uncalled == UNCALLED_ALLOWED


def test_the_klein_generator_api_is_gone():
    # the package builds (t, sigma) in normal form from the spec, and
    # normalize_generators is pinned with the references above; the glide
    # powers are formed by census.glide_line_counter
    for module in (weylzeta, weylzeta.quotient):
        assert not hasattr(module, "glide_conjugacy_representative")
    assert not hasattr(weylzeta.AffineMap, "is_translation")


def test_the_cli_imports_no_rationals():
    # a fresh interpreter: pytest and hypothesis import fractions themselves
    src = str(Path(weylzeta.__file__).resolve().parents[1])
    script = (
        "import sys, weylzeta.cli; "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert done.stdout == "[]\n"
