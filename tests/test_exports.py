"""The package exports what production runs and none of the test references."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import weylzeta

# defined in tests/reference.py, which the tests compare the package against
REFERENCE_NAMES = (
    "Series",
    "series_exp",
    "series_log",
    "IntMatrix",
    "det_identity_minus_wT",
    "cycle_product_from_traces",
    "NotCycleProduct",
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


def test_a_quotient_lists_no_box_points():
    # a quotient is Gamma0 and its glide: the census sums over the whole
    # residue box by arithmetic, one solve per glide step, and the box, its
    # double, the orbit representatives and the box point of a class
    # (reduce, reduce_half) live only in tests/reference.py
    names = (
        "_residues",
        "residues",
        "half_residues",
        "half_orbit_reps",
        "vertex_reps",
        "_half_reps",
        "_half_residues",
        "_half_blocks",
    )
    a2, c2 = weylzeta.RootSystem.make("A2"), weylzeta.RootSystem.make("C2")
    torus = weylzeta.build(c2, weylzeta.TorusSpec((6, 0), (0, 12)))
    klein = weylzeta.build(a2, weylzeta.KleinSpec((1, 0), (0, 1), 1, 1, 1))
    for q in (torus, klein):
        weylzeta.verify(q)
        for name in names:
            assert not hasattr(q, name), (q, name)
        # the census keeps the walk progressions of each rep, nothing else
        assert set(q._census_tables) == set(q.rs.rep_names)
    for name in ("_irrational_half", "_irrational_count"):
        assert not hasattr(weylzeta.census, name)
    for name in ("_glide_shifts", "_vertex_shifts", "_irrational_shifts", "_once"):
        assert not hasattr(weylzeta.census, name)
    for name in ("reduce", "reduce_half"):
        assert not hasattr(weylzeta.QuotientGroup, name)


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
    assert "states" not in weylzeta.TransferSystem._fields
    assert not hasattr(weylzeta.identities, "_poly_json")


def test_transfer_systems_list_no_states():
    # a system keeps its size and its cycle product; the explicit successor
    # walk is the tests' oracle (tests/reference.py), and a build leaves no
    # table on the quotient
    assert weylzeta.TransferSystem._fields == ("kind", "rep", "step_in_w", "size", "product")
    rs = weylzeta.RootSystem.make("A2")
    q = weylzeta.build(rs, weylzeta.KleinSpec((1, 0), (0, 1), 1, 1, 1))
    kept = set(vars(q))
    weylzeta.build_walk_system(q, "pi1")
    assert set(vars(q)) == kept
    assert not hasattr(weylzeta, "PermutationSystem")


def test_the_table_engine_is_gone():
    # each first-return map is read by its affine part: no per-quotient
    # grid, shift tables, composed maps or walk
    for name in ("_Grid", "_grid", "_compose", "_count_cycles"):
        assert not hasattr(weylzeta.zeta, name)
    rs = weylzeta.RootSystem.make("A2")
    q = weylzeta.build(rs, weylzeta.KleinSpec((1, 0), (0, 1), 1, 1, 1))
    weylzeta.zeta_bundle(q)
    for name in ("_zeta_grid", "_glide", "_lower"):
        assert not hasattr(q, name)


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
    # P is always its cycle product: no coefficient-only form
    assert weylzeta.LPolynomial.__slots__ == ("_product",)


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


def test_zeta_bundle_is_the_one_producer_of_zeta_data():
    # verify reads the bundle that the zeta command prints; nothing else
    # builds a quotient's systems, P or correction factors, and the bundle
    # keeps no walk count table
    assert weylzeta.ZetaBundle._fields == (
        "order",
        "zeta",
        "zeta_semi",
        "zeta2",
        "l_poly",
        "l_failure",
        "correction",
    )
    for name in ("_collect", "_RepData"):
        assert not hasattr(weylzeta.identities, name)
    package = Path(weylzeta.__file__).resolve().parent
    calls = Counter()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                calls[func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)] += 1
    producers = {
        "l_poly_from_counts": 1,
        "resolve_order": 1,
        "correction_factor": 1,
        "build_semi_system": 1,
        "build_gallery_system": 1,
        # the bundle's and the Klein bottle's double cover in verify
        "build_walk_system": 2,
    }
    assert {name: calls[name] for name in producers} == producers


def test_verify_builds_every_record_in_one_place():
    # a record holds exactly when its detail is empty, and every per-rep
    # record goes through one driver, which gives a record that needs P
    # the missing-P reason: no second constructor can bypass either
    tree = ast.parse(Path(weylzeta.identities.__file__).read_text())
    constructed = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "VerifyRecord" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert len(constructed) == 1
    verify = next(node for node in tree.body if getattr(node, "name", None) == "verify")
    defined = {node.name for node in ast.walk(verify) if isinstance(node, ast.FunctionDef)}
    assert "l_missing" not in defined


def test_the_klein_generator_api_is_gone():
    # the package builds (t, sigma) in normal form from the spec, and
    # normalize_generators is pinned with the references above; the glide
    # powers are formed by census.glide_rows
    for module in (weylzeta, weylzeta.quotient):
        assert not hasattr(module, "glide_conjugacy_representative")
    assert not hasattr(weylzeta.AffineMap, "is_translation")


def test_records_are_immutable_values():
    rs = weylzeta.RootSystem.make("A2")
    spec = weylzeta.KleinSpec((1, 0), (0, 1), 1, 1, 1)
    q = weylzeta.build(rs, spec)
    record, bundle = weylzeta.verify(q).records[0], weylzeta.zeta_bundle(q)
    for value, name in ((spec, "m"), (q.sigma, "linear"), (record, "holds"), (bundle, "order")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    again = weylzeta.KleinSpec((1, 0), (0, 1), 1, 1, 1)
    assert again == spec and hash(again) == hash(spec) and again is not spec
    assert repr(weylzeta.TorusSpec((1, 0), (0, 1))) == "TorusSpec(v1=(1, 0), v2=(0, 1))"


def test_count_tables_are_plain_tuples():
    # every caller read CountTable.values and nothing read its rep or kind
    assert "CountTable" not in weylzeta.__all__
    for module in (weylzeta, weylzeta.census):
        assert not hasattr(module, "CountTable")
    rs = weylzeta.RootSystem.make("C2")
    q = weylzeta.build(rs, weylzeta.TorusSpec((1, 1), (1, -1)))
    assert type(weylzeta.census.walk_count_table(q, "st", 4)) is tuple


def test_glide_rows_and_segment_plans_are_plain_values():
    # the scan reads its glide rows from one dict per glide power, and the
    # engine iterates a plan's cycles; no wrapper class is left around either
    for name in ("glide_line_counter", "GlideLines"):
        assert not hasattr(weylzeta.census, name)
    assert not hasattr(weylzeta.rootgeom, "SegmentPlan")
    for rs in (weylzeta.RootSystem.make("A2"), weylzeta.RootSystem.make("C2")):
        reflections = [m for m in rs.weyl if weylzeta.rootgeom.mat_det(m) == -1]
        for rep in rs.rep_names:
            for kind in ("walks", "semi", "galleries"):
                table = rs.label_table(rep, kind)
                assert all(type(table.plan(m)) is tuple for m in [None] + reflections)


def test_the_cli_imports_no_rationals():
    # a fresh interpreter: pytest and hypothesis import these themselves.
    # The records are named tuples, so dataclasses and the inspect it
    # pulls in stay off the start-up path.
    src = str(Path(weylzeta.__file__).resolve().parents[1])
    script = (
        "import sys, weylzeta.cli; "
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert done.stdout == "[]\n"
