"""Every name a module of the package imports is used in that module, no
module takes another's private names, U_x is built as a map in one place,
whether a product commutes is read off its table alone, Kronecker packing
stays in `linalg.MatVec` and `linalg.SignedPacking`, random streams are
made only from a caller's seed, and an algebra's model string is read only
to refuse."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "brownalg"


def _imported(tree):
    """(bound name, line) for each import outside `__future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _referenced(tree):
    """Names read anywhere in the module, including quoted annotations and
    the strings of `__all__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(n, ast.Name)}
            except (SyntaxError, ValueError):
                pass
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    used = _referenced(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


# the one private name a module may take from another: linalg's Q kernels skip
# the field's shared zero by identity
ALLOWED_PRIVATE = {("linalg", "fields", "_ZERO")}


def _private_uses(tree):
    """(module, name, line) for each underscore name taken from another
    module of the package: imported with `from .module import _name`, or
    read as `module._name` after `from . import module`."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield node.module, alias.name, node.lineno
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            yield modules[node.value.id], node.attr, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_from_another_module(path):
    tree = ast.parse(path.read_text())
    found = [f"{module}.{name} (line {line})" for module, name, line in _private_uses(tree)
             if (path.stem, module, name) not in ALLOWED_PRIVATE]
    assert not found, f"{path.name} uses private names of other modules: {', '.join(found)}"


# U_x has one producer, `AlbertAlgebra.uop_map`; its field-value view
# `uop_matrix` is read only by albert itself and by the check that compares
# it with the independent `uop_matrix_sharp`
ALLOWED_UOP_MATRIX = {("albert", None), ("verify", "check_uop_coherence")}


def _calls(tree, attr):
    """(top-level function or class, or None, line) for each call of `attr`,
    as a name or an attribute."""
    for top in tree.body:
        owner = (top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 else None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == attr:
                    yield owner, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_map_is_built_from_uop_matrix(path):
    tree = ast.parse(path.read_text())
    found = [f"line {line}" for owner, line in _calls(tree, "uop_matrix")
             if (path.stem, None) not in ALLOWED_UOP_MATRIX
             and (path.stem, owner) not in ALLOWED_UOP_MATRIX]
    assert not found, f"{path.name} calls uop_matrix instead of uop_map: {', '.join(found)}"


# whether a product commutes is `MulTable.commutative`, read off the table:
# no function takes it as a parameter and no other class sets it
def _commutative_settings(tree):
    """(where, line) for each parameter named `commutative` and each
    `commutative` defined in a class body other than `MulTable`'s."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a]
            if any(a.arg == "commutative" for a in params):
                yield f"parameter of {getattr(node, 'name', 'lambda')}", node.lineno
        elif isinstance(node, ast.ClassDef) and node.name != "MulTable":
            for stmt in node.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign))
                           else [])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.append(stmt.name)
                if "commutative" in names:
                    yield f"attribute of {node.name}", stmt.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_commutativity_is_read_off_the_table(path):
    found = [f"{where} (line {line})"
             for where, line in _commutative_settings(ast.parse(path.read_text()))]
    assert not found, f"{path.name} sets commutativity outside MulTable: {', '.join(found)}"


# every slot width of the package, by module and function: the calls of
# `SignedPacking.holding` and `_slot`, each with the tests that fail when a
# term of its bound is dropped
SLOT_WIDTHS = {
    ("albert", "AlbertAlgebra.uop_map"): (
        "test_linmaps.py::test_uop_map_slots_hold_three_squared_table_sums",),
    ("linalg", "MatVec.__init__"): (
        "test_kernels_linalg.py::test_packed_kernels_at_the_largest_slot_values",),
    ("linalg", "SignedPacking.holding"): (
        "test_kernels_linalg.py::test_signed_pack_round_trip_and_separation",),
    ("linalg", "IntSpan.closed"): (
        "test_kernels_linalg.py::test_packed_closure_matches_reference",),
    ("linmaps", "_law_packing"): (
        "test_linmaps.py::test_product_law_slots_hold_its_left_side",
        "test_linmaps.py::test_product_law_slots_hold_the_map_denominator",
        "test_linmaps.py::test_is_automorphism_breaks_on_exactly_the_last_pair"),
}


def _qualified_calls(tree, names):
    """(qualified function or class, line) for each call of one of `names`,
    as a name or an attribute."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    yield owner, child.lineno
            yield from walk(child, owner)
    yield from walk(tree, None)


def test_every_slot_width_names_its_edge_tests():
    """The calls that size packed slots are the ones listed, and each listed
    test exists: a new or removed width updates `SLOT_WIDTHS`."""
    found = {(path.stem, owner) for path in SRC.glob("*.py")
             for owner, _ in _qualified_calls(ast.parse(path.read_text()), ("holding", "_slot"))}
    assert found == set(SLOT_WIDTHS)
    tests = SRC.parent.parent / "tests"
    for names in SLOT_WIDTHS.values():
        for name in names:
            file, test = name.split("::")
            defs = {n.name for n in ast.parse((tests / file).read_text()).body
                    if isinstance(n, ast.FunctionDef)}
            assert test in defs, name


# the library draws pseudo-random values only where a caller gives it a
# seed: the per-check streams of `verify` and the scalar of `fields.sample`;
# every other verdict is derived, not sampled
SEEDED_DRAWS = {("verify", "Ctx.rng"), ("fields", "sample")}


def test_random_streams_are_made_only_from_a_callers_seed():
    found = {(path.stem, owner) for path in SRC.glob("*.py")
             for owner, _ in _qualified_calls(ast.parse(path.read_text()), ("Random",))}
    assert found == SEEDED_DRAWS, f"random streams made in {sorted(found - SEEDED_DRAWS)}"


# Kronecker packing pays in two places, the F_p mat-vec kernel `MatVec` and
# the signed certificates of `SignedPacking`: only they and their private
# helpers call linalg's raw packing functions, so any other packed check
# sizes its slots with `SignedPacking.holding`
PACKING_HELPERS = ("_pack", "_unpack", "_slot")
PACKERS = {"MatVec", "SignedPacking", "_offsets", "_pack_signed"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_packing_stays_in_matvec_and_signed_packing(path):
    tree = ast.parse(path.read_text())
    found = [f"{name} in {owner} (line {line})" for name in PACKING_HELPERS
             for owner, line in _calls(tree, name)
             if path.stem != "linalg" or owner not in PACKERS]
    assert not found, f"{path.name} packs outside MatVec and SignedPacking: {', '.join(found)}"


# the quatclass code that may read a field's kind or p: the table of
# quaternion classes and the local verdicts; every report row comes from the
# table
FIELD_READERS = {"quaternion_classes", "hilbert_symbol", "hilbert_places", "is_split"}
FIELD_KINDS = {"RATIONALS", "PRIME", "REAL", "PADIC", "ALG_CLOSED"}


def test_only_the_table_reads_the_field_in_quatclass():
    """Outside `FIELD_READERS`, quatclass reads no `.kind` or `.p` and names
    no field kind: a report that branches on the field fails this."""
    tree = ast.parse((SRC / "quatclass.py").read_text())
    found = [f"{getattr(top, 'name', 'module')} (line {node.lineno})"
             for top in tree.body if getattr(top, "name", None) not in FIELD_READERS
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and node.attr in ("kind", "p")
             or isinstance(node, ast.Name) and node.id in FIELD_KINDS]
    assert not found, f"quatclass reads the field outside its table: {', '.join(found)}"


# an Albert model's unit, trace, diagonal and Gram matrix are read off its
# structure data: the model string is compared only to refuse an operation of
# the other model, with a typed mismatch
REFUSALS = {"ModelMismatch", "CarrierMismatch"}


def _reads_model(node):
    return any(isinstance(n, ast.Attribute) and n.attr == "model" for n in ast.walk(node))


def _model_branches(tree):
    """Lines of the comparisons that read a `.model` attribute and are not in
    the test of an `if` with no `else` whose body is one `raise` of a
    `REFUSALS` error, and of the `match` statements on one."""
    refusing = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and not node.orelse and len(node.body) == 1
                and isinstance(node.body[0], ast.Raise)):
            exc = node.body[0].exc
            if getattr(exc.func if isinstance(exc, ast.Call) else exc, "id", None) in REFUSALS:
                refusing |= {id(n) for n in ast.walk(node.test)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare) and id(node) not in refusing and _reads_model(node)
                or isinstance(node, ast.Match) and _reads_model(node.subject)):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_model_is_read_only_to_refuse(path):
    found = [f"line {line}" for line in _model_branches(ast.parse(path.read_text()))]
    assert not found, f"{path.name} branches on a model outside a typed refusal: {', '.join(found)}"
