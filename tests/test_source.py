import ast
import dataclasses
from functools import cached_property
from pathlib import Path

import toricfans
from toricfans.fan import Fan

SOURCES = sorted(Path(toricfans.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so every check in the package is
    # an explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def _calls_by_function():
    """``{(module, top-level function or class): names called inside}``
    over the package; module-level statements are filed under None."""
    calls = {}
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {
                node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
            }
            calls.setdefault((path.stem, getattr(top, "name", None)), set()).update(names)
    return calls


def test_only_input_goes_through_validate_fan():
    # fan files and catalog builds are the only data from outside the
    # program; every other fan is built directly from a valid one
    sites = sorted(site for site, names in _calls_by_function().items() if "validate_fan" in names)
    assert sites == [("catalog", "build"), ("fanio", "fan_from_doc")]


def test_contract_ray_decides_without_a_round_trip():
    called = _calls_by_function()["fan", "contract_ray"]
    assert not called & {"validate_fan", "star_subdivide", "canonical_key"}


def test_one_rule_decides_overlapping_interiors():
    # `fan._planes` is the only overlap test: the enumerator, `validate_fan`
    # and `interiors_overlap` all run it, and no function takes a `strict`
    # mode
    calls = _calls_by_function()
    assert ("enumeration", "_planes") not in calls
    assert ("enumeration", "_seed_point") not in calls
    assert "_planes" in calls["fan", "interiors_overlap"]
    assert "_planes" in calls["enumeration", "enumerate_smooth_complete_fans"]
    # a fan that the local test rejects is decided by that pass and by
    # locating its rays, with no pairwise separation test in the package
    assert {"_tiles", "_planes", "_cones_containing"} <= calls["fan", "validate_fan"]
    assert not [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_properly_glued"
    ]
    fan_source = next(path for path in SOURCES if path.stem == "fan")
    params = {
        arg.arg
        for node in ast.walk(ast.parse(fan_source.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.Lambda))
        for arg in node.args.args + node.args.kwonlyargs + node.args.posonlyargs
    }
    assert params and "strict" not in params


def test_fan_is_three_dimensional_by_type():
    # `dim` is a class constant, not a field, and no constructor call in the
    # package passes a dimension: a literal, a `dim` name or a `.dim` read
    assert [f.name for f in dataclasses.fields(Fan)] == ["rays", "max_cones"]
    assert Fan.dim == 3
    calls = [
        node
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fan"
    ]
    args = [arg for call in calls for arg in call.args + [kw.value for kw in call.keywords]]
    assert calls and not [
        ast.unparse(arg)
        for arg in args
        if isinstance(arg, ast.Constant)
        or (isinstance(arg, ast.Name) and arg.id == "dim")
        or (isinstance(arg, ast.Attribute) and arg.attr == "dim")
    ]


def _builds_moment_point(tree) -> bool:
    """Whether the tree builds a point (1, t, f(t)) with f(t) an expression
    in t, such as t * t: a scan along the moment curve."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) == 3:
            one, t, square = node.elts
            if (
                isinstance(one, ast.Constant)
                and one.value == 1
                and isinstance(t, ast.Name)
                and isinstance(square, ast.BinOp)
                and any(isinstance(n, ast.Name) and n.id == t.id for n in ast.walk(square))
            ):
                return True
    return False


def test_one_seed_search():
    # the overlap pass and the local validation test take their generic
    # point from `fan._seed`, the only function that scans (1, t, t^2)
    calls = _calls_by_function()
    assert "_seed" in calls["fan", "_planes"]
    assert "_seed" in calls["fan", "_tiles"]
    scanners = [
        (path.stem, getattr(top, "name", None))
        for path in SOURCES
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        if _builds_moment_point(top)
    ]
    assert scanners == [("fan", "_seed")]


def _function(module, name):
    source = next(path for path in SOURCES if path.stem == module)
    tree = ast.parse(source.read_text(encoding="utf-8"))
    return next(node for node in tree.body if getattr(node, "name", None) == name)


def _calls_of(node, name):
    """The calls inside ``node`` of ``name`` or of any ``x.name``."""
    return [
        call
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
    ]


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _loops(node):
    """The loops inside ``node``, comprehensions with their element."""
    return [loop for loop in ast.walk(node) if isinstance(loop, _LOOPS)]


def test_effective_system_checks_smoothness_once():
    # `_effective_system` and `relations` take every relation from
    # `fan.primitive_relations`, which checks the fan once, outside its
    # loop; neither it nor the unchecked `_relation` calls the public
    # `primitive_relation`, which checks smoothness again on every call
    calls = _calls_by_function()
    checks = {"is_smooth", "_require_smooth", "primitive_relation"}
    for site in [("projectivity", "_effective_system"), ("cli", "cmd_relations")]:
        assert "primitive_relations" in calls[site] and not calls[site] & checks
    assert not calls["fan", "_relation"] & checks
    batch = _function("fan", "primitive_relations")
    assert len(_calls_of(batch, "_require_smooth")) == 1
    assert not any(_calls_of(loop, "_require_smooth") for loop in _loops(batch))
    assert not calls["fan", "primitive_relations"] & {"is_smooth", "primitive_relation"}
    assert calls["fan", "_require_smooth"] == {"is_smooth", "NotSmoothError"}


def test_callers_import_no_private_fan_name():
    # `cli` and `projectivity` reach `fan` through its public functions only
    for module in ("cli", "projectivity"):
        tree = ast.parse(next(p for p in SOURCES if p.stem == module).read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        names = [alias.name for node in imports if node.module == "fan" for alias in node.names]
        assert names and not any(name.startswith("_") for name in names)
        assert not any(alias.name == "fan" for node in imports for alias in node.names)


def test_primitive_collections_reads_the_edge_graph():
    # no per-subset predicate and no scan of 3- or 4-subsets of the rays:
    # `combinations` only walks pairs
    assert "_is_primitive" not in _calls_by_function()["fan", "primitive_collections"]
    walks = _calls_of(_function("fan", "primitive_collections"), "combinations")
    sizes = [ast.unparse(call.args[1]) if len(call.args) > 1 else None for call in walks]
    assert sizes == ["2"]


def test_cone_inverse_table_is_built_once_per_batch():
    # `primitive_relations` builds one table for all relations, outside its
    # loop; the table is a list, which `_cones_containing` and `_relation`
    # take with no lazy default, and no `Fan` stores it, whose only cached
    # tables are the face ones
    batch = _function("fan", "primitive_relations")
    assert len(_calls_of(batch, "_cone_inverses")) == 1
    assert not any(_calls_of(loop, "_cone_inverses") for loop in _loops(batch))
    assert all(len(call.args) == 3 for call in _calls_of(batch, "_relation"))
    table = _function("fan", "_cone_inverses")
    assert not any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(table))
    for name in ("_cones_containing", "_relation"):
        args = _function("fan", name).args
        assert not (args.defaults or args.kw_defaults)
    cached = {name for name, value in vars(Fan).items() if isinstance(value, cached_property)}
    assert cached == {"faces", "face_census"}


def test_one_simplex_kernel():
    # one pivoting function in the package, `lp.solve_system`, with no
    # parameter that could select a second kernel
    pivoting = sorted(
        (path.stem, top.name)
        for path in SOURCES
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(top, ast.FunctionDef)
        and any(isinstance(node, ast.Name) and node.id == "pivot" for node in ast.walk(top))
    )
    assert pivoting == [("lp", "solve_system")]
    args = _function("lp", "solve_system").args
    assert [a.arg for a in args.args] == ["rows", "rhs"]
    assert not (args.kwonlyargs or args.vararg or args.kwarg or args.defaults)
    # the kernel drops repeated rows itself, so no caller-side wrapper does
    functions = {
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    assert "solve_system" in functions and "_solve_distinct" not in functions
    calls = _calls_by_function()
    for name in ("is_projective", "nontrivial_nef_exists", "effective_ample_obstruction"):
        assert "solve_system" in calls["projectivity", name]
