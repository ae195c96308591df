"""Source checks: error types are raised and tested; no test-only code or
fields; no validate step; one module knows a batch's bucket layout."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import cgnn.errors
from cgnn.errors import CgnnError

ROOT = Path(__file__).resolve().parents[1]


def _text(paths) -> str:
    return "\n".join(path.read_text(encoding="utf-8") for path in paths)


def test_every_error_type_is_raised_and_tested():
    types = [obj for obj in vars(cgnn.errors).values()
             if isinstance(obj, type) and issubclass(obj, CgnnError)
             and obj is not CgnnError]
    src = _text(sorted((ROOT / "src").rglob("*.py")))
    tests = _text(path for path in sorted((ROOT / "tests").glob("*.py"))
                  if path.name != Path(__file__).name)
    unraised = [t.__name__ for t in types
                if not re.search(rf"\braise {t.__name__}\(", src)]
    untested = [t.__name__ for t in types
                if not re.search(rf"pytest\.raises\(\(?(\w+, )*{t.__name__}\b",
                                 tests)]
    assert types
    assert unraised == [], "raised nowhere in src/"
    assert untested == [], "named in no pytest.raises in tests/"


def _names(tree: ast.AST) -> Counter:
    """The names tree mentions: identifiers, attributes, imports, and each
    dot-separated part of a string (bench/spans.py patches by string)."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
              ast.Constant: "value"}
    texts = [getattr(node, fields[type(node)]) for node in ast.walk(tree)
             if type(node) in fields]
    return Counter(part for text in texts if isinstance(text, str)
                   for part in text.split("."))


def _trees() -> dict[Path, ast.Module]:
    """The parsed modules of src/ and bench/."""
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in [*(ROOT / "src").rglob("*.py"),
                         *(ROOT / "bench").glob("*.py")]}


def test_src_defines_only_what_src_or_bench_names():
    trees = _trees()
    named = sum(map(_names, trees.values()), Counter())
    unused = [f"{path.name}:{node.name}" for path, tree in trees.items()
              if path.is_relative_to(ROOT / "src") for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and not re.fullmatch(r"__\w+__", node.name)
              and named[node.name] <= _names(node)[node.name]]
    assert unused == [], "named nowhere in src/ or bench/ but its definition"


def test_src_defines_and_calls_no_validate():
    """Settings check their rules when they are built, so no caller has
    a validate() step to remember."""
    trees = _trees()
    found = [f"{path.name}:{node.lineno}" for path, tree in trees.items()
             if path.is_relative_to(ROOT / "src") for node in ast.walk(tree)
             if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name == "validate")
             or (isinstance(node, ast.Call) and "validate" in (
                 getattr(node.func, "attr", None),
                 getattr(node.func, "id", None)))]
    assert found == [], "a validate step; check in __post_init__ instead"


def test_only_graph_reads_the_bucket_layout():
    """A batch's width buckets are graph.py's format: no other src/
    module reads a batch's buckets or names the constants that shape
    them; they multiply through BatchedGraph.product and
    transpose_product."""
    layout = {"WIDTH_STEP", "PART_ROWS"}
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _trees().items()
             if path.is_relative_to(ROOT / "src") and path.name != "graph.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and (
                 node.attr in layout or node.attr == "buckets"
                 and isinstance(node.ctx, ast.Load))
             or isinstance(node, ast.Name) and node.id in layout
             or isinstance(node, ast.alias) and node.name in layout]
    assert found == [], "reads the bucket layout outside graph.py"


def _reads(tree: ast.AST) -> Counter:
    """The attribute names tree loads, and each dot-separated part of a
    string (getattr and bench/spans.py read by string)."""
    texts = [node.attr if isinstance(node, ast.Attribute) else node.value
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)
             or isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return Counter(part for text in texts for part in text.split("."))


def test_src_class_fields_are_read_in_src_or_bench():
    trees = _trees()
    read = sum(map(_reads, trees.values()), Counter())
    unread = [f"{path.name}:{cls.name}.{stmt.target.id}"
              for path, tree in trees.items()
              if path.is_relative_to(ROOT / "src") for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)
              and not read[stmt.target.id]]
    assert unread == [], "read nowhere in src/ or bench/"


def _bound(func: ast.FunctionDef, call: ast.Call) -> dict:
    """Each named parameter of func and what call passes it: the argument,
    the default when it is omitted, or None past a * or ** argument."""
    spec = func.args
    params = [a.arg for a in spec.posonlyargs + spec.args]
    bound = dict(zip(params[::-1], spec.defaults[::-1]))
    bound.update((a.arg, d) for a, d in zip(spec.kwonlyargs, spec.kw_defaults)
                 if d is not None)
    for i, arg in enumerate(call.args[:len(params)]):
        if isinstance(arg, ast.Starred):
            bound.update(dict.fromkeys(params[i:]))
            break
        bound[params[i]] = arg
    if any(kw.arg is None for kw in call.keywords):
        bound = dict.fromkeys(bound)
    bound.update((kw.arg, kw.value) for kw in call.keywords if kw.arg)
    return bound


def _literal(node) -> str | None:
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return None
    return ast.dump(node)


def test_no_src_function_parameter_takes_one_literal_at_every_call():
    """With one value in use, a parameter should be a constant. A call
    reaches a module-level function of src/ by its name, unless the
    calling module defines its own function of that name and calls it
    bare."""
    trees = _trees()
    own = {path: {node.name for node in tree.body
                  if isinstance(node, ast.FunctionDef)}
           for path, tree in trees.items()}
    calls = [(path, node) for path, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    constant = []
    for path, tree in trees.items():
        if not path.is_relative_to(ROOT / "src"):
            continue
        for func in tree.body:
            if not isinstance(func, ast.FunctionDef):
                continue
            sites = [_bound(func, call) for caller, call in calls
                     if isinstance(call.func, ast.Attribute)
                     and call.func.attr == func.name
                     or isinstance(call.func, ast.Name)
                     and call.func.id == func.name
                     and (caller == path or func.name not in own[caller])]
            for param in sites[0] if sites else ():
                values = {_literal(site.get(param)) for site in sites}
                if len(values) == 1 and None not in values:
                    constant.append(f"{path.name}:{func.name}({param}="
                                    f"{ast.unparse(sites[0][param])})")
    assert constant == [], "every call passes this one literal"
