"""Source checks: error types are raised and tested; no test-only code."""

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


def test_src_defines_only_what_src_or_bench_names():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*(ROOT / "src").rglob("*.py"),
                          *(ROOT / "bench").glob("*.py")]}
    named = sum(map(_names, trees.values()), Counter())
    unused = [f"{path.name}:{node.name}" for path, tree in trees.items()
              if path.is_relative_to(ROOT / "src") for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and not re.fullmatch(r"__\w+__", node.name)
              and named[node.name] <= _names(node)[node.name]]
    assert unused == [], "named nowhere in src/ or bench/ but its definition"
