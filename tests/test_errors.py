"""The exception taxonomy: every error type is raised and tested."""

from __future__ import annotations

import re
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
