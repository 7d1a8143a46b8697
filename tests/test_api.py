"""The public API is what README.md documents, and nothing more."""

import inspect
import re
from pathlib import Path

import dsfusion
from dsfusion import errors

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# Every identifier written inside README's inline code spans.
README_NAMES = {
    name for span in re.findall(r"`([^`\n]+)`", README) for name in re.findall(r"\w+", span)
}

ERROR_CLASSES = {
    name
    for name, value in vars(errors).items()
    if inspect.isclass(value) and issubclass(value, Exception)
}


def test_every_export_is_named_in_readme():
    assert sorted(set(dsfusion.__all__) - README_NAMES) == []


def test_every_error_class_is_exported():
    assert sorted(ERROR_CLASSES - set(dsfusion.__all__)) == []


def test_error_hierarchy_is_the_documented_one():
    assert len(ERROR_CLASSES) == 18
    for name in ERROR_CLASSES:
        assert issubclass(getattr(errors, name), errors.EvidenceError)
    assert len(dsfusion.__all__) == len(set(dsfusion.__all__)) == 46


def test_isclose_is_documented():
    assert "m.isclose(" in README
