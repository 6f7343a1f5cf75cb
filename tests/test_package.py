"""The package's export list and the README examples."""

import doctest
from pathlib import Path

import unitsum


def test_all_names_resolve_sorted_and_unique():
    names = unitsum.__all__
    assert [name for name in names if not hasattr(unitsum, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_readme_examples_run():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
