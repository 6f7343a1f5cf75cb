"""The package's export list."""

import unitsum


def test_all_names_resolve_sorted_and_unique():
    names = unitsum.__all__
    assert [name for name in names if not hasattr(unitsum, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
