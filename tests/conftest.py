"""Fixtures that every test under tests/ uses."""

import pytest

from ledgerlint.formula import shapes


@pytest.fixture(autouse=True)
def empty_shape_table():
    """Each test starts from an empty shape table, as a new process does."""
    shapes._table.clear()
