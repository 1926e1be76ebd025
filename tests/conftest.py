import pytest

from qformlab.etasearch import enumerate_space
from qformlab.spaces import SPACE_DISCRIMINANTS


@pytest.fixture(scope="session")
def census():
    """The full census, classified once per test session."""
    return {disc: enumerate_space(disc) for disc in SPACE_DISCRIMINANTS}
