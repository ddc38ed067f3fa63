import pytest

import kronlev.factor


@pytest.fixture
def openblas():
    """numpy's bundled OpenBLAS; its thread count is restored after the test."""
    found = kronlev.factor._openblas()
    if found is None:
        pytest.skip("numpy bundles no OpenBLAS")
    before = found.get_threads()
    yield found
    found.set_threads(before)


@pytest.fixture
def dpotrs(openblas):
    return openblas.dpotrs


@pytest.fixture
def dpotrf(openblas):
    return openblas.dpotrf
