import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fglab.adams import DReducer  # noqa: E402
from fglab.cannibal import theta3_direct, thom_psi_dk  # noqa: E402


# the reducers are built as the CLI and the golden tables build them
@pytest.fixture(scope="session")
def reducer8():
    return DReducer(8)


@pytest.fixture(scope="session")
def reducer10():
    return DReducer(10)


@pytest.fixture(scope="session")
def reducer11():
    return DReducer(11)


@pytest.fixture(scope="session")
def reducer14():
    return DReducer(14)


@pytest.fixture(scope="session")
def theta30():
    return theta3_direct(30)


@pytest.fixture(scope="session")
def thom_table10(reducer10, theta30):
    return {k: thom_psi_dk(k, theta30, reducer10) for k in range(2, 11)}
