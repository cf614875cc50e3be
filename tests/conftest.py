from pathlib import Path

import pytest

from clusterchar import linalg
from clusterchar.modules import Representation
from clusterchar.quiver import load_algebra_file

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def a4():
    return load_algebra_file(DATA / "a4.alg")


@pytest.fixture(scope="session")
def d4():
    return load_algebra_file(DATA / "d4.alg")


@pytest.fixture(scope="session")
def a4_M(a4):
    return Representation(a4, (1, 1, 0, 0), {"d": linalg.matrix([[1]])})


@pytest.fixture(scope="session")
def d4_M(d4):
    return Representation(
        d4, (1, 1, 1, 0), {"p": linalg.matrix([[1]]), "q": linalg.matrix([[1]])}
    )
