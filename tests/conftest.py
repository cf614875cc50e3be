import os
from pathlib import Path

import pytest

from clusterchar import linalg
from clusterchar.modules import Representation
from clusterchar.polygon import linear_an_algebra
from clusterchar.quiver import load_algebra, load_algebra_file

DATA = Path(__file__).resolve().parent.parent / "data"
POINT = "[quiver]\nvertices: 1\n"
LOOP = "[quiver]\nvertices: 1\narrow: x 1 1\n[relations]\nrel: x.x.x\n"


def pytest_collection_modifyitems(config, items):
    if os.environ.get("CLUSTERCHAR_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow; set CLUSTERCHAR_SLOW=1 to run")
    for item in items:
        if item.get_closest_marker("slow"):
            item.add_marker(skip)


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


@pytest.fixture(scope="session")
def algebras(a4, d4):
    """The algebras `module_strategies` draws modules over, by name."""
    return {
        "point": load_algebra(POINT),
        "loop": load_algebra(LOOP),
        "a3": linear_an_algebra(3),
        "a4": a4,
        "d4": d4,
    }
