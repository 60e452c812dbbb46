import pathlib

import pytest

from qborel import Poset, _kernels, parse_monomial

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # pay any first-call cost once, before anything gets timed
    _kernels.warm_up()


@pytest.fixture
def count_calls(monkeypatch):
    """count(module, name) counts calls to module.name into a dict."""
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    return calls, count


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def q11():
    """Eleven elements, two nontrivial components and a loose point x3."""
    return Poset(11, [(1, 2), (1, 4), (2, 5), (4, 5), (3, 5),
                      (6, 9), (7, 9), (9, 11), (8, 10), (10, 11)])


@pytest.fixture(scope="session")
def q3():
    """Three elements: x1 below x3, x2 on its own."""
    return Poset(3, [(1, 3)])


@pytest.fixture(scope="session")
def q6():
    """Two chains x1<x3<x5, x2<x4<x5 joined at x5, with x6 above."""
    return Poset(6, [(1, 3), (2, 4), (3, 5), (4, 5), (5, 6)])


@pytest.fixture
def m49(q11):
    return parse_monomial("x4*x9^2", q11.n)


@pytest.fixture
def m23(q3):
    return parse_monomial("x2*x3", q3.n)


@pytest.fixture
def m1236(q6):
    return parse_monomial("x1*x2*x3*x6", q6.n)
