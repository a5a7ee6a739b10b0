"""Fixtures shared by the test modules."""

import pytest

from coinvest import montecarlo


@pytest.fixture
def pool(monkeypatch):
    """``pool(k)`` makes ``simulate`` settle on ``min(k, realizations)`` threads, whatever its table."""

    def size(workers):
        monkeypatch.setattr(montecarlo, "_pool_size", lambda coalitions, n: min(workers, n))

    return size
