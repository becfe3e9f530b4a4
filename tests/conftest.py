import pathlib

import numpy as np
import pytest

from psrplan.cassandra import load_pomdp

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def tiger():
    return load_pomdp(DATA / "tiger.POMDP")


@pytest.fixture(scope="session")
def fair_coin():
    return load_pomdp(DATA / "fair_coin.POMDP")


@pytest.fixture
def lexsort_calls(monkeypatch):
    """Records each np.lexsort call: the oracle's dedupe sorts keys with it
    only when two different rows share a hash."""
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    return calls
