"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from gammakde import estimator


@pytest.fixture
def pool_sizes(monkeypatch):
    """The thread count of each pool ``estimator._thread_map`` opens, in
    order: node blocks and Monte Carlo replicates alike. Node blocks open
    one only past their gate, ``estimator._workers`` (2^20 values, on the
    main thread); a test of their pool on a small grid sets
    ``estimator._SPLIT_ELEMS`` to 0. The bandwidth rules open none."""
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(estimator, "ThreadPoolExecutor", Recording)
    return sizes
