import pytest


@pytest.fixture
def force_pool(monkeypatch):
    """A function that, once called, has every later plan swept on two
    processes, whatever its size and the CPUs of this machine, and returns
    the list of the worker counts of the pools started."""
    import concurrent.futures

    from rookideal import betti

    started = []
    real = concurrent.futures.ProcessPoolExecutor

    def counted(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    def force():
        monkeypatch.setattr(betti, "_POOL_MIN_SUBSETS", 0)
        monkeypatch.setattr(betti, "_cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
        return started

    return force
