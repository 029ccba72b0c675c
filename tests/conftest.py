"""Fixtures shared by every test under tests/."""

import signal
import threading

import pytest

# Wall-clock limit per test, about 7x the slowest test: a loop that never
# ends fails its test instead of stalling the whole run.
TEST_TIMEOUT_S = 60


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail the test if it runs longer than TEST_TIMEOUT_S.

    SIGALRM exists only on POSIX and is delivered to the main thread, so
    elsewhere the test runs without a limit.
    """
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran longer than {TEST_TIMEOUT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def record_calls(monkeypatch):
    """Wrap ``module.name`` for the test; the list it returns gets each call's (args, kwargs)."""
    def wrap(module, name):
        calls, original = [], getattr(module, name)

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, recording)
        return calls
    return wrap
