"""The per-test time limit of conftest.py is armed, and failing a test is what it does."""

import signal
import threading

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread(),
    reason="the time limit needs SIGALRM on the main thread",
)


def test_timer_is_armed():
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= 60 and interval == 0


def test_expiry_fails_the_test():
    # a loop that never ends, cut short by the same handler at 50 ms
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(pytest.fail.Exception, match="ran longer than"):
        while True:
            pass
