import contextlib
import os
import signal
import subprocess
import sys

import pytest

# Allow running pytest straight from a checkout without installing.
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)


@pytest.fixture
def wall_clock():
    """Context manager factory: fail the block with TimeoutError after `seconds`."""

    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"exceeded the {seconds} s wall-clock bound")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


@pytest.fixture
def cli_process():
    """Run `python -m proxrsa argv` from this checkout; a hang fails after `timeout` s."""

    def run(argv, timeout, cwd=None):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-m", "proxrsa", *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=cwd,
            env=env,
        )

    return run
