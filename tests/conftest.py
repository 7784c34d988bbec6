import contextlib
import json
import os
import signal
import subprocess
import sys

import pytest

# Allow running pytest straight from a checkout without installing.
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)


class WallClockExceeded(Exception):
    """A wall_clock bound expired.  Not an OSError (as TimeoutError is), so
    cli.main's `except OSError` cannot turn a hang into exit 1."""


@pytest.fixture
def wall_clock():
    """Context manager factory: fail the block with WallClockExceeded after `seconds`."""

    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise WallClockExceeded(f"exceeded the {seconds} s wall-clock bound")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))


@pytest.fixture
def cli_process():
    """Run `python -m proxrsa argv` from this checkout; a hang fails after `timeout` s."""

    def run(argv, timeout, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "proxrsa", *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=cwd,
            env=_child_env(),
        )

    return run


_PROBE = """
import json, sys
before = set(sys.modules)
from proxrsa import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
with open("/proc/self/status") as status:
    hwm = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
report = {
    "codes": codes,
    "numpy": "numpy" in sys.modules,
    "mpmath": "mpmath" in sys.modules,
    "modules": sorted(name for name in sys.modules if name.startswith("proxrsa.")),
    "stdlib": sorted(
        name for name in set(sys.modules) - before
        if name.partition(".")[0] in sys.stdlib_module_names
    ),
    "vmhwm_kb": hwm,
}
print(json.dumps(report), file=sys.stderr)
"""


@pytest.fixture
def cli_probe():
    """Run `cli.main(argv)` for each argv in turn in one fresh interpreter.

    Returns (stdout, report); report holds the exit codes, whether numpy
    and mpmath were imported, the proxrsa submodules loaded (as
    "proxrsa.census" and so on), the standard-library modules the program
    loaded beyond the probe's own imports (as "csv", "decimal" and so
    on), and the interpreter's own peak RSS in kB (VmHWM).  Unlike
    ru_maxrss, VmHWM does not start from the high-water mark of the parent
    process that started the child.  The child starts with -S, so that a
    module some site hook imports at start (a .pth file may load shutil
    and tempfile) cannot hide one that a command loads.
    """

    def run(argvs):
        result = subprocess.run(
            [sys.executable, "-S", "-c", _PROBE, json.dumps(argvs)],
            capture_output=True,
            text=True,
            timeout=120,
            env=_child_env(),
        )
        assert result.returncode == 0, result.stderr
        return result.stdout, json.loads(result.stderr.splitlines()[-1])

    return run
