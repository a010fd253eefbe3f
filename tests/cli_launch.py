"""Launch the ``gsnmf`` command as a child process for the CLI tests.

The tests run the child with ``cwd`` set to a temporary directory, so a
relative ``PYTHONPATH`` such as ``src`` inherited from the parent would
point at nothing there. The child instead gets an environment whose
``PYTHONPATH`` starts with the absolute ``src`` directory of this working
tree, followed by whatever ``PYTHONPATH`` was already set. The absolute
``src`` path goes first so the child always runs the working tree: a stale
installed copy of ``gsnmf`` in site-packages cannot shadow it, and the
parent and child test the same code. The child also turns a numpy
``RuntimeWarning`` into an error, as the test process itself does.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PY = [sys.executable, "-m", "gsnmf"]


def cli_env():
    """A copy of ``os.environ`` with the absolute ``src`` first on ``PYTHONPATH``
    and ``error::RuntimeWarning`` appended to ``PYTHONWARNINGS``, where the
    last matching entry wins."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = ",".join(
        filter(None, [env.get("PYTHONWARNINGS"), "error::RuntimeWarning"])
    )
    return env


def run_cli(args, cwd=None):
    """Run ``python -m gsnmf *args`` in ``cwd`` and capture its text output."""
    return subprocess.run(PY + args, cwd=cwd, env=cli_env(), capture_output=True, text=True)
