"""The runtime imports numpy only: scipy is a test dependency."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_import_loads_no_scipy():
    proc = run_python(
        "import sys, isomesh.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_runs_with_scipy_blocked():
    # A None entry in sys.modules makes every "import scipy..." raise.
    proc = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from isomesh.cli import main\n"
        "sys.exit(main(['verify', '--spec', 'product:figure8,circle', '--n', '12']))"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
