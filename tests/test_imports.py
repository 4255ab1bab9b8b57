"""The package runs on numpy and the standard library alone: scipy is a
test-only dependency and stays off the import path."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code, *args, cwd=None):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path), cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )


def test_import_loads_no_scipy_module():
    done = run_python(
        "import sys, pdefilter\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_builds_no_grid():
    # no configuration is built at import, so no grid order has been served
    # and every per-order cache of the grid layers is empty
    done = run_python(
        "import pdefilter\n"
        "from pdefilter import chebyshev, density\n"
        "print(density._reference_clearance.cache_info().currsize)\n"
        "print(sorted(\n"
        "    (module.__name__, name) for module in (chebyshev, density)\n"
        "    for name, f in vars(module).items()\n"
        "    if hasattr(f, 'cache_info') and f.cache_info().currsize\n"
        "))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "[]"]


def test_cli_runs_with_scipy_blocked(tmp_path):
    # a None entry in sys.modules makes every `import scipy` raise ImportError
    done = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from pdefilter import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))",
        "trajectory", "--steps", "5", "--out", str(tmp_path / "t.csv"),
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    header = (tmp_path / "t.csv").read_text().splitlines()[1]
    assert header == "k,truth,observation,ukf,pf,pdef"
