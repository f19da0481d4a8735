"""No ``repro`` entry point imports numpy.

Importing numpy costs a process about 160 ms and 11-13 MB, and no
result needs it: the compiled executor evaluates its sparse cost rows
in plain Python.  CI's test job installs no numpy, so a stub package
placed first on ``sys.path`` stands in for it: any ``import numpy``
loads the stub and shows in ``sys.modules``.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = (
    "repro.cli",
    "repro.core.report",
    "repro.serve",
    "repro.explore",
    "repro.scenarios",
    "repro.cluster",
)


def test_repro_imports_no_numpy(tmp_path):
    stub = tmp_path / "numpy"
    stub.mkdir()
    (stub / "__init__.py").write_text("", encoding="utf-8")
    code = (
        "import importlib, sys\n"
        f"sys.path[:0] = [{str(tmp_path)!r}, {str(SRC)!r}]\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
