"""scripts/gates.py stays importable, and its reference loop stays exact.

The obs gate races the executor against ``baseline_run``, a replica of
the pre-telemetry loop; the ratio means something only while the two
loops compute the same result.  Nothing here is timed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.arch.registry import ALL_ARCH_NAMES, get_arch
from repro.isa.executor import Executor
from repro.kernel.handlers import handler_program
from repro.kernel.primitives import Primitive

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "gates.py"


def _load_module():
    spec = importlib.util.spec_from_file_location("gates", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("gates", module)
    spec.loader.exec_module(module)
    return module


gates = _load_module()


@pytest.mark.parametrize("arch_name", ALL_ARCH_NAMES)
def test_baseline_run_matches_executor_run(arch_name):
    arch = get_arch(arch_name)
    executor = Executor(arch)
    for primitive in Primitive:
        program = handler_program(arch, primitive)
        for drain in (False, True):
            assert gates.baseline_run(executor, program, drain) == executor.run(
                program, drain_write_buffer=drain), (primitive, drain)
