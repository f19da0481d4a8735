"""Start the stock server with the benchmark's span wrappers installed.

    serve_launch.py SPANS_OUT serve run [options...]

Installs the serve-warm wrappers, then runs ``repro.cli.main`` with the
remaining arguments exactly as ``python -m repro`` would.  When the
server exits (SIGTERM drains it), the spans are written to SPANS_OUT.
"""

from __future__ import annotations

import sys

import common


def main() -> int:
    common.require_source()
    import tracer

    spans_out, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Recorder()
    tracer.install(recorder, tracer.targets_for("serve-warm"))
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main())
