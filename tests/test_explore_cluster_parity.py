"""The multi-process explore path writes exactly what the serial one does.

``repro cluster run --workers 1`` is how a search uses more processes.
Its worker must leave a trial WAL and lineage sidecar byte-identical to
those of ``repro explore run``, and both must hash to the bytes pinned
below.  Both commands run in fresh processes with no engine cache
directory, as a user would run them.
"""

import hashlib
import os
import subprocess
import sys

import repro

#: sha256 of the tiny grid's trial WAL and its lineage sidecar.
TINY_WAL_SHA256 = "4b2efa79730f9ac613af7a59e9f03387fbcc8717b28a6909f970c5cf37fab2bd"
TINY_SIDECAR_SHA256 = "5ef8ec3233b24db316ce57595e09c6d3e0df7d6418d55fb633bb413aed4375e0"


def _repro(cwd, *argv):
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-m", "repro", *argv], cwd=cwd, env=env,
                   check=True, capture_output=True, timeout=300)


def test_one_worker_cluster_writes_the_explore_bytes(tmp_path):
    (tmp_path / "A").mkdir()
    _repro(tmp_path, "explore", "run", "--space", "tiny",
           "--store", "A/trials.jsonl")
    _repro(tmp_path, "cluster", "run", "--space", "tiny", "--workers", "1",
           "--out-dir", "B")
    for serial, worker, pinned in (
            ("trials.jsonl", "worker-w0.jsonl", TINY_WAL_SHA256),
            ("trials.jsonl.lineage", "worker-w0.jsonl.lineage",
             TINY_SIDECAR_SHA256)):
        serial_bytes = (tmp_path / "A" / serial).read_bytes()
        assert (tmp_path / "B" / worker).read_bytes() == serial_bytes, worker
        assert hashlib.sha256(serial_bytes).hexdigest() == pinned, serial
