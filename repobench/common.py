"""Shared plumbing: checkout paths, child processes, host reference."""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: scratch state of a run (stores, traces); listed in the root .gitignore.
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: reference-kernel time on an unloaded host of the kind the benchmark
#: was tuned on; corrected figures are expressed at this speed.
NOMINAL_REF_MS = 6.0

#: a child process that runs longer than this is killed and its
#: operation counted as failed.
CHILD_TIMEOUT_S = 120.0


def require_source() -> None:
    """Exit non-zero when the checkout holds no ``repro`` sources."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"repobench: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(**extra: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + BENCH_DIR
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_CACHE_DIR", None)
    env.update(extra)
    return env


def run_child(args: List[str], *, env: Optional[Dict[str, str]] = None,
              timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
    """Run ``python3 repobench/child.py ARGS`` and parse its JSON line.

    Adds ``launch_t`` (perf_counter just before the spawn; the clock is
    system-wide monotonic on Linux, so the child's timestamps are on the
    same axis) and ``ok``.  A crash, timeout or unparsable output is an
    ``ok: False`` result carrying the error text.
    """
    launch_t = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env or child_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "error": f"child timed out after {timeout:.0f} s",
                "launch_t": launch_t}
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        return {"ok": False, "launch_t": launch_t,
                "error": f"child exit {proc.returncode}: {err.strip()[-400:]}"}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return {"ok": False, "launch_t": launch_t,
                "error": f"unparsable child output: {lines[-1][:200]}"}
    result["launch_t"] = launch_t
    result.setdefault("ok", True)
    return result


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process, and so every process it starts, to one CPU.

    The host's CPUs change speed independently of each other, second by
    second; on one CPU a client and the server it talks to see the same
    speed and pay no cross-CPU wake-ups.  On the 2-vCPU tuning host this
    halved the run-to-run spread of serve-warm latency and throughput.
    The highest-numbered CPU is used, away from CPU 0's interrupt load.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


_CLONE_NEWNS = 0x00020000
_MS_REC = 0x4000
_MS_PRIVATE = 1 << 18


def private_tmpfs(path: str, size_mb: int) -> bool:
    """Mount a tmpfs at ``path`` that only this process and its children see.

    The process moves to a mount namespace of its own, made private so
    that nothing mounted in it reaches the namespace it came from; the
    mount goes away when the last process in the namespace exits.
    Returns False, leaving ``path`` a plain directory, where the process
    may not make mounts (it needs ``CAP_SYS_ADMIN``).
    """
    os.makedirs(path, exist_ok=True)
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return False
    libc.unshare.argtypes = [ctypes.c_int]
    libc.unshare.restype = ctypes.c_int
    libc.mount.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p,
                           ctypes.c_ulong, ctypes.c_char_p]
    libc.mount.restype = ctypes.c_int
    if libc.unshare(_CLONE_NEWNS) != 0:
        return False
    if libc.mount(b"none", b"/", None, _MS_REC | _MS_PRIVATE, None) != 0:
        return False
    options = f"size={size_mb}m,mode=0700".encode("ascii")
    return libc.mount(b"tmpfs", os.fsencode(path), b"tmpfs", 0, options) == 0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> Optional[float]:
    """VmHWM of another live process, from /proc."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


# ----------------------------------------------------------------------
# host-speed reference
# ----------------------------------------------------------------------

_REF_PAYLOAD = {f"key{i}": (i, i * i, f"value-{i}", [i, -i]) for i in range(300)}


def reference_kernel() -> float:
    """Run the fixed stdlib reference work; return its wall time in ms.

    JSON encode/decode, sha256 and dict/tuple churn: the same kinds of
    interpreter work the program does, with the collector paused so a
    collection triggered by earlier garbage does not land inside it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for round_ in range(6):
            blob = json.dumps(_REF_PAYLOAD, sort_keys=True)
            back = json.loads(blob)
            acc ^= int(hashlib.sha256(blob.encode("utf-8")).hexdigest()[:8], 16)
            table = {}
            for key, value in back.items():
                table[(value[0] + round_, key)] = tuple(value[3]) + (value[1],)
            acc += sum(k[0] for k in table) + len(table)
        elapsed = (time.perf_counter() - t0) * 1e3
    finally:
        if was_enabled:
            gc.enable()
    if acc == 0:  # keeps the work observable; never true
        raise RuntimeError("reference kernel lost its work")
    return elapsed


# ----------------------------------------------------------------------
# host descriptor
# ----------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_of(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest /proc/mounts prefix)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def load_average() -> List[float]:
    try:
        return [round(v, 2) for v in os.getloadavg()]
    except OSError:
        return []


def host_start(store_dir: str) -> Dict[str, Any]:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load_start": load_average(),
        "store_fs": filesystem_of(store_dir),
    }
