"""Facts about the host that explain run-to-run noise.

Every run is stamped with the CPU, the BLAS build and its thread
setting, interpreter and numpy versions, the git revision when there is
one, and the share of CPU time stolen by the hypervisor over the run
(a ``/proc/stat`` delta) with the load average.  A noisy verdict can
then be traced to the host instead of guessed at.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

#: Every workload process, the serving daemon included, runs with BLAS
#: pinned to one thread (see README.md for the measured reason).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def pinned_env() -> dict[str, str]:
    """This process's environment with BLAS pinned."""
    return {**os.environ, **PINNED_ENV}


def cpu_times() -> list[int]:
    """Aggregate ``cpu`` jiffies from ``/proc/stat`` (empty if unreadable)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return []
    return [int(value) for value in fields[1:]]


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of all CPU jiffies between two samples that were stolen."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    # guest/guest_nice are already counted inside user/nice.
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else 0.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        import numpy as np

        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the stamp must never fail a run
        return "unknown"


def _git_sha(root: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _loadavg() -> list[float]:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def stamp(root: Path, cpu_before: list[int]) -> dict[str, object]:
    """The host facts for one run that started at ``cpu_before``."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "blas_threads": {key: os.environ.get(key) for key in PINNED_ENV},
        "process_threads": len(os.listdir("/proc/self/task"))
        if os.path.isdir("/proc/self/task") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "steal_share": steal_share(cpu_before, cpu_times()),
        "loadavg": _loadavg(),
    }
