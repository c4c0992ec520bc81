"""Process environment shared by the benchmark and its child processes.

Import this module before numpy: it pins BLAS to one thread (the ops are
2x2 and 4x4 matrix stacks, where extra BLAS threads only add start-up
cost and noise) and puts the checkout's ``src/`` first on ``sys.path``,
so the package under test is the one built from this checkout.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NPROC = os.cpu_count() or 1
BLAS_THREADS = min(1, NPROC)
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingPackage(Exception):
    pass


def prepare() -> None:
    """Pin BLAS threads and make `import tqdecho` resolve to this checkout.
    The pin takes effect only when this runs before numpy is imported."""
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "tqdecho" / "__init__.py").is_file():
        raise MissingPackage(f"no tqdecho package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    for var in _BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_record(workload: str, seed: int, trace: bool, ops: int, passes: int) -> dict:
    import numpy as np
    import tqdecho

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": _git_revision(),
        "tqdecho": tqdecho.__version__,
        "tqdecho_path": str(Path(tqdecho.__file__).resolve().parent),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "ops": ops,
        "passes": passes,
    }
