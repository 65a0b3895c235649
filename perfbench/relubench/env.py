"""The environment record written with every result: read-only probes of the
machine, the interpreter, the libraries and the checkout."""

from __future__ import annotations

import importlib.util
import inspect
import os
import platform
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cache_sizes() -> dict[str, str]:
    """Level-2 and last-level cache sizes of cpu0, as sysfs reports them."""
    by_level = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            by_level[int((index / "level").read_text())] = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    if not by_level:
        return {}
    return {"l2": by_level.get(2), "llc": by_level[max(by_level)]}


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git without running git, or 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def star_import_missing() -> list[str]:
    """Public constructors that `from relucalc.constructors import *` drops
    because the package's __all__ is built before its later imports."""
    import relucalc.constructors as cons

    exported = set(cons.__all__)
    return sorted(
        name
        for name, value in vars(cons).items()
        if not name.startswith("_") and not inspect.ismodule(value) and name not in exported
    )


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(root),
        "seed": seed,
        "known_defects": {"constructors_star_import_missing": star_import_missing()},
    }
