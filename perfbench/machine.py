"""Environment record attached to every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

import numpy as np

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _size_bytes(text: str) -> int:
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def caches() -> list:
    """Data and unified caches of cpu0, smallest level first."""
    out = []
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            out.append({"level": int((index / "level").read_text()), "type": kind,
                        "bytes": _size_bytes((index / "size").read_text())})
        except (OSError, ValueError):
            continue
    return sorted(out, key=lambda c: c["level"])


def llc_bytes() -> int | None:
    found = caches()
    return found[-1]["bytes"] if found else None


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest(src: Path) -> str:
    """sha256 over the library sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, src: Path, seed: int) -> dict:
    blas = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": caches(),
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
    }
