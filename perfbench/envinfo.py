"""Environment record and computed working-set sizes written with results."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess

import numpy as np

from elastica.assembly import ElasticityProblem, assemble
from workloads import M, SQUARE

# SparseSymMatrix.matvec gathers the operand in column chunks of
# max(1, 3e7 // nnz); the gather scratch is nnz x min(chunk, block) floats
MATVEC_CHUNK_ENTRIES = 3e7


def _cache_bytes(level):
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"],
                             capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _openblas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_vendor():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def _git_commit(root):
    """Commit of the checkout, read from .git without running git."""
    gitdir = os.path.join(root, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(gitdir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(root):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "elastica_threads": os.environ.get("ELASTICA_THREADS",
                                           "unset (1 worker)"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "l2_cache_bytes": _cache_bytes(2),
        "l3_cache_bytes": _cache_bytes(3),
    }


def working_set(workload):
    """Computed (not measured) sizes of the box operands, per mesh.

    The coupled α > 0 pattern is the largest, so the workload's largest α
    sets the nonzero counts.
    """
    if workload.kind != "box":
        return None
    alpha = max(workload.alphas)
    block = max(M + 8, 8)  # smallest_eigenpairs' default block size
    sizes = {}
    for cells in (workload.cells, 2 * workload.cells):
        K, Mass, _ = assemble(ElasticityProblem(SQUARE, alpha, (cells, cells)))
        entry = {"order": K.order, "block": block, "alpha": alpha}
        for label, mat in (("K", K), ("M", Mass)):
            chunk = max(1, int(MATVEC_CHUNK_ENTRIES // mat.nnz))
            entry[f"{label}_nnz"] = mat.nnz
            entry[f"{label}_csr_bytes"] = mat.nnz * 16
            entry[f"{label}_gather_scratch_bytes"] = \
                mat.nnz * min(chunk, block) * 8
        entry["block_bytes"] = K.order * block * 8
        sizes[f"{cells}x{cells}"] = entry
    return {"computed": True, "meshes": sizes}
