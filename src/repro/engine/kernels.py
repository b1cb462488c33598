"""The fast mode's kernel backend name.

The fast kernel (:mod:`repro.engine.fast`) is NumPy code throughout: its
per-row sweeps verify with GEMVs and its leaf-major passes with GEMMs,
and both select their top-k with ``argpartition``, so no per-candidate
loop is left to compile.  :func:`kernel_backend` names that backend for
the records benchmarks write beside their numbers.
"""

from __future__ import annotations


def kernel_backend() -> str:
    """The fast kernel's backend: always ``"numpy"``."""
    return "numpy"
