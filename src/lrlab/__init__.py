"""Lieb-Robinson bounds for commutator-bounded lattice Hamiltonians.

The package splits into operator algebra (`operators`), lattice structure and
bound constants (`lattice`), concrete models (`models`), chain combinatorics
(`chains`), the bound formulas themselves (`bounds`), exact Heisenberg
dynamics and verification (`dynamics`), and a JSON-config CLI (`cli`).

Importing the package copies LRLAB_THREADS into the BLAS thread-count
variables that are not already set, before any submodule imports numpy, so
the one variable caps the threads of the CLI and of the scripts alike.  A
value that is not a positive integer is ignored with a RuntimeWarning.
"""

import os
import warnings

__version__ = "0.1.0"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_env() -> None:
    n = os.environ.get("LRLAB_THREADS")
    if not n:
        return
    if not (n.isascii() and n.isdigit() and int(n) > 0):
        # OpenBLAS would read 0, a negative count or garbage as every core.
        msg = f"LRLAB_THREADS={n!r} is not a positive integer; ignored"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
        return
    for var in _THREAD_VARS:
        os.environ.setdefault(var, n)


_apply_thread_env()
