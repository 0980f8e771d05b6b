"""Import lrlab before any test module imports numpy.

`import lrlab` copies LRLAB_THREADS into the BLAS thread-count variables, and
OpenBLAS reads those once, when numpy loads.  pytest imports this file before
the test modules, so `LRLAB_THREADS=1 pytest` runs the suite on one BLAS
thread.
"""

import lrlab  # noqa: F401
