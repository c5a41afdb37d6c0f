"""Pin BLAS to one thread before numpy loads.

OpenBLAS and MKL read these variables once, when numpy is first imported,
and pytest imports this file before any test module.  On a small host a
threaded ``eigh`` of a ~120 x 120 matrix can stall for ~100 ms where one
thread takes ~1 ms.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
