"""Pin BLAS to one thread before numpy is imported.

The suite solves thousands of 16x16 and 32x32 systems; BLAS threads on
matrices that small cost far more in synchronization than they gain.  An
explicit setting in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
