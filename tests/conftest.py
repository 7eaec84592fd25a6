"""Pin BLAS to one thread before numpy loads.

Multi-threaded OpenBLAS sums in another order, so the last bits of the
eigenvalues of the larger operators (289 x 289 at 2j = 16) depend on the
thread count.  The golden outputs in ``golden/cli_outputs.json`` are the
one-thread bytes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
