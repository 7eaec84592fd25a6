"""Pin BLAS to one thread before numpy loads.

Multi-threaded OpenBLAS sums in another order, so the last bits of
numpy's eigenvalues, and of the verification suites' outputs, can depend on
the thread count.  The golden outputs in ``golden/cli_outputs.json`` are the
one-thread bytes; the threshold commands use no numpy."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
