"""Run the suite's BLAS on one thread.

Nothing shiftlab reports depends on the BLAS thread count:
`test_blas_threads.py` runs the CLI at one and at two threads, in fresh
interpreters, and compares every byte. One thread is what perfbench
measures, and on these small matrices extra threads mostly cost CPU time.
The variables must be set before numpy is first imported.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
