import os

# one BLAS thread per test process, set before numpy loads: a second OpenBLAS
# thread spins idle, doubles CPU time and slows every matmul on a loaded machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))
