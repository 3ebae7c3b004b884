"""Wideband hybrid-array channel estimation with unfolded sparse Bayesian solvers."""

import os

# One BLAS thread unless the user picked a count: the per-tone products and M x M solves are
# too small to gain from more.  numpy reads this when it loads, so it must come first.
if not any(var in os.environ for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
