"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on shared hosts whose speed drifts by a quarter or
more over minutes, for wall and CPU time alike: an ``oracle-sep`` pass
of the same code on the same input took 3.4 s in one minute and 5.8 s
in another.  So ``run.py`` times this probe before and after set-up and
after every pass, and reports each time metric at the probe's reference
speed::

    reported = measured * REFERENCE_S / (probe seconds around the pass)

The probe is the benchmark's own code and never calls sepeval, so a
change to the program moves the reported times as much as the measured
ones, while a change in the host's speed moves the probe too and cancels
out.  It factors a 2048x2048 matrix with LAPACK's Cholesky, which is both
arithmetic and memory traffic (the matrix is larger than the caches).
Interleaved with passes of every workload, it tracked their drift more
closely than FFTs, a cache-sized Cholesky or JSON encoding did.

``REFERENCE_S`` is a round figure near the probe's median time on the
2-vCPU x86_64 host the baseline in ``baseline.json`` was measured on.
It only sets the scale; changing the probe or this constant changes
every reported time and needs a new baseline.
"""

import time

import numpy as np
import scipy.linalg

REFERENCE_S = 0.4

ROUNDS = 2
SIZE = 2048

# Symmetric with a diagonal larger than each row's off-diagonal sum, so
# positive definite; the factorization's cost does not depend on values.
_random = np.random.default_rng(0).uniform(-1.0, 1.0, size=(SIZE, SIZE))
_MATRIX = (_random + _random.T) / 2.0 + SIZE * np.eye(SIZE)
del _random


def seconds() -> float:
    """Wall seconds of one run of the probe."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        scipy.linalg.cholesky(_MATRIX)
    return time.perf_counter() - start


seconds()  # first-call costs (LAPACK loading, page faults) stay out of every probe
