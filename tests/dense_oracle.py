"""The dense measurement vector: the closed form at every y in [0, Q), in numpy.

The library's success accounting (proxrsa.shor_sim) scores only the few
candidates near each c*Q/r.  This module scans every outcome instead, so
the tests use it as the independent reference for the sparse path.  It
needs numpy, a test dependency.
"""

import numpy as np

from proxrsa import shor_sim
from proxrsa.errors import NumericalError, ParameterError

MAX_DENSE_Q = 1 << 22


def measurement_distribution(r: int, q_size: int) -> np.ndarray:
    """Full probability vector over y in [0, Q); only for Q <= 2^22.

    The pre-normalization sum must land within 1e-9 of 1; the vector is
    then rescaled to sum to exactly 1.
    """
    shor_sim._check_q(q_size)
    if not 1 <= r <= q_size:
        raise ParameterError(f"period must satisfy 1 <= r <= Q: {r}")
    if q_size > MAX_DENSE_Q:
        raise ParameterError(f"dense distribution capped at Q = 2^22, got {q_size}")

    m = -(-q_size // r)
    y = np.arange(q_size, dtype=np.int64)
    t = (np.int64(r) * y) % q_size
    probs = np.zeros(q_size, dtype=np.float64)
    peak = t == 0
    probs[peak] = m / q_size
    mt = np.int64(m) * t
    live = ~peak & (mt % q_size != 0)
    # fold into [0, Q/2] in integers: |sin(pi*x)| is 1-periodic, symmetric
    top = mt[live] % q_size
    top = np.minimum(top, q_size - top).astype(np.float64)
    tl = np.minimum(t[live], q_size - t[live]).astype(np.float64)
    ratio = np.sin(np.pi * top / q_size) / np.sin(np.pi * tl / q_size)
    probs[live] = ratio * ratio / (q_size * m)

    total = float(probs.sum())
    if abs(total - 1.0) >= 1e-9:
        raise NumericalError(f"distribution normalization drifted: sum = {total!r}")
    return probs / total
