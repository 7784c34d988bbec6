"""Fermat's method step by step: the reference for analysis.fermat_iterations_analytic."""

import math


def fermat_search(n: int, max_iters: int):
    """(iteration, (x - y, x + y)) at the first x = ceil(sqrt(n)), x + 1, ...
    with x^2 - n = y^2, or None when max_iters values of x find no square."""
    x = math.isqrt(n - 1) + 1
    for i in range(1, max_iters + 1):
        y = math.isqrt(x * x - n)
        if y * y == x * x - n:
            return i, (x - y, x + y)
        x += 1
    return None
