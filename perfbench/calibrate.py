"""A fixed reference job that measures how fast the host is right now.

``run.py`` starts it as a fresh process after every pass and times it
from spawn to exit.  It imports the program's numerical dependencies,
then does a fixed mix of interpreter, numpy and HiGHS work; it never
imports the program, so no change to the program can move its time.
The run's median of these times tracks the slow and fast spells a
shared host goes through, which last about as long as one run.

Usage (normally only through run.py)::

    python3 perfbench/calibrate.py
"""

import numpy as np
import scipy.sparse
from scipy.optimize import linprog


def interpreter() -> float:
    table: dict[int, float] = {}
    total = 0.0
    for i in range(150_000):
        key = i % 997
        table[key] = table.get(key, 0.0) + 0.5 * i
        if table[key] > 1e6:
            total += table.pop(key)
    return total


def vectors(rng: np.random.Generator) -> float:
    total = 0.0
    for _ in range(3):
        x = rng.standard_normal(200_000)
        y = np.sort(np.cumsum(x))
        total += float(np.searchsorted(y, x).sum()) + float((x > 0.5).sum())
    return total


def highs(rng: np.random.Generator) -> float:
    n, m = 4000, 1500
    a = scipy.sparse.random(m, n, density=0.003, random_state=rng, format="csr")
    result = linprog(
        -rng.random(n), A_ub=a, b_ub=np.full(m, 10.0), bounds=(0, 1), method="highs"
    )
    return float(result.fun)


if __name__ == "__main__":
    rng = np.random.default_rng(7)
    print(interpreter() + vectors(rng) + highs(rng))
