"""Fixed reference task that the harness times next to every iteration.

The shared machine's speed drifts by up to a factor of two over minutes,
far more than any bound a timing could be held to.  The harness runs
this script as its own process before every iteration and divides the
program's times by its median time, so the timing metrics are in units
of this task's speed, and a drift that slows both cancels.

It does the same kinds of work as the ``shb`` commands, in about the same
proportions, and it never imports ``shb``: Python and numpy start-up, a
heavy ball Kaczmarz loop of small numpy calls on a 300x100 system
(interpreter and dispatch bound), and symmetric eigenvalues of a dense
matrix (LAPACK and BLAS bound).  Nothing here may change once the
benchmark's baseline is taken, or the units change with it.
"""

import numpy as np

ROWS, COLS, STEPS, BETA = 300, 100, 20000, 0.2
EIG_N, EIG_REPS = 800, 2


def main() -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((ROWS, COLS))
    b = a @ rng.standard_normal(COLS)
    norms = np.einsum("ij,ij->i", a, a)
    x = prev = np.zeros(COLS)
    for i in rng.integers(0, ROWS, STEPS):
        row = a[i]
        x, prev = x - (row @ x - b[i]) / norms[i] * row + BETA * (x - prev), x
    if not np.linalg.norm(a @ x - b) < 1e-6 * np.linalg.norm(b):
        raise SystemExit("reference solve did not converge")
    m = rng.standard_normal((EIG_N, EIG_N))
    m = m @ m.T
    for _ in range(EIG_REPS):
        np.linalg.eigvalsh(m)


if __name__ == "__main__":
    main()
