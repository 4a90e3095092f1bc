"""Problem container and synthetic problem generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import shb.linalg as linalg
from shb.errors import DimensionMismatch, Inconsistent, OutOfRange, ZeroRow
from shb.linalg import as_matrix, as_vector
from shb.sketch import derive_stream

# stream key reserved for planting a solution into an ingested matrix
PLANT_STREAM_KEY = 1

CONSISTENCY_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class Problem:
    """A consistent linear system Ax = b with optional planted solution.

    When a planted solution is present, b must equal A @ planted up to
    rounding; the source string records where the data came from.
    """

    a: np.ndarray
    b: np.ndarray
    planted_solution: np.ndarray | None = None
    source: str = ""

    def __post_init__(self):
        a = as_matrix(self.a, "a")
        b = as_vector(self.b, length=a.shape[0], name="b")
        if not np.any(np.einsum("ij,ij->i", a, a) > 0.0):
            raise ZeroRow("matrix has no nonzero row")
        planted = self.planted_solution
        if planted is not None:
            planted = as_vector(planted, length=a.shape[1], name="planted_solution")
            resid = float(np.linalg.norm(a @ planted - b))
            if resid > CONSISTENCY_RTOL * (1.0 + float(np.linalg.norm(b))):
                raise Inconsistent(
                    f"planted solution residual {resid:.3e} violates consistency"
                )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "planted_solution", planted)

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape


def gen_problem(rows: int, cols: int, seed: int) -> Problem:
    """Synthetic consistent system: Gaussian matrix with a planted solution.

    Entries of A and of the planted solution are i.i.d. standard normal
    from the seeded stream; b = A @ planted, so the system is consistent
    by construction and re-generation with the same arguments is
    bit-identical.  A matrix over the dense-array budget is refused
    before anything is drawn.
    """
    if rows < 1 or cols < 1:
        raise OutOfRange("rows and cols must be >= 1")
    if rows * cols > linalg.MAX_DENSE_ELEMENTS:
        raise OutOfRange(f"a {rows}x{cols} matrix is over the limit of {linalg.MAX_DENSE_ELEMENTS} entries")
    rng = derive_stream(seed)
    a = rng.standard_normal((rows, cols))
    planted = rng.standard_normal(cols)
    b = a @ planted
    return Problem(
        a=a,
        b=b,
        planted_solution=planted,
        source=f"gen:gaussian:{rows}x{cols}:seed={seed}",
    )


def plant_solution(a, seed: int, source: str) -> Problem:
    """Wrap an ingested matrix into a consistent system with planted b.

    The planted solution is i.i.d. standard normal from a stream keyed
    separately from the solver streams, and b = A @ planted.
    """
    a = as_matrix(a, "a")
    if a.shape[1] < 1:
        raise DimensionMismatch("matrix has no columns")
    rng = derive_stream(seed, PLANT_STREAM_KEY)
    planted = rng.standard_normal(a.shape[1])
    b = a @ planted
    return Problem(a=a, b=b, planted_solution=planted, source=source)
