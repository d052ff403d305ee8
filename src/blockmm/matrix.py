"""Dense matrices, block partitions of the inner dimension, norms, and the
package's CSV writer.

Matrices are plain NumPy arrays of a bool, integer or floating dtype; the
scoring pass in ``plan`` rejects a factor with a NaN or Inf entry.  Block
views are NumPy slices, i.e. (offset, stride) windows into the parent
buffer -- building a sampling plan copies a factor only when it is not
float64, or when its norms overflow or underflow and it must be rescaled.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def as_int(name: str, value) -> int:
    """An integer count, budget or config value; a bool, 2.9 or "26" is
    rejected, not coerced, and NumPy integers are accepted."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class BlockPartition:
    """Split of the shared inner dimension n into K contiguous blocks."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) < 1:
            raise ValueError("partition needs at least one block")
        sizes = tuple(as_int("block size", s) for s in self.sizes)
        if any(s < 1 for s in sizes):
            raise ValueError(f"every block size must be >= 1, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @classmethod
    def equal(cls, n: int, num_blocks: int) -> "BlockPartition":
        """Equal-sized partition; requires n divisible by num_blocks."""
        n, num_blocks = as_int("n", n), as_int("num_blocks", num_blocks)
        if num_blocks < 1 or n % num_blocks != 0:
            raise ValueError(f"n={n} is not divisible into {num_blocks} equal blocks")
        return cls((n // num_blocks,) * num_blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Prefix sums: offsets[k] is where block k starts, offsets[K] == n.
        Computed once and read-only, since every caller shares the array."""
        off = np.cumsum((0, *self.sizes))
        off.flags.writeable = False
        return off

    def block_slice(self, k: int) -> slice:
        if not 0 <= k < self.num_blocks:
            raise IndexError(f"block index {k} out of range for K={self.num_blocks}")
        off = self.offsets
        return slice(int(off[k]), int(off[k + 1]))

    def check_length(self, length: int, what: str = "axis") -> None:
        if self.total != length:
            raise ValueError(
                f"partition covers {self.total} indices but {what} has length {length}"
            )


def block_view(M: np.ndarray, part: BlockPartition, k: int, axis: str = "columns") -> np.ndarray:
    """Return block k of M as a NumPy view (no copy).

    axis="columns" slices columns (left factor); axis="rows" slices rows
    (right factor).  Concatenating all K views reconstructs M.
    """
    sl = part.block_slice(k)
    if axis == "columns":
        part.check_length(M.shape[1], "column axis")
        return M[:, sl]
    if axis == "rows":
        part.check_length(M.shape[0], "row axis")
        return M[sl, :]
    raise ValueError(f"axis must be 'columns' or 'rows', got {axis!r}")


def multiply_exact(M: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Exact product MN (ground-truth oracle for the randomized estimators)."""
    if M.ndim != 2 or N.ndim != 2:
        raise ValueError("both factors must be 2-D")
    if M.shape[1] != N.shape[0]:
        raise ValueError(f"inner dimensions differ: {M.shape} x {N.shape}")
    return M @ N


def column_norms(M: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column, from one pass of squared sums."""
    return np.sqrt(np.einsum("ij,ij->j", M, M))


def row_norms(N: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, from one pass of squared sums."""
    return np.sqrt(np.einsum("ij,ij->i", N, N))


def frobenius_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def write_csv(path, header, rows) -> None:
    """The package's CSV writer: a header line, then one line per row, "\\n"
    line ends, floats at repr precision ("%.17g") and anything else via
    ``str``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([f"{x:.17g}" if isinstance(x, float) else x for x in row] for row in rows)
