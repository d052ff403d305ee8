"""Dense matrices, block partitions of the inner dimension, norms, the
package's CSV writer, and its input validators: one per kind of input,
factors (``check_factors``), counts (``as_int``), real numbers
(``check_real``), integer vectors (``as_ints``), nonnegative vectors
(``as_nonneg``) and random generators (``check_rng``).

Matrices are plain NumPy arrays of a bool, integer or floating dtype; the
scoring pass in ``plan`` rejects a factor with a NaN or Inf entry.  Block
views are NumPy slices, i.e. (offset, stride) windows into the parent
buffer -- building a sampling plan copies a factor only when it is not
float64, or when its norms overflow or underflow and it must be rescaled.
"""

from __future__ import annotations

import csv
import math
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


def check_real(name: str, value, positive: bool = False) -> None:
    """Reject ``value`` unless it is a finite real number (and > 0 if
    ``positive``): a bound input or a real-valued budget.  A bool, None, a
    string or a list is rejected, not coerced."""
    try:
        ok = not isinstance(value, (bool, np.bool_)) and math.isfinite(value) and (not positive or value > 0)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be finite{' and > 0' if positive else ''}, got {value!r}")


def as_nonneg(name: str, values, shape=None) -> np.ndarray:
    """A new float64 array of ``values`` (of ``shape``, if given) whose every
    entry is finite and >= 0: probabilities, weights, budget overrides,
    pilot norms.  A NaN entry is rejected, not dropped by a comparison."""
    v = np.array(values, dtype=np.float64)
    if shape is not None and v.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {v.shape}")
    if not np.isfinite(v).all() or (v < 0).any():
        raise ValueError(f"{name} must be finite and >= 0")
    return v


def as_ints(name: str, values, shape=None) -> np.ndarray:
    """A new int64 array of ``values`` (of ``shape``, if given): budgets and
    caps.  A signed integer array passes on its dtype; unsigned or float
    entries must be finite, integral and within int64, and bool or any
    other dtype is rejected."""
    v = np.array(values)
    if v.dtype.kind != "i" and not (
        v.dtype.kind in "uf" and np.isfinite(v).all() and (v == np.round(v)).all() and (abs(v) < 2.0**63).all()
    ):
        raise ValueError(f"{name} must be finite integers, got {np.array2string(v, threshold=8)}")
    v = v.astype(np.int64, copy=False)
    if shape is not None and v.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {v.shape}")
    return v


def check_rng(rng, *methods: str) -> None:
    """Reject an rng without the ``methods`` a call uses, naming its type
    and the first one missing; any object that has them is accepted."""
    for name in methods:
        if not callable(getattr(rng, name, None)):
            raise ValueError(f"rng must be a numpy.random.Generator, got {type(rng).__name__} (it has no {name!r})")


def check_factors(M: np.ndarray, N: np.ndarray) -> int:
    """The factors of a product: numpy arrays of a bool, integer or floating
    dtype, 2-D, whose inner dimensions chain; returns the inner dimension."""
    for name, X in (("M", M), ("N", N)):
        if not isinstance(X, np.ndarray):
            raise ValueError(f"{name} must be a numpy array, got {type(X).__name__}")
        if X.dtype.kind not in "biuf":
            raise ValueError(f"{name} must have a bool, integer or floating dtype, got {X.dtype}")
    if M.ndim != 2 or N.ndim != 2:
        raise ValueError("factors must be 2-D")
    if M.shape[1] != N.shape[0]:
        raise ValueError(f"inner dimensions differ: {M.shape} x {N.shape}")
    return M.shape[1]


@dataclass(frozen=True)
class BlockPartition:
    """Split of the shared inner dimension n into K contiguous blocks."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        try:
            sizes = tuple(as_int("block size", s) for s in self.sizes)
        except TypeError:
            raise ValueError(f"block sizes must be a sequence of integers, got {self.sizes!r}") from None
        if not sizes:
            raise ValueError("partition needs at least one block")
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
    def size_array(self) -> np.ndarray:
        """``sizes`` as an int64 array, for the callers that compute with it.
        Computed once and read-only, like ``offsets``."""
        sizes = np.array(self.sizes, dtype=np.int64)
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def offsets(self) -> np.ndarray:
        """Prefix sums: offsets[k] is where block k starts, offsets[K] == n.
        Computed once and read-only, since every caller shares the array."""
        off = np.cumsum((0, *self.sizes))
        off.flags.writeable = False
        return off

    @cached_property
    def _as_one_block(self) -> "BlockPartition":
        """The K blocks as the K items of one block, whose probabilities the
        whole-block baseline draws from; computed once."""
        return BlockPartition((self.num_blocks,))

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
    check_factors(M, N)
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
