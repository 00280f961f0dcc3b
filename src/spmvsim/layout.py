"""Block row/column distribution arithmetic.

The default layout gives rank r one share of a global extent G over K ranks:
G // K plus one extra when r < G % K, so the low ranks absorb the remainder
and block sizes never differ by more than one. Starting offsets are the
exclusive prefix sums of the block sizes, which is exactly what an exscan
over per-rank sizes produces.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .collectives import exclusive_prefix_sums
from .core import CsrMatrix, _read_only

__all__ = ["Layout", "LayoutSumMismatch", "build_layout", "extract_local"]


class LayoutSumMismatch(ValueError):
    """Explicit sizes that do not split the extent over the ranks."""


@dataclass(frozen=True)
class Layout:
    """Block sizes and starting offsets of one dimension across all ranks.

    total is the global extent. explicit is True when the block sizes were
    supplied by the caller rather than derived from the default formula;
    gather-path selection keys off this flag.
    """

    size: int
    local_sizes: tuple[int, ...]
    starts: tuple[int, ...]
    total: int
    explicit: bool = False

    def local_range(self, rank: int) -> tuple[int, int]:
        """Half-open global index range [start, end) owned by rank."""
        return self.starts[rank], self.starts[rank] + self.local_sizes[rank]


def build_layout(total: int, size: int, explicit_local_sizes=None) -> Layout:
    """Build the per-rank layout of one dimension.

    With explicit_local_sizes the caller controls the split; anything but
    one nonnegative integer size per rank summing to total raises
    LayoutSumMismatch.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if explicit_local_sizes is None:
        sizes = tuple(total // size + (r < total % size) for r in range(size))
        explicit = False
    else:
        given = tuple(explicit_local_sizes)
        try:
            sizes = tuple(map(operator.index, given))
        except TypeError:
            raise LayoutSumMismatch(
                f"block sizes must be integers, got {given}") from None
        if len(sizes) != size:
            raise LayoutSumMismatch(
                f"expected {size} block sizes, got {len(sizes)}")
        if any(s < 0 for s in sizes):
            raise LayoutSumMismatch(f"block sizes must be >= 0, got {sizes}")
        if sum(sizes) != total:
            raise LayoutSumMismatch(
                f"layout sum mismatch: sum {sum(sizes)} != {total}")
        explicit = True
    return Layout(size=size, local_sizes=sizes,
                  starts=tuple(exclusive_prefix_sums(sizes)),
                  total=total, explicit=explicit)


def extract_local(row_ptr, col_idx, values, row_layout: Layout,
                  col_layout: Layout, rank: int) -> CsrMatrix:
    """Cut one rank's block of rows out of a global CSR matrix.

    The local row pointer is the global one over the owned rows shifted to
    start at zero; colIdx and values are read-only views of the contiguous
    global slices that those rows address, so the block shares their memory
    and a write into it raises ValueError. Column indices are left global,
    matching what the multiplication kernel expects.
    """
    if not 0 <= rank < row_layout.size:
        raise ValueError(f"rank {rank} out of range [0, {row_layout.size})")
    rp = np.asarray(row_ptr, dtype=np.int64)
    cj = np.asarray(col_idx, dtype=np.int64)
    av = np.asarray(values, dtype=np.float64)
    rstart, rend = row_layout.local_range(rank)
    cstart = col_layout.starts[rank]
    base = int(rp[rstart])
    stop = int(rp[rend])
    return CsrMatrix(
        m=rend - rstart,
        n=col_layout.local_sizes[rank],
        M=row_layout.total,
        N=col_layout.total,
        rstart=rstart,
        cstart=cstart,
        row_ptr=rp[rstart:rend + 1] - base,
        col_idx=_read_only(cj[base:stop]),
        values=_read_only(av[base:stop]),
    )
