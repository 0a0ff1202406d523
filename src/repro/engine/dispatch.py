"""Engine-level work dispatch helpers.

Both users of :func:`split_chunks` want the same shape — contiguous,
near-equal chunks: the hierarchical tier splits an over-size shard into
as many shards as it has spare servers for, and the benchmark of
record's engine probe sizes one chunk per worker so each worker runs a
batched solve over its whole share.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

ItemT = TypeVar("ItemT")


def split_chunks(
    items: Sequence[ItemT], n_chunks: int
) -> list[tuple[ItemT, ...]]:
    """Split work items into ``n_chunks`` contiguous, near-equal chunks.

    Rows are independent, so chunking only affects which worker solves
    which item — never the results. Chunk sizes differ by at most one,
    and input order is preserved across the concatenated chunks.
    """
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks: list[tuple[ItemT, ...]] = []
    start = 0
    for chunk_index in range(n_chunks):
        size = base + (1 if chunk_index < extra else 0)
        chunks.append(tuple(items[start : start + size]))
        start += size
    return chunks


__all__ = ["split_chunks"]
