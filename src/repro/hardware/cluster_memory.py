"""Explicit data movement between global and cluster memory.

"Data can be moved between cluster and global shared memory only via
explicit moves under software control" (Section 2).  Coherence between
copies of globally shared data residing in cluster memories is maintained in
software; the helper here is the simulator-side equivalent of the run-time
library's global-to-cluster block move, written as a micro-operation
generator that a kernel coroutine can ``yield from``.
"""

from __future__ import annotations

from typing import Iterator

from repro.hardware.ce import (
    ArmFirePrefetch,
    AwaitPrefetch,
    ComputationalElement,
)


def move_global_to_cluster(
    ce: ComputationalElement,
    start_address: int,
    length: int,
    stride: int = 1,
    install_dirty: bool = False,
) -> Iterator[object]:
    """Copy a block from global memory into the cluster's cached work array.

    The move streams through the CE's prefetch unit in buffer-sized chunks
    (the PFU issues up to 512 requests without pausing) and installs the
    destination lines in the cluster cache, which is how the GM/cache rank-64
    version gets its submatrix into "a cached work array in each cluster".
    """
    if length < 0:
        raise ValueError(f"move length must be >= 0, got {length}")
    buffer_words = ce.config.prefetch.buffer_words
    moved = 0
    while moved < length:
        chunk = min(buffer_words, length - moved)
        handle = yield ArmFirePrefetch(
            length=chunk,
            stride=stride,
            start_address=start_address + moved * stride,
        )
        yield AwaitPrefetch(handle)
        ce.cache.install_block(start_address + moved * stride, chunk * abs(stride),
                               dirty=install_dirty)
        moved += chunk
