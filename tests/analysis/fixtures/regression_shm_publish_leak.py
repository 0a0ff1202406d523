"""The shared-memory publish leak of the pre-fault-tolerance broadcast.

This mirrors ``repro.engine.broadcast.publish`` as it stood before the
fault-tolerance PR fixed it: the segment was created and populated
*before* any owner knew about it, so an ``np.ndarray`` construction or
view copy that raised mid-loop stranded the ``/dev/shm`` segment until
interpreter exit. The fixed shape (see
``regression_shm_publish_fixed.py``) registers the segment in the
module registry immediately after creation.
"""

import numpy as np
from multiprocessing import shared_memory

_PUBLISHED = {}


def publish(arrays):
    total = sum(array.nbytes for array in arrays)
    segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
    specs = []
    offset = 0
    for array in arrays:
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=segment.buf, offset=offset
        )
        view[...] = array
        specs.append((offset, array.shape, array.dtype.str))
        offset += array.nbytes
    handle = {"segment_name": segment.name, "specs": tuple(specs)}
    _PUBLISHED[segment.name] = segment
    return handle, segment, total
