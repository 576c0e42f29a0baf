"""Peak traced memory of one call, shared by the kernel memory tests."""

import tracemalloc


def traced_peak(call, *args):
    """Peak bytes that tracemalloc (numpy reports its buffers to it) sees
    while call(*args) runs; build the arguments before, so they are not
    counted."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
