"""Traced memory of one call, for the tests that bound a routine's peak."""

import tracemalloc


def traced_call(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` under tracemalloc: its result, the bytes it
    kept and the peak bytes it held, both above what was traced at the call.
    tracemalloc sees numpy's array buffers but not memory that a library
    allocates outside Python's hooks."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        kept, peak = (b - start for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return result, kept, peak
