"""Multi-UAV sensing, communication and edge computing, trained with MAPPO.

On glibc, importing any part of the package keeps freed heap pages in the
process: the next channel draw or minibatch graph reuses them instead of
mapping and faulting in its large buffers afresh.
"""

import ctypes
import platform


def _retain_heap() -> None:
    """Set both malloc thresholds: setting either one turns glibc's dynamic ones off."""
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD: blocks below 32 MiB come from the heap
        mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD: return the heap top only past 64 MiB


_retain_heap()
