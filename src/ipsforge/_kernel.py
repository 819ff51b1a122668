"""The arithmetic kernel that every module reads F_p[t] vector operations from.

A plain re-export of the pure-Python ``_gfcore_py``. Callers look the
functions up on this module at call time, so a profiler or counter can wrap
them here without seeing the kernel's own internal calls.
"""

from ipsforge._gfcore_py import (cell_bytes, pack, unpack, vadd, vsub, vneg, vsmul, vmul,
                                 vpow, vinv, vinv_cells)


def kernel_backend() -> str:
    """Name of the kernel backend; there is one, ``python``."""
    return "python"
