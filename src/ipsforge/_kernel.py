"""The arithmetic kernel that every module reads field operations from.

A plain re-export of the pure-Python ``_gfcore_py``, whose functions take
and return elements in the stored form. Callers look the functions up on
this module at call time, so a profiler or counter can wrap them here
without seeing the kernel's own internal calls.
"""

from ipsforge._gfcore_py import (barrett_slots, cell_bytes, codec, pack, slot_bytes,
                                 unpack, stored_form, vadd, vsub, vneg, vmul, vmul_cells,
                                 vpow, vinv, vinv_cells)


def kernel_backend() -> str:
    """Name of the kernel backend; there is one, ``python``."""
    return "python"
