"""Thread count of the OpenBLAS library already loaded in this process."""

from __future__ import annotations

import ctypes

#: (setter, getter) symbols: numpy's bundled scipy-openblas, then a
#: system OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def blas_threads(n: int | None = None) -> int | None:
    """Set (when ``n`` is given) and return the loaded OpenBLAS's thread count.

    The library is found among the process's mapped files, so this acts on
    whichever OpenBLAS numpy actually loaded.  Returns ``None`` when none
    is loaded (another BLAS, or no ``/proc``); nothing is changed then.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping whose file was replaced on disk
            continue
        for setter, getter in _SYMBOLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                if n is not None:
                    getattr(lib, setter)(int(n))
                return int(getattr(lib, getter)())
    return None
