"""Kernel lane selection: compiled scan when built, pure Python otherwise.

The compiled lane additionally bails out (OverflowError) on inputs whose
scaled entropies could overflow int64 cross-products; the dispatcher then
reruns the pure lane, which uses arbitrary-precision integers, and logs
that it did.
"""

from __future__ import annotations

import logging
from typing import Sequence

from . import _kernel_pure
from .errors import SkaError

try:
    from . import _kernel_fast  # type: ignore[attr-defined]
except ImportError:  # extension not built; pure lane only
    _kernel_fast = None

log = logging.getLogger(__name__)


def has_fast_lane() -> bool:
    return _kernel_fast is not None


def default_backend() -> str:
    return "fast" if _kernel_fast is not None else "pure"


def available_backends() -> tuple[str, ...]:
    return ("pure", "fast") if _kernel_fast is not None else ("pure",)


def minimize_over_partitions(n: int, ent: Sequence[int], backend: str | None = None):
    """Dispatch to the selected lane; see ``_kernel_pure`` for the contract."""
    if backend is None:
        backend = default_backend()
    if backend == "pure":
        return _kernel_pure.minimize_over_partitions(n, ent)
    if backend == "fast":
        if _kernel_fast is None:
            raise SkaError("compiled kernel is not available; build with setup.py build_ext --inplace")
        try:
            return _kernel_fast.minimize_over_partitions(n, ent)
        except OverflowError:
            log.info(
                "compiled lane overflowed on n=%d; rerunning the scan on the pure lane", n
            )
            return _kernel_pure.minimize_over_partitions(n, ent)
    raise SkaError(f"unknown kernel backend {backend!r}")
