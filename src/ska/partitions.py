"""Set partitions of the ground set, as :func:`ska.mmi` reports them.

A partition is a tuple of disjoint block bitmasks covering the ground set,
kept in canonical order (ascending minimum element), so equality and hashing
are syntactic. The one walk over all partitions is the scan in
:mod:`ska.kernel`. ``Partition(users, blocks)`` checks and sorts its
blocks; :func:`ska.mmi` builds the scan's minimisers, which are canonical
already, through the unchecked ``Partition._from_canonical``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GroundSetMismatchError, SkaError
from .source_model import UserSet


def bit_positions(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class Partition:
    users: UserSet
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        blocks = tuple(int(b) for b in self.blocks)
        if not blocks:
            raise SkaError("a partition needs at least one block")
        full = self.users.full_mask
        union = 0
        for b in blocks:
            if b <= 0 or b > full:
                raise SkaError(f"invalid block mask {b:#x}")
            if union & b:
                raise SkaError("partition blocks overlap")
            union |= b
        if union != full:
            raise SkaError("partition blocks do not cover the ground set")
        # Disjoint blocks have distinct least set bits; sorting by them puts
        # the blocks in ascending-minimum-element order.
        blocks = tuple(sorted(blocks, key=lambda m: m & -m))
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def _from_canonical(cls, users: UserSet, blocks: tuple[int, ...]) -> "Partition":
        """A partition from blocks that are already disjoint, covering and in
        canonical order, as the scan in :mod:`ska.kernel` emits them; the
        checks of ``__post_init__`` are skipped."""
        partition = object.__new__(cls)
        object.__setattr__(partition, "users", users)
        object.__setattr__(partition, "blocks", blocks)
        return partition

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def label_blocks(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.users.labels_of(b) for b in self.blocks)

    def refines(self, other: "Partition") -> bool:
        """True when every block of this partition sits inside a block of
        the other (the finer-than partial order, non-strict)."""
        self._require_same_ground(other)
        return all(any(b & ~q == 0 for q in other.blocks) for b in self.blocks)

    def _require_same_ground(self, other: "Partition") -> None:
        if self.users != other.users:
            raise GroundSetMismatchError("partitions are over different ground sets")

    def to_json(self) -> list:
        return [list(block) for block in self.label_blocks()]

    def __str__(self) -> str:
        return " | ".join(",".join(block) for block in self.label_blocks())
