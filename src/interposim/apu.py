"""Address Protection Unit table: region -> per-chiplet permission lookup.

The physical address space is split into equally sized regions (64 x 64
MiB in the baseline).  Each table entry holds a 2-bit permission per
chiplet slot; a table serializes to exactly 2 * 8 * n_regions bits (1024
bits for the 64-region baseline).  Tables are immutable snapshots: the
privileged update path produces a new snapshot that the harness applies
at a simulated cycle boundary, keeping every router-local replica
bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

from .messages import ADDRESS_LIMIT, ADDRESS_SPACE_BITS

CHIPLET_SLOTS = 8
ENTRY_BITS = 2 * CHIPLET_SLOTS

DEFAULT_REGIONS = 64
DEFAULT_REGION_SHIFT = ADDRESS_SPACE_BITS - 6  # 64 regions of 64 MiB in 4 GiB


class ApuError(Exception):
    """Configuration or deserialization error in the permission table."""


class AddressOutOfRange(ApuError):
    """Address falls outside the protected physical address space."""


class Permission(IntEnum):
    """2-bit permission code; 0b10 is unused and never constructed."""

    NO_ACCESS = 0b00
    READ_ONLY = 0b01
    READ_WRITE = 0b11

    @classmethod
    def from_code(cls, code: int) -> "Permission":
        if code == 0b10:
            raise ApuError("permission encoding 0b10 is unused")
        return cls(code)

    @property
    def rank(self) -> int:
        """Position in the NO_ACCESS < READ_ONLY < READ_WRITE ordering."""
        return {0b00: 0, 0b01: 1, 0b11: 2}[self.value]

    def covers(self, required: "Permission") -> bool:
        return self.rank >= required.rank

    @property
    def allows_read(self) -> bool:
        return self.rank >= 1

    @property
    def allows_write(self) -> bool:
        return self is Permission.READ_WRITE


_PERM_TEXT = {
    Permission.NO_ACCESS: "--",
    Permission.READ_ONLY: "RO",
    Permission.READ_WRITE: "RW",
}
_TEXT_PERM = {v: k for k, v in _PERM_TEXT.items()}


@dataclass(frozen=True)
class ApuEntry:
    """Per-region permissions: one 2-bit cell per chiplet slot."""

    perms: tuple[Permission, ...]

    def __post_init__(self):
        if len(self.perms) != CHIPLET_SLOTS:
            raise ApuError(f"entry must have exactly {CHIPLET_SLOTS} cells")
        for p in self.perms:
            if not isinstance(p, Permission):
                raise ApuError(f"invalid permission cell {p!r}")

    @classmethod
    def uniform(cls, perm: Permission) -> "ApuEntry":
        return cls((perm,) * CHIPLET_SLOTS)

    @classmethod
    def grants(cls, granted: dict[int, Permission]) -> "ApuEntry":
        perms = [Permission.NO_ACCESS] * CHIPLET_SLOTS
        for chiplet, perm in granted.items():
            perms[chiplet] = perm
        return cls(tuple(perms))

    @classmethod
    def from_text(cls, text: str) -> "ApuEntry":
        cells = [c.strip() for c in text.split(",")]
        if len(cells) != CHIPLET_SLOTS:
            raise ApuError(f"entry text needs {CHIPLET_SLOTS} cells: {text!r}")
        try:
            return cls(tuple(_TEXT_PERM[c] for c in cells))
        except KeyError as exc:
            raise ApuError(f"unknown permission token {exc.args[0]!r}") from None

    def to_text(self) -> str:
        return ",".join(_PERM_TEXT[p] for p in self.perms)

    def permission_of(self, chiplet: int) -> Permission:
        if not 0 <= chiplet < CHIPLET_SLOTS:
            raise ApuError(f"chiplet id {chiplet} out of range 0-{CHIPLET_SLOTS - 1}")
        return self.perms[chiplet]

    def pack(self) -> int:
        word = 0
        for i, p in enumerate(self.perms):
            word |= p.value << (2 * i)
        return word

    @classmethod
    def unpack(cls, word: int) -> "ApuEntry":
        return cls(
            tuple(Permission.from_code((word >> (2 * i)) & 0b11) for i in range(CHIPLET_SLOTS))
        )


class TableView(NamedTuple):
    """A snapshot compiled for the checkers: the address limit clipped to
    the address space, the region shift, and per region one 2-bit
    permission code per chiplet slot."""

    limit: int
    shift: int
    cells: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ApuTable:
    """Direct-mapped permission table, one entry per memory region.

    ``view`` is computed once per snapshot; a privileged update makes a
    new snapshot and so a new view.
    """

    entries: tuple[ApuEntry, ...]
    region_shift: int = DEFAULT_REGION_SHIFT

    def __post_init__(self):
        if not self.entries:
            raise ApuError("table needs at least one region entry")
        if self.region_shift < 0:
            raise ApuError(f"region shift {self.region_shift} is negative")

    @property
    def n_regions(self) -> int:
        return len(self.entries)

    @property
    def address_limit(self) -> int:
        return self.n_regions << self.region_shift

    @property
    def bit_length(self) -> int:
        return ENTRY_BITS * self.n_regions

    @cached_property
    def view(self) -> TableView:
        return TableView(
            min(ADDRESS_LIMIT, self.address_limit),
            self.region_shift,
            tuple(tuple(p.value for p in entry.perms) for entry in self.entries),
        )

    @classmethod
    def uniform(
        cls,
        perm: Permission,
        n_regions: int = DEFAULT_REGIONS,
        region_shift: int = DEFAULT_REGION_SHIFT,
    ) -> "ApuTable":
        return cls((ApuEntry.uniform(perm),) * n_regions, region_shift)

    def region_of(self, address: int) -> int:
        """Region index = upper address bits; flags out-of-range addresses."""
        if not 0 <= address < self.address_limit:
            raise AddressOutOfRange(
                f"address {address:#x} outside protected range 0..{self.address_limit:#x}"
            )
        return address >> self.region_shift

    def lookup(self, address: int) -> tuple[int, ApuEntry]:
        region = self.region_of(address)
        return region, self.entries[region]

    def permission(self, address: int, chiplet: int) -> Permission:
        _, entry = self.lookup(address)
        return entry.permission_of(chiplet)

    def privileged_update(
        self, region: int, chiplet: int, perm: Permission
    ) -> "ApuTable":
        """New snapshot with a single cell changed.

        Only reachable through the harness's privileged channel; an update
        attempt arriving as a NoC packet is caught by the SNIs instead.
        """
        if not 0 <= region < self.n_regions:
            raise ApuError(f"region {region} out of range 0-{self.n_regions - 1}")
        if not 0 <= chiplet < CHIPLET_SLOTS:
            raise ApuError(f"chiplet {chiplet} out of range 0-{CHIPLET_SLOTS - 1}")
        entry = self.entries[region]
        perms = list(entry.perms)
        perms[chiplet] = perm
        entries = list(self.entries)
        entries[region] = ApuEntry(tuple(perms))
        return ApuTable(tuple(entries), self.region_shift)

    def serialize(self) -> bytes:
        """Packed little-endian image; 64 regions -> exactly 1024 bits."""
        word = 0
        for i, entry in enumerate(self.entries):
            word |= entry.pack() << (ENTRY_BITS * i)
        return word.to_bytes(self.bit_length // 8, "little")

    @classmethod
    def deserialize(
        cls, blob: bytes, n_regions: int = DEFAULT_REGIONS,
        region_shift: int = DEFAULT_REGION_SHIFT,
    ) -> "ApuTable":
        expected = ENTRY_BITS * n_regions // 8
        if len(blob) != expected:
            raise ApuError(f"blob is {len(blob)} bytes, expected {expected}")
        word = int.from_bytes(blob, "little")
        mask = (1 << ENTRY_BITS) - 1
        entries = tuple(
            ApuEntry.unpack((word >> (ENTRY_BITS * i)) & mask) for i in range(n_regions)
        )
        return cls(entries, region_shift)

    def to_map_text(self) -> str:
        lines = [f"regions {self.n_regions}", f"shift {self.region_shift}"]
        for i, entry in enumerate(self.entries):
            lines.append(f"region {i} = {entry.to_text()}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_map_text(cls, text: str) -> "ApuTable":
        """Parse the key-value permission map format (see docs/file_formats.md)."""
        n_regions = DEFAULT_REGIONS
        region_shift = DEFAULT_REGION_SHIFT
        default_entry = ApuEntry.uniform(Permission.NO_ACCESS)
        explicit: dict[int, ApuEntry] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                if line.startswith("regions "):
                    n_regions = int(line.split()[1])
                elif line.startswith("shift "):
                    region_shift = int(line.split()[1])
                elif line.startswith("default"):
                    default_entry = ApuEntry.from_text(line.split("=", 1)[1])
                elif line.startswith("region "):
                    head, cells = line.split("=", 1)
                    region = int(head.split()[1])
                    explicit[region] = ApuEntry.from_text(cells)
                else:
                    raise ApuError(f"unrecognized directive: {line!r}")
            except (IndexError, ValueError) as exc:
                raise ApuError(f"line {lineno}: {exc}") from None
        for region in explicit:
            if not 0 <= region < n_regions:
                raise ApuError(f"region {region} out of range 0-{n_regions - 1}")
        entries = tuple(explicit.get(i, default_entry) for i in range(n_regions))
        return cls(entries, region_shift)
