"""Bloom collection kinds.

Bloom's type system distinguishes collections by persistence and transport
(paper Section VII-B1) — the distinction the white-box analysis uses to
decide statefulness:

==================  ==========  =====================================
kind                persistent  role
==================  ==========  =====================================
``table``           yes         stored state (survives timesteps)
``scratch``         no          recomputed every timestep
``channel``         no          asynchronous network delivery
``input_interface``  no         module ingress (maps to dataflow input)
``output_interface`` no         module egress (maps to dataflow output)
==================  ==========  =====================================

A channel's first column is its *location specifier* (written ``@addr`` in
Bloom): the name of the node the tuple is delivered to.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable

from repro.errors import BloomError

__all__ = ["CollectionKind", "CollectionDecl"]

import enum


class CollectionKind(enum.Enum):
    TABLE = "table"
    SCRATCH = "scratch"
    CHANNEL = "channel"
    INPUT = "input_interface"
    OUTPUT = "output_interface"


@dataclasses.dataclass(frozen=True)
class CollectionDecl:
    """A declared collection: name, kind, and column schema."""

    name: str
    kind: CollectionKind
    schema: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise BloomError("collections require a non-empty name")
        if not self.schema:
            raise BloomError(f"collection {self.name!r} requires columns")
        if len(set(self.schema)) != len(self.schema):
            raise BloomError(f"collection {self.name!r} has duplicate columns")
        if self.kind is CollectionKind.CHANNEL and not self.schema[0].startswith("@"):
            raise BloomError(
                f"channel {self.name!r}: first column must be the location "
                f"specifier (prefix it with '@')"
            )

    @property
    def persistent(self) -> bool:
        """True for tables: contents survive across timesteps."""
        return self.kind is CollectionKind.TABLE

    @property
    def transient(self) -> bool:
        return not self.persistent

    @property
    def columns(self) -> tuple[str, ...]:
        """Schema with the location-specifier marker stripped."""
        return tuple(c.lstrip("@") for c in self.schema)

    @property
    def address_column(self) -> str | None:
        """The location-specifier column of a channel, if any."""
        if self.kind is CollectionKind.CHANNEL:
            return self.schema[0].lstrip("@")
        return None

    def check_arity(self, row: Iterable) -> tuple:
        values = tuple(row)
        if len(values) != len(self.schema):
            raise BloomError(
                f"collection {self.name!r} expects {len(self.schema)} columns "
                f"{self.columns}, got {values!r}"
            )
        return values

    def check_rows(self, rows: Iterable[Iterable]) -> list[tuple]:
        """:meth:`check_arity` for a whole batch: one length check.

        Rows convert to tuples (JSON-decoded rows arrive as lists); on a
        mismatch the first bad row raises :meth:`check_arity`'s error.
        """
        values = list(map(tuple, rows))
        if set(map(len, values)) != {len(self.schema)}:
            for row in values:
                self.check_arity(row)
        return values
