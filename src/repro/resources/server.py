"""Server model: capacity limits per attribute plus CPU count.

The placement objective (Section VI-B) needs the number of CPUs ``Z`` of a
server — ``f(U) = U^(2Z)`` lets servers with more CPUs run at higher
utilization — and the capacity limit ``L`` per capacity attribute for the
required-capacity search. The paper's case study uses homogeneous 16-way
servers, but the model is parametric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.exceptions import CapacityError

CPU_ATTRIBUTE = "cpu"


@dataclass(frozen=True)
class ServerSpec:
    """One server in the pool.

    Parameters
    ----------
    name:
        Unique server identifier within a pool.
    cpus:
        Number of CPUs (``Z``); drives the utilization term of the
        placement objective.
    attributes:
        Capacity limit per attribute. If the ``cpu`` attribute is omitted
        it defaults to ``cpus`` (each CPU contributes one unit of CPU
        capacity).
    rack / zone:
        Optional failure-domain labels (server → rack → zone). Servers
        sharing a label fail together in domain-scoped what-ifs; an
        unlabeled server is its own singleton domain, so flat pools
        behave exactly as before the topology existed.

    >>> ServerSpec("s0", cpus=16).capacity_of("cpu")
    16.0
    """

    name: str
    cpus: int
    attributes: Mapping[str, float] = field(default_factory=dict)
    rack: str | None = None
    zone: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CapacityError("server name must not be empty")
        if self.cpus < 1:
            raise CapacityError(f"server {self.name!r}: cpus must be >= 1, got {self.cpus}")
        merged = dict(self.attributes)
        merged.setdefault(CPU_ATTRIBUTE, float(self.cpus))
        for attribute, limit in merged.items():
            if limit <= 0:
                raise CapacityError(
                    f"server {self.name!r}: capacity of {attribute!r} must be "
                    f"> 0, got {limit}"
                )
        for kind in ("rack", "zone"):
            label = getattr(self, kind)
            if label is not None and not label:
                raise CapacityError(
                    f"server {self.name!r}: {kind} label must be None or "
                    "non-empty"
                )
        object.__setattr__(self, "attributes", MappingProxyType(merged))

    def capacity_of(self, attribute: str) -> float:
        """Capacity limit ``L`` for one attribute."""
        try:
            return float(self.attributes[attribute])
        except KeyError:
            raise CapacityError(
                f"server {self.name!r} has no capacity attribute {attribute!r}"
            ) from None

    def has_attribute(self, attribute: str) -> bool:
        return attribute in self.attributes

    def scaled(self, factor: float) -> "ServerSpec":
        """A degraded copy: every capacity limit multiplied by ``factor``.

        Models a server that survives a fault in reduced condition (a
        failed DIMM bank, a throttled socket): same identity, same CPU
        count ``Z`` for the objective's utilization exponent, but every
        capacity limit scaled down. ``factor`` must be in ``(0, 1]``.
        """
        if not 0.0 < factor <= 1.0:
            raise CapacityError(
                f"server {self.name!r}: degraded capacity factor must be in "
                f"(0, 1], got {factor}"
            )
        return ServerSpec(
            self.name,
            self.cpus,
            {
                attribute: limit * factor
                for attribute, limit in self.attributes.items()
            },
            rack=self.rack,
            zone=self.zone,
        )

    def __reduce__(self):
        # The frozen attributes mapping is a MappingProxyType, which does
        # not pickle; rebuild from plain data so specs can cross process
        # boundaries (shard planning ships server specs to workers).
        return (
            ServerSpec,
            (self.name, self.cpus, dict(self.attributes), self.rack, self.zone),
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.name,
                self.cpus,
                tuple(sorted(self.attributes.items())),
                self.rack,
                self.zone,
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServerSpec):
            return NotImplemented
        return (
            self.name == other.name
            and self.cpus == other.cpus
            and dict(self.attributes) == dict(other.attributes)
            and self.rack == other.rack
            and self.zone == other.zone
        )


def homogeneous_servers(
    count: int,
    cpus: int = 16,
    prefix: str = "server",
    racks: int | None = None,
    zones: int | None = None,
) -> list[ServerSpec]:
    """Build ``count`` identical servers, named ``prefix-00`` onward.

    ``racks``/``zones`` spread the servers over that many contiguous,
    balanced failure domains (``rack-00`` ..., ``zone-00`` ...); left as
    ``None`` the servers stay unlabeled — a flat pool, exactly as before
    topology existed.

    >>> [server.rack for server in homogeneous_servers(4, racks=2)]
    ['rack-00', 'rack-00', 'rack-01', 'rack-01']
    """
    if count < 0:
        raise CapacityError(f"count must be >= 0, got {count}")
    for kind, n_domains in (("racks", racks), ("zones", zones)):
        if n_domains is not None and not 1 <= n_domains <= max(count, 1):
            raise CapacityError(
                f"{kind} must be in [1, {max(count, 1)}], got {n_domains}"
            )
    servers = []
    for index in range(count):
        rack = None if racks is None else f"rack-{index * racks // count:02d}"
        zone = None if zones is None else f"zone-{index * zones // count:02d}"
        servers.append(
            ServerSpec(f"{prefix}-{index:02d}", cpus=cpus, rack=rack, zone=zone)
        )
    return servers
