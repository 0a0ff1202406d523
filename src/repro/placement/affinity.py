"""Anti-affinity placement constraints over failure domains.

A failure-aware placement must not let a workload's CoS1 capacity and
its failover target ride the same rack: the single fault the failure
tier plans for would then take out both at once, and the carefully
sized failure-mode plan would start from a hole. The constraint model
here is deliberately small:

* a :class:`PlacementConstraints` carries *anti-affinity groups* —
  sets of workload names that must not share a failure domain (e.g. a
  workload and its failover standby, or the replicas of one service);
* during the genetic search, co-located group pairs are *priced* into
  the objective (see :func:`repro.placement.objective.affinity_penalty`)
  so the search is steered away from violating assignments without
  ever declaring them infeasible — capacity feasibility stays a hard
  constraint, anti-affinity a soft one;
* after any search — the monolithic consolidator's, and the
  hierarchical tier's merged shard plans, where co-locations can
  reappear across shards — one pass, :func:`enforce_constraints`,
  counts the violations, repairs them through
  :func:`repair_assignment` (which deterministically migrates surplus
  group members to feasible servers in unoccupied domains) and counts
  what it moved and what it could not separate, under one
  ``placement.affinity_*`` counter family.

Domains come from the pool topology
(:class:`~repro.resources.server.ServerSpec` rack/zone labels); an
unlabeled server is its own singleton domain, so constraints degrade
gracefully on flat pools — every server is a distinct domain and only
same-server co-location is penalised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.engine.instrumentation import Instrumentation
from repro.exceptions import PlacementError
from repro.placement.objective import affinity_penalty
from repro.resources.pool import DOMAIN_KINDS
from repro.resources.server import ServerSpec


def domain_of(server: ServerSpec, kind: str = "rack") -> str:
    """The server's failure-domain label at one granularity.

    Unlabeled servers fall back to their own name (a singleton domain),
    mirroring :meth:`~repro.resources.pool.ResourcePool.domains`.
    """
    if kind not in DOMAIN_KINDS:
        raise PlacementError(
            f"domain kind must be one of {DOMAIN_KINDS}, got {kind!r}"
        )
    if kind == "server":
        return server.name
    label = getattr(server, kind)
    return label if label is not None else server.name


@dataclass(frozen=True)
class PlacementConstraints:
    """Soft placement constraints for the consolidation search.

    ``anti_affinity`` holds groups of workload names whose members must
    land in pairwise-distinct failure domains of ``domain`` granularity.
    ``penalty_weight`` prices each co-located pair into the objective —
    it should exceed ``1.0`` (the reward for freeing a server) so the
    search never trades a violation for an emptied server.
    """

    anti_affinity: tuple[tuple[str, ...], ...] = ()
    domain: str = "rack"
    penalty_weight: float = 2.0

    def __post_init__(self) -> None:
        groups = tuple(
            tuple(str(name) for name in group)
            for group in self.anti_affinity
        )
        object.__setattr__(self, "anti_affinity", groups)
        if self.domain not in DOMAIN_KINDS:
            raise PlacementError(
                f"constraint domain must be one of {DOMAIN_KINDS}, "
                f"got {self.domain!r}"
            )
        if self.penalty_weight <= 0.0:
            raise PlacementError(
                f"penalty_weight must be > 0, got {self.penalty_weight}"
            )
        for group in groups:
            if len(group) < 2:
                raise PlacementError(
                    f"anti-affinity group {group!r} needs at least two "
                    "workloads"
                )
            if len(set(group)) != len(group):
                raise PlacementError(
                    f"anti-affinity group {group!r} repeats a workload"
                )

    @property
    def enabled(self) -> bool:
        return bool(self.anti_affinity)


@dataclass(frozen=True)
class AffinityViolation:
    """One domain hosting more than one member of one group."""

    group: tuple[str, ...]
    domain: str
    workloads: tuple[str, ...]


def find_violations(
    assignment: Mapping[str, Sequence[str]],
    constraints: PlacementConstraints,
    pool,
) -> tuple[AffinityViolation, ...]:
    """Co-location violations in a named server → workloads assignment."""
    domain_of_workload: dict[str, str] = {}
    for server_name, names in assignment.items():
        label = domain_of(pool[server_name], constraints.domain)
        for name in names:
            domain_of_workload[name] = label
    violations = []
    for group in constraints.anti_affinity:
        by_domain: dict[str, list[str]] = {}
        for name in group:
            label = domain_of_workload.get(name)
            if label is not None:
                by_domain.setdefault(label, []).append(name)
        for label in sorted(by_domain):
            members = by_domain[label]
            if len(members) > 1:
                violations.append(
                    AffinityViolation(
                        group=group,
                        domain=label,
                        workloads=tuple(members),
                    )
                )
    return tuple(violations)


class ConstraintIndex:
    """Constraints compiled against one evaluator's workload order.

    Precomputes workload rows per group and each server index's domain
    label so the genetic search's per-assignment penalty is a couple of
    dictionary passes, not string lookups. Groups referencing unknown
    workloads keep their known members (a constraint spanning ensembles
    — e.g. a shard seeing only part of a group — still binds the part
    it can see); groups with fewer than two known members drop out.
    """

    def __init__(
        self,
        constraints: PlacementConstraints,
        names: Sequence[str],
        servers: Sequence[ServerSpec],
    ):
        self.constraints = constraints
        self.weight = constraints.penalty_weight
        row_of = {name: row for row, name in enumerate(names)}
        self.groups: tuple[tuple[int, ...], ...] = tuple(
            rows
            for group in constraints.anti_affinity
            if len(
                rows := tuple(
                    row_of[name] for name in group if name in row_of
                )
            )
            >= 2
        )
        self.domains: tuple[str, ...] = tuple(
            domain_of(server, constraints.domain) for server in servers
        )

    def pair_count(self, assignment: Sequence[int]) -> int:
        """Co-located pairs across all groups (0 = no violations)."""
        total = 0
        for rows in self.groups:
            counts: dict[str, int] = {}
            for row in rows:
                label = self.domains[assignment[row]]
                counts[label] = counts.get(label, 0) + 1
            total += sum(count * (count - 1) // 2 for count in counts.values())
        return total

    def penalty(self, assignment: Sequence[int]) -> float:
        """The assignment's objective price (0.0 when clean)."""
        pairs = self.pair_count(assignment)
        if pairs == 0:
            return 0.0
        return affinity_penalty(pairs, self.weight)


def repair_assignment(
    assignment: Sequence[int],
    evaluator,
    servers: Sequence[ServerSpec],
    constraints: PlacementConstraints,
    attribute: str = "cpu",
) -> tuple[tuple[int, ...], int]:
    """Migrate surplus group members out of shared domains.

    For every anti-affinity group, the first member (workload order) in
    each over-occupied domain stays put; later members move to the
    first server — pool order, so the repair is deterministic — in a
    domain no group member occupies, provided both the receiving
    server's grown workload set *and* the donor server's shrunk set
    still fit (required capacity is not monotone in the workload
    subset, so the donor is re-checked rather than assumed safe). A
    member with no feasible escape stays where it is; the caller reads
    the remaining :meth:`ConstraintIndex.pair_count` to report
    unrepaired violations.

    Returns the (possibly unchanged) assignment and the number of
    workloads moved.
    """
    index = ConstraintIndex(constraints, evaluator.names, servers)
    current = list(int(server_index) for server_index in assignment)
    moves = 0
    for rows in index.groups:
        by_domain: dict[str, list[int]] = {}
        for row in rows:
            by_domain.setdefault(index.domains[current[row]], []).append(row)
        offenders = [
            row
            for label in by_domain
            for row in by_domain[label][1:]
        ]
        for row in sorted(offenders):
            occupied = {
                index.domains[current[other]]
                for other in rows
                if other != row
            }
            source = current[row]
            donor_group = [
                other
                for other, assigned in enumerate(current)
                if assigned == source and other != row
            ]
            for server_index, server in enumerate(servers):
                if index.domains[server_index] in occupied:
                    continue
                if server_index == source:
                    continue
                target_group = [
                    other
                    for other, assigned in enumerate(current)
                    if assigned == server_index
                ] + [row]
                if not evaluator.evaluate_group(
                    target_group, server, attribute
                ).fits:
                    continue
                if donor_group and not evaluator.evaluate_group(
                    donor_group, servers[source], attribute
                ).fits:
                    break
                current[row] = server_index
                moves += 1
                break
    return tuple(current), moves


def enforce_constraints(
    assignment: Sequence[int],
    evaluator,
    servers: Sequence[ServerSpec],
    constraints: PlacementConstraints,
    attribute: str,
    instrumentation: Instrumentation,
) -> tuple[Sequence[int], int]:
    """The anti-affinity pass over a finished assignment.

    Counts the co-located pairs (``placement.affinity_violations``),
    repairs them with :func:`repair_assignment`
    (``placement.affinity_repairs``: workloads moved) and counts the
    pairs left unseparated (``placement.affinity_unrepaired``). All
    three counters report on every pass, zeros included, so counter
    deltas stay comparable across runs. Returns the assignment —
    unchanged when there was nothing to repair — and the moves.
    """
    index = ConstraintIndex(constraints, evaluator.names, servers)
    violations = index.pair_count(assignment)
    instrumentation.count("placement.affinity_violations", violations)
    moves = 0
    if violations:
        assignment, moves = repair_assignment(
            assignment, evaluator, servers, constraints, attribute
        )
    instrumentation.count("placement.affinity_repairs", moves)
    remaining = index.pair_count(assignment) if violations else 0
    instrumentation.count("placement.affinity_unrepaired", remaining)
    return assignment, moves


__all__ = [
    "AffinityViolation",
    "ConstraintIndex",
    "PlacementConstraints",
    "domain_of",
    "enforce_constraints",
    "find_violations",
    "repair_assignment",
]
