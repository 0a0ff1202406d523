"""The traced run: where one plan's time goes, layer by layer.

Nothing under ``src/`` carries a span. The pipeline is composed here, by
hand, from the same public calls :meth:`ROpus.plan` makes, with a span
around each; the resulting ``plan_hash`` must equal the untraced plan's,
so the trace measures the same program. Below ``consolidate`` and the
kernels the trace records *probes*: each public function called cold on
the inputs the pipeline gives it. The calls ``consolidate`` makes are
probed :data:`PROBE_ROUNDS` times and report their fastest call, like
the plan itself; the kernel and engine probes run once.

Spans stay in memory until the run ends and are then written as JSONL.
A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from multiprocessing import resource_tracker
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

import workloads
from compare import quartiles
from harness import PlanLedger, metric
from repro.core.framework import CapacityPlan
from repro.engine import ExecutionEngine, Instrumentation, split_chunks
from repro.placement.clustering import demand_shape_features
from repro.placement.consolidation import Consolidator
from repro.placement.correlation import correlation_aware_seed
from repro.placement.evaluation import (
    PlacementEvaluator,
    evaluate_groups_worker,
)
from repro.placement.failure import FailurePlanner
from repro.placement.genetic import GeneticPlacementSearch
from repro.placement.greedy import best_fit_decreasing, first_fit_decreasing
from repro.placement.sharding import HierarchicalPlanner
from repro.placement.simulator import SingleServerSimulator
from repro.resources.pool import ResourcePool

#: Rounds of the consolidation probes; one sample of a 0.2-3 s call moves
#: by 20 % on this machine, and probe_cover is a ratio of two of them.
PROBE_ROUNDS = 3
#: Groups in the seeded GA-shaped batch every kernel probe solves.
GENERATION_ROWS = 48
#: ``SingleServerSimulator.evaluate`` calls the per-call probe takes a median over.
SIMULATOR_CALLS = 21

#: Kernel probes: evaluator kernel -> span name.
KERNEL_PROBES = {
    "batch": "kernels.generation_solve",
    "fused": "fused.generation_solve",
    "analytic": "analytic.generation_solve",
    "scalar": "simulator.generation_solve",
}


class Tracer:
    """Spans of one workload's traced run, kept in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict[str, object]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, kind: str = "pipeline") -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "kind": kind,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self, name: str) -> float:
        """Summed self time of every span called ``name`` (0 if none ran)."""
        total = 0.0
        for span in self.spans:
            if span["name"] != name:
                continue
            total += span["end"] - span["start"]
            total -= sum(
                child["end"] - child["start"]
                for child in self.spans
                if child["parent"] == span["id"]
            )
        return total

    def seconds(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(self._durations(name))

    def fastest_seconds(self, name: str) -> float:
        """Shortest span called ``name`` (0 if none ran); for repeated probes."""
        return min(self._durations(name), default=0.0)

    def _durations(self, name: str) -> list[float]:
        return [
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def traced_plan(
    spec: workloads.Workload,
    demands,
    policy,
    ensemble_seed: int,
    tracer: Tracer,
) -> tuple[CapacityPlan, object]:
    """``ROpus.plan`` composed by hand, one span per public call.

    Returns the plan and the sharded placement result (``None`` on the
    monolithic path), which names the shards the probes sample.
    """
    framework = workloads.build_framework(spec, ensemble_seed)
    engine = framework.engine
    knobs = dict(
        config=framework.search_config,
        tolerance=framework.tolerance,
        attribute=framework.attribute,
        engine=engine,
        kernel=framework.kernel,
    )
    sharded = None
    failure_report = None
    domain_reports = None
    with tracer.span("framework.plan"):
        with tracer.span("translation.normal"):
            translations = framework.translate(demands, policy)
        pairs = [result.pair for result in translations.values()]
        if framework.sharding_policy.enabled:
            planner = HierarchicalPlanner(
                framework.pool,
                framework.commitments.cos2,
                policy=framework.sharding_policy,
                constraints=framework.constraints,
                **knobs,
            )
            with tracer.span("clustering.features"):
                features = demand_shape_features(demands, translations)
            with tracer.span("clustering.cluster"):
                planner.cluster(pairs, features)
            with tracer.span("sharding.partition"):
                planner.partition()
            with tracer.span("sharding.place"):
                planner.place(None, "genetic")
            with tracer.span("sharding.refine"):
                sharded = planner.refine()
            consolidation = sharded.consolidation
        else:
            consolidator = Consolidator(
                framework.pool,
                framework.commitments.cos2,
                constraints=framework.constraints,
                **knobs,
            )
            with tracer.span("consolidation.consolidate"):
                consolidation = consolidator.consolidate(pairs, algorithm="genetic")
        if spec.plan_failures:
            sweeps = FailurePlanner(
                framework.translator,
                share_cache=framework.share_sweep_cache,
                **knobs,
            )
            with tracer.span("failure.server_sweep"):
                failure_report = sweeps.plan(
                    demands,
                    policy,
                    framework.pool,
                    consolidation,
                    relax_all=True,
                    algorithm="genetic",
                )
            sweep_policy = framework.failure_policy
            domain_reports = {}
            for scope in sweep_policy.scopes:
                with tracer.span(f"failure.{scope}_sweep"):
                    domain_reports[scope] = sweeps.plan_scope(
                        demands,
                        policy,
                        framework.pool,
                        consolidation,
                        scope=scope,
                        relax_all=True,
                        algorithm="genetic",
                        max_cases=sweep_policy.max_cases,
                        sample_seed=sweep_policy.sample_seed,
                        key_prefix=f"scope:{scope}",
                    )
        # The engine is fresh, so its totals are this plan's deltas.
        plan = CapacityPlan(
            translations=translations,
            consolidation=consolidation,
            failure_report=failure_report,
            timings=engine.instrumentation.timings(),
            counters=engine.instrumentation.counters(),
            sharding=None if sharded is None else sharded.summary(),
            domain_reports=domain_reports or None,
        )
        with tracer.span("framework.plan_hash"):
            plan.plan_hash()
    return plan, sharded


def consolidation_probes(
    tracer: Tracer, framework, pairs, pool: ResourcePool
) -> int:
    """One round: a whole ``consolidate``, then the calls it makes, a span each.

    The calls share one evaluator in the pipeline's order, as
    ``consolidate`` runs them, so each is timed on the cache state the
    pipeline gives it. Returns the generations the genetic search ran.
    """
    commitment = framework.commitments.cos2
    attribute = framework.attribute
    consolidator = Consolidator(
        pool,
        commitment,
        config=framework.search_config,
        tolerance=framework.tolerance,
        attribute=attribute,
        engine=ExecutionEngine.serial(),
        kernel=framework.kernel,
    )
    with tracer.span("consolidation.consolidate", "probe"):
        consolidator.consolidate(pairs, algorithm="genetic")
    engine = ExecutionEngine.serial()
    evaluator = PlacementEvaluator(
        pairs,
        commitment,
        tolerance=framework.tolerance,
        kernel=framework.kernel,
        instrumentation=engine.instrumentation,
    )
    with tracer.span("greedy.first_fit", "probe"):
        first_fit = first_fit_decreasing(evaluator, pool, attribute)
    with tracer.span("greedy.best_fit", "probe"):
        best_fit = best_fit_decreasing(evaluator, pool, attribute)
    with tracer.span("correlation.seed", "probe"):
        correlated = correlation_aware_seed(evaluator, pool, attribute)
    searcher = GeneticPlacementSearch(
        evaluator, pool, framework.search_config, attribute, engine=engine
    )
    with tracer.span("genetic.run", "probe"):
        search = searcher.run(first_fit, extra_seeds=[best_fit, correlated])
    return search.generations_run


@dataclass
class ProbeFacts:
    """What the probes report besides their spans; zeros if they never ran."""

    generations: int = 0
    shard_seconds: Sequence[float] = (0.0,)
    probe_rows: int = 0
    fused_rows: float = 0.0
    f32_retries: float = 0.0
    analytic_max_rel_diff: float = 0.0
    evaluate_us: float = 0.0
    broadcast_bytes: float = 0.0
    problems: Sequence[str] = ()


def kernel_probes(
    tracer: Tracer,
    framework,
    pairs,
    groups: Sequence[tuple[int, ...]],
    facts: ProbeFacts,
) -> None:
    """One cold ``evaluate_groups`` over the same batch per kernel.

    Records in ``facts`` the fused kernel's counts and every
    disagreement with the batch kernel: fused and scalar must match it
    bit for bit, analytic within the search tolerance.
    """
    items = [(float(workloads.SERVER_CPUS), group) for group in groups]
    solutions = {}
    problems = []
    for kernel, span_name in KERNEL_PROBES.items():
        instrumentation = Instrumentation()
        evaluator = PlacementEvaluator(
            pairs,
            framework.commitments.cos2,
            tolerance=framework.tolerance,
            kernel=kernel,
            instrumentation=instrumentation,
        )
        with tracer.span(span_name, "probe"):
            solutions[kernel] = evaluator.evaluate_groups(items)
        if kernel == "fused":
            counters = instrumentation.counters()
            facts.fused_rows = counters.get("kernel.fused_rows", 0.0)
            facts.f32_retries = counters.get("kernel.f32_retries", 0.0)
    for kernel, evaluations in solutions.items():
        for group, ours, batch in zip(groups, evaluations, solutions["batch"]):
            if ours.fits != batch.fits:
                problems.append(f"{kernel} kernel: fits differs on {group}")
            elif not batch.fits:
                continue
            elif kernel == "analytic":
                diff = abs(ours.required - batch.required)
                facts.analytic_max_rel_diff = max(
                    facts.analytic_max_rel_diff, diff / batch.required
                )
                if diff > framework.tolerance + 1e-9:
                    problems.append(
                        f"analytic kernel: {ours.required} vs batch "
                        f"{batch.required} on {group}"
                    )
            elif ours.required != batch.required:
                problems.append(
                    f"{kernel} kernel: {ours.required!r} != batch "
                    f"{batch.required!r} on {group}"
                )
    facts.problems = problems


def simulator_probe(pairs, group: Sequence[int]) -> float:
    """Median microseconds of one scalar ``SingleServerSimulator.evaluate``."""
    simulator = SingleServerSimulator.from_pairs([pairs[row] for row in group])
    capacity = max(simulator.cos1_peak, 1.0) * 1.5
    samples = []
    for _ in range(SIMULATOR_CALLS):
        start = time.perf_counter()
        simulator.evaluate(capacity)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def engine_probes(
    tracer: Tracer, framework, pairs, groups: Sequence[tuple[int, ...]]
) -> float:
    """The generation batch through a serial and a pooled session.

    The pooled span includes spawning and joining the workers: it is
    what a plan pays to go parallel. Returns the bytes broadcast. No
    process it started is alive when it returns.
    """
    payload = PlacementEvaluator(
        pairs,
        framework.commitments.cos2,
        tolerance=framework.tolerance,
        kernel=framework.kernel,
    ).worker_payload()
    workers = min(2, os.cpu_count() or 1)
    items = [(float(workloads.SERVER_CPUS), group, None) for group in groups]
    chunks = split_chunks(items, workers)
    with ExecutionEngine.serial() as engine:
        _map_batch(tracer, "engine.serial_map", engine, payload, chunks)
    try:
        with ExecutionEngine.with_workers(workers) as engine:
            _map_batch(tracer, "engine.pool_map", engine, payload, chunks)
            return engine.instrumentation.counters().get(
                "broadcast.bytes_shared", 0.0
            )
    finally:
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    The pooled session's broadcast creates a shared-memory segment, which
    makes multiprocessing start a tracker process that by design exits
    only once it sees this process gone, that is: after it. The engine
    has unlinked the segment by now, so the tracker has nothing left to
    watch. ``_stop`` closes its pipe and waits for it; there is no public
    call that does.
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def _map_batch(tracer: Tracer, span_name: str, engine, payload, chunks) -> None:
    with tracer.span(span_name, "probe"):
        with engine.session(payload) as session:
            session.map(evaluate_groups_worker, chunks)


def _largest_shard(sharded, pairs, pool: ResourcePool):
    """The pairs and sub-pool of the shard holding the most workloads."""
    index = max(
        range(sharded.shard_count),
        key=lambda shard: len(sharded.shard_workloads[shard]),
    )
    names = set(sharded.shard_workloads[index])
    return (
        [pair for pair in pairs if pair.name in names],
        ResourcePool(pool[name] for name in sharded.shard_servers[index]),
    )


def run_probes(
    tracer: Tracer,
    spec: workloads.Workload,
    demands,
    policy,
    plan: CapacityPlan,
    sharded,
    ensemble_seed: int,
) -> ProbeFacts:
    """Every probe, on the inputs the traced pipeline produced."""
    facts = ProbeFacts()
    framework = workloads.build_framework(spec, ensemble_seed)
    pairs = [result.pair for result in plan.translations.values()]
    if spec.plan_failures:
        with tracer.span("translation.failure", "probe"):
            framework.translate(demands, policy, failure_mode=True)
    probe_pairs, probe_pool = pairs, framework.pool
    if sharded is not None:
        facts.shard_seconds = sharded.shard_seconds
        probe_pairs, probe_pool = _largest_shard(sharded, pairs, framework.pool)
    for _ in range(PROBE_ROUNDS):
        facts.generations = consolidation_probes(
            tracer, framework, probe_pairs, probe_pool
        )
    groups = workloads.generation_groups(
        spec.n_apps, spec.servers, GENERATION_ROWS, ensemble_seed
    )
    facts.probe_rows = len(groups)
    kernel_probes(tracer, framework, pairs, groups, facts)
    facts.evaluate_us = simulator_probe(pairs, groups[0])
    facts.broadcast_bytes = engine_probes(tracer, framework, pairs, groups)
    return facts


def layer_metrics(
    spec: workloads.Workload,
    demands,
    policy,
    *,
    ledger: PlanLedger,
    ensemble_seed: int,
    plan_s_min: float,
    fastest_timings: dict[str, float],
    walls: Sequence[float],
    generate_s: float,
    rss_after_setup: float,
    spans_path: Optional[Path],
) -> tuple[dict[str, dict[str, object]], Sequence[str]]:
    """Run the traced pipeline and the probes; return every layer metric.

    The second value lists what the probes found wrong (kernels that
    disagree); the traced plan itself is checked through ``ledger``.
    """
    tracer = Tracer(spec.name)
    sharded = None

    def make_plan() -> CapacityPlan:
        nonlocal sharded
        plan, sharded = traced_plan(spec, demands, policy, ensemble_seed, tracer)
        return plan

    plan = ledger.attempt("traced", make_plan)
    facts = (
        ProbeFacts()
        if plan is None
        else run_probes(tracer, spec, demands, policy, plan, sharded, ensemble_seed)
    )
    if spans_path is not None:
        tracer.write(spans_path)

    counts = ledger.first.counts
    self_s = tracer.self_seconds  # pipeline spans: each ran once, may nest
    probe_s = tracer.fastest_seconds  # probe spans: leaves, some repeated

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    consolidate_s = probe_s("consolidation.consolidate")
    consolidate_calls = {
        "greedy.first_fit_s": probe_s("greedy.first_fit"),
        "greedy.best_fit_s": probe_s("greedy.best_fit"),
        "correlation.seed_s": probe_s("correlation.seed"),
        "genetic.run_s": probe_s("genetic.run"),
    }
    rows = counts.get("counter:kernel.rows", 0.0)
    iterations = counts.get("counter:kernel.bracket_iterations", 0.0)
    hits = counts.get("counter:placement.cache_hits", 0.0)
    misses = counts.get("counter:placement.cache_misses", 0.0)
    cases = counts.get("failure:cases", 0)
    sweep_s = self_s("failure.server_sweep") + self_s("failure.rack_sweep")
    first_quartile, median, third_quartile = quartiles(walls)
    stage_s = sum(fastest_timings.values())
    solve_s = probe_s("kernels.generation_solve")

    seconds = {
        "ensemble.generate_s": generate_s,
        "translation.normal_s": self_s("translation.normal"),
        "translation.failure_s": probe_s("translation.failure"),
        "clustering.features_s": self_s("clustering.features"),
        "clustering.cluster_s": self_s("clustering.cluster"),
        "sharding.partition_s": self_s("sharding.partition"),
        "sharding.place_s": self_s("sharding.place"),
        "sharding.refine_s": self_s("sharding.refine"),
        "sharding.shard_s_max": max(facts.shard_seconds),
        "sharding.shard_s_sum": sum(facts.shard_seconds),
        "consolidation.consolidate_s": consolidate_s,
        **consolidate_calls,
        "genetic.s_per_generation": ratio(
            consolidate_calls["genetic.run_s"], facts.generations
        ),
        "kernels.generation_solve_s": solve_s,
        "fused.generation_solve_s": probe_s("fused.generation_solve"),
        "analytic.generation_solve_s": probe_s("analytic.generation_solve"),
        "simulator.generation_solve_s": probe_s("simulator.generation_solve"),
        "failure.server_sweep_s": self_s("failure.server_sweep"),
        "failure.rack_sweep_s": self_s("failure.rack_sweep"),
        "failure.s_per_case": ratio(sweep_s, cases),
        "engine.serial_map_s": probe_s("engine.serial_map"),
        "engine.pool_map_s": probe_s("engine.pool_map"),
        "framework.self_s": plan_s_min - stage_s,
        "framework.plan_hash_s": self_s("framework.plan_hash"),
        "framework.plan_s_med": median,
        "framework.plan_s_iqr": third_quartile - first_quartile,
    }
    count_values = {
        "translation.workloads": counts.get("counter:translation.workloads", 0.0),
        "clustering.clusters": counts.get("counter:placement.clusters", 0.0),
        "sharding.shards": counts.get("sharding:shards", 0),
        "sharding.largest_shard": counts.get("sharding:largest_shard", 0),
        "sharding.migrations": counts.get("sharding:migrations", 0),
        "sharding.refine_rounds": counts.get("sharding:refine_rounds", 0),
        "genetic.generations": facts.generations,
        "evaluation.cache_hits": hits,
        "evaluation.cache_misses": misses,
        "kernels.rows": rows,
        "kernels.calls": counts.get("counter:kernel.calls", 0.0),
        "kernels.bracket_iterations": iterations,
        "kernels.slot_evals": iterations * spec.slots,
        "fused.rows": facts.fused_rows,
        "fused.f32_retries": facts.f32_retries,
        "failure.cases": cases,
        "failure.infeasible_cases": cases - counts.get("failure:feasible", 0),
        "framework.repeats": len(walls),
    }
    ratios = {
        "consolidation.probe_cover": ratio(
            sum(consolidate_calls.values()), consolidate_s
        ),
        "evaluation.hit_ratio": ratio(hits, hits + misses),
        "kernels.iterations_per_row": ratio(iterations, rows),
        "analytic.max_rel_diff": facts.analytic_max_rel_diff,
        "framework.stage_cover": ratio(stage_s, plan_s_min),
        "trace.overhead_ratio": ratio(tracer.seconds("framework.plan"), plan_s_min),
    }
    layers = {name: metric(value, "s") for name, value in seconds.items()}
    layers.update(
        {name: metric(value, "count") for name, value in count_values.items()}
    )
    layers.update({name: metric(value, "ratio") for name, value in ratios.items()})
    layers["ensemble.trace_mb"] = metric(workloads.trace_megabytes(demands), "MB")
    layers["framework.rss_after_setup_mb"] = metric(rss_after_setup, "MB")
    layers["kernels.rows_per_s"] = metric(ratio(facts.probe_rows, solve_s), "1/s")
    layers["simulator.evaluate_us"] = metric(facts.evaluate_us, "us")
    layers["engine.broadcast_bytes"] = metric(facts.broadcast_bytes, "bytes")
    return layers, facts.problems
