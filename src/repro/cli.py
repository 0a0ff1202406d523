"""Command-line interface: ``ropus`` / ``python -m repro``.

Subcommands
-----------
``generate``
    Write the synthetic case-study trace ensemble to CSV or JSON.
``translate``
    Run the QoS translation over an ensemble and print per-workload
    breakpoints, demand caps and capacity reductions.
``plan``
    Run the full pipeline (translate, consolidate, failure what-ifs)
    and print the plan summary.
``table1``
    Reproduce the paper's Table I sweep (M_degr x theta x T_degr).
``validate``
    Screen an ensemble for trace-quality problems.
``outlook``
    Long-term capacity outlook: when does the pool run out?  With
    ``--domains``/``--degraded``/``--spare-curve`` it reports the
    failure-tier outlook instead: domain-scoped failure sweeps and the
    spare-sizing curve for today's pool.
``lint``
    Run the AST invariant linter (:mod:`repro.analysis`) over source
    trees; same engine as ``python -m repro.analysis``.
``chaos``
    Run the sharded planning pipeline under a seeded fault schedule
    (worker crashes, hangs, corrupted results) and report the recovery
    telemetry; ``--verify`` re-runs fault-free and checks the two plans
    hash identically.  With ``--racks``/``--zones`` and
    ``--domains`` the verification also covers the domain-scoped
    failure sweeps (they contribute to the plan hash).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.runner import add_analysis_arguments, run_analysis_command
from repro.core.cos import PoolCommitments
from repro.core.framework import CapacityPlan, ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.core.translation import QoSTranslator
from repro.engine import (
    Checkpointer,
    ExecutionEngine,
    FaultPlan,
    Instrumentation,
    ResilienceConfig,
)
from repro.placement.failure import FailureSweepPolicy
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.io import load_traces_csv, save_traces_csv, save_traces_json
from repro.util.tables import format_table
from repro.workloads.ensemble import case_study_ensemble


def _add_common_qos_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--theta", type=float, default=0.95,
        help="CoS2 resource access probability (default 0.95)",
    )
    parser.add_argument(
        "--m-degr", type=float, default=3.0,
        help="percent of measurements allowed degraded (default 3)",
    )
    parser.add_argument(
        "--t-degr", type=float, default=None,
        help="max contiguous degraded minutes (default none)",
    )
    parser.add_argument(
        "--traces", type=str, default=None,
        help="CSV trace file (default: built-in synthetic ensemble)",
    )
    parser.add_argument(
        "--seed", type=int, default=2006,
        help="seed for the synthetic ensemble (default 2006)",
    )


def _add_timings_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timings", action="store_true",
        help="print per-stage timings and counters after the run",
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Worker flags, for the subcommands that plan sharded (``plan``, ``chaos``)."""
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for shard planning, one lock-step unit of "
             "shards each (plan --shards; chaos always shards); the pool "
             "retries, respawns and degrades "
             "around lost workers (default: run serially)",
    )
    _add_timings_argument(parser)
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="configure recovery: a stuck-worker deadline — respawn the "
             "pool and retry when no work unit completes for this long "
             "(default: no deadline)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None,
        help="configure recovery: retries per failing fan-out batch "
             "before degrading pool -> serial (default 2)",
    )


def _add_pool_arguments(
    parser: argparse.ArgumentParser, servers: int = 12
) -> None:
    parser.add_argument("--servers", type=int, default=servers)
    parser.add_argument("--cpus", type=int, default=16)


def _add_topology_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--racks", type=int, default=None,
        help="spread the servers over this many racks (default: flat pool)",
    )
    parser.add_argument(
        "--zones", type=int, default=None,
        help="spread the servers over this many zones (default: flat pool)",
    )


def _add_failure_tier_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--domains", action="store_true",
        help="sweep whole-domain (rack, and zone when --zones is set) "
             "failures in addition to single servers",
    )
    parser.add_argument(
        "--degraded", type=float, default=None, metavar="FACTOR",
        help="also sweep degraded servers surviving at FACTOR of their "
             "capacity (0 < FACTOR < 1)",
    )
    parser.add_argument(
        "--spare-curve", action="store_true",
        help="search spare servers needed per failure scope and print "
             "the spares-vs-scope curve",
    )
    parser.add_argument(
        "--max-spares", type=int, default=4,
        help="spare-sizing search ceiling (default 4)",
    )


def _pool(args: argparse.Namespace) -> ResourcePool:
    return ResourcePool(
        homogeneous_servers(
            args.servers,
            cpus=args.cpus,
            racks=getattr(args, "racks", None),
            zones=getattr(args, "zones", None),
        )
    )


def _failure_policy(args: argparse.Namespace) -> FailureSweepPolicy | None:
    """Build the domain-sweep policy the failure-tier flags describe."""
    domains = getattr(args, "domains", False)
    degraded = getattr(args, "degraded", None)
    spare_curve = getattr(args, "spare_curve", False)
    if not domains and degraded is None and not spare_curve:
        return None
    scopes: list[str] = ["rack"]
    if getattr(args, "zones", None):
        scopes.append("zone")
    return FailureSweepPolicy(
        scopes=tuple(scopes) if domains else (),
        degraded_factor=degraded,
        spare_curve=spare_curve,
        max_spares=getattr(args, "max_spares", 4),
        sample_seed=getattr(args, "seed", None),
    )


def _framework(args: argparse.Namespace, **overrides: object) -> ROpus:
    """The framework the flags describe.

    ``overrides`` are :class:`ROpus` keyword arguments that replace or
    add to the flags' (``commitments`` among them).
    """
    options: dict = {
        "commitments": PoolCommitments.of(theta=args.theta),
        "pool": _pool(args),
        "search_config": GeneticSearchConfig(seed=args.seed),
        "failure_policy": _failure_policy(args),
        **overrides,
    }
    return ROpus(**options)


def _policy(args: argparse.Namespace) -> QoSPolicy:
    """The flags' normal-mode QoS, and the case study's failure mode."""
    return QoSPolicy(
        normal=_qos(args),
        failure=case_study_qos(m_degr_percent=3.0, t_degr_minutes=30.0),
    )


def _engine(
    args: argparse.Namespace, fault_plan: FaultPlan | None = None
) -> ExecutionEngine:
    """Build the engine the flags describe.

    ``--workers`` alone picks the backend; the resilience knobs (and an
    injected fault plan) only fill in its recovery budget.
    """
    task_timeout, max_retries = args.task_timeout, args.max_retries
    if task_timeout is None and max_retries is None and fault_plan is None:
        return ExecutionEngine.with_workers(args.workers)
    config = ResilienceConfig(
        max_retries=max_retries if max_retries is not None else 2,
        task_timeout_seconds=task_timeout,
        fault_plan=fault_plan,
    )
    return ExecutionEngine.with_workers(args.workers, config)


def _checkpointer(args: argparse.Namespace) -> Checkpointer | None:
    directory = getattr(args, "checkpoint", None)
    return Checkpointer(directory) if directory else None


def _shards_value(text: str) -> "int | str":
    """Parse the ``--shards`` knob: ``auto``, ``off``, or a shard count."""
    if text in ("auto", "off"):
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto', 'off', or an integer, got {text!r}"
        ) from None


def _print_timings(instrumentation: Instrumentation) -> None:
    stage_rows = [
        [stats.name, stats.calls, stats.total_seconds, stats.mean_seconds]
        for stats in instrumentation.stage_stats()
    ]
    if stage_rows:
        print()
        print(
            format_table(
                ["stage", "calls", "total s", "mean s"],
                stage_rows,
                title="Stage timings",
            )
        )
    counter_rows = [
        [name, value]
        for name, value in sorted(instrumentation.counters().items())
    ]
    if counter_rows:
        print()
        print(format_table(["counter", "value"], counter_rows, title="Counters"))


def _load_demands(args: argparse.Namespace):
    if args.traces:
        return load_traces_csv(args.traces)
    return case_study_ensemble(seed=args.seed)


def _qos(args: argparse.Namespace):
    return case_study_qos(
        m_degr_percent=args.m_degr, t_degr_minutes=args.t_degr
    )


def cmd_generate(args: argparse.Namespace) -> int:
    demands = case_study_ensemble(seed=args.seed, weeks=args.weeks)
    if args.output.endswith(".json"):
        save_traces_json(demands, args.output)
    else:
        save_traces_csv(demands, args.output)
    print(
        f"wrote {len(demands)} traces x {len(demands[0])} observations "
        f"to {args.output}"
    )
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    demands = _load_demands(args)
    translator = QoSTranslator(PoolCommitments.of(theta=args.theta))
    qos = _qos(args)
    results = translator.translate_many(demands, qos)
    rows = []
    for demand in demands:
        result = results[demand.name]
        rows.append(
            [
                demand.name,
                result.d_max,
                result.d_new_max,
                100.0 * result.cap_reduction,
                result.breakpoint,
                100.0 * result.degraded_fraction,
            ]
        )
    print(
        format_table(
            ["workload", "D_max", "D_new_max", "reduction %", "p", "degraded %"],
            rows,
            title=(
                f"QoS translation (theta={args.theta}, M_degr={args.m_degr}%, "
                f"T_degr={args.t_degr or 'none'})"
            ),
        )
    )
    if args.timings:
        _print_timings(translator.instrumentation)
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    demands = _load_demands(args)
    engine = _engine(args)
    framework = _framework(
        args,
        engine=engine,
        checkpointer=_checkpointer(args),
        sharding=args.shards,
        cluster_seed=args.cluster_seed,
        refine_rounds=args.refine_rounds,
    )
    plan = framework.plan(
        demands, _policy(args), plan_failures=not args.no_failures
    )
    for key, value in plan.summary().items():
        if key == "stage_timings":
            continue
        print(f"{key}: {value}")
    print(f"plan_hash: {plan.plan_hash()}")
    print()
    rows = [
        [server, ", ".join(names), plan.consolidation.required_by_server[server]]
        for server, names in sorted(plan.consolidation.assignment.items())
    ]
    print(format_table(["server", "workloads", "required CPU"], rows))
    if args.timings:
        _print_timings(engine.instrumentation)
    engine.close()
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.metrics.capacity import capacity_case
    from repro.metrics.report import render_capacity_table

    demands = _load_demands(args)
    engine = ExecutionEngine.serial()
    cases = [
        ("1", 0.0, 0.60, None),
        ("2", 3.0, 0.60, 30.0),
        ("3", 3.0, 0.60, None),
        ("4", 0.0, 0.95, None),
        ("5", 3.0, 0.95, 30.0),
        ("6", 3.0, 0.95, None),
    ]
    rows = []
    for label, m_degr, theta, t_degr in cases:
        framework = _framework(
            args,
            commitments=PoolCommitments.of(theta=theta, deadline_minutes=60),
            engine=engine,
        )
        policy = QoSPolicy(
            normal=case_study_qos(m_degr_percent=m_degr, t_degr_minutes=t_degr)
        )
        plan = framework.plan(demands, policy, plan_failures=False)
        rows.append(
            capacity_case(label, m_degr, theta, t_degr, plan.consolidation)
        )
    print(
        render_capacity_table(
            rows,
            title="Impact of M_degr, T_degr and theta on resource sharing",
        )
    )
    if args.timings:
        _print_timings(engine.instrumentation)
    engine.close()
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.traces.validation import validate_ensemble

    if args.repair:
        from repro.traces.io import load_traces_csv_repaired

        demands, repair_reports = load_traces_csv_repaired(args.traces)
        repaired = [
            report
            for _, report in sorted(repair_reports.items())
            if not report.clean
        ]
        for report in repaired:
            print(report.describe())
        print(
            f"repaired {sum(report.total for report in repaired)} "
            f"observations across {len(repaired)} traces"
        )
    else:
        demands = _load_demands(args)
    reports = validate_ensemble(demands)
    dirty = 0
    for name, report in sorted(reports.items()):
        if report.clean:
            continue
        dirty += 1
        for issue in report.issues:
            location = (
                f" [slots {issue.start}:{issue.stop}]"
                if issue.start is not None
                else ""
            )
            print(f"{name}: {issue.kind.value}: {issue.message}{location}")
    print(f"{len(reports) - dirty}/{len(reports)} traces clean")
    return 0 if dirty == 0 else 1


def cmd_lint(args: argparse.Namespace) -> int:
    return run_analysis_command(args)


def _chaos_plan(
    args: argparse.Namespace, fault_plan: FaultPlan | None
) -> tuple[object, ExecutionEngine]:
    """One full planning run under the given (possibly empty) faults."""
    demands = _load_demands(args)
    engine = _engine(args, fault_plan=fault_plan)
    # Shard planning is the only work that reaches workers, so the
    # scheduled faults need a sharded plan to land on.
    framework = _framework(args, engine=engine, sharding="auto")
    plan = framework.plan(
        demands, _policy(args), plan_failures=not args.no_failures
    )
    return plan, engine


def cmd_chaos(args: argparse.Namespace) -> int:
    """Plan under a seeded fault schedule; optionally verify the result.

    The fault schedule is fully determined by ``--chaos-seed`` and the
    rates, so a chaos run is exactly reproducible. With ``--verify``
    the same planning problem is solved again fault-free and the two
    plans must hash identically — recovery is only allowed to cost
    time, never to change the answer.
    """
    fault_plan = FaultPlan.seeded(
        args.chaos_seed,
        horizon=args.fault_horizon,
        crash_rate=args.crash_rate,
        hang_rate=args.hang_rate,
        corrupt_rate=args.corrupt_rate,
        hang_seconds=args.hang_seconds,
    )
    scheduled = {
        kind.value: len(fault_plan.occurrences(kind))
        for kind in fault_plan.schedule
        if fault_plan.occurrences(kind)
    }
    print(f"fault schedule (seed {args.chaos_seed}): {scheduled or 'empty'}")
    plan, engine = _chaos_plan(args, fault_plan)
    chaos_hash = plan.plan_hash()
    print(f"plan_hash: {chaos_hash}")
    print(f"servers_used: {plan.servers_used}")
    for name, value in sorted(plan.resilience_summary().items()):
        print(f"{name}: {value}")
    if args.timings:
        _print_timings(engine.instrumentation)
    engine.close()
    if not args.verify:
        return 0
    control, control_engine = _chaos_plan(args, None)
    control_engine.close()
    control_hash = control.plan_hash()
    if control_hash == chaos_hash:
        print("verify: OK — chaos and fault-free plans hash identically")
        return 0
    print(
        "verify: FAIL — chaos plan "
        f"{chaos_hash} != fault-free plan {control_hash}"
    )
    return 1


def _print_failure_outlook(plan: CapacityPlan) -> None:
    """Print the domain-sweep and spare-sizing tables of a plan."""
    reports = plan.domain_reports or {}
    rows = []
    for scope, report in sorted(reports.items()):
        rows.append(
            [
                scope,
                len(report.cases),
                len(report.infeasible_cases),
                "yes" if report.all_supported else "no",
                "yes" if report.spare_server_needed else "no",
                report.repaired,
                report.replanned,
                max(
                    (
                        len(case.moved_from(plan.consolidation))
                        for case in report.cases
                    ),
                    default=0,
                ),
            ]
        )
    if rows:
        print(
            format_table(
                [
                    "scope", "cases", "infeasible", "absorbed",
                    "spare needed", "repaired", "re-planned", "max moved",
                ],
                rows,
                title="Failure-domain outlook",
            )
        )
    curve = plan.spare_curve
    if curve is not None:
        print()
        rows = [
            [
                point.scope,
                point.infeasible_without_spares,
                point.spares_needed
                if point.spares_needed is not None
                else f"> {curve.max_spares}",
            ]
            for point in curve.points
        ]
        print(
            format_table(
                ["failure scope", "infeasible w/o spares", "spares needed"],
                rows,
                title="Spare-sizing curve",
            )
        )
        print(
            "curve monotone in scope: "
            f"{'yes' if curve.monotone_in_scope() else 'NO'}"
        )


def _failure_outlook(args: argparse.Namespace) -> int:
    """Failure-tier outlook: domain sweeps and spare sizing for today's pool."""
    demands = _load_demands(args)
    engine = ExecutionEngine.serial()
    plan = _framework(args, engine=engine).plan(
        demands, _policy(args), plan_failures=True
    )
    print(f"plan_hash: {plan.plan_hash()}")
    print(f"servers_used: {plan.servers_used}")
    print()
    _print_failure_outlook(plan)
    if args.timings:
        _print_timings(engine.instrumentation)
    engine.close()
    return 0


def cmd_outlook(args: argparse.Namespace) -> int:
    from repro.core.manager import CapacityManager

    if _failure_policy(args) is not None:
        return _failure_outlook(args)
    demands = _load_demands(args)
    engine = ExecutionEngine.serial()
    manager = CapacityManager(_framework(args, engine=engine))
    policy = _policy(args)
    growth = None
    if args.growth is not None:
        growth = {demand.name: args.growth for demand in demands}
    outlook = manager.capacity_outlook(
        demands,
        policy,
        horizon_weeks=args.horizon,
        step_weeks=args.step,
        growth_by_name=growth,
    )
    rows = []
    for step in outlook.steps:
        rows.append(
            [
                step.weeks_ahead,
                step.feasible,
                step.servers_used if step.servers_used is not None else "-",
                step.sum_required if step.sum_required is not None else "-",
            ]
        )
    print(
        format_table(
            ["weeks ahead", "feasible", "servers", "C_requ"],
            rows,
            title="Capacity outlook",
        )
    )
    if outlook.weeks_until_exhausted is None:
        print("pool sufficient through the studied horizon")
    else:
        print(
            f"pool exhausted {outlook.weeks_until_exhausted} weeks out — "
            "start procurement"
        )
    if args.timings:
        _print_timings(engine.instrumentation)
    engine.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropus",
        description="R-Opus capacity management for shared resource pools",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate the synthetic case-study ensemble"
    )
    generate.add_argument("output", help="output path (.csv or .json)")
    generate.add_argument("--seed", type=int, default=2006)
    generate.add_argument("--weeks", type=int, default=4)
    generate.set_defaults(handler=cmd_generate)

    translate = subparsers.add_parser(
        "translate", help="run the QoS translation over an ensemble"
    )
    _add_common_qos_arguments(translate)
    _add_timings_argument(translate)
    translate.set_defaults(handler=cmd_translate)

    plan = subparsers.add_parser(
        "plan", help="run the full planning pipeline"
    )
    _add_common_qos_arguments(plan)
    _add_engine_arguments(plan)
    _add_pool_arguments(plan)
    _add_topology_arguments(plan)
    _add_failure_tier_arguments(plan)
    plan.add_argument("--no-failures", action="store_true")
    plan.add_argument(
        "--checkpoint", type=str, default=None, metavar="DIR",
        help="keep finished results in DIR and resume from them (the "
             "consolidation, each completed shard, each failure what-if)",
    )
    plan.add_argument(
        "--shards", type=_shards_value, default="off", metavar="N|auto|off",
        help="hierarchical placement: 'off' plans the whole pool at once "
             "(default), 'auto' sizes the shard count from the ensemble, "
             "an integer forces that many shards",
    )
    plan.add_argument(
        "--cluster-seed", type=int, default=None,
        help="seed for demand-shape clustering tie-breaks (default: "
             "unseeded, no jitter)",
    )
    plan.add_argument(
        "--refine-rounds", type=int, default=2,
        help="max cross-shard refinement rounds; each stops early when "
             "total required capacity stops improving (default 2)",
    )
    plan.set_defaults(handler=cmd_plan)

    chaos = subparsers.add_parser(
        "chaos",
        help="run the planning pipeline under a seeded fault schedule",
    )
    _add_common_qos_arguments(chaos)
    _add_engine_arguments(chaos)
    _add_pool_arguments(chaos)
    _add_topology_arguments(chaos)
    _add_failure_tier_arguments(chaos)
    chaos.add_argument("--no-failures", action="store_true")
    chaos.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed of the deterministic fault schedule (default 0)",
    )
    chaos.add_argument(
        "--fault-horizon", type=int, default=256,
        help="injection sites covered by the seeded schedule (default 256)",
    )
    chaos.add_argument("--crash-rate", type=float, default=0.02)
    chaos.add_argument("--hang-rate", type=float, default=0.0)
    chaos.add_argument("--corrupt-rate", type=float, default=0.02)
    chaos.add_argument(
        "--hang-seconds", type=float, default=5.0,
        help="how long an injected hang sleeps (default 5)",
    )
    chaos.add_argument(
        "--verify", action="store_true",
        help="re-plan fault-free and require an identical plan hash",
    )
    chaos.set_defaults(handler=cmd_chaos)

    table1 = subparsers.add_parser(
        "table1", help="reproduce the paper's Table I sweep"
    )
    _add_common_qos_arguments(table1)
    _add_timings_argument(table1)
    _add_pool_arguments(table1, servers=14)
    table1.set_defaults(handler=cmd_table1)

    validate = subparsers.add_parser(
        "validate", help="screen an ensemble for trace-quality problems"
    )
    _add_common_qos_arguments(validate)
    validate.add_argument(
        "--repair", action="store_true",
        help="quarantine NaN/negative/out-of-order rows at ingest and "
             "report the repairs instead of rejecting the file "
             "(requires --traces)",
    )
    validate.set_defaults(handler=cmd_validate)

    outlook = subparsers.add_parser(
        "outlook", help="long-term capacity outlook under demand growth"
    )
    _add_common_qos_arguments(outlook)
    _add_timings_argument(outlook)
    _add_pool_arguments(outlook)
    _add_topology_arguments(outlook)
    _add_failure_tier_arguments(outlook)
    outlook.add_argument("--horizon", type=int, default=24)
    outlook.add_argument("--step", type=int, default=4)
    outlook.add_argument(
        "--growth", type=float, default=None,
        help="weekly growth multiplier for all workloads "
             "(default: fitted per workload)",
    )
    outlook.set_defaults(handler=cmd_outlook)

    lint = subparsers.add_parser(
        "lint", help="run the AST invariant linter over source trees"
    )
    add_analysis_arguments(lint)
    lint.set_defaults(handler=cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "validate" and args.repair and args.traces is None:
        parser.error("validate --repair requires --traces")
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
