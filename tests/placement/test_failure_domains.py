"""Tests for domain-scoped failure sweeps, degraded servers and spares.

Covers the correlated-failure model: whole-rack/zone loss, k-concurrent
faults drawn per domain, degraded servers surviving at scaled capacity,
the seeded sampling guard on combinatorial sweeps, the spare-sizing
curve, and checkpoint resume of domain sweeps.
"""

from dataclasses import replace

import pytest

from repro.core.cos import PoolCommitments
from repro.core.framework import ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.core.translation import QoSTranslator
from repro.engine import ExecutionEngine
from repro.engine.checkpoint import Checkpointer
from repro.exceptions import PlacementError
from repro.placement.consolidation import Consolidator
from repro.placement.failure import (
    FailurePlanner,
    FailureSweepPolicy,
    FaultScenario,
    parse_scope,
)
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.calendar import TraceCalendar
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from tests.placement.failure_checks import (
    assert_scalar_oracle_agrees,
    assert_stays_put,
    feasible_labels,
    repair_never_finds_a_home,
)

SEARCH = GeneticSearchConfig(
    seed=0, max_generations=8, stall_generations=3, population_size=8
)


@pytest.fixture(scope="module")
def setup():
    calendar = TraceCalendar(weeks=1, slot_minutes=60)
    generator = WorkloadGenerator(seed=21)
    specs = [
        WorkloadSpec(name=f"w{i}", peak_cpus=1.0 + 0.3 * i, noise_sigma=0.2)
        for i in range(6)
    ]
    demands = generator.generate_many(specs, calendar)
    translator = QoSTranslator(PoolCommitments.of(theta=0.9))
    policy = QoSPolicy(
        normal=case_study_qos(m_degr_percent=0),
        failure=case_study_qos(m_degr_percent=3, t_degr_minutes=None),
    )
    pool = ResourcePool(homogeneous_servers(6, cpus=6, racks=3, zones=2))
    pairs = [translator.translate(d, policy.normal).pair for d in demands]
    normal = Consolidator(
        pool, translator.commitments.cos2, config=SEARCH
    ).consolidate(pairs, "first_fit")
    planner = FailurePlanner(translator, config=SEARCH)
    return demands, policy, pool, normal, planner


class TestParseScope:
    def test_grammar(self):
        assert parse_scope("server") == ("server", 1)
        assert parse_scope("rack") == ("rack", None)
        assert parse_scope("zone") == ("zone", None)
        assert parse_scope("rack:2") == ("rack", 2)
        assert parse_scope("server:3") == ("server", 3)

    @pytest.mark.parametrize("bad", ["pod", "rack:0", "rack:x", "", "rack:-1"])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(PlacementError):
            parse_scope(bad)


class TestFaultScenario:
    def test_requires_some_fault(self):
        with pytest.raises(PlacementError):
            FaultScenario()

    def test_rejects_bad_kind(self):
        with pytest.raises(PlacementError):
            FaultScenario(failed_servers=("a",), kind="pod")

    def test_rejects_bad_degraded_factor(self):
        with pytest.raises(PlacementError):
            FaultScenario(degraded=(("a", 0.0),))
        with pytest.raises(PlacementError):
            FaultScenario(degraded=(("a", 1.0),))

    def test_labels(self):
        assert FaultScenario(failed_servers=("a", "b")).label == "a+b"
        assert (
            FaultScenario(
                failed_servers=("a", "b"), kind="rack", domain="rack-00"
            ).label
            == "rack:rack-00:a+b"
        )
        assert (
            FaultScenario(degraded=(("a", 0.5),)).label == "degraded:a@0.5"
        )


class TestDomainSweeps:
    def test_rack_loss_cases(self, setup):
        demands, policy, pool, normal, planner = setup
        report = planner.plan_scope(
            demands, policy, pool, normal, scope="rack", algorithm="first_fit"
        )
        used_racks = {
            pool[server].rack for server in normal.assignment
        }
        assert len(report.cases) == len(used_racks)
        for case in report.cases:
            assert case.kind == "rack"
            assert case.domain in used_racks
            racks = {pool[s].rack for s in case.failed_servers}
            assert racks == {case.domain}
            assert case.label.startswith(f"rack:{case.domain}:")
            if case.result is not None:
                for failed in case.failed_servers:
                    assert failed not in case.result.assignment

    def test_zone_loss_cases(self, setup):
        demands, policy, pool, normal, planner = setup
        report = planner.plan_scope(
            demands, policy, pool, normal, scope="zone", algorithm="first_fit"
        )
        assert all(case.kind == "zone" for case in report.cases)
        assert 1 <= len(report.cases) <= 2

    def test_rejects_unknown_scope(self, setup):
        demands, policy, pool, normal, planner = setup
        with pytest.raises(PlacementError):
            planner.plan_scope(demands, policy, pool, normal, scope="pod")

    def test_plan_scope_dispatch(self, setup):
        demands, policy, pool, normal, planner = setup
        single = planner.plan(
            demands, policy, pool, normal, algorithm="first_fit"
        )
        via_scope = planner.plan_scope(
            demands, policy, pool, normal, scope="server",
            algorithm="first_fit",
        )
        assert {c.label for c in via_scope.cases} == {
            c.label for c in single.cases
        }

    def test_correlated_within_domain(self, setup):
        demands, policy, pool, normal, planner = setup
        report = planner.plan_scope(
            demands, policy, pool, normal, scope="rack:2",
            algorithm="first_fit",
        )
        for case in report.cases:
            racks = {pool[s].rack for s in case.failed_servers}
            assert len(racks) == 1

    def test_within_domain_without_wide_domains_is_trivial(self, setup):
        demands, policy, pool, normal, planner = setup
        # No rack holds three used servers (two per rack), so the
        # correlated 3-failure sweep has no cases — trivially absorbed.
        report = planner.plan_scope(
            demands, policy, pool, normal, scope="rack:3",
            algorithm="first_fit",
        )
        assert report.cases == ()
        assert report.all_supported


class TestDegradedServers:
    def test_degraded_servers_stay_in_pool(self, setup):
        demands, policy, pool, normal, planner = setup
        report = planner.plan_scope(
            demands, policy, pool, normal, scope="server",
            degraded_factor=0.5, algorithm="first_fit",
        )
        assert len(report.cases) == normal.servers_used
        for case in report.cases:
            assert case.failed_servers == ()
            assert len(case.degraded) == 1
            (name, factor), = case.degraded
            assert factor == 0.5
            assert case.label == f"degraded:{name}@0.5"
            if case.result is not None:
                # Unlike a dead server, a degraded one may still host.
                assert name in pool.names()

    def test_degraded_rack_scope(self, setup):
        demands, policy, pool, normal, planner = setup
        report = planner.plan_scope(
            demands, policy, pool, normal,
            scope="rack", degraded_factor=0.5, algorithm="first_fit",
        )
        for case in report.cases:
            assert case.kind == "rack"
            racks = {
                pool[name].rack for name, _ in case.degraded
            }
            assert racks == {case.domain}

    def test_rejects_bad_factor(self, setup):
        demands, policy, pool, normal, planner = setup
        for factor in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(PlacementError):
                planner.plan_scope(
                    demands, policy, pool, normal,
                    scope="server", degraded_factor=factor,
                )

    @pytest.mark.parametrize("scope", ["server:2", "rack:2"])
    def test_rejects_k_subset_scope(self, setup, scope):
        """Degrading is defined for whole domains; a ``:k`` spec used to
        be swept as its whole domain under the k-subset's name."""
        demands, policy, pool, normal, planner = setup
        with pytest.raises(PlacementError, match=scope):
            planner.plan_scope(
                demands, policy, pool, normal,
                scope=scope, degraded_factor=0.5,
            )

    def test_gentler_degradation_no_worse(self, setup):
        """Keeping more surviving capacity never loses feasibility."""
        demands, policy, pool, normal, planner = setup
        harsh = planner.plan_scope(
            demands, policy, pool, normal, scope="server",
            degraded_factor=0.3, algorithm="first_fit",
        )
        gentle = planner.plan_scope(
            demands, policy, pool, normal, scope="server",
            degraded_factor=0.9, algorithm="first_fit",
        )
        assert len(gentle.infeasible_cases) <= len(harsh.infeasible_cases)


class TestRepairFirstAcrossScopes:
    """Every scope repairs the normal plan; only the displaced move."""

    def _sweep(self, planner, setup, scope, relax_all):
        demands, policy, pool, normal, _ = setup
        factor = None
        if scope.startswith("degraded@"):
            scope, factor = "rack", float(scope.partition("@")[2])
        return planner.plan_scope(
            demands, policy, pool, normal, scope=scope,
            degraded_factor=factor,
            relax_all=relax_all, algorithm="first_fit",
        )

    @pytest.mark.parametrize("relax_all", [False, True])
    @pytest.mark.parametrize(
        "scope", ["server", "rack", "rack:2", "degraded@0.5", "degraded@0.3"]
    )
    def test_stay_put_and_scalar_oracle(self, setup, scope, relax_all):
        demands, policy, pool, normal, planner = setup
        report = self._sweep(planner, setup, scope, relax_all)
        assert report.cases
        for case in report.cases:
            if case.result is None:
                continue
            if case.repaired:
                assert_stays_put(case, normal)
                faulted = set(case.failed_servers) | {
                    name for name, _ in case.degraded
                }
                assert set(case.moved_from(normal)) <= {
                    name
                    for server in faulted
                    for name in normal.assignment.get(server, ())
                }
            assert_scalar_oracle_agrees(
                case, demands, policy, pool, planner.translator,
                relax_all=relax_all,
            )

    def test_every_branch_is_exercised(self, setup):
        """The fixture is a fair one: across scopes it yields repaired
        cases, re-planned feasible cases and infeasible ones."""
        demands, policy, pool, normal, planner = setup
        reports = [
            self._sweep(planner, setup, scope, relax_all)
            for scope in ("server", "rack", "rack:2", "degraded@0.5")
            for relax_all in (False, True)
        ]
        cases = [case for report in reports for case in report.cases]
        assert any(case.repaired for case in cases)
        assert any(case.feasible and not case.repaired for case in cases)
        assert any(not case.feasible for case in cases)
        # A degraded rack keeps what still fits and evicts the rest.
        degraded = [
            case
            for case in cases
            if case.degraded and case.repaired and case.moved_from(normal)
        ]
        assert degraded
        assert any(
            len(case.moved_from(normal)) < len(case.affected_workloads)
            for case in degraded
        )

    @pytest.mark.parametrize("scope", ["rack", "rack:2", "degraded@0.5"])
    def test_repair_first_covers_whatever_the_full_search_covers(
        self, setup, monkeypatch, scope
    ):
        planner = setup[-1]
        repair_first = self._sweep(planner, setup, scope, True)
        repair_never_finds_a_home(monkeypatch)
        full_search = self._sweep(
            FailurePlanner(planner.translator, config=SEARCH),
            setup, scope, True,
        )
        assert full_search.repaired == 0
        assert feasible_labels(repair_first) >= feasible_labels(full_search)


class TestUnknownWorkload:
    """A normal plan naming a workload no demand trace backs is refused.

    Every entry point sweeps through ``FailurePlanner._evaluate_cases``,
    which is where the check lives: the repair path would otherwise drop
    the stranger from every what-if and report the sweep fully supported.
    """

    @pytest.mark.parametrize("relax_all", [False, True])
    @pytest.mark.parametrize(
        "method, kwargs",
        [
            pytest.param("plan", {}, id="plan"),
            pytest.param("plan_scope", {"scope": "rack"}, id="rack"),
            pytest.param("plan_scope", {"scope": "server:2"}, id="server:2"),
            pytest.param(
                "plan_scope",
                {"scope": "server", "degraded_factor": 0.5},
                id="degraded",
            ),
            pytest.param(
                "spare_sizing_curve",
                {"scopes": ["rack"], "max_spares": 1},
                id="spare_curve",
            ),
        ],
    )
    def test_every_entry_point_raises(self, setup, method, kwargs, relax_all):
        demands, policy, pool, normal, planner = setup
        host = next(iter(normal.assignment))
        haunted = replace(
            normal,
            assignment={
                **normal.assignment,
                host: normal.assignment[host] + ("ghost",),
            },
        )
        with pytest.raises(PlacementError, match=r"unknown workloads.*ghost"):
            getattr(planner, method)(
                demands, policy, pool, haunted,
                relax_all=relax_all, algorithm="first_fit", **kwargs,
            )


class TestSamplingGuard:
    def test_sampled_sweep_is_capped_and_counted(self, setup):
        demands, policy, pool, normal, planner = setup
        engine = ExecutionEngine.serial()
        sampling_planner = FailurePlanner(
            planner.translator, config=SEARCH, engine=engine
        )
        report = sampling_planner.plan_scope(
            demands, policy, pool, normal,
            scope="server:2", max_cases=5, sample_seed=7,
            algorithm="first_fit",
        )
        assert len(report.cases) == 5
        counters = engine.instrumentation.counters()
        assert counters.get("failure.sweep_sampled", 0) >= 1
        assert counters.get("failure.cases_sampled", 0) == 5

    def test_exhaustive_sweep_counted(self, setup):
        demands, policy, pool, normal, planner = setup
        engine = ExecutionEngine.serial()
        exhaustive_planner = FailurePlanner(
            planner.translator, config=SEARCH, engine=engine
        )
        exhaustive_planner.plan_scope(
            demands, policy, pool, normal,
            scope="server:2", algorithm="first_fit",
        )
        counters = engine.instrumentation.counters()
        assert counters.get("failure.sweep_exhaustive", 0) >= 1
        assert counters.get("failure.sweep_sampled", 0) == 0

    def test_sampling_is_deterministic(self, setup):
        demands, policy, pool, normal, planner = setup
        labels = []
        for _ in range(2):
            report = planner.plan_scope(
                demands, policy, pool, normal,
                scope="server:2", max_cases=4, sample_seed=11,
                algorithm="first_fit",
            )
            labels.append(tuple(case.label for case in report.cases))
        assert labels[0] == labels[1]

    def test_different_seed_can_differ(self, setup):
        demands, policy, pool, normal, planner = setup
        picks = set()
        for seed in range(4):
            report = planner.plan_scope(
                demands, policy, pool, normal,
                scope="server:2", max_cases=3, sample_seed=seed,
                algorithm="first_fit",
            )
            picks.add(tuple(case.label for case in report.cases))
        assert len(picks) > 1


class TestSpareSizingCurve:
    def test_curve_over_topology_scopes(self, setup):
        demands, policy, pool, normal, planner = setup
        curve = planner.spare_sizing_curve(
            demands, policy, pool, normal,
            max_spares=2, algorithm="first_fit",
        )
        scopes = [point.scope for point in curve.points]
        assert scopes == ["server", "rack", "zone"]
        assert curve.monotone_in_scope()
        payload = curve.to_payload()
        assert payload["max_spares"] == 2
        assert len(payload["points"]) == 3

    def test_tight_pool_needs_spares(self):
        calendar = TraceCalendar(weeks=1, slot_minutes=60)
        generator = WorkloadGenerator(seed=5)
        specs = [
            WorkloadSpec(name=f"big{i}", peak_cpus=5.0, noise_sigma=0.05)
            for i in range(4)
        ]
        demands = generator.generate_many(specs, calendar)
        translator = QoSTranslator(PoolCommitments.of(theta=0.9))
        policy = QoSPolicy(normal=case_study_qos(m_degr_percent=0))
        pool = ResourcePool(homogeneous_servers(4, cpus=10, racks=2))
        pairs = [
            translator.translate(d, policy.normal).pair for d in demands
        ]
        normal = Consolidator(
            pool, translator.commitments.cos2, config=SEARCH
        ).consolidate(pairs, "first_fit")
        planner = FailurePlanner(translator, config=SEARCH)
        curve = planner.spare_sizing_curve(
            demands, policy, pool, normal,
            scopes=["server", "rack"], max_spares=3, algorithm="first_fit",
        )
        by_scope = {point.scope: point for point in curve.points}
        assert by_scope["server"].infeasible_without_spares > 0
        assert by_scope["server"].spares_needed is not None
        assert by_scope["server"].spares_needed >= 1
        assert curve.monotone_in_scope()


class TestDomainSweepResume:
    """Satellite: checkpoint resume with rack-loss cases in flight."""

    @pytest.fixture()
    def framework_parts(self):
        calendar = TraceCalendar(weeks=1, slot_minutes=60)
        generator = WorkloadGenerator(seed=13)
        specs = [
            WorkloadSpec(name=f"app{i}", peak_cpus=1.0 + 0.5 * i)
            for i in range(5)
        ]
        demands = generator.generate_many(specs, calendar)
        policy = QoSPolicy(normal=case_study_qos(m_degr_percent=3))
        return demands, policy

    def _framework(self, checkpointer=None, failure_policy=None):
        return ROpus(
            PoolCommitments.of(theta=0.95),
            ResourcePool(homogeneous_servers(6, cpus=16, racks=3)),
            search_config=SEARCH,
            engine=ExecutionEngine.serial(),
            checkpointer=checkpointer,
            failure_policy=failure_policy or FailureSweepPolicy(scopes=("rack",)),
        )

    @pytest.mark.parametrize(
        "prefix", ["scope:rack", "degraded:server@0.5", "spare:"]
    )
    def test_kill_mid_rack_sweep_resumes_to_identical_plan(
        self, framework_parts, tmp_path, prefix
    ):
        demands, policy = framework_parts
        sweeps = FailureSweepPolicy(
            scopes=("rack",), degraded_factor=0.5, spare_curve=True
        )
        baseline = self._framework(failure_policy=sweeps).plan(demands, policy)
        assert baseline.domain_reports is not None
        assert len(baseline.domain_reports["rack"].cases) > 1
        assert baseline.spare_curve is not None
        keys = f"failure/{prefix}"

        class _Killed(Exception):
            """Stands in for the SIGKILL that ends the first run."""

        # Die before persisting the second case under the prefix: the
        # sweep must already have journaled the first one by then.
        class _KilledMidDomainSweep(Checkpointer):
            def save(self, key, payload):
                if key.startswith(keys) and any(
                    stored.startswith(keys) for stored in self.keys()
                ):
                    raise _Killed
                return super().save(key, payload)

        directory = tmp_path / "ckpt"
        with pytest.raises(_Killed):
            self._framework(
                checkpointer=_KilledMidDomainSweep(directory),
                failure_policy=sweeps,
            ).plan(demands, policy)

        survivor_store = Checkpointer(directory)
        persisted = [
            key for key in survivor_store.keys() if key.startswith(keys)
        ]
        assert len(persisted) == 1

        resumed = self._framework(
            checkpointer=survivor_store, failure_policy=sweeps
        ).plan(demands, policy)
        assert resumed.plan_hash() == baseline.plan_hash()
        resumes = resumed.resilience_summary().get("failure.case_resumes", 0)
        assert resumes >= 1

    def test_case_documents_that_misplace_workloads_are_recomputed(
        self, framework_parts, tmp_path
    ):
        """A kept case result is checked against every workload and the
        surviving pool: one that leaves a workload out, or hosts on the
        failed server, is recomputed and not counted as resumed."""
        demands, policy = framework_parts
        sweeps = FailureSweepPolicy(scopes=("rack",), degraded_factor=0.5)
        baseline = self._framework(failure_policy=sweeps).plan(demands, policy)

        class _Killed(Exception):
            pass

        class _KilledBeforeDegradedSweep(Checkpointer):
            def save(self, key, payload):
                if key.startswith("failure/degraded:"):
                    raise _Killed
                return super().save(key, payload)

        directory = tmp_path / "ckpt"
        killed = _KilledBeforeDegradedSweep(directory)
        with pytest.raises(_Killed):
            self._framework(checkpointer=killed, failure_policy=sweeps).plan(
                demands, policy
            )
        # Doctored documents keep the run's fingerprint, so only the
        # result check can turn them away.
        store = Checkpointer(directory, fingerprint=killed.fingerprint)
        kept = [key for key in store.keys() if key.startswith("failure/")]
        assert len(kept) == len(baseline.failure_report.cases) + len(
            baseline.domain_reports["rack"].cases
        )
        # The single-server sweep's documents are ``failure/<server>``.
        server_cases = [key for key in kept if key.count("/") == 1]
        assert len(server_cases) >= 2

        dropped, moved = server_cases[:2]
        document = store.load(dropped)
        assignment = document["result"]["assignment"]
        server = next(iter(assignment))
        assignment[server] = assignment[server][1:]
        store.save(dropped, document)

        failed = moved.removeprefix("failure/")
        document = store.load(moved)
        assignment = document["result"]["assignment"]
        required = document["result"]["required_by_server"]
        survivor = next(iter(assignment))
        assignment[failed] = assignment.pop(survivor)
        required[failed] = required.pop(survivor)
        store.save(moved, document)

        resumed = self._framework(
            checkpointer=Checkpointer(directory), failure_policy=sweeps
        ).plan(demands, policy)
        assert resumed.plan_hash() == baseline.plan_hash()
        assert resumed.counters["failure.case_resumes"] == len(kept) - 2

    def test_domain_sweeps_contribute_to_plan_hash(
        self, framework_parts
    ):
        demands, policy = framework_parts
        with_domains = self._framework().plan(demands, policy)
        without = ROpus(
            PoolCommitments.of(theta=0.95),
            ResourcePool(homogeneous_servers(6, cpus=16, racks=3)),
            search_config=SEARCH,
            engine=ExecutionEngine.serial(),
        ).plan(demands, policy)
        assert with_domains.plan_hash() != without.plan_hash()
        summary = with_domains.summary()
        assert "rack" in summary["failure_domains"]

    def test_repair_counters_agree_across_backends_and_resume(
        self, framework_parts, tmp_path
    ):
        """``failure.repaired + failure.replanned == failure.cases`` and
        the same numbers serial, pooled, and resumed from a checkpoint."""
        demands, policy = framework_parts
        names = ("failure.cases", "failure.repaired", "failure.replanned")

        def repair_counters(plan):
            counters = plan.summary()["counters"]
            assert (
                counters["failure.repaired"] + counters["failure.replanned"]
                == counters["failure.cases"]
            )
            return {name: counters[name] for name in names}

        baseline = self._framework().plan(demands, policy)
        expected = repair_counters(baseline)
        assert expected["failure.repaired"] == (
            baseline.failure_report.repaired
            + baseline.domain_reports["rack"].repaired
        )
        assert baseline.summary()["failure_sweep"]["repaired"] == (
            baseline.failure_report.repaired
        )

        with ExecutionEngine.with_workers(2) as engine:
            pooled = ROpus(
                PoolCommitments.of(theta=0.95),
                ResourcePool(homogeneous_servers(6, cpus=16, racks=3)),
                search_config=SEARCH,
                engine=engine,
                failure_policy=FailureSweepPolicy(scopes=("rack",)),
            ).plan(demands, policy)
        assert repair_counters(pooled) == expected
        assert pooled.plan_hash() == baseline.plan_hash()

        class _Killed(Exception):
            pass

        class _KilledAfterServerSweep(Checkpointer):
            def save(self, key, payload):
                if key.startswith("failure/scope:rack/"):
                    raise _Killed
                return super().save(key, payload)

        directory = tmp_path / "ckpt"
        with pytest.raises(_Killed):
            self._framework(
                checkpointer=_KilledAfterServerSweep(directory)
            ).plan(demands, policy)
        resumed = self._framework(checkpointer=Checkpointer(directory)).plan(
            demands, policy
        )
        assert resumed.resilience_summary()["failure.case_resumes"] >= 1
        assert repair_counters(resumed) == expected
        assert resumed.plan_hash() == baseline.plan_hash()
