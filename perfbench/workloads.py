"""The benchmark's workloads: set-up, timed rounds, checks.

A workload's timed phase repeats :meth:`Workload.round` until the run's
``--seconds`` have passed (at least one round; ``max_rounds`` caps it
for workloads whose second round would measure another thing).  Every
round returns one :class:`Op` per operation — a ``verify()`` call or a
fabric submission — with its request-to-verdict latency.

The seed only orders the operations (the six ``verify()`` calls of
``paper-cold``, the two halves of a ``rerun-served`` round; the
``grid-fabric`` grid keeps its own order).  Every workload verifies the
repository's own paper designs, so the program sees the same
obligations whatever the seed.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import time
from dataclasses import dataclass

from . import checks

#: Verdicts an executor reports when the obligation was not answered.
FAILED = ("error", "timeout")


@dataclass
class Op:
    """One timed operation: request-to-verdict latency and outcome."""

    latency: float
    ok: bool
    result: object = None  # the JobResult of a fabric submission


def _stats_of(acc, stats, detail) -> None:
    """Fold the program-reported costs of one fresh verdict into ``acc``."""
    acc["aig.nodes"] += stats.aig_nodes
    acc["upec.sim_pruned"] += stats.candidates_pruned_by_sim
    inner = (detail or {}).get("result") or {}
    acc["upec.iterations"] += len(inner.get("iterations", ()))


class Fabric:
    """A coordinator subprocess with a ``--state-dir`` journal plus
    worker subprocesses, all stopped and reaped by :meth:`stop`."""

    WORKERS = 2
    TIMEOUT_S = 60.0

    def __init__(self, workdir: pathlib.Path):
        self.workdir = workdir
        self.state_dir = workdir / "state"
        self.procs: list[subprocess.Popen] = []
        self.address: str | None = None
        self._log = None

    def start(self) -> str:
        from repro.fabric.smoke import (_subprocess_env, _wait_for_workers,
                                        spawn_fabric_worker)

        log_path = self.workdir / "coordinator.log"
        self._log = open(log_path, "w")
        coordinator = subprocess.Popen(
            [sys.executable, "-m", "repro.fabric", "coordinator",
             "--port", "0", "--state-dir", str(self.state_dir), "--quiet"],
            stdout=self._log, stderr=subprocess.STDOUT,
            env=_subprocess_env())
        self.procs.append(coordinator)
        deadline = time.monotonic() + self.TIMEOUT_S
        while self.address is None:
            for line in log_path.read_text().splitlines():
                if line.startswith("coordinator listening on "):
                    self.address = line.rsplit(" ", 1)[1]
            if coordinator.poll() is not None:
                raise RuntimeError(f"the coordinator exited: "
                                   f"{log_path.read_text().strip()[-300:]}")
            if time.monotonic() > deadline:
                raise RuntimeError("the coordinator did not come up")
            time.sleep(0.02)
        self.procs += [spawn_fabric_worker(self.address, reconnect=False,
                                           name=f"bench-w{i}")
                       for i in range(self.WORKERS)]
        _wait_for_workers(self.address, self.WORKERS,
                          deadline - time.monotonic())
        return self.address

    def pids(self) -> list[int]:
        """Process ids of the fabric's processes still running."""
        return [proc.pid for proc in self.procs if proc.poll() is None]

    def status(self) -> dict:
        from repro.fabric import fetch_status

        return fetch_status(self.address)

    def journal_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.state_dir.rglob("*")
                   if p.is_file())

    def stop(self) -> None:
        from repro.fabric import request_shutdown

        if self.address is not None and self.procs \
                and self.procs[0].poll() is None:
            try:
                request_shutdown(self.address)
            except (OSError, ConnectionError):
                pass
        for proc in self.procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs.clear()
        if self._log is not None:
            self._log.close()
            self._log = None


def timed_executor(address: str):
    """A ``FabricExecutor`` that stamps each job's submit and result."""
    from repro.campaign import FabricExecutor

    class TimedFabricExecutor(FabricExecutor):
        def __init__(self, connect):
            super().__init__(connect)
            self.sent: dict[int, float] = {}
            self.ops: list[Op] = []

        def submit(self, job, hints):
            self.sent[job.index] = time.perf_counter()
            return super().submit(job, hints)

        def drain(self, block: bool = True):
            done = super().drain(block)
            now = time.perf_counter()
            for future in done:
                result = future.result()
                self.ops.append(Op(now - self.sent[result.job.index],
                                   result.verdict not in FAILED, result))
            return done

    return TimedFabricExecutor(address)


class Workload:
    """Base: subclasses fill in set-up, rounds and checks."""

    #: Cap on timed rounds (None: as many as ``--seconds`` allows).
    max_rounds: int | None = None

    def __init__(self, rng, workdir: pathlib.Path):
        self.rng = rng
        self.workdir = workdir
        self.fabric: Fabric | None = None
        self.executors = []
        self.journal_bytes = 0

    def setup(self) -> None:
        pass

    def round(self) -> list[Op]:
        raise NotImplementedError

    def child_pids(self) -> list[int]:
        """Process ids of the workload's running subprocesses."""
        return self.fabric.pids() if self.fabric is not None else []

    def after_timed(self) -> None:
        """Called once the timed phase ends: take the fabric's counters
        and stop every process the workload started."""
        if self.fabric is not None:
            self.status_after = self.fabric.status()
            self.journal_bytes = self.fabric.journal_bytes()
            self.fabric.stop()

    def fold_layers(self, acc) -> None:
        """Add the per-layer numbers the workload itself observed."""

    def problems(self) -> list[str]:
        return []

    def close(self) -> None:
        if self.fabric is not None:
            self.fabric.stop()

    # -- fabric helpers -------------------------------------------------

    def start_fabric(self) -> str:
        self.fabric = Fabric(self.workdir)
        return self.fabric.start()

    def run_on_fabric(self, jobs, preset=None, timed: bool = True):
        from repro.campaign import run_campaign

        executor = timed_executor(self.fabric.address)
        campaign = run_campaign(jobs, executor=executor, preset=preset)
        if timed:
            self.executors.append(executor)
        return campaign, executor

    def fabric_layers(self, acc) -> None:
        """Per-layer numbers of the timed fabric submissions: worker
        costs from the ``CheckStats`` each result carries, latencies
        stamped by the client, counters from the coordinator."""
        import statistics

        ops = [op for ex in self.executors for op in ex.ops]
        hits = []
        for op in ops:
            result = op.result
            if result.cached:
                hits.append(op.latency)
                acc["campaign.wait_s"] += op.latency
                continue
            stats = result.stats
            acc["sat.solve_s"] += stats.solve_seconds
            acc["sat.calls"] += stats.sat_calls
            acc["sat.conflicts"] += stats.conflicts
            acc["sat.decisions"] += stats.decisions
            if result.job.algorithm == "ift-baseline":
                acc["ift.check_s"] += result.seconds
                # An IFT check's only preprocessing is BVE.
                acc["sat.bve_s"] += stats.preprocess_s
            _stats_of(acc, stats, result.detail)
            acc["campaign.exec_s"] += result.seconds
            acc["campaign.wait_s"] += max(0.0, op.latency - result.seconds)
        if ops:
            acc["campaign.submit_to_result_p50_s"] = statistics.median(
                op.latency for op in ops)
        if hits:
            acc["fabric.hit_latency_p50_s"] = statistics.median(hits)
            acc["fabric.hit_latency_p90_s"] = (
                statistics.quantiles(hits, n=10)[-1]
                if len(hits) > 1 else hits[0])
        before = self.status_before["coordinator"]
        after = self.status_after["coordinator"]
        acc["fabric.hits_served"] = (after["cache"]["hits_served"]
                                     - before["cache"]["hits_served"])
        for name in ("jobs_completed", "steals"):
            acc[f"fabric.{name}"] = after[name] - before[name]
        acc["fabric.journal_bytes"] = self.journal_bytes


# -- paper-cold ----------------------------------------------------------------


class PaperCold(Workload):
    """Serial in-process ``verify()`` of the paper obligations, cache off."""

    OBLIGATIONS = (("baseline", "alg1"), ("no_timer", "alg1"),
                   ("no_hwpe", "alg1"), ("secured", "alg1"),
                   ("baseline", "alg2"), ("secured", "alg2"))

    def setup(self) -> None:
        import repro.verify  # noqa: F401 - imports are part of set-up

        self.order = list(self.OBLIGATIONS)
        self.rng.shuffle(self.order)
        self.rounds: list[dict] = []

    def round(self) -> list[Op]:
        from repro.campaign.grids import paper_variant
        from repro.verify import verify

        ops, cells = [], {}
        for variant, method in self.order:
            start = time.perf_counter()
            verdict = verify(design=paper_variant(variant), method=method,
                             depth=2, use_cache=False)
            ops.append(Op(time.perf_counter() - start,
                          verdict.raw_verdict not in FAILED))
            cells[(variant, method)] = verdict
        self.rounds.append(cells)
        return ops

    def fold_layers(self, acc) -> None:
        for cells in self.rounds:
            for verdict in cells.values():
                _stats_of(acc, verdict.stats, verdict.detail)

    def problems(self) -> list[str]:
        from repro.campaign.grids import paper_variant
        from repro.verify import VerificationRequest

        problems = []
        for cells in self.rounds:
            problems += checks.paper_verdict_problems(cells)
            problems += checks.soundness_problems(cells)
        for (variant, method), verdict in sorted(self.rounds[0].items()):
            label = f"{variant} {method}"
            problems += checks.replay_problems(label, verdict)
            if method == "alg1" and verdict.secure:
                tm, _ = VerificationRequest(
                    design=paper_variant(variant)).resolve()
                problems += checks.fixed_point_problems(
                    label, tm, verdict.result_object().final_s)
        return problems


# -- grid-fabric ---------------------------------------------------------------


class GridFabric(Workload):
    """The paper grid run cold through ``FabricExecutor``."""

    #: A second pass would be answered from the coordinator's cache.
    max_rounds = 1

    def setup(self) -> None:
        from repro.campaign import paper_spec

        self.start_fabric()
        # The grid keeps its own job order: on two workers the order
        # sets the makespan, so a seeded order would move wall_s.  With
        # hints off every job is submitted at once; with donor hints
        # the second wave's submit times, and so verdict_p50_s, would
        # hinge on which donor finishes first.
        self.spec = paper_spec(record_traces=True, hints="off")
        self.status_before = self.fabric.status()

    def round(self) -> list[Op]:
        self.campaign, executor = self.run_on_fabric(self.spec)
        return executor.ops

    def fold_layers(self, acc) -> None:
        self.fabric_layers(acc)

    def problems(self) -> list[str]:
        from repro.campaign.grids import paper_variant
        from repro.verify import VerificationRequest

        problems = []
        cells = {(r.job.variant, r.job.algorithm): r.to_verdict()
                 for r in self.campaign.results}
        problems += checks.paper_verdict_problems(cells)
        problems += checks.ift_problems(cells)
        for executor in self.executors:
            if executor.inline_runs or executor.redials:
                problems.append("the fabric executor fell back to "
                                "in-process runs or re-dialled")
        for (variant, method), verdict in sorted(cells.items()):
            label = f"{variant} {method}"
            if verdict.cached:
                problems.append(f"{label}: a cold grid was served from "
                                f"a cache")
            problems += checks.replay_problems(label, verdict)
            if method == "alg1" and verdict.secure:
                tm, _ = VerificationRequest(
                    design=paper_variant(variant)).resolve()
                problems += checks.fixed_point_problems(
                    label, tm, verdict.result_object().final_s)
        return problems


# -- rerun-served --------------------------------------------------------------


class RerunServed(Workload):
    """Delta and full re-verification where everything is solved."""

    def setup(self) -> None:
        from repro.campaign import CampaignSpec
        from repro.campaign.grids import edit_variants
        from repro.verify import delta

        self.start_fabric()
        # The two-variant grid of the delta A/B benchmark, and its twin
        # with an in-cone edit confined to the second variant (the
        # first is every other variant's hint donor).
        self.spec = CampaignSpec(
            name="delta-grid", base="FORMAL_TINY",
            variants={"baseline": {}, "no_hwpe": {"include_hwpe": False}},
            algorithms=["alg1", {"algorithm": "bmc", "depths": [2]},
                        {"algorithm": "ift-baseline", "depths": [2]}],
            hints="first")
        self.edited = edit_variants(self.spec, {"priv_mem_latency": 1},
                                    only=("no_hwpe",),
                                    name="delta-grid-edited")
        self.baseline, _ = self.run_on_fabric(self.spec, timed=False)
        self.artifact = {"spec": self.spec.to_dict(),
                         "campaign": self.baseline.to_dict()}
        plan = delta.plan_delta_campaign(self.edited, self.artifact)
        self.twin, _ = self.run_on_fabric(plan.jobs, timed=False)
        self.status_before = self.fabric.status()
        self.mismatches: list[str] = []
        self.cone_hits = 0
        # The seed picks which part of a round goes first; rounds then
        # alternate, so every run has as many rounds of either order.
        self.parts = ["delta", "full"]
        self.rng.shuffle(self.parts)

    def round(self) -> list[Op]:
        from repro.fabric.smoke import diff_campaigns
        from repro.verify import delta

        ops = []
        self.parts.reverse()
        for part in self.parts:
            if part == "delta":
                plan = delta.plan_delta_campaign(self.edited, self.artifact)
                campaign, executor = self.run_on_fabric(
                    plan.jobs, preset=plan.serve)
                self.plan = plan
                self.cone_hits += len(plan.serve)
                reference = self.twin
            else:
                campaign, executor = self.run_on_fabric(self.spec)
                reference = self.baseline
            self.mismatches += [f"{part} rerun: {p}" for p in
                                diff_campaigns(reference, campaign)]
            ops += executor.ops
        return ops

    def fold_layers(self, acc) -> None:
        self.fabric_layers(acc)
        acc["verify.cone_hits"] += self.cone_hits + sum(
            1 for ex in self.executors for op in ex.ops
            if op.result.provenance.get("delta") == "cone-hit")

    def problems(self) -> list[str]:
        cells = {(r.job.variant, r.job.algorithm): r.to_verdict()
                 for r in self.baseline.results}
        problems = checks.paper_verdict_problems(cells)
        problems += checks.ift_problems(cells)
        problems += self.mismatches[:5]
        served = {self.plan.jobs[i].variant for i in self.plan.serve}
        rerun = {self.plan.jobs[i].variant for i in self.plan.rerun}
        if served != {"baseline"} or rerun != {"no_hwpe"}:
            problems.append(f"the delta plan served {sorted(served)} and "
                            f"re-ran {sorted(rerun)}")
        submissions = sum(len(ex.sent) for ex in self.executors)
        problems += checks.served_count_problems(
            submissions, self.status_before, self.status_after)
        problems += checks.audit_problems(self.plan)
        return problems


WORKLOADS = {
    "paper-cold": PaperCold,
    "grid-fabric": GridFabric,
    "rerun-served": RerunServed,
}
