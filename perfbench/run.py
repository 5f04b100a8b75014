"""Benchmark of the verification stack: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness check prints ``correct: false`` and
exits 1; a missing source tree exits 2 without a result.  See
``perfbench/README.md``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("verdict_p50_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MiB"))

PER_LAYER = (
    ("sat.solve_s", "s"), ("sat.calls", "count"),
    ("sat.conflicts", "count"), ("sat.decisions", "count"),
    ("sat.propagations", "count"), ("sat.props_per_s", "1/s"),
    ("sat.bve_s", "s"),
    ("aig.coi_s", "s"), ("aig.bitsim_s", "s"), ("aig.nodes", "count"),
    ("upec.check_s", "s"), ("upec.checks", "count"),
    ("upec.iterations", "count"), ("upec.sim_pruned", "count"),
    ("soc.build_s", "s"), ("soc.builds", "count"),
    ("ift.check_s", "s"),
    ("verify.execute_s", "s"), ("verify.fingerprint_s", "s"),
    ("verify.delta_plan_s", "s"), ("verify.cone_hits", "count"),
    ("campaign.submit_to_result_p50_s", "s"), ("campaign.exec_s", "s"),
    ("campaign.wait_s", "s"),
    ("fabric.hit_latency_p50_s", "s"), ("fabric.hit_latency_p90_s", "s"),
    ("fabric.hits_served", "count"), ("fabric.jobs_completed", "count"),
    ("fabric.steals", "count"), ("fabric.journal_bytes", "bytes"),
)

#: Per-layer metrics that are not sums over the timed phase.
NOT_SUMMED = {"sat.props_per_s", "campaign.submit_to_result_p50_s",
              "fabric.hit_latency_p50_s", "fabric.hit_latency_p90_s",
              "fabric.journal_bytes"}


def _since_process_start() -> float:
    """Seconds between this process's start and ``_T0`` (interpreter
    start-up), read from /proc at 10 ms resolution; 0 elsewhere."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    started = start_ticks / os.sysconf("SC_CLK_TCK")
    return max(0.0, uptime - started - (time.perf_counter() - _T0))


def _cpu_s(pids=()) -> float:
    """User plus system CPU seconds of this process, its reaped children
    and the running children ``pids`` (read from /proc, in clock ticks)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        cpu += (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return cpu


def _peak_rss_mb() -> float:
    """Peak RSS (MiB) of this process or any of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def main(argv=None) -> int:
    startup = _since_process_start()
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("paper-cold", "grid-fabric",
                                 "rerun-served"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    tracer = Tracer().install() if args.trace else None
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](random.Random(args.seed), workdir)
    try:
        workload.setup()
        setup_s = startup + time.perf_counter() - _T0
        cpu_before = _cpu_s(workload.child_pids())
        if tracer is not None:
            tracer.reset()
        ops, rounds = [], []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            ops += workload.round()
            rounds.append(time.perf_counter() - began)
            if time.perf_counter() - start >= args.seconds or \
                    len(rounds) == workload.max_rounds:
                break
        # CPU of one timed round.  Set-up is left out: its cost shows in
        # setup_s, and a kernel change should move only setup_s on
        # rerun-served.  Dividing by the rounds keeps a faster round,
        # which fits more rounds into --seconds, from reading as more CPU.
        cpu_s = (_cpu_s(workload.child_pids()) - cpu_before) / len(rounds)
        if tracer is not None:
            tracer.uninstall()  # the checks below are not timed
        workload.after_timed()
        peak_rss_mb = _peak_rss_mb()
        problems = workload.problems()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        acc = tracer.acc
        workload.fold_layers(acc)
        if acc["sat.solve_s"] > 0:
            acc["sat.props_per_s"] = acc["sat.propagations"] / acc["sat.solve_s"]
        # Sums are reported per round, so a workload that fits more
        # rounds into --seconds does not look like it does more work.
        metrics = {name: {"value": acc.get(name, 0) if name in NOT_SUMMED
                          else acc.get(name, 0) / len(rounds),
                          "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": sum(rounds) / len(rounds),
            "verdict_p50_s": statistics.median(op.latency for op in ops),
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(f"{args.workload}: {len(rounds)} round(s) in "
          f"{sum(rounds):.3f} s, {len(ops)} operation(s), "
          f"set-up {setup_s:.3f} s", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op.ok),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
