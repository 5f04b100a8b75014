"""Each correctness check of the benchmark rejects a tampered output.

The checks run on tiny hand-built designs (milliseconds per query), so
these tests add only seconds to a test run and write no file.
"""

import copy

import pytest

from perfbench import checks
from perfbench.tracer import Tracer
from repro.campaign import Job, run_job
from repro.rtl import Circuit, mux
from repro.upec import ThreatModel, VictimPort
from repro.verify import SECURE, UNKNOWN, VULNERABLE, Verdict, verify
from repro.verify.delta import DeltaPlan
from repro.verify.request import register_builder


def _circuit(name: str):
    c = Circuit(name)
    valid = c.add_input("v_valid", 1)
    for port, width in (("v_addr", 4), ("v_we", 1), ("v_wdata", 4)):
        c.add_input(port, width)
    c.add_input("victim_page", 2)
    return c, valid


def _threat_model(c: Circuit) -> ThreatModel:
    return ThreatModel(
        circuit=c,
        victim_port=VictimPort(valid="v_valid", addr="v_addr",
                               write="v_we", wdata="v_wdata"),
        victim_page="victim_page", page_bits=2)


def leaky() -> ThreatModel:
    """A bus-activity counter in an IP: counts every victim request."""
    c, valid = _circuit("leaky")
    count = c.scope("soc").child("spy").reg("count", 4, kind="ip")
    c.set_next(count, mux(valid, count + 1, count))
    return _threat_model(c)


def chained() -> ThreatModel:
    """Secure: a free-running counter and a register copying it."""
    c, _ = _circuit("chained")
    ip = c.scope("soc").child("timer")
    count = ip.reg("count", 4, kind="ip")
    copy_reg = ip.reg("copy", 4, kind="ip")
    c.set_next(count, count + 1)
    c.set_next(copy_reg, count)
    return _threat_model(c)


def _verdict(status, raw, method="alg1"):
    return Verdict(status=status, method=method, raw_verdict=raw)


def _paper_cells():
    return {(variant, method): _verdict(status, raw, method)
            for (variant, method), (status, raw)
            in checks.PAPER_VERDICTS.items()}


def test_paper_verdicts_reject_a_flipped_verdict():
    cells = _paper_cells()
    assert checks.paper_verdict_problems(cells) == []
    cells[("secured", "alg1")] = _verdict(VULNERABLE, "vulnerable")
    assert checks.paper_verdict_problems(cells)
    cells = _paper_cells()
    cells[("secured", "alg2")] = _verdict(SECURE, "secure", "alg2")
    assert checks.paper_verdict_problems(cells)


def test_soundness_rejects_alg2_vulnerable_where_alg1_secure():
    cells = {("secured", "alg1"): _verdict(SECURE, "secure"),
             ("secured", "alg2"): _verdict(UNKNOWN, "hold", "alg2")}
    assert checks.soundness_problems(cells) == []
    cells[("secured", "alg2")] = _verdict(VULNERABLE, "vulnerable", "alg2")
    assert checks.soundness_problems(cells)


def test_ift_rejects_a_missing_flow():
    cells = {("baseline", "alg1"): _verdict(VULNERABLE, "vulnerable"),
             ("baseline", "ift-baseline"):
                 _verdict(VULNERABLE, "flow", "ift-baseline")}
    assert checks.ift_problems(cells) == []
    cells[("baseline", "ift-baseline")] = \
        _verdict(SECURE, "no-flow", "ift-baseline")
    assert checks.ift_problems(cells)


def test_replay_rejects_a_perturbed_counterexample():
    tm = leaky()
    verdict = verify(design=tm, method="alg1")
    assert verdict.vulnerable
    assert checks.replay_problems("leaky", verdict, tm.circuit) == []
    cex = verdict.detail["result"]["counterexample"]
    cex["trace_a"]["cycles"][1]["soc.spy.count"] ^= 1
    assert checks.replay_problems("leaky", verdict, tm.circuit)


def test_replay_rejects_a_vulnerable_verdict_without_counterexample():
    tm = leaky()
    verdict = verify(design=tm, method="alg1")
    del verdict.detail["result"]["counterexample"]
    assert checks.replay_problems("leaky", verdict, tm.circuit)


def test_fixed_point_rejects_a_dropped_register():
    tm = chained()
    verdict = verify(design=tm, method="alg1")
    assert verdict.secure
    final_s = verdict.result_object().final_s
    assert final_s == {"soc.timer.count", "soc.timer.copy"}
    assert checks.fixed_point_problems("chained", chained(), final_s) == []
    assert checks.fixed_point_problems(
        "chained", chained(), final_s - {"soc.timer.count"})
    assert checks.fixed_point_problems("chained", chained(), set())


def test_served_counts_reject_a_miss_or_a_solve():
    def status(hits, completed):
        return {"coordinator": {"cache": {"hits_served": hits},
                                "jobs_completed": completed}}

    assert checks.served_count_problems(9, status(3, 8), status(12, 8)) == []
    assert checks.served_count_problems(9, status(3, 8), status(11, 8))
    assert checks.served_count_problems(9, status(3, 8), status(12, 9))
    assert checks.served_count_problems(0, status(3, 8), status(3, 8))


def test_audit_rejects_a_tampered_served_payload():
    register_builder("perfbench-leaky", leaky)
    job = Job(index=0, campaign="audit", variant="leaky",
              variant_id="builder:perfbench-leaky()",
              design={"kind": "builder", "ref": "perfbench-leaky",
                      "args": {}},
              threat="default", threat_overrides={}, algorithm="alg1",
              depth=1)
    served = run_job(job)
    assert served.verdict == "vulnerable"
    plan = DeltaPlan(jobs=[job], serve={0: served})
    assert checks.audit_problems(plan, fraction=1.0) == []
    tampered = copy.deepcopy(served)
    tampered.detail["result"]["leaking"] = []
    plan.serve[0] = tampered
    assert checks.audit_problems(plan, fraction=1.0)


def test_tracer_counts_solves_and_restores_the_program():
    from repro.sat.session import IncrementalSession
    from repro.soc import pulpissimo
    from repro.verify import engine

    solve, build, execute = (IncrementalSession.solve,
                             pulpissimo.build_soc, engine.execute)
    tracer = Tracer().install()
    try:
        assert engine.execute is not execute
        verify(design=leaky(), method="alg1")
    finally:
        tracer.uninstall()
    assert tracer.acc["sat.calls"] >= 1
    assert tracer.acc["upec.checks"] >= 1
    assert tracer.acc["verify.execute_s"] > 0
    assert (IncrementalSession.solve, pulpissimo.build_soc,
            engine.execute) == (solve, build, execute)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
