"""Correctness checks that do not trust the verifier.

Every check takes the program's outputs (unified ``Verdict`` objects,
fabric ``status`` counters, a delta plan) and returns a list of
human-readable problems; an empty list means the output passed.  None
of them re-uses a result the verifier cached or derived: expected
verdicts come from the paper, counterexamples are replayed on the
cycle-accurate simulator, SECURE fixed points are re-proved by one
cold query on a freshly built miter, and served re-verification is
counted on both sides of the wire.

The checks run outside the timed phase of a workload.
"""

from __future__ import annotations

from repro.verify import SECURE, UNKNOWN, VULNERABLE

#: The paper's verdicts on the FORMAL_TINY variants, as
#: ``(variant, method) -> (unified status, native verdict)``.  Sec. 4.1
#: finds the DMA/HWPE channel on the baseline and on both reduced
#: variants (E5, E9); Sec. 4.2 proves the countermeasure; Algorithm 2
#: at k=2 stops at ``hold`` on the secured SoC.
PAPER_VERDICTS = {
    ("baseline", "alg1"): (VULNERABLE, "vulnerable"),
    ("no_timer", "alg1"): (VULNERABLE, "vulnerable"),
    ("no_hwpe", "alg1"): (VULNERABLE, "vulnerable"),
    ("secured", "alg1"): (SECURE, "secure"),
    ("baseline", "alg2"): (VULNERABLE, "vulnerable"),
    ("secured", "alg2"): (UNKNOWN, "hold"),
}


def paper_verdict_problems(cells) -> list[str]:
    """Cells of ``{(variant, method): Verdict}`` that disagree with the
    paper; cells the paper table does not name are ignored."""
    problems = []
    for cell, (status, raw) in PAPER_VERDICTS.items():
        verdict = cells.get(cell)
        if verdict is None:
            continue
        if (verdict.status, verdict.raw_verdict) != (status, raw):
            problems.append(
                f"{cell[0]} {cell[1]}: got {verdict.status}/"
                f"{verdict.raw_verdict}, the paper has {status}/{raw}")
    return problems


def soundness_problems(cells) -> list[str]:
    """Algorithm 2 must never be VULNERABLE where Algorithm 1 is SECURE."""
    problems = []
    for (variant, method), verdict in cells.items():
        if method != "alg1" or verdict.status != SECURE:
            continue
        alg2 = cells.get((variant, "alg2"))
        if alg2 is not None and alg2.status == VULNERABLE:
            problems.append(f"{variant}: Alg 2 is VULNERABLE where Alg 1 "
                            f"is SECURE")
    return problems


def ift_problems(cells) -> list[str]:
    """The IFT baseline over-approximates: it must report a flow on
    every variant where Algorithm 1 is VULNERABLE."""
    problems = []
    for (variant, method), verdict in cells.items():
        if method != "alg1" or verdict.status != VULNERABLE:
            continue
        ift = cells.get((variant, "ift-baseline"))
        if ift is None:
            problems.append(f"{variant}: no IFT baseline cell")
        elif ift.status != VULNERABLE:
            problems.append(f"{variant}: IFT reports {ift.raw_verdict} "
                            f"where Alg 1 is VULNERABLE")
    return problems


def replay_problems(label: str, verdict, circuit=None) -> list[str]:
    """A VULNERABLE Alg 1/2 verdict's counterexample must replay on the
    cycle-accurate simulator (``circuit`` defaults to a rebuild from
    the verdict's design fingerprint)."""
    if not verdict.vulnerable or verdict.method not in ("alg1", "alg2"):
        return []
    try:
        report = verdict.replay(circuit)
    except ValueError as exc:
        return [f"{label}: counterexample does not replay: {exc}"]
    if not report.ok:
        return [f"{label}: counterexample disagrees with the simulator "
                f"({len(report.mismatches)} mismatching register values)"]
    return []


def fixed_point_problems(label: str, threat_model, final_s) -> list[str]:
    """``final_s`` must be a fixed point of UPEC-SSC: assuming it equal
    in both instances at cycle t, no register of it can differ at t+1.

    One query on a freshly built, non-incremental miter with
    preprocessing off — none of the machinery of the run that produced
    ``final_s`` (warm sessions, cone substitution, simulation pruning,
    BVE, hints) takes part.
    """
    from repro.sat.preprocess import PreprocessConfig
    from repro.upec import UpecMiter

    s = set(final_s)
    unknown = sorted(s - set(threat_model.circuit.regs))
    if not s or unknown:
        return [f"{label}: final_s is empty or names non-registers "
                f"{unknown[:3]}"]
    miter = UpecMiter(threat_model, incremental=False,
                      preprocess=PreprocessConfig(enabled=False))
    cex = miter.probe([s, s])
    if cex is not None:
        return [f"{label}: final_s is not a fixed point "
                f"({len(cex.diff_names)} register(s) can diverge, e.g. "
                f"{sorted(cex.diff_names)[:3]})"]
    return []


def served_count_problems(submissions: int, before: dict,
                          after: dict) -> list[str]:
    """Two independent counts of served re-verification must agree.

    ``submissions`` is the client's own count of jobs it sent to the
    fabric; ``before``/``after`` are the coordinator's ``status``
    payloads around them.  Every submission must have been a cache hit
    the coordinator served, and no worker may have completed a job.
    """
    b, a = before["coordinator"], after["coordinator"]
    hits = a["cache"]["hits_served"] - b["cache"]["hits_served"]
    completed = a["jobs_completed"] - b["jobs_completed"]
    problems = []
    if submissions < 1:
        problems.append("the client submitted nothing to the fabric")
    if hits != submissions:
        problems.append(f"the client submitted {submissions} job(s) but "
                        f"the coordinator served {hits} cache hit(s)")
    if completed:
        problems.append(f"workers completed {completed} job(s) where "
                        f"every obligation was already solved")
    return problems


def audit_problems(plan, fraction: float = 0.25) -> list[str]:
    """Re-execute a sample of a delta plan's served cone hits from
    scratch; the served payloads must match bit for bit."""
    from repro.verify.delta import DeltaAuditError, audit_cone_hits

    try:
        audit = audit_cone_hits(plan, fraction=fraction)
    except DeltaAuditError as exc:
        return [str(exc)]
    if audit["sampled"] < 1:
        return ["the delta plan served no cone hit to audit"]
    return []
