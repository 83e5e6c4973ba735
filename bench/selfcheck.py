#!/usr/bin/env python3
"""Self-check of the benchmark's verdict checking.

Usage (from the repository root): python3 bench/selfcheck.py

Runs one cheap pinned job with its real expectations, then with corrupted
ones, and checks that each corruption is classified ``wrong`` and so
counted in ``wrong_verdicts``.  It also checks how exit codes, kills and
bound messages are classified.  Exits 0 when every check holds.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from run import OUT, classify, load_workloads, run_pass

JOB = "cycle:4 k=3"


def main() -> int:
    job = next(j for j in load_workloads()["negative-controls"] if j.id == JOB)
    corrupt_basis = replace(job, expect={**job.expect, "basis_size": job.expect["basis_size"] + 1})
    powers = [dict(p) for p in job.expect["powers"]]
    powers[-1]["linear_quotients"] = not powers[-1]["linear_quotients"]
    corrupt_power = replace(job, expect={**job.expect, "powers": powers})
    corrupt_covers = replace(job, covers=job.covers + 1, stretch=True, expect=None)
    decided_stretch = replace(job, stretch=True, expect=None)
    cases = [
        (job, "decided"),
        (corrupt_basis, "wrong"),
        (corrupt_power, "wrong"),
        (corrupt_covers, "wrong"),
        (decided_stretch, "decided"),
    ]
    work = OUT / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)
    result = run_pass([j for j, _ in cases], work, traced=False)
    failures = [
        f"{o['job']}: {o['status']} {o['problems']}, expected {want}"
        for o, (_, want) in zip(result["jobs"], cases)
        if o["status"] != want
    ]
    wrong = sum(o["status"] == "wrong" for o in result["jobs"])
    if wrong != 3:
        failures.append(f"wrong_verdicts counted {wrong}, expected 3")

    stderr_bound = "resource bound exceeded: 150 generators exceed the Betti bound 100\n"
    for args, want in [
        ((job, -9, True, "", None), ("undecided", "limit")),
        ((job, 3, False, stderr_bound, None), ("undecided", "betti_generator_bound")),
        ((job, 1, False, "Traceback ...\nAssertionError\n", None), ("wrong", None)),
        ((job, 2, False, "input error: x\n", None), ("wrong", None)),
        ((job, 0, False, "", None), ("wrong", None)),
    ]:
        got = classify(*args)[:2]
        if got != want:
            failures.append(f"classify exit {args[1]}: {got}, expected {want}")

    for line in failures:
        print(f"selfcheck: {line}", file=sys.stderr)
    print("selfcheck " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
