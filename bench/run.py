#!/usr/bin/env python3
"""Certificate benchmark: ``coverrees analyze`` jobs against pinned verdicts.

Usage (from the repository root):

    python3 bench/run.py --workload kernel-wall --seed 1 --seconds 40 --trace 0
    python3 bench/run.py                  # every workload, one after another

Each job is one ``coverrees`` CLI call in a fresh process.  Jobs run one at
a time (a closed loop with one client), in an order shuffled by ``--seed``;
the corpora themselves are fixed because their verdicts are pinned in
``bench/workloads.json``.  A job that outlives its wall limit is killed and
counted as undecided at the limit.  Passes repeat while another one fits in
``--seconds``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced passes with traced ones (``bench/child.py --trace``) and reports
per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the raw numbers of
every pass go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = str(BENCH / "child.py")
SETUP_GRAPH = "attach(path:3;edge,edge,edge)"
SETUP_SAMPLES = 9
POWER_FIELDS = (
    "minimal_generator_count",
    "standard_monomial_count",
    "minimal_generation",
    "linear_quotients",
    "componentwise_linear",
)
BOUND_REASONS = (
    ("exceed the Betti bound", "betti_generator_bound"),
    ("exceed the search bound", "search_bound"),
    ("lcm lattice exceeds", "lattice_bound"),
    ("raise the cap", "degree_cap"),
)


@dataclass
class Job:
    graph: str
    k: int
    limit_s: float
    covers: int
    reason: str
    flags: list[str]
    betti: bool = False
    stretch: bool = False
    expect: dict | None = None

    @property
    def id(self) -> str:
        return f"{self.graph} k={self.k}"

    def cli_args(self, report: Path) -> list[str]:
        args = ["--json", str(report), *self.flags, "analyze", self.graph, "-k", str(self.k)]
        return args + ["--betti"] if self.betti else args


@dataclass
class Outcome:
    job: str
    exit: int
    wall_s: float
    rss_mb: float
    killed: bool
    limit_s: float
    status: str  # decided, undecided or wrong
    reason: str | None = None  # why undecided
    unexpected: bool = False  # undecided although its verdict is pinned
    problems: list[str] = field(default_factory=list)

    @property
    def charged_s(self) -> float:
        return self.limit_s if self.killed else self.wall_s


def load_workloads() -> dict[str, list[Job]]:
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        name: [
            Job(flags=w["flags"], betti=w.get("betti", False), **j)
            for j in w["jobs"]
        ]
        for name, w in doc.items()
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Fixed hashing keeps set iteration, and so the traced counters, identical run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], limit_s: float, stdout: Path, stderr: Path):
    """Run argv to completion or kill it at limit_s.

    Returns (exit code, wall seconds, killed).  The child is waited for
    without reaping first, so the kill can never reach a reused pid.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
    lock = threading.Lock()
    state = {"done": False, "killed": False}

    def kill() -> None:
        with lock:
            if not state["done"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(limit_s, kill)
    timer.start()
    wall = None
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    finally:
        with lock:
            state["done"] = True
        timer.cancel()
        timer.join()
        if wall is None:  # interrupted: the child must not outlive the benchmark
            os.kill(proc.pid, signal.SIGKILL)
        _, status = os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    killed = state["killed"] and proc.returncode == -signal.SIGKILL
    return proc.returncode, wall, killed


def bound_reason(stderr_text: str) -> str:
    for needle, reason in BOUND_REASONS:
        if needle in stderr_text:
            return reason
    return "other_bound"


def check_report(job: Job, report: dict | None) -> list[str]:
    """Disagreements between a decided job's --json report and its pins."""
    if report is None:
        return ["no --json report"]
    problems = []
    if report.get("cover_count") != job.covers:
        problems.append(f"cover_count {report.get('cover_count')} != {job.covers}")
    if report.get("prediction_failures"):
        problems.append(f"prediction_failures {report['prediction_failures']}")
    if job.expect is None:
        return problems
    xc = report.get("x_condition", {})
    for key in ("x_condition", "quadratic", "basis_size"):
        if xc.get(key) != job.expect[key]:
            problems.append(f"{key} {xc.get(key)!r} != {job.expect[key]!r}")
    got = {p.get("k"): p for p in report.get("powers", [])}
    for pinned in job.expect["powers"]:
        entry = got.get(pinned["k"], {})
        for key in POWER_FIELDS:
            if entry.get(key) != pinned[key]:
                problems.append(f"k={pinned['k']} {key} {entry.get(key)!r} != {pinned[key]!r}")
    return problems


def classify(job: Job, code: int, killed: bool, stderr_text: str, report: dict | None):
    """(status, undecided reason, problems) for one finished job."""
    if killed:
        return "undecided", "limit", []
    if code == 3:
        return "undecided", bound_reason(stderr_text), []
    if code != 0:
        tail = stderr_text.strip().splitlines()[-1:] or [""]
        return "wrong", None, [f"exit {code}: {tail[0]}"]
    problems = check_report(job, report)
    return ("wrong" if problems else "decided"), None, problems


def read_json(path: Path) -> dict | None:
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_job(job: Job, work: Path, traced: bool) -> tuple[Outcome, dict | None]:
    """Run one job; returns its outcome and what the child recorded."""
    report, usage = work / "report.json", work / "usage.json"
    report.unlink(missing_ok=True)
    usage.unlink(missing_ok=True)
    argv = [sys.executable, CHILD, str(usage), *(["--trace", job.id] if traced else []), "--"]
    argv += job.cli_args(report.relative_to(ROOT))
    code, wall, killed = spawn(argv, job.limit_s, work / "stdout", work / "stderr")
    stderr_text = (work / "stderr").read_text(encoding="utf-8", errors="replace")
    recorded = None if killed else read_json(usage)
    doc = None if killed else read_json(report)
    status, reason, problems = classify(job, code, killed, stderr_text, doc)
    rss = recorded["peak_rss_kb"] / 1024.0 if recorded else 0.0
    outcome = Outcome(
        job.id, code, wall, rss, killed, job.limit_s, status, reason,
        unexpected=status == "undecided" and not job.stretch,
        problems=problems,
    )
    return outcome, recorded


def run_pass(jobs: list[Job], work: Path, traced: bool) -> dict:
    outcomes, span_docs, job_layers = [], [], []
    for job in jobs:
        o, recorded = run_job(job, work, traced)
        if traced and recorded:
            span_docs.append(recorded)
        job_layers.append(layer_metrics([recorded]) if traced and recorded else None)
        mark = f" ({o.reason})" if o.reason else ""
        extra = f" {o.problems}" if o.problems else ""
        print(f"  {'T' if traced else ' '} {o.job:34s} exit={o.exit:<3d} {o.wall_s:8.3f}s "
              f"{o.rss_mb:6.1f}MB {o.status}{mark}{extra}", file=sys.stderr)
        outcomes.append(o)
    undecided = sum(o.status == "undecided" for o in outcomes)
    finished = [o.rss_mb for o in outcomes if not o.killed]
    return {
        "traced": traced,
        "pass_s": sum(o.charged_s for o in outcomes),
        "undecided_share": undecided / len(outcomes),
        "peak_rss_mb": max(finished, default=0.0),
        "jobs": [{**vars(o), "layers": layers} for o, layers in zip(outcomes, job_layers)],
        "layers": layer_metrics(span_docs) if traced else None,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from spans


def layer_metrics(span_docs: list[dict]) -> dict[str, float]:
    """Per-layer sums over the traced jobs that ended on their own.

    ``*_s`` are inclusive span seconds, except the ones named ``self`` and
    ``homology_s``, which subtract the time of wrapped child calls.
    """
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, list] = {}
    aborts = 0
    limit_errors = {"GeneratorLimitExceeded", "LatticeLimitExceeded"}
    for doc in span_docs:
        spans = doc["spans"]
        child_s = [0.0] * len(spans)
        child_error = [False] * len(spans)
        for name, start, end, parent, _job, _value, error in spans:
            if parent >= 0:
                child_s[parent] += end - start
                child_error[parent] |= error is not None
        for i, (name, start, end, _parent, _job, value, error) in enumerate(spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_s[i])
            calls[name] = calls.get(name, 0) + 1
            if value is not None:
                values.setdefault(name, []).append(value)
            if error in limit_errors and not child_error[i] and name.startswith("resolutions."):
                aborts += 1

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def v(name):
        return values.get(name, [])

    reductions = n("binomial_gb.reduce_binomial")
    zero = sum(1 for d in v("binomial_gb.reduce_binomial") if d == 0)
    searches = n("resolutions.lq_search")
    main_s = t("cli.main")
    return {
        "binomial_gb.kernel_s": t("binomial_gb.toric_kernel"),
        "binomial_gb.kernel_share": t("binomial_gb.toric_kernel") / main_s if main_s else 0.0,
        "binomial_gb.buchberger_self_s": self_s.get("binomial_gb.buchberger", 0.0),
        "binomial_gb.reduce_s": t("binomial_gb.reduce_binomial"),
        "binomial_gb.s_pairs": n("binomial_gb.s_pair"),
        "binomial_gb.reductions": reductions,
        "binomial_gb.zero_reductions": zero,
        "binomial_gb.useful_reduction_ratio": (reductions - zero) / reductions if reductions else 0.0,
        "binomial_gb.basis_size": sum(v("binomial_gb.toric_kernel")),
        "binomial_gb.max_degree": max(v("binomial_gb.reduce_binomial"), default=0),
        "resolutions.lattice_s": t("resolutions.lcm_lattice"),
        "resolutions.lattice_points": sum(v("resolutions.lcm_lattice")),
        "resolutions.koszul_s": t("resolutions.koszul"),
        "resolutions.koszul_complexes": n("resolutions.koszul"),
        "resolutions.homology_s": self_s.get("resolutions.betti_table", 0.0),
        "resolutions.betti_s": t("resolutions.betti_table"),
        "resolutions.componentwise_s": t("resolutions.componentwise"),
        "resolutions.bound_aborts": aborts,
        "resolutions.lq_search_s": t("resolutions.lq_search"),
        "resolutions.lq_searches": searches,
        "resolutions.lq_found_ratio": sum(v("resolutions.lq_search")) / searches if searches else 0.0,
        "monomials.cover_ideal_s": t("monomials.cover_ideal"),
        "monomials.power_s": t("monomials.power"),
        "monomials.power_gens": sum(v("monomials.power")),
        "monomials.component_s": t("monomials.component"),
        "rees.presentation_self_s": self_s.get("rees.presentation", 0.0),
        "rees.x_condition_s": t("rees.x_condition"),
        "rees.standard_monomials_s": t("rees.standard_monomials"),
        "rees.mingen_check_s": t("rees.mingen_check"),
        "graphs.parse_s": t("graphs.parse"),
        "graphs.covers_s": t("graphs.covers"),
        "graphs.covers": sum(v("graphs.covers")),
        "trace.main_s": main_s,
    }


# ---------------------------------------------------------------------------
# Set-up, oracle, environment


def measure_setup(work: Path) -> list[float]:
    """Wall seconds of fresh processes that import the CLI and parse one graph."""
    argv = [sys.executable, CHILD, str(work / "usage.json"), "--", "construct", SETUP_GRAPH]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        code, wall, killed = spawn(argv, 60.0, work / "stdout", work / "stderr")
        text = (work / "stdout").read_text(encoding="utf-8")
        if code != 0 or killed or not json.loads(text).get("vertices"):
            raise RuntimeError(f"set-up probe failed with exit {code}")
        if i:  # the first call also writes the bytecode cache
            samples.append(wall)
    return samples


def check_cover_pins(workloads: dict[str, list[Job]]) -> None:
    """Every pinned cover count must equal the brute-force oracle's."""
    sys.path.insert(0, str(SRC))
    from coverrees.graphs import parse_construction

    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    for jobs in workloads.values():
        for job in jobs:
            source = str(ROOT / job.graph) if job.graph.endswith(".json") else job.graph
            count = len(oracles.brute_minimal_covers(parse_construction(source)))
            if count != job.covers:
                raise RuntimeError(f"{job.id}: pinned {job.covers} covers, oracle finds {count}")


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.exists():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


# ---------------------------------------------------------------------------
# Passes and reporting


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def run_workload(
    name: str, jobs: list[Job], seed: int, seconds: float, trace: bool, specs: list[dict]
) -> dict:
    """Run passes of one workload; specs are the BENCHMARK.json metrics to report."""
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    setup = measure_setup(work)
    rng = random.Random(seed)
    passes: list[dict] = []
    modes = (False, True) if trace else (False,)
    started = time.perf_counter()
    rounds = 0
    while True:
        order = list(jobs)
        rng.shuffle(order)
        print(f"{name}: pass {rounds + 1}, seed {seed}", file=sys.stderr)
        for traced in modes:
            passes.append(run_pass(order, work, traced))
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / rounds > seconds:
            break
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    outcomes = [o for p in passes for o in p["jobs"]]
    wrong = sum(o["status"] == "wrong" for o in outcomes)
    unexpected = sum(o["unexpected"] for o in outcomes)
    if trace:
        values = {key: statistics.median(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
        ratios = [t["pass_s"] / p["pass_s"] for p, t in zip(plain, traced)]
        values["trace.overhead_ratio"] = statistics.median(ratios)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": median_of(plain, "pass_s"),
            "decided_share": 1.0 - median_of(plain, "undecided_share"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    record.update(
        loadavg_end=os.getloadavg(),
        setup_samples=setup,
        passes=passes,
        wrong_verdicts=wrong,
        unexpected_undecided=unexpected,
        metrics=metrics,
    )
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    undecided = statistics.median(p["undecided_share"] for p in plain)
    for key, m in metrics.items():
        print(f"{name:18s} {key:38s} {m['value']:14.6f} {m['unit']}")
    print(f"{name:18s} {'undecided_share':38s} {undecided:14.6f} share")
    print(f"{name:18s} {'wrong_verdicts':38s} {wrong:14d} count")
    return {"correct": wrong == 0, "attempted": len(outcomes), "failed": wrong + unexpected, "metrics": metrics}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "coverrees" / "cli.py", ROOT / "tests" / "oracles.py") if not p.exists()]
    if missing:
        print(f"bench: source not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload != "all" and args.workload not in workloads:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    check_cover_pins(workloads)
    names = list(workloads) if args.workload == "all" else [args.workload]
    specs = spec["per_layer" if args.trace else "end_to_end"]
    results = {
        n: run_workload(n, workloads[n], args.seed, args.seconds, bool(args.trace), specs)
        for n in names
    }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
