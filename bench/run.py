"""gcf-forge benchmark: seeded `gcf-forge verify` jobs, checked against known answers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's `src/`. Each job is `gcf_forge.cli.main(["verify", file,
"--digits", D, "--depth", N, "--json", out])`, called in-process with its
output captured, so loading, the pipeline and the JSON report are all
timed. One client, closed loop: the next job starts when the previous one
returns. A run repeats whole cycles of the workload's job list (shuffled
per cycle by the seed) for about S seconds.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 the run alternates untraced and traced cycles and reports
per-layer metrics from the traced ones, timed by spans.py around the
program's public functions. Workloads, metrics and the layer map are
described in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from spans import LAYERS, Recorder
from workloads import Job, closed_form_job, closed_form_six, screening_corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PRECISION_ENV_VAR = "GCF_FORGE_PRECISION_BITS"
SETUP_REPEATS = 15


@dataclass(frozen=True)
class Workload:
    digits: int
    depth: int
    # far above every job's time at the seed, so overruns mean a regression
    budget_s: float
    jobs: Callable[[int], list[Job]]
    # control job size, near the workload's median job time, and how many
    # control slots each cycle holds
    control_steps: int
    control_slots: int


WORKLOADS = {
    # the six closed forms; the seed only orders them
    "deep-structural": Workload(30, 250, 10.0, lambda seed: closed_form_six(), 1450, 2),
    "high-precision": Workload(150, 16, 10.0, lambda seed: closed_form_six(), 950, 2),
    "screening-corpus": Workload(20, 16, 2.0, screening_corpus, 600, 8),
}

SPAN_METRICS = (
    "gcf.convergents", "gcf.casoratian", "verify.structural", "verify.agreement",
    "series.partial_sums", "series.sum", "series.certificate", "numerics.convert",
    "expr.target_eval", "poly.factor", "factorize.search", "cli.load", "cli.report",
)


class JobOverrun(BaseException):
    """Raised from SIGALRM when a job exceeds its wall budget.

    A BaseException, so that no `except Exception` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise JobOverrun


def control_job(steps: int) -> Fraction:
    """Fixed exact arithmetic that does not touch gcf_forge.

    A three-term recurrence in stdlib Fractions, the kind of work the
    program does. Timed in the same cycles as the jobs, it shows how fast
    the host runs such code during the run.
    """
    a, b = Fraction(1), Fraction(1)
    for k in range(1, steps):
        a, b = b, Fraction(3 * k * k + 3 * k + 1, 2) * b - Fraction(2 * k**4 - k**3, 3) * a
    return a / b


def set_up(workload: Workload, seed: int):
    """Import gcf_forge cold, write the inputs and run a warm-up job."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("gcf_forge", "mpmath")]:
        del sys.modules[name]
    gc.collect()  # free the previous import, so repeats do not raise peak memory
    start = perf_counter()
    cli = importlib.import_module("gcf_forge.cli")
    jobs = workload.jobs(seed)
    paths = []
    for job in jobs:
        path = WORK / f"{job.key}.json"
        path.write_text(json.dumps(job.problem_document()))
        paths.append(path)
    warm = WORK / "warm-up.json"
    warm.write_text(json.dumps(closed_form_job("warm-up", "asin2", 2).problem_document()))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", str(warm), "--digits", "10", "--depth", "8"])
    if code != 0:
        raise RuntimeError(f"warm-up job exited with {code}")
    return perf_counter() - start, cli, jobs, paths


class Runner:
    def __init__(self, cli, workload: Workload, jobs, paths, expected, oracle):
        self.cli = cli
        self.workload = workload
        self.jobs = jobs
        self.paths = paths
        self.expected = expected
        self.oracle = oracle
        self.out = WORK / "report.json"
        self.records: list[dict] = []
        self.recorder: Recorder | None = None  # set while a traced cycle runs
        self.trace = Recorder()
        self.wrong: list[str] = []
        self.control_times: dict[int, list[float]] = {}  # slot -> repetitions

    def run_job(self, index: int) -> None:
        wl = self.workload
        argv = ["verify", str(self.paths[index]), "--digits", str(wl.digits),
                "--depth", str(wl.depth), "--json", str(self.out)]
        self.out.unlink(missing_ok=True)
        rec = self.recorder
        if rec is not None:
            rec.job = len(self.records)
            first_span = len(rec.spans)
            rec.begin("job")
        sink = io.StringIO()
        start = perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, wl.budget_s)
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = self.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobOverrun:
            code, outcome = None, "overrun"
        except Exception as exc:  # the program raised out of main: a failed job
            code, outcome = None, "raised"
            self.wrong.append(f"{self.jobs[index].key}: raised {type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        if rec is not None:
            rec.close_job(first_span)
        if code is not None:
            problems = self._check(index, code)
            outcome = "wrong" if problems else "ok"
            if problems:
                self.wrong.append(f"{self.jobs[index].key}: {', '.join(problems)}")
        coupled = outcome == "ok" and self.jobs[index].coupling is not None
        self.records.append({"job": index, "seconds": seconds, "outcome": outcome,
                             "traced": rec is not None, "coupled": coupled})

    def _check(self, index: int, code: int) -> list[str]:
        try:
            report = json.loads(self.out.read_text())
        except (OSError, ValueError):
            return ["no JSON report"]
        wl = self.workload
        try:
            with self.oracle.mpmath.workdps(2 * wl.digits + 10):
                return self.oracle.check(report, code, self.expected[index], wl.digits, wl.depth)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"report not in the expected format ({type(exc).__name__}: {exc})"]

    def run_control(self, slot: int) -> None:
        start = perf_counter()
        control_job(self.workload.control_steps)
        self.control_times.setdefault(slot, []).append(perf_counter() - start)

    def control_s(self) -> float:
        """The control job's time: its slots' best repetitions, averaged."""
        return statistics.fmean(min(times) for times in self.control_times.values())

    def run_cycle(self, order_rng: random.Random, traced: bool, deadline: float) -> float:
        """Run every job and control slot once, in a seeded order.

        Stops early only past the run's hard deadline.
        """
        if traced:
            self.recorder = self.trace
            self.recorder.install()
        n = len(self.jobs)
        slots = n + self.workload.control_slots
        start = perf_counter()
        try:
            for index in order_rng.sample(range(slots), slots):
                if perf_counter() > deadline:
                    break
                if index < n:
                    self.run_job(index)
                else:
                    self.run_control(index - n)
        finally:
            if traced:
                self.recorder.uninstall()
                self.recorder = None
        return perf_counter() - start


def best_times(records) -> tuple[dict, int]:
    """Each job's fastest repetition, and how many jobs passed every time.

    Other tenants of the host slow whole stretches of a run, by up to three
    quarters; the fastest of a job's repetitions is the figure they disturb
    least, as with timeit.
    """
    best: dict = {}
    failed = set()
    for r in records:
        best[r["job"]] = min(best.get(r["job"], float("inf")), r["seconds"])
        if r["outcome"] != "ok":
            failed.add(r["job"])
    return best, len(best) - len(failed)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _rate(records) -> float:
    best, ok = best_times(records)
    return _ratio(ok, sum(best.values()))


def end_to_end_metrics(records, setup_times, control_s: float) -> tuple[dict, dict]:
    """The metrics, and the raw job timings behind the control-relative ones."""
    best = sorted(best_times(records)[0].values())
    raw = {
        "jobs_per_s": _rate(records),
        "job_p50_s": statistics.median(best),
        "job_p95_s": statistics.quantiles(best, n=20, method="inclusive")[18],
        "control_s": control_s,
    }
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_ctl": (raw["jobs_per_s"] * control_s, "1/ctl"),
        "job_p50_ctl": (raw["job_p50_s"] / control_s, "ctl"),
        "job_p95_ctl": (raw["job_p95_s"] / control_s, "ctl"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, raw


def per_layer_metrics(records, rec: Recorder) -> tuple[dict, dict]:
    traced = [r for r in records if r["traced"]]
    n = len(traced)
    selfs = rec.self_times()
    job_time = selfs.pop("job", 0.0) + sum(selfs.values())  # total of the job spans
    metrics = {f"{name}_s": (_ratio(selfs[name], n), "s") for name in SPAN_METRICS}
    layer_self = {layer: sum(t for name, t in selfs.items() if name.split(".")[0] == layer)
                  for layer in LAYERS}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (_ratio(layer_self[layer], n), "s")
    totals: Counter = Counter()
    for counts in rec.counts.values():
        totals.update(counts)
    max_bits = max((c["gcf.max_int_bits"] for c in rec.counts.values()), default=0)
    coupled = [i for i, r in enumerate(records) if r["coupled"]]
    frames = sum(rec.counts[i]["gcf.frames"] for i in coupled if i in rec.counts)
    coupled_traced = sum(records[i]["traced"] for i in coupled)
    metrics["gcf.frames_per_job"] = (_ratio(frames, coupled_traced), "count")
    metrics["gcf.max_int_bits"] = (max_bits, "bits")
    metrics["series.terms_used"] = (_ratio(totals["series.terms_used"], totals["series.sums"]), "count")
    metrics["factorize.eligible_ratio"] = (
        _ratio(totals["factorize.eligible"], totals["factorize.found"]), "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (totals[f"{layer}.errors"], "count")
    metrics["failed_frac"] = (_ratio(sum(r["outcome"] != "ok" for r in records), len(records)), "ratio")
    metrics["trace.coverage"] = (_ratio(sum(layer_self.values()), job_time), "ratio")
    untraced = [r for r in records if not r["traced"]]
    metrics["trace.overhead"] = (_ratio(_rate(untraced), _rate(traced)) - 1, "ratio")
    shares = {layer: round(_ratio(layer_self[layer], job_time), 4) for layer in LAYERS}
    return metrics, {"layer_share_of_job_time": shares, "traced_jobs": n, "coupled_traced_jobs": coupled_traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gcf_forge" / "__init__.py").is_file():
        print(f"error: no gcf_forge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    precision_override = os.environ.pop(PRECISION_ENV_VAR, None)
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, cli, jobs, paths = set_up(workload, args.seed)
        setup_times.append(seconds)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gcf_forge from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import oracle  # after set-up, so it shares the mpmath that gcf_forge imported

    with oracle.mpmath.workdps(2 * workload.digits + 10):
        expected = [oracle.expect(job, workload.digits, workload.depth) for job in jobs]
    runner = Runner(cli, workload, jobs, paths, expected, oracle)
    signal.signal(signal.SIGALRM, _on_alarm)

    order_rng = random.Random(args.seed)
    # whole cycles, as many as end nearest to --seconds; a traced run needs
    # an untraced and a traced cycle at least. Past the hard deadline (only
    # reached when jobs overrun) no job starts, so the run ends in time.
    deadline = perf_counter() + 2 * args.seconds + 30
    elapsed, cycles = 0.0, 0
    while cycles < 1 + args.trace or elapsed + elapsed / cycles / 2 < args.seconds:
        traced = bool(args.trace) and cycles % 2 == 1
        elapsed += runner.run_cycle(order_rng, traced, deadline)
        cycles += 1

    records = runner.records
    outcomes = Counter(r["outcome"] for r in records)
    detail: dict = {"jobs": len(records), "cycles": cycles, "outcomes": dict(outcomes),
                    "setup_times_s": setup_times}
    rec = runner.trace
    if args.trace:
        metrics, more = per_layer_metrics(records, rec)
        detail.update(more, absent_wrapped_names=rec.absent)
        rec.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics, detail["raw_timings"] = end_to_end_metrics(records, setup_times, runner.control_s())
        detail["percentile_samples"] = len(best_times(records)[0])
    env = {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "mpmath": oracle.mpmath.__version__,
        "mpmath_backend": oracle.mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "digits": workload.digits, "depth": workload.depth,
        "budget_s": workload.budget_s, "jobs_per_cycle": len(jobs),
        f"{PRECISION_ENV_VAR}_was": precision_override,
    }
    for line in runner.wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    result = {
        "correct": not (outcomes["wrong"] or outcomes["raised"]),
        "attempted": len(records),
        "failed": len(records) - outcomes["ok"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "detail": detail, "result": result, "records": records}) + "\n")
    print(json.dumps({"env": env, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
