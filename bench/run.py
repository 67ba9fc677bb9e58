"""Benchmark of the coauthnet CLI on seeded synthetic corpora.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run it from a checkout: it runs the package in ../src. Each timed run
starts fresh coauthnet processes, the way users invoke the CLI, checks
every artifact they write, and repeats until the time budget is spent.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
runs with runs under bench/tracer.py and reports the per-layer metrics.
--workload all runs every workload both ways and prints every metric.
The last line of stdout is a JSON object with the keys correct,
attempted, failed and metrics. See bench/README.md for the workloads and
what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from corpus import corpus_rows, expected_graph_size, write_jsonl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

INPUT = "input.jsonl"
OUT = "out"
# The same statement the `coauthnet` console script runs.
CLI = ("-c", "import sys; from coauthnet.cli import main; sys.exit(main())")

SETUP_REPEATS = 5
# Every child process of one workload run must end by this many seconds
# after the run starts.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    records: int
    countries: int | None  # first N registry countries; None means all
    commands: tuple[tuple[str, ...], ...]  # one CLI process each, in order
    artifacts: tuple[str, ...] | None = None  # None: report.md and every file it links


_STAGE_ARGS = ("--out", OUT, "--sw-samples", "1")

WORKLOADS = {
    w.name: w
    for w in (
        # The criterion-9 corpus through a default report: small-world sampling dominates.
        Workload(
            "report_10k",
            10_000,
            100,
            (("report", "--input", INPUT, "--out", OUT),),
        ),
        # Yearly cumulative windows: graph builds and window summaries dominate,
        # small-world sampling is bypassed.
        Workload(
            "windows_20k",
            20_000,
            None,
            (
                ("report", "--input", INPUT, "--out", OUT, "--mode", "cumulative",
                 "--window-length", "1", "--step", "1", "--sw-samples", "1"),
            ),
        ),
        # One process per stage on one output directory: artifact reloads and
        # the main-graph metrics dominate.
        Workload(
            "staged_10k",
            10_000,
            None,
            (
                ("ingest", "--input", INPUT, *_STAGE_ARGS),
                ("build", *_STAGE_ARGS),
                ("metrics", *_STAGE_ARGS),
                ("slice", *_STAGE_ARGS),
                ("densify", *_STAGE_ARGS),
                ("export", *_STAGE_ARGS),
            ),
            (
                "config.json", "records.jsonl", "coverage.json", "graph.json", "summary.json",
                "centrality.json", "degree_histogram.json", "smallworld.json", "windows.json",
                "series_summary.csv", "snapshots.csv", "densification.json",
                "network.net", "network.clu", "network.dot", "network.svg",
            ),
        ),
    )
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("records_per_s", "records/s"),
    ("setup_s", "s"),
    ("success_rate", "fraction"),
)

# Per-layer self times: metric -> spans whose self time it sums.
SELF_TIMES = {
    "metrics.small_world_s": ("metrics.small_world",),
    "metrics.random_edge_set_s": ("metrics.random_edge_set",),
    "metrics.path_stats_s": ("metrics.path_stats",),
    "metrics.clustering_s": ("metrics.clustering",),
    "metrics.summary_s": ("metrics.summary",),
    "metrics.centrality_table_s": ("metrics.centrality_table",),
    "metrics.betweenness_s": ("metrics.betweenness",),
    "metrics.closeness_s": ("metrics.closeness",),
    "graph.build_network_s": ("graph.build_network",),
    "graph.subgraph_s": ("graph.induced_subgraph", "graph.graph_from_edges"),
    "graph.load_s": ("graph.load",),
    "graph.save_s": ("graph.save",),
    "countries.registry_load_s": ("countries.registry_load",),
    "ingest.parse_records_s": ("ingest.parse_records",),
    "ingest.filter_topic_s": ("ingest.filter_topic",),
    "ingest.coverage_stats_s": ("ingest.coverage_stats",),
    "ingest.write_records_s": ("ingest.write_records",),
    "temporal.metric_series_s": ("temporal.metric_series",),
    "temporal.densification_snapshots_s": ("temporal.densification_snapshots",),
    "temporal.first_year_series_s": ("temporal.first_year_series",),
    "temporal.discipline_series_s": ("temporal.discipline_series",),
    "export.pajek_s": ("export.pajek",),
    "export.dot_s": ("export.dot",),
    "export.svg_s": ("export.svg",),
    "export.emit_series_s": ("export.emit_series",),
    "cli.stage.ingest_s": ("cli.stage.ingest",),
    "cli.stage.build_s": ("cli.stage.build",),
    "cli.stage.metrics_s": ("cli.stage.metrics",),
    "cli.stage.slice_s": ("cli.stage.slice",),
    "cli.stage.densify_s": ("cli.stage.densify",),
    "cli.stage.export_s": ("cli.stage.export",),
    "cli.report_self_s": ("cli.stage.report",),
}
# Per-layer inclusive times: metric -> span whose whole duration it sums.
# The small-world kernels are child spans of small_world, so its self time
# leaves them out; its total shows the share of the run it accounts for.
TOTAL_TIMES = {
    "metrics.small_world_total_s": "metrics.small_world",
}
# Per-layer call counts: metric -> span counted.
CALLS = {
    "metrics.random_edge_set_calls": "metrics.random_edge_set",
    "metrics.path_stats_calls": "metrics.path_stats",
    "metrics.clustering_calls": "metrics.clustering",
    "metrics.components_calls": "metrics.components",
    "metrics.summary_calls": "metrics.summary",
    "metrics.centrality_table_calls": "metrics.centrality_table",
    "graph.build_network_calls": "graph.build_network",
    "ingest.parse_records_calls": "ingest.parse_records",
    "ingest.coverage_stats_calls": "ingest.coverage_stats",
}
# Counters the tracer takes at span boundaries (see tracer.COUNTERS).
WORK_COUNTS = (
    "metrics.sw_samples",
    "graph.records_scanned",
    "countries.resolve_calls",
    "ingest.records_parsed",
    "temporal.windows",
    "temporal.snapshots",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in reporting order."""
    units = {name: "s" for name in (*SELF_TIMES, *TOTAL_TIMES)}
    units.update({name: "count" for name in (*CALLS, *WORK_COUNTS)})
    units.update({
        "export.artifact_bytes": "bytes",
        "export.artifact_files": "count",
        "cli.processes": "count",
        "cli.startup_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# ---------------------------------------------------------------------------
# Processes


@dataclass
class ProcessRun:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stderr: str


def run_process(argv: list[str], cwd: Path, timeout: float) -> ProcessRun:
    """Run one child to completion; wall, CPU and max RSS come from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    waited = []
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        waiter = threading.Thread(target=lambda: waited.append((os.wait4(proc.pid, 0), time.perf_counter())))
        waiter.start()
        try:
            waiter.join(timeout)
        finally:
            if waiter.is_alive():
                proc.kill()
                waiter.join()
        (_, status, usage), end = waited[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return ProcessRun(
        code=proc.returncode,
        wall=end - start,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stderr=stderr,
    )


# ---------------------------------------------------------------------------
# One workload run


@dataclass
class Rep:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    elapsed: float = 0.0  # including the output check
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    files: int = 0
    bytes: int = 0


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float):
        import checks  # imports coauthnet, so only after the source tree is on sys.path

        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = RUN_DIR / "work" / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.expected_n = 0
        self.expected_m = 0
        self.digest: str | None = None

    def setup(self) -> list[float]:
        """Generate and write the input SETUP_REPEATS times; returns each time."""
        from coauthnet.countries import builtin_registry

        registry = builtin_registry()
        names = [registry.get(code).display_name for code in registry.codes()]
        names = names[: self.workload.countries] if self.workload.countries else names
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        times, hashes = [], set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            rows = corpus_rows(self.seed, self.workload.records, names)
            write_jsonl(self.work / INPUT, rows)
            times.append(time.perf_counter() - start)
            hashes.add(hashlib.sha256((self.work / INPUT).read_bytes()).hexdigest())
        if len(hashes) != 1:
            raise RuntimeError("the corpus generator is not deterministic")
        self.expected_n, self.expected_m = expected_graph_size(rows)
        return times

    def run_once(self, traced: bool, index: int) -> Rep:
        rep = Rep(traced=traced)
        start = time.perf_counter()
        out = self.work / OUT
        shutil.rmtree(out, ignore_errors=True)
        procs = []
        for i, args in enumerate(self.workload.commands):
            if traced:
                spans = self.work / f"spans-{index}-{i}.json"
                argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), "--", *args]
            else:
                argv = [sys.executable, *CLI, *args]
            timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
            proc = run_process(argv, self.work, timeout)
            procs.append(proc)
            if proc.code != 0:
                rep.problems.append(f"{args[0]} exited {proc.code}: {proc.stderr.strip()[-500:]}")
                break
            if traced:
                rep.traces.append(json.loads(spans.read_text(encoding="utf-8")))
        rep.wall = sum(p.wall for p in procs)
        rep.cpu = sum(p.cpu for p in procs)
        rep.rss_mb = max(p.rss_mb for p in procs)
        if not rep.problems:
            self._check(rep, out)
        rep.elapsed = time.perf_counter() - start
        return rep

    def _check(self, rep: Rep, out: Path) -> None:
        try:
            names = self.workload.artifacts or self.checks.report_artifacts(out)
        except OSError as exc:
            rep.problems.append(f"report.md: {exc}")
            return
        rep.problems += self.checks.check_artifacts(out, names, self.expected_n, self.expected_m)
        rep.digest = self.checks.tree_digest(out)
        rep.files, rep.bytes = self.checks.tree_size(out)
        if self.digest is None:
            self.digest = rep.digest
        elif rep.digest != self.digest:
            rep.problems.append(f"artifact tree digest {rep.digest} differs from the first run's {self.digest}")

    def measure(self, trace: bool) -> list[Rep]:
        """Runs until the next one would overrun the budget; with trace,
        untraced and traced runs alternate and at least one of each is made."""
        reps: list[Rep] = []
        start = time.perf_counter()
        while True:
            reps.append(self.run_once(traced=trace and len(reps) % 2 == 1, index=len(reps)))
            typical = statistics.median(r.elapsed for r in reps)
            if len(reps) >= (2 if trace else 1) and time.perf_counter() - start + typical > self.seconds:
                return reps

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Metrics


def end_to_end_metrics(workload: Workload, reps: list[Rep], setup_times: list[float]) -> dict[str, float]:
    wall = statistics.median(r.wall for r in reps)
    failed = sum(1 for r in reps if r.problems)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu for r in reps),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        "records_per_s": workload.records / wall,
        "setup_s": statistics.median(setup_times),
        "success_rate": (len(reps) - failed) / len(reps),
    }


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus the time of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, _, _, _), value in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + value
    return totals


def rep_layer_values(rep: Rep) -> dict[str, float]:
    """Per-layer values of one traced run, summed over its processes."""
    selfs: dict[str, float] = {}
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    main_time = 0.0
    for trace in rep.traces:
        for name, value in self_times(trace["spans"]).items():
            selfs[name] = selfs.get(name, 0.0) + value
        for name, start, end, parent in trace["spans"]:
            totals[name] = totals.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent is None:
                main_time += end - start
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
    values = {metric: sum(selfs.get(s, 0.0) for s in spans) for metric, spans in SELF_TIMES.items()}
    values.update({metric: totals.get(span, 0.0) for metric, span in TOTAL_TIMES.items()})
    values.update({metric: calls.get(span, 0) for metric, span in CALLS.items()})
    values.update({name: counts.get(name, 0) for name in WORK_COUNTS})
    values["export.artifact_bytes"] = rep.bytes
    values["export.artifact_files"] = rep.files
    values["cli.processes"] = len(rep.traces)
    values["cli.startup_s"] = rep.wall - main_time
    return values


def per_layer_metrics(reps: list[Rep]) -> tuple[dict[str, float], list[str]]:
    """Medians over the traced runs, the tracing overhead, and problems:
    counts that differ between traced runs."""
    traced = [r for r in reps if r.traced and not r.problems]
    plain = [r for r in reps if not r.traced and not r.problems]
    if not traced or not plain:
        return {name: 0.0 for name in per_layer_units()}, ["no successful traced and untraced run pair"]
    per_rep = [rep_layer_values(r) for r in traced]
    problems = []
    metrics = {}
    for name, unit in per_layer_units().items():
        if name == "trace.overhead_s":
            continue
        values = [v[name] for v in per_rep]
        if unit != "s" and len(set(values)) > 1:
            problems.append(f"{name} differs between traced runs: {values}")
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
    return metrics, problems


# ---------------------------------------------------------------------------
# Reporting


def machine_facts() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(workload, seed, seconds)
    try:
        setup_times = bench.setup()
        reps = bench.measure(trace)
    finally:
        bench.close()
    problems = [f"run {i}: {p}" for i, r in enumerate(reps) for p in r.problems]
    if trace:
        metrics, extra = per_layer_metrics(reps)
        problems += extra
        units = per_layer_units()
    else:
        metrics = end_to_end_metrics(workload, reps, setup_times)
        units = dict(END_TO_END)
    failed = sum(1 for r in reps if r.problems)
    absent = sorted({name for r in reps for t in r.traces for name in t["absent"]})
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems,
        "attempted": len(reps),
        "failed": failed,
        "digest": bench.digest,
        "expected_n": bench.expected_n,
        "expected_m": bench.expected_m,
        "absent_spans": absent,
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "runs": [{"traced": r.traced, "wall_s": r.wall, "cpu_s": r.cpu, "rss_mb": r.rss_mb} for r in reps],
    }
    if trace:
        _write(RUN_DIR / "traces" / f"{workload.name}-seed{seed}.json",
               [r.traces for r in reps if r.traced])
    return result


def _write(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def print_result(result: dict) -> None:
    tag = f"{result['workload']} seed={result['seed']} trace={result['trace']}"
    walls = [r["wall_s"] for r in result["runs"]]
    print(f"{tag}: {result['attempted']} runs, {result['failed']} failed, "
          f"wall min/max {min(walls):.3f}/{max(walls):.3f} s")
    print(f"{tag}: expected n={result['expected_n']} m={result['expected_m']}, artifact digest {result['digest']}")
    for name, metric in result["metrics"].items():
        print(f"{tag}: {name} = {metric['value']:.6g} {metric['unit']}")
    if result["absent_spans"]:
        print(f"{tag}: absent from the package (reported as 0): {', '.join(result['absent_spans'])}")
    for problem in result["problems"]:
        print(f"{tag}: FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coauthnet" / "cli.py").is_file():
        print(f"error: no coauthnet source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    if args.workload == "all":
        plan = [(w, trace) for w in WORKLOADS.values() for trace in (False, True)]
    else:
        plan = [(WORKLOADS[args.workload], bool(args.trace))]
    results = []
    for workload, trace in plan:
        result = run_workload(workload, args.seed, args.seconds, trace)
        result["machine"] = facts
        _write(RUN_DIR / "results" / f"{workload.name}-seed{args.seed}-trace{int(trace)}.json", result)
        print_result(result)
        results.append(result)

    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): metric
            for r in results
            for name, metric in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
