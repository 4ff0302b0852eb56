"""End-to-end benchmark of the langdei CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Inputs are generated from the seed before any timing starts. The
load is a closed loop with one client: every CLI invocation is a fresh
``python -m langdei.cli`` process, started after the previous one exits.
One pass runs every invocation of the workload once; the benchmark repeats
passes until the next one would end after ``--seconds`` (at least one), and
times each invocation at its best over the passes.

``--trace 0`` times plain passes and reports the end-to-end metrics.
``--trace 1`` cycles through a plain pass, a span pass and a count pass
(see trace_cli.py), then times the kernels, and reports per-layer metrics.
Every output of every pass is checked; the last line of standard output is
the JSON result, and a fuller record goes to
``.bench_out/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "langdei" / "data"
OUT_ROOT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"
TRACE_CLI = BENCH / "trace_cli.py"

sys.path.insert(0, str(BENCH))
import kernels  # noqa: E402
import workloads  # noqa: E402

# Artifacts are compared byte for byte with digests.json on this seed, and on
# every seed for workloads whose inputs do not depend on it.
DEFAULT_SEED = 0
SEED_FREE = {"paper-tables"}
SETUP_REPEATS = 7
TAIL_BEYOND = 10

# A fixed process of the benchmark's own, run between invocations at most
# CALIBRATE_EVERY_S apart: it starts an interpreter and imports numpy, then
# runs a fixed mix of string parsing, small-array calls and float loops, and
# prints how long that mix took. The machine's speed drifts by up to 2x over
# minutes, and start-up and computation drift by different amounts, so the
# two parts are timed apart. Each timed sample is converted to the speed at
# which the parts take CALIBRATION_START_S and CALIBRATION_COMPUTE_S, using
# the calibration samples around it (see README.md).
CALIBRATION_CODE = """
import time
import numpy as np
start = time.perf_counter()
rows = [f"t{i % 5},m{i % 88:03d},en,l{i % 23},{i * 0.37:.2f}".split(",") for i in range(40000)]
total = sum(float(r[4]) for r in rows)
x = np.arange(23.0)
for _ in range(4000):
    total += float(((24 - np.arange(1, 24)) * np.sort(x)).sum())
for k in range(1, 80000):
    total += 0.9 - 4.0 * float(k) ** -0.4
print(time.perf_counter() - start)
"""
CALIBRATION_START_S = 0.25
CALIBRATION_COMPUTE_S = 0.15
CALIBRATE_EVERY_S = 2.0
CALIBRATION_NEIGHBOURS = 2  # samples used on each side of a timed sample

# Input units of each subcommand's throughput; allocate counts greedy steps.
THROUGHPUT = {
    "metrics": "metrics.cells_per_s",
    "efficiency": "efficiency.rows_per_s",
    "fit": "fit.pairs_per_s",
    "allocate": "allocate.steps_per_s",
    "report": "report.lines_per_s",
}
SPAN_METRICS = {
    "io.load_performance.s": ["io.load_performance"],
    "io.load_trace.s": ["io.load_trace"],
    "io.render_lorenz.s": ["io.render_lorenz"],
    "io.render_trace.s": ["io.render_trace"],
    "io.write_s": ["io.write_text"],
    "io.hash_s": ["io.sha256_of"],
    "metrics.dei_scorecard.s": ["metrics.dei_scorecard"],
    "metrics.lorenz_points.s": ["metrics.lorenz_points"],
    "efficiency.compute_amrs_table.s": ["efficiency.compute_amrs_table"],
    "efficiency.efficiency_score.s": ["efficiency.efficiency_score"],
    "curves.fit_power_law.s": ["curves.fit_power_law"],
    "allocator.AllocationRequest.s": ["allocator.AllocationRequest"],
    "allocator.greedy_allocate.s": ["allocator.greedy_allocate"],
    "allocator.evaluate_plan.s": ["allocator.evaluate_plan"],
    "allocator.baselines.s": ["allocator.egalitarian_allocate", "allocator.single_source_allocate"],
}
COUNT_METRICS = ("io.parse_lines", "io.render_bytes", "metrics.utility.calls", "metrics.demand.calls",
                 "metrics.gini.calls", "curves.fit_power_law.calls", "curves.predict.calls",
                 "allocator.trace_steps_built")


@dataclass
class Run:
    """Timings, failures and trace record of one invocation."""

    invocation: workloads.Invocation
    mode: str
    start: float
    wall_s: float
    rss_mb: float
    error: str | None
    record: dict | None = None
    ref_s: float = 0.0  # in reference seconds, set once the run has ended


@dataclass
class Pass:
    mode: str
    runs: list[Run] = field(default_factory=list)


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def spawn(argv: list[str], cwd: Path, stderr_path: Path) -> tuple[float, float, int]:
    """Run one process to completion: (wall seconds, max RSS in MB, exit code)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def probe() -> str:
    """Check that the program imports from this checkout; return numpy's version."""
    code = "import langdei.cli, numpy; print(langdei.cli.__file__); print(numpy.__version__)"
    result = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=120)
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve().parent != SRC / "langdei":
        raise SystemExit(f"error: cannot import langdei from {SRC}: {result.stderr.strip()[-500:]}")
    return lines[1]


class Calibration:
    """Calibration samples in start order: start time, start-up and compute seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.startup: list[float] = []
        self.compute: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        result = subprocess.run([sys.executable, "-c", CALIBRATION_CODE], cwd=ROOT,
                                capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        if result.returncode != 0:
            raise SystemExit(f"error: the calibration process failed: {result.stderr.strip()[-300:]}")
        compute = float(result.stdout)
        self.starts.append(start)
        self.startup.append(wall - compute)
        self.compute.append(compute)

    def sample_if_due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def factors(self, t: float) -> tuple[float, float]:
        """Factors from start-up and compute seconds at time ``t`` to
        reference seconds, from the samples around ``t``."""
        i = bisect.bisect_left(self.starts, t)
        near = slice(max(0, i - CALIBRATION_NEIGHBOURS), i + CALIBRATION_NEIGHBOURS)
        return (CALIBRATION_START_S / statistics.mean(self.startup[near]),
                CALIBRATION_COMPUTE_S / statistics.mean(self.compute[near]))

    def reference(self, t: float, wall: float, setup_s: float) -> float:
        """Reference seconds of a process that started at ``t`` and took
        ``wall``: its first ``setup_s`` reference seconds (the interpreter and
        import cost measured in this run) at start-up speed, the rest at
        compute speed."""
        start_factor, compute_factor = self.factors(t)
        startup = min(wall, setup_s / start_factor)
        return startup * start_factor + (wall - startup) * compute_factor


def measure_setup(calibration: Calibration) -> list[tuple[float, float]]:
    """(start, wall) of fresh interpreters importing langdei.cli, each next
    to calibration samples."""
    argv = [sys.executable, "-c", "import langdei.cli"]
    samples = []
    calibration.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wall, _, code = spawn(argv, ROOT, Path(os.devnull))
        if code != 0:
            raise SystemExit("error: importing langdei.cli failed")
        samples.append((start, wall))
        calibration.sample()
    return samples


def setup_seconds(setup: list[tuple[float, float]], calibration: Calibration) -> float:
    """Median set-up time in reference seconds; set-up is all start-up."""
    return statistics.median(w * calibration.factors(t)[0] for t, w in setup)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(mode: str, number: int, invocations, run_dir: Path, digests: dict | None,
             calibration: Calibration) -> Pass:
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    logs = run_dir / "logs" / f"{number:03d}-{mode}"
    logs.mkdir(parents=True)
    timings = []
    for i, inv in enumerate(invocations):
        if mode == "plain":
            argv = [sys.executable, "-m", "langdei.cli", *inv.argv]
        else:
            argv = [sys.executable, str(TRACE_CLI), mode, str(logs / f"{i:03d}.json"), f"{number}:{i}", "--", *inv.argv]
        calibration.sample_if_due()
        timings.append((time.perf_counter(), *spawn(argv, run_dir, logs / f"{i:03d}.err")))
    result = Pass(mode)

    # Checks run after the pass, outside the timed region.
    for i, (inv, (start, wall, rss, code)) in enumerate(zip(invocations, timings)):
        error = None
        if code != 0:
            tail = (logs / f"{i:03d}.err").read_text(encoding="utf-8", errors="replace").strip()[-300:]
            error = f"exit {code}: {tail}"
        if error is None:
            error = inv.check(run_dir)
        if error is None and digests is not None:
            for name in inv.outputs:
                if _sha256(run_dir / name) != digests.get(name):
                    error = f"{name}: differs from the reference digest"
                    break
        record = None
        if mode != "plain" and code == 0:
            record = json.loads((logs / f"{i:03d}.json").read_text(encoding="utf-8"))
        result.runs.append(Run(inv, mode, start, wall, rss, error, record))
    return result


def run_passes(modes, invocations, run_dir: Path, seconds: float, digests, calibration: Calibration,
               setup_s: float) -> list[Pass]:
    """Repeat cycles of ``modes`` until the next cycle would end after ``seconds``."""
    passes: list[Pass] = []
    cycle_times = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for mode in modes:
            passes.append(run_pass(mode, len(passes), invocations, run_dir, digests, calibration))
        cycle_times.append(time.perf_counter() - cycle_start)
        if time.perf_counter() - start + statistics.median(cycle_times) > seconds:
            break
    calibration.sample()
    for p in passes:
        for r in p.runs:
            r.ref_s = calibration.reference(r.start, r.wall_s, setup_s)
    return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; with too few samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def invocation_walls(passes: list[Pass]) -> list[tuple[workloads.Invocation, float]]:
    """Each invocation with its median wall time over ``passes``, in
    reference seconds."""
    walls: dict[str, tuple[workloads.Invocation, list[float]]] = {}
    for p in passes:
        for r in p.runs:
            walls.setdefault(r.invocation.name, (r.invocation, []))[1].append(r.ref_s)
    return [(inv, statistics.median(values)) for inv, values in walls.values()]


def throughputs(timed: list[tuple[workloads.Invocation, float]], run_dir: Path) -> dict[str, float]:
    units: dict[str, float] = {}
    walls: dict[str, float] = {}
    for inv, wall in timed:
        if inv.subcommand == "report":
            work = sum((run_dir / p).read_bytes().count(b"\n") for p in inv.reads)
        elif inv.units:
            work = inv.units
        else:
            continue
        units[inv.subcommand] = units.get(inv.subcommand, 0) + work
        walls[inv.subcommand] = walls.get(inv.subcommand, 0.0) + wall
    return {name: units[cmd] / walls[cmd] if cmd in units else 0.0 for cmd, name in THROUGHPUT.items()}


def span_metrics(runs: list[Run], calibration: Calibration) -> tuple[dict[str, float], list[dict]]:
    """Per-layer totals of one span pass in reference seconds (spans run at
    compute speed), and its spans with self times in seconds."""
    totals: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    rows = []
    for run in runs:
        if run.record is None:
            continue
        factor = calibration.factors(run.start)[1]
        spans = run.record["spans"]
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            own = end - start - children[i]
            totals[name] = totals.get(name, 0.0) + (end - start) * factor
            layer = name.split(".")[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own * factor
            rows.append({"invocation": run.record["invocation"], "index": i, "name": name, "start": start,
                         "end": end, "parent": parent, "self_s": own})
    metrics = {"cli.self_s": self_by_layer.get("cli", 0.0)}
    metrics["io.parse_s"] = sum(v for k, v in totals.items() if k.startswith("io.load_"))
    metrics["io.render_s"] = sum(v for k, v in totals.items() if k.startswith("io.render_"))
    for metric, names in SPAN_METRICS.items():
        metrics[metric] = sum(totals.get(n, 0.0) for n in names)
    return metrics, rows


def count_metrics(runs: list[Run]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for run in runs:
        for key, value in (run.record or {}).get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
    return counts


def per_layer(passes: list[Pass], run_dir: Path, calibration: Calibration) -> tuple[dict[str, tuple[float, str]], list[dict]]:
    """Per-layer metrics of a traced run; times in reference seconds."""
    plain = [p for p in passes if p.mode == "plain"]
    span_passes = [p for p in passes if p.mode == "spans"]
    by_pass = [span_metrics(p.runs, calibration) for p in span_passes]
    out: dict[str, tuple[float, str]] = {}
    for name in by_pass[0][0]:
        out[name] = (statistics.median(m[name] for m, _ in by_pass), "s")
    counts = count_metrics(next(p for p in passes if p.mode == "counts").runs)
    for name in COUNT_METRICS:
        out[name] = (counts.get(name, 0), "bytes" if name == "io.render_bytes" else "count")
    steps = counts.get("allocator.trace_steps_built", 0)
    greedy_s = out["allocator.greedy_allocate.s"][0]
    out["allocator.us_per_step"] = (greedy_s / steps * 1e6 if steps else 0.0, "us")
    out["allocator.trace_used_ratio"] = (counts.get("allocator.trace_rows_written", 0) / steps if steps else 0.0, "ratio")
    start = time.perf_counter()
    micro = kernels.measure(DATA)
    calibration.sample()
    for name, value in micro.items():
        out[name] = (value * calibration.factors(start)[1], name.rsplit(".", 1)[1])
    plain_walls = invocation_walls(plain)
    for name, value in throughputs(plain_walls, run_dir).items():
        out[name] = (value, "1/s")
    traced_wall = sum(w for _, w in invocation_walls(span_passes))
    out["trace.overhead_s"] = (traced_wall - sum(w for _, w in plain_walls), "s")
    return out, by_pass[0][1]


def end_to_end(passes: list[Pass], setup_s: float, run_dir: Path) -> tuple[dict[str, tuple[float, str]], dict]:
    """Times of one pass, each invocation at its median over the passes, in
    reference seconds."""
    timed = invocation_walls(passes)
    walls = [w for _, w in timed]
    tail_value, percentile = tail(walls)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(walls),
        "invocation_p50_s": statistics.median(walls),
        "invocation_tail_s": tail_value,
    }
    out = {name: (value, "s") for name, value in metrics.items()}
    out["peak_rss_mb"] = (max(r.rss_mb for p in passes for r in p.runs), "MB")
    extra = {name: (value, "1/s") for name, value in throughputs(timed, run_dir).items() if value}
    details = {"tail_percentile": percentile, "invocations_per_pass": len(walls), "throughput": extra}
    return out, details


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return caches


def _git_commit() -> str | None:
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "langdei").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def _print_table(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")


def record_digests(workload: str) -> None:
    """Write the artifact digests of one plain pass at the default seed."""
    run_dir = OUT_ROOT / f"{workload}-digests"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "in").mkdir(parents=True)
    invocations, _ = workloads.WORKLOADS[workload](DEFAULT_SEED, DATA, run_dir)
    result = run_pass("plain", 0, invocations, run_dir, None, Calibration())
    errors = [r.error for r in result.runs if r.error]
    if errors:
        raise SystemExit(f"error: not recording digests, the pass failed: {errors[0]}")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[workload] = {name: _sha256(run_dir / name) for inv in invocations for name in inv.outputs}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table[workload])} digests for {workload}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="write digests.json entries from the current program and exit")
    args = parser.parse_args()

    if not (SRC / "langdei" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'langdei'}; run from a source checkout", file=sys.stderr)
        return 2
    numpy_version = probe()
    if args.record_digests:
        record_digests(args.workload)
        return 0

    load_start = os.getloadavg()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT_ROOT / name
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "in").mkdir(parents=True)
    invocations, inputs = workloads.WORKLOADS[args.workload](args.seed, DATA, run_dir)
    digests = None
    if args.seed == DEFAULT_SEED or args.workload in SEED_FREE:
        digests = json.loads(DIGESTS.read_text())[args.workload]

    calibration = Calibration()
    run_start = time.perf_counter()
    setup = measure_setup(calibration)
    setup_s = setup_seconds(setup, calibration)
    if args.trace:
        sys.path.insert(0, str(SRC))
        passes = run_passes(("plain", "spans", "counts"), invocations, run_dir, args.seconds, digests,
                            calibration, setup_s)
        metrics, spans = per_layer(passes, run_dir, calibration)
        details: dict = {}
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in spans)
    else:
        passes = run_passes(("plain",), invocations, run_dir, args.seconds, digests, calibration, setup_s)
        metrics, details = end_to_end(passes, setup_s, run_dir)

    runs = [r for p in passes for r in p.runs]
    failures = [f"{r.mode} {r.invocation.name}: {r.error}" for r in runs if r.error]
    result = {
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "calibration": [[t - run_start, u, c] for t, u, c in
                        zip(calibration.starts, calibration.startup, calibration.compute)],
        "setup": [[t - run_start, w] for t, w in setup],
        "passes": [{"mode": p.mode, "invocations": [[r.invocation.name, r.start - run_start, r.wall_s, r.ref_s, r.rss_mb]
                                                    for r in p.runs]} for p in passes],
        "error_rate": len(failures) / len(runs), "failures": failures[:20],
        "inputs": inputs, **details,
        "environment": {**environment(numpy_version), "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        "result": result,
    }
    results = OUT_ROOT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")

    _print_table(f"{args.workload} seed={args.seed} passes={len(passes)} error_rate={record['error_rate']:.6g}",
                 {**metrics, **details.get("throughput", {})})
    for failure in failures[:5]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
