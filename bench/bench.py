"""motorclass benchmark: end-to-end and traced per-layer runs of the CLI.

    python3 bench/bench.py [--workload evaluate|ttest|synth|all] [--seed N]
                           [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from its src/.
Each workload makes its inputs from --seed (untimed), then measures for
--seconds seconds of program time:

  --trace 0  fresh `python -m motorclass.cli` children, one after another;
             wall time, throughput and peak RSS per child, plus set-up time
             (a fresh interpreter importing motorclass.cli and building the
             parser), sampled between the children.
  --trace 1  in-process cli.main() calls in pairs, one untraced and one with
             spans around the layer functions (see layers.py); per-layer self
             times and counts, and the tracing overhead.

Without --trace both run. Every execution's outputs are checked outside the
timed interval. Human-readable lines go to stdout first; the last line is one
JSON object {"correct", "attempted", "failed", "metrics"}. With several
workloads or both trace modes, metric names in that line are prefixed with
the workload. Scratch files live in .bench_work/ at the checkout root. BLAS
thread settings are inherited, never set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import layers
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PER_EXEC = 2
SETUP_CODE = "import motorclass.cli as c; c.build_parser()"
CHILD_DEADLINE_S = 165.0   # children still running this long into a workload run are killed
COVERAGE_FLOOR_PCT = 90.0

END_TO_END = [
    ("wall_s", "s"),
    ("trials_per_s", "trials/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]


class Launcher:
    """Client of launcher.py, which spawns and reaps the measured children."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def run(self, args: list, stdout: Path, stderr: Path, deadline: float) -> dict:
        request = {"argv": [sys.executable, *args], "env": self.env,
                   "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": max(deadline - time.perf_counter(), 1.0)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def median(values):
    return statistics.median(values) if values else None


def describe(values) -> str:
    if not values:
        return "n=0"
    return f"n={len(values)} min {min(values):.4g} max {max(values):.4g}"


def measure_setup(launcher, work: Path, deadline: float, n: int) -> list:
    """n samples of a fresh interpreter importing motorclass.cli and building
    the parser, spawn to exit."""
    samples = []
    for _ in range(n):
        rec = launcher.run(["-c", SETUP_CODE], work / "setup.out", work / "setup.err", deadline)
        if rec["exit"] != 0:
            raise RuntimeError(f"set-up probe failed: {(work / 'setup.err').read_text()}")
        samples.append(rec["wall_s"])
    return samples


def run_children(launcher, wl, cli_args, work, seconds) -> tuple:
    """Fresh children one after another until `seconds` of their wall time are
    measured; set-up probes run between them, so that their median spans the
    same stretch of time as the workload's. Returns (executions, set-up
    samples)."""
    deadline = time.perf_counter() + CHILD_DEADLINE_S
    measure_setup(launcher, work, deadline, 1)   # untimed: writes the bytecode caches
    execs, setup = [], []
    while sum(e["wall_s"] for e in execs) < seconds:
        setup += measure_setup(launcher, work, deadline, SETUP_PER_EXEC)
        out = work / f"out{len(execs)}"
        rec = launcher.run(["-m", "motorclass.cli", *cli_args, "--out", str(out)],
                           work / "stdout.txt", work / "stderr.txt", deadline)
        problems = []
        if rec["exit"] != 0:
            problems.append(f"exit code {rec['exit']}" + (" (killed)" if rec["killed"] else ""))
        if "Traceback" in (work / "stderr.txt").read_text(errors="replace"):
            problems.append("Traceback on stderr")
        rec.update(wl.check(out))
        rec["problems"] = problems + rec["problems"]
        shutil.rmtree(out, ignore_errors=True)
        execs.append(rec)
        if rec["killed"]:
            break
    return execs, setup


def call_main(mc, argv, work, tracer=None) -> dict:
    """One in-process cli.main(argv), output captured to files; spans are
    recorded only when a tracer is given."""
    problems = []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    with open(work / "stdout.txt", "w") as out, open(work / "stderr.txt", "w") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = mc.cli.main(argv)
            else:
                code = tracer.call(layers.ROOT_SPAN, mc.cli.main, argv)
        except Exception:   # an escaping exception is a traceback a user would see
            code = None
            problems.append("Traceback: " + traceback.format_exc().splitlines()[-1])
        wall = time.perf_counter() - start
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    if code not in (0, None):
        problems.append(f"exit code {code}")
    cpu = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)
    return {"wall_s": wall, "cpu_s": cpu, "problems": problems}


def run_traced(mc, wl, cli_args, work, seconds) -> tuple:
    """Pairs of untraced and traced in-process calls, alternating which runs
    first, until `seconds` of their wall time are measured. Returns
    (executions, layer values of each traced call, spans of the last one)."""
    # untimed: the first call in a process pays for lazy imports and BLAS start-up
    call_main(mc, [*cli_args, "--out", str(work / "warmup")], work)
    shutil.rmtree(work / "warmup", ignore_errors=True)
    execs, traced, last_spans = [], [], []
    while sum(e["wall_s"] for e in execs) < seconds:
        pair = {}
        for is_traced in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            out = work / f"out{len(execs)}"
            tracer = spans.Tracer() if is_traced else None
            absent = layers.install(tracer, mc) if is_traced else set()
            try:
                rec = call_main(mc, [*cli_args, "--out", str(out)], work, tracer)
            finally:
                if is_traced:
                    tracer.restore()
            check = wl.check(out)
            rec["problems"] += check.pop("problems")
            rec.update(check)
            shutil.rmtree(out, ignore_errors=True)
            execs.append(rec)
            pair[is_traced] = rec
            if is_traced:
                root = tracer.spans[0]
                values = layers.layer_values(tracer, absent)
                values["proc.cpu_s"] = rec["cpu_s"]
                values["trace.wall_s"] = rec["wall_s"]
                values["trace.coverage_pct"] = 100.0 * (
                    1.0 - values[layers.ROOT_SPAN] / (root[2] - root[1]))
                traced.append(values)
                last_spans = tracer.spans
        traced[-1]["trace.overhead_s"] = pair[True]["wall_s"] - pair[False]["wall_s"]
    return execs, traced, last_spans


def end_to_end(launcher, wl, cli_args, work, seconds, lines) -> tuple:
    execs, setup = run_children(launcher, wl, cli_args, work, seconds)
    walls = [e["wall_s"] for e in execs]
    samples = {"wall_s": walls,
               "trials_per_s": [wl.trials / w for w in walls],
               "peak_rss_mb": [e["peak_rss_mb"] for e in execs],
               "setup_s": setup}
    metrics = {name: median(samples[name]) for name, _ in END_TO_END}
    for name, unit in END_TO_END:
        lines.append(f"{name:<20} {metrics[name]:>12.6g} {unit:<9} median, "
                     f"{describe(samples[name])}")
    return execs, metrics, dict(END_TO_END), {"setup_samples": setup}


def per_layer(mc, wl, cli_args, work, seconds, lines) -> tuple:
    execs, traced, last_spans = run_traced(mc, wl, cli_args, work, seconds)
    metrics = {name: (None if traced[0][name] is None else median([v[name] for v in traced]))
               for name, _, _ in layers.PER_LAYER}
    for name, unit, _ in layers.PER_LAYER:
        value = metrics[name]
        lines.append(f"{name:<36} {'absent' if value is None else f'{value:.6g}':>12} {unit}")
    lda = [v["classifiers.LDA.train_s"] for v in traced
           if v["classifiers.LDA.train_s"] is not None]
    lines.append(f"classifiers.LDA.train_s over traced calls: {describe(lda)}")
    if metrics["trace.coverage_pct"] < COVERAGE_FLOOR_PCT:
        lines.append(f"warning: spans cover {metrics['trace.coverage_pct']:.1f}% of "
                     f"cli.main, below {COVERAGE_FLOOR_PCT:.0f}%")
    (work / "spans.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent"], "spans": last_spans}) + "\n")
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return execs, metrics, units, {"layer_samples": traced}


def facts() -> dict:
    import numpy as np   # not at module level: see the launcher in main()
    blas = {}
    with contextlib.suppress(TypeError, KeyError):   # the layout varies across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "motorclass").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "src_lines": lines,
    }


def fingerprints(execs) -> dict:
    """Distinct sha256 digests seen per output file, in order of appearance."""
    seen = {}
    for rec in execs:
        for name, digest in rec.get("fingerprint", {}).items():
            digests = seen.setdefault(name, [])
            if digest not in digests:
                digests.append(digest)
    return seen


def run_workload(mc, launcher, name, seed, seconds, trace) -> dict:
    wl = WORKLOADS[name](mc)
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli_args = wl.prepare(work, seed)
    lines = [f"== {name}: {wl.trials} trials, seed {seed}, trace {trace}, "
             f"{seconds:g} s measured =="]
    if trace == 0:
        execs, metrics, units, extra = end_to_end(launcher, wl, cli_args, work, seconds, lines)
    else:
        execs, metrics, units, extra = per_layer(mc, wl, cli_args, work, seconds, lines)
    failed = sum(1 for e in execs if e["problems"])
    lines.append(f"{'error_rate':<20} {failed / len(execs):>12.6g} {'':<9} "
                 f"{failed} failed of {len(execs)} executions")
    rule = [e["rule_accuracy_pct"] for e in execs if e.get("rule_accuracy_pct") is not None]
    lines.append(f"{'rule_accuracy_pct':<20} "
                 + (f"{median(rule):>12.6g} {'%':<9} median, {describe(rule)}" if rule
                    else f"{'n/a':>12}"))
    lines += [f"FAILED: {problem}" for e in execs for problem in e["problems"]]
    record = {"workload": name, "seed": seed, "trace": trace, "facts": facts(),
              "fingerprints": fingerprints(execs), "metrics": metrics,
              "executions": execs, **extra}
    lines.append("fingerprints: " + json.dumps(record["fingerprints"], sort_keys=True))
    lines.append("facts: " + json.dumps(record["facts"], sort_keys=True))
    print("\n".join(lines), flush=True)
    (work / f"result-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work / "data", ignore_errors=True)
    return {"correct": failed == 0, "attempted": len(execs), "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "motorclass" / "cli.py").is_file():
        print(f"error: no motorclass sources under {SRC}", file=sys.stderr)
        return 2
    # started before numpy, the program or any dataset is loaded, so that it stays small
    launcher = Launcher()
    try:
        sys.path.insert(0, str(SRC))
        from motorclass import (classifiers, cli, dataset, dsp, evaluation, features,
                                fusion, stats)
        mc = SimpleNamespace(classifiers=classifiers, cli=cli, dataset=dataset, dsp=dsp,
                             evaluation=evaluation, features=features, fusion=fusion,
                             stats=stats)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        traces = (0, 1) if args.trace is None else (args.trace,)
        results = {(name, trace): run_workload(mc, launcher, name, args.seed, args.seconds,
                                               trace)
                   for name in names for trace in traces}
    finally:
        launcher.close()
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{name}.{m}": v for (name, _), r in results.items()
                               for m, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
