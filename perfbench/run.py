"""Benchmark of `radscales run` on seeded synthetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload planted-m --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1      # every workload, per-layer metrics

Inputs come from ``gen.py`` and are written before any timing starts.

``--trace 0`` times ``python -m radscales run`` as a child process, one run
at a time: two runs, then as many more as fit in ``--seconds`` seconds.
It reports medians: ``wall_s``,
``records_per_s`` (input records over ``wall_s``), ``max_rss_mb`` (the
child's peak RSS from ``os.wait4``) and ``setup_s`` (a fresh interpreter
running ``python -m radscales --help``: start-up, package import and parser
build).

``--trace 1`` calls ``radscales.cli.main(["run", ...])`` in this process
three times: traced with the spans of ``spans.py``, untraced, and traced
again. It reports the per-layer metrics listed there. Counts must repeat exactly between the two
traced runs.

Every run's reports are checked by ``check.py``; a run that exits non-zero
or fails a check counts as failed. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A fuller record (inputs, samples, report hashes, environment)
is written under ``.bench_build/perfbench/results/``; ``baseline.json``
holds the figures measured at the commit that added the benchmark.

The benchmark measures the checked-out ``src/radscales`` only: it exits with
code 2 and no result when that directory is missing or Python would import
another copy.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import check
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "radscales" / "__init__.py"
WORK = ROOT / ".bench_build" / "perfbench"
RESULTS = WORK / "results"

END_TO_END = {"wall_s": "s", "records_per_s": "1/s", "max_rss_mb": "MB", "setup_s": "s"}
MIN_RUNS = 2  # then as many more as fit in --seconds
SETUP_REPEATS = 7  # timed interpreter starts, after one that fills the bytecode cache
CHILD_TIMEOUT_S = 120
LIMITS = [
    "shared machine: other tenants' load is neither controlled nor measured",
    "the file cache cannot be dropped: inputs and the package are read warm",
]


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def require_checkout_package() -> None:
    """Fail unless a child interpreter imports the checked-out package."""
    if not PACKAGE_INIT.is_file():
        raise BenchError(f"no package source at {PACKAGE_INIT.relative_to(ROOT)}")
    probe = subprocess.run(
        [sys.executable, "-c", "import radscales; print(radscales.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    imported = probe.stdout.strip()
    if probe.returncode != 0 or Path(imported).resolve() != PACKAGE_INIT.resolve():
        raise BenchError(f"python imports radscales from {imported or probe.stderr.strip()!r}")


def import_checkout_package():
    """radscales.cli from the checkout, in this process."""
    if not PACKAGE_INIT.is_file():
        raise BenchError(f"no package source at {PACKAGE_INIT.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import radscales
    from radscales import cli

    if Path(radscales.__file__).resolve() != PACKAGE_INIT.resolve():
        raise BenchError(f"python imports radscales from {radscales.__file__!r}")
    return cli


def environment() -> dict:
    caches = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()[:2].lower()] = value.strip()
    commit = None
    if (ROOT / ".git").exists():
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = head.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "radscales").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": source.hexdigest(),
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "limits": LIMITS,
    }


def measure_setup(cwd: Path) -> list[float]:
    """Wall times of fresh interpreters running `python -m radscales --help`."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "radscales", "--help"],
            env=child_env(), cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=60,
        )
        elapsed = perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"`radscales --help` exited with {done.returncode}")
        if i:
            samples.append(elapsed)
    return samples


def run_child(config: Path, out_dir: Path, log: Path) -> tuple[int, float, float]:
    """One `radscales run` child: exit code, wall seconds, peak RSS in MB."""
    command = [sys.executable, "-m", "radscales", "run", "--config", str(config), "--out-dir", str(out_dir)]
    with log.open("w", encoding="utf-8") as err:
        start = perf_counter()
        proc = subprocess.Popen(command, env=child_env(), cwd=config.parent, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def judge(runs: list[dict], reference: Path | None, inputs: Path) -> list[str]:
    """Check the first good run's reports; mark runs failed in place.

    A run fails when it exited non-zero, when its reports differ from the
    first good run's, or when those reports fail a check.
    """
    if reference is None:
        errors = ["no run succeeded"]
    else:
        try:
            errors = check.check_reports(inputs, reference)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors = [f"reports could not be checked: {exc!r}"]
    good_hashes = next((r["reports_sha256"] for r in runs if r["exit"] == 0), None)
    for run in runs:
        run["failed"] = bool(errors) or run["exit"] != 0 or run["reports_sha256"] != good_hashes
    return errors


def measure_end_to_end(inputs: Path, work: Path, records: int, seconds: float) -> dict:
    setup = measure_setup(work)
    runs: list[dict] = []
    reference = None
    begin = perf_counter()
    while True:
        out, log = work / f"out{len(runs)}", work / f"stderr{len(runs)}.txt"
        code, wall, rss = run_child(inputs / "config.json", out, log)
        runs.append({
            "exit": code, "wall_s": wall, "max_rss_mb": rss,
            "reports_sha256": check.report_hashes(out) if code == 0 else {},
        })
        if code != 0:
            runs[-1]["stderr_tail"] = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        if code == 0 and reference is None:
            reference = out
        elif out.exists():
            shutil.rmtree(out)
        walls = [r["wall_s"] for r in runs]
        if len(runs) >= MIN_RUNS and perf_counter() - begin + statistics.median(walls) > seconds:
            break
    errors = judge(runs, reference, inputs)
    wall = statistics.median(r["wall_s"] for r in runs)
    metrics = {
        "wall_s": wall,
        "records_per_s": records / wall,
        "max_rss_mb": statistics.median(r["max_rss_mb"] for r in runs),
        "setup_s": statistics.median(setup),
    }
    return {"metrics": metrics, "runs": runs, "setup_samples_s": setup, "check_errors": errors}


def run_in_process(cli, config: Path, out_dir: Path) -> tuple[int, float, float]:
    gc.collect()
    with redirect_stdout(io.StringIO()):
        cpu, start = process_time(), perf_counter()
        code = cli.main(["run", "--config", str(config), "--out-dir", str(out_dir)])
        wall, cpu = perf_counter() - start, process_time() - cpu
    return code, wall, cpu


def measure_layers(cli, inputs: Path, work: Path) -> dict:
    config = inputs / "config.json"
    runs: list[dict] = []
    tracers = []
    # The untraced run goes between the traced ones, so that warm-up after
    # generating the inputs does not fall on one side of the overhead ratio.
    for traced in (True, False, True):
        out = work / ("traced" if traced else "untraced")
        if traced:
            tracer = spans.Tracer()
            with spans.traced(tracer):
                code, wall, cpu = run_in_process(cli, config, out)
            tracers.append(tracer)
        else:
            code, wall, cpu = run_in_process(cli, config, out)
        runs.append({
            "traced": traced, "exit": code, "wall_s": wall, "cpu_s": cpu,
            "reports_sha256": check.report_hashes(out) if code == 0 else {},
        })
        if traced:
            shutil.rmtree(out, ignore_errors=True)
    untraced = next(r for r in runs if not r["traced"])
    errors = judge(runs, work / "untraced" if untraced["exit"] == 0 else None, inputs)

    per_run = [t.metrics() for t in tracers]
    metrics = {}
    for name in per_run[0]:
        values = [m[name] for m in per_run]
        if spans.metric_spec(name)["unit"] == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if values[0] != values[1]:
                errors.append(f"{name} differs between traced runs: {values}")
    if errors:
        for run in runs:
            run["failed"] = True
    traced = [r for r in runs if r["traced"]]
    metrics["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in traced)
    metrics["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / untraced["wall_s"] - 1
    with (work / "spans.jsonl").open("w", encoding="utf-8") as fh:
        for span in tracers[-1].spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "metrics": {name: metrics[name] for name in spans.METRICS},
        "runs": runs,
        "hooked": tracers[0].hooked,
        "check_errors": errors,
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "input"
    if trace:
        cli = import_checkout_package()
    else:
        require_checkout_package()
    try:
        stats = gen.generate(workload, seed, inputs)
        if trace:
            measured = measure_layers(cli, inputs, work)
            units = {name: spans.metric_spec(name)["unit"] for name in spans.METRICS}
        else:
            measured = measure_end_to_end(inputs, work, stats["records"], seconds)
            units = END_TO_END
        failed = sum(r["failed"] for r in measured["runs"])
        result = {
            "correct": failed == 0 and not measured["check_errors"],
            "attempted": len(measured["runs"]),
            "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in measured["metrics"].items()},
        }
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "inputs": stats, "environment": environment(),
            "failed_frac": failed / len(measured["runs"]), **measured, "result": result,
        }
        RESULTS.mkdir(parents=True, exist_ok=True)
        if trace:
            shutil.move(work / "spans.jsonl", RESULTS / f"{tag}.spans.jsonl")
        (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{workload} seed {seed}: {result['attempted']} runs, {failed} failed "
          f"(failed_frac {record['failed_frac']:g})")
    for error in measured["check_errors"][:10]:
        print(f"  check failed: {error}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  record: {(RESULTS / f'{tag}.json').relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *gen.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    workloads = gen.WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = {w: bench(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
