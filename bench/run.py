"""factrail benchmark driver: one command runs one workload or all of them.

    python3 bench/run.py --workload answer-zipf --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the repository root; it imports factrail from ``src/`` beside
this directory and exits 2 when that is missing. Each metric is printed by
name with its unit and sample count. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. A run record (machine, Python, source size, seed,
metrics, digests) goes to ``bench/out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ingest-zipf", "answer-zipf", "chain-small")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in sorted((SRC / "factrail").glob("*.py")))


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, (value, unit, samples, raw) in metrics.items():
        timed = "" if raw is None else f", raw {raw:.6g}"
        print(f"{workload} {name} = {value:.6g} {unit} (n={samples}{timed})")


def _as_record(metrics: dict) -> dict:
    return {
        name: {"value": value, "unit": unit, "samples": samples, "raw": raw}
        for name, (value, unit, samples, raw) in metrics.items()
    }


def run_one(args: argparse.Namespace) -> int:
    import gen
    import workloads

    nproc = len(os.sched_getaffinity(0))
    # One CPU for the whole run, so the speed readings (speed.py) come from
    # the CPU that does the work; run_batch's threads share it under the GIL.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        run = workloads.Run(args.seed, float(args.seconds), bool(args.trace), work, nproc)
        outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not outcome.problems and outcome.failed == 0
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": nproc, "cpu": _cpu_model(), "platform": platform.platform()},
        "python": platform.python_version(),
        "src_lines": _source_lines(),
        "shape": gen.SHAPES[args.workload],
        "ops_attempted": outcome.attempted,
        "ops_failed": outcome.failed,
        "correct": correct,
        "problems": outcome.problems,
        "digests": outcome.digests,
        "speed_readings_s": outcome.speed_readings,
        "samples_raw_scaled_s": outcome.samples,
        "metrics": _as_record(outcome.metrics),
        "named": _as_record(outcome.named),
    }
    (out_dir / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if outcome.tracer is not None:
        outcome.tracer.write(out_dir / f"{label}.spans.jsonl")

    print(f"{args.workload} seed={args.seed} trace={args.trace} nproc={nproc} "
          f"python={record['python']} src_lines={record['src_lines']}")
    _print_metrics(args.workload, outcome.named)
    _print_metrics(args.workload, outcome.metrics)
    print(f"{args.workload} ops_attempted = {outcome.attempted}")
    print(f"{args.workload} ops_failed = {outcome.failed}")
    for name, digest in outcome.digests.items():
        print(f"{args.workload} sha256 {name} = {digest}")
    for problem in outcome.problems[:20]:
        print(f"{args.workload} CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in outcome.metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Run each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] = summary["correct"] and result["correct"] and child.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "factrail" / "__init__.py").is_file():
        print(f"error: factrail sources not found at {SRC / 'factrail'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
