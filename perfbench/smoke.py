"""The benchmark's own smoke test, at toy scale.

    python3 perfbench/smoke.py

Checks that ``BENCHMARK.json`` names exactly the metrics ``metrics.py``
defines and that its layer-to-end-to-end map names only those; that
the all-workloads command prints every workload's named metrics with
their units, answers correctly, reports ``fail_ratio`` 0 and leaves
every CPU visible to each workload's run; that every traced run prints
every per-layer metric and repeats the untraced run's exact counts at
the same seed; and that the benchmark refuses to run, printing no
result, in a directory holding only ``BENCHMARK.json`` and the
benchmark's files.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import ROOT, WORK  # noqa: E402
from metrics import END_TO_END, EXTRA, MOVES, PER_LAYER  # noqa: E402


def check_manifest(problems: list) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    if named != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {named} != {END_TO_END}")
    named = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if named != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from metrics.py")
    workloads = [w["name"] for w in spec["workloads"]]
    if sorted(workloads) != sorted(EXTRA):
        problems.append(f"BENCHMARK.json workloads {workloads}")
    e2e = set(END_TO_END) | {m for extra in EXTRA.values() for m, _ in extra}
    for layers, moves, names in MOVES:
        if not (set(layers) <= set(PER_LAYER) and set(moves) <= e2e
                and set(names) <= set(EXTRA)):
            problems.append(f"metrics.MOVES names unknown metrics: {layers}")
    return workloads


def record(workload: str, trace: int) -> dict:
    """The full record the last toy run of ``workload`` wrote."""
    from workloads import WORKLOADS

    seed = WORKLOADS[workload].default_seed
    path = WORK / "results" / f"{workload}-s{seed}-t{trace}-toy.json"
    return json.loads(path.read_text())


def run_all(workloads: list[str], problems: list) -> None:
    """The all-workloads command, untraced."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "1", "--toy"],
        capture_output=True, text=True, cwd=ROOT, timeout=1800)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        problems.append(f"all: exit {out.returncode}: {out.stderr[-500:]}")
        return
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        problems.append(f"all: correct={result['correct']} "
                        f"failed={result['failed']}: "
                        + " | ".join(x for x in lines if "FAILED" in x))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {f"{w}/{m}": unit for w in workloads
            for m, (unit, _) in END_TO_END.items()}
    if got != want:
        problems.append(f"all: metrics/units {got}")
    cpus = len(os.sched_getaffinity(0))
    for workload in workloads:
        for metric, unit in EXTRA[workload]:
            if not any(x.startswith(f"{workload}/{metric} ") and
                       x.endswith(f" {unit}") for x in lines):
                problems.append(f"all: no {workload}/{metric} line in {unit}")
        if f"{workload}/fail_ratio 0 1" not in lines:
            problems.append(f"all: {workload} fail_ratio is not 0")
        seen = record(workload, 0)["environment"]["visible_cpus"]
        if seen != cpus:
            problems.append(f"all: {workload} saw {seen} CPUs, not {cpus}")


def run_traced(workload: str, problems: list) -> None:
    """One traced run at the workload's default seed."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", "1", "--toy"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = out.stdout.strip().splitlines()
    where = f"{workload} traced"
    if out.returncode or not lines:
        problems.append(f"{where}: exit {out.returncode}: {out.stderr[-500:]}")
        return
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != {k: unit for k, (unit, _) in PER_LAYER.items()}:
        problems.append(f"{where}: metrics/units {got}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}: "
                        + " | ".join(x for x in lines if "FAILED" in x))
    plain, traced = record(workload, 0)["counts"], record(workload, 1)["counts"]
    if plain != traced:
        problems.append(f"{workload}: counts differ between runs at one "
                        f"seed: {plain} != {traced}")


def check_refuses_without_program(problems: list) -> None:
    with tempfile.TemporaryDirectory(dir=WORK) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             "compile_usenet", "--seed", "1", "--seconds", "1",
             "--trace", "0"], capture_output=True, text=True, cwd=bare,
            timeout=180)
        if out.returncode == 0 or out.stdout.strip():
            problems.append("ran without the program's sources")


def main() -> int:
    problems: list[str] = []
    WORK.mkdir(exist_ok=True)
    workloads = check_manifest(problems)
    run_all(workloads, problems)
    print("smoke: all workloads done", flush=True)
    for workload in workloads:
        run_traced(workload, problems)
        print(f"smoke: {workload} traced done", flush=True)
    check_refuses_without_program(problems)
    for problem in problems:
        print(f"smoke: FAILED {problem}")
    print("smoke: ok" if not problems else
          f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
