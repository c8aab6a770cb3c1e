"""knotcert benchmark: one seeded workload per run, end to end or per layer.

    python3 perfbench/run.py --workload cert-grid --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` beside this directory, single process, no threads.  Set-up (a
fresh import of the package plus input generation) is repeated and its
median reported.  Then passes over the workload's inputs repeat while the
next one fits in ``--seconds`` (at least one pass).

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``
with tracing off, in reference-speed seconds: a speed probe (see
``speed.py``) times a fixed loop four times a second throughout, and
each timed interval is scaled by how slow the machine was around it.
The raw medians (wall clock, the probe's own time included) are in the
context line.

``--trace 1`` alternates untraced passes with passes that have every
layer wrapped (see ``spans.py``), and reports the per-layer metrics, in
raw seconds, as medians over the traced passes; ``trace.overhead_s`` is
the traced minus the untraced median pass time.  A layer named in
``BENCHMARK.json`` whose function no longer exists reads 0 and is listed
under ``absent``.

Output: a ``{"context": ...}`` line (Python version, CPU count, seed,
passes, op counts, tail percentile, failures, speed samples and raw
medians or the full layer table), then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)

sys.path.insert(0, str(HERE))
from spans import MODULES, Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fresh_import():
    """Import the package and every traced module from scratch."""
    for name in [n for n in sys.modules if n == "knotcert" or n.startswith("knotcert.")]:
        del sys.modules[name]
    importlib.import_module("knotcert")
    for short in MODULES:
        importlib.import_module(f"knotcert.{short}")


class RawClock(contextlib.nullcontext):
    """Seconds of an interval as measured: the traced run's clock, and the
    raw figures of the untraced one."""

    @staticmethod
    def seconds(start: float, end: float) -> float:
        return end - start


def set_up(make, seed: int, reference: dict):
    """The inputs, and the interval of each set-up repeat."""
    spans = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        fresh_import()
        inputs = make(seed, reference)
        spans.append((start, perf_counter()))
    return inputs, spans


def timed_pass(run, inputs, workdir: Path, ops: list) -> tuple[float, float]:
    start = perf_counter()
    ops.extend(run(inputs, workdir))
    return start, perf_counter()


def run_passes(run, inputs, workdir: Path, seconds: float, tracer: Tracer | None = None):
    """Rounds while the next fits in the budget, at least one.  A round is
    one pass, or with a tracer an untraced pass then a traced one, so both
    see the same machine state.  Returns (pass intervals, traced pass
    intervals, ops, layers)."""
    walls, traced_walls, ops, layers, rounds = [], [], [], [], []
    begin = perf_counter()
    while True:
        start = perf_counter()
        walls.append(timed_pass(run, inputs, workdir, ops))
        if tracer:
            tracer.install()
            try:
                traced_walls.append(timed_pass(run, inputs, workdir, ops))
            finally:
                tracer.uninstall()
            layers.append(tracer.take_pass())
        rounds.append(perf_counter() - start)
        if perf_counter() - begin + statistics.median(rounds) > seconds:
            return walls, traced_walls, ops, layers


def op_summary(ops, clock) -> tuple[float, dict | None]:
    """Median over inputs of each input's median op time, and the highest
    percentile of all op times that has at least ten samples beyond it."""
    by_label: dict[str, list[float]] = {}
    times = []
    for op in ops:
        seconds = sum(clock.seconds(*span) for span in op.spans)
        by_label.setdefault(op.label, []).append(seconds)
        times.append(seconds)
    p50 = statistics.median(statistics.median(v) for v in by_label.values())
    times.sort()
    for pct in TAIL_PERCENTILES:
        if len(times) * (1 - pct / 100) >= 10:
            value = times[max(0, math.ceil(pct / 100 * len(times)) - 1)]
            return p50, {"percentile": pct, "value_s": value, "ops": len(times)}
    return p50, None


def median_seconds(spans, clock) -> float:
    return statistics.median(clock.seconds(*span) for span in spans)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "knotcert" / "__init__.py").is_file():
        raise SystemExit(f"no knotcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    make, run = WORKLOADS[args.workload]
    clock = RawClock() if args.trace else SpeedProbe()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        with clock:
            inputs, setups = set_up(make, args.seed, reference)
            tracer = Tracer() if args.trace else None
            walls, traced_walls, ops, layers = run_passes(
                run, inputs, workdir, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not op.ok for op in ops)
    p50, tail = op_summary(ops, clock)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(walls),
        "ops": len(ops),
        "op_s_p50_inputs": len({op.label for op in ops}),
        "op_s_tail": tail,
        "fail_ratio": failed / len(ops),
    }
    if args.trace:
        wall, traced_wall = median_seconds(walls, clock), median_seconds(traced_walls, clock)
        harness = {"trace.wall_s": traced_wall, "trace.overhead_s": traced_wall - wall}
        table = {key: statistics.median(layer[key] for layer in layers)
                 for key in sorted(layers[0])}
        names = [m["name"] for m in spec["per_layer"]]
        absent = [n for n in names
                  if n not in harness and n.rsplit(".", 1)[0] not in tracer.wrapped]
        values = {n: harness.get(n, table.get(n, 0)) for n in names}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        context.update(untraced_wall_s=wall, traced_passes=len(traced_walls),
                       absent=absent, layers={k: v for k, v in table.items() if v})
    else:
        values = {
            "wall_s": median_seconds(walls, clock),
            "op_s_p50": p50,
            "setup_s": median_seconds(setups, clock),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        context.update(
            speed_samples=clock.samples,
            raw_wall_s=median_seconds(walls, RawClock),
            raw_op_s_p50=op_summary(ops, RawClock)[0],
            raw_setup_s=median_seconds(setups, RawClock))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
