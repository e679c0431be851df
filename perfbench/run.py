"""proofkit benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Runs one workload (see workloads.py) from the repository root, against the
sources in `src/`, in this single process and thread.  A run makes two
passes that time every verdict of the seeded inputs, then, while another
pass fits in `--seconds`, passes that time the verdicts which have not yet
taken their share of the run (see untraced_passes).
Each pass starts from a freshly imported program, as `proofkit` on the
command line would: import, `load_theory` and `load_corpus` are timed as
set-up, and the module-level caches start empty.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics: set-up time, wall time per pass, the median and 85th
percentile time per verdict, and peak resident memory.  Every time among
them is scaled to a nominal machine speed by readings of the machine's
speed taken around it (speed.py), which takes out most of the drift of a
shared host.  With `--trace 1` the run makes only the two untraced passes
that time every verdict, then one pass with every public function of
every layer wrapped in a span (tracing.py) and one pass with tracemalloc
on for its first MEMORY_SECONDS, and the JSON holds the per-layer
metrics.  Self times are as the tracer measured them, unscaled; the
tracing overhead compares the scaled wall times of the two kinds of pass.
`attempted` and `failed` count timed verdicts over every pass; a verdict
fails when the gate in workloads.py finds it wrong, out of budget or
raised.

Exit status 2, with nothing printed to stdout, when the program cannot be
imported from `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every verdict is timed in at least this many passes (see typical_times).
MIN_PASSES = 2
# After those, a verdict is timed again only while the time spent timing
# it stays below this share of the run (see untraced_passes).
ITEM_SHARE = 0.1
MIN_SETUPS = 9  # set-up samples per run, whatever the number of passes

# Set iteration order, which steers the refuter's search and congruence
# closure, follows the string hash seed; a run fixes it so that its times
# differ from another run's by the inputs and the machine alone.
HASH_SEED = "0"

# tracemalloc follows the first this many seconds of the memory pass: it
# slows the program about fivefold, and a traced run must stay short.
MEMORY_SECONDS = 30.0

# Functions whose calls and self time the traced run reports.
TRACED = (
    "syntax.parse",
    "kernel.check_script",
    "kernel.elaborate_citation",
    "normform.special_case",
    "normform.to_negation_form",
    "propcalc.clausify",
    "propcalc.ground_refute",
    tracing.CONGRUENCE,
    "propcalc.replay",
    "stringarith.eval_formula",
    "stringarith.eval_term",
    "stringarith.fuzz_axioms",
    "extend.translate_out",
    "hilbertack.ha_run",
    "hilbertack.ha_step",
    "machines.k_upper_bound",
    "machines.decode_machine",
    "machines.run",
)


class ProgramMissing(Exception):
    pass


def load_program():
    """Import proofkit from `src/` afresh and load the bundled theory and
    corpus.  Returns the seconds that took and the program's modules."""
    for name in [n for n in sys.modules if n == "proofkit" or n.startswith("proofkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        modules = {
            layer: importlib.import_module("proofkit." + layer) for layer in tracing.LAYERS
        }
    except ImportError as e:
        raise ProgramMissing(f"cannot import proofkit from {SRC}: {e}") from e
    bundle = modules["stringarith"].load_theory()
    scripts = modules["stringarith"].load_corpus()
    elapsed = time.perf_counter() - start
    origin = Path(modules["syntax"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"proofkit was imported from {origin}, not from {SRC}")
    return elapsed, SimpleNamespace(bundle=bundle, scripts=scripts, **modules)


def percentile(values, p: float) -> float:
    """The Harrell-Davis estimate of quantile p: the mean of the order
    statistics weighted by a beta density centred on rank p*n.  It rests
    on the few verdicts around that rank rather than on one, whose time on
    a shared 2-vCPU machine varies by a fifth from pass to pass.  (The
    corpus's 85th percentile leaves 11 of its 76 scripts beyond it.)"""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 16  # midpoints integrated per order statistic
    logs = [
        (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
        for t in ((j + 0.5) / (steps * n) for j in range(steps * n))
    ]
    top = max(logs)
    weights = [0.0] * n
    for j, w in enumerate(logs):
        weights[j // steps] += math.exp(w - top)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def set_up():
    """load_program, its time scaled to nominal speed by the readings of
    the machine's speed just before and just after it.  The program loaded
    before is collected first, so that peak memory is one program's."""
    gc.collect()
    before = speed.reading()
    setup_s, prog = load_program()
    after = speed.reading()
    return speed.scaled(setup_s, (before + after) / 2), prog


def one_pass(workload, tracer=None, due=lambda i: True):
    """Set up a fresh program, build the inputs, and run one pass that
    times the verdicts `due` names, with `tracer` installed around the
    pass alone when given."""
    setup_s, prog = set_up()
    inputs = workload.inputs(prog)
    gc.collect()
    out = workloads.Pass(tracer.paused if tracer else contextlib.nullcontext, due)
    if tracer:
        tracer.install()
    try:
        workload.run(prog, inputs, out)
    finally:
        if tracer:
            tracer.uninstall()
    out.read_speed()
    del prog, inputs
    gc.collect()
    return setup_s, out


def untraced_passes(workload, seconds: float):
    """MIN_PASSES passes that time every verdict, then, while another pass
    fits in `seconds`, passes that time each verdict whose timing has so
    far taken less than ITEM_SHARE of `seconds`.

    A verdict's typical time (typical_times) is the steadier the more
    samples it rests on.  Whole passes would give the corpus two samples
    in a run, its last script taking most of each pass; this way the few
    verdicts of a second or more are timed a few times and the many short
    ones, which set the percentiles, are timed in every pass."""
    start = time.perf_counter()
    setups, passes = [], []
    spent: list[float] = []  # per verdict, the seconds spent timing it

    def due(i: int) -> bool:
        return len(passes) < MIN_PASSES or spent[i] < seconds * ITEM_SHARE

    def next_pass_s() -> float:
        least = typical_times(passes, scale=False)
        return statistics.median(setups) + sum(
            t for i, t in enumerate(least) if due(i)
        )

    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + next_pass_s() <= seconds
        and any(map(due, range(len(spent))))
    ):
        setup_s, out = one_pass(workload, due=due)
        setups.append(setup_s)
        passes.append(out)
        spent = [a + (t or 0.0) for a, t in zip(spent or [0.0] * len(out.times), out.times)]
    while len(setups) < MIN_SETUPS:
        setups.append(set_up()[0])
    return setups, passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def typical_times(passes, scale: bool = True) -> list:
    """Each verdict's time as the median of its times over the passes that
    timed it, each scaled to nominal speed (speed.py) unless `scale` is
    false.  Scaled, a verdict's times differ from pass to pass by what the
    probe did not see, as often up as down, so the middle one is the one
    to keep."""
    per_pass = [
        [
            None if t is None else speed.scaled(t, r) if scale else t
            for t, r in zip(p.times, p.probe_s)
        ]
        for p in passes
    ]
    return [
        statistics.median(t for t in ts if t is not None) for ts in zip(*per_pass)
    ]


def end_to_end(setups, passes) -> dict:
    times = typical_times(passes)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(sum(times), "s"),
        "verdict_p50_ms": metric(percentile(times, 0.50) * 1e3, "ms"),
        "verdict_p85_ms": metric(percentile(times, 0.85) * 1e3, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def per_layer(untraced_wall_s, timed, memory) -> dict:
    """Per-layer metrics from the timed traced pass and the tracemalloc pass."""
    tracer = timed.tracer
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = metric(tracer.calls[name], "count")
        out[f"{name}.self_s"] = metric(tracer.self_s[name], "s")
    layer_self = tracer.layer_self_s()
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = metric(layer_self[layer], "s")
    for layer in tracing.LAYERS:
        out[f"mem.tracemalloc_peak_mb.{layer}"] = metric(
            memory.tracer.mem_peak[layer] / 2**20, "MB"
        )
    counts = timed.out.counts
    out["propcalc.cert_steps"] = metric(counts["cert_steps"], "count")
    out["propcalc.refuted_ratio"] = metric(
        counts["refuted"] / counts["decided"] if counts["decided"] else 0.0, "1"
    )
    out["stringarith.instances_checked"] = metric(counts["instances_checked"], "count")
    traced_wall_s = sum(typical_times([timed.out]))
    out["trace.untraced_wall_s"] = metric(untraced_wall_s, "s")
    out["trace.traced_wall_s"] = metric(traced_wall_s, "s")
    out["trace.overhead_s"] = metric(traced_wall_s - untraced_wall_s, "s")
    out["trace.spans"] = metric(tracer.span_count, "count")
    return out


def measure(workload, seconds: float, trace: bool):
    """One benchmark run of a workload from workloads.py.  Returns the
    result object printed as JSON and a line that summarises it."""
    setups, passes = untraced_passes(workload, 0 if trace else seconds)
    probe_ms = statistics.median(r for p in passes for r in p.readings) * 1e3
    if trace:
        untraced_wall_s = sum(typical_times(passes))
        timed = SimpleNamespace(tracer=tracing.Tracer())
        timed.out = one_pass(workload, tracer=timed.tracer)[1]
        memory = SimpleNamespace(tracer=tracing.Tracer(memory_s=MEMORY_SECONDS))
        memory.out = one_pass(workload, tracer=memory.tracer)[1]
        passes += [timed.out, memory.out]
        metrics = per_layer(untraced_wall_s, timed, memory)
    else:
        metrics = end_to_end(setups, passes)
    attempted = sum(t is not None for p in passes for t in p.times)
    failed = sum(p.failed for p in passes)
    if trace:
        metrics["fail_ratio"] = metric(failed / attempted, "1")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    samples = [sum(t is not None for t in ts) for ts in zip(*(p.times for p in passes))]
    summary = (
        f"median speed probe {probe_ms:.3f} ms over the untraced passes "
        f"(nominal {speed.NOMINAL_PROBE_S * 1e3:g} ms); "
        f"{len(passes)} passes of {len(samples)} verdicts, each timed "
        f"{min(samples)} to {max(samples)} times (median "
        f"{statistics.median(samples):g}); {failed} of {attempted} wrong "
        f"(fail_ratio {failed / attempted:.4f})"
    )
    return result, summary


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        result, summary = measure(workload, args.seconds, bool(args.trace))
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"{args.workload} seed {args.seed}: {summary}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
