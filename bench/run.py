"""orecert benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload ore-roundtrip --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``orecert`` from ``src/``
there and refuses to run without it.  Each operation is one call of
``orecert.cli.main`` in this process, single-threaded and closed-loop: the
next call starts when the previous one returns.  A round is the workload's
whole operation list; the run repeats whole rounds until ``--seconds`` have
passed, then checks the outputs against the oracles in ``oracles.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of
``tracer.py``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A copy of it, with the
round times and the span totals, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15  # at least this many set-ups per run behind the median setup_s
SUCCESS_CODES = (0, 3)  # found / exhausted; 1 and 2 are errors, as is a traceback


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import orecert afresh, as a new process would."""
    for name in [n for n in sys.modules if n == "orecert" or n.startswith("orecert.")]:
        del sys.modules[name]
    return importlib.import_module("orecert.cli")


def setup(workloads, name, seed, tmp):
    """Import, input generation and the run directory; returns the time."""
    start = perf_counter()
    cli = import_program()
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    ops = workloads.build(name, seed, str(tmp))
    return perf_counter() - start, cli, ops


def run_round(cli, ops):
    """One pass over the operations: (wall time, latencies, outputs)."""
    latencies, outputs = [], []
    start = perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            code = cli.main(op.argv, stdout=out, stderr=err)
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code = f"{type(exc).__name__}: {exc}"[:200]
        latencies.append(perf_counter() - t0)
        text = out.getvalue()
        if op.save:
            with open(op.save, "w", encoding="utf-8") as handle:
                handle.write(text)
        outputs.append((code, text))
    return perf_counter() - start, latencies, outputs


def check_outputs(ops, rounds):
    """Oracle checks on the first round; later rounds must repeat it byte
    for byte.  Returns (failed operations, problems)."""
    problems = []
    first = rounds[0][2]
    for k, (_, _, outputs) in enumerate(rounds[1:], 2):
        for op, a, b in zip(ops, first, outputs):
            if a != b:
                problems.append(f"round {k} differs on {' '.join(op.argv)[:80]}")
                break
    failed = sum(code not in SUCCESS_CODES for _, _, outs in rounds for code, _ in outs)
    for op, (code, text) in zip(ops, first):
        if code not in SUCCESS_CODES:
            continue
        try:
            op.check(code, text)
        except Exception as exc:
            problems.append(f"{' '.join(op.argv)[:80]}: {type(exc).__name__}: {exc}")
    return failed, problems


def self_test(ops, first, workloads):
    """The checks must reject perturbed outputs: returns (flagged, tried)."""
    flagged = tried = 0
    for label, op, code, text in workloads.perturbations(ops, first):
        tried += 1
        try:
            op.check(code, text)
        except Exception:
            flagged += 1
        else:
            print(f"self-test: check accepted a {label}", file=sys.stderr)
    return flagged, tried


def fastest_calls(rounds):
    """Each operation's fastest latency over the given rounds."""
    return [min(lat) for lat in zip(*(r[1] for r in rounds))]


def measure(make_setup, seconds, traced, tracer_mod):
    """Whole rounds until the deadline; in trace mode every untraced round
    is followed by a traced one.  A set-up precedes every untraced round,
    so each round starts from freshly imported modules, as a new process
    would, and the set-up times, like the rounds, sample the whole run;
    a run with fewer than SETUP_REPEATS rounds makes the rest at the end.
    Returns the set-up times, the operations, the rounds, and the peak
    resident memory after the first round."""
    setup_times, untraced, traced_rounds, layer_rounds = [], [], [], []
    tr = tracer_mod.Tracer() if traced else None

    def set_up():
        elapsed, cli, ops = make_setup()
        setup_times.append(elapsed)
        gc.collect()  # free the modules of the last set-up now, not inside a round
        return cli, ops

    cli, ops = set_up()
    deadline = perf_counter() + seconds
    while not untraced or perf_counter() < deadline:
        if untraced:
            cli, ops = set_up()
        untraced.append(run_round(cli, ops))
        if len(untraced) == 1:
            # the first round starts from the same heap in every run; later
            # rounds inherit whatever fragmentation the earlier ones left
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tr is not None:
            tr.install()
            lo = tr.mark()
            try:
                traced_rounds.append(run_round(cli, ops))
            finally:
                tr.uninstall()
            layer_rounds.append(tr.aggregate(lo, tr.mark()))
    while len(setup_times) < SETUP_REPEATS:
        cli, ops = set_up()
    return setup_times, ops, untraced, traced_rounds, layer_rounds, peak_rss_mib


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "orecert" / "__init__.py").is_file():
        print(f"error: no orecert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import oracles
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        setup_times, ops, untraced, traced, layer_rounds, peak_rss_mib = measure(
            lambda: setup(workloads, args.workload, args.seed, tmp),
            args.seconds, bool(args.trace), tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rounds = untraced + traced
    oracles.self_check()
    failed, problems = check_outputs(ops, rounds)
    flagged, tried = self_test(ops, rounds[0][2], workloads)
    if flagged != tried or not tried:
        problems.append(f"self-test flagged {flagged} of {tried} perturbed outputs")
    print(f"self-test: checks flagged {flagged} of {tried} perturbed outputs")

    # Neighbours on a shared machine only ever add time, and they come and
    # go over seconds to minutes.  Each operation's fastest call, taken over
    # rounds spread across the run, is the steadiest estimate of its cost.
    best = fastest_calls(untraced)
    run_s = sum(best)
    if args.trace:
        per_round = [tracer.layer_metrics(agg) for agg in layer_rounds]
        layers, unsteady = tracer.combine_rounds(per_round)
        problems += [f"count {n} differs between traced rounds" for n in unsteady]
        layers["bench.trace_overhead_s"] = (sum(fastest_calls(traced)) - run_s, "s")
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(best), "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "operations": len(ops), "setup_times_s": setup_times,
        "untraced_round_s": [r[0] for r in untraced],
        "traced_round_s": [r[0] for r in traced],
        "problems": problems, "result": result,
    }
    if layer_rounds:
        record["spans"] = {n: {k: rec[k] for k in ("calls", "self_s", "value")}
                           for n, rec in layer_rounds[0].items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
