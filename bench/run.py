#!/usr/bin/env python3
"""weilkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md):
  cli-sparse   one fresh `python -m weilkit.cli` per operation, sparse ladder
  cli-dense    the same on scrambled dense tables, a quarter of them invalid
  chart-sweep  library calls on one algebra held in memory

Each run is a closed loop with one client.  It plays whole rounds of the
workload's deck until at least S seconds have passed and at least 100
operations have run, checks every output, prints every metric with its
unit and sample count, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 rounds alternate between untraced
and traced, and the metrics are the per-layer ones computed from spans.

`--workload all` runs every workload, untraced and traced, and prints all
metrics together.  Run from the repository root; the program under test is
imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SHIM = os.path.join(HERE, "shim.py")
sys.path.insert(0, HERE)

import spans  # noqa: E402

WORKLOADS = ("cli-sparse", "cli-dense", "chart-sweep")
MIN_OPS = 100
OP_TIMEOUT_S = 30.0
# No new operation starts after this much loop time, so that a run whose
# operations hang or crawl still ends well within three minutes.
RUN_DEADLINE_S = 120.0
CLI_SETUP_REPEATS = 5
CHART_SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# A fresh interpreter that reports when it is ready to take its first
# operation: for the CLI, after `import weilkit.cli`; for chart-sweep, after
# the one-time algebra, derivation-basis and Lie-structure build.
SETUP_PROBES = {
    "cli": "import weilkit.cli\nfrom time import perf_counter\nprint(perf_counter())",
    "chart-sweep": (
        "import weilkit\n"
        "from weilkit import derivations, foliation, jsonio\n"
        "a = jsonio.algebra_from_spec({spec!r})\n"
        "b = derivations.derivation_basis(a)\n"
        "derivations.lie_structure(b)\n"
        "[foliation.induced_field(a, d, {n}) for d in b]\n"
        "from time import perf_counter\n"
        "print(perf_counter())"
    ),
}


@dataclass
class Run:
    """What one run measured."""

    latencies: list = field(default_factory=list)  # untraced operations, seconds
    traced_latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (card, reason)
    attempted: int = 0
    rounds: int = 0
    deck_size: int = 0
    setup_samples: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    setup_spans: list = field(default_factory=list)
    startups: list = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def record(self, card: str, latency: float, reason, traced: bool) -> None:
        self.attempted += 1
        (self.traced_latencies if traced else self.latencies).append(latency)
        if reason is not None:
            self.failures.append((card, reason))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["WEIL_COLOR"] = "0"
    # Byte-compiled modules are cached, as they are for an installed package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(kind: str, repeats: int) -> list:
    code = SETUP_PROBES[kind]
    if kind == "chart-sweep":
        import chart_sweep

        code = code.format(spec=chart_sweep.SPEC, n=chart_sweep.N)
    os.makedirs(OUT, exist_ok=True)
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=OUT,
            capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def _done(run: Run, loop_start: float, seconds: float, trace: bool) -> bool:
    enough_rounds = run.rounds >= (2 if trace else 1)
    elapsed = perf_counter() - loop_start
    return enough_rounds and elapsed >= seconds and run.attempted >= MIN_OPS


def _overdue(run: Run, loop_start: float) -> bool:
    if perf_counter() - loop_start < RUN_DEADLINE_S:
        return False
    run.failures.append(("run", f"stopped after {RUN_DEADLINE_S:.0f} s of loop time"))
    return True


# ---------------------------------------------------------------- CLI loop


def _spawn(argv: list, env: dict, cwd: str):
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    end = perf_counter()
    return start, end, proc.returncode, out.decode(), err.decode(), timed_out


def run_cli(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    import cli_workloads

    rng = random.Random(seed)
    make = cli_workloads.sparse_deck if workload == "cli-sparse" else cli_workloads.dense_deck
    cards = make(rng, workdir)
    run = Run(deck_size=len(cards))
    run.setup_samples = measure_setup("cli", CLI_SETUP_REPEATS)
    env = child_env()
    spans_path = os.path.join(workdir, "op-spans.json")
    first_output: dict = {}
    loop_start = perf_counter()
    while not _done(run, loop_start, seconds, trace):
        traced = trace and run.rounds % 2 == 1
        order = list(cards)
        rng.shuffle(order)
        for card in order:
            if _overdue(run, loop_start):
                break
            op = run.attempted
            if traced:
                argv = [sys.executable, SHIM, spans_path, str(op), "--", *card.argv]
            else:
                argv = [sys.executable, "-m", "weilkit.cli", *card.argv]
            start, end, code, out, err, timed_out = _spawn(argv, env, workdir)
            if timed_out:
                reason = f"timed out after {OP_TIMEOUT_S:.0f} s"
            elif "Traceback" in err:
                reason = "traceback: " + err.strip().splitlines()[-1]
            else:
                reason = card.check(code, out, err)
                if reason is None and first_output.setdefault(card.key, out) != out:
                    reason = "repeated output is not byte-identical"
            if traced and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as handle:
                    child = json.load(handle)
                os.remove(spans_path)
                run.startups.append(child["ready"] - start)
                offset = len(run.spans)
                for span in child["spans"]:
                    if span[3] >= 0:
                        span[3] += offset
                    run.spans.append(span)
            run.record(card.key, end - start, reason, traced)
        run.rounds += 1
        if run.failures and run.failures[-1][0] == "run":
            break
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return run


# --------------------------------------------------------- chart-sweep loop


def run_chart(seed: int, seconds: float, trace: bool) -> Run:
    import chart_sweep

    rng = random.Random(seed)
    run = Run(deck_size=len(chart_sweep.ROUND))
    run.setup_samples = measure_setup("chart-sweep", CHART_SETUP_REPEATS)
    ctx = chart_sweep.setup()
    problem = chart_sweep.check_setup(ctx)
    if problem:
        run.failures.append(("setup", problem))
    recorder = spans.Recorder()
    if trace:
        uninstall = spans.install(recorder)
        recorder.op = "setup"
        try:
            chart_sweep.setup()
        finally:
            uninstall()
        run.setup_spans, recorder.spans = recorder.spans, []
    recorder.active = False
    loop_start = perf_counter()
    while not _done(run, loop_start, seconds, trace):
        traced = trace and run.rounds % 2 == 1
        uninstall = spans.install(recorder) if traced else None
        order = list(chart_sweep.ROUND)
        rng.shuffle(order)
        try:
            for kind, point_kind in order:
                if _overdue(run, loop_start):
                    break
                key = f"{kind}/{point_kind}"
                call, check = chart_sweep.prepare(ctx, rng, kind, point_kind)
                recorder.op = run.attempted
                recorder.active = traced
                start = perf_counter()
                try:
                    result = call()
                    failed = None
                except Exception as exc:  # an operation failure, counted below
                    failed = f"{type(exc).__name__}: {exc}"
                end = perf_counter()
                recorder.active = False
                reason = failed or _checked(check, result)
                run.record(key, end - start, reason, traced)
        finally:
            if uninstall:
                uninstall()
        run.rounds += 1
        if run.failures and run.failures[-1][0] == "run":
            break
    run.spans = recorder.spans
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return run


def _checked(check, result):
    try:
        return check(result)
    except Exception as exc:  # a malformed result fails its operation
        return f"check raised {type(exc).__name__}: {exc}"


# ----------------------------------------------------------------- metrics


def ops_per_s(latencies: list) -> float:
    return len(latencies) / sum(latencies) if latencies else 0.0


def end_to_end(run: Run) -> dict:
    lat = run.latencies or [0.0]
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return {
        "ops_per_s": ops_per_s(run.latencies),
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_p90_ms": p90 * 1000.0,
        "setup_s": statistics.median(run.setup_samples),
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run) -> dict:
    metrics = spans.layer_metrics(run.spans, len(run.traced_latencies))
    setup = spans.layer_metrics(run.setup_spans, 1)
    for name in spans.SETUP_METRICS:
        metrics[f"setup.{name}"] = setup[name] if run.setup_spans else 0.0
    metrics["cli.startup_s"] = statistics.fmean(run.startups) if run.startups else 0.0
    traced, untraced = ops_per_s(run.traced_latencies), ops_per_s(run.latencies)
    metrics["trace.ops_per_s"] = traced
    metrics["trace.untraced_ops_per_s"] = untraced
    metrics["trace.overhead_ratio"] = untraced / traced if traced else 0.0
    return {name: metrics[name] for name in spans.per_layer_names()}


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = os.path.join(ROOT, ".git", name)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    return handle.read().strip()
            with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
                for line in handle:
                    if line.strip().endswith(" " + name):
                        return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def print_report(args, run: Run, metrics: dict) -> None:
    n, traced_n = len(run.latencies), len(run.traced_latencies)
    print(f"weilkit benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds}, trace {args.trace}")
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, commit {commit()}")
    print(f"closed loop, 1 client: {run.rounds} rounds of {run.deck_size} cards, "
          f"{run.attempted} operations ({n} untraced, {traced_n} traced)")
    print(f"fail_ratio {len(run.failures) / max(run.attempted, 1):.4f} "
          f"({len(run.failures)} failed of {run.attempted} attempted)")
    for card, reason in run.failures[:10]:
        print(f"  FAIL {card}: {reason}")
    notes = {
        "ops_per_s": f"{n} operations / {sum(run.latencies):.3f} s of timed wall time",
        "op_p50_ms": f"median of {n} operations",
        "op_p90_ms": f"90th percentile of {n} operations, {n - int(0.9 * n)} beyond it",
        "setup_s": f"median of {len(run.setup_samples)} fresh set-ups",
        "peak_rss_mb": "benchmark process" if args.workload == "chart-sweep"
        else "largest weil process",
        "cli.startup_s": f"mean of {len(run.startups)} traced calls",
    }
    for name, value in metrics.items():
        unit = END_TO_END_UNITS.get(name) or spans.unit_of(name)
        if name in notes:
            note = notes[name]
        elif name.startswith("setup."):
            note = "per set-up"
        elif unit in ("s", "count"):
            note = f"per traced operation ({traced_n})"
        else:
            note = ""
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weilkit", "cli.py")):
        print(f"error: weilkit sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    if args.workload == "chart-sweep":
        run = run_chart(args.seed, args.seconds, bool(args.trace))
    else:
        run = run_cli(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    if args.trace:
        with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump({"setup": run.setup_spans, "rounds": run.spans}, handle)
    print_report(args, run, metrics)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS.get(name) or spans.unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, one after another."""
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
            print("\n".join(lines[:-1]) if result else proc.stdout + proc.stderr)
            correct = correct and proc.returncode == 0 and result.get("correct") is True
            print()
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
