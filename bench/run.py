"""The qkostant benchmark: one seeded command per workload.

Usage, from the root of a source checkout (the package is taken from src/):

    python3 bench/run.py --workload deep_points --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke

Workloads (BENCHMARK.json gives the reason each was chosen):

- ``cli_oneshot``: one ``python -m qkostant.cli`` subprocess per op, a
  seeded mix of qmult, mult, case, qpartition and partition over both
  algebras and all formats, with small weights and some bad input;
- ``deep_points``: in-process q-multiplicities of large, distinct, dominant
  weights, half g2 (``qmultiplicity_closed``), half sp4
  (``multiplicity_c2_weyl_sum``);
- ``grid_sweep``: ``verify`` and ``table`` for both algebras on
  [0, N]^4, in-process through ``qkostant.cli.run``; one op is one tuple.

Load is one client in a closed loop. In-process work runs in fresh worker
interpreters (worker.py), so caches start cold. Each run measures whole
rounds until ``--seconds`` have passed and at least a fixed number of
rounds per workload are done; ``ops_per_s`` is the ops of all rounds over
the time spent inside them, and the latency percentiles are over the ops of
that fixed number of rounds (for ``grid_sweep`` one latency sample is one
command). ``setup_s`` is the median time from spawning probe.py to its
first line, probed before and after the timed rounds. ``peak_rss_mb`` is
the peak of the CLI processes, of the deep worker at the end of its fixed
rounds, or of the grid command workers. Every op's output is checked
against an oracle (workloads.py); any failure makes ``correct`` false and
the exit code 1.

Every time in the metrics is scaled to a fixed machine speed by
calibration chunks timed around each op and probe and, in workers, inside
long ops (calib.py). The report keeps the raw ``ops_per_s`` and ``setup_s``
beside the scaled ones.

With ``--trace 0`` the last line gives the end-to-end metrics. With
``--trace 1`` the same inputs are run for a fixed number of rounds three
times in fresh workers: traced twice (A, B) and untraced once (C). The
per-layer metrics come from A (counts) and the mean of A and B (times);
``trace.overhead_ratio`` is the traced op time over the untraced one, less
one. A and B must give identical exact counts, and every ``lru_cache``'d
function's traced call count must equal its ``cache_info()`` delta. Spans
are written to ``.bench_out/spans/``.

The line before the last is a JSON report: Python version, CPU count, seed,
the held-out seed ``HELDOUT_SEED`` (kept for checking claims on inputs not
used while writing them), client count, sizes and op mix, the interpreter
floor, ``failed_ops_ratio`` and the tail percentile with its sample count.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import calib
import workloads as wl
from tracer import CACHED

WORKLOADS = ("cli_oneshot", "deep_points", "grid_sweep")
HELDOUT_SEED = 20030781
CHILD_TIMEOUT_S = 150
CLI_MAX_ROUNDS = 400
GRID_MAX_ROUNDS = 100

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _on_alarm(signum, frame):
    raise TimeoutError("child process did not finish in time")


@dataclass
class Pass:
    """What one pass over a workload's rounds measured."""

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    latencies_ms: list = field(default_factory=list)  # scaled, per op; grid: per command
    round_ends: list = field(default_factory=list)  # len(latencies_ms) after each round
    rates: list = field(default_factory=list)  # ops/s of each round, for the report
    ops: int = 0  # ops in completed rounds
    op_ms: float = 0.0  # scaled time spent inside ops
    raw_op_ms: float = 0.0
    maxrss_kb: int = 0
    traces: list = field(default_factory=list)  # one tracer summary per worker
    first_error: str | None = None  # the first exception an op raised

    def note_error(self, error: str | None) -> None:
        if self.first_error is None:
            self.first_error = error

    def add_round(self, ops: int, round_ms: float, raw_ms: float) -> None:
        self.rounds += 1
        self.round_ends.append(len(self.latencies_ms))
        self.rates.append(ops / (round_ms / 1e3))
        self.ops += ops
        self.op_ms += round_ms
        self.raw_op_ms += raw_ms


class Bench:
    """Runs children of the benchmark from a checkout's root."""

    def __init__(self, sizes: wl.Sizes) -> None:
        self.sizes = sizes
        self.out = ROOT / ".bench_out"
        (self.out / "spans").mkdir(parents=True, exist_ok=True)
        src = str(ROOT / "src")
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def worker(self, job: dict) -> dict:
        """Run one job in a fresh worker interpreter and return its result."""
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
        return json.loads(proc.stdout)

    def probe_ms(self, argv: list[str]) -> tuple[float, float, str]:
        """Time from spawning a child to its first line (or its exit): scaled, raw."""
        before = calib.chunk()
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              env=self.env, cwd=ROOT, text=True) as proc:
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                line = proc.stdout.readline()
                t1 = perf_counter()
                proc.stdout.read()
                rc = proc.wait()
            finally:
                signal.alarm(0)
        after = calib.chunk()
        if rc != 0:
            raise BenchError(f"probe {argv[1:]} exited {rc}")
        raw = (t1 - t0) * 1e3
        return calib.scale(raw, [before, after]), raw, line

    def cli_call(self, argv: list[str]) -> tuple[float, float, int, str, str, int]:
        """One `python -m qkostant.cli` call.

        Returns scaled ms, raw ms, exit code, stdout, stderr and peak RSS in
        KiB. stderr is read after stdout; the CLI writes at most a few lines
        there.
        """
        before = calib.chunk()
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qkostant.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            proc.stdout.close()
            proc.stderr.close()
        t1 = perf_counter()
        after = calib.chunk()
        proc.returncode = os.waitstatus_to_exitcode(status)
        raw = (t1 - t0) * 1e3
        return (calib.scale(raw, [before, after]), raw, proc.returncode,
                out.decode("utf-8", "replace"), err.decode("utf-8", "replace"), usage.ru_maxrss)

    def spans_path(self, workload: str, tag: str) -> str:
        return str(self.out / "spans" / f"{workload}-{tag}.tsv.gz")


# -- passes ----------------------------------------------------------------------


def _time_up(start: float, rounds_done: int, seconds: float, min_rounds: int) -> bool:
    return rounds_done >= min_rounds and perf_counter() - start >= seconds


def cli_process_pass(b: Bench, rounds: list, seconds: float, min_rounds: int) -> Pass:
    """cli_oneshot as users meet it: a fresh CLI process per op."""
    p = Pass()
    start = perf_counter()
    done = []
    for ops in rounds:
        calls = [b.cli_call(op["argv"]) for op in ops]
        done.append((ops, calls))
        p.latencies_ms += [call[0] for call in calls]
        p.add_round(len(ops), sum(call[0] for call in calls), sum(call[1] for call in calls))
        if _time_up(start, p.rounds, seconds, min_rounds):
            break
    for ops, calls in done:
        for op, (_, _, rc, out, err, rss_kb) in zip(ops, calls):
            p.attempted += 1
            p.failed += not wl.check_cli(op, rc, out, err)
            p.maxrss_kb = max(p.maxrss_kb, rss_kb)
    return p


def cli_inprocess_pass(b: Bench, rounds: list, trace: bool, tag: str) -> Pass:
    """The same argv lists through cli.run in one fresh worker (traced runs)."""
    ops = [op for round_ops in rounds for op in round_ops]
    res = b.worker({"kind": "cli", "argvs": [op["argv"] for op in ops], "trace": trace,
                    "spans_out": b.spans_path("cli_oneshot", tag)})
    p = Pass(maxrss_kb=res["maxrss_kb"], traces=[res["trace"]] if trace else [])
    results = iter(res["ops"])
    for round_ops in rounds:
        round_ms = raw_ms = 0.0
        for op in round_ops:
            r = next(results)
            p.note_error(r["error"])
            p.attempted += 1
            p.failed += not wl.check_cli(op, r["rc"], r["out"], r["err"])
            p.latencies_ms.append(r["scaled_ms"])
            round_ms += r["scaled_ms"]
            raw_ms += r["ms"]
        p.add_round(len(round_ops), round_ms, raw_ms)
    return p


def deep_pass(b: Bench, rounds: list, seconds: float, min_rounds: int,
              trace: bool, tag: str) -> Pass:
    res = b.worker({"kind": "deep", "rounds": rounds, "seconds": seconds,
                    "min_rounds": min_rounds, "trace": trace, "calibrate": not trace,
                    "spans_out": b.spans_path("deep_points", tag)})
    p = Pass(maxrss_kb=res["maxrss_kb"], traces=[res["trace"]] if trace else [])
    for queries, done in zip(rounds, res["rounds"]):
        if len(done) != len(queries):
            raise BenchError("deep worker returned a partial round")
        for query, (_, scaled, at_one, min_coeff, error) in zip(queries, done):
            p.attempted += 1
            p.failed += error is not None or not wl.check_deep(query, at_one, min_coeff)
            p.note_error(error)
            p.latencies_ms.append(scaled)
        p.add_round(len(done), sum(row[1] for row in done), sum(row[0] for row in done))
    return p


def grid_pass(b: Bench, orders: list, seconds: float, min_rounds: int,
              trace: bool, tag: str) -> Pass:
    """Each grid command in its own fresh worker, a round being all four."""
    n = b.sizes.grid_max
    tuples = (n + 1) ** 4
    table = b.out / "table.csv"
    p = Pass()
    start = perf_counter()
    for order in orders:
        round_ms = raw_ms = 0.0
        for command, algebra in order:
            table.unlink(missing_ok=True)
            res = b.worker({"kind": "cli", "argvs": [wl.grid_argv(command, algebra, n, str(table))],
                            "trace": trace, "calibrate": not trace,
                            "spans_out": b.spans_path("grid_sweep", f"{tag}-{command}-{algebra}")})
            op = res["ops"][0]
            p.note_error(op["error"])
            table_bytes = table.read_bytes() if command == "table" and table.exists() else None
            p.attempted += tuples
            p.failed += wl.grid_failures(command, algebra, n, op["rc"], op["out"], table_bytes)
            p.latencies_ms.append(op["scaled_ms"])
            p.maxrss_kb = max(p.maxrss_kb, res["maxrss_kb"])
            if trace:
                p.traces.append(res["trace"])
            round_ms += op["scaled_ms"]
            raw_ms += op["ms"]
        p.add_round(len(order) * tuples, round_ms, raw_ms)
        if _time_up(start, p.rounds, seconds, min_rounds):
            break
    table.unlink(missing_ok=True)
    return p


def make_inputs(workload: str, seed: int, sizes: wl.Sizes) -> list:
    rng = wl.rng_for(workload, seed)
    if workload == "cli_oneshot":
        return [wl.cli_round(rng) for _ in range(CLI_MAX_ROUNDS)]
    if workload == "deep_points":
        return wl.deep_rounds(rng, sizes)
    return [wl.grid_round(rng) for _ in range(GRID_MAX_ROUNDS)]


def traced_pass(b: Bench, workload: str, inputs: list, trace: bool, tag: str) -> Pass:
    """All of `inputs` in fresh workers; cli_oneshot runs in-process here."""
    if workload == "cli_oneshot":
        return cli_inprocess_pass(b, inputs, trace, tag)
    if workload == "deep_points":
        return deep_pass(b, inputs, 0, len(inputs), trace, tag)
    return grid_pass(b, inputs, 0, len(inputs), trace, tag)


def timed_pass(b: Bench, workload: str, inputs: list, seconds: float) -> Pass:
    """Whole rounds of `inputs` until `seconds` have passed, untraced."""
    min_rounds = b.sizes.min_rounds[workload]
    if workload == "cli_oneshot":
        return cli_process_pass(b, inputs, seconds, min_rounds)
    if workload == "deep_points":
        return deep_pass(b, inputs, seconds, min_rounds, False, "e2e")
    return grid_pass(b, inputs, seconds, min_rounds, False, "e2e")


def trace_rounds(workload: str, sizes: wl.Sizes) -> int:
    return {"cli_oneshot": sizes.cli_trace_rounds, "deep_points": sizes.deep_trace_rounds,
            "grid_sweep": sizes.grid_trace_rounds}[workload]


# -- metrics ---------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples beyond it.

    With fewer than 11 samples there is no such percentile; the maximum is
    reported, as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def probe_samples(b: Bench, floor: int, setup: int, imports: int) -> dict:
    """Interleaved probes: interpreter floor, bare import, and set-up."""
    samples: dict[str, list] = {"floor": [], "import": [], "setup": [], "setup_raw": [],
                                "builds": []}
    python = sys.executable
    for i in range(max(floor, setup, imports)):
        if i < floor:
            samples["floor"].append(b.probe_ms([python, "-c", "pass"])[0])
        if i < imports:
            samples["import"].append(b.probe_ms([python, "-c", "import qkostant.cli"])[0])
        if i < setup:
            ms, raw, line = b.probe_ms([python, str(BENCH / "probe.py")])
            samples["setup"].append(ms)
            samples["setup_raw"].append(raw)
            samples["builds"].append(json.loads(line))
    return samples


def probe_medians(samples: dict) -> dict:
    out = {"cli.interp_floor_ms": statistics.median(samples["floor"])}
    if samples["setup"]:
        out["setup_s"] = statistics.median(samples["setup"]) / 1e3
        out["setup_s_raw"] = statistics.median(samples["setup_raw"]) / 1e3
        for key in samples["builds"][0]:
            out[key] = statistics.median(row[key] for row in samples["builds"])
    if samples["import"]:
        out["cli.import_ms"] = statistics.median(samples["import"]) - out["cli.interp_floor_ms"]
    return out


def end_to_end(p: Pass, probes: dict, min_rounds: int) -> tuple[dict, dict]:
    """ops_per_s over every round; latencies over the first min_rounds rounds.

    Every run completes min_rounds rounds, so the latency percentiles rank
    the same number of samples however fast the machine or the program is.
    """
    latencies = p.latencies_ms[:p.round_ends[min_rounds - 1]]
    latency_tail, pct = tail(latencies)
    metrics = {
        "ops_per_s": p.ops / (p.op_ms / 1e3),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": latency_tail,
        "setup_s": probes["setup_s"],
        "peak_rss_mb": p.maxrss_kb / 1024,
    }
    extra = {
        "failed_ops_ratio": p.failed / p.attempted,
        "ops_per_s_raw": p.ops / (p.raw_op_ms / 1e3),
        "setup_s_raw": probes["setup_s_raw"],
        "latency_tail_percentile": pct,
        "latency_samples": len(latencies),
        "rounds": p.rounds,
        "round_ops_per_s": p.rates,
        "first_error": p.first_error,
    }
    return metrics, extra


def merge_traces(traces: list[dict]) -> dict:
    """Sum the tracer summaries of several workers."""
    merged = {"stats": {}, "cache": {}, "coeffs_checked": 0, "spans": 0, "missing": set()}
    for t in traces:
        for key in ("stats", "cache"):
            for name, row in t[key].items():
                acc = merged[key].setdefault(name, [0] * len(row))
                for i, value in enumerate(row):
                    acc[i] += value
        merged["coeffs_checked"] += t["coeffs_checked"]
        merged["spans"] += t["spans"]
        merged["missing"].update(t["missing"])
    return merged


def exact_counts(merged: dict) -> dict:
    """The counts that must repeat exactly for the same inputs."""
    counts = {f"{name}.calls": row[0] for name, row in merged["stats"].items()}
    for name, row in merged["cache"].items():
        counts[f"{name}.misses"] = row[1]
        counts[f"{name}.coeffs_out"] = row[4]
    counts["qpoly.coeffs_checked"] = merged["coeffs_checked"]
    return counts


def completeness(traces: list[dict]) -> bool:
    """Every cached function's traced calls equal its cache_info() delta."""
    for t in traces:
        for name in CACHED:
            calls = t["stats"].get(name, [0])[0]
            if name in t["cache_delta"] and calls != t["cache_delta"][name]:
                return False
    return True


def layer_value(name: str, a: dict, b: dict, probes: dict, overhead: float) -> float:
    if name in probes:
        return probes[name]
    if name == "trace.overhead_ratio":
        return overhead
    if name == "qpoly.coeffs_checked":
        return a["coeffs_checked"]
    base, _, kind = name.rpartition(".")
    sa, sb = a["stats"].get(base, [0, 0.0, 0.0]), b["stats"].get(base, [0, 0.0, 0.0])
    ca, cb = a["cache"].get(base, [0, 0, 0.0, 0.0, 0]), b["cache"].get(base, [0, 0, 0.0, 0.0, 0])
    values = {
        "calls": sa[0],
        "ms": (sa[1] + sb[1]) / 2,
        "self_ms": (sa[2] + sb[2]) / 2,
        "misses": ca[1],
        "hit_ratio": ca[0] / sa[0] if sa[0] else 0.0,
        "hit_ms": (ca[2] + cb[2]) / 2,
        "miss_ms": (ca[3] + cb[3]) / 2,
        "coeffs_out": ca[4],
    }
    if kind not in values:
        raise BenchError(f"no rule for per-layer metric {name}")
    return values[kind]


# -- runs ------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: wl.Sizes,
        spec: dict) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, report)."""
    b = Bench(sizes)
    inputs = make_inputs(workload, seed, sizes)
    report = {
        "workload": workload, "seed": seed, "heldout_seed": HELDOUT_SEED, "trace": int(trace),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "clients": 1, "loop": "closed", "sizes": asdict(sizes),
        "op_mix": op_mix(workload, sizes),
    }
    if not trace:
        # Half the probes before the timed pass and half after, so that their
        # median does not rest on one stretch of machine speed.
        before = probe_samples(b, sizes.floor_probes // 2, sizes.setup_probes // 2, 0)
        p = timed_pass(b, workload, inputs, seconds)
        after = probe_samples(b, sizes.floor_probes - sizes.floor_probes // 2,
                              sizes.setup_probes - sizes.setup_probes // 2, 0)
        probes = probe_medians({key: before[key] + after[key] for key in before})
        metrics, extra = end_to_end(p, probes, sizes.min_rounds[workload])
        report.update(extra, **{"cli.interp_floor_ms": probes["cli.interp_floor_ms"],
                                "seconds": seconds})
        names = spec["end_to_end"]
        correct = p.failed == 0
        attempted, failed = p.attempted, p.failed
    else:
        count = sizes.setup_probes
        probes = probe_medians(probe_samples(b, count, count, count))
        fixed = inputs[:trace_rounds(workload, sizes)]
        passes = [traced_pass(b, workload, fixed, tag != "c", tag) for tag in ("a", "b", "c")]
        a, bb = merge_traces(passes[0].traces), merge_traces(passes[1].traces)
        overhead = (passes[0].op_ms + passes[1].op_ms) / 2 / passes[2].op_ms - 1
        metrics = {m["name"]: layer_value(m["name"], a, bb, probes, overhead)
                   for m in spec["per_layer"]}
        complete = completeness(passes[0].traces + passes[1].traces)
        repeatable = exact_counts(a) == exact_counts(bb)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        correct = failed == 0 and complete and repeatable
        report.update({
            "failed_ops_ratio": failed / attempted, "rounds": len(fixed),
            "cli.interp_floor_ms": probes["cli.interp_floor_ms"],
            "trace.complete": complete, "trace.repeatable": repeatable,
            "trace.spans": a["spans"] + bb["spans"], "trace.missing": sorted(a["missing"]),
            "trace.op_ms": [p.op_ms for p in passes],
            "first_error": next((p.first_error for p in passes if p.first_error), None),
        })
        names = spec["per_layer"]
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    return result, report


def op_mix(workload: str, sizes: wl.Sizes) -> dict:
    if workload == "cli_oneshot":
        mix: dict[str, int] = {}
        for cmd, algebra in wl.CLI_MIX:
            mix[f"{cmd}/{algebra}"] = mix.get(f"{cmd}/{algebra}", 0) + 1
        return {"per_round": mix, "formats": wl.FORMATS, "max_coord": wl.CLI_MAX_COORD}
    if workload == "deep_points":
        return {"per_round": {"g2 qmultiplicity_closed": len(wl.DEEP_SLOTS),
                              "c2 multiplicity_c2_weyl_sum": len(wl.DEEP_SLOTS)},
                "lambda_g2": sizes.deep_g2, "lambda_c2": sizes.deep_c2, "mu": "<= lambda/4"}
    return {"per_round": [f"{c} --algebra {a} --max {sizes.grid_max}" for c, a in wl.GRID_COMMANDS],
            "tuples_per_command": (sizes.grid_max + 1) ** 4}


def smoke(spec: dict) -> int:
    """Every workload at tiny sizes, untraced and traced; all names, no failures."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result, report = run(workload, 1, 0, trace, wl.SMOKE, spec)
            wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            good = (result["correct"] and result["failed"] == 0
                    and report["failed_ops_ratio"] == 0
                    and sorted(result["metrics"]) == sorted(wanted))
            ok &= good
            print(f"smoke {workload} trace={int(trace)}: {'ok' if good else 'FAILED'}"
                  f" ({result['attempted']} ops)")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes, traced and untraced")
    args = parser.parse_args(argv)
    if not args.smoke and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    if not (ROOT / "src" / "qkostant" / "__init__.py").is_file():
        print(f"bench: no qkostant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.smoke:
            return smoke(spec)
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             wl.FULL, spec)
    except (BenchError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_ops_ratio = {report['failed_ops_ratio']:.6g} ratio")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
