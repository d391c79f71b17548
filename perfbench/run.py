"""Benchmark of the dantzigfig CLI, run as users run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 30 --trace 0

Every CLI call is a fresh interpreter, so the lru_cached family maps start
cold, and calls run one at a time. Each call is timed from outside: wall
time around the process, and its user+sys CPU time and peak resident memory
from wait4. A workload is a fixed list of calls (one round). The run makes
three whole rounds, and more while they bring the time spent closer to
--seconds, and reports the sum over the calls of each call's median over the
rounds. Outputs are checked by
perfbench/checks.py after the timed calls.

With --trace 1 the run makes one plain round and then the same calls under
perfbench/traced_call.py, and reports per-layer self times and call counts,
and the tracing overhead against the plain round.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The exit code is 0 when the run completed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
from traced_call import COUNT_ONLY, LAYERS, METRIC_ALIAS

PROCESS_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
HARD_LIMIT_S = 160  # a call still running this long after start is killed
SETUP_SAMPLES = 11
MIN_ROUNDS = 3  # a median of fewer samples is a mean, which one slow round moves

SUITES_ALL = ("vertices", "facets", "incidence", "dantzig", "graph", "expansion", "oracle")
SUITES_FRONTIER = ("vertices", "facets", "incidence", "dantzig", "graph")


@dataclass(frozen=True)
class Rung:
    """One instance of a workload: theta is a permutation of `multiset`,
    drawn from the seed, with exactly `merged` grlex merges."""

    family: str
    multiset: tuple[int, ...]
    commands: tuple[tuple[str, ...], ...]
    merged: int = 0

    def theta(self, rng: random.Random) -> tuple[int, ...]:
        theta = list(self.multiset)
        while True:
            rng.shuffle(theta)
            if checks.merged_count(self.family, theta) == self.merged:
                return tuple(theta)


VERIFY_ALL = (("verify", "--suites", "all"),)
VERIFY_FRONTIER = (("verify", "--suites", ",".join(SUITES_FRONTIER)),)
CONSTRUCT = (("construct", "--format", "json"),)
CONSTRUCT_AND_GRAPH = (("construct", "--format", "json"), ("graph", "--format", "json"))

# d and b are fixed per rung, so the seed moves the instance, not the work.
WORKLOADS = {
    "verify-small": (
        Rung("grlex", (2, 2, 2, 2, 2, 2), VERIFY_ALL),
        Rung("grevlex", (3, 3, 2, 2, 2), VERIFY_ALL),
        Rung("grlex", (3, 1, 3, 1, 4), VERIFY_ALL, merged=1),
    ),
    "verify-frontier": (
        Rung("grlex", (3, 3, 3, 2, 2, 2, 2, 2), VERIFY_FRONTIER),
        Rung("grevlex", (3, 3, 3, 2, 2, 2, 2, 2), VERIFY_FRONTIER),
    ),
    "construct-large": (
        Rung("grevlex", (3,) * 4 + (2,) * 12, CONSTRUCT),
        Rung("grlex", (1,) * 4 + (2,) * 12, CONSTRUCT_AND_GRAPH, merged=4),
    ),
}


@dataclass(frozen=True)
class Call:
    family: str
    theta: tuple[int, ...]
    args: tuple[str, ...]  # CLI arguments

    @property
    def command(self) -> str:
        return self.args[0]


def workload_calls(workload: str, seed: int) -> list[Call]:
    rng = random.Random(f"{workload}:{seed}")
    calls = []
    for rung in WORKLOADS[workload]:
        theta = rung.theta(rng)
        text = ",".join(map(str, theta))
        for command, *extra in rung.commands:
            args = (command, "--family", rung.family, "--theta", text, *extra)
            calls.append(Call(rung.family, theta, args))
    return calls


# ------------------------------------------------------------ processes


def program_env() -> dict:
    """The environment of every program process: the checkout's sources, a
    fixed hash seed, bytecode caching on, and no other PYTHON* setting (such
    as PYTHONOPTIMIZE) nor DANTZIG_SEED_THREADS."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env.pop("DANTZIG_SEED_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Outcome:
    call: Call
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    trace: dict | None = None


def run_process(argv: list[str], env: dict, stem: str) -> tuple[float, float, float, int, str]:
    """Run one process to its end; returns wall, cpu, peak rss, exit code, stdout."""
    out_path, err_path = OUT_DIR / f"{stem}.out", OUT_DIR / f"{stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        killer = threading.Timer(max(1.0, PROCESS_START + HARD_LIMIT_S - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(f"exit {proc.returncode}: {' '.join(argv[1:])}\n{err_path.read_text()}")
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024, proc.returncode, out_path.read_text()


def run_call(call: Call, env: dict, index: int, traced: bool) -> Outcome:
    trace_path = OUT_DIR / f"call{index}.trace.json"
    if traced:
        argv = [sys.executable, str(ROOT / "perfbench" / "traced_call.py"), str(trace_path), *call.args]
    else:
        argv = [sys.executable, "-m", "dantzigfig.cli", *call.args]
    wall, cpu, rss, code, stdout = run_process(argv, env, f"call{index}")
    trace = json.loads(trace_path.read_text()) if traced and code == 0 else None
    return Outcome(call, wall, cpu, rss, code, stdout, trace)


# CLOCK_MONOTONIC is one clock for every process, so the child can stamp
# the end of its set-up against the parent's stamp of its start.
SETUP_CODE = "import time, dantzigfig.cli; print(repr(time.monotonic()))"


def setup_seconds(env: dict) -> float:
    """Cold set-up: from spawning a fresh interpreter until it has imported
    dantzigfig.cli, the first thing every CLI call does."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise SystemExit(f"cannot import dantzigfig.cli:\n{done.stderr}")
    return float(done.stdout) - start


# ------------------------------------------------------------ checks


def check_outcomes(outcomes: list[Outcome]) -> list[str]:
    """Independent checks of every completed call; returns the failures."""
    problems = []
    adjacency = {}  # (family, theta) -> adjacency from the construct output
    for out in outcomes:
        if out.code != 0:
            continue
        call = out.call
        try:
            report = json.loads(out.stdout)
            if call.command == "verify":
                suites = SUITES_ALL if call.args[-1] == "all" else tuple(call.args[-1].split(","))
                checks.check_verify(report, call.family, call.theta, suites)
            elif call.command == "construct":
                adjacency[call.family, call.theta] = checks.check_construct(report, call.family, call.theta)
            else:
                checks.check_graph(report, call.family, call.theta, adjacency[call.family, call.theta])
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            problems.append(f"{' '.join(call.args)}: {type(exc).__name__}: {exc}")
    return problems


# ------------------------------------------------------------ metrics


def per_call_median(rounds: list[list[Outcome]], field: str) -> list[float]:
    """The median of each call over the rounds, so a round slowed by other
    load on the machine does not move the result."""
    return [statistics.median(getattr(o, field) for o in same) for same in zip(*rounds)]


def e2e_metrics(rounds: list[list[Outcome]], setup: list[float]) -> dict:
    return {
        "wall_s": (sum(per_call_median(rounds, "wall_s")), "s"),
        "cpu_s": (sum(per_call_median(rounds, "cpu_s")), "s"),
        "peak_rss_mb": (max(per_call_median(rounds, "rss_mb")), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }


# Layers whose call count, not only their time, an optimisation would move.
CALL_COUNTS = (
    "orders.is_initial_segment_member",
    "oracle.hull_vertices_by_basis",
    "polytope_core.HRep.contains",
    "polytope_core.incidence",
    "polytope_core.adjacency_from_incidence",
    "exactmath.rank_of_rows",
)


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [("cli.import_s", "s")]
    names += [(f"cli.suite.{s}_s", "s") for s in SUITES_ALL]
    names.append(("oracle.segment_points", "count"))
    layers = dict.fromkeys(METRIC_ALIAS.get(k, k) for k in LAYERS)
    names += [(f"{k}_s", "s") for k in layers if k not in COUNT_ONLY]
    names += [(f"{k}_calls", "count") for k in CALL_COUNTS]
    names.append(("trace.overhead_pct", "%"))
    return names


def layer_metrics(plain: list[Outcome], traced: list[Outcome]) -> dict:
    """Suite seconds and segment sizes from the plain calls' reports; self
    times, call counts and import times from the traced calls."""
    values = Counter()
    for out in plain:
        if out.call.command != "verify" or out.code != 0:
            continue
        for suite in json.loads(out.stdout)["suites"]:
            values[f"cli.suite.{suite['suite']}_s"] += suite["seconds"]
            if suite["suite"] == "oracle":
                values["oracle.segment_points"] += suite["details"]["segment_points"]
    traces = [o.trace for o in traced if o.trace is not None]
    for trace in traces:
        for name, seconds in trace["self_s"].items():
            values[f"{name}_s"] += seconds
        for name, count in trace["calls"].items():
            values[f"{name}_calls"] += count
    values["cli.import_s"] = statistics.median(t["import_s"] for t in traces) if traces else 0.0
    plain_wall = sum(o.wall_s for o in plain)
    values["trace.overhead_pct"] = 100 * (sum(o.wall_s for o in traced) - plain_wall) / plain_wall
    return {name: (values[name], unit) for name, unit in layer_metric_names()}


# ------------------------------------------------------------ main


def measure(calls: list[Call], env: dict, seconds: float) -> list[list[Outcome]]:
    """MIN_ROUNDS whole rounds, and more while they bring the time spent
    closer to `seconds`; a round with a failed call ends the run."""
    rounds, started = [], time.perf_counter()
    while True:
        rounds.append([run_call(call, env, len(rounds) * len(calls) + i, False) for i, call in enumerate(calls)])
        spent = time.perf_counter() - started
        if any(o.code != 0 for o in rounds[-1]):
            return rounds
        if len(rounds) >= MIN_ROUNDS and spent + spent / len(rounds) / 2 > seconds:
            return rounds


def measure_traced(calls: list[Call], env: dict) -> tuple[list[Outcome], list[Outcome]]:
    """One plain round, then the same calls traced."""
    plain = [run_call(call, env, i, False) for i, call in enumerate(calls)]
    traced = [run_call(call, env, len(calls) + i, True) for i, call in enumerate(calls)]
    return plain, traced


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dantzigfig" / "cli.py").is_file():
        print(f"no dantzigfig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = program_env()
    setup_seconds(env)  # warm-up: fills the bytecode cache
    calls = workload_calls(args.workload, args.seed)
    setup = []
    if args.trace:
        rounds = list(measure_traced(calls, env))
        metrics = layer_metrics(*rounds)
    else:
        setup = [setup_seconds(env) for _ in range(SETUP_SAMPLES)]
        rounds = measure(calls, env, args.seconds)
        metrics = e2e_metrics(rounds, setup)
    outcomes = [o for r in rounds for o in r]
    problems = check_outcomes(outcomes)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16} {name:44} {value:14.6f} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.code != 0),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "args": vars(args),
        "calls": [" ".join(c.args) for c in calls],
        "rounds": [[[o.wall_s, o.cpu_s, o.rss_mb, o.code] for o in r] for r in rounds],
        "setup_samples": setup,
        "problems": problems,
        "result": result,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
