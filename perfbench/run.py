"""Benchmark for the entroplab command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 55 --trace 0

One client runs the workload's invocation list as a closed loop: each
``python -m entroplab ...`` subprocess starts only after the previous one
has exited, so at most one runs at a time.  Inputs come from ``--seed``
(see workloads.py); every subprocess gets a pinned PYTHONHASHSEED from a
fixed per-workload schedule.  Every invocation's exit code and stdout are
checked.

--trace 0 repeats the list for about ``--seconds`` seconds, with no-work
invocations between passes, and reports the end-to-end metrics from each
invocation's median over passes, and from the median no-work invocation
for setup_s.  Every few seconds, between invocations, it also runs
the fixed probe of perfbench/calibrate.py as a child process, and scales
every time by calibrate.REFERENCE_S over the run's mean probe time: the
host drifts in speed by up to a quarter within minutes, and the scaled
times read as seconds at the reference host's typical speed.  The
unscaled figures are printed too.

--trace 1 runs rounds of one subprocess pass followed by an in-process
replay of every invocation (perfbench/trace_child.py), untraced and then
traced, and reports the per-layer metrics.  End-to-end metrics never come
from a traced run.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Scratch files go under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
# relative to ROOT, which is the working directory of the run and of every
# process it starts
WORK = Path(".perfbench_work")
HERE = Path(__file__).resolve().parent.relative_to(ROOT)

# The whole run must end within 180 s: no invocation may start after
# DEADLINE_S, and none may run longer than COMMAND_TIMEOUT_S.
DEADLINE_S = 120.0
COMMAND_TIMEOUT_S = 50.0
SETUP_PROBES_AT_START = 4
SETUP_PROBES_PER_PASS = 2
# A calibration probe runs before an invocation once this long has passed
# since the last one.
CALIBRATE_EVERY_S = 1.5

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "max_cmd_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict:
    units = {"cli.process_s": "s", "cli.wait_s": "s"}
    units.update({name: "s" for name in tracer.LAYER_SPANS})
    units["distributions.table_calls"] = "count"
    units["distributions.table_miss_ratio"] = "1"
    units["families.cond2c_attempts_ratio"] = "1"
    units.update({name: "count" for name in tracer.STABLE_COUNTS})
    units["trace.overhead_ratio"] = "1"
    return units


PER_LAYER_UNITS = _per_layer_units()


@dataclass
class Outcome:
    exit_code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    error: str = ""


@dataclass
class Tally:
    """Invocations attempted and failed, plus failed checks that belong to
    no single invocation (counts that did not repeat)."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    problems: int = 0

    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems += 1
            self.messages.append(message)


class Client:
    """Runs one program process at a time and checks it."""

    def __init__(self, started: float):
        self.started = started
        env = dict(os.environ)
        env.pop("ENTROPLAB_LIMIT", None)
        env["PYTHONPATH"] = "src"
        self.env = env
        self.tally = Tally()
        self.probe_walls: list = []
        self.probe_output = None
        self.last_probe = 0.0

    def _spawn(self, args: list, hash_seed: int) -> Outcome:
        remaining = DEADLINE_S + COMMAND_TIMEOUT_S - (time.perf_counter() - self.started)
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, remaining))
        env = dict(self.env, PYTHONHASHSEED=str(hash_seed))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        error = ""
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            error = f"timed out after {timeout:.0f} s"
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        if not error and proc.returncode not in (0, 1, 2, 3):
            error = f"crashed with exit {proc.returncode}: {err.decode(errors='replace')[-300:]}"
        return Outcome(proc.returncode, out, wall, cpu, error)

    def cli(self, argv: list, hash_seed: int) -> Outcome:
        return self._spawn(["-m", "entroplab", *argv], hash_seed)

    def calibrate(self, record: bool = True) -> None:
        """Run the host-speed probe once; it must print the same checksum
        every time."""
        outcome = self._spawn([str(HERE / "calibrate.py")], 0)
        self.last_probe = time.perf_counter()
        if self.probe_output is None:
            self.probe_output = outcome.stdout
        ok = not outcome.error and outcome.exit_code == 0 and outcome.stdout == self.probe_output
        self.tally.require(ok, f"calibration probe: exit {outcome.exit_code} {outcome.error}")
        if record:
            self.probe_walls.append(outcome.wall_s)

    def calibrate_if_due(self) -> None:
        if time.perf_counter() - self.last_probe >= CALIBRATE_EVERY_S:
            self.calibrate()

    def invoke(self, inv: workloads.Invocation, hash_seed: int) -> Outcome:
        outcome = self.cli(inv.argv, hash_seed)
        message = outcome.error
        if not message:
            try:
                doc = inv.check(outcome.exit_code, outcome.stdout.decode())
                if inv.after is not None:
                    inv.after(doc)
            except workloads.CheckFailed as exc:
                message = str(exc)
            except (KeyError, TypeError, ValueError) as exc:
                message = f"unexpected output shape: {exc!r}"
        if message:
            outcome.error = message
        self.tally.record(not message, f"{inv.label}: {message}")
        return outcome

    def setup_probe(self, hash_seed: int) -> Outcome:
        outcome = self.cli(workloads.SETUP_ARGV, hash_seed)
        ok = not outcome.error and outcome.exit_code == 0
        self.tally.record(ok, f"setup probe: exit {outcome.exit_code} {outcome.error}")
        return outcome

    def out_of_time(self) -> bool:
        return time.perf_counter() - self.started > DEADLINE_S


def run_pass(client: Client, w: workloads.Workload, pass_no: int,
             calibrated: bool = False) -> list:
    outcomes = []
    for inv in w.invocations:
        if client.out_of_time():
            break
        if calibrated:
            client.calibrate_if_due()
        outcomes.append(client.invoke(inv, w.hash_seed(inv, pass_no)))
    return outcomes


def keep_going(client: Client, measure_start: float, last_round: float, seconds: float) -> bool:
    now = time.perf_counter()
    return not client.out_of_time() and now - measure_start + last_round <= seconds


# ---------------------------------------------------------------------------
# --trace 0


def end_to_end(client: Client, w: workloads.Workload, seconds: float) -> dict:
    setup_hash = (w.hash_base - 1) % 2**32
    client.setup_probe(setup_hash)  # warm-up: bytecode cache, page cache
    client.calibrate(record=False)  # warm-up of the probe itself
    client.calibrate()
    setups = [client.setup_probe(setup_hash) for _ in range(SETUP_PROBES_AT_START)]
    passes = []
    pass_no = 0
    measure_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        outcomes = run_pass(client, w, pass_no, calibrated=True)
        pass_no += 1
        setups += [client.setup_probe(setup_hash) for _ in range(SETUP_PROBES_PER_PASS)]
        client.calibrate_if_due()
        if len(outcomes) == len(w.invocations):
            passes.append(outcomes)
        if not keep_going(client, measure_start, time.perf_counter() - round_start, seconds):
            break
    if not passes:
        return {}

    # Each invocation's median over passes, then summed (or maxed) over the
    # list.  A per-invocation median drops a pass of that invocation that a
    # stall of the host hit, where the median of pass totals would keep part
    # of it.  It also averages the per-pass hash seeds of each invocation.
    count = len(w.invocations)
    raw_walls = [statistics.median(p[i].wall_s for p in passes) for i in range(count)]
    raw_cpus = [statistics.median(p[i].cpu_s for p in passes) for i in range(count)]
    raw = {
        "wall_s": sum(raw_walls),
        "cpu_s": sum(raw_cpus),
        "max_cmd_s": max(raw_walls),
        "setup_s": statistics.median(o.wall_s for o in setups),
    }
    probes = client.probe_walls
    # The mean, not the median: a probe lands either in a fast or in a slow
    # stretch of the host, about 0.18 s against 0.28 s, and the mean follows
    # the share of slow stretches that the program's longer processes
    # average over, where the median jumps between the two.
    scale = calibrate.REFERENCE_S / statistics.fmean(probes)
    walls = [t * scale for t in raw_walls]
    metrics = {name: value * scale for name, value in raw.items()}
    # ru_maxrss is in KiB on Linux: the largest resident set of any child
    # this run has waited for (the calibration probe stays far below the
    # program's)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    totals = [sum(o.wall_s for o in p) for p in passes]
    print(f"passes: {len(passes)}  setup samples: {len(setups)}"
          f"  pass wall min {min(totals):.4f} s  max {max(totals):.4f} s")
    print(f"calibration probes: {len(probes)}  wall mean {statistics.fmean(probes):.4f} s"
          f"  (reference {calibrate.REFERENCE_S} s); each: "
          + " ".join(f"{t:.3f}" for t in probes))
    for name, unit in END_TO_END_UNITS.items():
        unscaled = f"  unscaled {raw[name]:.4f} {unit}" if name in raw else ""
        print(f"  {name:<12} {metrics[name]:.4f} {unit}{unscaled}")
    print(f"  setup_s samples, unscaled: min {min(o.wall_s for o in setups):.4f} s"
          f"  max {max(o.wall_s for o in setups):.4f} s")
    groups = sorted({inv.group for inv in w.invocations})
    if len(groups) > 1:
        for group in groups:
            part = sum(t for t, inv in zip(walls, w.invocations) if inv.group == group)
            print(f"  wall_s of the {group} invocations: {part:.4f} s")
    fuzz = [i for i, inv in enumerate(w.invocations) if inv.trials]
    if fuzz:
        trials = sum(w.invocations[i].trials for i in fuzz)
        print(f"  {'trials_per_s':<12} {trials / sum(walls[i] for i in fuzz):.1f} 1/s")
    for inv, scaled, unscaled in zip(w.invocations, walls, raw_walls):
        print(f"    {scaled:8.4f} s  unscaled {unscaled:8.4f} s  {inv.label}")
    return metrics


# ---------------------------------------------------------------------------
# --trace 1


def trace_round(client: Client, w: workloads.Workload, round_no: int, spans_out: list):
    # every round repeats pass 0, hash seeds included, so that the counts
    # of one seed repeat exactly
    outcomes = run_pass(client, w, 0)
    if len(outcomes) < len(w.invocations):
        return None
    self_s: dict = {}
    counts: dict = {}
    untraced = traced = process = wait = 0.0
    stdout_bytes = 0
    for inv_no, (inv, sub) in enumerate(zip(w.invocations, outcomes)):
        if client.out_of_time():
            return None
        stdout_bytes += len(sub.stdout)
        wait += sub.wall_s - sub.cpu_s
        child = client._spawn([str(HERE / "trace_child.py"), json.dumps(inv.argv),
                               json.dumps(workloads.SETUP_ARGV)], w.hash_seed(inv, 0))
        try:
            doc = json.loads(child.stdout) if not child.error else None
        except json.JSONDecodeError:
            doc = None
        want = hashlib.sha256(sub.stdout).hexdigest()
        ok = (doc is not None and doc["exit_codes"] == [sub.exit_code] * 2
              and doc["stdout_sha256"] == [want, want])
        client.tally.record(ok, f"in-process replay of {inv.label} differs from the subprocess"
                                f" {child.error}")
        if not ok:
            continue
        untraced += doc["untraced_s"]
        traced += doc["traced_s"]
        process += sub.wall_s - doc["untraced_s"]
        for name, value in doc["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in doc["counts"].items():
            if name == "distributions.max_den_bits":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
        for index, (name, start, end, parent) in enumerate(doc["spans"]):
            spans_out.append([round_no, inv_no, index, parent, name, start, end])
    counts["cli.stdout_bytes"] = stdout_bytes
    metrics = tracer.layer_metrics(self_s, counts)
    metrics["cli.process_s"] = process
    metrics["cli.wait_s"] = wait
    metrics["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
    return metrics


def per_layer(client: Client, w: workloads.Workload, seconds: float) -> dict:
    client.setup_probe((w.hash_base - 1) % 2**32)  # warm-up: bytecode cache
    rounds = []
    spans: list = []
    measure_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        metrics = trace_round(client, w, len(rounds), spans)
        if metrics is not None:
            rounds.append(metrics)
        if not keep_going(client, measure_start, time.perf_counter() - round_start, seconds):
            break
    if not rounds:
        return {}
    for name in tracer.STABLE_COUNTS:
        values = {r[name] for r in rounds}
        client.tally.require(len(values) == 1, f"count {name} differs between rounds: {values}")
    check_count_drift(client, w, rounds[0])
    with open(WORK / f"spans-{w.name}.jsonl", "w") as out:
        out.write(json.dumps({"fields": ["round", "invocation", "span", "parent", "name",
                                         "start", "end"],
                              "invocations": [inv.argv for inv in w.invocations]}) + "\n")
        for span in spans:
            out.write(json.dumps(span) + "\n")
    print(f"rounds: {len(rounds)}  spans: {len(spans)}")
    metrics = {name: statistics.median(r[name] for r in rounds) for name in PER_LAYER_UNITS}
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {PER_LAYER_UNITS[name]}")
    return metrics


def check_count_drift(client: Client, w: workloads.Workload, metrics: dict) -> None:
    """Counts of one seed must repeat exactly from run to run in this tree."""
    counts = {name: metrics[name] for name in tracer.STABLE_COUNTS}
    path = WORK / "counts" / f"{w.name}-{w.seed}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        drift = {k: (previous.get(k), v) for k, v in counts.items() if previous.get(k) != v}
        client.tally.require(not drift, f"counts drifted from the previous run: {drift}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, indent=2) + "\n")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    os.chdir(ROOT)
    if not Path("src/entroplab/__main__.py").is_file():
        print(f"perfbench: no entroplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w = workloads.build(args.workload, args.seed, work)
    print(f"workload {w.name}  seed {w.seed}  invocations {len(w.invocations)}"
          f"  python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    print(f"PYTHONHASHSEED: {w.hash_base} + {workloads.HASH_PASS_STRIDE} * pass"
          f" + invocation index (mod 2^32); traced rounds use pass 0;"
          f" no-work probes use {(w.hash_base - 1) % 2**32}")
    for key, value in w.notes.items():
        print(f"input {key}: {value}")

    client = Client(started)
    if args.trace:
        metrics, units = per_layer(client, w, args.seconds), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(client, w, args.seconds), END_TO_END_UNITS
    tally = client.tally
    print(f"fail_ratio: {tally.failed / max(tally.attempted, 1):.4f} 1"
          f"  ({tally.failed} of {tally.attempted} invocations)")
    for message in tally.messages[:20]:
        print(f"FAILED {message}")
    complete = set(metrics) == set(units)
    result = {
        "correct": tally.failed == 0 and tally.problems == 0 and complete,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if complete else max(tally.failed, 1),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
