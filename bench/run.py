"""supergrade benchmark: seeded CLI pipelines, end-to-end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload slA-grading --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Each run prepares the workload's relabelled inputs, then repeats
closed-loop sessions of the workload's command sequence for ``--seconds``
seconds, one process at a time.  Bare CLI start-ups are timed before the
first session and after each one, so that ``setup_s`` samples the whole run.
It prints a table with sample counts, an ``env`` line, and as its last line
one JSON object ``{correct, attempted, failed, metrics}``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
from at least ``MIN_SESSIONS`` sessions; every one is a median (see
``WorkloadRun.end_to_end``).  With ``--trace 1`` untraced and traced
sessions alternate until at least ``MIN_TRACED`` traced ones have run; the
metrics are the per-layer ones, each the median over the traced sessions,
and ``trace.overhead_s`` is the median traced minus the median untraced
session time, both scaled to the reference host speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from statistics import median, quantiles

from harness import BENCH_DIR, REFERENCE_S, Program, Session, SetupError
from traced import layer_metrics
from workloads import WORKLOADS

ROOT = BENCH_DIR.parent
STARTUPS_FIRST = 5  # start-ups timed before the first session
STARTUPS_EACH = 3  # and after each session
MIN_SESSIONS = 3  # untraced sessions in a run: each command's median needs three
MIN_TRACED = 2  # traced sessions, so that their call counts can be compared
DEADLINE_S = 170  # every child is killed by then, so a run ends within 180 s


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4)
    return q[0], q[2]


def _commit() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git`` directly so
    that nothing outside the checkout is read; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


class WorkloadRun:
    """One benchmark run of one workload: prepare, start-ups, sessions."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, deadline: float):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.program = Program(ROOT, deadline)
        self.deadline = deadline
        self.startups: list[float] = []
        self.measured_from = 0  # first calibration taken while measuring
        self.sessions: list[Session] = []
        self.traced: list[Session] = []
        self.layers: list[dict] = []
        self.problems: list[str] = []

    def execute(self, scratch: Path) -> None:
        prepare, session = WORKLOADS[self.name]
        reference: dict = {}
        setup = Session(self.program, scratch, self.seed, reference)
        self.program.startup(scratch)  # untimed: fills the bytecode cache
        if prepare:
            prepare(setup)
            self.problems += setup.problems
        self.measured_from = len(self.program.calibrations)
        self.startups = [self.program.startup(scratch) for _ in range(STARTUPS_FIRST)]
        begin = time.monotonic()
        done: list[Session] = []
        counted, least = ((self.traced, MIN_TRACED) if self.trace
                          else (self.sessions, MIN_SESSIONS))
        while True:
            traced = self.trace and len(done) % 2 == 1
            spans = scratch / f"spans-{len(done)}.jsonl" if traced else None
            s = Session(self.program, scratch, self.seed, reference, spans)
            session(s)
            done.append(s)
            self.startups += [self.program.startup(scratch) for _ in range(STARTUPS_EACH)]
            self.problems += s.problems
            if traced:
                self.traced.append(s)
                self.layers.append(layer_metrics(spans))
            else:
                self.sessions.append(s)
            elapsed = time.monotonic() - begin
            typical = median([x.wall for x in done])
            if len(counted) >= least and elapsed + typical > self.seconds:
                break
            if time.monotonic() + 1.5 * typical > self.deadline:
                break
        if len(counted) < least:
            self.problems.append(f"only {len(counted)} sessions ended before the deadline")
        calls = [{k: v for k, v in layer.items() if k.endswith(".calls")}
                 for layer in self.layers]
        if any(c != calls[0] for c in calls):
            self.problems.append("call counts differ between traced sessions")

    @property
    def commands(self) -> list:
        return [c for s in self.sessions + self.traced for c in s.commands]

    @property
    def failed(self) -> int:
        return sum(1 for c in self.commands if c.problem)

    def end_to_end(self) -> dict:
        """``{metric: (reported value, samples shown in the table)}``.

        Times are scaled to the reference host speed (``harness.REFERENCE_S``).
        The session timings are built from each command's median over the
        untraced sessions: a burst of host slowness that the scaling misses
        hits one or two commands of a session, and a per-command median drops
        it, where a median of session totals keeps every burst that falls in
        the middle session.
        """
        ss = self.sessions
        steps: dict = {}
        for s in ss:
            for c in s.commands:
                steps.setdefault(c.step, []).append(c)
        wall = [median(c.wall * c.scale for c in cs) for cs in steps.values()]
        cpu = [median(c.cpu * c.scale for c in cs) for cs in steps.values()]
        rss = [s.rss_mb for s in ss]
        passed = (len(self.commands) - self.failed) / len(self.commands)
        return {
            "session_s": (sum(wall), [s.scaled_wall for s in ss]),
            "session_cpu_s": (sum(cpu), [sum(c.cpu * c.scale for c in s.commands) for s in ss]),
            "cmd_max_s": (max(wall), [max(c.wall * c.scale for c in s.commands) for s in ss]),
            "setup_s": (median(self.startups), self.startups),
            "peak_rss_mb": (median(rss), rss),
            "pass_ratio": (passed, [passed]),
        }

    def per_layer(self) -> dict:
        """``{metric: (median over the traced sessions, samples)}``."""
        if not self.traced:
            raise SetupError("no traced session ended before the deadline")
        out = {}
        for name in {n for layer in self.layers for n in layer}:
            got = [layer.get(name, 0.0) for layer in self.layers]
            out[name] = (median(got), got)
        overhead = (median(s.scaled_wall for s in self.traced)
                    - median(s.scaled_wall for s in self.sessions))
        out["trace.overhead_s"] = (overhead, [overhead])
        return out


def run_workload(name, seed, seconds, trace, deadline, spec) -> tuple:
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=base))
    run = WorkloadRun(name, seed, seconds, trace, deadline)
    try:
        run.execute(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    measured = run.per_layer() if trace else run.end_to_end()
    measured = {k: measured.get(k, (0.0, [0.0])) for k in units}  # 0: layer not run
    values = {k: value for k, (value, _) in measured.items()}
    samples = {k: got for k, (_, got) in measured.items()}
    return run, values, samples, units


def _print_table(run: WorkloadRun, values: dict, samples: dict, units: dict) -> None:
    print(f"workload {run.name}  seed {run.seed}  sessions {len(run.sessions)}"
          f"  traced {len(run.traced)}  commands {len(run.commands)}  failed {run.failed}")
    cal = run.program.calibrations[run.measured_from:]
    print(f"  calibration loop median {median(cal) * 1e3:.2f} ms over {len(cal)} samples;"
          f" end-to-end times are scaled to {REFERENCE_S * 1e3:g} ms;"
          f" unscaled session median {median(s.wall for s in run.sessions):.4g} s")
    print(f"  {'metric':42s} {'reported':>12s} {'unit':6s} n   median / q1 / q3 of the samples")
    for name, got in samples.items():
        q1, q3 = _quartiles(got)
        print(f"  {name:42s} {values[name]:12.6g} {units[name]:6s} {len(got):<3d}"
              f" {median(got):.6g} / {q1:.6g} / {q3:.6g}")
    for c in run.commands:
        if c.problem:
            print(f"  FAILED {c.step}: {c.problem}")
    for p in run.problems:
        print(f"  PROBLEM {p}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "supergrade" / "cli.py").is_file():
        print(f"bench: no supergrade sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        try:
            run, values, samples, units = run_workload(name, args.seed, args.seconds,
                                                       bool(args.trace), deadline, spec)
        except SetupError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        _print_table(run, values, samples, units)
        attempted += len(run.commands)
        failed += run.failed
        correct = correct and run.failed == 0 and not run.problems
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print("env " + json.dumps({**environment(), "src_sha256": run.program.digest,
                               "workloads": names, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace},
                              sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
