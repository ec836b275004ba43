"""Runs workload sessions as child processes and measures each command.

Each command is one ``python -m supergrade ...`` process (or, in a traced
session, one process of the tracing launcher ``traced.py``).  Wall time is
taken around spawn and exit; CPU time and peak RSS come from ``wait4`` for
that child alone.  A command fails when its exit code, its answer, or the
bytes it printed or wrote differ from what is expected; bytes are compared
with the first session of the same run, which used the same seed.

On a shared virtual machine the host's speed moves, whatever the benchmark
does, and the program's times move with it: on a 2-vCPU one the
calibration loop below takes between about 18 and 30 ms, in steps that
last from a second to minutes.  So after each child exits that loop is
timed in this process, and each child's ``scale`` is ``REFERENCE_S`` over
the mean of the loop times just before and just after it.  A time times
its scale is the time the child would take on a host where the loop takes
``REFERENCE_S``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from relabel import Relabel, read_sca, relabel_cover_file, write_sca

BENCH_DIR = Path(__file__).resolve().parent
LAUNCHER = BENCH_DIR / "traced.py"
REFERENCE_S = 0.025  # calibration loop time that scaled timings refer to


class SetupError(Exception):
    """The workload's inputs could not be prepared."""


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float
    scale: float = 1.0  # REFERENCE_S over the calibration loop's time around the child


def calibration_loop() -> float:
    """Wall time of a fixed piece of pure-Python work of the kind the program
    does (Fraction arithmetic, dict updates), run in this process."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 3000):
        acc = (acc + Fraction(i % 97 + 1, i % 89 + 1)) / 2
        table[i % 211] = table.get(i % 211, 0) + i * i
    return time.perf_counter() - start


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Program:
    """The supergrade CLI built from ``<root>/src``, run one process at a time."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline  # time.monotonic() by which every child is killed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.digest = source_digest(root / "src")
        self.calibrations = [calibration_loop()]

    def run(self, argv, cwd: Path, spans: Path | None = None, run_id: str = "") -> Result:
        if time.monotonic() >= self.deadline:
            return Result(-1, "", "not started: the run's deadline has passed", 0.0, 0.0, 0.0)
        if spans is None:
            cmd = [sys.executable, "-m", "supergrade", *argv]
        else:
            cmd = [sys.executable, str(LAUNCHER), str(spans), run_id, *argv]
        with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            out.seek(0)
            err.seek(0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            res = Result(proc.returncode,
                         out.read().decode("utf-8", "replace"),
                         err.read().decode("utf-8", "replace"), wall,
                         usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
        before = self.calibrations[-1]
        self.calibrations.append(calibration_loop())
        res.scale = REFERENCE_S / ((before + self.calibrations[-1]) / 2)
        return res

    def startup(self, cwd: Path) -> float:
        """Wall time of a fresh interpreter's CLI start-up, with no maths,
        scaled to the reference host speed."""
        res = self.run(["--help"], cwd)
        if res.code != 0 or not res.stdout.startswith("usage: supergrade"):
            raise SetupError(f"supergrade --help failed (exit {res.code}): {res.stderr[-500:]}")
        return res.wall * res.scale


@dataclass
class Command:
    step: str
    wall: float
    cpu: float
    rss_mb: float
    problem: str | None
    scale: float


@dataclass
class Session:
    """One pass over a workload's command sequence in ``workdir``.

    ``reference`` maps each step to the digest of its output bytes in the
    first session of the run; the first session fills it in.
    """

    program: Program
    workdir: Path
    seed: int
    reference: dict
    spans: Path | None = None
    commands: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def path(self, name) -> Path:
        return self.workdir / name

    def table(self, name):
        return read_sca(self.path(name).read_text(encoding="utf-8"))

    def same_bytes(self, a: str, b: str) -> str | None:
        if self.path(a).read_bytes() != self.path(b).read_bytes():
            return f"{a} differs from {b}"
        return None

    def relabel_sca(self, src, dst: str, tag: str) -> Relabel | None:
        """Relabel an SCA file; on failure, record it and return None, so the
        commands that read ``dst`` fail and are counted."""
        try:
            table = read_sca(self.path(src).read_text(encoding="utf-8"))
            rl = Relabel.from_seed(self.seed, tag, table.dim)
            self.path(dst).write_text(write_sca(rl.table(table)), encoding="utf-8")
            return rl
        except (OSError, ValueError, IndexError, KeyError) as exc:
            self.problems.append(f"relabel {src}: {exc}")
            return None

    def relabel_cover(self, src: str, dst: str, rl: Relabel) -> None:
        try:
            relabel_cover_file(self.path(src), self.path(dst), rl)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            self.problems.append(f"relabel {src}: {exc}")

    def cached(self, name: str, argv) -> Path:
        """Output of a seed-independent command that builds an input, kept
        under ``.bench_work/cache/<source digest>/`` so that later runs of the
        same source reuse it."""
        cache = self.program.root / ".bench_work" / "cache" / self.program.digest[:16]
        target = cache / f"{name}.sca"
        if not target.exists():
            cache.mkdir(parents=True, exist_ok=True)
            tmp = f"{name}.sca.tmp"
            res = self.program.run([*argv, "--out", tmp], cache)
            if res.code != 0:
                raise SetupError(f"{' '.join(argv)} failed (exit {res.code}): {res.stderr[-500:]}")
            os.replace(cache / tmp, target)
        return target

    def cmd(self, step: str, argv, *, code: int = 0, expect: dict | None = None,
            outs=(), check=None) -> None:
        """Run one command and judge it.

        ``expect`` lists keys that the JSON on stdout's last line must carry
        with exactly these values; ``outs`` names files the command writes,
        whose bytes join stdout in the determinism digest; ``check`` is a
        further test returning a problem string or None.
        """
        res = self.program.run(argv, self.workdir, self.spans, step)
        problem = None
        if res.code != code:
            problem = f"exit {res.code}, expected {code}: {res.stderr.strip()[-300:]}"
        if problem is None and expect is not None:
            problem = _check_expect(res.stdout, expect)
        digest = hashlib.sha256(res.stdout.encode())
        if problem is None:
            try:
                for name in outs:
                    digest.update(b"\0" + self.path(name).read_bytes())
            except OSError as exc:
                problem = f"missing output: {exc}"
        if problem is None and check is not None:
            problem = check()
        if problem is None:
            want = self.reference.setdefault(step, digest.hexdigest())
            if want != digest.hexdigest():
                problem = "output bytes differ from the first session with this seed"
        self.commands.append(Command(step, res.wall, res.cpu, res.rss_mb, problem, res.scale))

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.commands)

    @property
    def scaled_wall(self) -> float:
        """``wall`` with each command's time scaled to the reference host speed."""
        return sum(c.wall * c.scale for c in self.commands)

    @property
    def cpu(self) -> float:
        return sum(c.cpu for c in self.commands)

    @property
    def cmd_max(self) -> float:
        return max(c.wall for c in self.commands)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.commands)


def _check_expect(stdout: str, expect: dict) -> str | None:
    lines = stdout.strip().splitlines()
    try:
        got = json.loads(lines[-1])
    except (IndexError, ValueError):
        return f"stdout is not JSON: {stdout[-200:]!r}"
    if not isinstance(got, dict):
        return f"stdout is not a JSON object: {stdout[-200:]!r}"
    for key, value in expect.items():
        if got.get(key) != value:
            return f"{key} = {got.get(key)!r}, expected {value!r}"
    return None
