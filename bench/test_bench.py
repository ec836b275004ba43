"""Tests of the benchmark itself: relabelling, expected answers, tracing.

Run from the repository root with ``python3 -m pytest bench -q`` (one to
two minutes; the workload tests run the real CLI).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from harness import Program, Session  # noqa: E402
from relabel import Relabel, Table, read_sca, write_sca  # noqa: E402
from traced import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# gl(1|1)-like toy table with a non-basis unit, enough to exercise signs
TOY = Table("jordan", (0, 0, 1), (Fraction(1), Fraction(1), Fraction(0)), {
    (0, 0, 0): Fraction(1), (1, 1, 1): Fraction(1), (0, 2, 2): Fraction(1, 2),
    (2, 0, 2): Fraction(1, 2), (1, 2, 2): Fraction(1, 2), (2, 1, 2): Fraction(1, 2),
})


def product(t: Table, x, y) -> tuple:
    out = [Fraction(0)] * t.dim
    for (i, j, k), c in t.entries.items():
        out[k] += x[i] * y[j] * c
    return tuple(out)


def test_relabel_commutes_with_products():
    rl = Relabel.from_seed(7, "toy", 3)
    new = rl.table(TOY)
    x, y = (Fraction(2), Fraction(-1), Fraction(3)), (Fraction(1, 3), Fraction(5), Fraction(-2))
    assert rl.vector(product(TOY, x, y)) == product(new, rl.vector(x), rl.vector(y))
    assert new.unit == rl.vector(TOY.unit)
    assert sorted(new.parity) == sorted(TOY.parity)


def test_relabel_is_seeded():
    assert Relabel.from_seed(1, "a", 40) == Relabel.from_seed(1, "a", 40)
    assert Relabel.from_seed(1, "a", 40) != Relabel.from_seed(2, "a", 40)
    assert Relabel.from_seed(1, "a", 40) != Relabel.from_seed(1, "b", 40)


def test_sca_text_round_trip():
    text = write_sca(TOY)
    assert text.splitlines()[4] == "unitv 1 1 0"
    assert write_sca(read_sca(text)) == text


def _program() -> Program:
    return Program(ROOT, time.monotonic() + 600)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_expected_answers_hold(workload, seed, tmp_path):
    program = _program()
    prepare, session = WORKLOADS[workload]
    reference: dict = {}
    setup = Session(program, tmp_path, seed, reference)
    if prepare:
        prepare(setup)
    s = Session(program, tmp_path, seed, reference)
    session(s)
    assert not setup.problems and not s.problems
    assert s.commands and [c.problem for c in s.commands if c.problem] == []


def test_traced_calls_repeat_and_output_is_unchanged(tmp_path):
    program, work = _program(), tmp_path
    assert program.run(["construct", "psl", "1", "--out", "raw.sca"], work).code == 0
    Session(program, work, 3, {}).relabel_sca("raw.sca", "psl22.sca", "psl22")
    plain = program.run(["uce", "psl22.sca"], work)
    layers = []
    for k in range(2):
        spans = work / f"spans-{k}.jsonl"
        traced = program.run(["uce", "psl22.sca"], work, spans, "uce")
        assert (traced.code, traced.stdout) == (plain.code, plain.stdout)
        layers.append(layer_metrics(spans))
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) == {"name", "start", "end", "parent", "run"}
    calls = [{k: v for k, v in layer.items() if k.endswith(".calls")} for layer in layers]
    assert calls[0] == calls[1]
    assert calls[0]["cohomology.uce.calls"] == 1
    assert calls[0]["exact.SparseRref.insert.calls"] > 0
    m = layers[0]
    assert 0 < m["exact.SparseRref.insert.useful_ratio"] <= 1
    assert m["sca.bytes_in"] == len((work / "psl22.sca").read_bytes())
    assert m["sca.bytes_out"] == len(plain.stdout.encode())
    assert m["cohomology.self_s"] <= m["cohomology.uce.s"]


def test_traced_run_compares_two_traced_sessions(tmp_path):
    from run import MIN_TRACED, WorkloadRun

    run = WorkloadRun("slA-grading", 4, 0, True, time.monotonic() + 600)
    run.execute(tmp_path)
    assert len(run.traced) == len(run.layers) == MIN_TRACED == 2
    assert run.problems == [] and run.failed == 0
    assert all(0.2 < c.scale < 5 for c in run.commands)
    values = {k: v for k, (v, _) in run.per_layer().items()}
    assert values["constructors.construct_sl_A.calls"] == 1
    assert values["axioms.check_super_jacobi.s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "slA-grading", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spec_names():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "session_s", "session_cpu_s", "cmd_max_s", "setup_s", "peak_rss_mb", "pass_ratio"}
