"""The CLI as a process: cli.run flushes the output and ends with os._exit.

Each command runs in a child process through both entries, `python -m
supergrade` and the function the `supergrade` console script calls (read
from pyproject.toml), and must print what in-process cli.main prints and
exit with its code; a stdout that cannot take the output exits 2 with one
stderr line.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from supergrade import cli

ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def _console_script() -> list:
    """The interpreter line of the console script, as the installed
    wrapper runs it: import the entry function and exit with its value."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(r'^supergrade = "([\w.]+):(\w+)"$', text, re.M).groups()
    code = (f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'supergrade'; sys.exit({func}())")
    return [sys.executable, "-c", code]


ENTRIES = {"python -m supergrade": [sys.executable, "-m", "supergrade"],
           "console script": _console_script()}


# the package this test imported, found from any working directory; stdout
# block-buffered (the default), so that the output reaches the fd at the
# flush in cli.run, or, with PYTHONUNBUFFERED set, at each write in main
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": os.pathsep.join(
           p for p in [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH")] if p)}
BUFFERING = {"buffered": ENV, "unbuffered": {**ENV, "PYTHONUNBUFFERED": "1"}}


def _process(entry, argv, cwd, env=ENV, **kwargs):
    return subprocess.run(ENTRIES[entry] + argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          timeout=120, **kwargs)


def _assert_one_error_line(stderr: bytes):
    lines = stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("supergrade: error: "), lines
    assert b"Traceback" not in stderr


def test_console_script_runs_the_process_entry():
    assert _console_script()[2].startswith("import sys; from supergrade.cli import run;")


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("argv, want", [
    (["h2", "psl22.sca"], 0),
    (["isogenous", "psl22.sca", "sl21.sca"], 1),
    (["h2", "missing.sca"], 2),
])
def test_exit_code_and_bytes_match_in_process_main(entry, argv, want, capsysbinary,
                                                   monkeypatch):
    monkeypatch.chdir(FIXTURES)
    assert cli.main(argv) == want
    sys.stdout.flush()
    sys.stderr.flush()
    captured = capsysbinary.readouterr()
    proc = _process(entry, argv, FIXTURES, capture_output=True)
    assert proc.returncode == want
    assert proc.stdout == captured.out
    assert proc.stderr == captured.err
    if want == 2:
        _assert_one_error_line(proc.stderr)


@pytest.fixture(scope="module")
def jp4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("jp4") / "jp4.sca"
    proc = _process("python -m supergrade", ["construct", "jp", "4", "--out", str(path)],
                    path.parent, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    return path


@pytest.mark.parametrize("entry", ENTRIES)
def test_large_stdout_through_a_pipe_equals_the_out_file(entry, jp4_file, tmp_path):
    out = tmp_path / "tkk.sca"
    written = _process(entry, ["tkk", str(jp4_file), "--out", str(out)], tmp_path,
                       capture_output=True)
    assert written.returncode == 0, written.stderr
    piped = _process(entry, ["tkk", str(jp4_file)], tmp_path, capture_output=True)
    assert piped.returncode == 0 and piped.stderr == b""
    assert len(piped.stdout) > 65536  # more than a pipe buffer holds
    assert piped.stdout == out.read_bytes()


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("buffering", BUFFERING)
@pytest.mark.parametrize("argv", [["h2", "psl22.sca"], ["isogenous", "psl22.sca", "sl21.sca"],
                                  ["tkk", "JP4"]])
def test_pipe_with_no_reader_exits_2(entry, buffering, argv, jp4_file):
    argv = [str(jp4_file) if a == "JP4" else a for a in argv]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _process(entry, argv, FIXTURES, BUFFERING[buffering], stdout=write,
                        stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert proc.returncode == 2
    _assert_one_error_line(proc.stderr)
    assert "BrokenPipeError" in proc.stderr.decode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("buffering", BUFFERING)
def test_full_device_exits_2(entry, buffering):
    with open("/dev/full", "wb") as full:
        proc = _process(entry, ["h2", "psl22.sca"], FIXTURES, BUFFERING[buffering],
                        stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 2
    _assert_one_error_line(proc.stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("buffering", BUFFERING)
@pytest.mark.parametrize("argv", [["--help"], ["h2", "--help"]], ids=" ".join)
def test_help_to_full_device_exits_2(entry, buffering, argv):
    # unbuffered, the write fails inside argparse, which would swallow it
    with open("/dev/full", "wb") as full:
        proc = _process(entry, argv, FIXTURES, BUFFERING[buffering],
                        stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 2
    _assert_one_error_line(proc.stderr)
    assert "supergrade: error: OSError: " in proc.stderr.decode()


@pytest.mark.parametrize("entry", ENTRIES)
def test_closed_stdout_exits_2(entry):
    # with fd 1 closed at start, sys.stdout is None
    proc = _process(entry, ["h2", "psl22.sca"], FIXTURES, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    _assert_one_error_line(proc.stderr)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("argv, want, out", [
    (["h2", "psl22.sca"], 0, b'{"h2_even":3,"h2_odd":0}\n'),
    (["h2", "missing.sca"], 2, b""),
])
def test_closed_stderr_keeps_the_exit_code(entry, argv, want, out):
    # an error that cannot be reported still exits 2, not 1 from a
    # traceback nobody sees
    proc = _process(entry, argv, FIXTURES, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (want, out)
