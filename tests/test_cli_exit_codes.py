"""Exit-code contract of the cohomology commands on damaged SCA input.

Whatever the input, h2, uce, fingerprint and isogenous exit 0, 1 or 2 and
never print a traceback.  Exit 2 is one line on stderr; exit 0 or 1 prints
a JSON result or an SCA document on stdout.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergrade.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
LINES = {name: (FIXTURES / name).read_text().splitlines(keepends=True)
         for name in ("psl22.sca", "sl21.sca", "uce_psl22.sca")}


@st.composite
def damaged(draw):
    """(fixture name, text): the fixture with one sc line, or the line and
    its swapped partner sc j i k, dropped, duplicated or rescaled; or with
    one parity bit flipped; or truncated."""
    name = draw(st.sampled_from(sorted(LINES)))
    lines = list(LINES[name])
    how = draw(st.sampled_from(["drop", "duplicate", "rescale", "parity", "truncate"]))
    if how == "truncate":
        text = "".join(lines)
        return name, text[:draw(st.integers(0, len(text) - 1))]
    if how == "parity":
        t = next(t for t, line in enumerate(lines) if line.startswith("parity "))
        bits = lines[t].split()
        b = draw(st.integers(1, len(bits) - 1))
        bits[b] = "1" if bits[b] == "0" else "0"
        lines[t] = " ".join(bits) + "\n"
        return name, "".join(lines)
    sc = [t for t, line in enumerate(lines) if line.startswith("sc ")]
    t = draw(st.sampled_from(sc))
    i, j, k = lines[t].split()[1:4]
    targets = [t]
    if draw(st.booleans()):
        targets += [u for u in sc if lines[u].split()[1:4] == [j, i, k] and u != t]
    factor = Fraction(draw(st.sampled_from(["0", "-1", "2", "1/3"])))
    for u in sorted(targets, reverse=True):
        if how == "drop":
            del lines[u]
        elif how == "duplicate":
            lines.insert(u, lines[u])
        else:
            _, a, b, m, c = lines[u].split()
            lines[u] = f"sc {a} {b} {m} {Fraction(c) * factor}\n"
    return name, "".join(lines)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


@given(case=damaged(), command=st.sampled_from(["h2", "uce", "fingerprint", "isogenous"]),
       other=st.sampled_from(sorted(LINES)), first=st.booleans())
@settings(max_examples=60, deadline=None)
def test_cohomology_commands_keep_the_exit_code_contract(workdir, case, command, other, first):
    name, text = case
    path = workdir / f"damaged_{name}"
    path.write_text(text)
    args = [command, str(path)]
    if command == "isogenous":
        pair = [str(path), str(FIXTURES / other)]
        args = [command, *(pair if first else pair[::-1])]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(args)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert err.endswith("\n") and err.count("\n") == 1, err
    elif not out.startswith("SCA/1\n"):
        json.loads(out)
