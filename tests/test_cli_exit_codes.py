"""Exit-code contract of every subcommand on damaged input.

Whatever the input, every command exits 0, 1 or 2 and never prints a
traceback.  Exit 2 is one line on stderr and nothing on stdout; exit 1
prints a JSON verdict; exit 0 prints a JSON result or an SCA document.
The inputs are the fixtures with one mutation each, vector arguments
(inline or in an @file) of the wrong length or with malformed or huge
entries, damaged JSON element files and cover maps, small constructions
(every one under 100 dimensions), and usage errors, which exit 2 like any
input error.  An entry spelled with an exponent or an underscore, which
Fraction would accept, always exits 2.
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
         for name in ("psl22.sca", "sl21.sca", "uce_psl22.sca", "gl22.sca", "tkk_m11.sca",
                      "m11.sca")}
COHOMOLOGY_INPUTS = ("psl22.sca", "sl21.sca", "uce_psl22.sca")
BIG = 10000000019
# entries Fraction accepts but the CLI refuses: an exponent would let a short
# entry stand for a huge number.  JSON numbers with an exponent come back as
# floats, spelled 1e-07 and 2.5e+20.
SPELLINGS = ["1e3", "-2E-1", "5e0", "0.5e1", "1_0", "1/1_0"]
JSON_SPELLINGS = SPELLINGS + [1e-07, 2.5e20]


def _vec_file(name: str) -> list:
    return (FIXTURES / name).read_text().strip().split(",")


def _json_file(name: str):
    return json.loads((FIXTURES / name).read_text())


def _units(dim: int) -> list:
    return [["1" if i == k else "0" for i in range(dim)] for k in range(dim)]


MUTATIONS = ["drop", "duplicate", "rescale", "parity", "kind", "truncate"]


@st.composite
def damaged(draw, names=tuple(LINES), how=None):
    """(fixture name, text): the fixture with one sc line, or the line and
    its swapped partner sc j i k, dropped, duplicated or rescaled; with one
    parity bit flipped or its kind line changed; or truncated.  how
    "intact" keeps the text."""
    name = draw(st.sampled_from(sorted(names)))
    lines = list(LINES[name])
    how = how or draw(st.sampled_from(MUTATIONS))
    if how == "intact":
        return name, "".join(lines)
    if how == "truncate":
        text = "".join(lines)
        return name, text[:draw(st.integers(0, len(text) - 1))]
    if how == "kind":
        t = next(t for t, line in enumerate(lines) if line.startswith("kind "))
        lines[t] = f"kind {draw(st.sampled_from(['lie', 'assoc', 'jordan', 'plain']))}\n"
        return name, "".join(lines)
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


@st.composite
def vectors(draw, bases, bad, spelled):
    """A vector argument: one of bases, and if bad, one of the others,
    scaled by a huge rational, one entry short or long, or with an empty,
    1/0, non-numeric or refused (SPELLINGS, noted in spelled) entry."""
    v = list(draw(st.sampled_from(bases[:1] if not bad else bases)))
    how = draw(st.sampled_from(["same", "huge", "short", "long", "empty", "1/0", "x",
                                "spelling"])
               if bad else st.just("same"))
    if how == "huge":
        v = [str(Fraction(c) * Fraction(BIG, draw(st.sampled_from([1, 7])))) for c in v]
    elif how == "short":
        v = v[:-1]
    elif how == "long":
        v.append("0")
    elif how in ("empty", "1/0", "x"):
        v[draw(st.integers(0, len(v) - 1))] = "" if how == "empty" else how
    elif how == "spelling":
        v[draw(st.integers(0, len(v) - 1))] = draw(st.sampled_from(SPELLINGS))
        spelled.append(how)
    return ",".join(v)


@st.composite
def json_text(draw, base, bad, spelled):
    """A JSON element file or cover map: base, and if bad, base with one
    key or image missing; with its vectors as a JSON list; with one vector
    short, a scalar, or holding a 1/0, non-numeric, huge or refused
    (JSON_SPELLINGS, noted in spelled) entry; or truncated."""
    data = json.loads(json.dumps(base))
    if not bad:
        return json.dumps(data)
    holder, key = (data, "images") if "images" in data else ({"all": data}, "all")
    vecs = holder[key]
    target = draw(st.sampled_from(list(vecs) if isinstance(vecs, dict) else range(len(vecs))))
    how = draw(st.sampled_from(["drop", "list", "short", "scalar", "1/0", "x", "huge",
                                "spelling", "truncate"]))
    if how == "drop":
        del vecs[target]
    elif how == "list":
        holder[key] = list(vecs.values()) if isinstance(vecs, dict) else {"0": vecs}
    elif how == "short":
        vecs[target] = vecs[target][:-1]
    elif how == "scalar":
        vecs[target] = "1"
    elif how in ("1/0", "x", "huge", "spelling"):
        vecs[target][draw(st.integers(0, len(vecs[target]) - 1))] = (
            f"{BIG}/3" if how == "huge" else
            draw(st.sampled_from(JSON_SPELLINGS)) if how == "spelling" else how)
        if how == "spelling":
            spelled.append(how)
    text = json.dumps(holder["all"] if key == "all" else data)
    if how == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


M11_ELEMENTS = _json_file("m11_elems.json")
M11_COVER = _json_file("tkk_m11_cover.json")
PSL22_COVER = {"images": _units(14)}  # basis order: a map, not always a homomorphism
IDEMPOTENTS = [["1", "0", "0", "0"], ["1", "1", "0", "0"], ["0", "0", "1", "0"],
               ["1", "1", "1", "0"]]
CARTANS = [_vec_file("psl22_h1.vec"), _vec_file("psl22_h2.vec")]
TKK_M11_E, TKK_M11_F = _vec_file("tkk_m11_e.vec"), _vec_file("tkk_m11_f.vec")
TKK_M11_H = ["0", "0", "0", "0", "2", "0", "0", "2", "0", "0", "0", "0", "0", "0"]  # [e, f]
# (file, cover, cover map) that verify-grading accepts, and the other covers
GRADINGS = [("psl22.sca", "psl22", None), ("gl22.sca", "sl22", None),
            ("tkk_m11.sca", "m11", M11_COVER), ("psl22.sca", "psl22", PSL22_COVER)]
COVERS = ["psl22", "sl22", "m11", "sl33", "psl12", "sl2", "gl22"]
# construction parameters, good and bad: every table they build stays
# under 100 dimensions
GOOD_PARAMS = {
    "gl": [["1", "1"], ["2", "1"], ["3", "3"]], "sl": [["2", "1"], ["2", "2"], ["3", "3"]],
    "psl": [["1"], ["2"]], "mplus": [["1"], ["2"]], "jp": [["1"], ["2"]], "jq": [["2"]],
    "m11": [[]],
    "assoc": [["field"], ["dual_numbers"], ["grassmann", "2"], ["matrix_super", "2", "2"]],
    "slA": [["2", "2", "field"], ["2", "2", "grassmann", "1"], ["2", "1", "dual_numbers"],
            ["2", "2", "matrix_super", "1", "1"]],
}
BAD_PARAMS = [["-1"], ["0"], ["x"], [], ["1", "2", "3"], ["0", "0"], ["1", "-1"],
              ["grassmann"], ["grassmann", "0"], ["matrix_super", "1"], ["octonions"],
              ["field", "1"], ["2", "2", "octonions"], ["2", "x", "field"],
              ["0", "0", "field"], ["1"]]


# options each command requires: dropping one is a usage error
REQUIRED = {"decompose": ["--cartan"], "verify-grading": ["--cover"],
            "three-grading": ["--cover", "--style"], "jordan-from-grading": ["--e", "--f"],
            "peirce": ["--idempotent"], "certify-m11": ["--elements"]}


def _usage_fault(draw, args: list) -> list:
    """args with one usage error: the first positional or every occurrence
    of a required option dropped, the command or a choices value
    misspelled, or an unknown flag added."""
    how = draw(st.sampled_from(["drop", "misspell", "flag"]))
    if how == "flag":
        return args + ["--no-such-flag"]
    if how == "misspell":
        spots = [0] + [1] * (args[0] == "construct") + [
            t + 1 for t, a in enumerate(args) if a == "--style"]
        t = draw(st.sampled_from(spots))
        return args[:t] + [args[t] + "x"] + args[t + 1:]
    option = draw(st.sampled_from([None] + REQUIRED.get(args[0], [])))
    if option is None:
        return args[:1] + args[2:]
    dropped = {t + d for t, a in enumerate(args) if a == option for d in (0, 1)}
    return [a for t, a in enumerate(args) if t not in dropped]


@st.composite
def argv(draw, command, workdir):
    """(args, usage, spelled): a full command line for command, in workdir,
    with at most one part damaged: the input file, another argument, the
    --out path, or (usage True) the command line itself; spelled is True
    when an entry has a refused spelling."""

    def sca(name, bad):
        # a damaged copy of this input or of another fixture
        names = tuple(LINES) if bad and draw(st.booleans()) else (name,)
        name, text = draw(damaged(names, None if bad else "intact"))
        path = workdir / f"in_{name}"
        path.write_text(text)
        return str(path)

    def written(name, text):
        path = workdir / name
        path.write_text(text)
        return str(path)

    spelled, files = [], []

    def vector(bases):
        # inline, or in an @file of its own
        text = draw(vectors(bases, bad, spelled))
        if not draw(st.booleans()):
            return text
        files.append(written(f"arg{len(files)}.vec", text))
        return "@" + files[-1]

    def json_file(name, base):
        return written(name, draw(json_text(base, bad, spelled)))

    fault = draw(st.sampled_from([None, "file", "arg", "out", "usage"]))
    file_bad, bad = fault == "file", fault == "arg"
    if command == "check":
        args = ["check", sca(draw(st.sampled_from(sorted(LINES))), file_bad)]
    elif command == "construct":
        what = draw(st.sampled_from(sorted(GOOD_PARAMS)))
        params = draw(st.sampled_from(BAD_PARAMS if bad else GOOD_PARAMS[what]))
        cover = draw(st.sampled_from([[], ["--cover-out", str(workdir / "cover.json")]]))
        args = ["construct", what, *params, *cover]
    elif command == "decompose":
        args = ["decompose", sca("psl22.sca", file_bad), "--cartan", vector(CARTANS),
                "--cartan", vector(CARTANS[::-1])]
    elif command in ("verify-grading", "three-grading"):
        name, cover, cover_map = draw(st.sampled_from(GRADINGS))
        if bad:
            cover = draw(st.sampled_from(COVERS))
            cover_map = draw(st.sampled_from([None, M11_COVER, PSL22_COVER]))
        args = [command, sca(name, file_bad), "--cover", cover]
        if cover_map is not None:
            args += ["--cover-map", json_file("map.json", cover_map)]
        if command == "three-grading":
            args += ["--style", draw(st.sampled_from(["sl2", "height"] if bad else ["sl2"])),
                     "--h", vector([TKK_M11_H] + CARTANS)]
    elif command == "tkk":
        args = ["tkk", sca("m11.sca", file_bad)]
        flags = draw(st.sampled_from([(), ("--m11", "--cover-out"), ("--m11",), ("--cover-out",)]
                                     if bad else [(), ("--m11", "--cover-out")]))
        if "--m11" in flags:
            args += ["--m11", json_file("elems.json", M11_ELEMENTS)]
        if "--cover-out" in flags:
            args += ["--cover-out", str(workdir / "tkk_cover.json")]
    elif command == "jordan-from-grading":
        e, f = (TKK_M11_E, TKK_M11_F) if not bad or draw(st.booleans()) else (TKK_M11_F, TKK_M11_E)
        args = ["jordan-from-grading", sca("tkk_m11.sca", file_bad),
                "--e", vector([e]), "--f", vector([f])]
    elif command == "peirce":
        args = ["peirce", sca("m11.sca", file_bad), "--idempotent", vector(IDEMPOTENTS)]
    else:  # certify-m11
        args = ["certify-m11", sca("m11.sca", file_bad),
                "--elements", json_file("elems.json", M11_ELEMENTS)]
    if fault == "out" or draw(st.booleans()):
        args += ["--out", str(workdir / ("missing/out.json" if fault == "out" else "out.json"))]
    if fault == "usage":
        return _usage_fault(draw, args), True, False
    return args, False, bool(spelled)


def _keeps_the_contract(args):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(args)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1, (out, err)
    elif code == 1:
        assert isinstance(json.loads(out), dict)
    elif not out.startswith("SCA/1\n"):
        json.loads(out)
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


@given(case=damaged(COHOMOLOGY_INPUTS),
       command=st.sampled_from(["h2", "uce", "fingerprint", "isogenous"]),
       other=st.sampled_from(COHOMOLOGY_INPUTS), first=st.booleans())
@settings(max_examples=60, deadline=None)
def test_cohomology_commands_keep_the_exit_code_contract(workdir, case, command, other, first):
    name, text = case
    path = workdir / f"damaged_{name}"
    path.write_text(text)
    args = [command, str(path)]
    if command == "isogenous":
        pair = [str(path), str(FIXTURES / other)]
        args = [command, *(pair if first else pair[::-1])]
    _keeps_the_contract(args)


@pytest.mark.parametrize("command", ["check", "construct", "decompose", "verify-grading",
                                     "three-grading", "tkk", "jordan-from-grading", "peirce",
                                     "certify-m11"])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_every_command_keeps_the_exit_code_contract(workdir, command, data):
    args, usage, spelled = data.draw(argv(command, workdir))
    assert _keeps_the_contract(args) == 2 or not (usage or spelled)


@pytest.mark.parametrize("where, entry", [("inline", "1e1000000"), ("@file", "1_0"),
                                          ("cover map", "2e0"), ("element file", "1E-3"),
                                          ("element file", 1e-07)])
def test_refused_spelling_exits_2_naming_the_entry(where, entry, tmp_path, capsys):
    # before any arithmetic: 1e1000000 would otherwise be a million-digit
    # integer (and 1e100000000 would keep a core busy for minutes)
    text = str(entry)
    path = tmp_path / "input"
    what = {"inline": "vector", "@file": "vector"}.get(where, where)
    if where == "inline":
        args = ["peirce", FIXTURES / "m11.sca", "--idempotent", f"{text},0,0,0"]
    elif where == "@file":
        path.write_text(",".join(CARTANS[0][:-1] + [text]))
        args = ["decompose", FIXTURES / "psl22.sca", "--cartan", f"@{path}",
                "--cartan", ",".join(CARTANS[1])]
    elif where == "cover map":
        images = _units(14)
        images[3][3] = entry
        path.write_text(json.dumps({"images": images}))
        args = ["verify-grading", FIXTURES / "psl22.sca", "--cover", "psl22",
                "--cover-map", path]
    else:
        elements = dict(M11_ELEMENTS, x=[entry] + M11_ELEMENTS["x"][1:])
        path.write_text(json.dumps(elements))
        args = ["certify-m11", FIXTURES / "m11.sca", "--elements", path]
    assert main([str(a) for a in args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"supergrade: error: BadParams: {what} entry {text!r} is not a rational number\n"
