"""CLI surface: exit codes, output shapes, and byte-level determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from supergrade import cli
from supergrade.cli import main
from supergrade.sca import parse_sca, write_sca
from supergrade.superalg import StructureTable, SuperSpace
from tests.conftest import JP4_M11_ELEMENTS
from tests.test_cli_exit_codes import LINES
from tests.oracles import assert_stored_form

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(args, capsys, cwd=None):
    """Invoke main() in-process; returns (exit_code, stdout_text)."""
    old = os.getcwd()
    if cwd:
        os.chdir(cwd)
    try:
        code = main([str(a) for a in args])
    finally:
        if cwd:
            os.chdir(old)
    return code, capsys.readouterr().out


def fx(name) -> str:
    return str(FIXTURES / name)


def test_construct_to_stdout(capsys):
    code, out = run_cli(["construct", "gl", "1", "1"], capsys)
    assert code == 0
    assert out.startswith("SCA/1\nkind lie\ndim 4\n")


def test_construct_unwritable_path(capsys):
    code, out = run_cli(["construct", "psl", "2", "--out", "/proc/nope/x.sca"], capsys)
    assert code == 2


def test_usage_error(capsys):
    assert main(["construct", "nonsense"]) == 2


def test_check_valid_and_invalid(capsys):
    code, out = run_cli(["check", fx("psl22.sca")], capsys)
    assert code == 0 and json.loads(out)["valid"] is True
    code, out = run_cli(["check", fx("invalid_lie.sca")], capsys)
    assert code == 1 and json.loads(out)["valid"] is False


def test_check_rejects_jordan_defect_that_wraps_int64(capsys):
    # JP(4) scaled by 2^23 with one broken constant: its Jordan defect is a
    # multiple of 2^64, which int64 accumulation would read as zero
    code, out = run_cli(["check", fx("jp4_wrapped.sca")], capsys)
    data = json.loads(out)
    assert code == 1
    assert data["valid"] is False and data["axiom"] == "super_jordan"
    assert data["indices"] == [1, 2, 6, 3]


def test_check_names_the_first_jacobi_failure_through_the_fallback(capsys):
    # psl22.sca with c_{1,4}^9 and c_{4,1}^9 doubled: super-anticommutative,
    # not Lie; the generator form finds a defect and the pair loop names it
    code, out = run_cli(["check", fx("psl22_jacobi.sca")], capsys)
    assert code == 1
    assert out == ('{"axiom":"super_jacobi","dim":14,"indices":[1,3,4],"kind":"lie",'
                   '"reason":"super_jacobi fails at basis tuple (0, 2, 3)","valid":false}\n')


def test_check_names_the_smallest_failing_column_of_a_swap_pair(capsys):
    # c_{12} = c_{21} = b_2 + b_9: the pair (0, 1) fails at k = 1 and k = 8,
    # and the check names the smaller k, as the other axiom checks do
    code, out = run_cli(["check", fx("swap_order.sca")], capsys)
    assert code == 1
    assert out == ('{"axiom":"super_anticommutativity","dim":9,"indices":[1,2,2],"kind":"lie",'
                   '"reason":"super_anticommutativity fails at basis tuple (0, 1, 1)",'
                   '"valid":false}\n')


def test_three_grading_builds_each_integer_form_once(monkeypatch, capsys):
    # a table's integer form is built with the table and is what it stores:
    # every read hands back the same object, and the Fraction entries view
    # is never derived
    forms, views = {}, []
    read = StructureTable.integer_form

    def reading(self):
        form = read(self)
        assert forms.setdefault(self, form) is form
        return form

    monkeypatch.setattr(StructureTable, "integer_form", reading)
    monkeypatch.setattr(StructureTable, "entries", property(views.append))
    code, _ = run_cli(["three-grading", fx("slA_g1.sca"), "--cover", "sl33",
                       "--cover-map", fx("slA_g1_cover.json"), "--style", "height"], capsys)
    assert code == 0
    assert len(forms) > 1 and not views


def test_tkk_with_entries_beyond_int64_exits_2():
    # the table fails the unit law; tkk rejects it before building D(a,b),
    # whose entries would exceed 2^63 (test_jordan covers that overflow)
    proc = subprocess.run(
        [sys.executable, "-m", "supergrade", "tkk", fx("dop_overflow.sca")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("supergrade: error: BadParams:")
    assert "unit axiom fails" in lines[0]
    assert "JacobiFailure" not in lines[0]


def test_maths_modules_import_no_dataclasses():
    # every command pays for what these imports load: dataclasses alone
    # pulls in inspect, ast, dis and tokenize
    code = ("import sys, supergrade.cli, supergrade.sca, supergrade.constructors, "
            "supergrade.roots, supergrade.jordan, supergrade.cohomology; "
            "print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _assert_input_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("supergrade: error: BadParams:")


def test_construct_gl_without_parameters_exits_2(capsys):
    _assert_input_error(main(["construct", "gl"]), capsys)


@pytest.mark.parametrize("argv, message", [
    (["gl", "3", "-1"], "gl(m,n) needs m, n >= 0"),
    (["sl", "-1", "3"], "sl(m,n) needs m, n >= 0"),
    (["assoc", "matrix_super", "-1", "2"], "matrix_super(p,q) needs p, q >= 0"),
    (["slA", "2", "2", "field", "1"], "field takes no parameters"),
    (["assoc", "grassmann"], "grassmann takes one parameter k"),
    (["slA", "2", "2", "matrix_super", "1"], "matrix_super takes two parameters p q"),
    (["slA", "2", "2", "octonions"], "unknown coefficient algebra 'octonions'"),
])
def test_construct_negative_parameter_names_the_failed_condition(argv, message, capsys):
    code = main(["construct", *argv])
    assert code == 2
    assert capsys.readouterr().err == f"supergrade: error: BadParams: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["gl", "1.0", "1"], "gl parameter m must be an integer, got '1.0'"),
    (["slA", "3", "x", "grassmann", "1"], "slA parameter n must be an integer, got 'x'"),
    (["assoc", "grassmann", "one"], "grassmann parameter k must be an integer, got 'one'"),
    (["assoc", "matrix_super", "2", "2/1"],
     "matrix_super parameter q must be an integer, got '2/1'"),
])
def test_construct_non_integer_parameter_is_named(argv, message, capsys):
    code = main(["construct", *argv])
    assert code == 2
    assert capsys.readouterr().err == f"supergrade: error: BadParams: {message}\n"


@pytest.mark.parametrize("spec", ["1,,0,0,0", "1,0,0,0,", ",1,0,0", "", "@empty.vec",
                                  "1/0,0,0,0", "abc,0,0,0"])
def test_vector_with_an_empty_entry_exits_2(spec, tmp_path, monkeypatch, capsys):
    (tmp_path / "empty.vec").write_text("1,0,,0\n")
    monkeypatch.chdir(tmp_path)
    _assert_input_error(main(["peirce", fx("m11.sca"), "--idempotent", spec]), capsys)


def test_cover_map_with_scalar_images_exits_2(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    cover.write_text('{"images": 5}')
    code = main(["verify-grading", fx("slA_g1.sca"), "--cover", "sl33",
                 "--cover-map", str(cover)])
    _assert_input_error(code, capsys)


def test_cover_map_json_list_for_psl_cover_exits_2(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    cover.write_text("[[1, 0], [0, 1]]")
    code = main(["verify-grading", fx("psl22.sca"), "--cover", "psl22",
                 "--cover-map", str(cover)])
    _assert_input_error(code, capsys)


def test_cover_map_json_list_for_m11_cover_exits_2(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    cover.write_text("[[1, 0], [0, 1]]")
    code = main(["verify-grading", fx("tkk_m11.sca"), "--cover", "m11",
                 "--cover-map", str(cover)])
    _assert_input_error(code, capsys)


def _m11_element_commands(path):
    return [["certify-m11", fx("m11.sca"), "--elements", path],
            ["tkk", fx("m11.sca"), "--m11", path, "--cover-out", path + ".cover.json"]]


def test_m11_elements_json_list_exits_2(tmp_path, capsys):
    elements = tmp_path / "elements.json"
    elements.write_text("[1, 2]")
    for argv in _m11_element_commands(str(elements)):
        _assert_input_error(main(argv), capsys)


def test_m11_elements_scalar_values_exits_2(tmp_path, capsys):
    elements = tmp_path / "elements.json"
    elements.write_text('{"e1": 5, "e2": 5, "x": 5, "y": 5}')
    for argv in _m11_element_commands(str(elements)):
        _assert_input_error(main(argv), capsys)


@pytest.mark.parametrize("bad", ['"1/0"', "true", '"abc"'])
def test_m11_elements_malformed_rational_exits_2(bad, tmp_path, capsys):
    elements = tmp_path / "elements.json"
    elements.write_text(f'{{"e1": [{bad}, "0", "0", "0"], "e2": ["0", "1", "0", "0"], '
                        '"x": ["0", "0", "1", "0"], "y": ["0", "0", "0", "1"]}')
    for argv in _m11_element_commands(str(elements)):
        _assert_input_error(main(argv), capsys)


def test_m11_elements_wrong_keys_or_length_exits_2(tmp_path, capsys):
    elements = tmp_path / "elements.json"
    for text in ('{"e1": ["1", "0", "0", "0"], "e2": ["0", "1", "0", "0"], '
                 '"x": ["0", "0", "1", "0"]}',
                 '{"e1": ["1", "0", "0"], "e2": ["0", "1", "0", "0"], '
                 '"x": ["0", "0", "1", "0"], "y": ["0", "0", "0", "1"]}'):
        elements.write_text(text)
        for argv in _m11_element_commands(str(elements)):
            _assert_input_error(main(argv), capsys)


def test_unexpected_exception_exits_2_without_traceback(monkeypatch, capsys):
    from supergrade import cli

    def boom(args, out):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_run_h2", boom)
    code = main(["h2", fx("psl22.sca")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines() == ["supergrade: error: RuntimeError: boom"]


def test_check_and_tkk_import_neither_scipy_nor_numpy(tmp_path):
    jp4 = str(tmp_path / "jp4.sca")
    cover = str(tmp_path / "cover.json")
    script = (
        "import sys\n"
        "from supergrade.cli import main\n"
        f"assert main(['construct', 'jp', '4', '--out', {jp4!r}]) == 0\n"
        f"assert main(['check', {fx('slA_g1.sca')!r}]) == 0\n"
        f"assert main(['check', {jp4!r}]) == 0\n"
        f"assert main(['tkk', {fx('m11.sca')!r}, '--m11', {fx('m11_elems.json')!r},"
        f" '--cover-out', {cover!r}]) == 0\n"
        "sys.exit(3 if {'scipy', 'numpy'} & sys.modules.keys() else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _modules_loaded(*argvs) -> list:
    """The supergrade modules a fresh interpreter holds after importing the
    CLI, then after each of `argvs` in turn (each must exit 0)."""
    script = (
        "import contextlib, io, json, sys\n"
        "from supergrade.cli import main\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('supergrade'))\n"
        "seen = [loaded()]\n"
        f"for argv in {list(argvs)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    seen.append(loaded())\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [set(mods) for mods in json.loads(proc.stdout)]


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    roots, jordan, cohomology, constructors = (
        f"supergrade.{m}" for m in ("roots", "jordan", "cohomology", "constructors"))
    bare, check, h2 = _modules_loaded(["check", fx("psl22.sca")], ["h2", fx("psl22.sca")])
    assert bare == {"supergrade", "supergrade.cli", "supergrade.errors"}
    assert "supergrade.superalg" in check
    assert not check & {roots, jordan, cohomology, constructors}
    assert cohomology in h2
    assert not h2 & {roots, jordan, constructors}
    _, *jordan_commands = _modules_loaded(
        ["peirce", fx("m11.sca"), "--idempotent", "1,0,0,0"],
        ["certify-m11", fx("m11.sca"), "--elements", fx("m11_elems.json")],
        ["tkk", fx("m11.sca"), "--m11", fx("m11_elems.json"),
         "--cover-out", str(tmp_path / "cover.json")],
    )
    for mods in jordan_commands:
        assert jordan in mods
        assert not mods & {roots, cohomology}


# SHA-256 of `supergrade --help` on 80 columns; argparse's layout differs
# between Python minor versions, so the pin holds for 3.11
HELP_SHA256 = "77e8331d05a4cf48d982401da8d16f4fc82214269d2da47a0e6128721464f5b2"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help bytes pinned on 3.11")
def test_help_bytes_are_pinned():
    proc = subprocess.run(
        [sys.executable, "-m", "supergrade", "--help"],
        capture_output=True,
        env={**os.environ, "COLUMNS": "80"},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"usage: supergrade")
    assert hashlib.sha256(proc.stdout).hexdigest() == HELP_SHA256


# per subcommand: arguments that parse, the same without one required
# option (None when none is required), and with a bad choices value (None
# without choices)
PARSER_CASES = {
    "construct": (["gl", "1", "1"], None, ["bogus"]),
    "check": (["f"], None, None),
    "decompose": (["f", "--cartan", "1"], ["f"], None),
    "verify-grading": (["f", "--cover", "sl22"], ["f"], None),
    "three-grading": (["f", "--cover", "sl22", "--style", "height"], ["f", "--style", "sl2"],
                      ["f", "--cover", "sl22", "--style", "bogus"]),
    "tkk": (["f", "--m11", "e.json"], None, None),
    "jordan-from-grading": (["f", "--e", "1", "--f", "1"], ["f", "--e", "1"], None),
    "peirce": (["f", "--idempotent", "1"], ["f"], None),
    "certify-m11": (["f", "--elements", "e.json"], ["f"], None),
    "h2": (["f", "--out", "o.json"], None, None),
    "uce": (["f"], None, None),
    "fingerprint": (["f", "--cartan", "1", "--cartan", "2"], None, None),
    "isogenous": (["f", "g"], None, None),
}


def _parser_argvs():
    for name, (ok, missing, bad_choice) in PARSER_CASES.items():
        yield [name, "--help"]
        yield [name]
        yield [name, *ok]
        yield [name, *ok, "--bogus"]
        yield [name, *ok, "extra", "positionals"]
        for rest in (missing, bad_choice):
            if rest is not None:
                yield [name, *rest]
    yield from (["-h", "h2"], ["--bogus", "h2", "x"], [], ["nope"], ["nope", "--help"])


def _parse(parser, argv, capsys):
    """(exit code or None, parsed namespace or None, stdout, stderr)."""
    try:
        ns, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        ns, code = None, exc.code
    captured = capsys.readouterr()
    return code, ns, captured.out, captured.err


def test_parser_lists_every_subcommand():
    assert list(cli._build_parser()._subparsers._group_actions[0].choices) == list(PARSER_CASES)


@pytest.mark.parametrize("argv", _parser_argvs(), ids=" ".join)
def test_one_subcommand_parser_matches_the_full_parser(argv, capsys, monkeypatch):
    # when argv[0] names a subcommand only that subparser is registered;
    # help, usage errors and parsed arguments are those of the full parser
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli._build_parser(argv)
    registered = list(parser._subparsers._group_actions[0].choices)
    assert registered == (argv[:1] if argv and argv[0] in PARSER_CASES else list(PARSER_CASES))
    got = _parse(parser, argv, capsys)
    assert got == _parse(cli._build_parser(), argv, capsys)
    assert got[0] in (None, 0, 2) and (got[0] is None) == (got[1] is not None)


def test_parse_error_exit_2(capsys):
    code, _ = run_cli(["check", fx("bad_rational.sca")], capsys)
    assert code == 2


def test_h2_output_shape(capsys):
    code, out = run_cli(["h2", fx("psl22.sca")], capsys)
    assert code == 0
    assert out.strip() == '{"h2_even":3,"h2_odd":0}'


def test_verify_grading_positive(capsys):
    code, out = run_cli(
        [
            "verify-grading",
            fx("slA_g1.sca"),
            "--cover",
            "sl33",
            "--cover-map",
            fx("slA_g1_cover.json"),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "graded"
    assert data["matched_root_system"] == "A(2,2)"
    assert data["z_action_trivial"] is True


def test_verify_grading_identity_cover(capsys):
    code, out = run_cli(
        ["verify-grading", fx("psl22.sca"), "--cover", "psl22"], capsys
    )
    assert code == 0 and json.loads(out)["verdict"] == "graded"


def test_verify_grading_negative(capsys):
    code, out = run_cli(
        ["verify-grading", fx("gl22.sca"), "--cover", "sl22"], capsys
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "not_graded"


def test_verify_grading_m11_cover(capsys):
    code, out = run_cli(
        [
            "verify-grading",
            fx("tkk_m11.sca"),
            "--cover",
            "m11",
            "--cover-map",
            fx("tkk_m11_cover.json"),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "graded" and data["matched_root_system"] == "A(1,1)"


def test_certify_m11(capsys):
    code, out = run_cli(
        ["certify-m11", fx("m11.sca"), "--elements", fx("m11_elems.json")], capsys
    )
    assert code == 0 and json.loads(out)["passed"] is True


def test_peirce(capsys):
    code, out = run_cli(
        ["peirce", fx("m11.sca"), "--idempotent", "1,0,0,0"], capsys
    )
    assert code == 0
    assert json.loads(out)["dims"] == [1, 2, 1]


BAD_UNIT_SCA = ("SCA/1\nkind jordan\ndim 2\nparity 0 0\nunitv 1 0\n"
                "sc 1 1 1 1\nsc 1 2 2 2\nsc 2 1 2 2\nend\n")


def test_peirce_unexpected_eigenvalue_bytes(tmp_path, capsys):
    # b1 is idempotent but multiplies b2 by 2; the table fails the unit law,
    # so peirce rejects it as input instead of blaming the idempotent
    # (test_jordan reaches UnexpectedEigenvalue in process)
    bad = tmp_path / "bad.sca"
    bad.write_text(BAD_UNIT_SCA)
    assert main(["peirce", str(bad), "--idempotent", "1,0"]) == 2
    assert capsys.readouterr() == (
        "", "supergrade: error: BadParams: peirce needs a Jordan superalgebra: "
        "unit axiom fails on basis element 1\n")


def _jordan_input_error(argv, capsys) -> str:
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    return lines[0]


def test_certify_m11_rejects_a_table_that_fails_the_unit_law(tmp_path, capsys):
    bad = tmp_path / "bad.sca"
    bad.write_text(BAD_UNIT_SCA)
    elems = tmp_path / "elems.json"
    elems.write_text(json.dumps({k: [1, 0] for k in ("e1", "e2", "x", "y")}))
    line = _jordan_input_error(["certify-m11", bad, "--elements", elems], capsys)
    assert line == ("supergrade: error: BadParams: certify-m11 needs a Jordan superalgebra: "
                    "unit axiom fails on basis element 1")


@pytest.mark.parametrize("command", ["peirce", "certify-m11"])
def test_jordan_commands_reject_a_table_that_fails_the_jordan_identity(command, tmp_path,
                                                                       capsys):
    elems = tmp_path / "elems.json"
    elems.write_text(json.dumps(JP4_M11_ELEMENTS))
    e1 = ",".join(str(c) for c in JP4_M11_ELEMENTS["e1"])
    extra = ["--idempotent", e1] if command == "peirce" else ["--elements", elems]
    line = _jordan_input_error([command, fx("jp4_wrapped.sca"), *extra], capsys)
    assert line == (f"supergrade: error: BadParams: {command} needs a Jordan superalgebra: "
                    "super_jordan fails at basis tuple (0, 1, 5, 2)")


def test_decompose(capsys):
    code, out = run_cli(
        [
            "decompose",
            fx("psl22.sca"),
            "--cartan",
            "@" + fx("psl22_h1.vec"),
            "--cartan",
            "@" + fx("psl22_h2.vec"),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["components"]) == 8


def test_decompose_with_huge_cartan_entries_keeps_components(tmp_path, capsys):
    # eigenvalues near 10^10: a divisor search over the rational-root
    # candidates did not finish, Sturm bisection finds them at once
    big = 10000000019
    args = ["decompose", fx("psl22.sca")]
    scaled = list(args)
    for name in ("psl22_h1.vec", "psl22_h2.vec"):
        entries = (FIXTURES / name).read_text().strip().split(",")
        (tmp_path / name).write_text(",".join(str(big * int(c)) for c in entries))
        args += ["--cartan", "@" + fx(name)]
        scaled += ["--cartan", "@" + str(tmp_path / name)]
    code, out = run_cli(args, capsys)
    code_scaled, out_scaled = run_cli(scaled, capsys)
    assert code == code_scaled == 0
    plain, ours = (json.loads(text) for text in (out, out_scaled))
    plain = plain["components"] + [plain["zero_component"]]
    ours = ours["components"] + [ours["zero_component"]]
    assert len(ours) == len(plain)
    for a, b in zip(plain, ours):
        assert b["weight"] == [str(big * Fraction(w)) for w in a["weight"]]
        assert {**b, "weight": None} == {**a, "weight": None}


def test_three_grading_height(capsys):
    code, out = run_cli(
        [
            "three-grading",
            fx("slA_g1.sca"),
            "--cover",
            "sl33",
            "--cover-map",
            fx("slA_g1_cover.json"),
            "--style",
            "height",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["parts"]["plus"] == {"even_dim": 9, "odd_dim": 9}


def test_three_grading_failed_homomorphism_is_a_negative_verdict(capsys):
    # the identity labels do not embed psl(2,2) into its central extension
    argv = [fx("uce_psl22.sca"), "--cover", "psl22"]
    code, out = run_cli(["three-grading", *argv, "--style", "height"], capsys)
    assert code == 1
    assert out == ('{"error":"NotHomomorphism","message":"embedding fails the homomorphism '
                   'law on cover basis pair (0,3)","verdict":"negative"}\n')
    code, out = run_cli(["verify-grading", *argv], capsys)
    assert code == 1
    assert json.loads(out)["conditions"] == {"condition1": {
        "passed": False,
        "reason": "embedding fails the homomorphism law on cover basis pair (0,3)"}}


def test_jordan_from_grading(tmp_path, capsys):
    out_path = tmp_path / "j.sca"
    code, _ = run_cli(
        [
            "jordan-from-grading",
            fx("tkk_m11.sca"),
            "--e",
            "@" + fx("tkk_m11_e.vec"),
            "--f",
            "@" + fx("tkk_m11_f.vec"),
            "--out",
            out_path,
        ],
        capsys,
    )
    assert code == 0
    # identical structure to the M(1,1)+ fixture (the recovered basis
    # carries no labels, so compare the parsed tables)
    from supergrade.sca import parse_sca

    got = parse_sca(out_path.read_text())
    want = parse_sca((FIXTURES / "m11.sca").read_text())
    assert got.entries == want.entries
    assert got.unit == want.unit
    assert got.space.parity == want.space.parity


def test_uce_and_fingerprint(tmp_path, capsys):
    out_path = tmp_path / "uce.sca"
    code, _ = run_cli(["uce", fx("psl22.sca"), "--out", out_path], capsys)
    assert code == 0
    code, out = run_cli(["fingerprint", str(out_path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [9, 8] and data["center_dim"] == 3 and data["h2"] == [0, 0]


def test_isogenous_exit_codes(capsys):
    code, out = run_cli(["isogenous", fx("tkk_m11.sca"), fx("psl22.sca")], capsys)
    assert code == 0 and json.loads(out)["verdict"] == "equal"
    code, out = run_cli(["isogenous", fx("psl22.sca"), fx("sl21.sca")], capsys)
    assert code == 1 and json.loads(out)["verdict"] == "different"


@pytest.mark.parametrize("argv", [
    ["h2", "m11.sca"],
    ["uce", "m11.sca"],
    ["fingerprint", "m11.sca"],
    ["isogenous", "m11.sca", "psl22.sca"],
    ["isogenous", "psl22.sca", "m11.sca"],
], ids=" ".join)
def test_cohomology_commands_reject_a_non_lie_file(argv, capsys):
    code = main([argv[0], *map(fx, argv[1:])])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"supergrade: error: BadParams: {argv[0]} needs a lie SCA file\n"


@pytest.mark.parametrize("argv", [
    ["h2", "invalid_lie.sca"],
    ["uce", "invalid_lie.sca"],
    ["fingerprint", "invalid_lie.sca"],
    ["isogenous", "invalid_lie.sca", "psl22.sca"],
    ["isogenous", "psl22.sca", "invalid_lie.sca"],
], ids=" ".join)
def test_cohomology_commands_reject_a_table_that_is_not_anticommutative(argv, capsys):
    # invalid_lie.sca has [b1, b1] = b2; unchecked, h2 reports H^2 = 0 for it
    code = main([argv[0], *map(fx, argv[1:])])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"supergrade: error: BadParams: {argv[0]} needs a Lie "
                            "superalgebra: super_anticommutativity fails at basis tuple "
                            "(0, 0, 1)\n")


@pytest.mark.parametrize("argv", [
    ["decompose", "m11.sca", "--cartan", "1,0,0,0"],
    ["verify-grading", "m11.sca", "--cover", "psl22"],
    ["three-grading", "m11.sca", "--cover", "psl22", "--style", "height"],
    ["jordan-from-grading", "m11.sca", "--e", "1,0,0,0", "--f", "0,1,0,0"],
], ids=lambda argv: argv[0])
def test_grading_commands_reject_a_non_lie_file(argv, capsys):
    code = main([argv[0], fx(argv[1]), *argv[2:]])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"supergrade: error: BadParams: {argv[0]} needs a lie SCA file\n"


@pytest.mark.parametrize("argv, golden", [
    (["sl", "2", "1"], "sl21.sca"),
    (["psl", "1"], "psl22.sca"),
    (["gl", "2", "2"], "gl22.sca"),
    (["slA", "3", "3", "grassmann", "1"], "slA_g1.sca"),
], ids=lambda x: x if isinstance(x, str) else " ".join(x))
def test_construct_stdout_matches_golden_file(argv, golden, capsys):
    code, out = run_cli(["construct", *argv], capsys)
    assert code == 0
    assert out.encode() == (FIXTURES / golden).read_bytes()


def test_constructed_outputs_revalidate(capsys):
    for name in ("m11.sca", "psl22.sca", "sl21.sca", "gl22.sca"):
        code, out = run_cli(["check", fx(name)], capsys)
        assert code == 0, name


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "supergrade", "h2", fx("sl21.sca")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"h2_even":0,"h2_odd":0}'


DETERMINISM_COMMANDS = [
    ["construct", "psl", "1"],
    ["construct", "jp", "2"],
    ["construct", "assoc", "grassmann", "2"],
    ["check", "m11.sca"],
    ["h2", "psl22.sca"],
    ["h2", "sl21.sca"],
    ["decompose", "psl22.sca", "--cartan", "@psl22_h1.vec", "--cartan", "@psl22_h2.vec"],
    ["verify-grading", "slA_g1.sca", "--cover", "sl33", "--cover-map", "slA_g1_cover.json"],
    ["verify-grading", "psl22.sca", "--cover", "psl22"],
    ["verify-grading", "tkk_m11.sca", "--cover", "m11", "--cover-map", "tkk_m11_cover.json"],
    ["three-grading", "slA_g1.sca", "--cover", "sl33", "--cover-map", "slA_g1_cover.json",
     "--style", "height"],
    ["peirce", "m11.sca", "--idempotent", "1,0,0,0"],
    ["certify-m11", "m11.sca", "--elements", "m11_elems.json"],
    ["fingerprint", "psl22.sca"],
    ["isogenous", "tkk_m11.sca", "psl22.sca"],
    ["uce", "psl22.sca"],
    ["tkk", "m11.sca"],
    ["jordan-from-grading", "tkk_m11.sca", "--e", "@tkk_m11_e.vec", "--f", "@tkk_m11_f.vec"],
]


@pytest.mark.parametrize("argv", DETERMINISM_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_cli_determinism(argv, capsys):
    """Two consecutive executions produce byte-identical stdout (criterion:
    reports carry no timestamps or environment-dependent content)."""
    code1, out1 = run_cli(argv, capsys, cwd=FIXTURES)
    code2, out2 = run_cli(argv, capsys, cwd=FIXTURES)
    assert code1 == code2
    assert out1 == out2
    assert out1  # every command prints something


# every file the CLI writes, by the command that writes it, with the
# sha256 of its bytes: SCA tables from construct, tkk, jordan-from-grading
# and uce, and the cover maps of construct slA and tkk --m11
WRITTEN_FILES = {
    "gl21.sca": (["construct", "gl", "2", "1"],
        "8c6c493c0ac07aac90a952791a2e7e9e2dcfe85f65cee1b0025b0765c2852be5"),
    "sl22.sca": (["construct", "sl", "2", "2"],
        "5a04d8a0edf0ed0d5a934a245e1b6eea8b4a76732790f2994db4404b66182567"),
    "psl33.sca": (["construct", "psl", "2"],
        "a89aeb6c1891263169e7e8944575924c4368aa141978eb6f21a31bd8cef57577"),
    "slA22.sca": (["construct", "slA", "2", "2", "matrix_super", "1", "1",
                   "--cover-out", "slA22_cover.json"],
        "a71211b53c72b9530cfc04c4996a1c2488c178d78e1d5a7446f48972084579cc"),
    "field.sca": (["construct", "assoc", "field"],
        "97f5fcb622ef3d4dbbbd756bfef00cf23026f56b357dfdfd7728e93b16b54179"),
    "mplus1.sca": (["construct", "mplus", "1"],
        "a02ce6a8686274c7be38d397efce0ed8a86794aae2b2e8c48fc734743efa0d9e"),
    "jq2.sca": (["construct", "jq", "2"],
        "2f1c9f623072e42dcf9e39cc75b2ef0d3ffa29b7e02f59b48246c988d7ba64eb"),
    "m11.sca": (["construct", "m11"],
        "3b6265536f66ab04fbde0d3f8b11d7dc259dc631c6581e88bd08576e1d383a4d"),
    "jp4.sca": (["construct", "jp", "4"],
        "3aaee543441ceb15d7d0f257c1388cb7f8b1debe8af7b41c1dd53ee5e933b8cc"),
    "tkk_jp4.sca": (["tkk", "jp4.sca", "--m11", "jp4_m11.json",
                     "--cover-out", "tkk_jp4_cover.json"],
        "5057ea59e3a9b9ee40c516e8a447347366f948ab7ffdf4a5188fcc9d861db534"),
    "tkk_m11.sca": (["tkk", "m11.sca"],
        "5070746aeded6ae7653ad7929f7a26d53a685205dbac2d6e0a2a79428892eef2"),
    "back.sca": (["jordan-from-grading", "tkk_m11.sca", "--e", "@e.vec", "--f", "@f.vec"],
        "8825ffc0b86f1d1031822c24d2415abbcf807b617350ca6cecd3ee3bf560acd7"),
    "uce_psl33.sca": (["uce", "psl33.sca"],
        "95b10b886556b52de78bf9da90835b92e25d45504fac93c9dedfdb43d4ab4b92"),
    "slA22_cover.json": (None,
        "ed7559e36c3ed4f140c0b3e820f7b13f4649842d3d52e872ffcc1e6479b125ab"),
    "tkk_jp4_cover.json": (None,
        "e52921f01cf04a74531de9c22ed7938d58a7a1946ce2c3eb5c2a2b63b85850c3"),
}


def test_every_file_the_cli_writes_is_input_it_accepts(tmp_path, capsys):
    (tmp_path / "jp4_m11.json").write_text(json.dumps(
        {k: [str(x) for x in v] for k, v in JP4_M11_ELEMENTS.items()}))
    for name in ("e", "f"):
        (tmp_path / f"{name}.vec").write_text((FIXTURES / f"tkk_m11_{name}.vec").read_text())
    digests = {}
    for name, (argv, _) in WRITTEN_FILES.items():
        if argv is not None:
            assert run_cli([*argv, "--out", name], capsys, cwd=tmp_path)[0] == 0, name
        data = (tmp_path / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        if name.endswith(".sca"):
            # check accepts it, and parse then write gives the same bytes
            code, out = run_cli(["check", name], capsys, cwd=tmp_path)
            assert code == 0 and json.loads(out)["valid"] is True, name
            assert write_sca(parse_sca(data.decode())).encode() == data, name
    assert digests == {name: digest for name, (_, digest) in WRITTEN_FILES.items()}
    # verify-grading accepts every cover map the CLI writes
    for argv in (["slA22.sca", "--cover", "sl22", "--cover-map", "slA22_cover.json"],
                 ["tkk_jp4.sca", "--cover", "m11", "--cover-map", "tkk_jp4_cover.json"]):
        code, out = run_cli(["verify-grading", *argv], capsys, cwd=tmp_path)
        assert code == 0 and json.loads(out)["verdict"] == "graded", argv


def test_cli_determinism_written_files(tmp_path, capsys):
    sca_path = tmp_path / "uce.sca"
    rep_path = tmp_path / "rep.json"
    outs = []
    for _ in range(2):
        code, _ = run_cli(["uce", fx("psl22.sca"), "--out", sca_path], capsys)
        assert code == 0
        code, _ = run_cli(["h2", fx("psl22.sca"), "--out", rep_path], capsys)
        assert code == 0
        outs.append((sca_path.read_bytes(), rep_path.read_bytes()))
    assert outs[0] == outs[1]


def test_uce_bytes_match_golden_files(tmp_path, capsys):
    # uce_psl22.sca and uce_psl33.sca were written by the Fraction-row
    # cohomology solver; canonical H^2 representatives must not change
    # across versions
    code, out = run_cli(["uce", fx("psl22.sca")], capsys)
    assert code == 0
    assert out.encode() == (FIXTURES / "uce_psl22.sca").read_bytes()
    psl33, uce33 = tmp_path / "psl33.sca", tmp_path / "uce33.sca"
    assert run_cli(["construct", "psl", "2", "--out", psl33], capsys)[0] == 0
    assert run_cli(["uce", psl33, "--out", uce33], capsys)[0] == 0
    assert uce33.read_bytes() == (FIXTURES / "uce_psl33.sca").read_bytes()


# SHA-256 of `supergrade uce` on `construct psl 3` (dim 62 -> 63)
UCE_PSL44_SHA256 = "8b10217952a812c515662144326051cb3cfc4110b5963b60fbb221b361614692"


def test_uce_psl44_bytes_are_pinned(tmp_path, capsys):
    psl44, uce44 = tmp_path / "psl44.sca", tmp_path / "uce44.sca"
    assert run_cli(["construct", "psl", "3", "--out", psl44], capsys)[0] == 0
    code, out = run_cli(["uce", psl44, "--out", uce44], capsys)
    assert code == 0
    assert json.loads(out) == {"added_central_dims": 1, "dim": 63, "written": str(uce44)}
    assert hashlib.sha256(uce44.read_bytes()).hexdigest() == UCE_PSL44_SHA256


def test_tkk_m11_bytes_match_golden_file(tmp_path, capsys):
    # tkk_m11.sca was written by the numpy int64 TKK construction; the
    # inner basis is the canonical RREF, so the bytes must not change
    # across versions
    out = tmp_path / "tkk.sca"
    assert run_cli(["tkk", fx("m11.sca"), "--out", out], capsys)[0] == 0
    assert out.read_bytes() == (FIXTURES / "tkk_m11.sca").read_bytes()


# SHA-256 of what the numpy int64 TKK construction wrote for JP(4) with
# the JP4_M11_ELEMENTS quadruple
TKK_JP4_DIGESTS = {
    "stdout": "6b63d6f59c354d1b28fe0ae5c65dedc480bfb7a44b523fb80c74c32054254a5a",
    "tkk.sca": "5057ea59e3a9b9ee40c516e8a447347366f948ab7ffdf4a5188fcc9d861db534",
    "cover.json": "e52921f01cf04a74531de9c22ed7938d58a7a1946ce2c3eb5c2a2b63b85850c3",
}


def test_tkk_jp4_bytes_match_pinned_digests(tmp_path, capsys):
    (tmp_path / "elems.json").write_text(json.dumps(JP4_M11_ELEMENTS))
    assert run_cli(["construct", "jp", "4", "--out", "jp4.sca"], capsys, cwd=tmp_path)[0] == 0
    code, out = run_cli(["tkk", "jp4.sca", "--m11", "elems.json", "--cover-out", "cover.json",
                         "--out", "tkk.sca"], capsys, cwd=tmp_path)
    assert code == 0
    got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
    for name in ("tkk.sca", "cover.json"):
        got[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert got == TKK_JP4_DIGESTS


def test_tkk_command_computes_the_commutators_once_per_table(tmp_path, monkeypatch, capsys):
    # the load-time Jordan check and the construction share one pass over
    # the n(n+1)/2 one-block commutators [L_m, L_z], m <= z; a second table
    # gets its own pass
    from supergrade import _axioms

    assert run_cli(["construct", "jp", "4", "--out", "jp4.sca"], capsys, cwd=tmp_path)[0] == 0
    calls = []
    bracket = _axioms._bracket
    monkeypatch.setattr(_axioms, "_bracket", lambda a, b: calls.append(1) or bracket(a, b))
    assert run_cli(["tkk", "jp4.sca", "--out", "tkk.sca"], capsys, cwd=tmp_path)[0] == 0
    assert len(calls) == 32 * 33 // 2 == 528
    assert run_cli(["tkk", fx("m11.sca"), "--out", tmp_path / "m.sca"], capsys)[0] == 0
    assert len(calls) == 528 + 4 * 5 // 2


def test_tkk_certifies_the_m11_quadruple_before_building(tmp_path, monkeypatch, capsys):
    # a quadruple that fails the M(1,1)+ relations is answered without the
    # TKK construction, and no cover file is written
    from supergrade import jordan

    monkeypatch.setattr(jordan, "tkk", lambda *a: 1 / 0)
    elems = tmp_path / "elems.json"
    elems.write_text(json.dumps({k: [1, 0, 0, 0] for k in ("e1", "e2", "x", "y")}))
    cover = tmp_path / "cover.json"
    code, out = run_cli(["tkk", fx("m11.sca"), "--m11", elems, "--cover-out", cover], capsys)
    assert code == 1
    assert json.loads(out) == {
        "error": "UnitFailure", "verdict": "negative",
        "message": "the given elements fail the M(1,1)+ relations: ['x_odd', 'y_odd', "
                   "'e1.e2=0', 'x.y=e1-e2', 'y.x=-(e1-e2)', 'e1.x=x/2', 'e2.x=x/2', "
                   "'e1.y=y/2', 'e2.y=y/2', 'e1+e2=unit']"}
    assert not cover.exists()


def test_jordan_from_grading_with_zero_e_and_f_is_a_negative_verdict(tmp_path, capsys):
    # both zero passed the eigenvector tests vacuously and wrote a dim-0
    # file that check refused
    zero = tmp_path / "zero.vec"
    zero.write_text(",".join(["0"] * 14))
    out = tmp_path / "back.sca"
    code, stdout = run_cli(["jordan-from-grading", fx("tkk_m11.sca"), "--e", f"@{zero}",
                            "--f", f"@{zero}", "--out", out], capsys)
    assert (code, stdout) == (1, '{"error":"NotThreeGraded","message":"e and f must both be '
                                 'nonzero","verdict":"negative"}\n')
    assert not out.exists()


# SHA-256 of the stdout of `construct assoc matrix_super p q`, taken while
# to_coords still wrote a dense coordinate list for every product
MATRIX_SUPER_DIGESTS = {
    (4, 4): "00467a2a522eaeb398dad552af8f24e2d910c1fd9b781b536c269efb433c1dbd",
    (2, 3): "541d24ffd7cdf3cc4ec4b609df8427152ef351f906b44ec2b2adec8cee6c77fc",
    (3, 0): "3aef3bb46098bc1b5cf2ae9e921c0d247cd4dfcccd001710adbd0a795c9c0a87",
    (0, 3): "c21fbe117c76d29088f0972c5722c0e77293f93a3375b1bd6a590b3e98be7c82",
}


# SHA-256 of the stdout of `construct <argv>` for every construction that no
# golden file pins, taken while each matrix and tensor algebra still wrote
# out its own product
CONSTRUCT_DIGESTS = {
    **{("assoc", "matrix_super", *pq): digest for pq, digest in MATRIX_SUPER_DIGESTS.items()},
    ("jp", "2"): "4ab50fb34c41b9988ecf5631cab4133edba81f17ad88eb37e7cbe273f3ab3751",
    ("jp", "3"): "932211c71984391cbd7e0d5c0534839bed7a7abe4ed32d6f6c68c070e20b0e55",
    ("jq", "2"): "2f1c9f623072e42dcf9e39cc75b2ef0d3ffa29b7e02f59b48246c988d7ba64eb",
    ("jq", "3"): "7f6841211bf870aede9db4267d8afff7c12152d47e68b961d2f96347ac6d46d5",
    ("mplus", "2"): "97a9bf28112a06a3a2bb908fd759885e9384e771262a6fb1d7bdc3c444cdac71",
    ("gl", "3", "2"): "7cec136f34f5a282d05a79d5ba13c51e336a3982f289d3b078f3a64a72f45666",
    ("gl", "1", "2"): "1748da466abbe667043863d9b1731676380191e2155728c9848b58f7268a9460",
    ("slA", "2", "2", "matrix_super", "1", "1"):
        "a71211b53c72b9530cfc04c4996a1c2488c178d78e1d5a7446f48972084579cc",
    ("slA", "2", "1", "grassmann", "2"):
        "67dcab521beb9338a2a24e6c7ddd1d4d245260a9ac0b79e66dabd49be9367274",
    ("slA", "2", "2", "dual_numbers"):
        "febdfecefe4303d3ef64b9a69deb036fccb462ee0f2eb710e8a9594ff5a98460",
    ("assoc", "grassmann", "2"):
        "f11038ab7a5d08451b3d68831b24d214ca6257eebb2a7eb31ec7181662e255ec",
    # taken while sl and sl_{m,n}(A) were still built by elimination
    ("sl", "3", "3"): "3888e492f810ec9f80b53d6b61747e717ac0b5dccb68377973c3f97a3cc063a4",
    ("sl", "4", "4"): "0063e1b2e3e64a790238972b6f5b1898f8a87a5a749bedee963262a9ba99dc90",
    ("psl", "2"): "a89aeb6c1891263169e7e8944575924c4368aa141978eb6f21a31bd8cef57577",
    ("psl", "3"): "b7e3a82e07163595154e3c289da2176d559c43e641deb6230ad374959496a0c3",
    ("slA", "3", "3", "grassmann", "2"):
        "5e485b9d7064ccc86028f921da74291d8a0081969583160569d7f5ed53ce91f1",
    ("slA", "2", "2", "matrix_super", "2", "1"):
        "ffa4e34a8d08b7f5391674f7c4feda1cf7efdcad75ecdf016ef777e3e3591ed6",
}


@pytest.mark.parametrize("argv", CONSTRUCT_DIGESTS, ids=lambda a: " ".join(map(str, a)))
def test_construct_stdout_matches_pinned_digest(argv, capsys):
    code, out = run_cli(["construct", *argv], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_DIGESTS[argv]


# SHA-256 of the --cover-out file of the slA entries of CONSTRUCT_DIGESTS with
# m == n, taken while SubspaceCoords still reduced Fraction rows; with m != n
# there is no cover map
SLA_COVER_DIGESTS = {
    ("slA", "2", "2", "matrix_super", "1", "1"):
        "ed7559e36c3ed4f140c0b3e820f7b13f4649842d3d52e872ffcc1e6479b125ab",
    ("slA", "2", "2", "dual_numbers"):
        "ed25266785c01ae9ac96c79a568b820694579da000876336ede6153026dd58e3",
    ("slA", "2", "1", "grassmann", "2"): None,
    # taken while the cover images were still read through SubspaceCoords
    ("slA", "3", "3", "grassmann", "2"):
        "83500795439f07790592e357e5dfac00f5b7a62355c442737f4a68b4820a92af",
    ("slA", "2", "2", "matrix_super", "2", "1"):
        "f804fb436cdff8957323d52d865f3e36d78a6499f78a841aadba5f6b40de9bc5",
}


@pytest.mark.parametrize("argv", [a for a in CONSTRUCT_DIGESTS if a[0] == "slA"],
                         ids=lambda a: " ".join(a))
def test_construct_sla_cover_out_matches_pinned_digest(argv, tmp_path, capsys):
    cover = tmp_path / "cover.json"
    code = main(["construct", *argv, "--cover-out", str(cover)])
    captured = capsys.readouterr()
    if SLA_COVER_DIGESTS[argv] is None:
        assert code == 2 and captured.out == "" and not cover.exists()
        assert captured.err == ("supergrade: error: BadParams: --cover-out is only "
                                "available for construct slA with m == n\n")
        return
    assert code == 0
    assert hashlib.sha256(captured.out.encode()).hexdigest() == CONSTRUCT_DIGESTS[argv]
    assert hashlib.sha256(cover.read_bytes()).hexdigest() == SLA_COVER_DIGESTS[argv]


def test_construct_sla_g1_cover_out_is_the_fixture(tmp_path, capsys):
    # the cover map of sl_{3,3}(Grassmann(1)) is read at the unit columns of its basis
    cover = tmp_path / "cover.json"
    code, _ = run_cli(["construct", "slA", "3", "3", "grassmann", "1", "--cover-out", cover],
                      capsys)
    assert code == 0
    assert cover.read_bytes() == (FIXTURES / "slA_g1_cover.json").read_bytes()


def _assert_canonical(table):
    """The table equals the one the checking StructureTable builds from its
    entries view, integer rows in the same order (assert_stored_form, which
    also rescales them through _canonical)."""
    checked = StructureTable(SuperSpace(table.space.dim, table.space.parity, table.space.labels),
                             table.kind, table.entries, table.unit)
    assert (checked.space.dim, checked.space.parity, checked.space.labels) == (
        table.space.dim, table.space.parity, table.space.labels)
    assert checked.kind == table.kind
    assert checked.unit == table.unit
    assert_stored_form(table)


# the fixtures that do not parse; their errors are pinned elsewhere
DAMAGED_FIXTURES = {"bad_rational.sca", "parity_fault.sca", "parity_fault_duplicate.sca"}


@pytest.mark.parametrize("name", sorted({p.name for p in FIXTURES.glob("*.sca")}
                                        - DAMAGED_FIXTURES))
def test_parsed_fixture_table_is_canonical(name):
    _assert_canonical(parse_sca((FIXTURES / name).read_text()))


@pytest.mark.parametrize("argv", CONSTRUCT_DIGESTS, ids=lambda a: " ".join(map(str, a)))
def test_constructed_table_is_canonical(argv, monkeypatch, capsys):
    # the table construct writes, and every table built through
    # StructureTable._canonical on the way (gl and sl behind each sl or slA)
    written, built = [], []
    emit, canonical = cli._emit_sca, StructureTable._canonical.__func__
    monkeypatch.setattr(cli, "_emit_sca", lambda a, o, t, s: written.append(t) or emit(a, o, t, s))
    monkeypatch.setattr(StructureTable, "_canonical", classmethod(
        lambda cls, *args, **kw: built.append(canonical(cls, *args, **kw)) or built[-1]))
    code, _ = run_cli(["construct", *argv], capsys)
    assert code == 0
    assert len(written) == 1
    if argv[0] in ("sl", "psl", "slA"):
        assert any(t is written[0] for t in built)
    for table in written + built:
        _assert_canonical(table)


@pytest.mark.parametrize("name", ["tkk_jp4", "tkk_m11"])
def test_tkk_table_is_canonical(name, request):
    _assert_canonical(request.getfixturevalue(name).lie.table)


@pytest.mark.parametrize("name, message", [
    # parity is checked once the whole document is read, so a later
    # duplicate line is reported before an earlier parity fault
    ("parity_fault.sca", "ValidationError: table invariant violated: "
                         "entry (0,0,1) violates parity homogeneity"),
    ("parity_fault_duplicate.sca", "ParseError: line 6: duplicate entry (1,1,2)"),
])
def test_first_fault_of_a_document_is_reported(name, message, capsys):
    code = main(["check", fx(name)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"supergrade: error: {message}\n"


# SHA-256 of the stdout of grading and Jordan commands, taken before their
# loops moved from dense vectors to sparse elements
GRADING_DIGESTS = {
    ("verify-grading", "slA_g1.sca", "--cover", "sl33", "--cover-map", "slA_g1_cover.json"):
        "b43c8db5081a05c75f89bcdd87d8e7015175995ec804e4e62f359ce57452dac5",
    ("verify-grading", "tkk_m11.sca", "--cover", "m11", "--cover-map", "tkk_m11_cover.json"):
        "2ae9a6cfce077154f34ce3a542f8801c38ca974f8cd391bbbe36696ffe339ac0",
    ("three-grading", "slA_g1.sca", "--cover", "sl33", "--cover-map", "slA_g1_cover.json",
     "--style", "height"):
        "ab5ddd91bf71b3622c46eda9cdb912d7704a6506fb369d667a61818ace2c1959",
    ("decompose", "psl22.sca", "--cartan", "@psl22_h1.vec", "--cartan", "@psl22_h2.vec"):
        "466f84c7a54ba8e9f8dbcf5e8673af8ba38cef1fe2206a05d2ec493974ee172c",
    ("peirce", "m11.sca", "--idempotent", "1,0,0,0"):
        "ab8611d4630438404096f6a6ad9775eaf91d97a6529bdffd1316b2795ac3fff7",
    ("jordan-from-grading", "tkk_m11.sca", "--e", "@tkk_m11_e.vec", "--f", "@tkk_m11_f.vec"):
        "8825ffc0b86f1d1031822c24d2415abbcf807b617350ca6cecd3ee3bf560acd7",
}


@pytest.mark.parametrize("argv", GRADING_DIGESTS, ids=lambda a: " ".join(a[:2]))
def test_grading_stdout_matches_pinned_digest(argv, capsys):
    code, out = run_cli(argv, capsys, cwd=FIXTURES)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GRADING_DIGESTS[argv]


def test_report_envelope_contains_digests(tmp_path, capsys):
    rep = tmp_path / "r.json"
    code, _ = run_cli(["h2", fx("psl22.sca"), "--out", rep], capsys)
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["schema"] == "supergrade-report/1"
    assert data["result"] == {"h2_even": 3, "h2_odd": 0}
    digest = next(iter(data["inputs"].values()))
    assert len(digest) == 64


@pytest.mark.parametrize("command", ["check", "h2"])
def test_unwritable_report_exits_2_with_empty_stdout(command, tmp_path, capsys):
    # the envelope is written before the stdout line, so a command whose
    # report cannot be written prints no answer
    code = main([command, fx("psl22.sca"), "--out", str(tmp_path / "missing" / "r.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("supergrade: error: FileNotFoundError")


# --- flag combinations are checked before any file is read ----------------


def test_tkk_m11_without_cover_out_exits_2_before_the_maths(tmp_path, monkeypatch, capsys):
    # a quadruple that fails the M(1,1)+ relations would give a UnitFailure
    # verdict if the construction ran first
    from supergrade import jordan

    called = []
    monkeypatch.setattr(jordan, "tkk", lambda *a: called.append(a) or 1 / 0)
    elems = tmp_path / "elems.json"
    elems.write_text(json.dumps({k: [1, 0, 0, 0] for k in ("e1", "e2", "x", "y")}))
    assert main(["tkk", fx("m11.sca"), "--m11", str(elems)]) == 2
    assert capsys.readouterr() == ("", "supergrade: error: BadParams: --m11 needs --cover-out "
                                       "to store the generated cover\n")
    cover = tmp_path / "c.json"
    assert main(["tkk", str(tmp_path / "missing.sca"), "--cover-out", str(cover)]) == 2
    assert capsys.readouterr() == ("", "supergrade: error: BadParams: --cover-out needs --m11\n")
    assert not called and not cover.exists()


def test_construct_sl_with_cover_out_exits_2_and_writes_nothing(tmp_path, capsys):
    cover = tmp_path / "x.json"
    assert main(["construct", "sl", "3", "3", "--cover-out", str(cover)]) == 2
    assert capsys.readouterr() == ("", "supergrade: error: BadParams: --cover-out is only "
                                       "available for construct slA with m == n\n")
    assert not cover.exists()


# --- one case per output, input error or verdict path ---------------------


@pytest.mark.parametrize("argv, code, out", [
    (["fingerprint", "psl22.sca", "--cartan", "@psl22_h1.vec", "--cartan", "@psl22_h2.vec"], 0,
     '{"center_dim":0,"derived_series":[14],"dims":[6,8],"h2":[3,0],'
     '"root_multiset":[[["-1","-1"],0,2],[["-1","1"],0,2],[["-2","0"],1,0],[["0","-2"],1,0],'
     '[["0","2"],1,0],[["1","-1"],0,2],[["1","1"],0,2],[["2","0"],1,0]]}\n'),
    # gl(2,2) is not perfect: its derived algebra is sl(2,2)
    (["fingerprint", "gl22.sca"], 0,
     '{"center_dim":1,"derived_series":[16,15],"dims":[8,8],"h2":[0,0],'
     '"root_multiset":null}\n'),
    # h = 2 E(1,1) + 2 E(2,2) in gl(2,2) acts by -2 on E(1b,1) and by 2 on
    # E(2,2b), which share their weight under the Cartan of sl(2,2)
    (["three-grading", "gl22.sca", "--cover", "sl22", "--style", "sl2",
      "--h", "2,0,0,0,0,2,0,0,0,0,0,0,0,0,0,0"], 1,
     '{"error":"NotThreeGraded","message":"ad(h) acts with mixed eigenvalues inside one '
     'component","verdict":"negative"}\n'),
    # f + e: [e, f + e] = [e, f], but ad h moves f + e off the -2 eigenspace
    (["jordan-from-grading", "tkk_m11.sca", "--e", "@tkk_m11_e.vec",
      "--f", "1,1,0,0,0,0,0,0,0,0,1,1,0,0"], 1,
     '{"error":"NotThreeGraded","message":"f is not in the -2 eigenspace of ad[e,f]",'
     '"verdict":"negative"}\n'),
], ids=lambda a: " ".join(a[:2]) if isinstance(a, list) else None)
def test_command_stdout_is_pinned(argv, code, out, capsys):
    assert run_cli(argv, capsys, cwd=FIXTURES) == (code, out)


def test_check_on_a_jordan_file_without_a_unit_line_is_a_negative_verdict(tmp_path, capsys):
    path = tmp_path / "nounit.sca"
    path.write_text("SCA/1\nkind jordan\ndim 1\nparity 0\nsc 1 1 1 1\nend\n")
    code, out = run_cli(["check", path], capsys)
    assert code == 1
    assert out == ('{"dim":1,"kind":"jordan","reason":"jordan tables must carry a unit",'
                   '"valid":false}\n')


@pytest.mark.parametrize("argv, message", [
    (["decompose", "psl22.sca", "--cartan", "1,0,0,0,0,0,0,0,0,0,0,0,0,0",
      "--cartan", "0,0,0,1,0,0,0,0,0,0,0,0,0,0"],
     "ValidationError: Cartan elements must commute pairwise"),
    (["three-grading", "psl22.sca", "--cover", "psl22", "--style", "sl2"],
     "BadParams: sl2 style needs the designated even element h"),
    (["verify-grading", "tkk_m11.sca", "--cover", "m11"],
     "BadParams: --cover m11 needs --cover-map with the eight generators"),
], ids=lambda a: " ".join(a[:2]) if isinstance(a, list) else None)
def test_input_error_names_its_cause(argv, message, capsys):
    assert main([fx(a) if a.endswith(".sca") else a for a in argv]) == 2
    assert capsys.readouterr() == ("", f"supergrade: error: {message}\n")


def test_cover_resolution_without_labels_or_cover_map_exits_2(tmp_path, capsys):
    path = tmp_path / "unlabeled.sca"
    path.write_text("".join(line for line in LINES["psl22.sca"] if not line.startswith("label")))
    assert main(["verify-grading", str(path), "--cover", "psl22"]) == 2
    assert capsys.readouterr() == ("", "supergrade: error: BadParams: cover resolution "
                                       "without --cover-map needs labeled bases\n")


def _crafted_cover(case, tmp_path) -> list:
    """verify-grading arguments for a cover map that fails condition 1:
    psl(2,2) with two equal images; tkk(M(1,1)+) with e1 sent to 0;
    tkk(M(1,1)+) twice, with e1 and e1~ sent to both copies and the other
    generators to the first; or tkk(M(1,1)+) plus an even central c, with
    e1 sent to e1 + c."""
    cover = tmp_path / "cover.json"
    if case == "dependent":
        images = [["1" if i == k else "0" for i in range(14)] for k in range(14)]
        images[13] = images[0]
        cover.write_text(json.dumps({"images": images}))
        return [fx("psl22.sca"), "--cover", "psl22", "--cover-map", cover]
    table = parse_sca((FIXTURES / "tkk_m11.sca").read_text())
    images = json.loads((FIXTURES / "tkk_m11_cover.json").read_text())["images"]
    n, par, entries = table.space.dim, table.space.parity, dict(table.entries)
    if case == "zero":
        images["e1"] = ["0"] * n
    elif case == "twice":
        entries.update({(n + i, n + j): tuple((n + k, c) for k, c in terms)
                        for (i, j), terms in table.entries.items()})
        par += par
        images = {k: v + (v if k in ("e1", "e1~") else ["0"] * n) for k, v in images.items()}
    else:
        par += (0,)
        images = {k: v + ["1" if k == "e1" else "0"] for k, v in images.items()}
    sca_path = tmp_path / "l.sca"
    sca_path.write_text(write_sca(StructureTable(SuperSpace(len(par), par), "lie", entries)))
    cover.write_text(json.dumps({"images": images}))
    return [sca_path, "--cover", "m11", "--cover-map", cover]


@pytest.mark.parametrize("case, reason", [
    ("dependent", "cover embedding is not injective"),
    ("zero", "generated subalgebra has a relation that fails in psl(2,2); "
             "the generators do not span a central cover"),
    ("twice", "kernel of the cover map is not central"),
    ("central", "generated cover is not perfect"),
])
def test_verify_grading_names_a_failed_cover(case, reason, tmp_path, capsys):
    code, out = run_cli(["verify-grading", *_crafted_cover(case, tmp_path)], capsys)
    assert code == 1
    assert json.loads(out)["conditions"] == {"condition1": {"passed": False, "reason": reason}}
