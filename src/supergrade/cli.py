"""Command-line surface: reproducible construction and verification runs.

Every command reads SCA structure-constant files, prints a compact JSON
result (or SCA text for constructions) to stdout, and optionally writes a
full report envelope with input digests via --out.  All output is
byte-deterministic: no timestamps, sorted keys, canonical rationals.

Exit codes: 0 verified/pass, 1 verified-negative (not_graded, failed
certificate, axiom violation, ...), 2 usage or input errors and any other
failure, reported as one stderr line without a traceback.

A process (`python -m supergrade`, the `supergrade` script) enters through
run(), which flushes the output of main() and ends with os._exit: no
process pays interpreter teardown after its answer is written.  In-process
callers of main(), the tests and the benchmark's tracing launcher
bench/traced.py among them, still pay it, so trace.overhead_s includes it.

Each subcommand imports only the modules it runs, at the point of use, so
a process pays start-up for its own command alone: `check` loads the
parser and the axiom checks, the cohomology commands add `cohomology`,
and `--help` loads no maths at all.  The subcommands are one table in
_build_parser; when argv[0] names one, only its subparser is built, and
any other argv builds them all, so help and usage errors keep their
bytes.  Help that cannot be written exits 2 like any other output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import NoReturn

from .errors import (
    AxiomViolation,
    BadParams,
    MissingUnit,
    NonSplitSpectrum,
    NotDiagonalizable,
    NotHomomorphism,
    NotPerfect,
    NotThreeGraded,
    UnexpectedEigenvalue,
    UnitFailure,
)

NEGATIVE_VERDICT_ERRORS = (
    AxiomViolation,
    MissingUnit,
    NotHomomorphism,
    NotThreeGraded,
    UnexpectedEigenvalue,
    UnitFailure,
    NonSplitSpectrum,
    NotDiagonalizable,
    NotPerfect,
)


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_kind(path: str, kind: str, command: str):
    """The algebra of an SCA file, for a command that reads only tables of
    one kind.  A table that fails its axioms is an input error: a Jordan
    table must pass validate_jordan, a Lie table super-anticommutativity
    (not yet the Jacobi identity; ROADMAP.md item 1 has its cost at load)."""
    from . import _axioms, sca, superalg

    table = sca.parse_sca(_read_text(path))
    if table.kind != kind:
        raise BadParams(f"{command} needs a {kind} SCA file")
    try:
        if kind == "jordan":
            return superalg.validate_jordan(table, {"name": path})
        _axioms.check_super_anticommutativity(table)
    except (AxiomViolation, MissingUnit) as exc:
        name = "Jordan" if kind == "jordan" else "Lie"
        raise BadParams(f"{command} needs a {name} superalgebra: {exc}") from exc
    return superalg.LieSuperalgebra(table, {"name": path})


def _digest(path: str) -> str:
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# spellings whose value grows with their text: digits over digits (not
# necessarily normalized) and plain decimals.  An exponent is refused: it
# would let a 12-byte entry such as 1e100000000 pin a core in Fraction.
_RATIONAL = re.compile(r"-?(\d+(/\d+)?|\d+\.\d*|\.\d+)\Z")


def _rational(text: str, what: str, seen: dict) -> Fraction:
    """One vector entry as a Fraction, built once per distinct text cached
    in seen (one dict per vector argument or JSON file); a malformed entry
    is BadParams."""
    value = seen.get(text)
    if value is None:
        try:
            if not _RATIONAL.match(text):
                raise ValueError(text)
            value = seen[text] = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParams(f"{what} entry {text!r} is not a rational number") from exc
    return value


def _parse_vector(spec: str, dim: int):
    from .exact import vec

    text = _read_text(spec[1:]) if spec.startswith("@") else spec
    parts = re.split(r"\s*,\s*|\s+", text.strip())
    if "" in parts:
        raise BadParams(f"vector {spec!r} has an empty entry")
    if len(parts) != dim:
        raise BadParams(f"vector has {len(parts)} entries, expected {dim}")
    seen: dict[str, Fraction] = {}
    return vec(_rational(p, "vector", seen) for p in parts)


def _vec_json(v) -> list:
    """A vector or weight as canonical rational strings."""
    return [str(c) for c in v]


class _Output:
    """stdout result plus optional envelope report written to --out."""

    def __init__(self, argv, inputs):
        self.argv = list(argv)
        self.inputs = inputs

    def emit(self, result: dict, out: str | None) -> None:
        """Write the --out envelope, then the stdout line, so that a failed
        write leaves stdout empty."""
        if out:
            envelope = {
                "schema": "supergrade-report/1",
                "command": self.argv,
                "inputs": {p: _digest(p) for p in self.inputs},
                "result": result,
            }
            _write_json(out, envelope)
        sys.stdout.write(json.dumps(result, sort_keys=True, separators=(",", ":")) + "\n")


def _emit_sca(args, out: _Output, table, summary: dict) -> int:
    """Write a table's SCA text to --out and emit {"written": path, **summary},
    or write the text to stdout."""
    from . import sca

    text = sca.write_sca(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.emit({"written": args.out, **summary}, None)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _int_params(what: str, names: str, values: list[str]) -> list[int]:
    """The integer parameters of a construction, named in order by names."""
    out = []
    for name, v in zip(names.split(), values):
        try:
            out.append(int(v))
        except ValueError:
            raise BadParams(f"{what} parameter {name} must be an integer, got {v!r}") from None
    return out


def _coefficient_algebra(kind: str, params: list[str]):
    from . import constructors

    if kind in ("field", "dual_numbers"):
        if params:
            raise BadParams(f"{kind} takes no parameters")
        return constructors.construct_assoc(kind)
    if kind == "grassmann":
        if len(params) != 1:
            raise BadParams("grassmann takes one parameter k")
        return constructors.construct_assoc("grassmann", *_int_params(kind, "k", params))
    if kind == "matrix_super":
        if len(params) != 2:
            raise BadParams("matrix_super takes two parameters p q")
        return constructors.construct_assoc("matrix_super",
                                            tuple(_int_params(kind, "p q", params)))
    raise BadParams(f"unknown coefficient algebra {kind!r}")


# construct parameter counts: exact, or (minimum, None) for slA and assoc,
# whose coefficient algebra checks its own trailing parameters
_CONSTRUCT_ARITY = {
    "gl": (2, 2), "sl": (2, 2), "psl": (1, 1), "slA": (3, None), "assoc": (1, None),
    "mplus": (1, 1), "jp": (1, 1), "jq": (1, 1), "m11": (0, 0),
}


def _run_construct(args, out: _Output) -> int:
    from . import constructors

    what = args.what
    params = args.params
    low, high = _CONSTRUCT_ARITY[what]
    if len(params) < low or (high is not None and len(params) > high):
        want = f"{low}" if low == high else f"at least {low}"
        raise BadParams(f"construct {what} takes {want} parameters, got {len(params)}")
    if what == "slA":
        m, n = _int_params(what, "m n", params[:2])
    if args.cover_out and (what != "slA" or m != n):
        raise BadParams("--cover-out is only available for construct slA with m == n")
    if what == "gl":
        alg = constructors.construct_gl(*_int_params(what, "m n", params))
    elif what == "sl":
        alg = constructors.construct_sl(*_int_params(what, "m n", params))
    elif what == "psl":
        alg = constructors.construct_psl(*_int_params(what, "n", params))
    elif what == "slA":
        alg = constructors.construct_sl_A(m, n, _coefficient_algebra(params[2], params[3:]))
        if args.cover_out:
            _write_json(args.cover_out, {
                "kind": "sl",
                "n": m - 1,
                "images": [_vec_json(v) for v in alg.provenance["cover_images"]],
            })
    elif what == "assoc":
        alg = _coefficient_algebra(params[0], params[1:])
    elif what == "mplus":
        alg = constructors.construct_jordan("Mplus", *_int_params(what, "n", params))
    elif what == "jp":
        alg = constructors.construct_jordan("JP", *_int_params(what, "n", params))
    elif what == "jq":
        alg = constructors.construct_jordan("JQ", *_int_params(what, "n", params))
    else:  # m11
        alg = constructors.construct_jordan("M11")
    return _emit_sca(args, out, alg.table, {"dim": alg.dim, "kind": alg.kind})


# ---------------------------------------------------------------------------
# cover resolution
# ---------------------------------------------------------------------------

_COVER_RE = re.compile(r"\A(p?sl)(\d)(\d)\Z")


def _map_vector(v, dim: int, seen: dict, what: str = "cover map"):
    from .exact import vec

    if not isinstance(v, list) or len(v) != dim:
        raise BadParams(f"{what} vectors must be lists of {dim} rationals")
    return vec(_rational(str(x), what, seen) for x in v)


_M11_ELEMENT_KEYS = ("e1", "e2", "x", "y")


def _load_m11_elements(path: str, dim: int) -> list:
    """The quadruple e1, e2, x, y of an --elements/--m11 JSON object."""
    data = json.loads(_read_text(path))
    if not isinstance(data, dict) or set(data) != set(_M11_ELEMENT_KEYS):
        raise BadParams(f"element file must be a JSON object with exactly the keys "
                        f"{list(_M11_ELEMENT_KEYS)}")
    seen: dict[str, Fraction] = {}
    return [_map_vector(data[k], dim, seen, "element file") for k in _M11_ELEMENT_KEYS]


def _load_cover_map(path: str, dim: int, count: int | None):
    """Images from a --cover-map file: `count` vectors under "images" for
    sl/psl covers, or the eight named generators (optionally under
    "images") for an m11 cover when count is None."""
    from .roots import _M11_KEYS

    data = json.loads(_read_text(path))
    if not isinstance(data, dict):
        raise BadParams("cover map must be a JSON object")
    seen: dict[str, Fraction] = {}
    if count is not None:
        rows = data.get("images")
        if not isinstance(rows, list) or len(rows) != count:
            raise BadParams(f"cover map needs an \"images\" list of {count} vectors")
        return [_map_vector(row, dim, seen) for row in rows]
    gens = data.get("images", data)
    if not isinstance(gens, dict) or set(gens) != set(_M11_KEYS):
        raise BadParams(f"m11 cover map needs exactly the keys {list(_M11_KEYS)}")
    return {k: _map_vector(v, dim, seen) for k, v in gens.items()}


def _resolve_cover(l, spec: str, cover_map_path: str | None) -> roots.CoverEmbedding:
    from . import constructors, roots
    from .exact import dense_to_sparse, sparse_apply, sparse_to_dense, unit_vec

    if spec == "m11":
        if not cover_map_path:
            raise BadParams("--cover m11 needs --cover-map with the eight generators")
        return roots.CoverEmbedding("m11", 1, _load_cover_map(cover_map_path, l.dim, None))
    match = _COVER_RE.match(spec)
    if not match:
        raise BadParams(f"unknown cover spec {spec!r}")
    family, m, n = match.group(1), int(match.group(2)), int(match.group(3))
    if m != n:
        raise BadParams("grading covers must be of type sl(n+1,n+1) or psl(n+1,n+1)")
    if family == "psl":
        ref = constructors.construct_psl(m - 1)
    else:
        ref = constructors.construct_sl(m, m)
    if cover_map_path:
        images = _load_cover_map(cover_map_path, l.dim, ref.dim)
        return roots.CoverEmbedding(family, m - 1, images, ref)

    file_labels = l.labels
    if file_labels is None:
        raise BadParams("cover resolution without --cover-map needs labeled bases")
    position = {name: i for i, name in enumerate(file_labels)}
    if ref.labels is not None and all(name in position for name in ref.labels):
        # the file is a relabeled copy of the reference (identity embedding)
        images = [unit_vec(l.dim, position[name]) for name in ref.labels]
        return roots.CoverEmbedding(family, m - 1, images, ref)
    gl_labels = ref.provenance["ambient_gl"].labels if family == "sl" else None
    if gl_labels is not None and all(name in position for name in gl_labels):
        # file carries matrix-unit labels: push the sl basis through them
        units = [{position[name]: 1} for name in gl_labels]
        images = [sparse_to_dense(sparse_apply(units, dense_to_sparse(bvec)), l.dim)
                  for bvec in ref.provenance["embedding"]]
        return roots.CoverEmbedding("sl", m - 1, images, ref)
    raise BadParams(
        "cannot resolve the cover embedding from labels; pass --cover-map"
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _run_check(args, out: _Output) -> int:
    from . import sca, superalg

    table = sca.parse_sca(_read_text(args.file))
    validators = {
        "lie": superalg.validate_lie,
        "assoc": superalg.validate_assoc,
        "jordan": superalg.validate_jordan,
    }
    try:
        validators[table.kind](table)
    except (AxiomViolation, MissingUnit) as exc:
        result = {"valid": False, "kind": table.kind, "dim": table.space.dim,
                  "reason": str(exc)}
        if isinstance(exc, AxiomViolation):
            result["axiom"] = exc.axiom
            result["indices"] = [i + 1 for i in exc.indices]
        out.emit(result, args.out)
        return 1
    out.emit({"valid": True, "kind": table.kind, "dim": table.space.dim}, args.out)
    return 0


def _cartan_from_args(l, specs) -> CartanBasis:
    from .constructors import CartanBasis
    from .superalg import Element, homogeneous_parity

    elements = []
    for s in specs:
        v = _parse_vector(s, l.dim)
        p = homogeneous_parity(l.space, v)
        elements.append(Element(v, p))
    return CartanBasis(elements)


def _datum_json(datum) -> dict:
    return {
        "components": [
            {
                "weight": _vec_json(c.weight),
                "even_dim": c.even_dim,
                "odd_dim": c.odd_dim,
                "basis": [_vec_json(v) for v in c.basis],
            }
            for c in datum.components
        ],
        "zero_component": {
            "weight": _vec_json(datum.zero_component.weight),
            "even_dim": datum.zero_component.even_dim,
            "odd_dim": datum.zero_component.odd_dim,
            "basis": [_vec_json(v) for v in datum.zero_component.basis],
        },
    }


def _run_decompose(args, out: _Output) -> int:
    from . import roots

    l = _load_kind(args.file, "lie", "decompose")
    cartan = _cartan_from_args(l, args.cartan)
    datum = roots.weight_decomposition(l, cartan)
    out.emit(_datum_json(datum), args.out)
    return 0


def _grading_json(report, zreport) -> dict:
    conditions = {}
    for name, ev in report.conditions.items():
        conditions[name] = {
            k: (v if not isinstance(v, list) else [_vec_json(w) for w in v])
            for k, v in ev.items()
        }
    result = {
        "verdict": report.verdict,
        "matched_root_system": report.matched_root_system,
        "conditions": conditions,
        "z_action_trivial": zreport.passed if zreport else None,
    }
    if report.datum is not None:
        result["weights"] = [
            {"weight": _vec_json(c.weight), "even_dim": c.even_dim, "odd_dim": c.odd_dim}
            for c in report.datum.components
        ]
    return result


def _run_verify_grading(args, out: _Output) -> int:
    from . import roots

    l = _load_kind(args.file, "lie", "verify-grading")
    cover = _resolve_cover(l, args.cover, args.cover_map)
    try:
        report = roots.verify_delta_graded(l, cover)
    except NotHomomorphism as exc:
        result = {
            "verdict": "not_graded",
            "matched_root_system": None,
            "conditions": {"condition1": {"passed": False, "reason": str(exc)}},
            "z_action_trivial": None,
        }
        out.emit(result, args.out)
        return 1
    zreport = roots.check_z_trivial(l, cover)
    result = _grading_json(report, zreport)
    out.emit(result, args.out)
    return 0 if report.verdict == "graded" and zreport.passed else 1


def _run_three_grading(args, out: _Output) -> int:
    from . import roots

    l = _load_kind(args.file, "lie", "three-grading")
    h = _parse_vector(args.h, l.dim) if args.h else None
    cover = _resolve_cover(l, args.cover, args.cover_map)
    analysis = roots.analyze_cover(l, cover)
    datum = roots.weight_decomposition(l, analysis.cartan)
    grading = roots.three_grading(l, datum, args.style, h=h)
    dims = grading.dims(l.space)
    result = {
        "style": args.style,
        "parts": {
            "minus": {"even_dim": dims[0][0], "odd_dim": dims[0][1]},
            "zero": {"even_dim": dims[1][0], "odd_dim": dims[1][1]},
            "plus": {"even_dim": dims[2][0], "odd_dim": dims[2][1]},
        },
    }
    out.emit(result, args.out)
    return 0


def _run_tkk(args, out: _Output) -> int:
    from . import jordan

    if args.m11 and not args.cover_out:
        raise BadParams("--m11 needs --cover-out to store the generated cover")
    if args.cover_out and not args.m11:
        raise BadParams("--cover-out needs --m11")
    l = _load_kind(args.file, "jordan", "tkk")
    if args.m11:  # the certificate needs no TKK algebra, so a failing one costs no build
        cert = jordan.certify_m11(l, *_load_m11_elements(args.m11, l.dim))
        if not cert.passed:
            raise UnitFailure(
                f"the given elements fail the M(1,1)+ relations: {cert.failures()}"
            )
    t = jordan.tkk(l)
    if args.m11:
        gens = jordan.m11_tkk_generators(t, cert)
        _write_json(args.cover_out,
                    {"kind": "m11", "images": {k: _vec_json(v) for k, v in gens.items()}})
    return _emit_sca(args, out, t.lie.table, {"dim": t.dim})


def _run_jordan_from_grading(args, out: _Output) -> int:
    from . import jordan

    l = _load_kind(args.file, "lie", "jordan-from-grading")
    e = _parse_vector(args.e, l.dim)
    f = _parse_vector(args.f, l.dim)
    j = jordan.jordan_from_3grading(l, e, f)
    return _emit_sca(args, out, j.table, {"dim": j.dim})


def _run_peirce(args, out: _Output) -> int:
    from . import jordan

    l = _load_kind(args.file, "jordan", "peirce")
    pd = jordan.peirce(l, _parse_vector(args.idempotent, l.dim))
    result = {
        "dims": list(pd.dims()),
        "parts": {
            name: [_vec_json(v) for v in part]
            for name, part in zip(("J0", "J1", "J2"), pd.parts)
        },
    }
    out.emit(result, args.out)
    return 0


def _run_certify_m11(args, out: _Output) -> int:
    from . import jordan

    l = _load_kind(args.file, "jordan", "certify-m11")
    cert = jordan.certify_m11(l, *_load_m11_elements(args.elements, l.dim))
    out.emit({"passed": cert.passed, "relations": dict(sorted(cert.results.items()))},
             args.out)
    return 0 if cert.passed else 1


def _run_h2(args, out: _Output) -> int:
    from . import cohomology

    l = _load_kind(args.file, "lie", "h2")
    even, odd = cohomology.h2_dims(l)
    out.emit({"h2_even": even, "h2_odd": odd}, args.out)
    return 0


def _run_uce(args, out: _Output) -> int:
    from . import cohomology

    l = _load_kind(args.file, "lie", "uce")
    ext = cohomology.uce(l)
    return _emit_sca(args, out, ext.extended.table,
                     {"dim": ext.extended.dim, "added_central_dims": len(ext.cocycles)})


def _run_fingerprint(args, out: _Output) -> int:
    from . import cohomology

    l = _load_kind(args.file, "lie", "fingerprint")
    cartan = _cartan_from_args(l, args.cartan) if args.cartan else None
    fp = cohomology.fingerprint(l, cartan)
    result = {
        "dims": list(fp.dims),
        "derived_series": list(fp.derived_series),
        "center_dim": fp.center_dim,
        "h2": list(fp.h2),
        "root_multiset": (
            None
            if fp.root_multiset is None
            else [[list(w), e, o] for w, e, o in fp.root_multiset]
        ),
    }
    out.emit(result, args.out)
    return 0


def _run_isogenous(args, out: _Output) -> int:
    from . import cohomology

    l1 = _load_kind(args.file, "lie", "isogenous")
    l2 = _load_kind(args.file2, "lie", "isogenous")
    verdict = cohomology.isogenous(l1, l2)
    out.emit({"verdict": verdict}, args.out)
    return 0 if verdict == "equal" else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        # argparse's swallows a failed write; here it raises, and main
        # reports it with exit 2 as it does a failed write of any output
        file = file or sys.stderr
        if message and file is not None:
            file.write(message)


_FILE, _OUT, _REQUIRED = ("file", {}), ("--out", {}), {"required": True}


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv.  When argv[0] names a subcommand only its
    subparser is registered, since a subparser's help, usage errors and
    parse do not depend on its siblings; any other argv (none, -h, an
    option or an unknown word first) gets every subparser, for the full
    help and the list of choices."""
    # each subcommand's help, handler and arguments (a name or flag, and the
    # keywords of add_argument), in the order the help lists them; built per
    # call, so a handler replaced on the module (as a test does) is the one run
    commands = {
        "construct": ("emit a named algebra as SCA", _run_construct, [
            ("what", {"choices": list(_CONSTRUCT_ARITY)}), ("params", {"nargs": "*"}), _OUT,
            ("--cover-out", {"help": "write the embedded sl cover map (slA only)"})]),
        "check": ("run the axiom validator for the file's kind", _run_check, [_FILE, _OUT]),
        "decompose": ("weight decomposition against a Cartan basis", _run_decompose, [
            _FILE, ("--cartan", {"action": "append", "required": True,
                                 "help": "comma-separated rationals or @file (repeatable)"}),
            _OUT]),
        "verify-grading": ("check the A(n,n)-grading conditions", _run_verify_grading, [
            _FILE, ("--cover", {"required": True, "help": "slNN, pslNN, or m11"}),
            ("--cover-map", {"help": "JSON with explicit embedding images"}), _OUT]),
        "three-grading": ("compute a 3-grading and verify closure", _run_three_grading, [
            _FILE, ("--cover", _REQUIRED), ("--cover-map", {}),
            ("--style", {"choices": ["height", "sl2"], "required": True}),
            ("--h", {"help": "designated even element (sl2 style)"}), _OUT]),
        "tkk": ("Tits-Kantor-Koecher algebra of a Jordan file", _run_tkk, [
            _FILE, _OUT, ("--m11", {"help": "JSON with a certified quadruple e1,e2,x,y"}),
            ("--cover-out", {"help": "write the generated A(1,1) cover map"})]),
        "jordan-from-grading": ("recover a Jordan algebra from e, f", _run_jordan_from_grading,
                                [_FILE, ("--e", _REQUIRED), ("--f", _REQUIRED), _OUT]),
        "peirce": ("Peirce decomposition for an even idempotent", _run_peirce, [
            _FILE, ("--idempotent", _REQUIRED), _OUT]),
        "certify-m11": ("check the M(1,1)+ relations on four elements", _run_certify_m11, [
            _FILE, ("--elements", {"required": True, "help": "JSON with e1, e2, x, y"}), _OUT]),
        "h2": ("second cohomology dimensions", _run_h2, [_FILE, _OUT]),
        "uce": ("universal central extension as SCA", _run_uce, [_FILE, _OUT]),
        "fingerprint": ("isogeny-invariant summary", _run_fingerprint, [
            _FILE, ("--cartan", {"action": "append"}), _OUT]),
        "isogenous": ("compare central-quotient fingerprints", _run_isogenous, [
            _FILE, ("file2", {}), _OUT]),
    }
    parser = _Parser(
        prog="supergrade",
        description="Exact computations with A(n,n)-graded Lie superalgebras, "
        "Jordan superalgebras and their central extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [argv[0]] if argv and argv[0] in commands else commands:
        help_text, func, arguments = commands[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    except OSError as exc:  # help or a usage error that could not be written
        _report(exc)
        return 2
    inputs = [
        getattr(args, name)
        for name in ("file", "file2", "cover_map", "elements", "m11")
        if getattr(args, name, None)
    ]
    out = _Output(["supergrade"] + argv, inputs)
    try:
        return args.func(args, out)
    except NEGATIVE_VERDICT_ERRORS as exc:
        sys.stdout.write(
            json.dumps(
                {"verdict": "negative", "error": type(exc).__name__, "message": str(exc)},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
        return 1
    except Exception as exc:  # input errors, and anything else: no traceback
        _report(exc)
        return 2


def _report(exc: Exception) -> None:
    """The one stderr line of an exit 2; with no stderr to write to, the
    exit code alone reports the error."""
    try:
        sys.stderr.write(f"supergrade: error: {type(exc).__name__}: {exc}\n")
    except (AttributeError, OSError):  # None when fd 2 was closed at start
        pass


def run() -> NoReturn:
    """Process entry: main(), then stdout and stderr flushed, then
    os._exit(code), which skips interpreter teardown.

    The hard exit runs no atexit handler, joins no thread and flushes or
    closes no other file.  That is sound because the package registers no
    atexit handler, starts no thread and closes every file it writes in a
    with block (tests/test_source.py guards this).  A stdout that cannot be
    flushed (a pipe with no reader, a full device, or None when fd 1 was
    closed at start) exits 2 with one stderr line: its own, unless main
    already reported an error with code 2."""
    code = main()
    try:
        sys.stdout.flush()
    except (AttributeError, OSError) as exc:
        if code != 2:
            _report(exc)
        code = 2
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):  # nothing is left that could report it
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
