"""The SCA structure-constant file format.

Line-oriented UTF-8, strict and canonical:

    SCA/1
    kind lie|assoc|jordan
    dim N
    parity b1 ... bN
    unit i            (optional, assoc/jordan; 1-based basis index)
    unitv q1 ... qN   (alternative when the unit is not a basis vector)
    label i name      (optional, one per basis index)
    sc i j k q        (c_{ij}^k = q; 1-based; omitted entries are 0)
    end

Comments start with '#'.  Rationals must be normalized: lowest terms,
positive denominator, integer shorthand when the denominator is 1.
write_sca sorts entries by (i, j, k) and is byte-deterministic, so
write(parse(doc)) is the identity on canonical documents.

parse_sca reads the lines in one pass and builds one Fraction and one
integer per distinct coefficient text.  It checks every line as it reads
it (indices, duplicates, zeros) and reports a parity fault after the last
line, in the order StructureTable checks entries, so the integer rows it
builds (StructureTable.integer_form) are canonical, their scale reduced,
and skip the gcd pass of StructureTable._canonical.  write_sca writes from
those rows, one text per distinct integer value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import ParseError, ValidationError
from .exact import unit_vec
from .superalg import StructureTable, SuperSpace

_RATIONAL = re.compile(r"-?\d+(/\d+)?\Z")
_INDEX = re.compile(r"[1-9][0-9]*\Z")


def _parse_rational(text: str, lineno: int, seen: dict) -> Fraction:
    """text as a Fraction, parsed once per distinct text cached in seen."""
    value = seen.get(text)
    if value is None:
        if not _RATIONAL.match(text):
            raise ParseError(f"malformed rational {text!r}", lineno)
        value = Fraction(text)
        if str(value) != text:
            raise ParseError(f"non-normalized rational {text!r}", lineno)
        seen[text] = value
    return value


def _index_error(text: str, what: str, lineno: int) -> ParseError:
    """The error for a basis index that is not in the canonical spelling of
    1..dim: '01', '+1', '1_0' or a non-ASCII digit is malformed."""
    if _INDEX.match(text):
        return ParseError(f"{what} index {text} out of range", lineno)
    return ParseError(f"malformed {what} index {text!r}", lineno)


def _fields(text: str):
    """(line number, tokens) of every line with content outside a comment."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tok = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if tok:
            yield lineno, tok


def parse_sca(text: str) -> StructureTable:
    """Strict parse of an SCA document into a StructureTable, handed its
    integer rows."""
    fields = _fields(text)
    lineno = None

    def take():
        nonlocal lineno
        item = next(fields, None)
        if item is None:
            if lineno is None:
                raise ParseError("empty document")
            raise ParseError("unexpected end of document", lineno)
        lineno = item[0]
        return item[1]

    if take() != ["SCA/1"]:
        raise ParseError("expected header SCA/1", lineno)
    tok = take()
    if len(tok) != 2 or tok[0] != "kind" or tok[1] not in ("lie", "assoc", "jordan"):
        raise ParseError("expected 'kind lie|assoc|jordan'", lineno)
    kind = tok[1]
    tok = take()
    if len(tok) != 2 or tok[0] != "dim" or not _INDEX.match(tok[1]):
        raise ParseError("expected 'dim N' with N a positive integer", lineno)
    dim = int(tok[1])
    tok = take()
    if tok[0] != "parity" or len(tok) != dim + 1:
        raise ParseError(f"expected 'parity' with {dim} bits", lineno)
    if any(b not in ("0", "1") for b in tok[1:]):
        raise ParseError("parity bits must be 0 or 1", lineno)
    parity = tuple(int(b) for b in tok[1:])

    # the 0-based index of each canonical 1-based spelling (the parity line
    # bounds dim by the document's length)
    index = {str(i + 1): i for i in range(dim)}
    coeffs: dict[str, Fraction] = {}  # sc coefficient text -> its one Fraction
    unit = None
    labels: dict[int, str] = {}
    entries: dict = {}  # (i, j) -> {k: coefficient text}
    faults = []  # (i, j, k) violating parity homogeneity, reported after the last line
    for lineno, tok in fields:
        key = tok[0]
        if key == "sc":
            if len(tok) != 5:
                raise ParseError("expected 'sc i j k q'", lineno)
            try:
                i, j, k = index[tok[1]], index[tok[2]], index[tok[3]]
            except KeyError as exc:
                raise _index_error(exc.args[0], "sc", lineno) from None
            terms = entries.get((i, j))
            if terms is None:
                terms = entries[i, j] = {}
            elif k in terms:
                raise ParseError(f"duplicate entry ({tok[1]},{tok[2]},{tok[3]})", lineno)
            c = terms[k] = tok[4]
            if c not in coeffs:
                _parse_rational(c, lineno, coeffs)
                if c == "0":  # the one normalized spelling of zero
                    raise ParseError("zero structure constants must be omitted", lineno)
            if parity[k] != parity[i] ^ parity[j]:
                faults.append((i, j, k))
        elif key == "unit":
            if unit is not None:
                raise ParseError("duplicate unit line", lineno)
            if len(tok) != 2:
                raise ParseError("expected 'unit i'", lineno)
            i = index.get(tok[1])
            if i is None:
                raise _index_error(tok[1], "unit", lineno)
            unit = unit_vec(dim, i)
        elif key == "unitv":
            if unit is not None:
                raise ParseError("duplicate unit line", lineno)
            if len(tok) != dim + 1:
                raise ParseError(f"expected 'unitv' with {dim} coordinates", lineno)
            seen: dict[str, Fraction] = {}
            unit = tuple(_parse_rational(t, lineno, seen) for t in tok[1:])
        elif key == "label":
            if len(tok) != 3:
                raise ParseError("expected 'label i name'", lineno)
            i = index.get(tok[1])
            if i is None:
                raise _index_error(tok[1], "label", lineno)
            if i in labels:
                raise ParseError(f"duplicate label for index {tok[1]}", lineno)
            labels[i] = tok[2]
        elif key == "end":
            if len(tok) != 1:
                raise ParseError("junk after 'end'", lineno)
            break
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    else:
        raise ParseError("missing final 'end'", lineno)
    extra = next(fields, None)
    if extra is not None:
        raise ParseError("content after 'end'", extra[0])

    label_tuple = None
    if labels:
        if len(labels) != dim:
            raise ParseError("labels must cover every basis index or be absent")
        label_tuple = tuple(labels[i] for i in range(dim))
    try:
        space = SuperSpace(dim, parity, label_tuple)
        if faults:
            # the first in StructureTable's order: entries as they appear, terms by k
            order = {key: t for t, key in enumerate(entries)}
            i, j, k = min(faults, key=lambda f: (order[f[:2]], f[2]))
            raise ValidationError(f"entry ({i},{j},{k}) violates parity homogeneity")
        # the integer rows (StructureTable.integer_form), one integer per
        # distinct coefficient text
        s = lcm(1, *(c.denominator for c in coeffs.values()))
        ints = {t: c.numerator * (s // c.denominator) for t, c in coeffs.items()}
        L = [{} for _ in range(dim)]
        for i, j in sorted(entries):
            terms = entries[i, j]
            if len(terms) == 1:  # most entries
                (k, t), = terms.items()
                L[i][j] = ((k, ints[t]),)
            else:
                L[i][j] = tuple([(k, ints[t]) for k, t in sorted(terms.items())])
        return StructureTable._canonical(space, kind, (s, L), unit, reduced=True)
    except ValidationError as exc:
        raise ValidationError(f"table invariant violated: {exc}") from exc


def write_sca(table: StructureTable) -> str:
    """Canonical serialization: sorted entries, normalized rationals,
    deterministic bytes."""
    out = ["SCA/1", f"kind {table.kind}", f"dim {table.space.dim}"]
    out.append("parity " + " ".join(str(p) for p in table.space.parity))
    if table.unit is not None:
        support = [(i, c) for i, c in enumerate(table.unit) if c != 0]
        if len(support) == 1 and support[0][1] == 1:
            out.append(f"unit {support[0][0] + 1}")
        else:
            out.append("unitv " + " ".join(str(c) for c in table.unit))
    if table.space.labels is not None:
        for i, name in enumerate(table.space.labels, start=1):
            out.append(f"label {i} {name}")
    s, L = table.integer_form()
    texts: dict[int, str] = {}  # integer value -> the text of value / s
    for i, row in enumerate(L, start=1):
        for j in sorted(row):
            for k, v in row[j]:
                c = texts.get(v)
                if c is None:
                    c = texts[v] = str(Fraction(v, s))
                out.append(f"sc {i} {j + 1} {k + 1} {c}")
    out.append("end")
    return "\n".join(out) + "\n"
