"""SCA format: strict parsing, canonical writing, round trips."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergrade import constructors as C
from supergrade.cli import main
from supergrade.errors import ParseError, ValidationError
from supergrade.sca import parse_sca, write_sca
from supergrade.superalg import StructureTable, validate_lie
from tests.oracles import assert_stored_form, parse_sca_two_pass
from tests.test_cli import CONSTRUCT_DIGESTS
from tests.test_roots import _rescaled

FIXTURES = Path(__file__).parent / "fixtures"

MINIMAL = """SCA/1
kind lie
dim 1
parity 0
end
"""


def test_minimal_document():
    t = parse_sca(MINIMAL)
    assert t.kind == "lie" and t.space.dim == 1 and not t.entries


def test_write_is_canonical_on_minimal():
    assert write_sca(parse_sca(MINIMAL)) == MINIMAL


def test_roundtrip_constructions(sl21, m11):
    for alg in (sl21, m11, C.construct_gl(1, 1), C.construct_assoc("grassmann", 2)):
        text = write_sca(alg.table)
        back = parse_sca(text)
        assert back.kind == alg.table.kind
        assert back.entries == alg.table.entries
        assert back.unit == alg.table.unit
        assert back.space.labels == alg.table.space.labels
        assert write_sca(back) == text


def test_sl2_document_validates():
    sl2 = C.construct_sl(2, 0)
    text = write_sca(sl2.table)
    assert text.count("sc ") == sum(len(v) for v in sl2.table.entries.values())
    validate_lie(parse_sca(text))


def test_write_deterministic(sl21):
    assert write_sca(sl21.table) == write_sca(sl21.table)


def test_comments_and_blank_lines():
    doc = "# header comment\nSCA/1\n\nkind lie\ndim 1\nparity 0  # trailing\nend\n"
    assert parse_sca(doc).space.dim == 1


@pytest.mark.parametrize(
    "mutation,message",
    [
        ("sc 1 1 1 2/4", "non-normalized"),
        ("sc 1 1 1 4/2", "non-normalized"),
        ("sc 1 1 1 1/1", "non-normalized"),
        ("sc 1 1 1 -0", "non-normalized"),
        ("sc 1 1 1 0", "zero structure"),
        ("sc 1 1 2 1", "out of range"),
        ("sc 1 1 1 1/-2", "malformed"),
        ("sc 1 1 0 1", "malformed sc index '0'"),
        # int() reads each of these indices as 1
        ("sc +1 1 1 1", "malformed sc index '+1'"),
        ("sc 1 01 1 1", "malformed sc index '01'"),
        ("sc 1 1 0_1 1", "malformed sc index '0_1'"),
        ("sc 1 1 \u0661 1", "malformed sc index"),
        ("unit 1 1", "expected 'unit i'"),
        ("unit 2", "unit index 2 out of range"),
        ("end junk", "junk after 'end'"),
    ],
)
def test_bad_sc_lines(mutation, message):
    doc = f"SCA/1\nkind lie\ndim 1\nparity 0\n{mutation}\nend\n"
    with pytest.raises(ParseError) as err:
        parse_sca(doc)
    assert message in str(err.value)
    assert err.value.line == 5


def test_parity_bits_must_be_0_or_1():
    with pytest.raises(ParseError) as err:
        parse_sca("SCA/1\nkind lie\ndim 1\nparity 2\nend\n")
    assert str(err.value) == "line 4: parity bits must be 0 or 1"


def test_dim_must_be_ascii_digits():
    # int() reads the Arabic-Indic digit two as 2
    doc = "SCA/1\nkind lie\ndim \u0662\nparity 0 0\nend\n"
    with pytest.raises(ParseError) as err:
        parse_sca(doc)
    assert "expected 'dim N'" in str(err.value)
    assert err.value.line == 3


def test_duplicate_entry_rejected():
    doc = "SCA/1\nkind lie\ndim 2\nparity 0 0\nsc 1 2 1 1\nsc 1 2 1 2\nend\n"
    with pytest.raises(ParseError) as err:
        parse_sca(doc)
    assert "duplicate" in str(err.value)
    assert err.value.line == 6


def test_missing_end():
    with pytest.raises(ParseError):
        parse_sca("SCA/1\nkind lie\ndim 1\nparity 0\n")


def test_content_after_end():
    with pytest.raises(ParseError):
        parse_sca(MINIMAL + "sc 1 1 1 1\n")


def test_bad_header():
    with pytest.raises(ParseError):
        parse_sca("SCA/2\nkind lie\ndim 1\nparity 0\nend\n")


def test_parity_violating_entry_rejected():
    doc = "SCA/1\nkind lie\ndim 2\nparity 0 1\nsc 1 1 2 1\nend\n"
    with pytest.raises(ValidationError):
        parse_sca(doc)


def test_unit_line_variants(m11):
    g = C.construct_assoc("grassmann", 1)
    text = write_sca(g.table)
    assert "\nunit 1\n" in text
    m11_text = write_sca(m11.table)
    assert "\nunitv 1 1 0 0\n" in m11_text
    assert parse_sca(m11_text).unit == m11.table.unit


def test_duplicate_and_partial_labels():
    doc = "SCA/1\nkind lie\ndim 2\nparity 0 0\nlabel 1 a\nlabel 1 b\nend\n"
    with pytest.raises(ParseError):
        parse_sca(doc)
    doc2 = "SCA/1\nkind lie\ndim 2\nparity 0 0\nlabel 1 a\nend\n"
    with pytest.raises(ParseError):
        parse_sca(doc2)


# --- the integer form parse_sca builds with the table ------------------------


def _rows(integer_form):
    s, L = integer_form
    return s, [list(row.items()) for row in L]


def _assert_parsed_integer_form(text):
    """parse_sca hands the table its integer form: the same s and the same
    rows, keys in the same order, as the checking constructor builds from
    the entries view, and the form _canonical keeps at any scale."""
    table = parse_sca(text)
    assert_stored_form(table)
    return table


# the fixtures that do not parse; their errors are pinned in test_cli
DAMAGED = {"bad_rational.sca", "parity_fault.sca", "parity_fault_duplicate.sca"}


@pytest.mark.parametrize("name", sorted({p.name for p in FIXTURES.glob("*.sca")} - DAMAGED))
def test_parsed_fixture_carries_its_integer_form(name):
    _assert_parsed_integer_form((FIXTURES / name).read_text())


# ("psl", "2") is one of CONSTRUCT_DIGESTS
@pytest.mark.parametrize("argv", [*CONSTRUCT_DIGESTS, ("psl", "1"), ("sl", "2", "1"),
                                  ("m11",), ("jp", "4"), ("mplus", "3")],
                         ids=lambda a: " ".join(map(str, a)))
def test_parsed_construction_carries_its_integer_form(argv, capsys):
    assert main(["construct", *map(str, argv)]) == 0
    _assert_parsed_integer_form(capsys.readouterr().out)


@pytest.mark.parametrize("name", ["tkk_jp4", "tkk_m11"])
def test_parsed_tkk_carries_its_integer_form(name, request):
    _assert_parsed_integer_form(write_sca(request.getfixturevalue(name).lie.table))


def test_parsed_rescaled_table_carries_its_integer_form(psl33):
    # every other basis vector times 2/3: denominators 2, 3 and 9
    l = _rescaled(psl33, [Fraction(2, 3) if i % 2 else Fraction(1) for i in range(psl33.dim)])
    table = _assert_parsed_integer_form(write_sca(l.table))
    assert table.integer_form()[0] == 18


# --- one pass over the lines: the errors of the two-pass parser ---------------

BASES = {name: (FIXTURES / name).read_text().splitlines()
         for name in ("psl22.sca", "sl21.sca", "m11.sca", "gl22.sca")}
BASES["comments"] = ["# a comment", "SCA/1  # header", "", "kind lie", "dim 2", "  ",
                     "parity 0 1", "label 1 a", "label 2 b", "sc 1 2 2 1/2 # half",
                     "sc 2 1 2 -1/2", "end", "# trailing"]
# lines a mutation may insert or substitute: valid, malformed and misplaced
POOL = ["", "# note", "   ", "SCA/1", "kind lie", "kind jordan", "dim 3", "parity 0 1",
        "unit 1", "unit 0", "unit 1 2", "unitv 1 0", "unitv 1 0 0 0", "label 1 a", "label 2",
        "label 01 a", "sc 1 1 1 1", "sc 1 2 2 3", "sc 2 1 3 -1", "sc 1 1 1 0", "sc 1 1 1 2/4",
        "sc 1 1 1 x", "sc 1 1 1", "sc 99 1 1 1", "sc 1 +1 1 1", "sc 1 1 2 1 # c", "end",
        "end now", "bogus", "sc 1 3 5 1", "sc 3 1 5 -1"]


@st.composite
def mutated_documents(draw):
    lines = list(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.integers(0, len(lines)))
        how = draw(st.sampled_from(["insert", "replace", "delete", "duplicate", "move"]))
        if how == "insert" or not lines:
            lines.insert(t, draw(st.sampled_from(POOL)))
            continue
        t = min(t, len(lines) - 1)
        if how == "replace":
            lines[t] = draw(st.sampled_from(POOL))
        elif how == "delete":
            del lines[t]
        elif how == "duplicate":
            lines.insert(t, lines[t])
        else:
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(t))
    text = "\n".join(lines) + "\n"
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _outcome(parse, text):
    try:
        table = parse(text)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return (table.kind, table.space.dim, table.space.parity, table.space.labels,
            list(table.entries.items()), table.unit)


@given(mutated_documents())
@settings(max_examples=400, deadline=None)
def test_one_pass_parse_matches_the_two_pass_parser(text):
    # the same table, or the same error with the same line, found first
    assert _outcome(parse_sca, text) == _outcome(parse_sca_two_pass, text)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.sca")))
def test_fixture_parses_as_with_two_passes(name):
    text = (FIXTURES / name).read_text()
    assert _outcome(parse_sca, text) == _outcome(parse_sca_two_pass, text)


def test_parity_faults_are_reported_in_entry_order():
    # faults at (0,0,2), (1,1,2) and (0,0,1) in line order: the first entry
    # to appear is (0,0), and its smallest failing k is 1
    doc = ("SCA/1\nkind lie\ndim 3\nparity 0 1 1\n"
           "sc 1 1 3 1\nsc 2 3 1 1\nsc 2 2 3 1\nsc 1 1 2 1\nend\n")
    with pytest.raises(ValidationError) as err:
        parse_sca(doc)
    assert str(err.value) == "table invariant violated: entry (0,0,1) violates parity homogeneity"
    assert _outcome(parse_sca, doc) == _outcome(parse_sca_two_pass, doc)
