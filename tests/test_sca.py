"""SCA format: strict parsing, canonical writing, round trips."""

import pytest

from supergrade import constructors as C
from supergrade.errors import ParseError, ValidationError
from supergrade.sca import parse_sca, write_sca
from supergrade.superalg import validate_lie

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
    ],
)
def test_bad_sc_lines(mutation, message):
    doc = f"SCA/1\nkind lie\ndim 1\nparity 0\n{mutation}\nend\n"
    with pytest.raises(ParseError) as err:
        parse_sca(doc)
    assert message in str(err.value)
    assert err.value.line == 5


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
