"""sl(m,n), psl(n+1,n+1) and sl_{m,n}(A) by closed formula against the
elimination path of tests/oracles.py: the same basis, labels, parities,
structure constants, integer form and provenance, and a closure check that
still fires."""

import pytest

from supergrade import constructors as C
from supergrade.errors import ValidationError
from supergrade.superalg import SuperSpace, matrix_unit_products
from tests import oracles

SL_SHAPES = [(m, s - m) for s in range(2, 9) for m in range(s + 1)]
COEFFICIENTS = [("field", None), ("dual_numbers", None), ("grassmann", 1), ("grassmann", 2),
                ("matrix_super", (1, 0)), ("matrix_super", (1, 1)), ("matrix_super", (2, 1))]


def _assert_same_table(got, want):
    assert (got.labels, got.parity) == (want.labels, want.parity)
    assert list(got.table.entries.items()) == list(want.table.entries.items())
    assert got.table.integer_form() == want.table.integer_form()


def _assert_same_cartan(got, want):
    assert [e.coords for e in got.elements] == [e.coords for e in want.elements]
    assert [e.parity for e in got.elements] == [e.parity for e in want.elements]
    assert got.diag_mats == want.diag_mats


def _assert_same_sl(got, want):
    _assert_same_table(got, want)
    assert got.provenance["ambient_gl"].labels == want.provenance["ambient_gl"].labels
    assert got.provenance["embedding"] == want.provenance["embedding"]
    _assert_same_cartan(got.provenance["cartan_hprime"], want.provenance["cartan_hprime"])
    assert ("z" in got.provenance) == ("z" in want.provenance) == ("cartan_h" in got.provenance)
    if "z" in want.provenance:
        assert got.provenance["z"] == want.provenance["z"]
        _assert_same_cartan(got.provenance["cartan_h"], want.provenance["cartan_h"])


@pytest.mark.parametrize("m, n", SL_SHAPES, ids=lambda v: str(v))
def test_sl_matches_elimination(m, n):
    _assert_same_sl(C.construct_sl(m, n), oracles.construct_sl(m, n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_psl_matches_elimination(n, monkeypatch):
    got = C.construct_psl(n)
    monkeypatch.setattr(C, "construct_sl", oracles.construct_sl)
    want = C.construct_psl(n)
    _assert_same_table(got, want)
    _assert_same_sl(got.provenance["ambient_sl"], want.provenance["ambient_sl"])
    assert got.provenance["projection"] == want.provenance["projection"]
    _assert_same_cartan(got.provenance["cartan_h"], want.provenance["cartan_h"])
    assert C.matrix_unit_in_psl(got, 0, 1) == C.matrix_unit_in_psl(want, 0, 1)


@pytest.mark.parametrize("kind, params", COEFFICIENTS, ids=lambda v: str(v))
@pytest.mark.parametrize("m, n", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)],
                         ids=lambda v: str(v))
def test_sl_A_matches_elimination(m, n, kind, params):
    a = C.construct_assoc(kind, params)
    got, want = C.construct_sl_A(m, n, a), oracles.construct_sl_A(m, n, a)
    _assert_same_table(got, want)
    for key in ("name", "m", "n", "basis_in_ambient", "cover_images"):
        assert got.provenance[key] == want.provenance[key]
    _assert_same_sl(got.provenance["cover_sl"], want.provenance["cover_sl"])


def test_matrix_units_in_sl_match_elimination():
    got, want = C.construct_sl(2, 2), oracles.construct_sl(2, 2)
    coords = want.provenance["coords"]
    for r in range(4):
        for c in range(4):
            if r != c:
                assert C.matrix_unit_in_sl(got, r, c) == coords.coords({r * 4 + c: 1})


@pytest.mark.parametrize("r", [0, 1, 3])
def test_diagonal_matrix_unit_is_not_in_sl(r):
    with pytest.raises(ValidationError, match="not supertrace-free"):
        C.matrix_unit_in_sl(C.construct_sl(2, 2), r, r)


def _gl20_rows(h):
    # e_12, e_21 and the diagonal row h of gl(2,0), whose columns are
    # e_11, e_12, e_21, e_22
    return [(1, {1: 1}), (2, {2: 1})] + ([(3, h)] if h else [])


@pytest.mark.parametrize("h", [None, {3: 1, 0: 1}], ids=["no-cartan", "wrong-cartan"])
def test_closure_check_names_the_escaping_pair(h):
    # [e_12, e_21] = e_11 - e_22 lies outside the span of e_12, e_21 and of
    # e_12, e_21, e_22 + e_11
    gl = C.construct_gl(2, 0)
    rows = _gl20_rows(h)
    space = SuperSpace(len(rows), (0,) * len(rows))
    with pytest.raises(ValidationError, match="product of basis 0 and 1 escapes the span"):
        C._unit_column_table(space, gl.table.integer_form(), rows)


def test_read_rejects_a_vector_outside_the_span():
    gl = C.construct_gl(2, 0)
    rows = _gl20_rows({3: 1, 0: -1})  # sl(2): e_22 - e_11
    _, read = C._unit_column_table(SuperSpace(3, (0, 0, 0)), gl.table.integer_form(), rows)
    assert read({0: -2, 3: 2, 1: 5}) == {2: 2, 0: 5}
    assert read({0: 1, 3: 1}) is None  # the identity has trace 2
    assert read({0: 1}) is None


@pytest.mark.parametrize("m, n", [(1, 0), (2, 1), (0, 3), (3, 3)])
def test_gl_hands_over_the_integer_form_integer_form_builds(m, n):
    gl = C.construct_gl(m, n)
    table, units = gl.table, gl.provenance["gl"]["units"]
    products = {(i, j): terms for i, row in enumerate(matrix_unit_products(units)[1])
                for j, terms in row.items()}
    assert list(table.entries.items()) == list(
        oracles.super_symmetrized(products, gl.parity, -1).items())
    assert table.integer_form()[0] == 1
    oracles.assert_stored_form(table)
