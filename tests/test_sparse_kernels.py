"""Sparse eigenspaces and subspace coordinates against the dense oracles."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supergrade import constructors as C
from supergrade.errors import DimensionMismatch, ValidationError
from supergrade.exact import (
    dense_to_sparse,
    eigenspace,
    sparse_apply,
    sparse_transpose,
    unit_vec,
    vec,
)
from supergrade.superalg import SubspaceCoords, restricted_table
from tests import oracles
from tests.oracles import Matrix, dense_rows, kernel, rref, solve_linear

F = Fraction

rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


def _rank(vectors) -> int:
    return len(rref(Matrix(vectors))[1])


@st.composite
def bases_and_targets(draw):
    """An independent basis with denominators (generally not in RREF) and a
    target that lies in its span or is an arbitrary vector."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    basis = [vec(draw(rationals) for _ in range(n)) for _ in range(m)]
    assume(_rank(basis) == m)
    if draw(st.booleans()):
        coeffs = [draw(rationals) for _ in range(m)]
        target = vec(sum((c * b[i] for c, b in zip(coeffs, basis)), F(0)) for i in range(n))
    else:
        target = vec(draw(rationals) for _ in range(n))
    return n, basis, target


@given(bases_and_targets())
@settings(max_examples=150, deadline=None)
def test_subspace_coords_match_solve_linear(case):
    n, basis, target = case
    conv = SubspaceCoords([dense_to_sparse(v) for v in basis], n)
    want = solve_linear(Matrix.from_cols(basis), target)  # unique, or None outside
    got = conv.coords(dense_to_sparse(target))
    assert (None if got is None else dense_rows([got], len(basis))[0]) == want


@given(bases_and_targets(), st.data())
@settings(max_examples=60, deadline=None)
def test_subspace_coords_reject_dependent_basis(case, data):
    n, basis, _ = case
    coeffs = [data.draw(rationals) for _ in basis]
    combo = vec(sum((c * b[i] for c, b in zip(coeffs, basis)), F(0)) for i in range(n))
    at = data.draw(st.integers(0, len(basis)))
    dependent = basis[:at] + [combo] + basis[at:]
    with pytest.raises(ValidationError, match="linearly dependent"):
        SubspaceCoords([dense_to_sparse(v) for v in dependent], n)


@st.composite
def diagonalizable_operators(draw):
    """A = P D P^-1 with P invertible (entries with denominators) and D
    diagonal with repeated eigenvalues; returns A and its eigenvalues."""
    d = draw(st.integers(1, 5))
    p = [[draw(rationals) for _ in range(d)] for _ in range(d)]
    assume(_rank(p) == d)
    eigs = [draw(st.sampled_from([F(-2), F(0), F(1, 2), F(3)])) for _ in range(d)]
    pm = Matrix(p)
    pinv = Matrix.from_cols([solve_linear(pm, unit_vec(d, j)) for j in range(d)])
    dm = Matrix([[eigs[i] if i == j else F(0) for j in range(d)] for i in range(d)])
    return pm.matmul(dm).matmul(pinv), eigs


@given(diagonalizable_operators())
@settings(max_examples=100, deadline=None)
def test_eigenspace_matches_dense_kernel(case):
    a, eigs = case
    d = a.rows
    rows = [dense_to_sparse(a.row(i)) for i in range(d)]
    total = 0
    for lam in sorted(set(eigs)) + [F(7)]:  # 7 is never an eigenvalue
        shifted = Matrix(
            [[a.data[r][c] - (lam if r == c else 0) for c in range(d)] for r in range(d)]
        )
        got = eigenspace(rows, lam)
        assert dense_rows(got, d) == kernel(shifted)
        assert len(got) == (eigs.count(lam))
        total += len(got)
    assert total == d


@given(diagonalizable_operators(), st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_apply_matches_dense_product(case, data):
    a, _ = case
    d = a.rows
    cols = [dense_to_sparse(a.col(j)) for j in range(d)]
    v = vec(data.draw(rationals) for _ in range(d))
    assert sparse_apply(cols, dense_to_sparse(v)) == dense_to_sparse(a.mul_vec(v))
    assert sparse_transpose(cols, d) == [dense_to_sparse(a.row(i)) for i in range(d)]


def test_sparse_apply_keeps_the_type_of_its_inputs():
    # the sums start at int 0: integer columns and an integer vector give
    # int values, as superalg._sparse_product does, and a Fraction vector
    # gives Fractions; cancelled entries are dropped either way
    cols = [{0: 2, 1: -3}, {1: 3, 2: 5}]
    got = sparse_apply(cols, {0: 1, 1: 1})
    assert got == {0: 2, 2: 5} and all(type(x) is int for x in got.values())
    got = sparse_apply(cols, {0: F(1, 2), 1: F(1)})
    assert got == {0: 1, 1: F(3, 2), 2: 5} and all(type(x) is F for x in got.values())
    assert sparse_apply(cols, {}) == {}


def test_restricted_table_rejects_dependent_basis():
    gl = C.construct_gl(1, 1)
    basis = [{0: F(1)}, {3: F(1)}, {0: F(1), 3: F(1)}]
    with pytest.raises(ValidationError, match="linearly dependent"):
        restricted_table(gl, basis)


def test_restricted_table_rejects_product_escaping_span():
    # in gl(1,1), [e_12, e_21] = e_11 + e_22 leaves span{e_12, e_21}
    gl = C.construct_gl(1, 1)
    basis = [{1: F(1)}, {2: F(1)}]
    with pytest.raises(ValidationError, match="escapes the span"):
        restricted_table(gl, basis)


def test_subspace_coords_reject_an_index_outside_the_ambient_space():
    # psl(2,2) on its 14 unit vectors: key 14 is the augmented column of
    # v_0, which once read back as -1 v_0, and a basis vector may not
    # reach past the ambient space either
    _, conv = restricted_table(C.construct_psl(1), [{k: F(1)} for k in range(14)])
    assert conv.coords({13: F(2)}) == {13: F(2)}
    for bad in ({14: F(1)}, {0: F(1), 15: F(3)}, {-1: F(1)}):
        with pytest.raises(DimensionMismatch, match=r"outside range\(14\)"):
            conv.coords(bad)
    with pytest.raises(DimensionMismatch):
        SubspaceCoords([{0: F(1)}, {4: F(1)}], 4)
    with pytest.raises(DimensionMismatch):
        restricted_table(C.construct_gl(1, 1), [{0: F(1)}, {4: F(1)}])


# Closed subalgebras with their spanning homogeneous vectors: sl(2,1) inside
# gl(2,1) on its canonical basis, and gl(2,2) and M(1|1) on their units.
def _sl21_in_gl21():
    sl = C.construct_sl(2, 1)
    return sl.provenance["ambient_gl"], sl.provenance["embedding"]


def _whole(alg):
    return alg, [{k: F(1)} for k in range(alg.dim)]


SUBALGEBRAS = {
    "sl(2,1)": _sl21_in_gl21,
    "gl(2,2)": lambda: _whole(C.construct_gl(2, 2)),
    "M(1|1)": lambda: _whole(C.construct_assoc("matrix_super", (1, 1))),
}
big_rationals = st.builds(F, st.integers(-2**20, 2**20).filter(bool), st.integers(1, 2**20))


def _combine(coeffs, vectors) -> dict:
    out = {}
    for c, v in zip(coeffs, vectors):
        for k, x in v.items():
            out[k] = out.get(k, F(0)) + c * x
    return {k: x for k, x in out.items() if x}


@st.composite
def rescaled_bases(draw):
    """(ambient, basis, targets): a basis of a subalgebra of SUBALGEBRAS,
    each parity's vectors mixed by a random triangular matrix, rescaled by
    rationals with numerators and denominators up to 2^20 and permuted;
    then kept, cut to a random subset (a product may escape it) or given
    a dependent extra vector.  targets are a combination of the basis and
    a random ambient vector."""
    name = draw(st.sampled_from(sorted(SUBALGEBRAS)))
    l, span = SUBALGEBRAS[name]()
    basis = []
    for p in (0, 1):
        part = [v for v in span if l.parity[next(iter(v))] == p]
        for i, v in enumerate(part):
            mix = [draw(st.one_of(st.just(F(0)), big_rationals)) for _ in part[:i]]
            basis.append(_combine([draw(big_rationals)] + mix, [v] + part[:i]))
    basis = draw(st.permutations(basis))
    how = draw(st.sampled_from(["closed", "subset", "dependent"]))
    if how == "subset":
        basis = [v for v in basis if draw(st.booleans())] or basis[:1]
    elif how == "dependent":
        a, b = draw(st.permutations(range(len(basis))))[:2]
        if l.parity[next(iter(basis[a]))] != l.parity[next(iter(basis[b]))]:
            b = a
        extra = _combine([draw(big_rationals), draw(big_rationals)], [basis[a], basis[b]])
        basis.insert(draw(st.integers(0, len(basis))), extra or basis[a])
    inside = _combine([draw(big_rationals) for _ in basis], basis)
    outside = {k: draw(big_rationals) for k in range(l.dim) if draw(st.booleans())}
    return l, basis, [inside, outside]


def _outcome(build, l, basis, targets):
    """The table's entries and parities and the coordinates of the targets,
    or the message of the ValidationError raised."""
    try:
        table, conv = build(l, basis)
    except ValidationError as exc:
        return str(exc)
    return (list(table.entries.items()), table.space.parity,
            [conv.coords(t) for t in targets], [conv.sparse_coords(t) for t in targets])


@given(rescaled_bases())
@settings(max_examples=150, deadline=None)
def test_integer_restricted_table_matches_fraction_oracle(case):
    l, basis, targets = case
    got = _outcome(restricted_table, l, basis, targets)
    assert got == _outcome(oracles.restricted_table, l, basis, targets)
    if not isinstance(got, str):
        assert all(type(c) is F for _, terms in got[0] for _, c in terms)


def test_integer_restricted_table_builds_one_fraction_per_constant():
    # the products are integer; a Fraction is built only for each nonzero
    # constant of the restricted table (sl(3,3) has no unit to check)
    sl = C.construct_sl(3, 3)
    gl, basis = sl.provenance["ambient_gl"], sl.provenance["embedding"]
    made = []
    new = vars(F)["__new__"]

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new.__func__(cls, *args, **kwargs)

    F.__new__ = staticmethod(counting)
    try:
        table, _ = restricted_table(gl, basis, "lie")
        constants = sum(len(terms) for row in table.integer_form()[1] for terms in row.values())
        assert 0 < len(made) <= constants
        seen = len(made)
        F(1, 3)  # the counter sees a construction
        assert len(made) == seen + 1
    finally:
        F.__new__ = new
    assert list(table.entries.items()) == list(sl.table.entries.items())
