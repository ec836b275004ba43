"""Sparse eigenspaces and subspace coordinates against the dense oracles."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supergrade import constructors as C
from supergrade.errors import ValidationError
from supergrade.exact import (
    dense_to_sparse,
    eigenspace,
    sparse_apply,
    sparse_transpose,
    unit_vec,
    vec,
)
from supergrade.superalg import SubspaceCoords, restricted_table
from tests.oracles import Matrix, kernel, rref, solve_linear

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
    assert conv.coords(target) == want
    assert conv.coords(dense_to_sparse(target)) == want


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
        assert got == kernel(shifted)
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


def test_restricted_table_rejects_dependent_basis():
    gl = C.construct_gl(1, 1)
    basis = [unit_vec(4, 0), unit_vec(4, 3), vec([1, 0, 0, 1])]
    with pytest.raises(ValidationError, match="linearly dependent"):
        restricted_table(gl, basis)


def test_restricted_table_rejects_product_escaping_span():
    # in gl(1,1), [e_12, e_21] = e_11 + e_22 leaves span{e_12, e_21}
    gl = C.construct_gl(1, 1)
    basis = [unit_vec(4, 1), unit_vec(4, 2)]
    with pytest.raises(ValidationError, match="escapes the span"):
        restricted_table(gl, basis)
