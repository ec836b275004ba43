"""Tests for the exact rational linear algebra kernel."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergrade import exact
from supergrade.errors import NonSplitSpectrum
from supergrade.exact import (
    SparseRref,
    dense_to_sparse,
    min_poly,
    poly_mul,
    rational_roots,
    vec,
)
from tests.oracles import (
    FractionSparseRref,
    Matrix,
    char_poly,
    kernel,
    poly_divmod,
    poly_eval,
    rational_eigenvalues,
    rational_roots_by_divisors,
    rref,
    solve_linear,
    span_closure,
)

F = Fraction


def test_rref_proportional_rows():
    m = Matrix([[1, 2], [2, 4]])
    r, pivots = rref(m)
    assert pivots == [0]
    assert r.data[0] == [F(1), F(2)]
    assert r.data[1] == [F(0), F(0)]


def test_rref_identity_fixed():
    m = Matrix.identity(3)
    r, pivots = rref(m)
    assert r == m
    assert pivots == [0, 1, 2]


def test_rref_hand_elimination():
    # [[1,1],[1,-1]] row-reduces to the identity over Q.
    r, pivots = rref(Matrix([[1, 1], [1, -1]]))
    assert r == Matrix.identity(2)
    assert pivots == [0, 1]


def test_kernel_zero_matrix():
    assert len(kernel(Matrix.zeros(2, 2))) == 2


def test_kernel_identity():
    assert kernel(Matrix.identity(2)) == []


def test_kernel_line():
    assert kernel(Matrix([[1, 2]])) == [(F(-2), F(1))]


def test_solve_identity():
    b = vec([3, -5, F(1, 2)])
    assert solve_linear(Matrix.identity(3), b) == b


def test_solve_free_variable_rule():
    assert solve_linear(Matrix([[1, 1]]), vec([2])) == (F(2), F(0))


def test_solve_inconsistent():
    assert solve_linear(Matrix([[1], [1]]), vec([1, 2])) is None


def test_eigenvalues_diagonal():
    m = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, -2]])
    assert rational_eigenvalues(m) == [(F(-2), 1), (F(1), 2)]


def test_eigenvalues_zero_matrix():
    assert rational_eigenvalues(Matrix.zeros(4, 4)) == [(F(0), 4)]


def test_eigenvalues_swap():
    # char poly t^2 - 1
    assert rational_eigenvalues(Matrix([[0, 1], [1, 0]])) == [(F(-1), 1), (F(1), 1)]


def test_eigenvalues_nonsplit():
    # rotation by 90 degrees: t^2 + 1 has no rational roots
    with pytest.raises(NonSplitSpectrum):
        rational_eigenvalues(Matrix([[0, -1], [1, 0]]))


def test_eigenvalues_rational_entries():
    m = Matrix([[F(1, 2), 0], [1, F(1, 3)]])
    assert rational_eigenvalues(m) == [(F(1, 3), 1), (F(1, 2), 1)]


def test_char_poly_roots_are_exact():
    m = Matrix([[2, 1], [0, 3]])
    p = char_poly(m)
    assert poly_eval(p, F(2)) == 0
    assert poly_eval(p, F(3)) == 0
    assert poly_eval(p, F(1)) != 0


def _sparse_cols(m: Matrix) -> list[dict]:
    return [dense_to_sparse(m.col(j)) for j in range(m.cols)]


@pytest.mark.parametrize("rows, want", [
    # (t-1)(t+2)
    pytest.param([[1, 0, 0], [0, 1, 0], [0, 0, -2]], [-2, 1, 1], id="diagonalizable"),
    pytest.param([[0, 1], [0, 0]], [0, 0, 1], id="nilpotent"),  # t^2
    # J_2(1) + (1) + (2) has (t-1)^2 (t-2); e_3 shares the eigenvalue 1 with
    # the Jordan block, so the product of the local minimal polynomials,
    # (t-1)^3 (t-2), is too big
    pytest.param([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]], [-2, 5, -4, 1],
                 id="shared-eigenvalue"),
])
def test_min_poly(rows, want):
    assert min_poly(_sparse_cols(Matrix(rows))) == [F(c) for c in want]


def test_span_closure_empty():
    assert span_closure([], lambda a, b: a) == []


def test_span_closure_full_space():
    basis = [vec([1, 0]), vec([0, 1])]
    zero = lambda a, b: vec([0, 0])
    assert span_closure(basis, zero) == basis


def test_span_closure_sl2_from_ef():
    # sl2 with ordered basis (e, h, f): [e,f]=h, [h,e]=2e, [h,f]=-2f.
    def bracket(x, y):
        e1, h1, f1 = x
        e2, h2, f2 = y
        return vec([
            2 * (h1 * e2 - e1 * h2),
            e1 * f2 - f1 * e2,
            2 * (f1 * h2 - h1 * f2),
        ])

    basis = span_closure([vec([1, 0, 0]), vec([0, 0, 1])], bracket)
    assert len(basis) == 3


def test_sparse_rref_coordinates():
    sr = SparseRref(3)
    sr.insert({0: F(1), 1: F(1)})
    sr.insert({1: F(1), 2: F(1)})
    assert sr.rank == 2
    coords = sr.coordinates({0: F(2), 1: F(3), 2: F(1)})
    basis = sr.basis_dense()
    recon = [sum(c * b[i] for c, b in zip(coords, basis)) for i in range(3)]
    assert tuple(recon) == (F(2), F(3), F(1))
    assert sr.coordinates({0: F(1), 1: F(-1), 2: F(-2)}) is not None
    assert sr.coordinates({0: F(1)}) is None


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entries = st.integers(-4, 4).map(Fraction)
    return Matrix([[draw(entries) for _ in range(cols)] for _ in range(rows)])


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    r1, p1 = rref(m)
    r2, p2 = rref(r1)
    assert r1 == r2 and p1 == p2


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in kernel(m):
        assert not any(m.mul_vec(v))
    r, pivots = rref(m)
    assert len(kernel(m)) == m.cols - len(pivots)


@st.composite
def square_matrices(draw):
    d = draw(st.integers(1, 5))
    entries = st.integers(-3, 3).map(Fraction)
    return Matrix([[draw(entries) for _ in range(d)] for _ in range(d)])


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_sparse_min_poly_against_char_poly_oracle(m):
    cols = _sparse_cols(m)
    mp = min_poly(cols)
    units = [{i: F(1)} for i in range(m.rows)]
    assert all(exact._poly_apply(mp, cols, u) == {} for u in units)
    assert poly_divmod(char_poly(m), mp)[1] == []
    roots = rational_roots(mp)[0]
    assert [r for r, _ in roots] == [r for r, _ in rational_roots(char_poly(m))[0]]
    for r, _ in roots:  # minimal: no root can be dropped
        q = poly_divmod(mp, [-r, F(1)])[0]
        assert any(exact._poly_apply(q, cols, u) for u in units)


@st.composite
def root_polys(draw):
    """c p(x/k): p a product of rational linear factors and of rootless
    quadratics x^2 + a and x^2 - b (b not a square), c a nonzero rational
    and k a positive integer."""
    p = [F(1)]
    for _ in range(draw(st.integers(0, 4))):
        r = F(draw(st.integers(-12, 12)), draw(st.integers(1, 6)))
        p = poly_mul(p, [-r, F(1)])
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.integers(1, 20) | st.sampled_from([-2, -3, -5, -6, -7, -8, -10, -12]))
        p = poly_mul(p, [F(c), F(0), F(1)])
    scale = F(draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1])), draw(st.integers(1, 9)))
    k = draw(st.sampled_from([1, 2, 3, 12]))
    return [scale * c / k**i for i, c in enumerate(p)]


@given(root_polys())
@settings(max_examples=150, deadline=None)
def test_rational_roots_match_the_divisor_oracle(p):
    assert rational_roots(p) == rational_roots_by_divisors(p)


@given(st.lists(st.builds(F, st.integers(-4000, 4000), st.integers(1, 99)),
                min_size=20, max_size=24),
       st.sampled_from([[F(1), F(0), F(1)], [F(-2), F(0), F(1)], [F(3), F(1), F(1)]]),
       st.builds(F, st.integers(1, 50), st.integers(1, 50)))
@settings(max_examples=8, deadline=None)
def test_rational_roots_of_many_large_roots(roots, cofactor, scale):
    # the integer form of this product has coefficients of hundreds of bits,
    # far above its roots; the bisection interval must follow the roots
    p = [scale * c for c in cofactor]
    for r in roots:
        p = poly_mul(p, [-r, F(1)])
    want = sorted(Counter(roots).items())
    assert rational_roots(p) == (want, cofactor)


def test_rational_roots_of_huge_eigenvalues_are_found_without_factoring():
    # the divisor search needs about 10^10 trial divisions for this constant
    a = 10**10 + 19
    roots, cofactor = rational_roots([F(-a * a), F(0), F(1)])
    assert roots == [(F(-a), 1), (F(a), 1)] and cofactor == [F(1)]
    roots, cofactor = rational_roots(poly_mul([F(-a, 3), F(1)], [F(a * a), F(0), F(1)]))
    assert roots == [(F(a, 3), 1)] and cofactor == [F(a * a), F(0), F(1)]


@given(small_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_exactness(m, data):
    x = vec([data.draw(st.integers(-3, 3)) for _ in range(m.cols)])
    b = m.mul_vec(x)
    got = solve_linear(m, b)
    assert got is not None
    assert m.mul_vec(got) == b


def test_span_closure_is_product_closed():
    # every pairwise product of the closure basis solves back into the span
    def bracket(x, y):
        e1, h1, f1 = x
        e2, h2, f2 = y
        return vec([
            2 * (h1 * e2 - e1 * h2),
            e1 * f2 - f1 * e2,
            2 * (f1 * h2 - h1 * f2),
        ])

    basis = span_closure([vec([1, 0, 0]), vec([0, 0, 1])], bracket)
    span_matrix = Matrix.from_cols(basis)
    for a in basis:
        for b in basis:
            assert solve_linear(span_matrix, bracket(a, b)) is not None


# ---------------------------------------------------------------------------
# The fraction-free SparseRref against the Fraction-pivot oracle.
# ---------------------------------------------------------------------------

BIG = 2**64
nonzero = st.one_of(
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
).filter(bool)


def _combination(rows, coeffs) -> dict:
    acc: dict = {}
    for row, c in zip(rows, coeffs):
        for k, v in row.items():
            acc[k] = acc.get(k, 0) + c * v
    return {k: v for k, v in acc.items() if v}


@st.composite
def row_systems(draw):
    """Rows mixing int and Fraction entries up to 2^64, with zero rows and
    rows dependent on earlier ones, plus query rows in and out of their
    span; npivot < ncols leaves augmented columns."""
    ncols = draw(st.integers(1, 7))
    npivot = draw(st.integers(1, ncols))

    def fresh():
        cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
        return {c: draw(nonzero) for c in sorted(cols)}

    def combo(rows):
        picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
        return _combination(picked, [draw(nonzero) for _ in picked])

    rows: list[dict] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("fresh", "zero", "dependent")))
        if kind == "zero":
            rows.append({})
        elif kind == "dependent" and rows:
            rows.append(combo(rows))
        else:
            rows.append(fresh())
    queries = [fresh() for _ in range(draw(st.integers(0, 3)))]
    if rows:
        queries += [combo(rows) for _ in range(draw(st.integers(0, 3)))]
    return ncols, npivot, rows, queries


def _assert_primitive_rows(sr: SparseRref) -> None:
    # the documented representation: primitive int rows, positive pivot
    # entry, 0 at every other pivot column
    for c, row in sr._rows.items():
        assert all(type(v) is int and v for v in row.values())
        assert row[c] > 0 and gcd(*row.values()) == 1
        assert not any(p in row for p in sr._rows if p != c)


@given(row_systems())
@settings(max_examples=200, deadline=None)
def test_sparse_rref_matches_fraction_oracle(system):
    ncols, npivot, rows, queries = system
    sr, ref = SparseRref(ncols, npivot), FractionSparseRref(ncols, npivot)
    for row in rows:
        assert sr.insert(row) == ref.insert(row)
        _assert_primitive_rows(sr)
    assert sr.rank == ref.rank
    assert sr.pivots() == ref.pivots()
    assert sr.basis() == ref.basis()
    for q in rows + queries:
        assert sr.reduce(q) == ref.reduce(q)
        assert sr.contains(q) == ref.contains(q)
        assert sr.coordinates(q) == ref.coordinates(q)


def test_integer_rows_build_no_fraction():
    rng = random.Random(6)
    ncols = 12
    rows = [
        {c: rng.choice((-1, 1)) * rng.randrange(1, 2**70) for c in rng.sample(range(ncols), 5)}
        for _ in range(8)
    ]
    rows += [_combination(rows[:3], (2, -3, 5)), {}]
    outside = {0: 1, 11: 3}
    made = []
    new = vars(Fraction)["__new__"]

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        for npivot in (ncols, 9):
            sr = SparseRref(ncols, npivot)
            for row in rows:
                sr.insert(row)
            for row in rows + [outside]:
                sr.contains(row)
        assert made == []
        Fraction(1, 3)  # the counter sees a construction
        assert len(made) == 1
    finally:
        Fraction.__new__ = new
