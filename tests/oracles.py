"""Reference implementations the tests compare against or build on.

FractionSparseRref is the Fraction-pivot incremental RREF that
supergrade.exact.SparseRref replaced with fraction-free integer
elimination; the property tests in test_exact.py require both to agree.
char_poly, rational_eigenvalues and ad_matrix are the dense eigenvalue
route that the sparse minimal-polynomial route replaced.  d_operator is the
Fraction-matrix form of the TKK operator pair that jordan.tkk builds as
scaled integer rows.  span_closure, subalgebra_from_generators,
basis_element, all_components and associator have no caller in the
package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from supergrade.errors import DimensionMismatch, NonSplitSpectrum
from supergrade.exact import (
    ONE,
    ZERO,
    Matrix,
    SparseRref,
    Vec,
    dense_to_sparse,
    poly_degree,
    rational_roots,
    sparse_to_dense,
    sub_vec,
    unit_vec,
    vec,
)
from supergrade.superalg import Element, _coords, ad_rows

TWO = Fraction(2)


class FractionSparseRref:
    """Reduced row-echelon basis of a growing set of sparse rows {column:
    Fraction}, eliminated with Fraction pivots normalised to 1.  Columns >=
    npivot are carried through eliminations but never chosen as pivots."""

    def __init__(self, ncols: int, npivot: int | None = None):
        self.ncols = ncols
        self.npivot = ncols if npivot is None else npivot
        self._rows: dict[int, dict] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def reduce(self, row: dict) -> dict:
        out = dict(row)
        for c in [c for c in out if c in self._rows]:
            f = out.get(c)
            if not f:
                continue
            for k, v in self._rows[c].items():
                newval = out.get(k, ZERO) - f * v
                if newval:
                    out[k] = newval
                else:
                    out.pop(k, None)
        return out

    def _leading(self, row: dict) -> int | None:
        cols = [c for c in row if c < self.npivot]
        return min(cols) if cols else None

    def insert(self, row: dict) -> int | None:
        red = self.reduce(row)
        lead = self._leading(red)
        if lead is None:
            return None
        inv = ONE / red[lead]
        red = {k: v * inv for k, v in red.items()}
        for other in self._rows.values():
            f = other.get(lead)
            if f:
                for k, v in red.items():
                    newval = other.get(k, ZERO) - f * v
                    if newval:
                        other[k] = newval
                    else:
                        other.pop(k, None)
        self._rows[lead] = red
        return lead

    def basis(self) -> list[dict]:
        return [dict(self._rows[c]) for c in self.pivots()]

    def contains(self, row: dict) -> bool:
        return self._leading(self.reduce(row)) is None

    def coordinates(self, row: dict) -> list | None:
        out = dict(row)
        coeffs: dict = {}
        for c in [c for c in out if c in self._rows]:
            f = out.get(c)
            if not f:
                continue
            coeffs[c] = f
            for k, v in self._rows[c].items():
                newval = out.get(k, ZERO) - f * v
                if newval:
                    out[k] = newval
                else:
                    out.pop(k, None)
        if any(c < self.npivot for c in out):
            return None
        return [coeffs.get(c, ZERO) for c in self.pivots()]


def span_closure(seed: Iterable[Sequence], product: Callable[[Vec, Vec], Vec]) -> list[Vec]:
    """Canonical basis of the smallest product-closed subspace containing seed.

    The product is any bilinear map returning vectors in the same ambient
    space; termination follows from finite ambient dimension.
    """
    seeds = [vec(s) for s in seed]
    if not seeds:
        return []
    sr = SparseRref(len(seeds[0]))
    elems: list[Vec] = []
    queue = list(seeds)
    while queue:
        cand = queue.pop()
        if sr.insert(dense_to_sparse(cand)) is None:
            continue
        for other in elems:
            queue.append(product(cand, other))
            queue.append(product(other, cand))
        queue.append(product(cand, cand))
        elems.append(cand)
    return sr.basis_dense()


def subalgebra_from_generators(l, gens: Iterable) -> list[Vec]:
    """Canonical basis of the subalgebra generated by gens under the product."""
    seeds = [g.coords if isinstance(g, Element) else vec(g) for g in gens]
    return span_closure(seeds, l.product_vec)


def char_poly(m: Matrix) -> list:
    """Characteristic polynomial via the Faddeev-LeVerrier recurrence."""
    n = m.rows
    if n != m.cols:
        raise DimensionMismatch("characteristic polynomial needs a square matrix")
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    mk = m.copy()
    for k in range(1, n + 1):
        ck = mk.trace() / k
        coeffs[n - k] = -ck
        if k == n:
            break
        for i in range(n):
            mk.data[i][i] -= ck
        mk = m.matmul(mk)
    return coeffs


def rational_eigenvalues(m: Matrix) -> list[tuple[Fraction, int]]:
    """(eigenvalue, algebraic multiplicity) pairs sorted by eigenvalue;
    NonSplitSpectrum if the characteristic polynomial has an irrational
    root."""
    roots, cofactor = rational_roots(char_poly(m))
    if poly_degree(cofactor) > 0:
        raise NonSplitSpectrum(
            f"irrational eigenvalues: characteristic polynomial has a degree-"
            f"{poly_degree(cofactor)} factor without rational roots"
        )
    return roots


def ad_matrix(l, x) -> Matrix:
    """Matrix of y -> x * y in the algebra basis."""
    return Matrix([sparse_to_dense(row, l.dim) for row in ad_rows(l, x)])


def basis_element(l, i: int) -> Element:
    return Element(unit_vec(l.dim, i), l.parity[i])


def all_components(datum) -> list:
    return [datum.zero_component] + datum.components


def associator(j, a, b, c) -> Vec:
    """(a.b).c - a.(b.c)."""
    ca, cb, cc = _coords(a), _coords(b), _coords(c)
    return sub_vec(
        j.product_vec(j.product_vec(ca, cb), cc),
        j.product_vec(ca, j.product_vec(cb, cc)),
    )


def d_operator(j, a: Vec, b: Vec, pa: int, pb: int):
    """The TKK operator pair D(a,b) as Fraction matrices: (action on T(1),
    action on T(-1))."""
    n = j.dim
    sgn = -1 if pa and pb else 1
    ab = j.product_vec(a, b)
    plus_cols, minus_cols = [], []
    for t in range(n):
        c = unit_vec(n, t)
        first = j.product_vec(ab, c)
        second = j.product_vec(a, j.product_vec(b, c))
        third = j.product_vec(b, j.product_vec(a, c))
        plus_cols.append(tuple(TWO * (first[r] + second[r] - sgn * third[r]) for r in range(n)))
        minus_cols.append(tuple(TWO * (-first[r] + second[r] - sgn * third[r]) for r in range(n)))
    return Matrix.from_cols(plus_cols), Matrix.from_cols(minus_cols)
