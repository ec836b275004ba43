"""Exact rational linear algebra kernel.

There is no floating point anywhere.  Canonical forms are fixed once and
for all so that higher layers can compare bases by plain equality:

* RREF pivots are the leftmost nonzero columns, pivot entries are 1 and
  pivot columns are cleared above and below;
* kernel bases set one free variable to 1 at a time, in increasing column
  order;
* particular solutions of augmented systems set all free variables to 0.

A vector is a sparse row {index: Fraction}, zeros dropped, and a linear
map a list of sparse columns applied with sparse_apply.  All elimination
runs on the incremental SparseRref, fraction-free over Python integers
(Bareiss, Math. Comp. 22, 1968): basis rows are primitive {column: int}
rows, a Fraction row is scaled once by the lcm of its denominators,
Fraction appears only in what it returns, and _reduce hands back the
integer row with its scale.  The RREF is unique, so these bases equal the
dense Fraction elimination's in tests/oracles.py.  Only this module names
the dense Matrix.  Dense tuples (Vec) appear only where a value enters or
leaves the package (Element.coords, StructureTable.unit, SCA files, CLI
vectors and JSON, CartanBasis.diag_mats, M11Certificate.elements), so
outside this module dense_to_sparse and sparse_to_dense are called only in
_axioms.check_unit, superalg._sparse_element, _dense_element, table_product
and _AlgebraBase.element, constructors.construct_sl, jordan_from_3grading
and cli._vec_json and _load_cover_map (tests/test_source.py holds the list).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch

Vec = tuple  # tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(values: Iterable) -> Vec:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def dense_to_sparse(a: Sequence) -> dict:
    return {i: x if type(x) is Fraction else Fraction(x) for i, x in enumerate(a) if x}


def sparse_to_dense(row: dict, n: int) -> Vec:
    """The dense vector of length n of a sparse row whose keys lie in range(n)."""
    out = [ZERO] * n
    for i, x in row.items():
        out[i] = x
    return tuple(out)


class Matrix:
    """Dense row-major matrix over Fraction; the package applies no map
    with it.  It stays because the dense reference elimination in
    tests/oracles.py extends it, and bench/traced.py wraps Matrix.mul_vec
    (tests/test_tracer_targets.py checks that target): deleting it belongs
    with a change to the benchmark."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        self.data = [[Fraction(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise DimensionMismatch("ragged matrix rows")

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence]) -> "Matrix":
        n = len(cols[0]) if cols else 0
        return cls([[col[i] for col in cols] for i in range(n)])

    def mul_vec(self, v: Sequence) -> Vec:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matrix cols {self.cols} != vector length {len(v)}")
        return tuple(
            sum((row[j] * v[j] for j in range(self.cols) if v[j] != 0), ZERO)
            for row in self.data
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# Polynomials over Q, represented as ascending coefficient lists.
# ---------------------------------------------------------------------------


def poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_degree(p: Sequence) -> int:
    return len(p) - 1


def poly_mul(p: Sequence, q: Sequence) -> list:
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b != 0:
                out[i + j] += a * b
    return out


def primitive_integer_poly(p: Sequence) -> list[int]:
    """Clear denominators and content; sign of the leading coefficient is kept."""
    p = poly_trim(list(p))
    if not p:
        return []
    den = lcm(*(Fraction(c).denominator for c in p))
    ints = [int(c * den) for c in p]
    content = gcd(*ints)
    return [c // content for c in ints]


def _sturm(q: list) -> list:
    """Sturm sequence of an integer polynomial over the integers: each
    member is a positive multiple of the classical one (q, q', then minus
    each remainder), so the signs agree at every point."""
    seq = [q, [i * c for i, c in enumerate(q)][1:]]
    while len(seq[-1]) > 1:
        r, b = list(seq[-2]), seq[-1]
        m, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(r) >= len(b):
            # r <- |lead b| r - sign(lead b) (lead r) x^k b cancels the lead of r
            c, k = s * r[-1], len(r) - len(b)
            r = [m * x for x in r]
            for i, y in enumerate(b):
                r[k + i] -= c * y
            poly_trim(r)
        if not r:
            break
        g = gcd(*r)
        seq.append([-x // g for x in r])
    return seq


def _sign_changes(seq: list, x: int) -> int:
    signs = []
    for s in seq:
        v = 0
        for c in reversed(s):  # Horner: v = s(x)
            v = v * x + c
        if v:
            signs.append(v > 0)
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _deflate(q: list, x: int) -> tuple[list, int]:
    """(quotient, remainder q(x)) of an integer polynomial divided by X - x."""
    out, acc = [], 0
    for c in reversed(q):
        acc = acc * x + c
        out.append(acc)
    rem = out.pop()
    return out[::-1], rem


def rational_roots(p: Sequence) -> tuple[list[tuple[Fraction, int]], list]:
    """All rational roots with multiplicities, plus the rootless monic
    cofactor.

    Let x^m W be the monic p, W(0) != 0, and a W its primitive integer
    form, of degree d.  Then Q(x) = (2a)^d W(x/(2a)) is monic over the
    integers, so its rational roots are integers, and the rational roots of
    W are x/(2a) for the even roots x of Q.  All roots of Q lie in
    (-hi, hi) for the odd hi below (Fujiwara's bound) and none at an odd
    integer, so bisection on odd endpoints, counting the distinct real roots
    between them by the sign changes of Q's Sturm sequence, isolates every
    even integer that may be a root; no coefficient is factored.  Each root
    is divided out of Q over the integers, and the cofactor C of Q maps back
    to C(2a t)/(2a)^e.
    """
    ints = primitive_integer_poly(p)
    if not ints:
        raise ZeroDivisionError("zero polynomial has no well-defined roots")
    m = next(i for i, c in enumerate(ints) if c)
    roots: list[tuple[Fraction, int]] = [(ZERO, m)] if m else []
    ints = ints[m:] if ints[-1] > 0 else [-c for c in ints[m:]]
    d, a, a2 = len(ints) - 1, ints[-1], 2 * ints[-1]
    q = [c * a2 ** (d - i) // a for i, c in enumerate(ints[:-1])] + [1]
    if d:
        seq = _sturm(q)
        # Fujiwara: every root has |x| <= 2 max_k |q_{d-k}|^(1/k), k = 1..d,
        # and |q_{d-k}| < 2^bitlen(q_{d-k}), so |x| < 2^(b+1) with b the
        # largest ceil(bitlen(q_{d-k}) / k); hi = 2^(b+2) + 1 is odd and above
        # that.  Cauchy's 1 + max |q_i| is far larger, as q_i carries (2a)^(d-i).
        b = max(-(-abs(c).bit_length() // (d - i)) for i, c in enumerate(q[:-1]))
        hi = (1 << (b + 2)) + 1
        stack = [(-hi, _sign_changes(seq, -hi), hi, _sign_changes(seq, hi))]
        while stack:
            lo, vlo, hi, vhi = stack.pop()
            if vlo == vhi:
                continue
            if hi - lo > 2:
                mid = lo + 2 * ((hi - lo) // 4)
                vmid = _sign_changes(seq, mid)
                stack += [(mid, vmid, hi, vhi), (lo, vlo, mid, vmid)]
                continue
            mult = 0
            while True:
                quot, rem = _deflate(q, lo + 1)
                if rem:
                    break
                q, mult = quot, mult + 1
            if mult:
                roots.append((Fraction(lo + 1, a2), mult))
    roots.sort(key=lambda rm: rm[0])
    e = len(q) - 1
    return roots, [Fraction(c, a2 ** (e - i)) for i, c in enumerate(q)]


# ---------------------------------------------------------------------------
# Incremental sparse reduced echelon form.
# ---------------------------------------------------------------------------


def primitive(row: dict, lead: int) -> dict:
    """A nonzero integer row divided by the gcd of its entries, signed so
    that row[lead] > 0."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {k: v // g for k, v in row.items()}


class SparseRref:
    """Reduced row-echelon basis of a growing set of sparse rows.

    Input rows are dicts {column: int or Fraction}.  Each basis row is kept
    as a primitive integer row {column: int}: its entries have gcd 1, its
    pivot entry is positive and it is 0 at every other pivot column, so
    dividing each row by its pivot entry gives the canonical RREF.
    Elimination is fraction-free: a Fraction row is scaled once by the lcm
    of its denominators, and a Fraction is built only where a rational value
    is handed back (reduce, basis).  Columns >= npivot are "augmented": they
    are carried through eliminations but never chosen as pivots, which
    supports augmented solves (coordinate tracking, minimal polynomials,
    homomorphism transport).
    """

    def __init__(self, ncols: int, npivot: int | None = None):
        self.ncols = ncols
        self.npivot = ncols if npivot is None else npivot
        self._rows: dict[int, dict] = {}  # pivot column -> primitive int row
        self._sorted: list[int] | None = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        if self._sorted is None:
            self._sorted = sorted(self._rows)
        return self._sorted

    def _reduce(self, row: dict) -> tuple[dict, int]:
        """(out, scale) with out / scale the fully reduced row, out integer."""
        den = 1
        for v in row.values():
            if v.denominator != 1:
                den = lcm(den, v.denominator)
        if den == 1:
            out = {k: v.numerator for k, v in row.items() if v}
        else:
            out = {k: v.numerator * (den // v.denominator) for k, v in row.items() if v}
        scale = den
        rows = self._rows
        # Pivot rows are 0 at every other pivot column, so a single pass over
        # the initially present pivot columns is complete.
        for c in [c for c in out if c in rows]:
            p = rows[c]
            a, f = p[c], out[c]
            if a != 1:
                # out <- (a/g)·out - (f/g)·p clears column c
                g = gcd(a, f)
                m, f = a // g, f // g
                if m != 1:
                    for k in out:
                        out[k] *= m
                    scale *= m
            for k, v in p.items():
                x = out.get(k, 0) - f * v
                if x:
                    out[k] = x
                else:
                    del out[k]
        return out, scale

    def reduce(self, row: dict) -> dict:
        """Fully reduce a row against the current basis (row is not consumed)."""
        out, scale = self._reduce(row)
        return {k: Fraction(v, scale) for k, v in out.items()}

    def _leading(self, row: dict) -> int | None:
        cols = [c for c in row if c < self.npivot]
        return min(cols) if cols else None

    def insert(self, row: dict) -> int | None:
        """Insert a row; returns its pivot column, or None if dependent."""
        red, _ = self._reduce(row)
        lead = self._leading(red)
        if lead is None:
            return None
        red = primitive(red, lead)
        a = red[lead]
        rows = self._rows
        for c, other in rows.items():
            f = other.get(lead)
            if not f:
                continue
            # other <- (a·other - f·red) / g clears column lead; red is 0 at
            # c, so other's pivot entry stays positive.  Overflow bound:
            # none, the entries are Python ints, which grow as needed (the
            # oracle property in tests/test_exact.py runs entries to 2^64).
            g = gcd(a, f)
            m, f = a // g, f // g
            if m != 1:
                other = {k: m * v for k, v in other.items()}
            for k, v in red.items():
                x = other.get(k, 0) - f * v
                if x:
                    other[k] = x
                else:
                    del other[k]
            rows[c] = primitive(other, c)
        rows[lead] = red
        self._sorted = None
        return lead

    def basis(self) -> list[dict]:
        """The canonical RREF rows {column: Fraction}, by pivot."""
        out = []
        for c in self.pivots():
            row = self._rows[c]
            a = row[c]
            out.append({k: Fraction(v, a) for k, v in row.items()})
        return out

    def contains(self, row: dict) -> bool:
        return self._leading(self._reduce(row)[0]) is None

    def coordinates(self, row: dict) -> dict | None:
        """Nonzero coordinates {r: c_r} over basis() order, or None if outside.

        Each RREF row is 1 at its own pivot and 0 at the others, so the
        coordinates of a vector in the span are its entries at the pivots."""
        if not self.contains(row):
            return None
        return {r: row[c] for r, c in enumerate(self.pivots()) if row.get(c)}


def kernel_from_rows(rows: Iterable[dict], ncols: int) -> list[dict]:
    """Canonical null-space basis, as sparse rows, of the sparse rows' matrix."""
    sr = SparseRref(ncols)
    for row in rows:
        sr.insert(row)
    pivots = sr.pivots()
    rdata = sr.basis()
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f not in pivset:
            v = {p: -r[f] for p, r in zip(pivots, rdata) if f in r}
            v[f] = ONE
            basis.append(v)
    return basis


def eigenspace(rows: Sequence[dict], lam) -> list[dict]:
    """Canonical basis of ker(A - lam I) for a square operator A given by
    its sparse rows; the canonical kernel basis of the shifted matrix."""
    shifted = []
    for i, row in enumerate(rows):
        row = dict(row)
        d = row.get(i, ZERO) - lam
        if d:
            row[i] = d
        else:
            row.pop(i, None)
        shifted.append(row)
    return kernel_from_rows(shifted, len(rows))


def sparse_transpose(cols: Sequence[dict], nrows: int) -> list[dict]:
    """Sparse rows of the matrix whose sparse columns are given."""
    rows: list[dict] = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def sparse_apply(cols: Sequence[dict], v: dict) -> dict:
    """A v for a sparse v and a linear map A given by its sparse columns,
    touching only the columns at the nonzeros of v; zeros are dropped.  The
    sums start at int 0, as superalg._sparse_product's do: integer columns
    and an integer v give int values, and Fraction inputs give Fractions."""
    acc: dict = {}
    for j, x in v.items():
        for i, a in cols[j].items():
            acc[i] = acc.get(i, 0) + x * a
    return {i: x for i, x in acc.items() if x}


def min_poly(cols: Sequence[dict]) -> list:
    """Monic minimal polynomial of a square operator given by its sparse
    columns; the Krylov vectors stay sparse.

    It is the lcm of the minimal polynomials m_i of the basis vectors e_i,
    taken as lcm(p, m_i) = p * ann(p(A) e_i): the monic annihilator of
    p(A) e_i is m_i / gcd(p, m_i), so no polynomial gcd is computed."""
    dim = len(cols)
    best = [ONE]
    for i in range(dim):
        if poly_degree(best) >= dim:
            break
        w = _poly_apply(best, cols, {i: ONE})
        if w:
            best = poly_mul(best, _local_min_poly(cols, w))
    return best


def _poly_apply(p: Sequence, cols: Sequence[dict], v: dict) -> dict:
    """p(A) v by Horner's rule for A given by its sparse columns."""
    acc = {i: p[-1] * x for i, x in v.items()} if p[-1] else {}
    for c in reversed(p[:-1]):
        acc = sparse_apply(cols, acc)
        if c:
            for i, x in v.items():
                y = acc.get(i, ZERO) + c * x
                if y:
                    acc[i] = y
                else:
                    del acc[i]
    return acc


def _local_min_poly(cols: Sequence[dict], seed: dict) -> list:
    """Monic generator of {q : q(A) seed = 0}: the first Krylov vector
    A^k seed that reduces to 0 leaves the relation in the augmented
    columns, with the 1 at column dim + k untouched."""
    dim = len(cols)
    sr = SparseRref(dim + dim + 1, npivot=dim)
    v = seed
    for k in range(dim + 1):
        row = dict(v)
        row[dim + k] = ONE
        red = sr.reduce(row)
        if all(c >= dim for c in red):
            coeffs = [ZERO] * (k + 1)
            for c, val in red.items():
                coeffs[c - dim] = val
            return coeffs
        sr.insert(row)
        v = sparse_apply(cols, v)
    raise AssertionError("Krylov iteration failed to terminate")  # pragma: no cover
