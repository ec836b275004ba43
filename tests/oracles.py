"""Reference implementations the tests compare against or build on.

Matrix, rref, kernel_from_rref, kernel and solve_linear are the dense
Fraction elimination that the package replaced with SparseRref everywhere
(kernel_from_rows, augmented solves, subspace coordinates); Matrix extends
exact.Matrix, which the package no longer uses, with identity, zeros, row,
col, matmul, trace and copy.  FractionSparseRref is the Fraction-pivot incremental RREF that
supergrade.exact.SparseRref replaced with fraction-free integer
elimination; the property tests in test_exact.py require both to agree.
FractionSubspaceCoords and restricted_table are the Fraction subspace
coordinates and restricted table that superalg replaced with integer rows
and integer products; test_sparse_kernels.py requires both to agree.
char_poly, rational_eigenvalues and ad_matrix are the dense eigenvalue
route that the sparse minimal-polynomial route replaced.
rational_roots_by_divisors is the rational-root theorem search that
exact.rational_roots replaced with Sturm bisection: it tries every divisor
of the end coefficients, which takes about sqrt(|coefficient|) steps.
poly_eval, poly_divmod and poly_monic are the Fraction polynomial
arithmetic it runs on; exact.min_poly takes its lcms without them.  d_operator is the
Fraction-matrix form of the TKK operator pair that jordan.tkk builds as
scaled integer rows.  complement_rows picks the canonical complement of
B^2 in Z^2 on the full cochain system, as cohomology.h2_representatives
did before it solved on weight-zero cochains.  span_closure,
subalgebra_from_generators, basis_element, all_components and associator
have no caller in the package.  derived_subalgebra_all_brackets inserts
every bracket, as superalg.derived_subalgebra did before it stopped at
full rank.  condition3_by_vectors and
closure_by_vectors bracket the component and part vectors of a grading
check, as roots did before it rewrote every datum in its weight basis.
extension_from_quotient, _preimage and cover_kernel_check check that the
kernel of a central cover lies in the zero weight space and that every
root space maps isomorphically; no command runs them, and the acceptance
suite checks the paper's lemma on lifted root spaces through them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from supergrade.cohomology import CentralExtension, Cocycle2
from supergrade.constructors import CartanBasis
from supergrade.errors import DimensionMismatch, NonSplitSpectrum, NotThreeGraded, ValidationError
from supergrade import exact
from supergrade.exact import (
    ONE,
    ZERO,
    SparseRref,
    Vec,
    dense_to_sparse,
    kernel_from_rows,
    poly_degree,
    poly_trim,
    primitive_integer_poly,
    rational_roots,
    sparse_apply,
    sparse_to_dense,
    sparse_transpose,
    sub_vec,
    unit_vec,
    vec,
)
from supergrade.roots import weight_decomposition
from supergrade.superalg import (
    Element,
    LieSuperalgebra,
    StructureTable,
    SuperSpace,
    _coords,
    _integer_row,
    _sparse_product,
    ad_rows,
    homogeneous_parity,
    quotient_central,
)

TWO = Fraction(2)


class Matrix(exact.Matrix):
    """Dense row-major matrix over Fraction, with the dense operations."""

    __slots__ = ()

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        m = cls.__new__(cls)
        m.data = [[ZERO] * cols for _ in range(rows)]
        m.rows = rows
        m.cols = cols
        return m

    def row(self, i: int) -> Vec:
        return tuple(self.data[i])

    def col(self, j: int) -> Vec:
        return tuple(self.data[i][j] for i in range(self.rows))

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matmul shape mismatch")
        out = Matrix.zeros(self.rows, other.cols)
        for i, row in enumerate(self.data):
            orow = out.data[i]
            for k, c in enumerate(row):
                if c == 0:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    if brow[j] != 0:
                        orow[j] += c * brow[j]
        return out

    def trace(self) -> Fraction:
        return sum((self.data[i][i] for i in range(min(self.rows, self.cols))), ZERO)

    def copy(self) -> "Matrix":
        return Matrix(self.data)


def rref(m: exact.Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and pivot column list.  rank = len(pivots)."""
    a = [row[:] for row in m.data]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = Matrix.__new__(Matrix)
    out.data = a
    out.rows = nrows
    out.cols = ncols
    return out, pivots


def kernel_from_rref(rdata: Sequence[Sequence], pivots: Sequence[int], ncols: int) -> list[Vec]:
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -rdata[r][f]
        basis.append(tuple(v))
    return basis


def kernel(m: exact.Matrix) -> list[Vec]:
    """Canonical null-space basis (free variables set to 1 in column order)."""
    r, pivots = rref(m)
    return kernel_from_rref(r.data, pivots, m.cols)


def solve_linear(a: exact.Matrix, b: Sequence) -> Vec | None:
    """One particular solution of a x = b with free variables 0, or None."""
    if len(b) != a.rows:
        raise DimensionMismatch("rhs length != row count")
    aug = Matrix([list(row) + [b[i]] for i, row in enumerate(a.data)])
    r, pivots = rref(aug)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [ZERO] * a.cols
    for i, p in enumerate(pivots):
        x[p] = r.data[i][a.cols]
    return tuple(x)


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


def complement_rows(zbasis: list[dict], bbasis: list[dict], ncols: int) -> list[dict]:
    """The rows of zbasis, in order, that are independent of bbasis and of
    the rows kept before them."""
    sr = FractionSparseRref(ncols)
    for b in bbasis:
        sr.insert(b)
    return [z for z in zbasis if sr.insert(z) is not None]


class FractionSubspaceCoords:
    """Coordinates over a subspace basis from the Fraction rows (v_i | e_i)
    in one FractionSparseRref: reducing (w | 0) leaves (0 | -c) exactly when
    w = sum_i c_i v_i.  superalg.SubspaceCoords replaced it with integer
    rows d_i v_i."""

    def __init__(self, basis: Sequence[dict], n: int):
        self.dim = len(basis)
        self._n = n
        self._sr = FractionSparseRref(n + self.dim, npivot=n)
        for i, v in enumerate(basis):
            row = dict(v)
            row[n + i] = ONE
            if self._sr.insert(row) is None:
                raise ValidationError("subalgebra basis is linearly dependent")

    def sparse_coords(self, ambient: dict) -> dict | None:
        red = self._sr.reduce(ambient)
        if any(c < self._n for c in red):
            return None
        return {c - self._n: -x for c, x in red.items()}

    def coords(self, ambient) -> Vec | None:
        sparse = ambient if isinstance(ambient, dict) else dense_to_sparse(ambient)
        found = self.sparse_coords(sparse)
        return None if found is None else sparse_to_dense(found, self.dim)


def restricted_table(l, basis: Sequence, kind: str | None = None, unit=None, labels=None):
    """superalg.restricted_table in Fraction arithmetic: every product of
    two basis vectors is formed over Fraction and its coordinates read off
    FractionSubspaceCoords, and the checking StructureTable builds the
    table."""
    dense = [_coords(b) for b in basis]
    if any(len(v) != l.dim for v in dense):
        raise DimensionMismatch("element length != algebra dimension")
    vecs = [dense_to_sparse(v) for v in dense]
    conv = FractionSubspaceCoords(vecs, l.dim)
    parities = []
    for v in dense:
        p = homogeneous_parity(l.space, v)
        if p is None:
            raise ValidationError("subalgebra basis vector is not parity-homogeneous")
        parities.append(p)
    items = [list(v.items()) for v in vecs]
    entries = {}
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            given = conv.sparse_coords(_sparse_product(l.table.entries, items[i], items[j]))
            if given is None:
                raise ValidationError(
                    f"subspace not closed: product of basis {i} and {j} escapes the span"
                )
            if given:
                entries[(i, j)] = tuple(sorted(given.items()))
    space = SuperSpace(len(vecs), tuple(parities), labels)
    return StructureTable(space, kind or l.kind, entries, unit=unit), conv


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


def derived_subalgebra_all_brackets(l) -> list[Vec]:
    """Canonical basis of span{[b_i, b_j]}, every i <= j inserted."""
    sr = SparseRref(l.dim)
    for i, row in enumerate(l.table.integer_form()[1]):
        for j in sorted(row):
            if i <= j:
                sr.insert(dict(row[j]))
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


def poly_eval(p: Sequence, x) -> Fraction:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_divmod(p: Sequence, q: Sequence) -> tuple[list, list]:
    q = list(q)
    poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [ZERO] * max(len(rem) - len(q) + 1, 1)
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) - 1 >= dq and poly_trim(rem):
        d = len(rem) - 1
        if d < dq:
            break
        c = rem[-1] / lead
        quot[d - dq] = c
        for i in range(len(q)):
            rem[d - dq + i] -= c * q[i]
        poly_trim(rem)
    return poly_trim(quot), rem


def poly_monic(p: Sequence) -> list:
    p = poly_trim(list(p))
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots_by_divisors(p: Sequence) -> tuple[list[tuple[Fraction, int]], list]:
    """exact.rational_roots by the rational-root theorem: every num/den with
    num dividing the constant and den the leading coefficient of the
    primitive integer form is tried."""
    work = poly_monic(p)
    if not work:
        raise ZeroDivisionError("zero polynomial has no well-defined roots")
    roots: list[tuple[Fraction, int]] = []
    mult0 = 0
    while len(work) > 1 and work[0] == 0:
        work = work[1:]
        mult0 += 1
    if mult0:
        roots.append((ZERO, mult0))
    ints = primitive_integer_poly(work)
    candidates: set[Fraction] = set()
    if len(ints) > 1:
        for num in _int_divisors(ints[0]):
            for den in _int_divisors(ints[-1]):
                candidates.add(Fraction(num, den))
                candidates.add(Fraction(-num, den))
    for cand in sorted(candidates):
        mult = 0
        while len(work) > 1 and poly_eval(work, cand) == 0:
            work, rem = poly_divmod(work, [-cand, ONE])
            assert not rem
            mult += 1
        if mult:
            roots.append((cand, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, work


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


def extension_from_quotient(l: LieSuperalgebra, zbasis) -> CentralExtension:
    """Package an existing central quotient L -> L/<z> as a CentralExtension.

    The base keeps the basis elements at the non-pivot columns of z's RREF,
    so a lifted bracket [b_a, b_b] minus the lift of its image lies in <z>
    and has at the pivots the entries of [b_a, b_b] itself (the lift is 0
    there).  The RREF rows are 1 at their own pivot and 0 at the others, so
    cocycle t is the coefficient of [b_a, b_b] at pivot t.  z is graded, so
    each RREF row is homogeneous, of the parity of its pivot."""
    base = quotient_central(l, zbasis)
    pos = {c: a for a, c in enumerate(base.provenance["kept_columns"])}
    slot = {c: t for t, c in enumerate(c for c in range(l.dim) if c not in pos)}
    forms = [{} for _ in slot]
    for (i, j), terms in l.table.entries.items():
        if i in pos and j in pos:
            for m, c in terms:
                if m in slot:
                    forms[slot[m]][(pos[i], pos[j])] = c
    cocycles = [Cocycle2(l.parity[p], form) for p, form in zip(slot, forms)]
    return CentralExtension(base, cocycles, l, base.provenance["projection"])


class CoverKernelReport:
    __slots__ = ("passed", "kernel_dim", "details")

    def __init__(self, passed: bool, kernel_dim: int, details: list):
        self.passed, self.kernel_dim, self.details = passed, kernel_dim, details


def _preimage(rows: list[dict], ncols: int, b) -> tuple | None:
    """The solution of A x = b with free variables 0, for A given by its
    sparse rows, or None if there is none.  b is an augmented column that
    is never a pivot, so x is b's entry in the RREF row of each pivot."""
    if len(b) != len(rows):
        raise DimensionMismatch("rhs length != row count")
    sr = SparseRref(ncols + 1, npivot=ncols)
    for row, c in zip(rows, b):
        aug = {**row, ncols: c}
        if sr.insert(aug) is None and sr.reduce(aug):
            return None
    x = [ZERO] * ncols
    for p, r in zip(sr.pivots(), sr.basis()):
        x[p] = r.get(ncols, ZERO)
    return tuple(x)


def cover_kernel_check(ext: CentralExtension, cartan: CartanBasis) -> CoverKernelReport:
    """Verify ker(pi) lies in the zero weight space of the extension and pi
    restricts to a linear isomorphism on every nonzero root space."""
    base, big, proj = ext.base, ext.extended, ext.projection
    prows = sparse_transpose(proj, base.dim)
    lifted = []
    for h in cartan.elements:
        lift = _preimage(prows, big.dim, h.coords)
        if lift is None:
            raise ValidationError("Cartan element has no preimage under the projection")
        lifted.append(Element(lift, 0))
    lifted_cartan = CartanBasis(lifted, diag_mats=cartan.diag_mats)
    datum_big = weight_decomposition(big, lifted_cartan)
    datum_base = weight_decomposition(base, cartan)

    zero_sr = SparseRref(big.dim)
    for v in datum_big.zero_component.basis:
        zero_sr.insert(dense_to_sparse(v))
    kern = kernel_from_rows(prows, big.dim)
    kernel_in_zero = all(zero_sr.contains(dense_to_sparse(v)) for v in kern)

    per_root = True
    details = []
    for comp in datum_base.components:
        big_comp = datum_big.component(comp.weight)
        ok = big_comp is not None and big_comp.dim == comp.dim
        if ok:
            base_sr = SparseRref(base.dim)
            for v in comp.basis:
                base_sr.insert(dense_to_sparse(v))
            rank_sr = SparseRref(base.dim)
            for v in big_comp.basis:
                img = sparse_apply(proj, dense_to_sparse(v))
                if not base_sr.contains(img):
                    ok = False
                    break
                rank_sr.insert(img)
            ok = ok and rank_sr.rank == comp.dim
        per_root = per_root and ok
        details.append({"weight": comp.weight, "dim": comp.dim, "iso": ok})
    extra = [c.weight for c in datum_big.components if datum_base.component(c.weight) is None]
    per_root = per_root and not extra
    return CoverKernelReport(kernel_in_zero and per_root, len(kern), details)


def condition3_by_vectors(l, datum) -> dict:
    """roots._condition3 bracketing the component bases as vectors, in both
    orders, with the zero component as a span."""
    n = l.dim
    span = SparseRref(n)
    ent = l.table.entries
    sparse = {c.weight: [dense_to_sparse(v).items() for v in c.basis] for c in datum.components}
    for wt, vecs in sparse.items():
        for vb in sparse.get(tuple(-x for x in wt), ()):
            for va in vecs:
                span.insert(_sparse_product(ent, va, vb))
    zero_sr = SparseRref(n)
    for v in datum.zero_component.basis:
        zero_sr.insert(dense_to_sparse(v))
    deficit = [v for v in datum.zero_component.basis if not span.contains(dense_to_sparse(v))]
    leak = any(not zero_sr.contains(r) for r in span.basis())
    return {
        "passed": not deficit and not leak,
        "zero_component_dim": datum.zero_component.dim,
        "bracket_span_dim": span.rank,
        "deficit_count": len(deficit),
    }


def closure_by_vectors(l, parts: dict) -> tuple | None:
    """roots._closure multiplying the part vectors as integer rows d v over
    the integer table (scale s): a product is d d' s [v, v'], zero and
    inside a span exactly when [v, v'] is."""
    n = l.dim
    _, ient = l.table.integer_entries()
    rows = {k: [_integer_row(dense_to_sparse(v))[1] for v in parts[k]] for k in (-1, 0, 1)}
    spans = {}
    for k in (-1, 0, 1):
        sr = spans[k] = SparseRref(n)
        for v in rows[k]:
            sr.insert(v)
    if sum(s.rank for s in spans.values()) != n:
        raise NotThreeGraded("parts do not sum to the whole algebra")
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            for va in rows[a]:
                for vb in rows[b]:
                    prod = _sparse_product(ient, va.items(), vb.items())
                    if prod and (abs(a + b) > 1 or not spans[a + b].contains(prod)):
                        return a, b
    return None
