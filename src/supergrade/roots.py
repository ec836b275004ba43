"""Weight-space decompositions and A(n,n) root-grading verification.

Weights are coordinate vectors of functional values against a provided
Cartan basis, not abstract functionals; the A(n,n) pattern is generated
against the same basis through diagonal-matrix representatives, which
avoids any root-system isomorphism search.  Components are sorted by
lexicographic weight and carry canonical RREF bases.

When every Cartan element is a combination sum_t h_t b_t of toral basis
elements (StructureTable.toral_columns: [b_t, b_j] in Q b_j for every j),
the weights are read off the table: ad h = sum_t h_t ad b_t is diagonal in
the basis by linearity of the bracket alone, so b_j has weight
sum_t h_t [b_t, b_j]_j and the weight spaces are spanned by basis vectors.
This is exact on any table, Lie or not: it needs neither the Jacobi
identity nor the commutation of the Cartan.  Any other Cartan is refined
one element at a time (minimal polynomial, rational roots, eigenspaces).

Condition 3 and the closure of a 3-grading are each one pass over the
integer table in the weight basis (_weight_basis), made of the component
vectors: the table's own for a toral datum, whose components are multiples
of basis vectors, and any other datum rewritten by restricted_table.

Vectors are sparse rows {index: Fraction} (exact), multiplied with
superalg._product and combined with exact.sparse_apply; ad(h) is given by
sparse columns.  The homomorphism law of an sl or psl cover multiplies
integer rows.  Component bases, cover images and the parts of a
ThreeGrading are sparse rows; only the Cartan elements are dense Elements.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .constructors import CartanBasis, construct_psl, construct_sl, matrix_unit_in_psl
from .errors import (
    BadParams,
    NonSplitSpectrum,
    NotDiagonalizable,
    NotHomomorphism,
    NotThreeGraded,
    ValidationError,
)
from .exact import (
    SparseRref,
    ZERO,
    ONE,
    eigenspace,
    kernel_from_rows,
    min_poly,
    poly_degree,
    rational_roots,
    sparse_apply,
    sparse_transpose,
)
from .superalg import (
    LieSuperalgebra,
    ThreeGrading,
    _dense_element,
    _first_noncentral,
    _integer_row,
    _product,
    _sparse_element,
    _sparse_product,
    derived_rref,
    homogeneous_parity,
    restricted_table,
)

TWO = Fraction(2)


class RootComponent:
    """One simultaneous eigenspace: weight, canonical sparse-row basis, graded dims."""

    __slots__ = ("weight", "basis", "even_dim", "odd_dim")

    def __init__(self, weight: tuple, basis: list, even_dim: int, odd_dim: int):
        self.weight, self.basis, self.even_dim, self.odd_dim = weight, basis, even_dim, odd_dim

    @property
    def dim(self) -> int:
        return self.even_dim + self.odd_dim


class RootDatum:
    """Weight-space decomposition of an algebra against a Cartan basis;
    components holds the nonzero weights, sorted lexicographically."""

    __slots__ = ("cartan", "components", "zero_component")

    def __init__(self, cartan: CartanBasis, components: list, zero_component: RootComponent):
        self.cartan, self.components, self.zero_component = cartan, components, zero_component

    def component(self, weight) -> RootComponent | None:
        for c in self.components:
            if c.weight == tuple(weight):
                return c
        if all(x == 0 for x in weight):
            return self.zero_component
        return None


def _eigen_split(cols: list, witness: str):
    """Eigenvalues and eigenspace bases of a diagonalizable rational operator
    given by its sparse columns.

    Diagnoses the failure mode exactly: an irrational eigenvalue raises
    NonSplitSpectrum, a repeated root of the minimal polynomial raises
    NotDiagonalizable.  The one caller passes a non-empty component.
    """
    mp = min_poly(cols)
    roots, cofactor = rational_roots(mp)
    if poly_degree(cofactor) > 0:
        raise NonSplitSpectrum(f"{witness} has an irrational eigenvalue")
    for lam, mult in roots:
        if mult > 1:
            raise NotDiagonalizable(
                f"{witness} is not diagonalizable at eigenvalue {lam}",
                eigenvalue=lam,
                witness=witness,
            )
    rows = sparse_transpose(cols, len(cols))
    return [(lam, eigenspace(rows, lam)) for lam, _ in roots]


def _check_cartan(l: LieSuperalgebra, cartan: CartanBasis):
    for x in cartan.elements:
        if x.parity != 0:
            raise ValidationError("Cartan elements must be even")
    sparse = [_sparse_element(l, x).items() for x in cartan.elements]
    for x, y in itertools.combinations(sparse, 2):
        if _product(l.table, x, y):
            raise ValidationError("Cartan elements must commute pairwise")


def weight_decomposition(l: LieSuperalgebra, cartan: CartanBasis) -> RootDatum:
    """Simultaneous rational-eigenspace decomposition of ad(h) for h in the
    Cartan basis.  Fails if some ad(h) has an irrational eigenvalue or is
    not diagonalizable on L.

    A Cartan supported on toral basis elements is read off the table
    (_toral_datum); any other goes through the refinement (_refined_datum).
    Both give the same canonical components."""
    _check_cartan(l, cartan)
    datum = _toral_datum(l, cartan)
    return _refined_datum(l, cartan) if datum is None else datum


def _toral_datum(l: LieSuperalgebra, cartan: CartanBasis) -> RootDatum | None:
    """The decomposition read off the toral basis elements
    (StructureTable.toral_columns), or None if some Cartan element has a
    term on a basis element that is not toral.

    With integer form (s, L) and w_j[t] the entry of b_j in the column of
    b_t, the weight of b_j under h is sum_t h_t w_j[t] / s; the components
    are the unit vectors grouped by weight, which is their canonical RREF
    basis."""
    n = l.dim
    s = l.table.integer_form()[0]
    cols = l.table.toral_columns()
    hs = [_sparse_element(l, h) for h in cartan.elements]
    if any(t not in cols for h in hs for t in h):
        return None
    lams = [sparse_apply(cols, h) for h in hs]  # s * lambda_j(h) at j
    groups: dict[tuple, list] = {}
    for j in range(n):
        groups.setdefault(tuple(lam.get(j, ZERO) / s for lam in lams), []).append(j)
    par = l.parity
    comps = []
    for wt, idx in sorted(groups.items()):
        odd = sum(par[j] for j in idx)
        comps.append(RootComponent(wt, [{j: ONE} for j in idx], len(idx) - odd, odd))
    return _datum(cartan, comps)


def _refined_datum(l: LieSuperalgebra, cartan: CartanBasis) -> RootDatum:
    """The decomposition by refining eigenspaces one Cartan element at a
    time, for any commuting Cartan: minimal polynomial, rational roots and
    eigenspace kernels of ad(h) on each previous eigenspace."""
    n = l.dim
    comps = [((), [{i: ONE} for i in range(n)])]
    for t, h in enumerate(cartan.elements):
        witness = f"ad(cartan element {t})"
        hs = _sparse_element(l, h).items()
        refined = []
        for wt, basis in comps:
            sub = SparseRref(n)
            for v in basis:
                sub.insert(v)
            rows = sub.basis()
            cols = []
            for v in rows:
                c = sub.coordinates(_product(l.table, hs, v.items()))
                if c is None:
                    raise ValidationError(
                        f"{witness} does not preserve a previous eigenspace; "
                        "the Cartan basis is not closed under simultaneous refinement"
                    )
                cols.append(c)
            for lam, local in _eigen_split(cols, witness):
                ambient = [sparse_apply(rows, lv) for lv in local]
                refined.append((wt + (lam,), ambient))
        comps = refined

    components = []
    for wt, basis in sorted(comps, key=lambda p: p[0]):
        sub = SparseRref(n)
        for v in basis:
            sub.insert(v)
        rows = sub.basis()
        ev = od = 0
        for v in rows:
            p = homogeneous_parity(l.space, v)
            if p is None:
                raise ValidationError("weight-space basis vector is not homogeneous")
            ev += p == 0
            od += p == 1
        components.append(RootComponent(wt, rows, ev, od))
    return _datum(cartan, components)


def _datum(cartan: CartanBasis, comps: list) -> RootDatum:
    """The RootDatum of components sorted by weight, split at weight 0.
    The components fill the algebra: the toral read-off puts every basis
    element in a group, and the refinement splits each component into
    eigenspaces that fill it, or raises."""
    zero_wt = (ZERO,) * len(cartan.elements)
    zero = next((c for c in comps if c.weight == zero_wt), None)
    components = [c for c in comps if c is not zero]
    if zero is None:
        zero = RootComponent(zero_wt, [], 0, 0)
    return RootDatum(cartan, components, zero)


class ExpectedRoots:
    """The A(n,n) root pattern evaluated against given Cartan representatives.

    weights maps a weight to [even_mult, odd_mult], pairs to its list of
    (i, j) index pairs, unbarred < m <= barred.
    """

    __slots__ = ("n", "weights", "pairs")

    def __init__(self, n: int, weights: dict, pairs: dict):
        self.n, self.weights, self.pairs = n, weights, pairs

    def heights(self, weight) -> set:
        """Unbarred-versus-barred height in {-1, 0, 1} per matching pair."""
        m = self.n + 1
        out = set()
        for i, j in self.pairs[weight]:
            out.add((1 if i < m else 0) - (1 if j < m else 0))
        return out


def expected_ann_roots(n: int, diag_mats=None) -> ExpectedRoots:
    """The root system of psl(n+1,n+1): all e_i - e_j with i != j, under the
    relations sum(e_unbarred) = 0 = sum(e_barred).

    diag_mats gives the diagonal representatives of the Cartan basis the
    weights are evaluated against (entries per index of I, unbarred block
    then barred block, both block sums zero); default is the canonical
    Cartan of construct_psl(n).
    """
    if n < 1:
        raise BadParams("A(n,n) needs n >= 1")
    m = n + 1
    if diag_mats is None:
        diag_mats = construct_sl(m, m).provenance["cartan_h"].diag_mats
    for d in diag_mats:
        if len(d) != 2 * m:
            raise BadParams("diagonal representatives must have 2(n+1) entries")
        if sum(d[:m]) != 0 or sum(d[m:]) != 0:
            raise BadParams("diagonal representatives must have both block sums zero")
    weights: dict = {}
    pairs: dict = {}
    for i in range(2 * m):
        for j in range(2 * m):
            if i == j:
                continue
            wt = tuple(Fraction(d[i]) - Fraction(d[j]) for d in diag_mats)
            parity = ((i >= m) + (j >= m)) % 2
            if wt not in weights:
                weights[wt] = [0, 0]
                pairs[wt] = []
            weights[wt][parity] += 1
            pairs[wt].append((i, j))
    return ExpectedRoots(n, weights, pairs)


# ---------------------------------------------------------------------------
# cover embeddings
# ---------------------------------------------------------------------------


class CoverEmbedding:
    """A grading-subsuperalgebra candidate inside L.

    Images are sparse rows.  kind 'sl' or 'psl': they list the embedded
    basis of the reference copy of sl(n+1,n+1) or psl(n+1,n+1).  kind
    'm11': a dict of the eight TKK generators e1, e2, x, y, e1~, e2~, x~,
    y~ of a certified M_{1,1}+ quadruple, which grow a central cover of psl(2,2).
    """

    __slots__ = ("kind", "n", "images", "reference")

    def __init__(self, kind: str, n: int, images, reference: LieSuperalgebra | None = None):
        self.kind, self.n, self.images, self.reference = kind, n, images, reference


def identity_cover(l: LieSuperalgebra) -> CoverEmbedding:
    """The algebra as a cover of itself (for psl(n+1,n+1) instances, the
    only ones whose provenance holds the ambient sl(n+1,n+1))."""
    if "ambient_sl" not in l.provenance:
        raise BadParams("identity_cover needs a psl(n+1,n+1) instance")
    return CoverEmbedding("psl", l.provenance["n"], [{i: ONE} for i in range(l.dim)], l)


def slA_cover(l: LieSuperalgebra) -> CoverEmbedding:
    """The embedded sl(m,m) (x) 1 inside a construct_sl_A output."""
    sl = l.provenance.get("cover_sl")
    images = l.provenance.get("cover_images")
    if sl is None or sl.provenance["m"] != sl.provenance["n"]:
        raise BadParams("slA_cover needs sl_(n+1,n+1)(A) provenance")
    return CoverEmbedding("sl", sl.provenance["m"] - 1, images, sl)


def sl_in_gl_cover(gl: LieSuperalgebra) -> CoverEmbedding:
    """The supertrace-zero subalgebra embedded in a gl(n+1,n+1) instance."""
    info = gl.provenance.get("gl")
    if info is None or info["m"] != info["n"]:
        raise BadParams("sl_in_gl_cover needs gl(n+1,n+1)")
    sl = construct_sl(info["m"], info["n"])
    return CoverEmbedding("sl", info["m"] - 1, sl.provenance["embedding"], sl)


class CoverAnalysis:
    __slots__ = ("cartan", "n", "evidence")

    def __init__(self, cartan: CartanBasis, n: int, evidence: dict):
        self.cartan, self.n, self.evidence = cartan, n, evidence


def _analyze_sl_cover(l: LieSuperalgebra, cover: CoverEmbedding) -> CoverAnalysis:
    ref = cover.reference
    if len(cover.images) != ref.dim:
        raise NotHomomorphism("embedding image count differs from the cover basis")
    images = cover.images
    sr = SparseRref(l.dim)
    for v in images:
        sr.insert(v)
    if sr.rank != ref.dim:
        raise NotHomomorphism("cover embedding is not injective")
    # the homomorphism law on integer rows w_m = d_m v_m over the integer
    # tables of L (scale s) and of the cover (scale r), D the lcm of the d_m:
    # [v_i, v_j] = sum_m c_ij^m v_m exactly when
    # r D [w_i, w_j] = d_i d_j s sum_m (r c_ij^m) (D / d_m) w_m
    s, L = l.table.integer_form()
    r, rmults = ref.table.integer_form()
    rows = [_integer_row(v) for v in images]
    big = lcm(*(d for d, _ in rows))
    cols = [{k: big // d * c for k, c in w.items()} for d, w in rows]
    for i in range(ref.dim):
        di, wi = rows[i]
        for j in range(i, ref.dim):
            dj, wj = rows[j]
            expect = sparse_apply(cols, dict(rmults[i].get(j, ())))
            lhs = {k: r * big * c for k, c in _sparse_product(L, wi.items(), wj.items()).items()}
            if lhs != {k: di * dj * s * c for k, c in expect.items()}:
                raise NotHomomorphism(
                    f"embedding fails the homomorphism law on cover basis pair ({i},{j})"
                )
    h_ref = ref.provenance["cartan_h"]
    cartan = CartanBasis(
        elements=[_dense_element(sparse_apply(images, _sparse_element(ref, e)), l.dim)
                  for e in h_ref.elements],
        diag_mats=h_ref.diag_mats,
    )
    evidence = {
        "cover": ref.provenance.get("name", "cover"),
        "cover_dim": ref.dim,
        "cover_perfect": derived_rref(ref).rank == ref.dim,
        "embedding_rank": sr.rank,
    }
    return CoverAnalysis(cartan, cover.n, evidence)


_M11_KEYS = ("e1", "e2", "x", "y", "e1~", "e2~", "x~", "y~")


def _m11_psl_targets() -> dict:
    """psl(2,2) images of the eight TKK generators of a certified quadruple.

    y and y~ carry a factor 2: the certified relations normalize x.y to
    e1 - e2, which corresponds to the matrix-unit basis with y doubled.
    """
    psl22 = construct_psl(1)

    def u(r, c, s=ONE):
        return {t: s * x for t, x in matrix_unit_in_psl(psl22, r, c).items()}

    return psl22, {
        "e1": u(0, 1),
        "e2": u(2, 3),
        "x": u(0, 3),
        "y": u(2, 1, TWO),
        "e1~": u(1, 0),
        "e2~": u(3, 2),
        "x~": u(1, 2),
        "y~": u(3, 0, TWO),
    }


def _analyze_m11_cover(l: LieSuperalgebra, cover: CoverEmbedding) -> CoverAnalysis:
    if set(cover.images) != set(_M11_KEYS):
        raise BadParams(f"m11 cover needs generator images {_M11_KEYS}")
    images = cover.images
    psl22, targets = _m11_psl_targets()
    nl, np_ = l.dim, psl22.dim

    def aug_row(v: dict, p: dict) -> dict:
        row = dict(v)
        for t, c in p.items():
            row[nl + t] = c
        return row

    def product(a: tuple, b: tuple) -> tuple:
        """(v, p) . (v', p') in L x psl(2,2)."""
        return (_product(l.table, a[0].items(), b[0].items()),
                _product(psl22.table, a[1].items(), b[1].items()))

    sr = SparseRref(nl + np_, npivot=nl)
    elems: list[tuple] = []
    queue = [(images[k], targets[k]) for k in _M11_KEYS]
    while queue:
        pair = queue.pop()
        red = sr.reduce(aug_row(*pair))
        if all(c >= nl for c in red):
            if red:
                raise NotHomomorphism(
                    "generated subalgebra has a relation that fails in psl(2,2); "
                    "the generators do not span a central cover"
                )
            continue
        sr.insert(red)
        elems.append(pair)
        for other in elems:
            queue.append(product(pair, other))
            queue.append(product(other, pair))

    rows = sr.basis()
    s_dim = len(rows)
    parts = [({t: x for t, x in r.items() if t < nl},
              {t - nl: x for t, x in r.items() if t >= nl}) for r in rows]

    # the psl(2,2) parts span psl(2,2): the span of the rows is closed under
    # the product, and the targets generate psl(2,2)
    kern = kernel_from_rows(sparse_transpose([p for _, p in parts], np_), s_dim)
    for kv in kern:
        zl = sparse_apply([v for v, _ in parts], kv).items()
        for b, _ in parts:
            if _product(l.table, zl, b.items()):
                raise NotHomomorphism("kernel of the cover map is not central")

    dsr = SparseRref(nl + np_, npivot=nl)
    for i, a in enumerate(parts):
        for b in parts[i:]:
            dsr.insert(aug_row(*product(a, b)))
    if dsr.rank != s_dim:
        raise NotHomomorphism("generated cover is not perfect")

    h1 = _product(l.table, images["e1"].items(), images["e1~"].items())
    h2 = _product(l.table, images["e2"].items(), images["e2~"].items())
    cartan = CartanBasis(
        elements=[_dense_element(h, nl) for h in (h1, h2)],
        diag_mats=((ONE, -ONE, ZERO, ZERO), (ZERO, ZERO, ONE, -ONE)),
    )
    evidence = {
        "cover": "generated from M(1,1)+ quadruple",
        "cover_dim": s_dim,
        "cover_kernel_dim": len(kern),
        "cover_perfect": True,
        "maps_onto_psl22": True,
    }
    return CoverAnalysis(cartan, 1, evidence)


def analyze_cover(l: LieSuperalgebra, cover: CoverEmbedding) -> CoverAnalysis:
    if cover.kind in ("sl", "psl"):
        return _analyze_sl_cover(l, cover)
    if cover.kind == "m11":
        return _analyze_m11_cover(l, cover)
    raise BadParams(f"unknown cover kind {cover.kind!r}")


# ---------------------------------------------------------------------------
# grading verification
# ---------------------------------------------------------------------------


class GradingReport:
    """Outcome of verify_delta_graded: verdict 'graded' or 'not_graded',
    and the evidence of each condition."""

    __slots__ = ("verdict", "conditions", "matched_root_system", "datum")

    def __init__(self, verdict: str, conditions: dict, matched_root_system: str | None,
                 datum: RootDatum | None):
        self.verdict, self.conditions = verdict, conditions
        self.matched_root_system, self.datum = matched_root_system, datum


def verify_delta_graded(l: LieSuperalgebra, cover: CoverEmbedding) -> GradingReport:
    """Check the three defining conditions of an A(n,n)-grading.

    (1) the cover embeds as a subsuperalgebra (homomorphism checked on all
    basis pairs, cover-ness certified); (2) L decomposes into weight
    spaces of the lifted Cartan with weights inside the A(n,n) pattern;
    (3) the zero component is spanned by brackets of opposite root spaces
    (_condition3, on the integer table in the weight basis).
    """
    analysis = analyze_cover(l, cover)
    conditions = {"condition1": {"passed": True, **analysis.evidence}}
    datum = weight_decomposition(l, analysis.cartan)
    expected = expected_ann_roots(analysis.n, analysis.cartan.diag_mats)
    offenders = [c.weight for c in datum.components if c.weight not in expected.weights]
    conditions["condition2"] = {
        "passed": not offenders,
        "nonzero_weights": len(datum.components),
        "unexpected_weights": offenders,
    }

    conditions["condition3"] = _condition3(l, datum)
    passed = all(c["passed"] for c in conditions.values())
    return GradingReport(
        verdict="graded" if passed else "not_graded",
        conditions=conditions,
        matched_root_system=f"A({analysis.n},{analysis.n})" if passed else None,
        datum=datum,
    )


def _unit_owner(groups, n: int) -> list | None:
    """owner[j] = key of the group whose sparse rows hold a multiple of b_j,
    when the (key, rows) groups are multiples of distinct basis vectors that
    cover the basis; else None."""
    owner = [None] * n
    for key, vecs in groups:
        for v in vecs:
            if len(v) != 1:
                return None
            (j,) = v
            if owner[j] is not None:
                return None
            owner[j] = key
    return owner if None not in owner else None


def _weight_basis(l: LieSuperalgebra, groups) -> tuple[list, list]:
    """(L, owner): the integer form L of l on the basis made of the
    homogeneous vectors of the re-iterable (key, vectors) groups, which
    must form a basis of l (the components of a datum, the parts of a
    3-grading), and owner[j] = key of basis vector j.  Multiples of
    distinct basis vectors (_unit_owner; every toral datum) span the lines
    of the basis, so L is l's own integer form; any other basis is
    rewritten by restricted_table."""
    owner = _unit_owner(groups, l.dim)
    if owner is not None:
        return l.table.integer_form()[1], owner
    table, _ = restricted_table(l, [v for _, vecs in groups for v in vecs])
    return table.integer_form()[1], [key for key, vecs in groups for _ in vecs]


def _condition3(l: LieSuperalgebra, datum: RootDatum) -> dict:
    """Condition 3: the brackets of opposite root spaces span the zero
    component.  In the weight basis (_weight_basis) the span takes the
    integer table row [b_i, b_j] of each opposite pair of weights once, as
    [b_j, b_i] = -+[b_i, b_j] on a super-anticommutative table; it leaks
    when a row has a term outside the zero component, which is the span of
    its basis vectors."""
    zero_wt = datum.zero_component.weight
    L, owner = _weight_basis(
        l, [(c.weight, c.basis) for c in datum.components + [datum.zero_component]])
    span = SparseRref(l.dim)
    idx: dict[tuple, list] = {}
    for j, wt in enumerate(owner):
        idx.setdefault(wt, []).append(j)
    leak = False
    for wt, rows in idx.items():
        for j in idx.get(tuple(-x for x in wt), ()) if wt > zero_wt else ():
            for i in rows:
                terms = L[i].get(j, ())
                if terms:
                    span.insert(dict(terms))
                    leak = leak or any(owner[k] != zero_wt for k, _ in terms)
    deficit = [k for k in idx.get(zero_wt, ()) if not span.contains({k: 1})]
    return {
        "passed": not deficit and not leak,
        "zero_component_dim": datum.zero_component.dim,
        "bracket_span_dim": span.rank,
        "deficit_count": len(deficit),
    }


class ZTrivialReport:
    """Outcome of check_z_trivial; witness is the offending basis index."""

    __slots__ = ("passed", "vacuous", "witness")

    def __init__(self, passed: bool, vacuous: bool = False, witness: int | None = None):
        self.passed, self.vacuous, self.witness = passed, vacuous, witness


def check_z_trivial(l: LieSuperalgebra, cover) -> ZTrivialReport:
    """Verify that the image of the cover's central element z acts trivially.

    Accepts a CoverEmbedding (vacuously true for psl and m11 covers, which
    carry no distinguished z) or an explicit element of L, bracketed with
    each basis element.  The witness is the first j with [z, b_j] != 0.
    """
    if isinstance(cover, CoverEmbedding):
        if cover.kind != "sl":
            return ZTrivialReport(passed=True, vacuous=True)
        ref = cover.reference
        zc = ref.provenance.get("z")
        if zc is None:
            return ZTrivialReport(passed=True, vacuous=True)
        z = sparse_apply(cover.images, zc)
    else:
        z = _sparse_element(l, cover)
    j = _first_noncentral(l.table.integer_form()[1], z)
    return ZTrivialReport(passed=True) if j is None else ZTrivialReport(passed=False, witness=j)


# ---------------------------------------------------------------------------
# 3-gradings
# ---------------------------------------------------------------------------


def three_grading(l: LieSuperalgebra, datum: RootDatum, style: str, h=None) -> ThreeGrading:
    """Partition root components into a 3-grading and verify closure.

    style 'height' (n >= 2): L(1) collects the unbarred-minus-barred root
    spaces per the A(n,n) pattern.  style 'sl2': parts are the 0, +2, -2
    eigenspaces of a designated even element h.  The closure (_closure)
    names the first (a, b) with [L(a), L(b)] outside L(a + b).
    """
    parts = {-1: [], 0: list(datum.zero_component.basis), 1: []}
    if style == "height":
        rank = len(datum.cartan.elements)
        if rank % 2 or rank < 4:
            raise BadParams("height style needs the rank-2n Cartan of A(n,n), n >= 2")
        n = rank // 2
        expected = expected_ann_roots(n, datum.cartan.diag_mats)
        for comp in datum.components:
            if comp.weight not in expected.weights:
                raise NotThreeGraded(
                    f"weight {comp.weight} is outside the A({n},{n}) pattern"
                )
            hs = expected.heights(comp.weight)
            if len(hs) != 1:
                raise NotThreeGraded(f"ambiguous height for weight {comp.weight}")
            parts[hs.pop()].extend(comp.basis)
    elif style == "sl2":
        if h is None:
            raise BadParams("sl2 style needs the designated even element h")
        hs = _sparse_element(l, h).items()
        for comp in datum.components + [datum.zero_component]:
            if not comp.basis:
                continue
            lam = None
            for v in comp.basis:
                img = _product(l.table, hs, v.items())
                for cand in (ZERO, TWO, -TWO):
                    if img == {i: cand * x for i, x in v.items() if cand}:
                        this = cand
                        break
                else:
                    raise NotThreeGraded(
                        "ad(h) does not act by 0, 2, -2 on a root component",
                        witness=comp.weight,
                    )
                if lam is None:
                    lam = this
                elif lam != this:
                    raise NotThreeGraded(
                        "ad(h) acts with mixed eigenvalues inside one component",
                        witness=comp.weight,
                    )
            # lam is 0 on the zero component: ad h = lam there is ruled out by
            # [h, c] lying in the nonzero weight spaces for a Cartan element c
            # (by [h_0, h_0] = 0 for the even part h_0 of h if there is none)
            if comp is not datum.zero_component:
                parts[0 if lam == 0 else (1 if lam == TWO else -1)].extend(comp.basis)
    else:
        raise BadParams(f"unknown three-grading style {style!r}")

    bad = _closure(l, parts)
    if bad is not None:
        a, b = bad
        if abs(a + b) > 1:
            raise NotThreeGraded(f"[L({a}),L({b})] is nonzero", witness=bad)
        raise NotThreeGraded(f"[L({a}),L({b})] escapes L({a + b})", witness=bad)
    return ThreeGrading(minus=parts[-1], zero=parts[0], plus=parts[1])


def _closure(l: LieSuperalgebra, parts: dict) -> tuple | None:
    """The first (a, b), in loop order, with [L(a), L(b)] outside L(a + b).

    One pass over the integer entries in the weight basis of the parts
    (_weight_basis, owner[j] = part of b_j): c_ij^k != 0 must put b_k in
    part owner[i] + owner[j]."""
    L, owner = _weight_basis(l, parts.items())
    bad = None
    for i, row in enumerate(L):
        a = owner[i]
        for j, terms in row.items():
            b = owner[j]
            if bad is None or (a, b) < bad:
                for k, _ in terms:
                    if owner[k] != a + b:
                        bad = a, b
                        break
    return bad
