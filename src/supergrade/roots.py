"""Weight-space decompositions and A(n,n) root-grading verification.

Weights are coordinate vectors of functional values against a provided
Cartan basis, not abstract functionals; the A(n,n) pattern is generated
against the same basis through diagonal-matrix representatives, which
avoids any root-system isomorphism search.  Components are sorted by
lexicographic weight and carry canonical RREF bases.

Inside the loops (cover checks, eigenspace refinement, grading conditions,
closure of a 3-grading) elements are sparse dicts {index: Fraction},
multiplied with superalg._sparse_product and combined with
exact.sparse_apply; ad(h) is given by sparse columns.  Dense Vec tuples
appear only in the public results: component bases, Cartan elements and
the parts of a ThreeGrading.
"""

from __future__ import annotations

from fractions import Fraction

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
    dense_to_sparse,
    eigenspace,
    kernel_from_rows,
    min_poly,
    poly_degree,
    rational_roots,
    sparse_apply,
    sparse_to_dense,
    sparse_transpose,
    unit_vec,
)
from .superalg import (
    Element,
    LieSuperalgebra,
    ThreeGrading,
    _sparse_element,
    _sparse_product,
    derived_subalgebra,
    homogeneous_parity,
)

TWO = Fraction(2)


class RootComponent:
    """One simultaneous eigenspace: weight, canonical basis, graded dims."""

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
    NotDiagonalizable.
    """
    d = len(cols)
    if d == 0:
        return []
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
    rows = sparse_transpose(cols, d)
    return [(lam, eigenspace(rows, lam)) for lam, _ in roots]


def weight_decomposition(l: LieSuperalgebra, cartan: CartanBasis) -> RootDatum:
    """Simultaneous rational-eigenspace decomposition of ad(h) for h in the
    Cartan basis.  Fails if some ad(h) has an irrational eigenvalue or is
    not diagonalizable on L."""
    from .constructors import _check_cartan

    _check_cartan(l, cartan)
    n = l.dim
    ent = l.table.entries
    comps = [((), [{i: ONE} for i in range(n)])]
    for t, h in enumerate(cartan.elements):
        witness = f"ad(cartan element {t})"
        hs = dense_to_sparse(h.coords).items()
        refined = []
        for wt, basis in comps:
            sub = SparseRref(n)
            for v in basis:
                sub.insert(v)
            rows = sub.basis()
            cols = []
            for v in rows:
                c = sub.coordinates(_sparse_product(ent, hs, v.items()))
                if c is None:
                    raise ValidationError(
                        f"{witness} does not preserve a previous eigenspace; "
                        "the Cartan basis is not closed under simultaneous refinement"
                    )
                cols.append({k: x for k, x in enumerate(c) if x})
            for lam, local in _eigen_split(cols, witness):
                ambient = [sparse_apply(rows, dense_to_sparse(lv)) for lv in local]
                refined.append((wt + (lam,), ambient))
        comps = refined

    components = []
    zero = None
    zero_wt = (ZERO,) * len(cartan.elements)
    total = 0
    for wt, basis in sorted(comps, key=lambda p: p[0]):
        sub = SparseRref(n)
        for v in basis:
            sub.insert(v)
        rows = sub.basis_dense()
        ev = od = 0
        for v in rows:
            p = homogeneous_parity(l.space, v)
            if p is None:
                raise ValidationError("weight-space basis vector is not homogeneous")
            ev += p == 0
            od += p == 1
        comp = RootComponent(wt, rows, ev, od)
        total += comp.dim
        if wt == zero_wt:
            zero = comp
        else:
            components.append(comp)
    if total != n:
        raise ValidationError("weight spaces do not fill the algebra")
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

    kind 'sl' or 'psl': images list the embedded basis of the reference
    copy of sl(n+1,n+1) or psl(n+1,n+1).  kind 'm11': images is a dict of
    the eight TKK generators e1, e2, x, y, e1~, e2~, x~, y~ of a certified
    M_{1,1}+ quadruple, from which a central cover of psl(2,2) is grown.
    """

    __slots__ = ("kind", "n", "images", "reference")

    def __init__(self, kind: str, n: int, images, reference: LieSuperalgebra | None = None):
        self.kind, self.n, self.images, self.reference = kind, n, images, reference


def identity_cover(l: LieSuperalgebra) -> CoverEmbedding:
    """The algebra as a cover of itself (for psl(n+1,n+1) instances, the
    only ones whose provenance holds the ambient sl(n+1,n+1))."""
    if "ambient_sl" not in l.provenance:
        raise BadParams("identity_cover needs a psl(n+1,n+1) instance")
    return CoverEmbedding("psl", l.provenance["n"], [unit_vec(l.dim, i) for i in range(l.dim)], l)


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
    images = [_sparse_element(l, v) for v in cover.images]
    sr = SparseRref(l.dim)
    for v in images:
        sr.insert(v)
    if sr.rank != ref.dim:
        raise NotHomomorphism("cover embedding is not injective")
    ent = l.table.entries
    for i in range(ref.dim):
        for j in range(i, ref.dim):
            expect = sparse_apply(images, dict(ref.table.entries.get((i, j), ())))
            if expect != _sparse_product(ent, images[i].items(), images[j].items()):
                raise NotHomomorphism(
                    f"embedding fails the homomorphism law on cover basis pair ({i},{j})"
                )
    h_ref = ref.provenance["cartan_h"]

    def push(coords) -> tuple:
        return sparse_to_dense(sparse_apply(images, dense_to_sparse(coords)), l.dim)

    cartan = CartanBasis(
        elements=[Element(push(e.coords), 0) for e in h_ref.elements],
        diag_mats=h_ref.diag_mats,
    )
    evidence = {
        "cover": ref.provenance.get("name", "cover"),
        "cover_dim": ref.dim,
        "cover_perfect": len(derived_subalgebra(ref)) == ref.dim,
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
        return {t: s * x for t, x in enumerate(matrix_unit_in_psl(psl22, r, c)) if x}

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
    images = {k: _sparse_element(l, v) for k, v in cover.images.items()}
    psl22, targets = _m11_psl_targets()
    nl, np_ = l.dim, psl22.dim
    ent, pent = l.table.entries, psl22.table.entries

    def aug_row(v: dict, p: dict) -> dict:
        row = dict(v)
        for t, c in p.items():
            row[nl + t] = c
        return row

    def product(a: tuple, b: tuple) -> tuple:
        """(v, p) . (v', p') in L x psl(2,2)."""
        return (_sparse_product(ent, a[0].items(), b[0].items()),
                _sparse_product(pent, a[1].items(), b[1].items()))

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

    psi_rank = SparseRref(np_)
    for _, p in parts:
        psi_rank.insert(p)
    if psi_rank.rank != np_:
        raise NotHomomorphism("generated cover does not map onto psl(2,2)")

    kern = kernel_from_rows(sparse_transpose([p for _, p in parts], np_), s_dim)
    for kv in kern:
        zl = sparse_apply([v for v, _ in parts], dense_to_sparse(kv)).items()
        for b, _ in parts:
            if _sparse_product(ent, zl, b.items()):
                raise NotHomomorphism("kernel of the cover map is not central")

    dsr = SparseRref(nl + np_, npivot=nl)
    for i, a in enumerate(parts):
        for b in parts[i:]:
            dsr.insert(aug_row(*product(a, b)))
    if dsr.rank != s_dim:
        raise NotHomomorphism("generated cover is not perfect")

    h1 = _sparse_product(ent, images["e1"].items(), images["e1~"].items())
    h2 = _sparse_product(ent, images["e2"].items(), images["e2~"].items())
    cartan = CartanBasis(
        elements=[Element(sparse_to_dense(h, nl), 0) for h in (h1, h2)],
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
    (3) the zero component is spanned by brackets of opposite root spaces.
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

    n = l.dim
    ent = l.table.entries
    sparse = {c.weight: [dense_to_sparse(v).items() for v in c.basis] for c in datum.components}
    span = SparseRref(n)
    for comp in datum.components:
        neg = sparse.get(tuple(-x for x in comp.weight))
        if neg is None:
            continue
        for va in sparse[comp.weight]:
            for vb in neg:
                span.insert(_sparse_product(ent, va, vb))
    zero = [dense_to_sparse(v) for v in datum.zero_component.basis]
    zero_sr = SparseRref(n)
    for v in zero:
        zero_sr.insert(v)
    deficit = [v for v in zero if not span.contains(v)]
    leak = [
        r for r in span.basis() if not zero_sr.contains(r)
    ]
    conditions["condition3"] = {
        "passed": not deficit and not leak,
        "zero_component_dim": datum.zero_component.dim,
        "bracket_span_dim": span.rank,
        "deficit_count": len(deficit),
    }
    passed = all(c["passed"] for c in conditions.values())
    return GradingReport(
        verdict="graded" if passed else "not_graded",
        conditions=conditions,
        matched_root_system=f"A({analysis.n},{analysis.n})" if passed else None,
        datum=datum,
    )


class ZTrivialReport:
    """Outcome of check_z_trivial; witness is the offending basis index."""

    __slots__ = ("passed", "vacuous", "witness")

    def __init__(self, passed: bool, vacuous: bool = False, witness: int | None = None):
        self.passed, self.vacuous, self.witness = passed, vacuous, witness


def check_z_trivial(l: LieSuperalgebra, cover) -> ZTrivialReport:
    """Verify that the image of the cover's central element z acts trivially.

    Accepts a CoverEmbedding (vacuously true for psl and m11 covers, which
    carry no distinguished z) or an explicit element of L.
    """
    if isinstance(cover, CoverEmbedding):
        if cover.kind != "sl":
            return ZTrivialReport(passed=True, vacuous=True)
        ref = cover.reference
        zc = ref.provenance.get("z")
        if zc is None:
            return ZTrivialReport(passed=True, vacuous=True)
        images = [_sparse_element(l, v) for v in cover.images]
        z = sparse_apply(images, dense_to_sparse(zc))
    else:
        z = _sparse_element(l, cover)
    ent = l.table.entries
    for j in range(l.dim):
        if _sparse_product(ent, z.items(), ((j, ONE),)):
            return ZTrivialReport(passed=False, witness=j)
    return ZTrivialReport(passed=True)


# ---------------------------------------------------------------------------
# 3-gradings
# ---------------------------------------------------------------------------


def three_grading(l: LieSuperalgebra, datum: RootDatum, style: str, h=None) -> ThreeGrading:
    """Partition root components into a 3-grading and verify closure.

    style 'height' (n >= 2): L(1) collects the unbarred-minus-barred root
    spaces per the A(n,n) pattern.  style 'sl2': parts are the 0, +2, -2
    eigenspaces of a designated even element h.
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
                v = dense_to_sparse(v)
                img = _sparse_product(l.table.entries, hs, v.items())
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
            key = 0 if lam == 0 else (1 if lam == TWO else -1)
            if comp is datum.zero_component:
                if key != 0:
                    raise NotThreeGraded("zero component escapes L(0)")
            else:
                parts[key].extend(comp.basis)
    else:
        raise BadParams(f"unknown three-grading style {style!r}")

    n = l.dim
    ent = l.table.entries
    sparse = {k: [dense_to_sparse(v) for v in parts[k]] for k in (-1, 0, 1)}
    spans = {}
    for k in (-1, 0, 1):
        sr = SparseRref(n)
        for v in sparse[k]:
            sr.insert(v)
        spans[k] = sr
    if sum(s.rank for s in spans.values()) != n:
        raise NotThreeGraded("parts do not sum to the whole algebra")
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            target = a + b
            for va in sparse[a]:
                for vb in sparse[b]:
                    prod = _sparse_product(ent, va.items(), vb.items())
                    if not prod:
                        continue
                    if target not in (-1, 0, 1):
                        raise NotThreeGraded(
                            f"[L({a}),L({b})] is nonzero", witness=(a, b)
                        )
                    if not spans[target].contains(prod):
                        raise NotThreeGraded(
                            f"[L({a}),L({b})] escapes L({target})", witness=(a, b)
                        )
    return ThreeGrading(minus=parts[-1], zero=parts[0], plus=parts[1])
