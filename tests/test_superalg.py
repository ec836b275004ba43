"""Structure tables, validators and generic algebra operations."""

from fractions import Fraction
from pathlib import Path

import pytest

from supergrade import constructors as C
from supergrade import exact
from supergrade.errors import AxiomViolation, MissingUnit, NotCentral, ValidationError
from supergrade.cohomology import uce
from supergrade.exact import dense_to_sparse, sparse_apply, sparse_to_dense, unit_vec
from supergrade.jordan import symmetrized
from supergrade.sca import parse_sca
from supergrade.superalg import (
    LieSuperalgebra,
    StructureTable,
    SuperSpace,
    bracket,
    center,
    derived_rref,
    homogeneous_parity,
    quotient_central,
    restricted_table,
    validate_assoc,
    validate_jordan,
    validate_lie,
)
from tests.oracles import (
    Matrix,
    ad_matrix,
    assert_stored_form,
    basis_element,
    dense_rows,
    derived_subalgebra_all_brackets,
    kernel,
    quotient_central_by_reduction,
    rref,
    sparse_product,
    subalgebra_from_generators,
    tensor_lie_assoc,
)
from tests.test_roots import _rescaled

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"


def abelian_table(parities):
    return StructureTable(SuperSpace(len(parities), tuple(parities)), "lie", {})


def sl2_table():
    # basis (e, h, f)
    entries = {
        (0, 1): ((0, F(-2)),),
        (1, 0): ((0, F(2)),),
        (0, 2): ((1, F(1)),),
        (2, 0): ((1, F(-1)),),
        (1, 2): ((2, F(-2)),),
        (2, 1): ((2, F(2)),),
    }
    return StructureTable(SuperSpace(3, (0, 0, 0)), "lie", entries)


def test_validate_lie_accepts_sl21(sl21):
    validate_lie(sl21.table)


def test_validate_lie_accepts_abelian():
    validate_lie(abelian_table([0, 0, 1]))


def test_validate_lie_rejects_bad_anticommutativity():
    # [x, x] != 0 for an even x
    t = StructureTable(SuperSpace(2, (0, 0)), "lie", {(0, 0): ((1, F(1)),)})
    with pytest.raises(AxiomViolation) as err:
        validate_lie(t)
    assert err.value.axiom == "super_anticommutativity"


def test_validate_lie_rejects_bad_jacobi():
    # anticommutative but [e,f] = h with [h, e] = 0, [h, f] = 2f breaks Jacobi
    entries = {
        (0, 2): ((1, F(1)),),
        (2, 0): ((1, F(-1)),),
        (1, 2): ((2, F(-2)),),
        (2, 1): ((2, F(2)),),
    }
    t = StructureTable(SuperSpace(3, (0, 0, 0)), "lie", entries)
    with pytest.raises(AxiomViolation) as err:
        validate_lie(t)
    assert err.value.axiom == "super_jacobi"


def test_validate_assoc_grassmann_and_field():
    validate_assoc(C.construct_assoc("grassmann", 1).table)
    validate_assoc(C.construct_assoc("grassmann", 2).table)
    validate_assoc(C.construct_assoc("field").table)


def test_validate_assoc_broken_unit():
    # unit row sends 1 * b2 to 0
    entries = {(0, 0): ((0, F(1)),)}
    t = StructureTable(
        SuperSpace(2, (0, 0)), "assoc", entries, unit=(F(1), F(0))
    )
    with pytest.raises(MissingUnit):
        validate_assoc(t)


def test_validate_assoc_requires_unit():
    with pytest.raises(MissingUnit):
        validate_assoc(StructureTable(SuperSpace(1, (0,)), "assoc", {(0, 0): ((0, F(1)),)}))


def test_validate_jordan_rejects_full_matrix_product():
    # the associative product of M(1,1) relabeled jordan is not supercommutative
    m = C.construct_assoc("matrix_super", (1, 1))
    t = StructureTable(m.table.space, "jordan", dict(m.table.entries), unit=m.unit)
    with pytest.raises(AxiomViolation) as err:
        validate_jordan(t)
    assert err.value.axiom == "super_commutativity"


def test_validate_jordan_rejects_non_power_associative():
    # commutative unital with a.a = b, a.b = a, b.b = 0:
    # (a.a).a).a = b while (a.a).(a.a) = 0, so the Jordan identity fails
    entries = {
        (0, 0): ((0, F(1)),),
        (0, 1): ((1, F(1)),),
        (1, 0): ((1, F(1)),),
        (0, 2): ((2, F(1)),),
        (2, 0): ((2, F(1)),),
        (1, 1): ((2, F(1)),),
        (1, 2): ((1, F(1)),),
        (2, 1): ((1, F(1)),),
    }
    t = StructureTable(
        SuperSpace(3, (0, 0, 0)), "jordan", entries, unit=(F(1), F(0), F(0))
    )
    with pytest.raises(AxiomViolation) as err:
        validate_jordan(t)
    assert err.value.axiom == "super_jordan"


def test_bracket_zero_and_sl2():
    l = LieSuperalgebra(sl2_table())
    zero = bracket(l, (0, 0, 0), (1, 2, 3))
    assert not any(zero.coords)
    ef = bracket(l, basis_element(l, 0), basis_element(l, 2))
    assert ef.coords == (F(0), F(1), F(0))  # [e,f] = h
    assert ef.parity == 0


def test_bracket_gl11():
    gl = C.construct_gl(1, 1)
    x = bracket(gl, basis_element(gl, 1), basis_element(gl, 2))
    assert x.coords == (F(1), F(0), F(0), F(1))  # e11 + e1b1b


def test_bracket_dimension_mismatch():
    from supergrade.errors import DimensionMismatch

    gl = C.construct_gl(1, 1)
    with pytest.raises(DimensionMismatch):
        bracket(gl, (1, 0), (0, 1, 0, 0))


def test_element_parity_declaration(sl21):
    from supergrade.errors import ValidationError

    even = sl21.element(unit_vec(8, 0), parity=0)
    assert even.parity == 0
    with pytest.raises(ValidationError):
        sl21.element(unit_vec(8, 0), parity=1 - sl21.parity[0])


def test_ad_matrix_sl2():
    l = LieSuperalgebra(sl2_table())
    adh = ad_matrix(l, basis_element(l, 1))
    assert adh.data[0][0] == 2 and adh.data[2][2] == -2 and adh.data[1][1] == 0


def test_ad_of_zero():
    l = LieSuperalgebra(sl2_table())
    assert ad_matrix(l, (0, 0, 0)) == type(ad_matrix(l, (0, 0, 0))).zeros(3, 3)


def test_center_examples(psl22):
    gl22 = C.construct_gl(2, 2)
    zc = center(gl22)
    assert len(zc) == 1
    assert zc[0] == gl22.provenance["z"]
    assert dense_rows(zc, gl22.dim) == [tuple(F(k in (0, 5, 10, 15)) for k in range(16))]
    assert center(psl22) == []
    ab = LieSuperalgebra(abelian_table([0, 0, 1]))
    assert len(center(ab)) == 3


def test_derived_examples(sl33):
    assert derived_rref(C.construct_gl(2, 1)).rank == 8
    assert derived_rref(LieSuperalgebra(abelian_table([0, 1]))).basis() == []
    assert derived_rref(sl33).rank == 35


@pytest.mark.parametrize("name, perfect", [
    ("uce_psl44", True), ("psl22", True), ("gl22", False), ("gl33 x grassmann1", False)])
def test_derived_subalgebra_stops_at_full_rank(name, perfect, monkeypatch):
    l = {"uce_psl44": lambda: uce(C.construct_psl(3)).extended,
         "psl22": lambda: C.construct_psl(1),
         "gl22": lambda: C.construct_gl(2, 2),
         "gl33 x grassmann1": lambda: tensor_lie_assoc(C.construct_gl(3, 3),
                                                       C.construct_assoc("grassmann", 1)),
         }[name]()
    inserts, insert = [], exact.SparseRref.insert
    monkeypatch.setattr(exact.SparseRref, "insert",
                        lambda self, row: inserts.append(1) or insert(self, row))
    basis = derived_rref(l).basis()
    early = len(inserts)
    assert basis == derived_subalgebra_all_brackets(l)
    assert (len(basis) == l.dim) == perfect
    # a perfect algebra stops inserting once its brackets span it
    assert (early < len(inserts) - early) == perfect
    if name == "uce_psl44":
        assert (early, len(inserts) - early) == (140, 512)


def test_quotient_central(sl22, sl33, psl22):
    gl22 = LieSuperalgebra(parse_sca((FIXTURES / "gl22.sca").read_text()))
    u = uce(psl22).extended  # a 3-dimensional center, even and odd
    for l, qdim in ((sl22, 14), (sl33, 34), (gl22, 15), (u, 14)):
        zbasis = center(l)
        q = quotient_central(l, zbasis)
        assert q.dim == qdim
        validate_lie(q.table)
        # the sparse projection is a homomorphism onto q with kernel <zbasis>
        cols = q.provenance["projection"]
        images = [sparse_to_dense(c, q.dim) for c in cols]
        for i in range(l.dim):
            for j in range(l.dim):
                prod = dense_to_sparse(l.product_vec(unit_vec(l.dim, i), unit_vec(l.dim, j)))
                got = sparse_to_dense(sparse_apply(cols, prod), q.dim)
                assert got == q.product_vec(images[i], images[j]), (l, i, j)
        pm = Matrix.from_cols(images)
        assert len(rref(pm)[1]) == q.dim
        kern = kernel(pm)
        zdense = dense_rows(zbasis, l.dim)
        assert len(kern) == len(zbasis) == len(rref(Matrix(kern + zdense))[1])
    assert len(center(quotient_central(sl22, [sl22.provenance["z"]]))) == 0
    # quotient by nothing is a copy
    same = quotient_central(sl22, [])
    assert same.table.entries == sl22.table.entries


def _quotient_cases(sl22, sl33, psl22):
    gl22 = LieSuperalgebra(parse_sca((FIXTURES / "gl22.sca").read_text()))
    # thirds and halves on the basis: the center's RREF and the reduced
    # entries carry denominators, and the quotient's lcm is not sl33's
    thirds = _rescaled(sl33, [F(2, 3) if i % 2 else F(1, 2) if i % 3 else F(1)
                              for i in range(sl33.dim)])
    return [("sl22", sl22), ("sl33", sl33), ("sl44", C.construct_sl(4, 4)), ("gl22", gl22),
            ("uce_psl22", uce(psl22).extended), ("sl33_thirds", thirds)]


def test_quotient_copies_what_the_reduction_keeps(sl22, sl33, psl22):
    for name, l in _quotient_cases(sl22, sl33, psl22):
        zbasis = center(l)
        got = quotient_central(l, zbasis)
        want = quotient_central_by_reduction(l, zbasis)
        assert list(got.table.entries.items()) == list(want.table.entries.items()), name
        assert got.provenance == want.provenance, name
        assert (got.space.parity, got.space.labels) == (want.space.parity, want.space.labels)
        # the integer form handed over is the one the checking constructor
        # builds, and the one _canonical keeps at any scale
        assert_stored_form(got.table)


def test_quotient_reports_the_reduction_errors(sl22, psl22):
    u = uce(psl22).extended
    cases = [(sl22, [{0: F(1)}]),
             (sl22, [sl22.provenance["z"], {3: F(1)}]),
             # b_0 + b_3 fails against b_3 before b_0 in the order of its
             # support; the error names the smallest failing index
             (sl22, [{0: F(1), 3: F(1)}]),
             (u, [{k: F(1) for k in range(u.dim)}])]
    for l, zbasis in cases:
        with pytest.raises(NotCentral) as got:
            quotient_central(l, zbasis)
        with pytest.raises(NotCentral) as want:
            quotient_central_by_reduction(l, zbasis)
        assert str(got.value) == str(want.value)


def test_quotient_rejects_noncentral(sl22):
    with pytest.raises(NotCentral):
        quotient_central(sl22, [{0: F(1)}])


def test_explicit_zero_values_are_outside_the_support():
    # a sparse row that carries a zero value is the row without it: on
    # gl(1,1), with parities (0, 1, 1, 0), a zero at the odd e_12 once made
    # each of these calls read e_11 as mixed
    gl = C.construct_gl(1, 1)
    assert homogeneous_parity(gl.space, {0: F(1), 1: F(0)}) == 0
    assert homogeneous_parity(gl.space, {1: F(1), 0: F(0)}) == 1
    with_zero = restricted_table(gl, [{0: F(1), 1: F(0)}, {3: F(1)}])[0]
    without = restricted_table(gl, [{0: F(1)}, {3: F(1)}])[0]
    assert with_zero.integer_form() == without.integer_form()
    assert with_zero.space.parity == without.space.parity == (0, 0)
    with_zero = quotient_central(gl, [{0: F(1), 3: F(1), 1: F(0)}])
    without = quotient_central(gl, [{0: F(1), 3: F(1)}])
    assert with_zero.table.integer_form() == without.table.integer_form()
    assert with_zero.space.parity == without.space.parity
    assert with_zero.provenance == without.provenance


def test_tensor_with_field_is_gl():
    gl = C.construct_gl(2, 1)
    t = tensor_lie_assoc(gl, C.construct_assoc("field"))
    assert t.dim == gl.dim
    assert t.table.entries == gl.table.entries


def test_tensor_producto_sign():
    # [e_12 (x) xi, e_2 1b (x) 1] = -(e_1 1b (x) xi) in gl(3,3) (x) Grassmann(1)
    gl = C.construct_gl(3, 3)
    lam = C.construct_assoc("grassmann", 1)
    t = tensor_lie_assoc(gl, lam)
    units = gl.provenance["gl"]["units"]
    na = lam.dim

    def tvec(r, c, s):
        out = [F(0)] * t.dim
        out[units.index((r, c)) * na + s] = F(1)
        return tuple(out)

    got = t.product_vec(tvec(0, 1, 1), tvec(1, 3, 0))
    assert got == tuple(-x for x in tvec(0, 3, 1))
    # xi^2 = 0 kills [e_12 (x) xi, e_23 (x) xi]
    assert not any(t.product_vec(tvec(0, 1, 1), tvec(1, 2, 1)))


def test_tensor_producto_sign_exhaustive():
    # the Koszul sign against every homogeneous pair of Grassmann(1)
    # coefficients and all distinct index triples
    gl = C.construct_gl(2, 2)
    lam = C.construct_assoc("grassmann", 1)
    t = tensor_lie_assoc(gl, lam)
    units = gl.provenance["gl"]["units"]
    par = gl.provenance["gl"]["unit_parity"]
    idx_par = [0, 0, 1, 1]
    na = lam.dim
    d = 4
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if len({i, j, k}) != 3:
                    continue
                for s in range(na):
                    for u in range(na):
                        x = [F(0)] * t.dim
                        x[units.index((i, j)) * na + s] = F(1)
                        y = [F(0)] * t.dim
                        y[units.index((j, k)) * na + u] = F(1)
                        got = t.product_vec(tuple(x), tuple(y))
                        prod_su = lam.product_vec(
                            unit_vec(na, s), unit_vec(na, u)
                        )
                        sign = -1 if (lam.parity[s] and (idx_par[j] + idx_par[k]) % 2) else 1
                        want = [F(0)] * t.dim
                        for r, cv in enumerate(prod_su):
                            if cv:
                                want[units.index((i, k)) * na + r] = sign * cv
                        assert got == tuple(want), (i, j, k, s, u)


def test_subalgebra_from_generators(psl22):
    assert subalgebra_from_generators(psl22, []) == []
    e, ebar, f, fbar = (sparse_to_dense(C.matrix_unit_in_psl(psl22, r, c), psl22.dim)
                        for r, c in ((0, 1), (2, 3), (1, 0), (3, 2)))
    diag_e = tuple(a + b for a, b in zip(e, ebar))
    diag_f = tuple(a + b for a, b in zip(f, fbar))
    span = subalgebra_from_generators(psl22, [diag_e, diag_f])
    assert len(span) == 3
    full = subalgebra_from_generators(psl22, [unit_vec(14, i) for i in range(14)])
    assert len(full) == 14


def test_parity_homogeneity_of_products(sl21):
    space = sl21.space
    for i in range(sl21.dim):
        for j in range(sl21.dim):
            out = dense_to_sparse(sl21.product_vec(unit_vec(sl21.dim, i), unit_vec(sl21.dim, j)))
            if out:
                assert homogeneous_parity(space, out) == (space.parity[i] + space.parity[j]) % 2


def test_table_rejects_parity_violation():
    with pytest.raises(ValidationError):
        StructureTable(SuperSpace(2, (0, 1)), "lie", {(0, 0): ((1, F(1)),)})


def test_table_rejects_duplicate_targets():
    with pytest.raises(ValidationError):
        StructureTable(
            SuperSpace(2, (0, 0)), "lie", {(0, 1): ((0, F(1)), (0, F(2)))}
        )


@pytest.mark.parametrize("entries, message", [
    ({(0.5, 1): ((1, F(1)),)}, r"entry index \(0.5,1\) out of range"),
    ({(0, 1): ((1.0, F(1)),)}, "entry target 1.0 out of range"),
    ({(0, "1"): ((1, F(1)),)}, "entry index"),
    ({(0, 1): ((1, 0.1),)}, r"entry \(0,1,1\) coefficient 0.1 is not an int or a Fraction"),
    ({(0, 1): ((1, 1.0),)}, "is not an int or a Fraction"),
    ({(0, 1): ((1, "1/2"),)}, "is not an int or a Fraction"),
])
def test_table_rejects_malformed_input(entries, message):
    # an index that is not an int, or a coefficient that is neither an int
    # nor a Fraction, is rejected before it reaches the parity lookup or the
    # integer form (a float would turn 0.1 into 3602879701896397 / 2^55)
    with pytest.raises(ValidationError, match=message):
        StructureTable(SuperSpace(2, (0, 0)), "lie", entries)


def test_table_accepts_int_and_fraction_coefficients():
    t = StructureTable(SuperSpace(2, (0, 0)), "lie", {(0, 1): ((1, 3),), (1, 0): ((1, F(-3, 2)),)})
    assert t.integer_form() == (2, [{1: ((1, 6),)}, {0: ((1, -3),)}])
    assert t.entries == {(0, 1): ((1, F(3)),), (1, 0): ((1, F(-3, 2)),)}


def test_integer_form_of_m11(m11):
    s, L = m11.table.integer_form()
    assert s == 2
    assert L[0][2] == ((2, 1),)  # e1.x = x/2
    assert L[2][3] == ((0, 2), (1, -2))  # x.y = e1 - e2
    assert len(L) == m11.dim
    assert {(i, j): tuple((k, F(v, s)) for k, v in row)
            for i, cols in enumerate(L) for j, row in cols.items()} == m11.table.entries


def test_center_contained_in_ad_kernels(sl22):
    z = dense_rows(center(sl22), sl22.dim)
    for v in z:
        for j in range(sl22.dim):
            assert not any(sl22.product_vec(v, unit_vec(sl22.dim, j)))


def test_derived_is_ideal(sl21):
    gl21 = C.construct_gl(2, 1)
    dbasis = derived_rref(gl21).basis()
    from supergrade.exact import SparseRref

    sr = SparseRref(gl21.dim)
    for v in dbasis:
        sr.insert(v)
    for i in range(gl21.dim):
        for v in dbasis:
            assert sr.contains(sparse_product(gl21, {i: F(1)}, v))


def test_tensor_and_quotient_outputs_validate():
    # construction soundness: validate_lie accepts tensor and quotient outputs,
    # and validate_jordan the symmetrized algebras.  The coefficient algebras
    # are every kind the CLI builds, so super_symmetrized runs with sign -1
    # and +1 on noncommutative and odd coefficients.
    gl21 = C.construct_gl(2, 1)
    for kind, params in [("field", None), ("dual_numbers", None), ("grassmann", 1),
                         ("grassmann", 2), ("matrix_super", (1, 1)),
                         ("matrix_super", (2, 1)), ("matrix_super", (0, 2))]:
        a = C.construct_assoc(kind, params)
        validate_lie(tensor_lie_assoc(gl21, a).table)
        validate_jordan(symmetrized(a).table)
    gl22 = C.construct_gl(2, 2)
    q = quotient_central(gl22, [gl22.provenance["z"]])
    validate_lie(q.table)
