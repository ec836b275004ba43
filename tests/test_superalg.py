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
    derived_subalgebra,
    homogeneous_parity,
    quotient_central,
    tensor_lie_assoc,
    validate_assoc,
    validate_jordan,
    validate_lie,
)
from tests.oracles import (
    Matrix,
    ad_matrix,
    basis_element,
    derived_subalgebra_all_brackets,
    kernel,
    rref,
    subalgebra_from_generators,
)

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
    assert center(psl22) == []
    ab = LieSuperalgebra(abelian_table([0, 0, 1]))
    assert len(center(ab)) == 3


def test_derived_examples(sl33):
    assert len(derived_subalgebra(C.construct_gl(2, 1))) == 8
    assert derived_subalgebra(LieSuperalgebra(abelian_table([0, 1]))) == []
    assert len(derived_subalgebra(sl33)) == 35


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
    basis = derived_subalgebra(l)
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
        assert len(kern) == len(zbasis) == len(rref(Matrix(kern + zbasis))[1])
    assert len(center(quotient_central(sl22, [sl22.provenance["z"]]))) == 0
    # quotient by nothing is a copy
    same = quotient_central(sl22, [])
    assert same.table.entries == sl22.table.entries


def test_quotient_rejects_noncentral(sl22):
    with pytest.raises(NotCentral):
        quotient_central(sl22, [basis_element(sl22, 0).coords])


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
    e = C.matrix_unit_in_psl(psl22, 0, 1)
    ebar = C.matrix_unit_in_psl(psl22, 2, 3)
    f = C.matrix_unit_in_psl(psl22, 1, 0)
    fbar = C.matrix_unit_in_psl(psl22, 3, 2)
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
            out = sl21.product_vec(unit_vec(sl21.dim, i), unit_vec(sl21.dim, j))
            if any(out):
                assert homogeneous_parity(space, out) == (space.parity[i] + space.parity[j]) % 2


def test_table_rejects_parity_violation():
    with pytest.raises(ValidationError):
        StructureTable(SuperSpace(2, (0, 1)), "lie", {(0, 0): ((1, F(1)),)})


def test_table_rejects_duplicate_targets():
    with pytest.raises(ValidationError):
        StructureTable(
            SuperSpace(2, (0, 0)), "lie", {(0, 1): ((0, F(1)), (0, F(2)))}
        )


def test_integer_form_of_m11(m11):
    s, L = m11.table.integer_form()
    assert s == 2
    assert L[0][2] == ((2, 1),)  # e1.x = x/2
    assert L[2][3] == ((0, 2), (1, -2))  # x.y = e1 - e2
    assert len(L) == m11.dim
    assert {(i, j): tuple((k, F(v, s)) for k, v in row)
            for i, cols in enumerate(L) for j, row in cols.items()} == m11.table.entries


def test_center_contained_in_ad_kernels(sl22):
    z = center(sl22)
    for v in z:
        for j in range(sl22.dim):
            assert not any(sl22.product_vec(v, unit_vec(sl22.dim, j)))


def test_derived_is_ideal(sl21):
    gl21 = C.construct_gl(2, 1)
    dbasis = derived_subalgebra(gl21)
    from supergrade.exact import SparseRref, dense_to_sparse

    sr = SparseRref(gl21.dim)
    for v in dbasis:
        sr.insert(dense_to_sparse(v))
    for i in range(gl21.dim):
        for v in dbasis:
            prod = gl21.product_vec(unit_vec(gl21.dim, i), v)
            assert sr.contains(dense_to_sparse(prod))


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
