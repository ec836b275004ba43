"""Dimension counts, distinguished elements and axioms of every factory."""

import random
from fractions import Fraction

import pytest

from supergrade import constructors as C
from supergrade.errors import BadParams, WrongAlgebra
from supergrade.exact import unit_vec, vec
from supergrade.superalg import (
    center,
    derived_rref,
    validate_assoc,
    validate_jordan,
    validate_lie,
)

F = Fraction


def test_gl_dimensions():
    assert C.construct_gl(1, 0).dim == 1
    assert C.construct_gl(1, 1).dim == 4
    assert C.construct_gl(3, 3).dim == 36
    gl10 = C.construct_gl(1, 0)
    assert not gl10.table.entries  # abelian


def test_gl_z_central(gl33):
    z = gl33.provenance["z"]
    for j in range(gl33.dim):
        assert not any(gl33.product_vec(z, unit_vec(gl33.dim, j)))


def test_sl_dimensions(sl21, sl22, sl33):
    assert C.construct_sl(2, 0).dim == 3
    assert sl21.dim == 8
    assert sl22.dim == 15
    assert sl33.dim == 35


def test_sl22_contains_central_z(sl22):
    z = sl22.provenance["z"]
    gl = sl22.provenance["ambient_gl"]
    assert C.supertrace(gl, gl.provenance["z"]) == 0
    for j in range(sl22.dim):
        assert not any(sl22.product_vec(z, unit_vec(sl22.dim, j)))


def test_psl_dimensions(psl22, psl33):
    assert (psl22.space.even_dim, psl22.space.odd_dim) == (6, 8)
    assert psl33.dim == 34
    assert center(psl22) == []
    assert center(psl33) == []


def test_constructor_outputs_validate(sl21, sl22, psl22, m11, jp2, jq2):
    validate_lie(C.construct_gl(2, 1).table)
    validate_lie(sl21.table)
    validate_lie(sl22.table)
    validate_lie(psl22.table)
    for kind, params in [("field", None), ("dual_numbers", None),
                         ("grassmann", 2), ("matrix_super", (1, 1))]:
        validate_assoc(C.construct_assoc(kind, params).table)
    validate_jordan(m11.table)
    validate_jordan(jp2.table)
    validate_jordan(jq2.table)
    validate_jordan(C.construct_jordan("Mplus", 1).table)


def test_assoc_dimensions():
    assert C.construct_assoc("field").dim == 1
    assert C.construct_assoc("dual_numbers").dim == 2
    g1 = C.construct_assoc("grassmann", 1)
    assert g1.dim == 2 and g1.parity == (0, 1)
    assert not any(g1.product_vec((0, 1), (0, 1)))  # xi^2 = 0
    m = C.construct_assoc("matrix_super", (1, 1))
    assert m.dim == 4 and (m.space.even_dim, m.space.odd_dim) == (2, 2)


def test_assoc_bad_params():
    with pytest.raises(BadParams):
        C.construct_assoc("grassmann", 0)
    with pytest.raises(BadParams):
        C.construct_assoc("nope")


def test_sl_A_dimensions(slA_instances):
    assert slA_instances["field"].dim == 35
    assert slA_instances["dual_numbers"].dim == 70
    assert slA_instances["grassmann1"].dim == 70
    assert slA_instances["matrix11"].dim == 143


def test_sl_A_field_is_sl(sl33, slA_instances):
    # same subspace of gl(3,3), possibly with different canonical signs
    from supergrade.exact import SparseRref, dense_to_sparse

    l = slA_instances["field"]
    sr = SparseRref(36)
    for v in l.provenance["basis_in_ambient"]:
        sr.insert(dense_to_sparse(v))
    assert sr.rank == 35
    for v in sl33.provenance["embedding"]:
        assert sr.contains(dense_to_sparse(v))


def test_sl_A_grassmann_parity_swap(slA_instances):
    l = slA_instances["grassmann1"]
    assert (l.space.even_dim, l.space.odd_dim) == (35, 35)


def test_jordan_dimensions(m11, mplus2, jp4, jq4):
    assert m11.dim == 4
    assert (mplus2.space.even_dim, mplus2.space.odd_dim) == (8, 8)
    assert (jp4.space.even_dim, jp4.space.odd_dim) == (16, 16)
    assert (jq4.space.even_dim, jq4.space.odd_dim) == (16, 16)
    mp1 = C.construct_jordan("Mplus", 1)
    assert mp1.dim == 4


def test_m11_products(m11):
    e1, e2, x, y = (unit_vec(4, i) for i in range(4))
    assert m11.product_vec(x, y) == (F(1), F(-1), F(0), F(0))
    assert m11.product_vec(y, x) == (F(-1), F(1), F(0), F(0))
    assert m11.product_vec(e1, x) == (F(0), F(0), F(1, 2), F(0))
    assert m11.product_vec(e1, e1) == e1
    assert not any(m11.product_vec(e1, e2))
    assert m11.unit == (F(1), F(1), F(0), F(0))


def test_supertrace(gl33):
    units = gl33.provenance["gl"]["units"]
    e11 = unit_vec(36, units.index((0, 0)))
    e1b1b = unit_vec(36, units.index((3, 3)))
    assert C.supertrace(gl33, e11) == 1
    assert C.supertrace(gl33, e1b1b) == -1
    assert C.supertrace(gl33, gl33.provenance["z"]) == 0


def test_supertrace_vanishes_on_brackets(gl33):
    rng = random.Random(20240817)
    for _ in range(100):
        x = vec(rng.randint(-3, 3) for _ in range(36))
        y = vec(rng.randint(-3, 3) for _ in range(36))
        assert C.supertrace(gl33, gl33.product_vec(x, y)) == 0


def test_supertrace_needs_gl(sl21):
    with pytest.raises(WrongAlgebra):
        C.supertrace(sl21, unit_vec(8, 0))


def test_cartan_provenance(sl22, sl33, psl33):
    assert len(sl33.provenance["cartan_hprime"]) == 5
    assert len(sl33.provenance["cartan_h"]) == 4
    assert len(sl22.provenance["cartan_h"]) == 2
    assert len(psl33.provenance["cartan_h"]) == 4
    for d in psl33.provenance["cartan_h"].diag_mats:
        assert sum(d[:3]) == 0 and sum(d[3:]) == 0


def test_matrix_unit_in_psl(psl22):
    e12 = C.matrix_unit_in_psl(psl22, 0, 1)
    e21 = C.matrix_unit_in_psl(psl22, 1, 0)
    h = psl22.product_vec(e12, e21)
    assert psl22.product_vec(h, e12) == tuple(2 * c for c in e12)


def test_perfectness(sl33, psl22, psl33):
    for alg in (sl33, psl22, psl33):
        assert derived_rref(alg).rank == alg.dim
