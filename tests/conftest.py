"""Shared fixtures: the expensive algebras are built once per session."""

import pytest

from supergrade import constructors as C
from supergrade import jordan as J


@pytest.fixture(scope="session")
def sl21():
    return C.construct_sl(2, 1)


@pytest.fixture(scope="session")
def sl22():
    return C.construct_sl(2, 2)


@pytest.fixture(scope="session")
def sl33():
    return C.construct_sl(3, 3)


@pytest.fixture(scope="session")
def psl22():
    return C.construct_psl(1)


@pytest.fixture(scope="session")
def psl33():
    return C.construct_psl(2)


@pytest.fixture(scope="session")
def gl33():
    return C.construct_gl(3, 3)


@pytest.fixture(scope="session")
def m11():
    return C.construct_jordan("M11")


@pytest.fixture(scope="session")
def mplus2():
    return C.construct_jordan("Mplus", 2)


@pytest.fixture(scope="session")
def jp2():
    return C.construct_jordan("JP", 2)


@pytest.fixture(scope="session")
def jq2():
    return C.construct_jordan("JQ", 2)


@pytest.fixture(scope="session")
def jp4():
    return C.construct_jordan("JP", 4)


@pytest.fixture(scope="session")
def jq4():
    return C.construct_jordan("JQ", 4)


@pytest.fixture(scope="session")
def tkk_m11(m11):
    return J.tkk(m11)


@pytest.fixture(scope="session")
def tkk_jp4(jp4):
    return J.tkk(jp4)


JP4_M11_ELEMENTS = {
    # the explicit matrix-unit quadruple inside JP(4): e1 = a11 + a22,
    # e2 = a33 + a44, x = b13 + b24, y = 2(c13 + c24)
    "e1": [1 if i in (0, 5) else 0 for i in range(32)],
    "e2": [1 if i in (10, 15) else 0 for i in range(32)],
    "x": [1 if i in (17, 20) else 0 for i in range(32)],
    "y": [2 if i in (24, 28) else 0 for i in range(32)],
}

JQ4_M11_ELEMENTS = {
    # same e1, e2; x = b13 + b24, y = 2(b31 + b42) in the JQ(4) basis
    "e1": [1 if i in (0, 5) else 0 for i in range(32)],
    "e2": [1 if i in (10, 15) else 0 for i in range(32)],
    "x": [1 if i in (18, 23) else 0 for i in range(32)],
    "y": [2 if i in (24, 29) else 0 for i in range(32)],
}


@pytest.fixture(scope="session")
def coeff_algebras():
    return {
        "field": C.construct_assoc("field"),
        "dual_numbers": C.construct_assoc("dual_numbers"),
        "grassmann1": C.construct_assoc("grassmann", 1),
        "matrix11": C.construct_assoc("matrix_super", (1, 1)),
    }


@pytest.fixture(scope="session")
def slA_instances(coeff_algebras):
    return {
        name: C.construct_sl_A(3, 3, a) for name, a in coeff_algebras.items()
    }
