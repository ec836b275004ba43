"""Seeded relabelling of SCA files and of the side inputs that refer to them.

A relabelling of a basis b_0..b_{n-1} is a permutation ``perm`` and signs
``signs``: new basis vector i is ``signs[i] * b[perm[i]]``.  Coordinates
transform as ``x_new[i] = signs[i] * x_old[perm[i]]`` and structure
constants as ``c'(i,j,l) = s_i s_j s_l c(perm[i], perm[j], perm[l])``.
Every answer the benchmark checks (validity, H^2, gradings, dimensions,
isogeny verdicts) is invariant under this change of basis, so the same
expected values hold for every seed while the program sees different bytes.

This module reads and writes SCA text on its own, without importing the
program under test, so the inputs do not depend on the code being measured.
Labels are dropped: after sign flips they would name the wrong vectors.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Table:
    kind: str
    parity: tuple
    unit: tuple | None
    entries: dict  # (i, j, k) -> Fraction, 0-based

    @property
    def dim(self) -> int:
        return len(self.parity)


def read_sca(text: str) -> Table:
    kind = None
    parity = None
    unit = None
    entries = {}
    for raw in text.split("\n"):
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        key = tok[0]
        if key == "kind":
            kind = tok[1]
        elif key == "parity":
            parity = tuple(int(b) for b in tok[1:])
        elif key == "unit":
            u = [Fraction(0)] * len(parity)
            u[int(tok[1]) - 1] = Fraction(1)
            unit = tuple(u)
        elif key == "unitv":
            unit = tuple(Fraction(t) for t in tok[1:])
        elif key == "sc":
            i, j, k = (int(t) - 1 for t in tok[1:4])
            entries[(i, j, k)] = Fraction(tok[4])
        elif key == "end":
            break
        elif key not in ("SCA/1", "dim", "label"):
            raise ValueError(f"unexpected SCA directive {key!r}")
    if kind is None or parity is None:
        raise ValueError("SCA text lacks kind or parity")
    return Table(kind, parity, unit, entries)


def write_sca(t: Table) -> str:
    """Canonical SCA text, byte-compatible with the program's own writer."""
    out = ["SCA/1", f"kind {t.kind}", f"dim {t.dim}",
           "parity " + " ".join(str(p) for p in t.parity)]
    if t.unit is not None:
        support = [(i, c) for i, c in enumerate(t.unit) if c != 0]
        if len(support) == 1 and support[0][1] == 1:
            out.append(f"unit {support[0][0] + 1}")
        else:
            out.append("unitv " + " ".join(str(c) for c in t.unit))
    for (i, j, k), c in sorted(t.entries.items()):
        out.append(f"sc {i + 1} {j + 1} {k + 1} {c}")
    out.append("end")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Relabel:
    perm: tuple
    signs: tuple

    @classmethod
    def from_seed(cls, seed: int, tag: str, dim: int) -> "Relabel":
        """The relabelling for one input; ``tag`` names the input, so each
        input of a workload gets its own permutation from the one seed."""
        rng = random.Random(f"{seed}/{tag}")
        perm = list(range(dim))
        rng.shuffle(perm)
        signs = tuple(rng.choice((1, -1)) for _ in range(dim))
        return cls(tuple(perm), signs)

    def vector(self, v) -> tuple:
        if len(v) != len(self.perm):
            raise ValueError(f"vector of length {len(v)} for a basis of {len(self.perm)}")
        return tuple(s * Fraction(v[p]) for p, s in zip(self.perm, self.signs))

    def table(self, t: Table) -> Table:
        if t.dim != len(self.perm):
            raise ValueError(f"table of dim {t.dim} for a basis of {len(self.perm)}")
        inv = [0] * t.dim
        for new, old in enumerate(self.perm):
            inv[old] = new
        s = self.signs
        entries = {}
        for (a, b, c), coeff in t.entries.items():
            i, j, k = inv[a], inv[b], inv[c]
            entries[(i, j, k)] = coeff * s[i] * s[j] * s[k]
        unit = None if t.unit is None else self.vector(t.unit)
        return Table(t.kind, tuple(t.parity[p] for p in self.perm), unit, entries)


def rationals(v) -> list:
    return [str(Fraction(c)) for c in v]


def relabel_cover_file(src, dst, rl: Relabel) -> None:
    """Cover maps hold image vectors in the target algebra's coordinates:
    a list under ``images`` for sl/psl covers, a dict of the eight
    generators for m11 covers."""
    data = json.loads(src.read_text(encoding="utf-8"))
    images = data["images"]
    if isinstance(images, dict):
        data["images"] = {k: rationals(rl.vector(v)) for k, v in images.items()}
    else:
        data["images"] = [rationals(rl.vector(v)) for v in images]
    dst.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_elements_file(dst, elements: dict, rl: Relabel) -> None:
    """An ``--elements``/``--m11`` JSON file with each vector relabelled."""
    data = {k: rationals(rl.vector(v)) for k, v in elements.items()}
    dst.write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")


def write_vec_file(dst, v) -> None:
    """A ``@file`` vector: comma-separated rationals."""
    dst.write_text(",".join(rationals(v)) + "\n", encoding="utf-8")
