"""The three seeded workloads: closed-loop pipelines of supergrade commands.

One client runs each command after the previous one has ended, because
later commands read what earlier ones wrote.  Every file the benchmark
prepares, and every file a ``construct`` command writes, is relabelled
(``relabel.py``) with a permutation and signs drawn from the workload seed
before another command reads it; files written by the other commands pass
unchanged.  The expected answers below are written out by hand: they come
from the acceptance suite and the README, or, where nothing there fixes a
value, from the answer the program gave when this benchmark was written
(marked "pinned").

Each workload has a ``session`` that the harness times and repeats, and
may have a ``prepare`` step, run once per benchmark run and not timed.
"""

from __future__ import annotations

from relabel import write_elements_file, write_vec_file

# The explicit M(1,1)+ quadruple inside JP(4) in the constructor's basis:
# e1 = a11 + a22, e2 = a33 + a44, x = b13 + b24, y = 2(c13 + c24).
JP4_M11 = {
    "e1": [1 if i in (0, 5) else 0 for i in range(32)],
    "e2": [1 if i in (10, 15) else 0 for i in range(32)],
    "x": [1 if i in (17, 20) else 0 for i in range(32)],
    "y": [2 if i in (24, 28) else 0 for i in range(32)],
}
TKK_JP4_DIM = 127


def _written(name, dim, kind=None) -> dict:
    out = {"written": name, "dim": dim}
    if kind:
        out["kind"] = kind
    return out


# ---------------------------------------------------------------------------
# slA-grading: construct sl_{3,3}(Grassmann(1)) and verify its A(2,2)-grading
# ---------------------------------------------------------------------------


def slA_grading(s) -> None:
    s.cmd("construct-slA",
          ["construct", "slA", "3", "3", "grassmann", "1",
           "--out", "slA_raw.sca", "--cover-out", "cover_raw.json"],
          expect=_written("slA_raw.sca", 70, "lie"), outs=["slA_raw.sca", "cover_raw.json"])
    rl = s.relabel_sca("slA_raw.sca", "slA.sca", "slA")
    if rl:
        s.relabel_cover("cover_raw.json", "cover.json", rl)
    s.cmd("check-slA", ["check", "slA.sca"],
          expect={"valid": True, "kind": "lie", "dim": 70})
    s.cmd("verify-grading-slA",
          ["verify-grading", "slA.sca", "--cover", "sl33", "--cover-map", "cover.json",
           "--out", "grading.json"],
          expect={"verdict": "graded", "matched_root_system": "A(2,2)",
                  "z_action_trivial": True},
          outs=["grading.json"])
    s.cmd("three-grading-slA",
          ["three-grading", "slA.sca", "--cover", "sl33", "--cover-map", "cover.json",
           "--style", "height"],
          expect={"style": "height", "parts": {
              "minus": {"even_dim": 9, "odd_dim": 9},
              "zero": {"even_dim": 17, "odd_dim": 17},
              "plus": {"even_dim": 9, "odd_dim": 9}}})


# ---------------------------------------------------------------------------
# jordan-tkk: JP(4) through TKK and back, plus the Jordan/associative checks
# ---------------------------------------------------------------------------


def jordan_tkk(s) -> None:
    s.cmd("construct-jp4", ["construct", "jp", "4", "--out", "jp4_raw.sca"],
          expect=_written("jp4_raw.sca", 32, "jordan"), outs=["jp4_raw.sca"])
    rl = s.relabel_sca("jp4_raw.sca", "jp4.sca", "jp4")
    if rl:
        write_elements_file(s.path("m11_elems.json"), JP4_M11, rl)
        write_vec_file(s.path("e1.vec"), rl.vector(JP4_M11["e1"]))
        # TKK layout: T(-1) copies of J first, T(1) copies last; e and f are
        # the unit's copies in T(1) and T(-1).
        unit = s.table("jp4.sca").unit
        pad = [0] * (TKK_JP4_DIM - len(unit))
        write_vec_file(s.path("e.vec"), pad + list(unit))
        write_vec_file(s.path("f.vec"), list(unit) + pad)
    s.cmd("check-jp4", ["check", "jp4.sca"],
          expect={"valid": True, "kind": "jordan", "dim": 32})
    s.cmd("certify-m11", ["certify-m11", "jp4.sca", "--elements", "m11_elems.json"],
          expect={"passed": True})
    # pinned: the Peirce dimensions of JP(4) for e1 = a11 + a22
    s.cmd("peirce", ["peirce", "jp4.sca", "--idempotent", "@e1.vec"],
          expect={"dims": [8, 16, 8]})
    s.cmd("tkk-jp4",
          ["tkk", "jp4.sca", "--m11", "m11_elems.json", "--cover-out", "tkk_cover.json",
           "--out", "tkk.sca"],
          expect=_written("tkk.sca", TKK_JP4_DIM), outs=["tkk.sca", "tkk_cover.json"])
    s.cmd("verify-grading-tkk",
          ["verify-grading", "tkk.sca", "--cover", "m11", "--cover-map", "tkk_cover.json"],
          expect={"verdict": "graded", "matched_root_system": "A(1,1)",
                  "z_action_trivial": True})
    # the round trip gives back the relabelled input, structure constants,
    # parities and unit alike, so the canonical bytes must be equal
    s.cmd("jordan-from-grading",
          ["jordan-from-grading", "tkk.sca", "--e", "@e.vec", "--f", "@f.vec",
           "--out", "back.sca"],
          expect=_written("back.sca", 32), outs=["back.sca"],
          check=lambda: s.same_bytes("back.sca", "jp4.sca"))
    s.cmd("construct-m44", ["construct", "assoc", "matrix_super", "4", "4",
                            "--out", "m44_raw.sca"],
          expect=_written("m44_raw.sca", 64, "assoc"), outs=["m44_raw.sca"])
    s.relabel_sca("m44_raw.sca", "m44.sca", "m44")
    s.cmd("check-m44", ["check", "m44.sca"],
          expect={"valid": True, "kind": "assoc", "dim": 64})


# ---------------------------------------------------------------------------
# cohomology: H^2, universal central extensions and isogeny verdicts
# ---------------------------------------------------------------------------

# (input name, construct argv); the tkk inputs are built from the others
COHOMOLOGY_INPUTS = [
    ("psl22", ["construct", "psl", "1"]),
    ("psl33", ["construct", "psl", "2"]),
    ("psl44", ["construct", "psl", "3"]),
    ("sl22", ["construct", "sl", "2", "2"]),
    ("sl33", ["construct", "sl", "3", "3"]),
    ("sl44", ["construct", "sl", "4", "4"]),
    ("sl21", ["construct", "sl", "2", "1"]),
    ("m11", ["construct", "m11"]),
    ("jp4", ["construct", "jp", "4"]),
    ("tkk_m11", ["tkk", "m11.sca"]),
    ("tkk_jp4", ["tkk", "jp4.sca"]),
]

# psl(n+1,n+1), sl(n+1,n+1), H^2 (even, odd), dim of the universal central
# extension; psl(4,4) has dim 62, so its uce of dim 63 gives H^2 = (1, 0)
PSL = [("psl22", "sl22", (3, 0), 17), ("psl33", "sl33", (1, 0), 35),
       ("psl44", "sl44", (1, 0), 63)]


def cohomology_prepare(ctx) -> None:
    for name, argv in COHOMOLOGY_INPUTS:
        raw = ctx.cached(name, argv)
        ctx.relabel_sca(raw, f"{name}.sca", name)


def cohomology(s) -> None:
    for psl, sl, (even, odd), uce_dim in PSL:
        s.cmd(f"h2-{psl}", ["h2", f"{psl}.sca", "--out", f"h2_{psl}.json"],
              expect={"h2_even": even, "h2_odd": odd}, outs=[f"h2_{psl}.json"])
        s.cmd(f"uce-{psl}", ["uce", f"{psl}.sca", "--out", f"uce_{psl}.sca"],
              expect={"written": f"uce_{psl}.sca", "dim": uce_dim,
                      "added_central_dims": even + odd},
              outs=[f"uce_{psl}.sca"])
        s.cmd(f"isogenous-uce-{psl}", ["isogenous", f"uce_{psl}.sca", f"{sl}.sca"],
              expect={"verdict": "equal"})
    s.cmd("fingerprint-uce-psl22", ["fingerprint", "uce_psl22.sca"],
          expect={"dims": [9, 8], "center_dim": 3, "h2": [0, 0],
                  # pinned: uce(psl(2,2)) is perfect
                  "derived_series": [17], "root_multiset": None})
    s.cmd("isogenous-tkk-m11", ["isogenous", "tkk_m11.sca", "psl22.sca"],
          expect={"verdict": "equal"})
    s.cmd("isogenous-sl21", ["isogenous", "psl22.sca", "sl21.sca"], code=1,
          expect={"verdict": "different"})
    # pinned: tkk(JP(4)) has no central extensions
    s.cmd("h2-tkk-jp4", ["h2", "tkk_jp4.sca"], expect={"h2_even": 0, "h2_odd": 0})


WORKLOADS = {
    "slA-grading": (None, slA_grading),
    "jordan-tkk": (None, jordan_tkk),
    "cohomology": (cohomology_prepare, cohomology),
}
