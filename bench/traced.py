"""Tracing launcher: one supergrade CLI command with spans around its layers.

Usage: ``python bench/traced.py SPANS_FILE RUN_ID <supergrade arguments>``

The launcher imports every ``supergrade`` module, replaces each public
function of the traced modules (and the methods in ``METHODS``) with a
wrapper that records a span, in every ``supergrade.*`` namespace that holds
it, then calls ``supergrade.cli.main``.  The program's source is not
changed.  Spans are kept in memory and appended to SPANS_FILE as JSON lines
``{name, start, end, parent, run}`` when the command ends; ``parent`` is
the line number (0-based, within the run) of the enclosing span.  Counter
lines ``{counter, value, run}`` follow.

``layer_metrics`` turns such a file into per-layer numbers: inclusive time
and calls per function, self time per module, and the counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("sca", "superalg", "_axioms", "constructors", "roots", "jordan",
                  "cohomology", "exact")
METHODS = (("exact", "Matrix", "mul_vec"), ("exact", "SparseRref", "insert"))


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent index or None)
        self.stack: list = [None]
        self.counters: dict = defaultdict(int)

    def wrap(self, fn, name: str, observe=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def span(self, name: str, start: float, end: float) -> None:
        self.names.append(name)
        self.spans.append((len(self.names) - 1, start, end, None))

    def install(self) -> None:
        import supergrade

        modules = [importlib.import_module(f"supergrade.{m.name}")
                   for m in pkgutil.iter_modules(supergrade.__path__)
                   if not m.name.startswith("__")]
        observers = {
            "sca.parse_sca": lambda a, r: self.count("sca.bytes_in", len(a[0].encode())),
            "sca.write_sca": lambda a, r: self.count("sca.bytes_out", len(r.encode())),
            "exact.SparseRref.insert":
                lambda a, r: self.count("exact.SparseRref.insert.useful", r is not None),
        }
        replaced = {}
        for mod in modules:
            short = mod.__name__.split(".", 1)[1]
            if short not in TRACED_MODULES:
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    full = f"{short}.{name}"
                    replaced[id(obj)] = self.wrap(obj, full, observers.get(full))
        for mod in [supergrade, *modules]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"supergrade.{short}"), cls_name)
            full = f"{short}.{cls_name}.{meth}"
            setattr(cls, meth, self.wrap(vars(cls)[meth], full, observers.get(full)))

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def write(self, path: str, run: str) -> None:
        # formatted by hand: json.dumps per span would add about 3 us a span
        names = [json.dumps(n) for n in self.names]
        run_text = json.dumps(run)
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(
                f'{{"name":{names[nid]},"start":{start!r},"end":{end!r},'
                f'"parent":{"null" if parent is None else parent},"run":{run_text}}}\n'
                for nid, start, end, parent in self.spans)
            for name, value in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "value": value, "run": run}) + "\n")


def main() -> int:
    spans_path, run = sys.argv[1], sys.argv[2]
    rec = Recorder()
    start = time.perf_counter()
    from supergrade import cli

    rec.span("cli.import", start, time.perf_counter())
    rec.install()
    main_fn = rec.wrap(cli.main, "cli.main")
    try:
        return main_fn(sys.argv[3:])
    finally:
        rec.write(spans_path, run)


def _metric_module(span_name: str) -> str:
    return span_name.split(".", 1)[0].lstrip("_")


def layer_metrics(path) -> dict:
    """Per-layer numbers from one spans file (all runs in it summed).

    ``<module>.<function>.s`` is inclusive wall time, not counting a span
    nested in a span of the same name twice; ``.calls`` counts spans;
    ``<module>.self_s`` is span time minus the time of direct child spans;
    counters keep their names.  A leading underscore of a module name is
    dropped (``_axioms`` -> ``axioms``).
    """
    runs = defaultdict(list)
    counters = defaultdict(int)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counter" in rec:
                counters[rec["counter"]] += rec["value"]
            else:
                runs[rec["run"]].append(rec)
    out = defaultdict(float)
    for spans in runs.values():
        child_time = [0.0] * len(spans)
        for sp in spans:
            if sp["parent"] is not None:
                child_time[sp["parent"]] += sp["end"] - sp["start"]
        for idx, sp in enumerate(spans):
            name, dur = sp["name"], sp["end"] - sp["start"]
            if name == "cli.import":
                out["cli.import_s"] += dur
                continue
            key = _metric_module(name) + name[name.index("."):]
            out[key + ".calls"] += 1
            out[_metric_module(name) + ".self_s"] += dur - child_time[idx]
            parent = sp["parent"]
            while parent is not None and spans[parent]["name"] != name:
                parent = spans[parent]["parent"]
            if parent is None:
                out[key + ".s"] += dur
    for name, value in counters.items():
        out[name] += value
    calls = out.get("exact.SparseRref.insert.calls", 0)
    out["exact.SparseRref.insert.useful_ratio"] = (
        out.pop("exact.SparseRref.insert.useful", 0) / calls if calls else 0.0)
    return dict(out)


if __name__ == "__main__":
    sys.exit(main())
