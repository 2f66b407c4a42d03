"""Spans around the program's public functions, for the traced run only.

`Tracer.install` replaces each listed function by a wrapper that records
(id, name, start, end, parent, instance, pass).  A function called from
inside its own module is reached through that module's global name, so
the wrapper replaces the name in the defining module and in every
`nilsect` module that imported it.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# module -> public functions; the per-layer metrics are
# <module>.<function>.calls and <module>.<function>.self_s
LAYERS = {
    "instances": ("parse_instance_text", "InstanceFile.build"),
    "numfield": ("embed_heisenberg",),
    "matlie": ("is_two_step", "product_of_word", "log_unipotent", "bch_log"),
    "linsolve": (
        "eliminate",
        "support_nonneg",
        "lp_feasible",
        "hnf_solve",
        "ilp_feasible_nonneg",
        "cone_intersect_dim",
    ),
    "wordcraft": ("realize_word", "delta_table"),
    "intersect": ("build_condition_space", "decide_intersection", "extract_witness"),
    "orbit": ("decide_orbit", "decide_easy", "decide_hard", "extract_orbit_witness"),
    "oracle": ("bfs_oracle",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.instance = None
        self.pass_no = None

    def _wrap(self, name, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.spans.append(
                    (sid, name, start, end, parent, self.instance, self.pass_no)
                )

        return traced

    def install(self):
        modules = [
            mod
            for key, mod in sys.modules.items()
            if key == "nilsect" or key.startswith("nilsect.")
        ]
        for mod_name, functions in LAYERS.items():
            home = sys.modules[f"nilsect.{mod_name}"]
            for qual in functions:
                name = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(home, cls_name)
                    setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
                    continue
                original = getattr(home, qual)
                traced = self._wrap(name, original)
                for mod in modules:
                    if mod.__dict__.get(qual) is original:
                        setattr(mod, qual, traced)

    def metrics(self, passes, scale_of):
        """Median over passes of each function's calls and self time, with
        self time = duration minus the time covered by direct child spans,
        multiplied by scale_of[(pass, instance)]."""
        child = {}
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        table = {}
        for sid, name, start, end, _, instance, pass_no in self.spans:
            row = table.setdefault((pass_no, name), [0, 0.0])
            row[0] += 1
            row[1] += ((end - start) - child.get(sid, 0.0)) * scale_of[(pass_no, instance)]
        out = {}
        for name in SPAN_NAMES:
            rows = [table.get((p, name), [0, 0.0]) for p in range(passes)]
            out[f"{name}.calls"] = statistics.median_low(r[0] for r in rows)
            out[f"{name}.self_s"] = statistics.median(r[1] for r in rows)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, instance, pass_no in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "instance": instance,
                            "pass": pass_no,
                        }
                    )
                    + "\n"
                )
