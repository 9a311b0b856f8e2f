"""Spans and work counters around polarpart's public entry points.

The benchmark installs these wrappers at run time, from its own files; the
program's sources are not touched.  Three kinds of wrapper:

- span: records (id, name, start, end, parent span id, operation id) for
  every call, plus its call count and inclusive time;
- hot: an entry point called hundreds of thousands of times per run.  It
  takes part in self-time accounting and is counted and timed, but its
  calls are aggregated per name instead of stored one by one, which keeps
  the trace small and the overhead low;
- counted: the scalar incidence kernels, called millions of times.  Only
  their calls are counted; their time stays in the caller's self time.

A module's self time is the time its spans and hot calls cover minus the
time covered by their direct children.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict

# module -> function names wrapped as spans.  `verify` and `cli` import
# several `graphs` functions by name; install() rebinds those copies too.
SPANS = {
    "gf": ["make_field", "find_normal_element"],
    "adg": ["check_polarity", "count_absolute_bulk", "build_polarity_graph"],
    "partitions": ["scheme_partition", "class_key_sidecar"],
    "graphs": ["materialize", "contains_C4", "find_even_cycle", "even_cycle_free_upto",
               "girth", "pair_edge_matrix", "write_edge_list", "read_edge_list",
               "write_partition", "read_partition"],
    "verify": ["family_bundle", "verify_family", "verify_family_exhaustive",
               "verify_family_sampled", "verify_gh_original", "verdict",
               "_check_unique_edges", "luw_report", "_sampled_even_cycle"],
    "cli": ["main", "cmd_build", "cmd_partition", "cmd_verify", "cmd_report", "cmd_oracle"],
}
# (module, class) -> method names
HOT = {
    ("adg", "PolarityGraph"): ["neighbors_coords"],
    ("partitions", "PlaneScheme"): ["unique_edge", "loop_vertex", "class_members"],
    ("partitions", "GQScheme"): ["unique_edge", "loop_vertex", "class_members"],
    ("partitions", "GHScheme"): ["unique_edge", "loop_vertex", "class_members"],
}
COUNTED = {
    ("adg", "ADGSpec"): ["point_on", "line_through", "incident"],
    ("adg", "PolarityGraph"): ["is_absolute"],
}
# span names split by the cycle length argument k (second positional)
BY_CYCLE_LENGTH = {"find_even_cycle", "_sampled_even_cycle"}


def _cycle_name(base, args, kwargs):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return f"{base}.C{2 * k}"


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.op = 0                         # operation id stamped on spans
        self.spans = []                     # (id, name, start, end, parent, op)
        self.calls = defaultdict(int)       # name -> calls
        self.total_s = defaultdict(float)   # name -> inclusive seconds
        self.self_s = defaultdict(float)    # module -> self seconds
        self.bytes_written = 0
        self._stack = []                    # [child seconds, span id]
        self._ids = itertools.count()

    def timed(self, fn, name, record=True, name_of=None):
        module = name.split(".", 1)[0]
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if name_of is None else name_of(name, args, kwargs)
            parent = stack[-1][1] if stack else None
            sid = next(self._ids) if record else parent
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                calls[label] += 1
                total_s[label] += dur
                self_s[module] += dur - frame[0]
                if record:
                    self.spans.append((sid, label, start, end, parent, self.op))

        return functools.update_wrapper(wrapper, fn)

    def counted(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def count_bytes(self, write):
        """Wrap cli._write(path, text) to count the bytes the CLI writes."""
        def wrapper(path, text):
            self.bytes_written += len(text.encode())
            return write(path, text)

        return functools.update_wrapper(wrapper, write)

    def to_json(self):
        return {
            "spans": [[sid, name, start - self.t0, end - self.t0, parent, op]
                      for sid, name, start, end, parent, op in self.spans],
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "calls": dict(sorted(self.calls.items())),
            "total_s": dict(sorted(self.total_s.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "bytes_written": self.bytes_written,
        }


def _rebind(modules, original, wrapper):
    """Point every reference to `original` in the program's modules (module
    attributes and module-level dicts such as cli.COMMANDS) at `wrapper`."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if val is original:
                setattr(mod, attr, wrapper)
            elif isinstance(val, dict):
                for key, v in list(val.items()):
                    if v is original:
                        val[key] = wrapper


def install(tracer: Tracer, m):
    """Wrap the entry points of the modules in namespace `m` (attributes
    gf, graphs, adg, partitions, verify, cli, plus `package`)."""
    modules = [m.package, m.gf, m.graphs, m.adg, m.partitions, m.verify, m.cli]
    for modname, names in SPANS.items():
        mod = getattr(m, modname)
        for fname in names:
            original = getattr(mod, fname)
            label = f"{modname}.{fname.lstrip('_')}"
            name_of = _cycle_name if fname in BY_CYCLE_LENGTH else None
            _rebind(modules, original, tracer.timed(original, label, name_of=name_of))
    for (modname, clsname), names in HOT.items():
        cls = getattr(getattr(m, modname), clsname)
        for fname in names:
            setattr(cls, fname, tracer.timed(vars(cls)[fname], f"{modname}.{fname}",
                                             record=False))
    for (modname, clsname), names in COUNTED.items():
        cls = getattr(getattr(m, modname), clsname)
        for fname in names:
            setattr(cls, fname, tracer.counted(vars(cls)[fname], f"{modname}.{fname}"))
    m.cli._write = tracer.count_bytes(m.cli._write)
