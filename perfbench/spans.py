"""Traced-run instrumentation: wrappers around the public cdgalab API.

``Tracer.install`` wraps every public function and public method defined in
the traced modules (plus the few special methods in ``EXTRA_METHODS``) and
rebinds the wrapper wherever a ``cdgalab`` module namespace, module-level
dict or class bound the original object.  The bindings are found at run time,
so a ``from .exactlin import kernel_basis`` added by a later refactor is still
traced.  ``Tracer.uninstall`` puts every original object back; untraced runs
time the unmodified program.

Each call records a span (layer, function, start, end, parent) in memory.
Layer self time is a span's duration minus the time covered by its child
spans, summed per module.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("exactlin", "graded", "cdga", "polyforms", "sullivan", "gluing", "localsys", "specseq", "cli")

# Special methods traced in addition to the public ones.
EXTRA_METHODS = {
    ("graded", "Element", "__mul__"),
    ("cdga", "DGMorphism", "__init__"),
    ("cli", "Problem", "__init__"),
}

# Entry points into Gaussian elimination; counted at the outermost one only.
ELIM_ENTRIES = {
    "exactlin.rref", "exactlin.rank", "exactlin.kernel_basis", "exactlin.solve",
    "exactlin.solve_many", "exactlin.column_space_basis", "exactlin.complement_basis",
    "exactlin.RowSpace.add", "exactlin.RowSpace.reduce",
}
PLUMBING = {
    "exactlin.QMatrix.matvec", "exactlin.QMatrix.matmul", "exactlin.QMatrix.from_cols",
    "exactlin.QMatrix.transpose", "exactlin.QMatrix.hstack", "exactlin.QMatrix.vstack",
}

# Per-layer call counters: metric name -> traced function names it counts.
CALL_COUNTERS = {
    "exactlin.plumbing_calls": PLUMBING,
    "graded.mul_calls": {"graded.Element.__mul__"},
    "graded.basis_calls": {"graded.FreeGCA.basis_in_degree"},
    "graded.derivation_calls": {"graded.apply_odd_derivation"},
    "cdga.truncate_calls": {"cdga.truncate"},
    "cdga.cohomology_calls": {"cdga.cohomology"},
    "cdga.product_calls": {"cdga.TruncatedDGA.multiply"},
    "cdga.morphism_calls": {"cdga.DGMorphism.__init__"},
    "sullivan.minimal_model_calls": {"sullivan.minimal_model"},
    "gluing.fiber_product_calls": {"gluing.fiber_product"},
    "gluing.mayer_vietoris_calls": {"gluing.mayer_vietoris"},
    "localsys.global_sections_calls": {"localsys.global_sections"},
    "localsys.locally_constant_calls": {"localsys.is_locally_constant"},
    "specseq.entry_calls": {"specseq.PageTower.entry"},
    "specseq.filtration_calls": {"specseq.skeletal_filtration"},
    "polyforms.forms_dga_calls": {"polyforms.forms_dga"},
    "polyforms.admissible_calls": {"polyforms.check_admissible_axioms"},
}

# Inclusive-time metrics of the CLI stages: metric -> traced functions.
CLI_STAGES = {
    "cli.parse_s": lambda name: name == "cli.Problem.__init__",
    "cli.task_s": lambda name: name.startswith("cli.task_"),
    "cli.emit_s": lambda name: name in ("cli.machine_section", "cli.human_section"),
}

SPAN_MARK = "__perfbench_span__"


def _traced_targets(lib):
    """(owner, attribute, qualified name, original) for everything to wrap."""
    for layer in LAYERS:
        mod = getattr(lib, layer)
        for attr, val in vars(mod).items():
            if getattr(val, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(val) and not attr.startswith("_"):
                yield mod, attr, f"{layer}.{attr}", val
            elif inspect.isclass(val) and not attr.startswith("_"):
                for name, member in vars(val).items():
                    if name.startswith("_") and (layer, attr, name) not in EXTRA_METHODS:
                        continue
                    if isinstance(member, (staticmethod, classmethod)) or inspect.isfunction(member):
                        yield val, name, f"{layer}.{attr}.{name}", member


class PassStats:
    """Everything the tracer measured during one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)
        self.elim_calls = 0
        self.elim_rowcols = 0
        self.elim_nnz = 0
        self.elim_max_rowcols = 0
        self.solve_rhs = 0
        self.generators = 0
        self.report_bytes = 0
        # spans: parallel arrays, one entry per call
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")


class Tracer:
    def __init__(self):
        self.stats = PassStats()
        self._stack: list = []  # [span index, seconds spent in child spans]
        self._active: Counter = Counter()  # per-function recursion depth
        self._elim_depth = 0
        self._restore: list = []

    # -- installation -------------------------------------------------------
    def install(self, lib) -> None:
        wrapped = {}
        for owner, attr, qual, original in _traced_targets(lib):
            if isinstance(original, (staticmethod, classmethod)):
                wrapper = type(original)(self._wrap(original.__func__, qual))
            else:
                wrapper = self._wrap(original, qual)
                wrapped[id(original)] = wrapper
            self._rebind(owner, attr, original, wrapper)
        # rebind every other module-level name or dict entry bound to an original
        for mod in lib.modules:
            for attr, val in list(vars(mod).items()):
                target = wrapped.get(id(val))
                if target is not None:
                    self._rebind(mod, attr, val, target)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        target = wrapped.get(id(item))
                        if target is not None:
                            self._restore.append((val, key, item))
                            val[key] = target

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def new_pass(self) -> PassStats:
        self.stats = PassStats()
        return self.stats

    # -- wrappers -------------------------------------------------------------
    def _wrap(self, fn, qual: str):
        layer = qual.split(".", 1)[0]
        stack, active = self._stack, self._active
        clock = time.perf_counter
        is_elim = qual in ELIM_ENTRIES
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer.stats
            nid = st.name_ids.get(qual)
            if nid is None:
                nid = st.name_ids[qual] = len(st.names)
                st.names.append(qual)
            index = len(st.span_start)
            st.span_name.append(nid)
            st.span_parent.append(stack[-1][0] if stack else -1)
            st.span_start.append(0.0)
            st.span_end.append(0.0)
            st.calls[qual] += 1
            if is_elim:
                if tracer._elim_depth == 0:
                    tracer._count_elimination(qual, args)
                tracer._elim_depth += 1
            frame = [index, 0.0]
            active[qual] += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[qual] -= 1
                if is_elim:
                    tracer._elim_depth -= 1
                dur = t1 - t0
                st.span_start[index] = t0
                st.span_end[index] = t1
                st.self_s[layer] += dur - frame[1]
                if not active[qual]:
                    st.incl_s[qual] += dur
                if stack:
                    stack[-1][1] += dur
            tracer._count_result(qual, result)
            return result

        setattr(wrapper, SPAN_MARK, qual)
        return wrapper

    def _count_elimination(self, qual: str, args) -> None:
        st = self.stats
        if qual == "exactlin.complement_basis":
            vectors, cols = args[0], args[1]
            rows = len(vectors)
            nnz = sum(1 for v in vectors for x in v if x)
        elif qual.startswith("exactlin.RowSpace."):
            space, v = args[0], args[1]
            rows, cols = space.rank + 1, space.dim
            nnz = sum(1 for x in v if x)
        else:
            m = args[0]
            rows, cols, nnz = m.rows, m.cols, len(m.entries)
            if qual == "exactlin.solve":
                st.solve_rhs += 1
            elif qual == "exactlin.solve_many":
                st.solve_rhs += len(args[1])
        st.elim_calls += 1
        st.elim_rowcols += rows * cols
        st.elim_nnz += nnz
        st.elim_max_rowcols = max(st.elim_max_rowcols, rows * cols)

    def _count_result(self, qual: str, result) -> None:
        if qual == "sullivan.minimal_model" and not self._active[qual]:
            self.stats.generators += len(result.model.gca.generators)
        elif qual == "cli.machine_section" and not self._active[qual]:
            self.stats.report_bytes += len(result.encode("utf-8"))

    # -- results ----------------------------------------------------------------
    def layer_metrics(self, st: PassStats, wall_s: float) -> dict:
        """Per-layer metric values of one traced pass."""
        out = {
            "exactlin.elim_calls": st.elim_calls,
            "exactlin.elim_rowcols": st.elim_rowcols,
            "exactlin.elim_nnz": st.elim_nnz,
            "exactlin.elim_max_rowcols": st.elim_max_rowcols,
            "exactlin.solve_rhs": st.solve_rhs,
            "sullivan.generators": st.generators,
            "cli.report_bytes": st.report_bytes,
        }
        for metric, names in CALL_COUNTERS.items():
            out[metric] = sum(st.calls[n] for n in names)
        for layer in LAYERS:
            if layer == "cli":
                continue
            out[f"{layer}.self_s"] = st.self_s[layer]
            out[f"{layer}.share"] = st.self_s[layer] / wall_s
        for metric, match in CLI_STAGES.items():
            out[metric] = sum(s for name, s in st.incl_s.items() if match(name))
        return out

    def write_spans(self, st: PassStats, path: Path) -> None:
        """Write one pass's layer-boundary spans as tab-separated lines.

        A span is kept when it has no parent or its caller lies in another
        layer; calls inside one layer count in its self time only.  Columns:
        id, id of the nearest kept ancestor (-1 for none), function, and start
        and end in seconds from the first span.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        names, layer = st.names, [n.split(".", 1)[0] for n in st.names]
        base = st.span_start[0] if len(st.span_start) else 0.0
        kept_ancestor = array("l")  # per span: itself if kept, else its nearest kept ancestor
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id\tparent\tfunction\tstart_s\tend_s\n")
            for i, (nid, parent) in enumerate(zip(st.span_name, st.span_parent)):
                up = kept_ancestor[parent] if parent >= 0 else -1
                if parent >= 0 and layer[st.span_name[parent]] == layer[nid]:
                    kept_ancestor.append(up)
                    continue
                kept_ancestor.append(i)
                fh.write(f"{i}\t{up}\t{names[nid]}\t"
                         f"{st.span_start[i] - base:.7f}\t{st.span_end[i] - base:.7f}\n")


def wrapped_attributes(lib) -> list[str]:
    """Names of cdgalab attributes that are still tracing wrappers."""
    found = []
    for mod in lib.modules:
        for attr, val in vars(mod).items():
            if hasattr(val, SPAN_MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(val, dict):
                found += [f"{mod.__name__}.{attr}[{k!r}]" for k, v in val.items()
                          if hasattr(v, SPAN_MARK)]
            elif inspect.isclass(val):
                for name, member in vars(val).items():
                    inner = getattr(member, "__func__", member)
                    if hasattr(inner, SPAN_MARK):
                        found.append(f"{mod.__name__}.{attr}.{name}")
    return found
