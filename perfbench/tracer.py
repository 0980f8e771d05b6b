"""Outside-in tracing of lrlab's layers, and the metrics derived from spans.

The benchmark wraps lrlab's public functions from outside the package: each
wrapper is installed on the module attribute its caller looks up at call
time (`lattice.commutator`, `dynamics.spectral_norm`, `numpy.linalg.eigvalsh`,
...), so no file under `src/` changes.  A span is `[name, start, end, parent,
attrs]`; spans are kept in memory and written once the workload has finished.

Two hooks are installed in every run, traced or not, because the end-to-end
metrics and the output checks need them: the time the first model build
returns (the end of set-up) and the tables `count_chains_dp` returns (chain
counts are never written to an artifact).  They cost one extra Python call
per model build and per chain table.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict

# (span name, module the caller looks the function up in, attribute,
#  further modules that bound the same function at import, key in ATTRS)
TARGETS = (
    ("models.build", "lrlab.models", "build_tfim", (), "dim"),
    ("models.build", "lrlab.models", "build_commuting_ising", (), "dim"),
    ("models.build", "lrlab.models", "build_dicke_chain", (), "dim"),
    ("models.full_hamiltonian", "lrlab.models", "full_hamiltonian",
     ("lrlab.dynamics",), None),
    ("lattice.adjacency", "lrlab.lattice", "noncommuting_adjacency", (), None),
    ("lattice.constants", "lrlab.lattice", "compute_bound_constants", (), None),
    ("lattice.observable_conditions", "lrlab.lattice", "observable_conditions",
     (), None),
    ("lattice.union_norm", "lrlab.lattice", "operator_norm_on_union", (),
     "union_dim"),
    ("lattice.triple", "lrlab.lattice", "triple_commutator_norm", (), "nonzero"),
    ("operators.embed", "lrlab.operators", "embed_dense",
     ("lrlab.lattice", "lrlab.models", "lrlab.dynamics"), None),
    ("operators.embed", "lrlab.operators", "embed_sparse", ("lrlab.dynamics",),
     None),
    ("operators.commutator", "lrlab.operators", "commutator",
     ("lrlab.lattice", "lrlab.dynamics"), "n"),
    ("operators.spectral_norm", "lrlab.operators", "spectral_norm",
     ("lrlab.lattice", "lrlab.dynamics"), "n"),
    ("operators.eigvalsh", "numpy.linalg", "eigvalsh", (), None),
    ("chains.dp", "lrlab.chains", "count_chains_dp", (), "order"),
    ("bounds.series", "lrlab.bounds", "series_bound", (), None),
    ("bounds.terms_needed", "lrlab.bounds", "series_terms_needed", (), None),
    ("bounds.closed_form", "lrlab.bounds", "closed_form_bound", (), None),
    ("dynamics.sweep", "lrlab.dynamics", "commutator_norm_sweep", (), "points"),
    ("dynamics.decompose", "lrlab.dynamics", "decompose", (), None),
    ("dynamics.verify", "lrlab.dynamics", "verify_bound", (), None),
    ("config.parse", "lrlab.config", "parse_config", ("lrlab.cli",), None),
    ("reporting.write", "lrlab.reporting", "write_csv", ("lrlab.cli",), "bytes"),
    ("reporting.write", "lrlab.reporting", "write_json", ("lrlab.cli",), "bytes"),
)

BUILDERS = ("build_tfim", "build_commuting_ising", "build_dicke_chain")
NONZERO_TOL = 1e-12  # lattice.NONCOMMUTING_TOL


def _union_dim(args):
    model, ops = args[0], args[1]
    union = set().union(*(op.support.sites for op in ops))
    dim = 1
    for s in union:
        dim *= model.site_dims[s]
    return dim


ATTRS = {
    # Not `hilbert_dim`, whose numpy product wraps to 0 past 63 qubits.
    "dim": lambda args, out: {"dim": float(math.prod(out.site_dims))},
    "union_dim": lambda args, out: {"dim": _union_dim(args)},
    "nonzero": lambda args, out: {"nonzero": out > NONZERO_TOL},
    "n": lambda args, out: {"n": len(getattr(args[0], "matrix", args[0]))},
    "order": lambda args, out: {"order": out.n_max},
    "points": lambda args, out: {"points": len(out.points)},
    "bytes": lambda args, out: {"bytes": out.stat().st_size},
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, out)
            return out

        return traced


class Probe:
    """The hooks every run carries: end of set-up and the chain tables."""

    def __init__(self):
        self.setup_done = None
        self.chains = []

    def _on_build(self, fn):
        def built(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.setup_done is None:
                self.setup_done = time.monotonic()
            return out

        return built

    def _on_chains(self, fn):
        def counted(*args, **kwargs):
            table = fn(*args, **kwargs)
            self.chains.append({
                "start": table.start,
                "target": list(table.target.sites),
                "n_max": table.n_max,
                "counts": [table.counts[n] for n in range(table.n_max + 1)],
            })
            return table

        return counted


def _replace(module_names, attr, make):
    """Replace `attr` in each module by `make(current)`, one wrapper per
    distinct function so a function bound under several names shares it."""
    made = {}
    for mod_name in module_names:
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr)
        if id(fn) not in made:
            made[id(fn)] = make(fn)
        setattr(mod, attr, made[id(fn)])


def install(probe: Probe, tracer: Tracer | None = None) -> list:
    """Install the probe hooks, and the span wrappers when `tracer` is given.

    Returns the trace targets that could not be found (renamed or removed in
    the package); their metrics then read 0.  A missing probe target raises,
    because set-up time and the chain checks depend on it.
    """
    missing = []
    if tracer is not None:
        for name, mod_name, attr, also, attrs in TARGETS:
            mods = (mod_name,) + also
            try:
                for m in mods:
                    getattr(importlib.import_module(m), attr)
            except AttributeError:
                missing.append(f"{mod_name}.{attr}")
                continue
            _replace(mods, attr, lambda fn, n=name, a=attrs: tracer.wrap(
                n, fn, ATTRS.get(a)))
    for attr in BUILDERS:
        _replace(("lrlab.models",), attr, probe._on_build)
    _replace(("lrlab.chains",), "count_chains_dp", probe._on_chains)
    return missing


# ---------------------------------------------------------------- analysis


def self_times(spans) -> list:
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _ancestors(spans, i):
    parent = spans[i][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced process (all but the process ones).

    `_s` metrics are inclusive time in calls to the function, counting a
    span only when no enclosing span has the same name; `_calls` count every
    call.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(float)
    attr_max = defaultdict(float)
    norm_in_sweep = 0.0
    for i, (name, start, end, _, attrs) in enumerate(spans):
        calls[name] += 1
        ancestors = set(_ancestors(spans, i))
        if name not in ancestors:
            total[name] += end - start
        if name == "operators.spectral_norm" and "dynamics.sweep" in ancestors:
            norm_in_sweep += end - start
        for key, val in (attrs or {}).items():
            k = f"{name}.{key}"
            if key == "n":
                attr_sum[k] += float(val) ** 3
            else:
                attr_sum[k] += float(val)
            attr_max[k] = max(attr_max[k], float(val))
    selfs = self_times(spans)
    sweep_self = sum(s for s, sp in zip(selfs, spans) if sp[0] == "dynamics.sweep")
    triples = calls["lattice.triple"]
    return {
        "models.build_s": total["models.build"],
        "models.full_hamiltonian_s": total["models.full_hamiltonian"],
        "models.hilbert_dim": attr_max["models.build.dim"],
        "lattice.adjacency_s": total["lattice.adjacency"],
        "lattice.adjacency_calls": calls["lattice.adjacency"],
        "lattice.constants_s": total["lattice.constants"],
        "lattice.observable_conditions_s": total["lattice.observable_conditions"],
        "lattice.union_norm_s": total["lattice.union_norm"],
        "lattice.union_norm_calls": calls["lattice.union_norm"],
        "lattice.union_dim_max": attr_max["lattice.union_norm.dim"],
        "lattice.triple_calls": triples,
        "lattice.triple_nonzero_frac": (
            attr_sum["lattice.triple.nonzero"] / triples if triples else 0.0
        ),
        "operators.embed_s": total["operators.embed"],
        "operators.commutator_s": total["operators.commutator"],
        "operators.commutator_work_n3": attr_sum["operators.commutator.n"],
        "operators.spectral_norm_s": total["operators.spectral_norm"],
        "operators.spectral_norm_calls": calls["operators.spectral_norm"],
        "operators.norm_work_n3": attr_sum["operators.spectral_norm.n"],
        "operators.eigvalsh_s": total["operators.eigvalsh"],
        "chains.dp_s": total["chains.dp"],
        "chains.dp_calls": calls["chains.dp"],
        "chains.order_max": attr_max["chains.dp.order"],
        "bounds.series_s": total["bounds.series"],
        "bounds.series_calls": calls["bounds.series"],
        "bounds.terms_needed_s": total["bounds.terms_needed"],
        "bounds.terms_needed_calls": calls["bounds.terms_needed"],
        "bounds.closed_form_s": total["bounds.closed_form"],
        "dynamics.sweep_s": total["dynamics.sweep"],
        "dynamics.sweep_points": attr_sum["dynamics.sweep.points"],
        "dynamics.decompose_s": total["dynamics.decompose"],
        "dynamics.norm_s": norm_in_sweep,
        "dynamics.rotate_self_s": sweep_self,
        "dynamics.verify_s": total["dynamics.verify"],
        "config.parse_s": total["config.parse"],
        "reporting.write_s": total["reporting.write"],
        "reporting.bytes": attr_sum["reporting.write.bytes"],
    }
