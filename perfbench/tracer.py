"""Spans around the calls into each `coreshell` module, and the per-layer
metrics computed from them.

The child side (`Tracer`) replaces a function's name in every module
namespace that imports it, so `solve_spd` called from `coreshell.analysis`
is recorded apart from `solve_spd` called from `coreshell.solvers`. The
lookups are module-global at call time, so replacing the names after import
takes effect. Spans stay in memory until the invocation exits.

A span is a dict: name (`<layer>.<function>`, where the layer is the module
that defines the function), caller (the namespace the name was replaced
in), start and end (monotonic ns), parent (index of the enclosing span in
the same invocation, or None) and attrs (work counts read from arguments
and results; `raised` names the exception of a call that raised). A span
holds only JSON values. The parent side turns the spans of one invocation sequence
into the per-layer metrics listed in `LAYER_METRICS`.
"""

import importlib
import os

# (namespace, attribute, layer). The layer is the module that defines the function.
WRAPS = [
    ("coreshell.cli", "cmd_mesh", "cli"),
    ("coreshell.cli", "cmd_stationary", "cli"),
    ("coreshell.cli", "cmd_evolve", "cli"),
    ("coreshell.cli", "cmd_verify", "cli"),
    ("coreshell.cli", "load_config", "config"),
    ("coreshell.cli", "build_mesh", "mesh"),
    ("coreshell.verify", "build_mesh", "mesh"),
    ("coreshell.mesh", "CoreShellMesh.validate", "mesh"),
    ("coreshell.cli", "assemble", "fem"),
    ("coreshell.verify", "assemble", "fem"),
    ("coreshell.solvers", "energy", "fem"),
    ("coreshell.verify", "energy", "fem"),
    ("coreshell.cli", "stationary_solve", "solvers"),
    ("coreshell.solvers", "stationary_solve", "solvers"),
    ("coreshell.cli", "evolve", "solvers"),
    ("coreshell.solvers", "_step_implicit_euler_counted", "solvers"),
    ("coreshell.solvers", "_newton_minimize", "solvers"),
    ("coreshell.solvers", "solve_spd", "solvers"),
    ("coreshell.analysis", "solve_spd", "solvers"),
    ("coreshell.verify", "solve_spd", "solvers"),
    ("coreshell.cli", "estimate_gamma", "analysis"),
    ("coreshell.verify", "estimate_gamma", "analysis"),
    ("coreshell.cli", "interface_flux_jump", "analysis"),
    ("coreshell.cli", "fit_decay_rate", "analysis"),
    ("coreshell.cli", "run_verification", "verify"),
    ("coreshell.cli", "read_field_csv", "reporting"),
    ("coreshell.cli", "write_field_csv", "reporting"),
    ("coreshell.cli", "write_trace_csv", "reporting"),
    ("coreshell.cli", "write_decay_report", "reporting"),
    ("coreshell.cli", "write_text_report", "reporting"),
    ("coreshell.cli", "write_vtk", "vtkio"),
]


class CountingMatrix:
    """Stands in for the matrix handed to `solve_spd` and counts `@` products.

    Jacobi-CG does one product per iteration, so the count is the iteration
    count, read without touching the solver.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        self.products = 0

    def __matmul__(self, other):
        self.products += 1
        return self.matrix @ other

    def diagonal(self):
        return self.matrix.diagonal()

    def __getattr__(self, name):
        return getattr(self.matrix, name)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _cg_args(span, args, kwargs):
    """Hand `solve_spd` a counting proxy; the count is read when the call ends."""
    matrix = CountingMatrix(args[0])
    span["attrs"].update(n=int(args[1].shape[0]), nnz=int(args[0].nnz))
    return (matrix,) + tuple(args[1:]), kwargs, lambda: span["attrs"].update(
        iters=matrix.products)


def _mesh_result(span, args, mesh):
    span["attrs"].update(nodes=int(mesh.n_nodes), elements=int(mesh.n_elements),
                         facets=len(mesh.gamma_facets))


def _written(n_paths):
    """Bytes of the files a writer was given as its first n_paths arguments."""
    return lambda span, args, _: span["attrs"].update(bytes=_file_bytes(*args[:n_paths]))


# Work counts read from a call's arguments (before) or result (after). A
# BEFORE hook returns the arguments to call with and a function run when the
# call ends, whether it returned or raised; AFTER hooks run only on return.
BEFORE = {"solve_spd": _cg_args}
AFTER = {
    "build_mesh": _mesh_result,
    "assemble": lambda span, args, system: span["attrs"].update(nnz_K=int(system.K.nnz)),
    "_newton_minimize": lambda span, args, result: span["attrs"].update(iters=int(result[1])),
    "run_verification": lambda span, args, results: span["attrs"].update(
        passed=sum(1 for r in results if r.passed)),
    "write_field_csv": _written(1),
    "write_trace_csv": _written(1),
    "write_text_report": _written(1),
    "write_decay_report": _written(2),
    "write_vtk": _written(1),
}


class Tracer:
    """Records one span per call of every function named in `WRAPS`."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self._open = []

    def install(self):
        for namespace, attribute, layer in WRAPS:
            owner = importlib.import_module(namespace)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, name, self._wrap(getattr(owner, name), layer,
                                            namespace.rsplit(".", 1)[-1]))

    def _wrap(self, inner, layer, caller):
        function = inner.__name__
        before, after = BEFORE.get(function), AFTER.get(function)
        spans, open_spans, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            span = {"name": f"{layer}.{function}", "caller": caller,
                    "parent": open_spans[-1] if open_spans else None, "attrs": {}}
            open_spans.append(len(spans))
            spans.append(span)
            ended = None
            if before is not None:
                args, kwargs, ended = before(span, args, kwargs)
            span["start"] = clock()
            try:
                result = inner(*args, **kwargs)
            except BaseException as exc:
                span["attrs"]["raised"] = type(exc).__name__
                raise
            finally:
                span["end"] = clock()
                open_spans.pop()
                if ended is not None:
                    ended()
            if after is not None:
                after(span, args, result)
            return result

        traced.__name__ = function
        traced.__wrapped__ = inner
        return traced


# ----------------------------------------------------------------------------
# parent side: spans -> per-layer metrics
# ----------------------------------------------------------------------------

# Per-layer metrics: name -> unit. "B_computed" marks bytes derived from
# matrix and vector sizes, not measured.
LAYER_METRICS = {
    "import.s": "s",
    "import.modules": "count",
    "import.scipy_modules": "count",
    "config.load_s": "s",
    "mesh.build_s": "s",
    "mesh.build_calls": "count",
    "mesh.validate_s": "s",
    "mesh.validate_calls": "count",
    "mesh.nodes": "count",
    "mesh.elements": "count",
    "mesh.facets": "count",
    "fem.assemble_s": "s",
    "fem.assemble_calls": "count",
    "fem.nnz_K": "count",
    "fem.energy_calls": "count",
    "fem.energy_s": "s",
    "solvers.stationary_s": "s",
    "solvers.evolve_s": "s",
    "solvers.steps": "count",
    "solvers.newton_iters": "count",
    "solvers.line_search_evals": "count",
    "solvers.newton_accept_ratio": "ratio",
    "solvers.cg_calls": "count",
    "solvers.cg_iters": "count",
    "solvers.cg_s": "s",
    "solvers.cg_bytes": "B_computed",
    "solvers.self_s": "s",
    "analysis.gamma_s": "s",
    "analysis.gamma_cg_iters": "count",
    "analysis.flux_jump_s": "s",
    "analysis.fit_decay_s": "s",
    "analysis.self_s": "s",
    "verify.run_s": "s",
    "verify.cg_iters": "count",
    "verify.properties_passed": "count",
    "verify.self_s": "s",
    "reporting.read_s": "s",
    "reporting.write_s": "s",
    "reporting.bytes": "B",
    "vtkio.write_s": "s",
    "vtkio.bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that must repeat exactly between traced runs of the same inputs.
COUNT_METRICS = [name for name, unit in LAYER_METRICS.items() if unit != "s"]

# Inclusive span time summed into a metric, by span name.
_SPAN_SECONDS = {
    "config.load_config": "config.load_s",
    "mesh.build_mesh": "mesh.build_s",
    "mesh.validate": "mesh.validate_s",
    "fem.assemble": "fem.assemble_s",
    "fem.energy": "fem.energy_s",
    "solvers.stationary_solve": "solvers.stationary_s",
    "solvers.evolve": "solvers.evolve_s",
    "analysis.estimate_gamma": "analysis.gamma_s",
    "analysis.interface_flux_jump": "analysis.flux_jump_s",
    "analysis.fit_decay_rate": "analysis.fit_decay_s",
    "verify.run_verification": "verify.run_s",
    "reporting.read_field_csv": "reporting.read_s",
    "reporting.write_field_csv": "reporting.write_s",
    "reporting.write_trace_csv": "reporting.write_s",
    "reporting.write_decay_report": "reporting.write_s",
    "reporting.write_text_report": "reporting.write_s",
    "vtkio.write_vtk": "vtkio.write_s",
}
_SPAN_CALLS = {
    "mesh.build_mesh": "mesh.build_calls",
    "mesh.validate": "mesh.validate_calls",
    "fem.assemble": "fem.assemble_calls",
    "fem.energy": "fem.energy_calls",
    "solvers._step_implicit_euler_counted": "solvers.steps",
}
_SELF_LAYERS = ("cli", "solvers", "analysis", "verify")
_CG_ITERS_BY_CALLER = {"solvers": "solvers.cg_iters", "analysis": "analysis.gamma_cg_iters",
                       "verify": "verify.cg_iters"}


def self_seconds(spans) -> list:
    """Per span: its duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    result = []
    for span, kids in zip(spans, children):
        covered, reach = 0, span["start"]
        for start, end in sorted(kids):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result.append((span["end"] - span["start"] - covered) / 1e9)
    return result


def cg_bytes(n: int, nnz: int, iters: int) -> int:
    """Bytes one Jacobi-CG solve moves, computed from sizes (not measured).

    Per iteration: the CSR product reads nnz values and column indices
    (8 + 4 bytes each) and n + 1 row pointers, and the vector updates read
    or write 25 float64 vectors of length n (counted from `solve_spd`).
    """
    return iters * (12 * nnz + 4 * (n + 1) + 25 * 8 * n)


def layer_metrics(invocations, bare_start_s: float) -> dict:
    """Per-layer metrics of one traced invocation sequence.

    Each invocation is a dict with spawn_ns, imported_ns, modules,
    scipy_modules and spans, as the parent collects it. Times and counts are
    summed over the sequence; mesh.nodes, mesh.elements, mesh.facets and
    fem.nnz_K are those of the largest mesh built.
    """
    m = {name: 0 for name in LAYER_METRICS}
    newton_energy_calls = 0
    for inv in invocations:
        if "imported_ns" not in inv:  # died before its record was written
            continue
        m["import.s"] += (inv["imported_ns"] - inv["spawn_ns"]) / 1e9 - bare_start_s
        m["import.modules"] = max(m["import.modules"], inv["modules"])
        m["import.scipy_modules"] = max(m["import.scipy_modules"], inv["scipy_modules"])
        spans = inv.get("spans", [])
        for span, own in zip(spans, self_seconds(spans)):
            name, attrs = span["name"], span["attrs"]
            seconds = (span["end"] - span["start"]) / 1e9
            layer = name.split(".", 1)[0]
            if layer in _SELF_LAYERS:
                m[f"{layer}.self_s"] += own
            if name in _SPAN_SECONDS:
                m[_SPAN_SECONDS[name]] += seconds
            if name in _SPAN_CALLS:
                m[_SPAN_CALLS[name]] += 1
            # A span whose call raised has no counts read from a result.
            if name == "mesh.build_mesh" and attrs.get("nodes", 0) > m["mesh.nodes"]:
                m.update({"mesh.nodes": attrs["nodes"], "mesh.elements": attrs["elements"],
                          "mesh.facets": attrs["facets"]})
            elif name == "fem.assemble":
                m["fem.nnz_K"] = max(m["fem.nnz_K"], attrs.get("nnz_K", 0))
            elif name == "fem.energy":
                parent = span["parent"]
                if parent is not None and spans[parent]["name"] == "solvers._newton_minimize":
                    newton_energy_calls += 1
            elif name == "solvers._newton_minimize":
                m["solvers.newton_iters"] += attrs.get("iters", 0)
            elif name == "solvers.solve_spd":
                m[_CG_ITERS_BY_CALLER[span["caller"]]] += attrs["iters"]
                if span["caller"] == "solvers":
                    m["solvers.cg_calls"] += 1
                    m["solvers.cg_s"] += seconds
                    m["solvers.cg_bytes"] += cg_bytes(attrs["n"], attrs["nnz"], attrs["iters"])
            elif name == "verify.run_verification":
                m["verify.properties_passed"] += attrs.get("passed", 0)
            if "bytes" in attrs:
                m[f"{layer}.bytes"] += attrs["bytes"]
    # Each Newton iteration evaluates the objective once at its start and
    # once per line-search trial.
    m["solvers.line_search_evals"] = newton_energy_calls - m["solvers.newton_iters"]
    if m["solvers.line_search_evals"] > 0:
        m["solvers.newton_accept_ratio"] = (m["solvers.newton_iters"]
                                            / m["solvers.line_search_evals"])
    return m
