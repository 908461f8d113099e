"""In-memory span tracing of fouriercat's six modules, installed from outside.

``Tracer.install`` wraps every public function and method of ``groups``,
``fock``, ``encoding``, ``gates``, ``channels`` and ``cli`` and puts the
wrapper in every fouriercat module that holds a reference to the original,
so calls between modules are seen too.  ``uninstall`` puts the originals
back.  A span records its layer, sub-layer, parent span, start and end, the
time its child spans cover and the bytes of the numpy arrays it returned.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("groups", "fock", "encoding", "gates", "channels", "cli")

# Sub-layers named by the per-layer metrics; other functions count only
# towards their layer.  passive_gaussian_unitary is split by its argument.
SUBLAYERS = {
    "fock": {
        "destroy_matrix": "ladder", "lift": "ladder", "mode_destroy": "ladder",
        "mode_number": "ladder",
        "number_diagonal_operator": "number_diagonal",
        "coherent_amplitudes": "coherent", "coherent_state": "coherent",
        "coherent_product": "coherent", "cat_state": "coherent",
        "hermitian_inv_sqrt": "inv_sqrt",
    },
    "encoding": {"code_basis": "code_basis"},
    "gates": {
        "logical_action": "logical_action",
        "composite_hadamard_operator": "hadamard", "composite_hadamard_check": "hadamard",
        "hadamard_deformation_check": "hadamard",
        "deformation_residual": "deformation", "double_deformation_residual": "deformation",
        "zeno_projected_hamiltonian": "zeno", "ZenoGate.logical_unitary": "zeno",
        "cz_gate_check": "cz", "cz_target": "cz",
        "mod4_projectors": "mod4", "mod4_measurement": "mod4",
        "outcome_distribution": "mod4", "mod4_verification": "mod4",
    },
    "channels": {
        "qec_matrix_fock": "qec_fock", "qec_matrix_analytic": "qec_analytic",
        "petz_entanglement_fidelity": "petz", "lambda_matrix": "lambda",
        "lindblad_kernel_check": "lindblad", "kl_first_order_check": "kl",
    },
}

# Span record fields.
LAYER, SUB, NAME, PARENT, START, END, CHILD, NBYTES = range(8)


def is_monomial(u, tol=1e-12):
    """One nonzero entry in every row and column of a mode transformation."""
    nz = np.abs(np.asarray(u)) > tol
    return bool(np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1))


def result_bytes(obj, depth=0):
    """Bytes of the numpy arrays reachable within three steps of ``obj``."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth >= 3:
        return 0
    if isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, dict):
        items = obj.values()
    elif hasattr(obj, "__dict__") and not inspect.ismodule(obj):
        items = vars(obj).values()
    else:
        return 0
    return sum(result_bytes(x, depth + 1) for x in items)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.stack = []
        self.enabled = True
        self._patched = []
        self._targets = []  # (owner, attribute, original, layer, qualname)
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    self._targets.append((module, name, obj, layer, name))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for mname, meth in vars(obj).items():
                        if inspect.isfunction(meth) and (not mname.startswith("_") or mname == "__matmul__"):
                            self._targets.append((obj, mname, meth, layer, f"{name}.{mname}"))

    def install(self):
        wrappers = {id(orig): self._wrap(orig, layer, qualname)
                    for _, _, orig, layer, qualname in self._targets}
        originals = {id(orig): orig for _, _, orig, _, _ in self._targets}
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package.__name__ or n.startswith(self.package.__name__ + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if originals.get(id(value)) is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        for owner, attr, orig, _, _ in self._targets:
            if inspect.isclass(owner):
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, wrappers[id(orig)])

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def _wrap(self, func, layer, qualname):
        sub = SUBLAYERS.get(layer, {}).get(qualname)
        spans, stack = self.spans, self.stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            s = sub
            if qualname == "passive_gaussian_unitary":
                s = "passive_monomial" if is_monomial(args[0]) else "passive_general"
            parent = stack[-1] if stack else None
            rec = [layer, s, qualname, parent, 0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                rec[START], rec[END] = start, end
                if parent is not None:
                    spans[parent][CHILD] += end - start
            rec[NBYTES] = result_bytes(result)
            return result

        return wrapper

    def take_round(self):
        """The spans recorded since the last call, leaving the tracer empty."""
        out = list(self.spans)
        self.spans.clear()
        return out


def aggregate(spans):
    """Per-layer figures of one traced round.

    Self time is a span's duration minus the time its child spans cover.
    ``*.calls`` counts entries into a layer (or sub-layer) from a span
    outside it, or from the benchmark itself.
    """
    m = defaultdict(float)
    counts = defaultdict(int)
    for rec in spans:
        layer, sub = rec[LAYER], rec[SUB]
        self_s = (rec[END] - rec[START] - rec[CHILD]) / 1e9
        parent = spans[rec[PARENT]] if rec[PARENT] is not None else None
        m[f"{layer}.self_s"] += self_s
        m[f"{layer}.result_mb"] += rec[NBYTES] / 1e6
        if parent is None or parent[LAYER] != layer:
            m[f"{layer}.calls"] += 1
        if sub is not None:
            key = f"{layer}.{sub}"
            m[f"{key}.self_s"] += self_s
            counts[key] += 1
            if parent is None or (parent[LAYER], parent[SUB]) != (layer, sub):
                m[f"{key}.calls"] += 1
    if counts["channels.qec_analytic"]:
        m["channels.lambda.per_point"] = counts["channels.lambda"] / counts["channels.qec_analytic"]
    m["trace.spans"] = len(spans)
    return m


def write_spans(path, rounds):
    """One tab-separated line per span: round, index, parent, layer, sub, name, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round\tindex\tparent\tlayer\tsublayer\tname\tstart_ns\tend_ns\tresult_bytes\n")
        for r, spans in rounds:
            for i, rec in enumerate(spans):
                parent = "" if rec[PARENT] is None else rec[PARENT]
                fh.write(f"{r}\t{i}\t{parent}\t{rec[LAYER]}\t{rec[SUB] or ''}\t{rec[NAME]}\t"
                         f"{rec[START]}\t{rec[END]}\t{rec[NBYTES]}\n")
