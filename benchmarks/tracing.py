"""Span tracing at qcpusim's layer boundaries, installed from outside the package.

Each boundary function is replaced, in every ``qcpusim`` module that holds a
binding to it (``from .qcpu import compose_product`` makes a second binding
in ``cli`` and ``evolve``), by a wrapper that records a span: layer name,
start, end, parent span and invocation id.  Spans stay in memory; the
worker writes them out with its result.  A boundary missing from the code
under test is reported as missing and skipped.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _nets_count(args, kwargs, result):
    nets = args[0] if args else kwargs["nets"]
    return {"calls": 1, "networks": len(nets)}


def _factors_count(args, kwargs, result):
    net = args[0] if args else kwargs["net"]
    order = args[1] if len(args) > 1 else kwargs.get("order")
    return {"factors": len(net.factors) if order is None else len(order)}


def _nonzeros_count(args, kwargs, result):
    import numpy as np  # only the workload process counts; run.py imports no numpy

    return {"nonzeros": int(np.count_nonzero(args[0] if args else kwargs["u"]))}


def _one_call(args, kwargs, result):
    return {"calls": 1}


# (module under qcpusim, function, layer name, counter)
BOUNDARIES = (
    ("cli", "_write_snapshot", "cli.write", None),
    ("cli", "_write_csv_atomic", "cli.write", None),
    ("cli", "_write_json_atomic", "cli.write", None),
    ("cli", "run_simulation", "cli.run_simulation", None),
    ("cli", "identity_suite", "cli.identity_suite", None),
    ("config", "load_run_config", "config.load_run_config", None),
    ("grid", "kinetic_operator", "grid.kinetic_operator", _one_call),
    ("grid", "dft_operator", "grid.dft_operator", None),
    ("systems", "spectral_kinetic_matrix", "systems.spectral_kinetic_matrix", None),
    ("grid", "wavefunction_records", "grid.wavefunction_records", _one_call),
    ("evolve", "evolve_euler", "evolve.evolve_euler", None),
    ("evolve", "step_network", "evolve.step_network", None),
    ("evolve", "whole_network", "evolve.whole_network", None),
    ("numerics", "exact_evolution", "numerics.exact_evolution", _one_call),
    ("numerics", "spectral_norm_upper_bound", "numerics.spectral_norm_upper_bound", None),
    ("qcpu", "compose_product", "qcpu.compose_product", _nets_count),
    ("qcpu", "dense_from_factors", "qcpu.dense_from_factors", _factors_count),
    ("qcpu", "build_network", "qcpu.build_network", _nonzeros_count),
    ("qcpu", "compose_sum", "qcpu.compose_sum", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in BOUNDARIES))


class Tracer:
    """Records spans while installed; `spans` rows are
    [invocation, span id, parent id or -1, layer, start, end, exit, counts].

    `exit` is taken after the wrapper's own bookkeeping, so a parent's self
    time (its duration minus the [start, exit] intervals of its children)
    carries none of the tracer's cost.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._invocation = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            row = [self._invocation, span_id, stack[-1] if stack else -1, layer,
                   0.0, 0.0, 0.0, None]
            spans.append(row)
            stack.append(span_id)
            row[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[5] = row[6] = perf_counter()
                stack.pop()
            if counter is not None:
                row[7] = counter(args, kwargs, result)
                row[6] = perf_counter()
            return result

        return wrapper

    def install(self, invocation: int) -> None:
        """Patch every qcpusim binding of each boundary function."""
        self._invocation = invocation
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qcpusim" or name.startswith("qcpusim."))]
        self.missing = []
        for module_name, func_name, layer, counter in BOUNDARIES:
            home = sys.modules.get(f"qcpusim.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(layer, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self._stack.clear()
