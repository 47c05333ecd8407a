"""Outside-in tracing of one ``heffsolve solve``.

Run as a script, this is the traced child process:

    python perfbench/spans.py --out spans.json --run-id 0 -- solve in.ferm --nf 4 ...

It replaces, for the length of the solve, the public names each layer calls
in the next (as bound in ``heffsolve.cli``, ``heffsolve.subspace`` and
``heffsolve.estimator``) with wrappers that record a span, runs
``heffsolve.cli.main`` inside a root span, puts the originals back and writes
the spans it kept in memory.  No file of the program changes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import defaultdict
from importlib import import_module

ROOT_SPAN = "cli.solve"

# (module, bound name, span name, counter taken from the return value)
WRAPPED = (
    ("heffsolve.cli", "load_fermion_hamiltonian", "fermion.load", None),
    ("heffsolve.cli", "jw_transform", "fermion.jw_transform", ("fermion.pauli_terms", "num_terms")),
    ("heffsolve.cli", "build_subspace", "subspace.build", ("subspace.kept", "size")),
    ("heffsolve.cli", "exact_sector_spectrum", "spectra.exact_sector", ("spectra.sector_dim", "size")),
    ("heffsolve.cli", "build_effective_hamiltonian", "estimator.build_heff", None),
    ("heffsolve.cli", "eigendecompose", "spectra.eigensolve", ("spectra.heff_dim", "size")),
    ("heffsolve.cli", "dos", "spectra.dos", None),
    ("heffsolve.cli", "heff_to_dict", "cli.heff_to_dict", None),
    ("heffsolve.subspace", "find_reference", "subspace.reference", None),
    ("heffsolve.subspace", "enumerate_excitations", "subspace.excitations", None),
    ("heffsolve.estimator", "build_calibration", "estimator.calibration", None),
    ("heffsolve.estimator", "measure_diagonal", "estimator.diagonal", None),
    ("heffsolve.estimator", "measure_offdiagonal", "estimator.offdiag", None),
    ("heffsolve.estimator", "nnls", "estimator.nnls", None),
    ("heffsolve.estimator", "run_statevector", "circuits.statevector", None),
    ("heffsolve.estimator", "apply_circuit", "circuits.statevector", None),
    ("heffsolve.estimator", "state_expectation", "circuits.expectation", None),
    ("heffsolve.estimator", "marginal_probabilities", "circuits.marginals", None),
    ("heffsolve.estimator", "sample_outcome_counts", "circuits.sample", None),
)

# Per-layer metric -> (span names summed, field): "s" total time,
# "self_s" time not covered by child spans, "calls" span count.
SPAN_METRICS = {
    "fermion.load_jw_s": (("fermion.load", "fermion.jw_transform"), "s"),
    "subspace.build_s": (("subspace.build",), "s"),
    "subspace.reference_s": (("subspace.reference",), "s"),
    "subspace.excitations_s": (("subspace.excitations",), "s"),
    "estimator.build_heff_s": (("estimator.build_heff",), "s"),
    "estimator.calibration_s": (("estimator.calibration",), "s"),
    "estimator.diagonal_s": (("estimator.diagonal",), "s"),
    "estimator.diagonal_calls": (("estimator.diagonal",), "calls"),
    "estimator.offdiag_s": (("estimator.offdiag",), "s"),
    "estimator.offdiag_self_s": (("estimator.offdiag",), "self_s"),
    "estimator.offdiag_calls": (("estimator.offdiag",), "calls"),
    "estimator.nnls_s": (("estimator.nnls",), "s"),
    "estimator.nnls_calls": (("estimator.nnls",), "calls"),
    "circuits.statevector_s": (("circuits.statevector",), "s"),
    "circuits.statevector_calls": (("circuits.statevector",), "calls"),
    "circuits.expectation_s": (("circuits.expectation",), "s"),
    "circuits.expectation_calls": (("circuits.expectation",), "calls"),
    "circuits.marginals_s": (("circuits.marginals",), "s"),
    "circuits.sample_s": (("circuits.sample",), "s"),
    "circuits.sample_calls": (("circuits.sample",), "calls"),
    "spectra.exact_sector_s": (("spectra.exact_sector",), "s"),
    "spectra.eigensolve_s": (("spectra.eigensolve",), "s"),
    "spectra.dos_s": (("spectra.dos",), "s"),
    "cli.heff_to_dict_s": (("cli.heff_to_dict",), "s"),
    "cli.bundle_self_s": ((ROOT_SPAN,), "self_s"),
}
COUNTERS = ("fermion.pauli_terms", "subspace.kept", "spectra.sector_dim", "spectra.heff_dim")


class Tracer:
    """Spans ``(name id, start ns, end ns, parent index)`` of one run, in call order."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        name_id = self._name_id(name)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index] = (name_id, start, time.perf_counter_ns(), parent)
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        """Replace ``module.attr`` by a traced wrapper until :meth:`restore`."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if counter is not None:
                key, field = counter
                self.counters[key] = self.counters.get(key, 0) + getattr(result, field)
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def to_dict(self) -> dict:
        return {"run": self.run_id, "names": self.names, "spans": self.spans, "counters": self.counters}


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in seconds)."""
    totals = defaultdict(lambda: {"s": 0, "self_s": 0, "calls": 0})
    spans = trace["spans"]
    for (name_id, start, end, _), own in zip(spans, self_times(spans)):
        total = totals[trace["names"][name_id]]
        total["s"] += end - start
        total["self_s"] += own
        total["calls"] += 1
    out = {}
    for metric, (names, field) in SPAN_METRICS.items():
        value = sum(totals[name][field] for name in names)
        out[metric] = value if field == "calls" else value * 1e-9
    for key in COUNTERS:
        out[key] = trace["counters"].get(key, 0)
    return out


def trace_solve(argv: list[str], run_id: int) -> tuple[int, Tracer]:
    """Run ``heffsolve.cli.main(argv)`` with every layer boundary traced."""
    cli = import_module("heffsolve.cli")
    tracer = Tracer(run_id)
    try:
        for module, attr, name, counter in WRAPPED:
            tracer.wrap(import_module(module), attr, name, counter)
        code = tracer.call(ROOT_SPAN, cli.main, argv)
    finally:
        tracer.restore()
    return code, tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file for the spans")
    parser.add_argument("--run-id", type=int, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="heffsolve arguments after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    code, tracer = trace_solve(argv, args.run_id)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(tracer.to_dict(), separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())
