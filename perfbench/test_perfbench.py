"""Self-test of the benchmark at reduced sizes (about 15 seconds).

    python3 -m pytest -q perfbench

Covers the input generator, the bundle checks, the span arithmetic, the
traced child, and one short run of ``run.py`` per mode on a 4-mode input.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import launcher  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from heffsolve.cli import main as heffsolve_main  # noqa: E402
from heffsolve.fermion import jw_transform, parse_fermion_hamiltonian  # noqa: E402

TINY = {
    "tiny-exact": workloads.Workload(
        "tiny-exact", 4, 2, 2, 2, 1, ("--backend", "exact", "--nf", "2")),
    "tiny-sampled": workloads.Workload(
        "tiny-sampled", 4, 2, 2, 2, 1,
        ("--backend", "sampled", "--shots", "400", "--noise", "0.02,0.02", "--mitigate",
         "--diagonals", "circuit", "--nf", "2", "--seed", "3")),
}


def _solve(workload, seed: int, out: Path) -> checks.Reference:
    text = workloads.ferm_text(workload, seed)
    source = out.parent / f"{out.name}.ferm"
    source.write_text(text)
    assert heffsolve_main(["solve", str(source), *workload.flags, "--out", str(out)]) == 0
    return checks.Reference.from_ferm(text, workload.particles)


# --- generator ---------------------------------------------------------------

@pytest.mark.parametrize("name", [*workloads.WORKLOADS, *TINY])
def test_generator_is_seeded_and_fixes_the_string_count(name):
    workload = {**workloads.WORKLOADS, **TINY}[name]
    texts = [workloads.ferm_text(workload, seed) for seed in (1, 2, 3)]
    assert texts[0] == workloads.ferm_text(workload, 1)
    assert len(set(texts)) == 3
    for text in texts:
        assert jw_transform(parse_fermion_hamiltonian(text)).num_terms == workload.pauli_strings


# --- checks --------------------------------------------------------------------

def test_checks_accept_an_exact_bundle_and_reject_a_tampered_one(tmp_path):
    out = tmp_path / "bundle"
    reference = _solve(TINY["tiny-exact"], 5, out)
    digest = checks.bundle_digest(out)
    assert "timing.json" not in digest
    report = checks.check_bundle(out, reference, "exact")
    assert report.problems == []
    assert report.values["e0_meas_err_mha"] < 1e-6
    assert report.values["estimator.offdiag_settings"] == 15 * 12  # C(6,2) pairs x 12 strings
    assert report.values["estimator.string_settings"] == 2 * 15 * 12
    assert 0 < report.values["estimator.useful_settings"] <= report.values["estimator.offdiag_settings"]

    heff = json.loads((out / "heff.json").read_text())
    heff["matrix"][0][1][0] += 1e-6
    heff["matrix"][1][0][0] += 1e-6
    (out / "heff.json").write_text(json.dumps(heff))
    assert checks.bundle_digest(out) != digest
    assert any("oracle projection" in p for p in checks.check_bundle(out, reference, "exact").problems)
    # a sampled bundle is only held to finiteness and Hermiticity
    assert checks.check_bundle(out, reference, "sampled").problems == []
    heff["matrix"][0][1][1] += 1e-6
    (out / "heff.json").write_text(json.dumps(heff))
    assert "matrix is not Hermitian" in checks.check_bundle(out, reference, "sampled").problems

    lines = (out / "spectrum.csv").read_text().splitlines()
    lines[1] = f"0,{reference.exact_e0 - 1e-6!r}"
    (out / "spectrum.csv").write_text("\n".join(lines) + "\n")
    assert any("below the exact-sector" in p for p in checks.check_bundle(out, reference, "oracle").problems)

    (out / "dos.csv").unlink()
    with pytest.raises(FileNotFoundError):
        checks.bundle_digest(out)


# --- spans ---------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans_ = [
        (0, 0, 100, -1),
        (1, 10, 30, 0),
        (1, 20, 50, 0),  # overlaps its sibling
        (1, 90, 120, 0),  # runs past the parent's end
        (2, 12, 18, 1),
    ]
    assert spans.self_times(spans_) == [50, 14, 30, 30, 6]


def test_layer_metrics_sum_totals_self_times_and_calls():
    trace = {
        "names": ["cli.solve", "estimator.offdiag", "circuits.expectation"],
        "spans": [(0, 0, 10_000, -1), (1, 1000, 5000, 0), (2, 1500, 2500, 1), (1, 6000, 7000, 0)],
        "counters": {"subspace.kept": 7},
    }
    metrics = spans.layer_metrics(trace)
    assert metrics["estimator.offdiag_s"] == pytest.approx(5e-6)
    assert metrics["estimator.offdiag_self_s"] == pytest.approx(4e-6)
    assert metrics["estimator.offdiag_calls"] == 2
    assert metrics["circuits.expectation_calls"] == 1
    assert metrics["cli.bundle_self_s"] == pytest.approx(5e-6)
    assert metrics["subspace.kept"] == 7
    assert metrics["circuits.sample_calls"] == 0


def test_tracer_wraps_and_restores():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer = spans.Tracer(run_id=4)
    tracer.wrap(module, "f", "layer.f")
    assert tracer.call("root", module.f, 1) == 2
    tracer.restore()
    assert module.f is original
    (root_id, *_, root_parent), (f_id, *_, f_parent) = tracer.spans
    assert [tracer.names[root_id], tracer.names[f_id]] == ["root", "layer.f"]
    assert (root_parent, f_parent) == (-1, 0)


def test_traced_solve_writes_the_untraced_bundle(tmp_path):
    workload = TINY["tiny-sampled"]
    _solve(workload, 2, tmp_path / "plain")
    argv = ["solve", str(tmp_path / "plain.ferm"), *workload.flags, "--out", str(tmp_path / "traced")]
    code, tracer = spans.trace_solve(argv, run_id=0)
    assert code == 0
    assert checks.bundle_digest(tmp_path / "plain") == checks.bundle_digest(tmp_path / "traced")
    metrics = spans.layer_metrics(tracer.to_dict())
    assert metrics["estimator.offdiag_calls"] == 15
    assert metrics["estimator.diagonal_calls"] == 6
    assert metrics["circuits.sample_calls"] > 0
    assert metrics["estimator.nnls_calls"] <= metrics["circuits.sample_calls"]
    assert metrics["subspace.kept"] == metrics["spectra.heff_dim"] == 6
    assert all(value >= 0 for value in metrics.values())


# --- launcher --------------------------------------------------------------------

def test_launcher_scales_by_the_speed_probe_and_kills_at_the_limit(tmp_path):
    done = launcher.spawn([sys.executable, "-c", "sum(range(5_000_000))"], str(tmp_path / "a.log"), 60)
    assert done["code"] == 0 and done["bursts"] >= 1
    unprobed = done["wall_s"] * launcher.REFERENCE_BURST_S / (done["probe_ms"] / 1e3)
    assert 0 < done["scaled_s"] < unprobed
    killed = launcher.spawn([sys.executable, "-c", "import time; time.sleep(60)"], str(tmp_path / "b.log"), 0.5)
    assert killed["code"] == -9 and killed["wall_s"] < 30


# --- whole runs ------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_every_declared_metric(tmp_path, monkeypatch, capsys, trace):
    monkeypatch.setattr(run, "WORK", tmp_path)
    for variable, value in run.THREAD_PINS.items():
        monkeypatch.setenv(variable, value)
    for name, workload in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)
    assert run.main(["--workload", "tiny-exact", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (4 if trace else 2)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == declared
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-n12-o3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
