"""Command-line pipeline: subcommands, files, exit codes, reproducibility."""

import gc
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import heffsolve
import heffsolve.cli
import heffsolve.spectra
from heffsolve.cli import main
from heffsolve.estimator import heff_matrix_from_dict
from heffsolve.pauli import BasisState, flip_cells, load_pauli_sum

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
H2_FILE = DATA / "h2_style_R0.70.ferm"

MINIMAL_FERMION = "modes 1\n1.0 0.0 0^ 0\n"


@pytest.fixture
def h2_path():
    assert H2_FILE.exists()
    return str(H2_FILE)


def src_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's package."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def tree(root: Path) -> dict[str, bytes]:
    """The bytes of every file under ``root``, by its path relative to ``root``."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestTransform:
    def test_minimal_one_mode(self, tmp_path, capsys):
        src = tmp_path / "one.ferm"
        src.write_text(MINIMAL_FERMION)
        out = tmp_path / "one.pauli"
        assert main(["transform", str(src), "-o", str(out)]) == 0
        hamiltonian = load_pauli_sum(str(out))
        assert hamiltonian.num_terms == 2
        assert "2 strings" in capsys.readouterr().out

    def test_h2_class_has_fifteen_strings(self, tmp_path, h2_path):
        out = tmp_path / "h2.pauli"
        assert main(["transform", h2_path, "-o", str(out)]) == 0
        hamiltonian = load_pauli_sum(str(out))
        assert hamiltonian.num_terms == 15
        labels = {s.label for _, s in hamiltonian}
        assert {"YXXY", "XXYY", "YYXX", "XYYX"} <= labels

    def test_malformed_factor_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "bad.ferm"
        src.write_text("modes 2\n0.5 0.0 0* 1\n")
        assert main(["transform", str(src), "-o", str(tmp_path / "x.pauli")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["transform", str(tmp_path / "nope.ferm"), "-o", "x"]) == 2


class TestSubspace:
    def test_writes_bit_strings(self, tmp_path, h2_path, capsys):
        out = tmp_path / "basis.txt"
        assert main(["subspace", h2_path, "-o", str(out), "--nf", "2"]) == 0
        lines = out.read_text().split()
        assert len(lines) == 6 and lines[0] == "1100"
        assert "reference 1100" in capsys.readouterr().out


def wide_pauli_file(directory: Path, num_qubits: int) -> Path:
    """A Pauli sum on ``num_qubits`` qubits: Z fields, and the Jordan-Wigner
    hopping between the first and last mode, so bit ``num_qubits - 1`` matters."""
    chain = "Z" * (num_qubits - 2)
    lines = [f"{0.1 * (k % 7) - 0.3} 0.0 " + "I" * k + "Z" + "I" * (num_qubits - 1 - k)
             for k in range(num_qubits)]
    lines += [f"-0.25 0.0 X{chain}X", f"-0.25 0.0 Y{chain}Y"]
    path = directory / f"wide{num_qubits}.pauli"
    path.write_text("\n".join(lines) + "\n")
    return path


WIDE_FERMION = """modes 40
-1.0 0.0 0^ 0
-0.8 0.0 13^ 13
-0.6 0.0 26^ 26
-0.4 0.0 39^ 39
0.3 0.1 0^ 13
0.3 -0.1 13^ 0
0.2 0.0 13^ 26
0.2 0.0 26^ 13
0.25 -0.05 26^ 39
0.25 0.05 39^ 26
0.15 0.0 0^ 13^ 26 39
0.15 0.0 39^ 26^ 13 0
"""


def heff_matrix(out: Path):
    return heff_matrix_from_dict(json.loads((out / "heff.json").read_text()))[1]


class TestSolve:
    def test_oracle_complete_basis_matches_exact(self, tmp_path, h2_path):
        out = tmp_path / "run"
        assert main(
            ["solve", h2_path, "--out", str(out), "--nf", "2", "--backend", "oracle"]
        ) == 0
        header, rows = read_csv(out / "error_vs_exact.csv")
        assert header[0] == "index"
        errors = [float(r[3]) for r in rows]
        assert len(errors) == 6
        assert max(errors) <= 1e-10
        assert all(r[4] == "1" for r in rows)
        for name in ("heff.json", "spectrum.csv", "dos.csv", "basis.txt", "manifest.json"):
            assert (out / name).exists()

    def test_main_leaves_the_collector_unfrozen(self, tmp_path, h2_path):
        # only the program entry freezes the import-time heap
        frozen = gc.get_freeze_count()
        args = ["solve", h2_path, "--out", str(tmp_path / "run"), "--nf", "2", "--backend", "exact"]
        assert main(args) == 0
        assert gc.get_freeze_count() == frozen

    def test_program_entry_writes_the_full_bundle(self, tmp_path, h2_path):
        # python -m heffsolve.cli freezes the heap, then solves as main() does
        args = ["solve", h2_path, "--nf", "2", "--backend", "sampled", "--shots", "500",
                "--noise", "0.02,0.02", "--mitigate", "--diagonals", "circuit"]
        env = src_env()
        done = subprocess.run(
            [sys.executable, "-m", "heffsolve.cli", *args, "--out", str(tmp_path / "entry")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert main([*args, "--out", str(tmp_path / "main")]) == 0
        names = sorted(p.name for p in (tmp_path / "main").iterdir())
        assert sorted(p.name for p in (tmp_path / "entry").iterdir()) == names
        assert {"heff.json", "spectrum.csv", "dos.csv", "basis.txt", "manifest.json"} <= set(names)
        for name in names:
            if name != "timing.json":
                assert (tmp_path / "entry" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()
        probe = (
            "import gc, sys, heffsolve.cli as cli\n"
            "cli.main = lambda: print(gc.get_freeze_count() > 0) or 0\n"
            "sys.exit(cli.run())\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "True"
        scripts = (ROOT / "pyproject.toml").read_text()
        assert 'heffsolve = "heffsolve.cli:run"' in scripts

    def test_sampled_run_reports_stderr(self, tmp_path, h2_path):
        out = tmp_path / "sampled"
        assert main(
            [
                "solve", h2_path, "--out", str(out), "--nf", "2",
                "--backend", "sampled", "--shots", "2000", "--seed", "7",
            ]
        ) == 0
        payload = json.loads((out / "heff.json").read_text())
        offdiag = [e for e in payload["entries"] if e["row"] != e["col"]]
        assert any(e["stderr_re"] > 0 for e in offdiag)
        assert all(e["shots"] >= 0 for e in offdiag)

    def test_repeats_write_runs_and_aggregate(self, tmp_path, h2_path):
        out = tmp_path / "bands"
        assert main(
            [
                "solve", h2_path, "--out", str(out), "--nf", "2",
                "--backend", "sampled", "--shots", "500", "--repeats", "3",
            ]
        ) == 0
        for r in range(3):
            assert (out / f"run_{r:03d}" / "spectrum.csv").exists()
        header, rows = read_csv(out / "aggregate.csv")
        assert header[:4] == ["index", "e_mean", "e_min", "e_max"]
        assert len(rows) == 6
        for row in rows:
            assert float(row[2]) <= float(row[1]) <= float(row[3])
        manifest = json.loads((out / "manifest.json").read_text())
        seeds = [run["seed"] for run in manifest["runs"]]
        assert len(set(seeds)) == 3

    def test_pauli_file_input(self, tmp_path, h2_path):
        pauli = tmp_path / "h2.pauli"
        assert main(["transform", h2_path, "-o", str(pauli)]) == 0
        out = tmp_path / "from_pauli"
        assert main(["solve", str(pauli), "--out", str(out), "--nf", "2"]) == 0
        _, rows = read_csv(out / "error_vs_exact.csv")
        assert max(float(r[3]) for r in rows) <= 1e-10

    def test_diagonal_only_hamiltonian_counts_every_direct_circuit(self, tmp_path):
        pauli = tmp_path / "diagonal.pauli"
        pauli.write_text("1.0 0.0 ZIII\n0.5 0.0 IZZI\n-0.25 0.0 IIIZ\n")
        out = tmp_path / "diagonal"
        assert main(
            ["solve", str(pauli), "--out", str(out), "--nf", "2", "--ns", "6", "--backend", "exact"]
        ) == 0
        payload = json.loads((out / "heff.json").read_text())
        assert len(payload["basis"]) == 6
        # two circuits per pair, as the direct style counts them, though none connects
        assert payload["circuit_counts"]["offdiagonal_total"] == 30
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["runs"][0]["circuit_counts"]["offdiagonal_total"] == 30

    @pytest.mark.parametrize("command", ["solve", "scan"])
    def test_particle_changing_pauli_input_is_rejected(self, tmp_path, capsys, command):
        # its ground energy is -sqrt(1.25) - 0.3, which the 2-particle sector cannot see
        src = tmp_path / "points"
        src.mkdir()
        pauli = src / "p_0.7.pauli"
        pauli.write_text("1.0 0.0 XIII\n0.5 0.0 ZIII\n0.3 0.0 IIZZ\n")
        out = tmp_path / "out"
        source = src if command == "scan" else pauli
        assert main([command, str(source), "--out", str(out), "--nf", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "conserve particle number" in err
        assert not out.exists()

    def test_basis_file_reused(self, tmp_path, h2_path):
        basis = tmp_path / "basis.txt"
        basis.write_text("1100\n0011\n")
        out = tmp_path / "fixed"
        assert main(
            ["solve", h2_path, "--out", str(out), "--nf", "2", "--basis", str(basis)]
        ) == 0
        payload = json.loads((out / "heff.json").read_text())
        assert payload["basis"] == ["1100", "0011"]

    def test_reproducible_byte_identical(self, tmp_path, h2_path):
        args = [
            "solve", h2_path, "--nf", "2", "--backend", "sampled",
            "--shots", "1000", "--seed", "3", "--noise", "0.02,0.02", "--mitigate",
        ]
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            if name == "timing.json":  # wall-clock times, documented exclusion
                continue
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_exact_indirect_style_end_to_end(self, tmp_path, h2_path):
        out = tmp_path / "indirect"
        assert main(
            [
                "solve", h2_path, "--out", str(out), "--nf", "2",
                "--backend", "exact", "--style", "indirect",
            ]
        ) == 0
        _, rows = read_csv(out / "error_vs_exact.csv")
        assert max(float(r[3]) for r in rows) <= 1e-10

    def test_capacity_maps_to_exit_3(self, tmp_path, h2_path, monkeypatch):
        monkeypatch.setattr(heffsolve.spectra, "MAX_DENSE_DIMENSION", 3)
        out = tmp_path / "toobig"
        assert main(["solve", h2_path, "--out", str(out), "--nf", "2"]) == 3

    def test_oversized_subspace_exits_3_before_any_file(self, tmp_path, h2_path, monkeypatch):
        monkeypatch.setattr(heffsolve.cli, "MAX_DENSE_DIMENSION", 3)
        monkeypatch.setattr(heffsolve.spectra, "MAX_DENSE_DIMENSION", 3)
        out = tmp_path / "toobig"
        assert main(["solve", h2_path, "--out", str(out), "--nf", "2"]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("style", ["direct", "indirect"])
    def test_exact_solves_forty_modes(self, tmp_path, style):
        path = tmp_path / "wide40.ferm"
        path.write_text(WIDE_FERMION)
        flags = ["--nf", "2", "--ns", "6"]
        assert main(["solve", str(path), "--out", str(tmp_path / "oracle"), *flags]) == 0
        assert main(
            ["solve", str(path), "--out", str(tmp_path / "exact"), *flags,
             "--backend", "exact", "--style", style, "--diagonals", "circuit"]
        ) == 0
        oracle, exact = heff_matrix(tmp_path / "oracle"), heff_matrix(tmp_path / "exact")
        assert len(exact) == 6
        assert max(abs(a - b) for ra, rb in zip(exact, oracle) for a, b in zip(ra, rb)) <= 1e-12
        assert max(abs(v.imag) for row in oracle for v in row) > 0.05

    def test_sampled_solves_forty_modes_within_five_stderr_of_exact(self, tmp_path):
        # 2^41 amplitudes could not be held; the sampler draws from the sparse state
        path = tmp_path / "wide40.ferm"
        path.write_text(WIDE_FERMION)
        flags = ["--nf", "2", "--ns", "6"]
        assert main(
            ["solve", str(path), "--out", str(tmp_path / "sampled"), *flags, "--backend", "sampled"]
        ) == 0
        assert main(
            ["solve", str(path), "--out", str(tmp_path / "exact"), *flags, "--backend", "exact"]
        ) == 0
        sampled, exact = heff_matrix(tmp_path / "sampled"), heff_matrix(tmp_path / "exact")
        assert np.all(np.isfinite(sampled)) and np.array_equal(sampled, sampled.conj().T)
        payload = json.loads((tmp_path / "sampled" / "heff.json").read_text())
        entries = payload["entries"]
        assert any(e["stderr_re"] > 0 for e in entries)
        for e in entries:
            error = sampled[e["row"], e["col"]] - exact[e["row"], e["col"]]
            assert abs(error.real) <= 5 * e["stderr_re"] + 1e-12
            assert abs(error.imag) <= 5 * e["stderr_im"] + 1e-12
        # the listed cells are the connected pairs; every other pair reads exactly 0
        hamiltonian = heffsolve.cli._load_hamiltonian(str(path), "fermion")
        masks = np.array([BasisState(bits).mask for bits in payload["basis"]], dtype=np.uint64)
        connected = {
            (i, j)
            for _, rows, cols in flip_cells(hamiltonian.groups, masks)
            for i, j in zip(rows.tolist(), cols.tolist()) if i < j
        }
        assert [(e["row"], e["col"]) for e in entries] == sorted(connected)
        assert 0 < len(connected) < 15
        for i in range(6):
            for j in range(i + 1, 6):
                if (i, j) not in connected:
                    assert sampled[i, j] == exact[i, j] == 0, (i, j)
        assert payload["circuit_counts"]["offdiagonal_total"] == 2 * 15

    def test_63_qubits_solve(self, tmp_path):
        out = tmp_path / "wide"
        path = wide_pauli_file(tmp_path, 63)
        assert main(["solve", str(path), "--out", str(out), "--nf", "1", "--order", "1"]) == 0
        _, rows = read_csv(out / "error_vs_exact.csv")
        assert len(rows) == 63
        assert max(float(r[3]) for r in rows) <= 1e-10

    @pytest.mark.parametrize("strategy", ["exhaustive", "mc"])
    def test_64_qubits_solve(self, tmp_path, strategy):
        # one particle and its singles span the whole sector, whichever reference is found
        out = tmp_path / "wide"
        path = wide_pauli_file(tmp_path, 64)
        assert main(["solve", str(path), "--out", str(out), "--nf", "1", "--order", "1",
                     "--strategy", strategy]) == 0
        _, rows = read_csv(out / "error_vs_exact.csv")
        assert len(rows) == 64
        assert max(float(r[3]) for r in rows) <= 1e-10
        basis = (out / "basis.txt").read_text().split()
        assert len(set(basis)) == 64 and "0" * 63 + "1" in basis

    @pytest.mark.parametrize("strategy", ["exhaustive", "mc"])
    def test_65_qubits_are_an_input_error(self, tmp_path, capsys, strategy):
        path = wide_pauli_file(tmp_path, 65)
        out = tmp_path / "wide"
        assert main(
            ["solve", str(path), "--out", str(out), "--nf", "1", "--strategy", strategy]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "64-bit masks" in err
        assert not out.exists()
        assert list(tmp_path.iterdir()) == [path]


class TestInputValidation:
    """A bad configuration exits 2 before any work and writes no file."""

    @staticmethod
    def rejected(tmp_path, capsys, h2_path, *flags, command="solve"):
        out = tmp_path / "out"
        source = str(DATA) if command == "scan" else h2_path
        output = "-o" if command == "subspace" else "--out"
        assert main([command, source, output, str(out), "--nf", "2", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert not out.exists()
        return err

    def test_zero_repeats(self, tmp_path, capsys, h2_path):
        err = self.rejected(tmp_path, capsys, h2_path, "--backend", "sampled", "--repeats", "0")
        assert "--repeats" in err

    def test_zero_dos_bins(self, tmp_path, capsys, h2_path):
        assert "--dos-bins" in self.rejected(tmp_path, capsys, h2_path, "--dos-bins", "0")

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("nan.ferm", "modes 4\nnan 0.0 0^ 0\n0.5 0.0 1^ 1\n", "line 2: non-finite"),
            ("constant.ferm", "modes 4\nconstant nan\n0.5 0.0 1^ 1\n", "line 2: non-finite"),
            ("nan.pauli", "nan 0.0 ZIII\n0.5 0.0 IZII\n", "line 1: non-finite"),
            ("hopping.ferm", "modes 4\ninf 0.0 0^ 1\ninf 0.0 1^ 0\n0.5 0.0 1^ 1\n",
             "line 2: non-finite"),
            # finite terms whose diagonal energies overflow
            ("huge.ferm", "modes 4\n" + "".join(f"1e308 0.0 {m}^ {m}\n" for m in range(3)),
             "non-finite"),
        ],
        ids=["nan-term", "nan-constant", "nan-pauli", "inf-hopping-pair", "overflow"],
    )
    def test_a_non_finite_input_is_an_input_error(self, tmp_path, capsys, name, text, message):
        # each once solved with exit 0 as if the bad term were absent
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["solve", str(path), "--out", str(out), "--nf", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err
        assert not out.exists()

    def test_overflowing_magnitudes_are_refused_before_any_warning(self, tmp_path, capsys):
        # finite terms whose energies overflow once printed two numpy
        # RuntimeWarnings before the input error
        path = tmp_path / "huge.ferm"
        path.write_text("modes 4\n" + "".join(f"1e308 0.0 {m}^ {m}\n" for m in range(3)))
        out = tmp_path / "out"
        argv = ["solve", str(path), "--out", str(out), "--nf", "2"]
        message = f"input error: {path}: the term magnitudes have a non-finite sum"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        assert capsys.readouterr().err == message + "\n"
        done = subprocess.run([sys.executable, "-m", "heffsolve.cli", *argv], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("backend", ["oracle", "exact"])
    def test_negative_shots(self, tmp_path, capsys, h2_path, backend):
        err = self.rejected(tmp_path, capsys, h2_path, "--backend", backend, "--shots", "-5")
        assert "--shots" in err

    def test_zero_levels(self, tmp_path, capsys, h2_path):
        err = self.rejected(tmp_path, capsys, h2_path, "--levels", "0", command="scan")
        assert "--levels" in err

    @pytest.mark.parametrize("nf", ["0", "5"])
    @pytest.mark.parametrize("command", ["solve", "subspace"])
    def test_a_particle_number_outside_the_register(self, tmp_path, capsys, h2_path, command, nf):
        # the excitation order was once checked first: "... min(N_F, N - N_F) = -1"
        err = self.rejected(tmp_path, capsys, h2_path, "--nf", nf, command=command)
        assert f"particle number {nf} must be strictly between 0 and 4" in err

    @pytest.mark.parametrize(
        "flag, value", [("--nf", "-1"), ("--mc-steps", "-1"), ("--order", "-1"), ("--ns", "0")]
    )
    def test_other_out_of_range_values(self, tmp_path, capsys, h2_path, flag, value):
        self.rejected(tmp_path, capsys, h2_path, "--strategy", "mc", flag, value, command="scan")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--strategy", "mc", "--mc-t0", "-1"),
            ("--strategy", "mc", "--mc-t0", "nan"),
            ("--strategy", "mc", "--mc-cooling", "1.5"),
            ("--strategy", "mc", "--mc-cooling", "0"),
            ("--strategy", "mc", "--mc-cooling", "-0.5"),
            ("--mc-cooling", "1.5"),
        ],
        ids=["t0-negative", "t0-nan", "heating", "cooling-zero", "cooling-negative", "exhaustive"],
    )
    @pytest.mark.parametrize("command", ["solve", "scan"])
    def test_bad_annealing_schedule(self, tmp_path, capsys, h2_path, flags, command):
        # a schedule the manifest would record but the annealer would not run
        assert "annealing" in self.rejected(tmp_path, capsys, h2_path, *flags, command=command)

    @pytest.mark.parametrize(
        "states, message",
        [
            ("1100\n1010\n", "found 1100"),
            ("110\n101\n", "found 110"),
            ("# nothing\n", "found no state"),
        ],
        ids=["two-particle", "short", "empty"],
    )
    @pytest.mark.parametrize("command", ["solve", "scan"])
    def test_basis_file_outside_the_run(self, tmp_path, capsys, h2_path, states, message, command):
        # the two-particle Heff would be compared with the three-particle spectrum
        basis = tmp_path / "basis.txt"
        basis.write_text(states)
        out = tmp_path / "out"
        source = str(DATA) if command == "scan" else h2_path
        assert main([command, source, "--out", str(out), "--nf", "3", "--basis", str(basis)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "4-bit states in the --nf 3 sector" in err
        assert message in err and not out.exists()

    @pytest.mark.parametrize(
        "states, message",
        [
            ("1100\n111\n", "inconsistent lengths"),
            ("1100\n11x0\n", "line 2: invalid bits"),
            ("1100\n0011\n1100\n", "duplicate basis states"),
        ],
        ids=["ragged", "bad-character", "duplicate"],
    )
    @pytest.mark.parametrize("command", ["solve", "scan"])
    def test_unreadable_basis_file_is_named(self, tmp_path, capsys, h2_path, states, message, command):
        basis = tmp_path / "basis.txt"
        basis.write_text(states)
        out = tmp_path / "out"
        source = str(DATA) if command == "scan" else h2_path
        assert main([command, source, "--out", str(out), "--nf", "2", "--basis", str(basis)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {basis}: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "subspace", "transform", "basis"])
    def test_a_directory_for_a_file_is_an_input_error(self, tmp_path, capsys, h2_path, command):
        folder = tmp_path / "folder"
        folder.mkdir()
        out = tmp_path / "out"
        argv = {
            "solve": ["solve", str(folder), "--out", str(out), "--nf", "2"],
            "subspace": ["subspace", str(folder), "-o", str(out), "--nf", "2"],
            "transform": ["transform", str(folder), "-o", str(out)],
            "basis": ["solve", h2_path, "--out", str(out), "--nf", "2", "--basis", str(folder)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and str(folder) in err
        assert not out.exists()

    def test_mitigation_without_noise(self, tmp_path, capsys, h2_path):
        err = self.rejected(tmp_path, capsys, h2_path, "--backend", "sampled", "--mitigate")
        assert "noise model" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--backend", "exact", "--noise", "0.1,0.1"), "sampled backend only"),
            (("--backend", "exact", "--noise", "0.1,0.1", "--mitigate"), "sampled backend only"),
            (("--backend", "oracle", "--mitigate"), "noise model"),
            (("--backend", "oracle", "--diagonals", "circuit"), "circuit backend"),
        ],
        ids=["exact-noise", "exact-noise-mitigate", "oracle-mitigate", "oracle-circuit-diagonals"],
    )
    def test_readout_settings_the_backend_would_drop(
        self, tmp_path, capsys, h2_path, flags, message
    ):
        assert message in self.rejected(tmp_path, capsys, h2_path, *flags)


class TestImports:
    @staticmethod
    def last_line(script, *args):
        """The last line ``script`` prints in a fresh interpreter."""
        done = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=src_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        return done.stdout.splitlines()[-1]

    @classmethod
    def loaded_by_solve(cls, args, *packages):
        """The modules of ``packages`` (dotted prefixes) a fresh interpreter
        holds after ``main(args)``, with the exit code."""
        script = (
            "import sys\n"
            "from heffsolve.cli import main\n"
            "code = main(sys.argv[2:])\n"
            "prefixes = [p.split('.') for p in sys.argv[1].split(',')]\n"
            "print(code, sorted(m for m in sys.modules\n"
            "    if any(m.split('.')[:len(p)] == p for p in prefixes)))\n"
        )
        return cls.last_line(script, ",".join(packages), *args)

    def test_importing_the_cli_loads_no_dataclasses(self):
        # @dataclass generates and compiles its records' methods at every
        # import; the records are NamedTuple or __slots__ classes instead
        script = (
            "import sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "import heffsolve.cli\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        loaded = self.last_line(script).split()
        assert "heffsolve.cli" in loaded
        assert "dataclasses" not in loaded
        # logging, with traceback and string, for one warning no solve emits
        assert "logging" not in loaded

    def test_mitigated_sampled_solve_leaves_scipy_unloaded(self, tmp_path, h2_path):
        # numpy.ma: np.unique imports it on first use, at about 1 MB of RSS
        args = [
            "solve", h2_path, "--out", str(tmp_path / "out"), "--nf", "2",
            "--backend", "sampled", "--shots", "500", "--noise", "0.02,0.02", "--mitigate",
        ]
        assert self.loaded_by_solve(args, "scipy", "numpy.ma") == "0 []"

    @pytest.mark.parametrize("backend", ["oracle", "exact"])
    def test_exhaustive_solve_leaves_numpy_random_unloaded(self, tmp_path, h2_path, backend):
        # numpy.random costs about 5 MB of RSS; only sampling and annealing need it
        args = ["solve", h2_path, "--out", str(tmp_path / "out"), "--nf", "2", "--backend", backend]
        assert self.loaded_by_solve(args, "numpy.random", "scipy", "logging") == "0 []"

    def test_every_exported_name_is_bound(self):
        modules = [heffsolve] + [
            importlib.import_module(f"heffsolve.{info.name}")
            for info in pkgutil.iter_modules(heffsolve.__path__)
        ]
        stale = [
            f"{module.__name__}.{name}"
            for module in modules
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
        assert len(modules) > 1
        assert stale == []

    def test_every_name_the_benchmark_tracer_wraps_is_bound(self):
        # perfbench/spans.py replaces these names for a traced solve; one that
        # is missing makes every `--trace 1` run exit 1.
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", ROOT / "perfbench" / "spans.py"
        )
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans.WRAPPED
        missing = [
            f"{module}.{name}"
            for module, name, *_ in spans.WRAPPED
            if not hasattr(importlib.import_module(module), name)
        ]
        assert missing == []


class TestScan:
    def test_two_point_scan(self, tmp_path):
        out = tmp_path / "pes"
        assert main(
            ["scan", str(DATA), "--out", str(out), "--nf", "2", "--levels", "3"]
        ) == 0
        header, rows = read_csv(out / "pes.csv")
        assert header == ["R", "E0", "E1", "E2"]
        assert [float(r[0]) for r in rows] == [0.70, 1.00]
        for row in rows:
            assert float(row[1]) <= float(row[2]) <= float(row[3])
        # levels shapes pes.csv: the scan records it, and no point's solve does
        assert json.loads((out / "manifest.json").read_text())["config"]["levels"] == 3
        assert "levels" not in json.loads((out / "h2_style_R0.70" / "manifest.json").read_text())["config"]

    def test_repeats_report_the_first_run(self, tmp_path):
        out = tmp_path / "pes"
        assert main(
            ["scan", str(DATA), "--out", str(out), "--nf", "2", "--repeats", "2",
             "--backend", "sampled", "--shots", "500"]
        ) == 0
        _, rows = read_csv(out / "pes.csv")
        runs_differ = False
        for row, point in zip(rows, ("h2_style_R0.70", "h2_style_R1.00"), strict=True):
            _, first = read_csv(out / point / "run_000" / "spectrum.csv")
            _, second = read_csv(out / point / "run_001" / "spectrum.csv")
            assert row[1:] == [value for _, value in first[:4]]
            runs_differ |= first != second
        assert runs_differ

    def test_single_file_single_row(self, tmp_path, h2_path):
        src = tmp_path / "only"
        src.mkdir()
        (src / "point_0.85.ferm").write_text(Path(h2_path).read_text())
        out = tmp_path / "one"
        assert main(["scan", str(src), "--out", str(out), "--nf", "2"]) == 0
        _, rows = read_csv(out / "pes.csv")
        assert len(rows) == 1 and float(rows[0][0]) == 0.85

    def test_inconsistent_qubit_counts_rejected(self, tmp_path, h2_path, capsys):
        src = tmp_path / "mixed"
        src.mkdir()
        (src / "point_0.5.ferm").write_text(Path(h2_path).read_text())
        (src / "point_0.9.ferm").write_text("modes 6\n1.0 0.0 0^ 0\n")
        assert main(["scan", str(src), "--out", str(tmp_path / "o"), "--nf", "2"]) == 2
        assert "inconsistent qubit counts" in capsys.readouterr().err

    def test_empty_directory_is_input_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["scan", str(empty), "--out", str(tmp_path / "o"), "--nf", "2"]) == 2
        assert "no Hamiltonian files" in capsys.readouterr().err

    # Three particles in 40 modes up to triple excitations: all 9,880
    # states of the sector, over the 4,096-state subspace limit.
    OVERSIZED = ["--nf", "3", "--order", "3", "--backend", "sampled", "--shots", "200"]

    def test_capacity_error_leaves_no_output_directory(self, tmp_path, capsys):
        src = tmp_path / "wide"
        src.mkdir()
        (src / "point_0.7.ferm").write_text(WIDE_FERMION)
        out = tmp_path / "pes"
        assert main(["scan", str(src), "--out", str(out), *self.OVERSIZED]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error:") and "subspace size 9880" in err
        assert not out.exists()

    def test_failing_later_point_leaves_no_output_directory(self, tmp_path, capsys):
        src = tmp_path / "points"
        src.mkdir()
        # six modes: the whole 20-state sector
        (src / "p_0.5.ferm").write_text("modes 6\n-1.0 0.0 0^ 0\n0.5 0.0 1^ 4\n0.5 0.0 4^ 1\n")
        (src / "p_0.9.ferm").write_text(WIDE_FERMION)
        out = tmp_path / "out"
        assert main(["scan", str(src), "--out", str(out), *self.OVERSIZED]) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error:") and "subspace size 9880" in err
        assert not out.exists()

    def test_unparseable_name_is_input_error(self, tmp_path, h2_path):
        src = tmp_path / "names"
        src.mkdir()
        (src / "nodistance.ferm").write_text(Path(h2_path).read_text())
        assert main(["scan", str(src), "--out", str(tmp_path / "o"), "--nf", "2"]) == 2


class TestCalibrate:
    def test_writes_matrices(self, tmp_path):
        out = tmp_path / "cal.json"
        assert main(
            ["calibrate", "--noise", "0.02,0.05", "--qubits", "3", "--shots", "0",
             "-o", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert len(payload["matrices"]) == 3
        assert payload["matrices"][0][1][0] == pytest.approx(0.02)

    def test_bad_noise_is_input_error(self, tmp_path):
        assert main(
            ["calibrate", "--noise", "0.9,0.9", "--qubits", "2",
             "-o", str(tmp_path / "c.json")]
        ) == 2

    @pytest.mark.parametrize(
        "sizes", [["--qubits", "-1"], ["--qubits", "0"], ["--qubits", "0", "--shots", "-5"]]
    )
    def test_impossible_qubit_count_is_input_error(self, tmp_path, capsys, sizes):
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--noise", "0.02,0.02", *sizes, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: --qubits=") and "must be at least 1" in err
        assert not out.exists()

    def test_negative_shots_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "cal.json"
        assert main(
            ["calibrate", "--noise", "0.02,0.02", "--qubits", "2", "--shots", "-5",
             "-o", str(out)]
        ) == 2
        assert capsys.readouterr().err.startswith(
            "input error: --shots='-5' is not a valid value: must be at least 0"
        )
        assert not out.exists()


class TestPublish:
    """Every command computes all of its output before it writes a file, then
    writes each file to a ``.tmp`` sibling and renames it into place."""

    @staticmethod
    def fail_second_build(monkeypatch):
        build = heffsolve.cli.build_effective_hamiltonian
        calls = []

        def build_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise ValueError("the second build failed")
            return build(*args, **kwargs)

        monkeypatch.setattr(heffsolve.cli, "build_effective_hamiltonian", build_once)

    @pytest.mark.parametrize("command", ["solve", "scan"])
    def test_a_failed_second_build_leaves_no_output(
        self, tmp_path, capsys, monkeypatch, h2_path, command
    ):
        # the first run's (or point's) bundle was once written beside an
        # empty directory for the second
        self.fail_second_build(monkeypatch)
        out = tmp_path / "out"
        argv = {
            "solve": ["solve", h2_path, "--backend", "sampled", "--shots", "200", "--repeats", "2"],
            "scan": ["scan", str(DATA)],
        }[command]
        assert main([*argv, "--out", str(out), "--nf", "2"]) == 2
        assert capsys.readouterr().err == "input error: the second build failed\n"
        assert not out.exists()

    @staticmethod
    def command_line(command: str, h2_path: str, out: Path) -> list[str]:
        return {
            "transform": ["transform", h2_path, "-o", str(out)],
            "subspace": ["subspace", h2_path, "-o", str(out), "--nf", "2"],
            "calibrate": ["calibrate", "--noise", "0.02,0.05", "--qubits", "2", "-o", str(out)],
            "solve": ["solve", h2_path, "--out", str(out), "--nf", "2", "--backend", "sampled",
                      "--shots", "200", "--repeats", "2"],
            "scan": ["scan", str(DATA), "--out", str(out), "--nf", "2"],
        }[command]

    @pytest.mark.parametrize("command", ["transform", "subspace", "calibrate", "solve", "scan"])
    def test_every_file_is_renamed_into_place(self, tmp_path, monkeypatch, h2_path, command):
        replace, renamed = os.replace, []

        def record(source, target):
            renamed.append((str(source), str(target)))
            replace(source, target)

        monkeypatch.setattr(os, "replace", record)
        out = tmp_path / "out"
        assert main(self.command_line(command, h2_path, out)) == 0
        written = [str(out / name) for name in tree(out)] if out.is_dir() else [str(out)]
        assert len(written) == len(renamed)
        assert sorted(target for _, target in renamed) == sorted(written)
        assert all(source == target + ".tmp" for source, target in renamed)

    @pytest.mark.parametrize("command", ["transform", "subspace", "calibrate"])
    def test_a_directory_for_the_output_file_is_left_as_it_was(
        self, tmp_path, capsys, h2_path, command
    ):
        # the .tmp sibling of a rename that failed was once left behind
        out = tmp_path / "out"
        out.mkdir()
        assert main(self.command_line(command, h2_path, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and str(out) in err
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "flags",
        [("--backend", "oracle"),
         ("--backend", "sampled", "--shots", "300", "--noise", "0.02,0.02", "--mitigate",
          "--repeats", "2")],
        ids=["oracle", "sampled-mitigated-repeats"],
    )
    def test_a_scan_point_is_the_solve_of_its_file(self, tmp_path, flags):
        assert main(["scan", str(DATA), "--out", str(tmp_path / "scan"), "--nf", "2", *flags]) == 0
        for path in sorted(DATA.iterdir()):
            solved = tmp_path / path.stem
            assert main(["solve", str(path), "--out", str(solved), "--nf", "2", *flags]) == 0
            point, alone = tree(tmp_path / "scan" / path.stem), tree(solved)
            assert "heff.json" in point or "run_001/heff.json" in point
            # the manifests match too: each records the same input path
            for files in (point, alone):
                del files["timing.json"]
            assert point == alone


class TestEnvOverrides:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("HEFFSOLVE_SHOTS", "abc"),
            ("HEFFSOLVE_SEED", "1.5"),
            ("HEFFSOLVE_STRATEGY", "annealing"),
            ("HEFFSOLVE_BACKEND", "quantum"),
            ("HEFFSOLVE_DIAGONALS", "circuits"),
            ("HEFFSOLVE_MITIGATE", "maybe"),
        ],
    )
    def test_bad_value_is_input_error(self, tmp_path, h2_path, monkeypatch, capsys, name, value):
        monkeypatch.setenv(name, value)
        out = tmp_path / "env"
        assert main(["solve", h2_path, "--out", str(out), "--nf", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and name in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, env, name",
        [
            (("--ns", "abc"), {}, "--ns"),
            ((), {"HEFFSOLVE_NS": "abc"}, "HEFFSOLVE_NS"),
            (("--backend", "sampled", "--noise", "0.1,abc"), {}, "--noise"),
            (("--backend", "sampled"), {"HEFFSOLVE_NOISE": "abc"}, "HEFFSOLVE_NOISE"),
        ],
        ids=["ns-flag", "ns-env", "noise-flag", "noise-env"],
    )
    def test_unparseable_value_names_its_source(
        self, tmp_path, h2_path, monkeypatch, capsys, flags, env, name
    ):
        for variable, value in env.items():
            monkeypatch.setenv(variable, value)
        out = tmp_path / "env"
        assert main(["solve", h2_path, "--out", str(out), "--nf", "2", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and name in err
        assert not (env and "--" in err)  # a bad variable does not blame the flag
        assert not out.exists()

    def test_shots_from_environment(self, tmp_path, h2_path, monkeypatch):
        monkeypatch.setenv("HEFFSOLVE_SHOTS", "123")
        monkeypatch.setenv("HEFFSOLVE_BACKEND", "sampled")
        out = tmp_path / "env"
        assert main(["solve", h2_path, "--out", str(out), "--nf", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["shots"] == 123
        assert manifest["config"]["backend"] == "sampled"

    @staticmethod
    def command_line(command: str, h2_path: str, out: Path) -> list[str]:
        return {
            "solve": ["solve", h2_path, "--out", str(out), "--nf", "2"],
            "scan": ["scan", str(DATA), "--out", str(out), "--nf", "2"],
            "calibrate": ["calibrate", "--noise", "0.02,0.02", "--qubits", "2", "-o", str(out)],
        }[command]

    # Every setting a command parses, with a text its parser rejects; a setting
    # without a variable, or whose flag carries no text, has only one source.
    PARSED = [
        ("solve", "nf", "abc", False), ("solve", "order", "1.5", True),
        ("solve", "ns", "abc", True), ("solve", "strategy", "annealing", True),
        ("solve", "mc_steps", "abc", True), ("solve", "mc_t0", "warm", False),
        ("solve", "mc_cooling", "abc", False), ("solve", "seed", "1.5", True),
        ("solve", "format", "json", False), ("solve", "backend", "quantum", True),
        ("solve", "shots", "abc", True), ("solve", "noise", "0.1,abc", True),
        ("solve", "style", "sideways", True), ("solve", "diagonals", "circuits", True),
        ("solve", "repeats", "two", True), ("scan", "levels", "abc", True),
        ("solve", "dos_bins", "abc", True), ("calibrate", "qubits", "abc", False),
        ("calibrate", "noise", "abc", False), ("calibrate", "shots", "abc", True),
        ("calibrate", "seed", "abc", True),
    ]
    CASES = [
        (command, f"--{name.replace('_', '-')}", text) for command, name, text, _ in PARSED
    ] + [
        (command, f"HEFFSOLVE_{name.upper()}", text)
        for command, name, text, variable in PARSED if variable
    ] + [("solve", "HEFFSOLVE_MITIGATE", "maybe")]

    @pytest.mark.parametrize("command, source, text", CASES, ids=[f"{c}:{s}" for c, s, _ in CASES])
    def test_every_parsed_setting_names_its_source(
        self, tmp_path, h2_path, monkeypatch, capsys, command, source, text
    ):
        out = tmp_path / "out"
        argv = self.command_line(command, h2_path, out)
        if source.startswith("HEFFSOLVE_"):
            monkeypatch.setenv(source, text)
        elif source in argv:
            argv[argv.index(source) + 1] = text
        else:
            argv += [source, text]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {source}={text!r} is not a valid value: ")
        assert not out.exists()

    # A value out of range, for its parser or for the class that takes it,
    # names its flag or variable as an unparseable text does.
    OUT_OF_RANGE = [
        ("solve", "HEFFSOLVE_REPEATS", "0", ()), ("scan", "HEFFSOLVE_LEVELS", "0", ()),
        ("solve", "HEFFSOLVE_DOS_BINS", "0", ()), ("calibrate", "HEFFSOLVE_SHOTS", "-1", ()),
        # one bin over MAX_DOS_BINS, refused before any histogram is allocated
        ("solve", "--dos-bins", "1000001", ()), ("solve", "HEFFSOLVE_DOS_BINS", "1000001", ()),
        ("solve", "--ns", "0", ()), ("solve", "HEFFSOLVE_NS", "0", ()),
        ("solve", "HEFFSOLVE_ORDER", "-1", ()), ("solve", "HEFFSOLVE_MC_STEPS", "-1", ()),
        ("solve", "--mc-t0", "-1", ()), ("solve", "--mc-cooling", "2", ()),
        ("solve", "HEFFSOLVE_SHOTS", "0", ("--backend", "sampled")),
    ]

    @pytest.mark.parametrize(
        "command, source, text, flags", OUT_OF_RANGE,
        ids=[f"{c}:{s}={t}" for c, s, t, _ in OUT_OF_RANGE],
    )
    def test_a_value_out_of_range_names_its_source(
        self, tmp_path, h2_path, monkeypatch, capsys, command, source, text, flags
    ):
        out = tmp_path / "out"
        argv = [*self.command_line(command, h2_path, out), *flags]
        if source.startswith("HEFFSOLVE_"):
            monkeypatch.setenv(source, text)
            flag = "--" + source.removeprefix("HEFFSOLVE_").lower().replace("_", "-")
        else:
            argv += [source, text]
            flag = source
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and f"{source}={text!r}" in err
        assert err.count(flag) == (flag == source)  # a bad variable does not blame the flag
        assert not out.exists()

    VARIABLES = ["ORDER", "NS", "STRATEGY", "MC_STEPS", "SEED", "BACKEND", "SHOTS", "NOISE",
                 "MITIGATE", "STYLE", "DIAGONALS", "REPEATS", "LEVELS", "DOS_BINS"]

    @pytest.mark.parametrize(
        "command, read",
        [
            ("transform", ()),
            ("subspace", ("ORDER", "NS", "STRATEGY", "MC_STEPS", "SEED")),
            ("calibrate", ("SHOTS", "SEED")),
        ],
    )
    def test_a_command_reads_only_the_variables_of_its_settings(
        self, tmp_path, h2_path, monkeypatch, command, read
    ):
        # each variable the command does not read holds a value no parser accepts
        for name in self.VARIABLES:
            if name not in read:
                monkeypatch.setenv(f"HEFFSOLVE_{name}", "abc")
        out = tmp_path / "out"
        argv = {
            "transform": ["transform", h2_path],
            "subspace": ["subspace", h2_path, "--nf", "2"],
            "calibrate": ["calibrate", "--noise", "0.02,0.02", "--qubits", "2"],
        }[command]
        assert main([*argv, "-o", str(out)]) == 0
        assert out.read_text()

    def test_help_reads_no_variable(self, monkeypatch, capsys):
        for name in self.VARIABLES:
            monkeypatch.setenv(f"HEFFSOLVE_{name}", "abc")
        for argv in (["--help"], ["solve", "--help"]):
            with pytest.raises(SystemExit) as done:
                main(argv)
            assert done.value.code == 0
            assert capsys.readouterr().out.startswith("usage: heffsolve")


class TestCommandFlags:
    """A run builds only its command's flags; help and refusals read as when
    every command's flags were built."""

    SELECTION = ["--nf", "--order", "--ns", "--strategy", "--mc-steps", "--mc-t0", "--mc-cooling",
                 "--seed", "--format"]
    RUN = [*SELECTION, "--basis", "--backend", "--shots", "--noise", "--mitigate", "--style",
           "--diagonals", "--repeats"]
    OWN = {
        "transform": ["-o", "--output"],
        "subspace": ["-o", "--output", *SELECTION],
        "solve": ["--out", *RUN, "--dos-bins"],
        "scan": ["--out", *RUN, "--levels", "--dos-bins"],
        "calibrate": ["--noise", "--qubits", "--shots", "--seed", "-o", "--output"],
    }

    @staticmethod
    def help_text(capsys, parse, command):
        with pytest.raises(SystemExit) as done:
            parse([command, "-h"])
        assert done.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", list(OWN))
    def test_every_command_help_lists_its_own_flags(self, capsys, command):
        text = self.help_text(capsys, main, command)
        assert text == self.help_text(capsys, heffsolve.cli.build_parser().parse_args, command)
        listed = set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", text))
        assert listed == {"-h", "--help", *self.OWN[command]}

    @pytest.mark.parametrize(
        "command, flag",
        [("solve", "--qubits"), ("solve", "--levels"), ("subspace", "--backend"),
         ("calibrate", "--nf"), ("transform", "--seed")],
    )
    def test_a_flag_of_another_command_is_refused(self, tmp_path, capsys, h2_path, command, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as done:
            main([*TestPublish.command_line(command, h2_path, out), flag, "3"])
        assert done.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: heffsolve [-h] {transform,subspace,solve,scan,calibrate} ...\n")
        assert err.endswith(f"heffsolve: error: unrecognized arguments: {flag} 3\n")
        assert not out.exists()


class TestManifestConfig:
    """``manifest.json``'s ``config`` of a solve, as the release before the
    single settings path wrote it, less ``levels``, which only ``scan`` reads."""

    DEFAULTS = {
        "backend": "oracle", "basis_file": None, "diagonals": "classical", "dos_bins": 20,
        "mc_cooling": 0.95, "mc_steps": 2000, "mc_t0": None, "mitigation": False,
        "noise": None, "order": 2, "particle_number": 2, "repeats": 1, "seed": 0, "shots": 8000,
        "strategy": "exhaustive", "style": "direct", "target_size": "all",
    }
    FLAGS = {
        "backend": "sampled", "basis_file": "basis.txt", "diagonals": "circuit", "dos_bins": 7,
        "mc_cooling": 0.9, "mc_steps": 40, "mc_t0": 0.5, "mitigation": True,
        "noise": {"p01": 0.01, "p10": 0.02}, "order": 1, "particle_number": 2, "repeats": 2,
        "seed": 3, "shots": 300, "strategy": "mc", "style": "indirect", "target_size": 4,
    }
    VARIABLES = {
        "backend": "sampled", "basis_file": None, "diagonals": "circuit", "dos_bins": 7,
        "mc_cooling": 0.95, "mc_steps": 40, "mc_t0": None, "mitigation": True,
        "noise": {"p01": 0.01, "p10": 0.02}, "order": 1, "particle_number": 2, "repeats": 2,
        "seed": 3, "shots": 300, "strategy": "mc", "style": "indirect", "target_size": 4,
    }
    FLAGS_OVER_VARIABLES = {
        "backend": "sampled", "basis_file": None, "diagonals": "classical", "dos_bins": 5,
        "mc_cooling": 0.95, "mc_steps": 10, "mc_t0": None, "mitigation": True,
        "noise": {"p01": 0.03, "p10": 0.04}, "order": 2, "particle_number": 2, "repeats": 1,
        "seed": 5, "shots": 100, "strategy": "exhaustive", "style": "direct",
        "target_size": "all",
    }
    ENVIRONMENT = {
        "ORDER": "1", "NS": "4", "STRATEGY": "mc", "MC_STEPS": "40", "SEED": "3",
        "BACKEND": "sampled", "SHOTS": "300", "NOISE": "0.01,0.02", "MITIGATE": "yes",
        "STYLE": "indirect", "DIAGONALS": "circuit", "REPEATS": "2", "LEVELS": "3",
        "DOS_BINS": "7",
    }

    def config(self, tmp_path, monkeypatch, h2_path, flags=(), env=None):
        for name, value in (env or {}).items():
            monkeypatch.setenv(f"HEFFSOLVE_{name}", value)
        out = tmp_path / "out"
        assert main(["solve", h2_path, "--out", str(out), "--nf", "2", *flags]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config.pop("input") == h2_path
        return config

    def test_defaults(self, tmp_path, monkeypatch, h2_path):
        assert self.config(tmp_path, monkeypatch, h2_path) == self.DEFAULTS

    def test_every_flag(self, tmp_path, monkeypatch, h2_path):
        monkeypatch.chdir(tmp_path)
        Path("basis.txt").write_text("1100\n1010\n0101\n0011\n")
        flags = [
            "--order", "1", "--ns", "4", "--strategy", "mc", "--mc-steps", "40",
            "--mc-t0", "0.5", "--mc-cooling", "0.9", "--seed", "3", "--format", "fermion",
            "--basis", "basis.txt", "--backend", "sampled", "--shots", "300",
            "--noise", "0.01,0.02", "--mitigate", "--style", "indirect", "--diagonals", "circuit",
            "--repeats", "2", "--dos-bins", "7",
        ]
        assert self.config(tmp_path, monkeypatch, h2_path, flags) == self.FLAGS

    def test_every_variable(self, tmp_path, monkeypatch, h2_path):
        config = self.config(tmp_path, monkeypatch, h2_path, env=self.ENVIRONMENT)
        assert config == self.VARIABLES

    def test_a_flag_beats_its_variable(self, tmp_path, monkeypatch, h2_path):
        env = {**self.ENVIRONMENT, "BACKEND": "exact", "MITIGATE": "off"}
        flags = [
            "--order", "2", "--ns", "all", "--strategy", "exhaustive", "--mc-steps", "10",
            "--seed", "5", "--backend", "sampled", "--shots", "100", "--noise", "0.03,0.04",
            "--mitigate", "--style", "direct", "--diagonals", "classical", "--repeats", "1",
            "--dos-bins", "5",
        ]
        config = self.config(tmp_path, monkeypatch, h2_path, flags, env)
        assert config == self.FLAGS_OVER_VARIABLES
