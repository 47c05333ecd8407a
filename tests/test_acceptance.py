"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import itertools
import json
import time
from math import comb
from pathlib import Path

import numpy as np

from heffsolve.circuits import ReadoutNoise, prepare_basis_circuit
from heffsolve.cli import main
from heffsolve.estimator import (
    Backend,
    build_calibration,
    build_effective_hamiltonian,
    measure_offdiagonal,
)
from heffsolve.fermion import (
    FermionHamiltonian,
    FermionTerm,
    jw_ladder,
    jw_transform,
    load_fermion_hamiltonian,
)
from heffsolve.pauli import BasisState, PauliString, PauliSum
from heffsolve.spectra import (
    eigendecompose,
    exact_sector_spectrum,
    sector_basis,
)
from heffsolve.subspace import SubspaceSpec, basis_from_states, build_subspace

from conftest import (
    apply_per_qubit,
    basis_vector,
    bit_strings,
    dense_fermion,
    dense_projection,
    dense_sum,
    outcome_distribution,
    random_conserving_hamiltonian,
    string_matrix_element,
)

DATA = Path(__file__).resolve().parent.parent / "data"
SECTOR_BITS = ["1100", "1010", "1001", "0110", "0101", "0011"]


def report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def h2_style_hamiltonian() -> PauliSum:
    return jw_transform(load_fermion_hamiltonian(str(DATA / "h2_style_R0.70.ferm")))


def test_criterion_1_oracle_equivalence_both_styles():
    """Exact-circuit Heff == brute-force projection for 50 random Hamiltonians."""
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = 0.0
    for index in range(50):
        if index % 2 == 0:
            hamiltonian = random_conserving_hamiltonian(rng, 4, fermionic_terms=4)
            states = sector_basis(4, 2)
        else:
            hamiltonian = random_conserving_hamiltonian(rng, 6, fermionic_terms=4)
            basis6 = build_subspace(hamiltonian, SubspaceSpec(3, 2, target_size=6))
            states = list(basis6.states)
        assert hamiltonian.num_terms <= 30
        basis = basis_from_states(hamiltonian, states)
        brute_force = dense_projection(hamiltonian, basis.states)
        for style in ("direct", "indirect"):
            heff = build_effective_hamiltonian(hamiltonian, basis, Backend.exact(style=style))
            worst = max(worst, float(np.abs(heff.matrix - brute_force).max()))
            assert np.abs(heff.matrix - brute_force).max() <= 1e-10
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0
    report(1, f"50 instances, both styles, max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_matrix_element_discreteness():
    """<m|h|n> over every N=4 string and basis pair is exactly 0, +-1 or +-i."""
    allowed = {0 + 0j, 1 + 0j, -1 + 0j, 1j, -1j}
    states = [BasisState.from_mask(m, 4) for m in range(16)]
    checked = 0
    for labels in itertools.product("IXYZ", repeat=4):
        string = PauliString("".join(labels))
        for m in states:
            for n in states:
                value = string_matrix_element(m, string, n)
                assert value in allowed
                assert float(value.real).is_integer() and float(value.imag).is_integer()
                checked += 1
    report(2, f"{checked} elements, all exactly in {{0, +-1, +-i}}")


def test_criterion_3_complete_sector_recovery():
    """Heff over the full two-particle basis reproduces the sector spectrum."""
    rng = np.random.default_rng(103)
    hamiltonians = [h2_style_hamiltonian()] + [
        random_conserving_hamiltonian(rng, 4) for _ in range(10)
    ]
    worst = 0.0
    for hamiltonian in hamiltonians:
        basis = basis_from_states(hamiltonian, [BasisState(b) for b in SECTOR_BITS])
        sector = exact_sector_spectrum(hamiltonian, 2).eigenvalues
        for backend in (Backend.oracle(), Backend.exact()):
            heff = build_effective_hamiltonian(hamiltonian, basis, backend)
            deviation = float(np.abs(eigendecompose(heff).eigenvalues - sector).max())
            worst = max(worst, deviation)
            assert deviation <= 1e-10
    report(3, f"{len(hamiltonians)} Hamiltonians, max eigenvalue deviation {worst:.2e}")


def test_criterion_4_variational_bound_and_monotonicity():
    """Subspace ground energies upper-bound the sector minimum, monotonically."""
    rng = np.random.default_rng(104)
    violations = 0.0
    for index in range(100):
        hamiltonian = random_conserving_hamiltonian(rng, 8, fermionic_terms=5, max_strings=40)
        # LAPACK, as for every spectrum; test_spectra checks it against a Jacobi reference
        exact_min = exact_sector_spectrum(hamiltonian, 4).eigenvalues[0]
        minima = []
        orders = (1, 2, 3) if index < 25 else (2,)
        for order in orders:
            basis = build_subspace(hamiltonian, SubspaceSpec(4, order))
            heff = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
            minima.append(eigendecompose(heff).eigenvalues[0])
        assert all(m >= exact_min - 1e-9 for m in minima)
        violations = min(violations, min(m - exact_min for m in minima))
        if len(minima) == 3:
            assert minima[0] >= minima[1] - 1e-12
            assert minima[1] >= minima[2] - 1e-12
    report(4, f"100 instances bounded, 25 S/SD/SDT chains monotone (worst margin {violations:.2e})")


def _shot_study_hamiltonian() -> PauliSum:
    terms = (
        FermionTerm(-1.0, ((0, True), (0, False))),
        FermionTerm(-0.5, ((2, True), (2, False))),
        FermionTerm(0.6, ((0, True), (2, False))),
        FermionTerm(0.6, ((2, True), (0, False))),
        FermionTerm(0.3 + 0.2j, ((1, True), (3, False))),
        FermionTerm(0.3 - 0.2j, ((3, True), (1, False))),
        FermionTerm(0.4, ((0, True), (1, True), (1, False), (0, False))),
    )
    return jw_transform(FermionHamiltonian(terms, 4))


def test_criterion_5_shot_statistics():
    """8000-shot estimates sit within 4 reported stderr; stderr ~ shots^-1/2."""
    hamiltonian = _shot_study_hamiltonian()
    n, nprime = BasisState("1100"), BasisState("1001")
    oracle = complex(
        sum(w * string_matrix_element(n, s, nprime) for w, s in hamiltonian)
    )
    assert abs(oracle.imag) > 0.05  # the study exercises both components

    def estimate(seed: int, shots: int):
        backend = Backend.sampled(shots=shots, seed=seed)
        return measure_offdiagonal(hamiltonian, n.mask, nprime.mask, backend)

    trials = 1000
    within = 0
    for seed in range(trials):
        est = estimate(seed, 8000)
        ok_re = abs(est.value.real - oracle.real) <= 4 * est.stderr_re + 1e-12
        ok_im = abs(est.value.imag - oracle.imag) <= 4 * est.stderr_im + 1e-12
        within += ok_re and ok_im
    assert within >= int(0.99 * trials)

    reps = 250
    spread = {}
    for shots in (500, 2000, 8000, 32000):
        values = [estimate(10_000 + k, shots).value.real for k in range(reps)]
        spread[shots] = float(np.std(values)) * float(np.sqrt(shots))
    reference = spread[8000]
    for shots, scaled in spread.items():
        assert abs(scaled / reference - 1.0) <= 0.20, (shots, spread)
    summary = ", ".join(f"{k}: {v:.3f}" for k, v in spread.items())
    report(5, f"{within}/{trials} within 4 stderr; sqrt(shots)-scaled spreads {{{summary}}}")


def test_criterion_6_excitation_combinatorics():
    """Excitation counts equal C(N_F, n) * C(N - N_F, n), exhaustively to N=12."""
    from heffsolve.subspace import enumerate_excitations

    checked = 0
    for num in range(2, 13):
        for n_f in range(1, num):
            reference = (1 << n_f) - 1
            for order in range(min(n_f, num - n_f) + 1):
                masks = enumerate_excitations(reference, num, order).tolist()
                assert len(masks) == comb(n_f, order) * comb(num - n_f, order)
                assert len(set(masks)) == len(masks)
                assert all(m.bit_count() == n_f for m in masks)
                checked += 1
    reference = (1 << 4) - 1
    total = sum(len(enumerate_excitations(reference, 12, k)) for k in range(5))
    assert total == 495
    complete = {
        bits
        for k in range(3)
        for bits in bit_strings(enumerate_excitations(BasisState("1100").mask, 4, k), 4)
    }
    assert complete == set(SECTOR_BITS)
    report(6, f"{checked} (N, N_F, order) cells; N=12 sector total 495; N=4 set matches")


def test_criterion_7_jordan_wigner_correctness():
    """Canonical anticommutation at N=4; spectra match direct fermionic matrices."""
    num = 4
    dense = {
        (mode, dagger): dense_sum(jw_ladder(mode, dagger, num))
        for mode in range(num)
        for dagger in (False, True)
    }
    identity = np.eye(1 << num)
    for i, j in itertools.product(range(num), range(num)):
        mixed = dense[(i, False)] @ dense[(j, True)] + dense[(j, True)] @ dense[(i, False)]
        assert np.abs(mixed - (identity if i == j else 0)).max() < 1e-12
        for dagger in (False, True):
            same = dense[(i, dagger)] @ dense[(j, dagger)] + dense[(j, dagger)] @ dense[(i, dagger)]
            assert np.abs(same).max() < 1e-12

    rng = np.random.default_rng(107)
    from conftest import random_fermion_terms

    worst = 0.0
    for num_modes in (4, 5, 6):
        for _ in range(4):
            fermionic = FermionHamiltonian(
                tuple(random_fermion_terms(rng, num_modes, 4)), num_modes
            )
            mapped = jw_transform(fermionic)
            full = dense_fermion(fermionic)
            n_f = num_modes // 2
            states = sector_basis(num_modes, n_f)
            vectors = np.stack([basis_vector(s) for s in states], axis=1)
            direct = np.linalg.eigvalsh(vectors.conj().T @ full @ vectors)
            via_jw = exact_sector_spectrum(mapped, n_f).eigenvalues
            worst = max(worst, float(np.abs(direct - via_jw).max()))
            assert np.abs(direct - via_jw).max() <= 1e-10
    report(7, f"anticommutators exact at N=4; sector spectra match to {worst:.2e}")


def test_criterion_8_mitigation_benefit():
    """Calibration-matrix mitigation beats raw noisy estimates almost always."""
    hamiltonian = h2_style_hamiltonian()
    basis = basis_from_states(hamiltonian, [BasisState(b) for b in SECTOR_BITS])
    noise = ReadoutNoise(0.02, 0.02)
    exact_ground = exact_sector_spectrum(hamiltonian, 2).eigenvalues[0]

    # infinite-shot exactness: each outcome indicator, pulled back through the
    # exact calibration's stored maps and averaged over the analytic noisy
    # distribution, recovers that outcome's noiseless probability
    calibration = build_calibration(noise, None, 0, 6)
    circuit = prepare_basis_circuit(BasisState("1100").mask, 4)
    noisy = outcome_distribution(circuit, noise)
    clean = outcome_distribution(circuit)
    maps = [calibration.pullbacks[q] for q in range(circuit.total_qubits)]
    recovered = np.array([apply_per_qubit(indicator, maps) @ noisy for indicator in np.eye(noisy.size)])
    assert np.abs(recovered - clean).max() <= 1e-12

    trials = 100
    raw_errors, fixed_errors = [], []
    for seed in range(trials):
        common = {
            "shots": 8000,
            "seed": seed,
            "noise": noise,
            "measure_diagonals_with_circuits": True,
        }
        raw = build_effective_hamiltonian(
            hamiltonian, basis, Backend.sampled(**common)
        )
        fixed = build_effective_hamiltonian(
            hamiltonian, basis, Backend.sampled(mitigation=True, **common)
        )
        raw_errors.append(abs(eigendecompose(raw).eigenvalues[0] - exact_ground))
        fixed_errors.append(abs(eigendecompose(fixed).eigenvalues[0] - exact_ground))
    wins = sum(f < r for f, r in zip(fixed_errors, raw_errors))
    assert wins >= 90
    assert np.median(fixed_errors) < np.median(raw_errors)
    report(
        8,
        f"mitigation won {wins}/100 trials; median error "
        f"{np.median(fixed_errors):.2e} vs {np.median(raw_errors):.2e}; exact recovery exact",
    )


def test_criterion_9_degeneracy_lifting_diagnostic():
    """Noise splits an exactly doubly-degenerate pair; the exact backend does not."""
    hamiltonian = PauliSum.from_label_weights(
        [(1.0, "ZZII"), (1.0, "IIZZ"), (0.3, "YXXY")]
    )
    pair = [BasisState("1010"), BasisState("1001")]
    basis = basis_from_states(hamiltonian, pair)
    exact = build_effective_hamiltonian(hamiltonian, basis, Backend.exact())
    exact_values = eigendecompose(exact).eigenvalues
    exact_split = float(exact_values[1] - exact_values[0])
    assert exact_split <= 1e-10

    noisy_backend = Backend.sampled(
        shots=8000, seed=9, noise=ReadoutNoise(0.02, 0.02),
        measure_diagonals_with_circuits=True,
    )
    noisy = build_effective_hamiltonian(hamiltonian, basis, noisy_backend)
    noisy_values = eigendecompose(noisy).eigenvalues
    noisy_split = float(noisy_values[1] - noisy_values[0])
    assert noisy_split > 1e-6
    report(9, f"exact split {exact_split:.1e}, noisy split {noisy_split:.3e}")


def test_criterion_10_reproducibility_and_accounting(tmp_path):
    """Identical manifests give byte-identical bundles; counts match closed form."""
    source = str(DATA / "h2_style_R0.70.ferm")
    args = [
        "solve", source, "--nf", "2", "--backend", "sampled", "--shots", "1000",
        "--seed", "11", "--noise", "0.02,0.02", "--mitigate",
        "--diagonals", "circuit", "--repeats", "2",
    ]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0

    first_files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert first_files == second_files
    compared = 0
    for rel in first_files:
        if rel.name == "timing.json":  # wall-clock log, documented exclusion
            continue
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), str(rel)
        compared += 1

    manifest = json.loads((first / "manifest.json").read_text())
    size = manifest["subspace_size"]
    for run in manifest["runs"]:
        counts = run["circuit_counts"]
        assert counts["diagonal"] == size
        assert counts["offdiagonal_real"] == comb(size, 2)
        assert counts["offdiagonal_imag"] == comb(size, 2)
        assert counts["offdiagonal_total"] == 2 * comb(size, 2)
    report(10, f"{compared} files byte-identical; counts = N_s + 2*C(N_s,2) per run")
