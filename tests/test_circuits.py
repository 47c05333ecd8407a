"""Statevector simulator, circuit builders, and sampling statistics."""

import itertools
import math

import numpy as np
import pytest

import heffsolve.spectra
from heffsolve.circuits import (
    Circuit,
    Gate,
    ReadoutNoise,
    apply_circuit,
    apply_noise_to_distribution,
    apply_per_qubit,
    build_indirect_circuit,
    build_offdiagonal_circuit,
    controlled_prepare,
    marginal_probabilities,
    measurement_rotations,
    outcome_distribution,
    prepare_basis_circuit,
    rng_from_seed,
    run_sparse,
    run_statevector,
    sample_outcome_counts,
    sparse_expectation,
    state_expectation,
)
from heffsolve.estimator import Backend, _sampled_estimate
from heffsolve.pauli import BasisState, PauliString
from heffsolve.spectra import CapacityError

from conftest import dense_sum, random_hermitian_sum, string_matrix_element, sum_matrix_element


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    dim = 1 << circuit.total_qubits
    columns = []
    for k in range(dim):
        start = np.zeros(dim, dtype=complex)
        start[k] = 1.0
        columns.append(apply_circuit(start, circuit))
    return np.stack(columns, axis=1)


class TestGates:
    @pytest.mark.parametrize(
        "gate",
        [
            Gate.h(0), Gate.s(0), Gate.sdg(0), Gate.x(0),
            Gate.rx(0, 0.7), Gate.ry(0, -1.3),
        ],
    )
    def test_single_qubit_unitarity(self, gate):
        for total in (1, 2, 3):
            for q in range(total):
                moved = Gate(gate.kind, (q,), gate.angle)
                u = circuit_unitary(Circuit(total, [moved]))
                assert np.allclose(u.conj().T @ u, np.eye(1 << total), atol=1e-12)

    def test_controlled_unitarity(self):
        for kind in ("cx", "cy", "cz"):
            for total in (2, 3):
                for c, t in itertools.permutations(range(total), 2):
                    u = circuit_unitary(Circuit(total, [Gate(kind, (c, t))]))
                    assert np.allclose(u.conj().T @ u, np.eye(1 << total), atol=1e-12)

    def test_cx_truth_table(self):
        u = circuit_unitary(Circuit(2, [Gate.cx(0, 1)]))
        # control qubit 0 = index bit 0: |01> (index 1) -> |11> (index 3)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[2, 2] = 1
        expected[3, 1] = expected[1, 3] = 1
        assert np.allclose(u, expected)

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Circuit(2, [Gate.h(2)])
        with pytest.raises(ValueError):
            Circuit(2, [Gate.cx(1, 1)])
        from heffsolve.pauli import PauliOp
        with pytest.raises(ValueError, match="identity"):
            Gate.controlled_pauli(0, 1, PauliOp.I)

    def test_norm_preserved_over_long_random_circuit(self, rng):
        total = 4
        circuit = Circuit(total)
        kinds = ["h", "s", "sdg", "x"]
        for _ in range(1000):
            if rng.random() < 0.3:
                c, t = (int(v) for v in rng.choice(total, 2, replace=False))
                circuit.add(Gate("c" + str(rng.choice(["x", "y", "z"])), (c, t)))
            else:
                circuit.add(Gate(str(rng.choice(kinds)), (int(rng.integers(total)),)))
        state = run_statevector(circuit)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


class TestControlledPrepare:
    def test_flips_set_bits_on_control_one(self):
        gates = controlled_prepare(BasisState("011"), control=3, control_value=1)
        assert [g.kind for g in gates] == ["cx", "cx"]
        assert sorted(g.qubits[1] for g in gates) == [1, 2]

    def test_zero_pattern_is_empty(self):
        assert controlled_prepare(BasisState("000"), 3, 1) == []
        gates = controlled_prepare(BasisState("000"), 3, 0)
        assert [g.kind for g in gates] == ["x", "x"]

    def test_control_value_zero_wraps_with_x(self):
        gates = controlled_prepare(BasisState("10"), 2, 0)
        assert [g.kind for g in gates] == ["x", "cx", "x"]

    def test_control_collision_rejected(self):
        with pytest.raises(ValueError, match="collides"):
            controlled_prepare(BasisState("011"), control=1, control_value=1)

    def test_entangled_preparation_state(self):
        # H then both branch preparations must give (|0>|n'> + |1>|n>)/sqrt(2)
        n, nprime = BasisState("1100"), BasisState("0110")
        circuit = Circuit(5, [Gate.h(4)])
        circuit.extend(controlled_prepare(nprime, 4, 0))
        circuit.extend(controlled_prepare(n, 4, 1))
        state = run_statevector(circuit)
        expected = np.zeros(32, dtype=complex)
        expected[nprime.mask] = 1 / math.sqrt(2)
        expected[n.mask | (1 << 4)] = 1 / math.sqrt(2)
        assert np.allclose(state, expected, atol=1e-12)


class TestOffdiagonalCircuit:
    def test_depth_is_linear(self):
        n, nprime = BasisState("111100"), BasisState("001111")
        real = build_offdiagonal_circuit(n, nprime, "real")
        controlled = [g for g in real.gates if g.is_controlled]
        single = [g for g in real.gates if not g.is_controlled]
        assert len(controlled) <= 2 * 6
        assert len(single) <= 4
        imag = build_offdiagonal_circuit(n, nprime, "imag")
        assert len([g for g in imag.gates if not g.is_controlled]) <= 5

    def test_rejects_equal_states(self):
        with pytest.raises(ValueError, match="diagonal"):
            build_offdiagonal_circuit(BasisState("10"), BasisState("10"), "real")

    def test_rejects_unknown_part(self):
        with pytest.raises(ValueError, match="part"):
            build_offdiagonal_circuit(BasisState("10"), BasisState("01"), "re")

    def test_single_string_element_recovery(self):
        # YXXY between |0110> and |1001>: Re = -1, Im = 0
        n, nprime = BasisState("0110"), BasisState("1001")
        h = PauliString("YXXY")
        values = {}
        for part in ("real", "imag"):
            circuit = build_offdiagonal_circuit(n, nprime, part)
            state = run_statevector(circuit)
            values[part] = 0.5 * (
                state_expectation(state, PauliString(h.label + "I"))
                + state_expectation(state, PauliString(h.label + "Z"))
            )
        assert 2 * values["real"] == pytest.approx(-1.0, abs=1e-10)
        assert -2 * values["imag"] == pytest.approx(0.0, abs=1e-10)

    def test_real_imag_combine_to_matrix_element(self, rng):
        for num in (4, 6):
            hamiltonian = random_hermitian_sum(rng, num, 8)
            for _ in range(6):
                i, j = (int(v) for v in rng.choice(1 << num, 2, replace=False))
                n = BasisState.from_mask(i, num)
                nprime = BasisState.from_mask(j, num)
                oracle = sum_matrix_element(n, hamiltonian, nprime)
                d_n = sum_matrix_element(n, hamiltonian, n).real
                d_np = sum_matrix_element(nprime, hamiltonian, nprime).real
                recovered = {}
                for part in ("real", "imag"):
                    circuit = build_offdiagonal_circuit(n, nprime, part)
                    state = run_statevector(circuit)
                    m = sum(
                        w.real * 0.5 * (
                            state_expectation(state, PauliString(s.label + "I"))
                            + state_expectation(state, PauliString(s.label + "Z"))
                        )
                        for w, s in hamiltonian
                    )
                    recovered[part] = m
                re_value = 2 * recovered["real"] - 0.5 * (d_n + d_np)
                im_value = 0.5 * (d_n + d_np) - 2 * recovered["imag"]
                assert re_value == pytest.approx(oracle.real, abs=1e-10)
                assert im_value == pytest.approx(oracle.imag, abs=1e-10)


class TestIndirectCircuit:
    def test_identity_string_gives_zero_overlap(self):
        # degenerate h = I: recovery with its (unit) diagonal elements gives
        # Re <n|I|n'> = 0 for n != n'
        n, nprime = BasisState("10"), BasisState("01")
        circuit = build_indirect_circuit(n, nprime, PauliString("II"), "real")
        probs = marginal_probabilities(run_statevector(circuit), 4, circuit.measured)
        both_zero = sum(probs[k] for k in range(16) if not k >> 2 & 1 and not k >> 3 & 1)
        d_n = d_nprime = 1.0
        assert 4 * both_zero - 1 - 0.5 * (d_n + d_nprime) == pytest.approx(0.0, abs=1e-10)

    def test_matches_direct_per_string(self, rng):
        num = 4
        n, nprime = BasisState("0110"), BasisState("1001")
        for label in ("YXXY", "XXYY", "XYIZ", "ZIXY"):
            h = PauliString(label)
            oracle = string_matrix_element(n, h, nprime)
            estimates = {}
            for part in ("real", "imag"):
                circuit = build_indirect_circuit(n, nprime, h, part)
                probs = marginal_probabilities(run_statevector(circuit), num + 2, circuit.measured)
                idx = np.arange(probs.shape[0])
                mask = (1 << num) | (1 << (num + 1))
                estimates[part] = float(probs[(idx & mask) == 0].sum())
            assert 4 * estimates["real"] - 1 == pytest.approx(oracle.real, abs=1e-10)
            assert 1 - 4 * estimates["imag"] == pytest.approx(oracle.imag, abs=1e-10)

    def test_uses_one_controlled_pauli_per_site(self):
        circuit = build_indirect_circuit(
            BasisState("0110"), BasisState("1001"), PauliString("XYIZ"), "real"
        )
        controlled_paulis = [g for g in circuit.gates if g.kind in ("cy", "cz")]
        meas = 5
        assert {g.kind for g in circuit.gates if g.qubits[0] == meas and g.is_controlled} == {
            "cx", "cy", "cz"
        }
        assert all(g.qubits[0] == meas for g in controlled_paulis)


def histogram(bits: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Dense counts over the read wires, outcome index bit ``j`` = row ``j``."""
    index = sum(row.astype(np.int64) << j for j, row in enumerate(bits))
    return np.bincount(index, weights=counts, minlength=1 << len(bits)).astype(np.int64)


def sampled(circuit: Circuit, observable: PauliString, shots: int, seed: int, noise=None):
    """Counts and (mean, stderr) of ``observable`` the way the pipeline samples.

    :func:`_sampled_estimate` (the sampler of every sampled matrix element)
    rotates the sparse state to the Z basis and reads the support parity
    from one draw; the counts are the same seed's draw over the measured
    wires of the rotated circuit, as a dense histogram.
    """
    rotated = Circuit(
        circuit.total_qubits,
        [*circuit.gates, *measurement_rotations(observable)],
        circuit.measured_qubits,
    )
    backend = Backend.sampled(shots=shots, noise=noise)
    mean, var = _sampled_estimate(run_sparse(circuit), [(1.0, observable)], backend, seed, None)
    draw = sample_outcome_counts(run_sparse(rotated), shots, rng_from_seed(seed), noise, rotated.measured)
    return histogram(*draw), mean, math.sqrt(var)


class TestExactExpectation:
    def test_ancilla_ground_state(self):
        state = run_statevector(Circuit(1))
        assert state_expectation(state, PauliString("Z")) == pytest.approx(1.0)

    def test_bell_state_zz(self):
        bell = Circuit(2, [Gate.h(0), Gate.cx(0, 1)])
        assert state_expectation(run_statevector(bell), PauliString("ZZ")) == pytest.approx(1.0)

    def test_projector_decomposition_matches_dense(self, rng):
        # m0 = sum_s (w_s/2)(<I x h_s> + <Z x h_s>) equals <psi|(|0><0| x H)|psi>
        hamiltonian = random_hermitian_sum(rng, 3, 6)
        circuit = build_offdiagonal_circuit(BasisState("110"), BasisState("011"), "real")
        state = run_statevector(circuit)
        via_strings = sum(
            w.real * 0.5 * (
                state_expectation(state, PauliString(s.label + "I"))
                + state_expectation(state, PauliString(s.label + "Z"))
            )
            for w, s in hamiltonian
        )
        projector = np.zeros((2, 2))
        projector[0, 0] = 1.0
        dense_m0 = np.kron(projector, dense_sum(hamiltonian))
        direct = float(np.vdot(state, dense_m0 @ state).real)
        assert via_strings == pytest.approx(direct, abs=1e-12)

    def test_observable_size_checked(self):
        with pytest.raises(ValueError):
            state_expectation(run_statevector(Circuit(2)), PauliString("Z"))


def random_gate_circuit(rng, total, gate_count):
    """Gates of every kind on random wires, rotations at random angles."""
    circuit = Circuit(total)
    for _ in range(gate_count):
        kind = str(rng.choice(["h", "s", "sdg", "x", "rx", "ry", "cx", "cy", "cz"]))
        if kind.startswith("c"):
            c, t = (int(v) for v in rng.choice(total, 2, replace=False))
            circuit.add(Gate(kind, (c, t)))
        elif kind in ("rx", "ry"):
            circuit.add(Gate(kind, (int(rng.integers(total)),), float(rng.uniform(-7, 7))))
        else:
            circuit.add(Gate(kind, (int(rng.integers(total)),)))
    return circuit


class TestSparseState:
    def test_matches_dense_on_random_gate_lists(self, rng):
        kinds = set()
        for _ in range(60):
            total = int(rng.integers(2, 11))
            circuit = random_gate_circuit(rng, total, int(rng.integers(1, 40)))
            kinds.update(g.kind for g in circuit.gates)
            dense = run_statevector(circuit)
            sparse = run_sparse(circuit)
            assert all(amp != 0 for amp in sparse.values())
            scattered = np.zeros_like(dense)
            scattered[list(sparse)] = list(sparse.values())
            assert np.abs(scattered - dense).max() <= 1e-12
            for _ in range(3):
                string = PauliString("".join(rng.choice(list("IXYZ"), size=total)))
                assert sparse_expectation(sparse, string) == pytest.approx(
                    state_expectation(dense, string), abs=1e-12
                )
        assert kinds == {"h", "s", "sdg", "x", "rx", "ry", "cx", "cy", "cz"}

    def test_measurement_circuits_stay_on_a_few_entries(self):
        n = BasisState.from_occupied((0, 9, 20, 39), 40)
        nprime = BasisState.from_occupied((3, 9, 27, 39), 40)
        string = PauliString("".join("X" if i in (0, 3, 20, 27) else "I" for i in range(40)))
        assert len(run_sparse(prepare_basis_circuit(n))) == 1
        assert len(run_sparse(build_offdiagonal_circuit(n, nprime, "imag"))) == 4
        assert len(run_sparse(build_indirect_circuit(n, nprime, string, "real"))) <= 16

    def test_support_over_the_dense_bound_is_a_capacity_error(self, monkeypatch):
        # After the basis rotations of a string with k = 4 X/Y sites, the
        # direct circuit holds 2^(k+2) = 64 entries.
        n, nprime = BasisState("110100"), BasisState("011001")
        string = PauliString("XYIXYI")
        circuit = build_offdiagonal_circuit(n, nprime, "real")
        circuit.extend(measurement_rotations(string))
        monkeypatch.setattr(heffsolve.spectra, "MAX_DENSE_DIMENSION", 8)
        assert len(run_sparse(circuit)) == 64
        monkeypatch.setattr(heffsolve.spectra, "MAX_DENSE_DIMENSION", 7)
        with pytest.raises(CapacityError):
            run_sparse(circuit)

    def test_a_nan_amplitude_fails_the_norm_check(self):
        circuit = Circuit(1, [Gate.h(0), Gate.rx(0, float("nan"))])
        for simulate in (run_sparse, run_statevector):
            with pytest.raises(RuntimeError, match="norm"):
                simulate(circuit)


class TestMarginals:
    def test_marginal_probabilities_brute_force(self, rng):
        total = 4
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        for measured in [(0,), (2,), (0, 2), (1, 3), (0, 1, 2, 3)]:
            probs = marginal_probabilities(state, total, measured)
            expected = np.zeros(1 << len(measured))
            for full in range(16):
                outcome = sum(((full >> q) & 1) << j for j, q in enumerate(measured))
                expected[outcome] += abs(state[full]) ** 2
            assert np.allclose(probs, expected, atol=1e-12)


class TestSampling:
    def test_deterministic_eigenstate(self):
        circuit = prepare_basis_circuit(BasisState("10"))
        counts, mean, stderr = sampled(circuit, PauliString("ZI"), shots=500, seed=3)
        assert mean == -1.0 and stderr == 0.0
        assert counts.tolist() == [0, 500, 0, 0]

    def test_reproducible_with_seed(self):
        circuit = Circuit(2, [Gate.h(0), Gate.cx(0, 1)])
        first = sampled(circuit, PauliString("ZZ"), shots=200, seed=11)
        second = sampled(circuit, PauliString("ZZ"), shots=200, seed=11)
        assert first[0].tolist() == second[0].tolist() and first[1:] == second[1:]

    def test_estimate_near_exact_at_8000_shots(self, rng):
        circuit = Circuit(2, [Gate.h(0), Gate.ry(1, 0.9), Gate.cx(0, 1)])
        observable = PauliString("XY")
        exact = state_expectation(run_statevector(circuit), observable)
        hits = 0
        trials = 60
        for seed in range(trials):
            _, mean, stderr = sampled(circuit, observable, shots=8000, seed=seed)
            if abs(mean - exact) <= 4 * stderr:
                hits += 1
        assert hits >= trials - 1

    def test_zero_noise_matches_noiseless_stream(self):
        circuit = Circuit(2, [Gate.h(0)])
        quiet = sampled(circuit, PauliString("ZI"), shots=300, seed=5)
        zeroed = sampled(
            circuit, PauliString("ZI"), shots=300, seed=5, noise=ReadoutNoise(0.0, 0.0)
        )
        assert quiet[0].tolist() == zeroed[0].tolist() and quiet[1:] == zeroed[1:]

    def test_noise_biases_deterministic_outcome(self):
        circuit = prepare_basis_circuit(BasisState("1"))
        noise = ReadoutNoise(0.0, 0.2)
        _, mean, _ = sampled(circuit, PauliString("Z"), shots=20000, seed=7, noise=noise)
        # true -1 outcome flips to +1 with p=0.2: expectation -> -0.6
        assert mean == pytest.approx(-0.6, abs=0.03)

    def test_measured_subset(self):
        circuit = Circuit(2, [Gate.x(1)], measured_qubits=(1,))
        counts, mean, _ = sampled(circuit, PauliString("IZ"), shots=100, seed=1)
        assert mean == -1.0
        assert counts.tolist() == [0, 100]

    def test_stderr_scales_with_shots(self):
        circuit = Circuit(1, [Gate.h(0)])
        reps = 200
        spread = {}
        for shots in (500, 8000):
            values = []
            for seed in range(reps):
                _, mean, _ = sampled(circuit, PauliString("Z"), shots=shots, seed=1000 + seed)
                values.append(mean)
            spread[shots] = np.std(values) * math.sqrt(shots)
        assert spread[500] == pytest.approx(spread[8000], rel=0.25)


class TestNoiseChannel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReadoutNoise(0.6, 0.0)
        with pytest.raises(ValueError):
            ReadoutNoise(-0.1, 0.0)

    def test_per_qubit_values(self):
        noise = ReadoutNoise((0.1, 0.2), 0.05)
        assert noise.for_qubit(1) == (0.2, 0.05)

    def test_analytic_channel_single_qubit(self):
        probs = np.array([1.0, 0.0])
        noisy = apply_noise_to_distribution(probs, ReadoutNoise(0.1, 0.3), (0,))
        assert np.allclose(noisy, [0.9, 0.1])

    def test_sampled_flips_match_analytic(self):
        circuit = Circuit(2, [Gate.h(0), Gate.cx(0, 1)])
        noise = ReadoutNoise(0.05, 0.1)
        analytic = outcome_distribution(circuit, noise)
        rng = rng_from_seed(99)
        counts = histogram(*sample_outcome_counts(run_sparse(circuit), 200000, rng, noise, (0, 1)))
        assert np.allclose(counts / 200000, analytic, atol=5e-3)

    def test_per_qubit_map_is_the_tensor_product(self, rng):
        # matrices[j] acts on outcome bit j, the least significant one first
        matrices = [rng.normal(size=(2, 2)) for _ in range(3)]
        vec = rng.normal(size=8)
        dense = np.kron(matrices[2], np.kron(matrices[1], matrices[0]))
        assert np.allclose(apply_per_qubit(vec, matrices), dense @ vec, atol=1e-12)

