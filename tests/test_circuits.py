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
    build_indirect_circuit,
    build_offdiagonal_circuit,
    class_basis_change,
    marginal_probabilities,
    prepare_basis_circuit,
    rng_from_seed,
    run_sparse,
    run_statevector,
    sample_outcome_counts,
    state_expectation,
)
from heffsolve.estimator import Backend, _estimate
from heffsolve.fermion import FermionHamiltonian, FermionTerm, jw_transform
from heffsolve.pauli import BasisState, PauliString, sites
from heffsolve.spectra import CapacityError

from conftest import (
    apply_noise_to_distribution,
    apply_per_qubit,
    dense_pauli,
    dense_sum,
    outcome_distribution,
    random_hermitian_sum,
    string_matrix_element,
    sum_matrix_element,
)


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
        [Gate.h(0), Gate("s", (0,)), Gate.sdg(0), Gate.x(0)],
    )
    def test_single_qubit_unitarity(self, gate):
        for total in (1, 2, 3):
            for q in range(total):
                moved = Gate(gate.kind, (q,))
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
        # a controlled identity is no gate kind
        with pytest.raises(ValueError, match="unknown gate kind"):
            Circuit(2, [Gate("ci", (0, 1))])

    def test_norm_preserved_over_long_random_circuit(self, rng):
        total = 4
        circuit = Circuit(total)
        kinds = ["h", "s", "sdg", "x"]
        for _ in range(1000):
            if rng.random() < 0.3:
                c, t = (int(v) for v in rng.choice(total, 2, replace=False))
                circuit.extend((Gate("c" + str(rng.choice(["x", "y", "z"])), (c, t)),))
            else:
                circuit.extend((Gate(str(rng.choice(kinds)), (int(rng.integers(total)),)),))
        state = run_statevector(circuit)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def depth(circuit: Circuit) -> int:
    """Layers of the circuit, each gate placed as early as its wires allow."""
    level = [0] * circuit.total_qubits
    for _, qubits in circuit.gates:
        top = 1 + max(level[q] for q in qubits)
        for q in qubits:
            level[q] = top
    return max(level)


def random_pairs(rng, count: int, max_qubits: int = 40):
    """Up to ``count`` pairs of distinct masks ``(n, n')`` on 1..max_qubits qubits."""
    for _ in range(count):
        num = int(rng.integers(1, max_qubits + 1))
        n, nprime = (int(v) for v in rng.integers(1 << num, size=2))
        if n != nprime:
            yield num, n, nprime


class TestBranchPreparation:
    """Both builders prepare ``|n'>`` with X gates, then fan out one CX from
    the preparation ancilla to each site of ``n ^ n'``."""

    @pytest.mark.parametrize("style", ["direct", "indirect"])
    def test_entangled_preparation_state(self, rng, style):
        # the gates before the closing Hadamards give (|0>|n'> + |1>|n>)/sqrt(2)
        for num, n, nprime in random_pairs(rng, 20, max_qubits=6):
            if style == "direct":
                opened = Circuit(num + 1, build_offdiagonal_circuit(n, nprime, num, "real").gates[:-1])
            else:
                # a string of no sites leaves the measurement ancilla in |0>
                gates = build_indirect_circuit(n, nprime, num, 0, 0, "real").gates
                opened = Circuit(num + 1, [g for g in gates[:-2] if g != Gate.h(num + 1)])
            expected = np.zeros(1 << num + 1, dtype=complex)
            expected[nprime] = expected[n | 1 << num] = 1 / math.sqrt(2)
            assert np.allclose(run_statevector(opened), expected, atol=1e-12)
            sparse = run_sparse(opened)
            # the sampler draws over the entries in this order
            assert list(sparse) == [nprime, n | 1 << num]
            assert all(amp == 1 / math.sqrt(2) for amp in sparse.values())

    def test_flips_set_bits(self):
        n, nprime = BasisState("1100").mask, BasisState("0110").mask
        circuit = build_offdiagonal_circuit(n, nprime, 4, "real")
        assert [g for g in circuit.gates if g.kind == "x"] == [Gate.x(1), Gate.x(2)]
        assert [g for g in circuit.gates if g.kind == "cx"] == [Gate.cx(4, 0), Gate.cx(4, 2)]

    def test_zero_pattern_prepares_nothing(self):
        # n' = 0 needs no X gate; n = 0 fans out to the sites of n'
        zero, pair = BasisState("000").mask, BasisState("011").mask
        assert [g.kind for g in build_offdiagonal_circuit(pair, zero, 3, "real").gates] == [
            "h", "cx", "cx", "h"
        ]
        assert [g.kind for g in build_offdiagonal_circuit(zero, pair, 3, "real").gates] == [
            "h", "x", "x", "cx", "cx", "h"
        ]


class TestOffdiagonalCircuit:
    def test_depth_is_linear(self, rng):
        # exact counts: |n ^ n'| CX, one X per set bit of n', and |n ^ n'| + 2
        # layers (one more S-dagger layer for the imaginary part)
        for num, n, nprime in random_pairs(rng, 200):
            flips = (n ^ nprime).bit_count()
            for part, extra in (("real", 0), ("imag", 1)):
                circuit = build_offdiagonal_circuit(n, nprime, num, part)
                kinds = [g.kind for g in circuit.gates]
                assert kinds.count("cx") == len([g for g in circuit.gates if g.is_controlled]) == flips
                assert kinds.count("x") == nprime.bit_count()
                assert kinds.count("h") == 2 and kinds.count("sdg") == extra
                assert len(kinds) == flips + nprime.bit_count() + 2 + extra
                assert depth(circuit) == flips + 2 + extra

    def test_rejects_equal_states(self):
        with pytest.raises(ValueError, match="diagonal"):
            build_offdiagonal_circuit(BasisState("10").mask, BasisState("10").mask, 2, "real")

    def test_rejects_unknown_part(self):
        with pytest.raises(ValueError, match="part"):
            build_offdiagonal_circuit(BasisState("10").mask, BasisState("01").mask, 2, "re")

    def test_single_string_element_recovery(self):
        # YXXY between |0110> and |1001>: Re = -1, Im = 0
        n, nprime = BasisState("0110"), BasisState("1001")
        h = PauliString("YXXY")
        values = {}
        for part in ("real", "imag"):
            circuit = build_offdiagonal_circuit(n.mask, nprime.mask, 4, part)
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
                    circuit = build_offdiagonal_circuit(n.mask, nprime.mask, num, part)
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
        circuit = build_indirect_circuit(n.mask, nprime.mask, 2, 0, 0, "real")
        probs = np.abs(run_statevector(circuit)) ** 2
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
                circuit = build_indirect_circuit(n.mask, nprime.mask, num, h.x_mask, h.z_mask, part)
                probs = np.abs(run_statevector(circuit)) ** 2
                idx = np.arange(probs.shape[0])
                mask = (1 << num) | (1 << (num + 1))
                estimates[part] = float(probs[(idx & mask) == 0].sum())
            assert 4 * estimates["real"] - 1 == pytest.approx(oracle.real, abs=1e-10)
            assert 1 - 4 * estimates["imag"] == pytest.approx(oracle.imag, abs=1e-10)

    def test_a_string_beyond_the_register_is_refused(self):
        n, nprime = BasisState("01"), BasisState("10")
        for x_mask, z_mask in ((0b100, 0), (0b01, 0b110)):
            with pytest.raises(ValueError, match="register size"):
                build_indirect_circuit(n.mask, nprime.mask, 2, x_mask, z_mask, "real")

    def test_uses_one_controlled_pauli_per_site(self):
        h = PauliString("XYIZ")
        circuit = build_indirect_circuit(
            BasisState("0110").mask, BasisState("1001").mask, 4, h.x_mask, h.z_mask, "real"
        )
        controlled_paulis = [g for g in circuit.gates if g.kind in ("cy", "cz")]
        meas = 5
        assert {g.kind for g in circuit.gates if g.qubits[0] == meas and g.is_controlled} == {
            "cx", "cy", "cz"
        }
        assert all(g.qubits[0] == meas for g in controlled_paulis)

    def test_gate_counts_are_exact(self, rng):
        # |n ^ n'| CX on the preparation ancilla, one controlled Pauli per string site
        for num, n, nprime in random_pairs(rng, 200):
            x_mask, z_mask = (int(v) for v in rng.integers(1 << num, size=2))
            prep, meas = num, num + 1
            for part in ("real", "imag"):
                circuit = build_indirect_circuit(n, nprime, num, x_mask, z_mask, part)
                controlled = [g for g in circuit.gates if g.is_controlled]
                from_prep = [g for g in controlled if g.qubits[0] == prep]
                assert {g.kind for g in from_prep} <= {"cx"}
                assert len(from_prep) == (n ^ nprime).bit_count()
                assert [g.qubits[1] for g in controlled if g.qubits[0] == meas] == list(
                    sites(x_mask | z_mask)
                )
                assert len(controlled) == (n ^ nprime).bit_count() + (x_mask | z_mask).bit_count()


def histogram(bits: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Dense counts over the read wires, outcome index bit ``j`` = row ``j``."""
    index = sum(row.astype(np.int64) << j for j, row in enumerate(bits))
    return np.bincount(index, weights=counts, minlength=1 << len(bits)).astype(np.int64)


def sampled(circuit: Circuit, observable: PauliString, shots: int, seed: int, noise=None):
    """Counts and (mean, stderr) of ``observable`` the way the pipeline samples.

    :func:`_estimate` (the reader of every matrix element)
    rotates the sparse state by the string's basis change and reads the
    parity of its Z-string image from one draw; the counts are the same
    seed's draw over every wire of the rotated circuit, as a dense histogram.
    """
    rotated = Circuit(
        circuit.total_qubits,
        [*circuit.gates, *class_basis_change([(observable.x_mask, observable.z_mask)])[0]],
    )
    backend = Backend.sampled(shots=shots, noise=noise)
    masks = (observable.x_mask, observable.z_mask)
    mean, var = _estimate(
        run_sparse(circuit), [(1.0, *masks)], backend, seed, None, circuit.total_qubits
    )
    wires = tuple(range(rotated.total_qubits))
    draw = sample_outcome_counts(run_sparse(rotated), shots, rng_from_seed(seed), noise, wires)
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
        circuit = build_offdiagonal_circuit(BasisState("110").mask, BasisState("011").mask, 3, "real")
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
    """Gates of every kind on random wires."""
    circuit = Circuit(total)
    for _ in range(gate_count):
        kind = str(rng.choice(["h", "s", "sdg", "x", "cx", "cy", "cz"]))
        if kind.startswith("c"):
            c, t = (int(v) for v in rng.choice(total, 2, replace=False))
            circuit.extend((Gate(kind, (c, t)),))
        else:
            circuit.extend((Gate(kind, (int(rng.integers(total)),)),))
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
        assert kinds == {"h", "s", "sdg", "x", "cx", "cy", "cz"}

    def test_measurement_circuits_stay_on_a_few_entries(self):
        n = sum(1 << q for q in (0, 9, 20, 39))
        nprime = sum(1 << q for q in (3, 9, 27, 39))
        string = PauliString("".join("X" if i in (0, 3, 20, 27) else "I" for i in range(40)))
        assert len(run_sparse(prepare_basis_circuit(n, 40))) == 1
        assert len(run_sparse(build_offdiagonal_circuit(n, nprime, 40, "imag"))) == 4
        indirect = build_indirect_circuit(n, nprime, 40, string.x_mask, string.z_mask, "real")
        assert len(run_sparse(indirect)) <= 16
        # a class basis change adds one Hadamard, whatever the class's sites
        direct = build_offdiagonal_circuit(n, nprime, 40, "imag")
        direct.extend(class_basis_change([(string.x_mask, string.z_mask | 1 << 40)])[0])
        assert len(run_sparse(direct)) <= 8

    def test_support_over_the_dense_bound_is_a_capacity_error(self, monkeypatch):
        # After a Hadamard on each of the k = 4 flipped sites (S-dagger first
        # on the Ys), the direct circuit holds 2^(k+2) = 64 entries.
        n, nprime = BasisState("110100"), BasisState("011001")
        string = PauliString("XYIXYI")
        circuit = build_offdiagonal_circuit(n.mask, nprime.mask, 6, "real")
        for site in sites(string.x_mask | string.z_mask):
            circuit.extend([Gate.sdg(site), Gate.h(site)] if string.label[site] == "Y" else [Gate.h(site)])
        monkeypatch.setattr(heffsolve.spectra, "MAX_DENSE_DIMENSION", 8)
        assert len(run_sparse(circuit)) == 64
        monkeypatch.setattr(heffsolve.spectra, "MAX_DENSE_DIMENSION", 7)
        with pytest.raises(CapacityError):
            run_sparse(circuit)

    def test_a_nan_amplitude_fails_the_norm_check(self):
        with pytest.raises(RuntimeError, match="norm"):
            run_sparse(Circuit(1, [Gate.h(0)]), {0: complex(float("nan"), 0.0)})


def commuting_classes():
    """The commuting classes of the flip groups of a 6-mode JW Hamiltonian,
    as ``(group size, [(weight, string)])``: hoppings with real, imaginary
    and complex amplitudes (2, 2 and 4 strings per group), a double
    excitation with a real amplitude (8), and two complex doubles on one
    site set, which merge into a 16-string group.  The groups with complex
    amplitudes split by Y parity."""
    rng = np.random.default_rng(5)

    def hermitian(c, ops):
        adjoint = tuple((mode, not dagger) for mode, dagger in reversed(ops))
        return [FermionTerm(c, ops), FermionTerm(np.conj(c), adjoint)]

    terms = []
    for (i, j), c in zip(((0, 3), (1, 2), (2, 5), (0, 4)), (0.7, 0.4 - 0.3j, -1.1j, 0.5)):
        terms += hermitian(c, ((i, True), (j, False)))
    terms += hermitian(0.9, ((0, True), (2, True), (3, False), (5, False)))
    terms += hermitian(0.6 + 0.8j, ((1, True), (2, True), (3, False), (4, False)))
    terms += hermitian(-0.5 + 0.2j, ((1, True), (3, True), (2, False), (4, False)))
    hamiltonian = jw_transform(FermionHamiltonian(tuple(terms), 6))
    groups = {}
    for w, s in hamiltonian:
        if s.x_mask:
            groups.setdefault(s.x_mask, []).append((w, s))
    classes = []
    for group in groups.values():
        for odd in (0, 1):
            members = [(w, s) for w, s in group if s.y_count % 2 == odd]
            if members:
                classes.append((len(group), [members[k] for k in rng.permutation(len(members))]))
    return classes


def masks_of(strings) -> list[tuple[int, int]]:
    return [(s.x_mask, s.z_mask) for s in strings]


class TestClassBasisChange:
    def test_each_string_maps_to_a_signed_z_string(self):
        # U s U^dagger = sign Z^a as dense matrices, for every string of every class
        classes = commuting_classes()
        # (group size, class size, Y parity); a complex hop's group splits 2 + 2
        sizes = {(size, len(members), members[0][1].y_count % 2) for size, members in classes}
        assert {(2, 2, 0), (2, 2, 1), (4, 2, 1), (8, 8, 0), (16, 8, 0), (16, 8, 1)} <= sizes
        for _, members in classes:
            strings = [s for _, s in members]
            gates, images = class_basis_change(masks_of(strings))
            u = circuit_unitary(Circuit(strings[0].num_qubits, gates))
            assert {g.kind for g in gates} <= {"cx", "sdg", "h"}
            for s, (sign, image) in zip(strings, images):
                # the image is a Z-string on the register: a z_mask and no x_mask
                assert sign in (1, -1) and 0 <= image < 1 << s.num_qubits
                z_string = PauliString.from_masks(0, image, s.num_qubits)
                rotated = u @ dense_pauli(s.label) @ u.conj().T
                assert np.abs(rotated - sign * dense_pauli(z_string.label)).max() <= 1e-12

    def test_weighted_class_sum_is_diagonal(self):
        # sum_s w s of one class, real or complex w, becomes sum_s w sign Z^a
        for _, members in commuting_classes():
            num = members[0][1].num_qubits
            gates, images = class_basis_change(masks_of(s for _, s in members))
            u = circuit_unitary(Circuit(num, gates))
            weighted = sum(w * dense_pauli(s.label) for w, s in members)
            images_sum = sum(
                w * sign * dense_pauli(PauliString.from_masks(0, z, num).label)
                for (w, _), (sign, z) in zip(members, images)
            )
            rotated = u @ weighted @ u.conj().T
            assert np.abs(rotated - np.diag(np.diag(rotated))).max() <= 1e-12
            assert np.abs(rotated - images_sum).max() <= 1e-12

    def test_z_strings_need_no_gates(self):
        strings = [PauliString("ZIZ"), PauliString("IZI"), PauliString("III")]
        assert class_basis_change(masks_of(strings)) == ([], [(1, s.z_mask) for s in strings])
        assert class_basis_change([]) == ([], [])

    def test_strings_outside_one_class_are_refused(self):
        for strings in (["XXI", "XYI"], ["XXI", "IXX"]):
            with pytest.raises(ValueError, match="parity"):
                class_basis_change(masks_of(PauliString(label) for label in strings))


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
        circuit = prepare_basis_circuit(BasisState("10").mask, 2)
        counts, mean, stderr = sampled(circuit, PauliString("ZI"), shots=500, seed=3)
        assert mean == -1.0 and stderr == 0.0
        assert counts.tolist() == [0, 500, 0, 0]

    def test_reproducible_with_seed(self):
        circuit = Circuit(2, [Gate.h(0), Gate.cx(0, 1)])
        first = sampled(circuit, PauliString("ZZ"), shots=200, seed=11)
        second = sampled(circuit, PauliString("ZZ"), shots=200, seed=11)
        assert first[0].tolist() == second[0].tolist() and first[1:] == second[1:]

    def test_estimate_near_exact_at_8000_shots(self, rng):
        # <XY> = 0 on |++>, so every shot's Y reading is a fair coin
        circuit = Circuit(2, [Gate.h(0), Gate.h(1), Gate.cx(0, 1)])
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
        circuit = prepare_basis_circuit(BasisState("1").mask, 1)
        noise = ReadoutNoise(0.0, 0.2)
        _, mean, _ = sampled(circuit, PauliString("Z"), shots=20000, seed=7, noise=noise)
        # true -1 outcome flips to +1 with p=0.2: expectation -> -0.6
        assert mean == pytest.approx(-0.6, abs=0.03)

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

