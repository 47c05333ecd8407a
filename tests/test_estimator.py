"""Effective-Hamiltonian assembly: backends, calibration, mitigation."""

import itertools
import json
import math
from math import comb

import numpy as np
import pytest

import heffsolve.estimator
from heffsolve.circuits import TAG_CALIBRATION, ReadoutNoise, derive_seed, rng_from_seed
from heffsolve.estimator import (
    Backend,
    CalibrationMatrix,
    CircuitCounts,
    build_calibration,
    build_effective_hamiltonian,
    heff_matrix_from_dict,
    heff_to_dict,
    heff_to_json,
    measure_diagonal,
    measure_offdiagonal,
    _outcome_values,
    _estimate,
)
from heffsolve.fermion import (
    FermionHamiltonian,
    FermionTerm,
    check_particle_conservation,
    jw_transform,
)
from heffsolve.pauli import (
    BasisState,
    PauliString,
    PauliSum,
    classify_terms,
    flip_cells,
    project_masks,
)
from heffsolve.spectra import eigendecompose, exact_sector_spectrum, sector_basis, sector_matrix
from heffsolve.subspace import MonteCarloSearch, SubspaceSpec, basis_from_states, build_subspace

from conftest import (
    apply_per_qubit,
    dense_projection,
    masks_of,
    random_conserving_hamiltonian,
    random_hermitian_sum,
    sum_matrix_element,
)
from test_acceptance import h2_style_hamiltonian

SECTOR_BASES = [BasisState(b) for b in ("1100", "1010", "1001", "0110", "0101", "0011")]


def two_particle_basis(hamiltonian):
    return basis_from_states(hamiltonian, SECTOR_BASES)


def random_sector(rng, num_modes, particles):
    """A random conserving Hamiltonian and its whole sector, shuffled."""
    hamiltonian = random_conserving_hamiltonian(rng, num_modes, max_strings=40)
    states = sector_basis(num_modes, particles)
    shuffled = [states[k] for k in rng.permutation(len(states))]
    return hamiltonian, basis_from_states(hamiltonian, shuffled)


def closed_sum(rng, num_qubits, sites, terms):
    """Random strings on ``sites`` only, with complex weights, and every
    state those sites span over a fixed background, shuffled: each string
    maps the states onto themselves, so most entries are nonzero."""
    labels = []
    for _ in range(terms):
        chars = ["I"] * num_qubits
        for site in sites:
            chars[site] = "IXYZ"[rng.integers(4)]
        labels.append("".join(chars))
    weights = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    hamiltonian = PauliSum.from_label_weights(zip(weights, labels), num_qubits)
    states = [
        BasisState.from_mask(1 << 4 | sum(1 << s for s, b in zip(sites, bits) if b), num_qubits)
        for bits in itertools.product((0, 1), repeat=len(sites))
    ]
    return hamiltonian, [states[k] for k in rng.permutation(len(states))]


def wide_sector(rng, num_modes=40, modes=(0, 6, 19, 31, 39), particles=2):
    """A conserving Hamiltonian on a wide register whose terms touch only
    ``modes`` (number terms, complex hoppings along the chain of ``modes``
    and one double excitation on its first four), and every
    ``particles``-state on those modes, shuffled.  Some pairs of states
    connect and some do not."""
    terms = [FermionTerm(float(rng.normal()), ((i, True), (i, False))) for i in modes]
    for i, j in zip(modes, modes[1:]):
        t = complex(rng.normal(), rng.normal())
        terms += [
            FermionTerm(t, ((i, True), (j, False))),
            FermionTerm(t.conjugate(), ((j, True), (i, False))),
        ]
    i, j, k, l = modes[:4]
    v = float(rng.normal())
    terms += [
        FermionTerm(v, ((i, True), (j, True), (k, False), (l, False))),
        FermionTerm(v, ((l, True), (k, True), (j, False), (i, False))),
    ]
    hamiltonian = jw_transform(FermionHamiltonian(tuple(terms), num_modes))
    states = [
        BasisState.from_mask(sum(1 << q for q in occupied), num_modes)
        for occupied in itertools.combinations(modes, particles)
    ]
    shuffled = [states[k] for k in rng.permutation(len(states))]
    return hamiltonian, basis_from_states(hamiltonian, shuffled)


def connecting_count(hamiltonian, n, nprime):
    """Off-diagonal strings that flip exactly ``n XOR n'``."""
    _, offdiag = classify_terms(hamiltonian)
    return sum(1 for _, s in offdiag if s.x_mask == n.mask ^ nprime.mask)


def connected_pairs(hamiltonian, states):
    """Unordered pairs that at least one string connects."""
    return sum(
        connecting_count(hamiltonian, n, nprime) > 0
        for n, nprime in itertools.combinations(states, 2)
    )


def connecting_settings(hamiltonian, states):
    """Sum over unordered pairs of the strings that connect the pair."""
    return sum(
        connecting_count(hamiltonian, states[i], states[j])
        for i in range(len(states))
        for j in range(i + 1, len(states))
    )


def connecting_classes(hamiltonian, states):
    """Sum over unordered pairs of the commuting classes of the strings that
    connect the pair: the distinct Y-count parities among them."""
    _, offdiag = classify_terms(hamiltonian)
    return sum(
        len({s.y_count % 2 for _, s in offdiag if s.x_mask == n.mask ^ nprime.mask})
        for n, nprime in itertools.combinations(states, 2)
    )


def six_mode_terms():
    """Number terms, real and complex hoppings and one double excitation on
    six modes: their strings hold both Y-count parities."""
    hops = [((0, 3), 0.4 - 0.3j), ((1, 4), -0.7), ((2, 5), 0.2j)]
    terms = [FermionTerm(-1.0 + 0.3 * k, ((k, True), (k, False))) for k in range(6)]
    for (i, j), c in hops:
        terms += [FermionTerm(c, ((i, True), (j, False))), FermionTerm(np.conj(c), ((j, True), (i, False)))]
    terms += [FermionTerm(0.3, ((0, True), (1, True), (4, False), (5, False))),
              FermionTerm(0.3, ((5, True), (4, True), (1, False), (0, False)))]
    return FermionHamiltonian(tuple(terms), 6)


class TestMaskForm:
    def test_a_measured_solve_builds_no_pauli_string(self, monkeypatch):
        # labels stay at the file edge: Jordan-Wigner, the particle check, both
        # reference searches, sampled and mitigated builds with circuit
        # diagonals in both styles, and the exact sector all read masks
        def refused(self, label):
            raise AssertionError(f"PauliString({label!r}) built")

        monkeypatch.setattr(PauliString, "__init__", refused)
        hamiltonian = jw_transform(six_mode_terms())
        assert check_particle_conservation(hamiltonian)
        build_subspace(hamiltonian, SubspaceSpec(3, 2, 12, MonteCarloSearch(steps=50)))
        basis = build_subspace(hamiltonian, SubspaceSpec(3, 2, 12))
        noise = ReadoutNoise(0.02, 0.03)
        for style in ("direct", "indirect"):
            backend = Backend.sampled(shots=200, seed=4, style=style, noise=noise, mitigation=True,
                                      measure_diagonals_with_circuits=True)
            assert build_effective_hamiltonian(hamiltonian, basis, backend).circuit_counts.settings
        exact_sector_spectrum(hamiltonian, 3)
        monkeypatch.undo()
        assert {s.y_count % 2 for _, s in hamiltonian if s.x_mask} == {0, 1}

    def test_a_solve_builds_no_basis_state(self, monkeypatch):
        # bit strings stay at the file edge: both reference searches, the
        # excitations, every backend (circuit diagonals and mitigation
        # included) and the exact sector pass occupation masks
        def refused(self, bits):
            raise AssertionError(f"BasisState({bits!r}) built")

        hamiltonian = jw_transform(six_mode_terms())
        monkeypatch.setattr(BasisState, "__init__", refused)
        searched = build_subspace(hamiltonian, SubspaceSpec(3, 2, 12, MonteCarloSearch(steps=50)))
        basis = build_subspace(hamiltonian, SubspaceSpec(3, 2, 12))
        noise = ReadoutNoise(0.02, 0.03)
        backends = (
            Backend.oracle(), Backend.exact(), Backend.exact("indirect"),
            Backend.sampled(shots=200, seed=4, noise=noise, mitigation=True,
                            measure_diagonals_with_circuits=True),
        )
        sizes = [build_effective_hamiltonian(hamiltonian, basis, backend).size for backend in backends]
        spectrum = exact_sector_spectrum(hamiltonian, 3)
        monkeypatch.undo()
        assert searched.size == basis.size == 12 and sizes == [12] * 4 and spectrum.size == 20


class TestBackendType:
    def test_default_shot_budget(self):
        assert Backend.sampled().shots == 8000

    def test_validation(self):
        with pytest.raises(ValueError):
            Backend(kind="quantum")
        with pytest.raises(ValueError):
            Backend(kind="sampled", shots=0)
        with pytest.raises(ValueError):
            Backend(kind="exact", noise=ReadoutNoise(0.1, 0.1))
        with pytest.raises(ValueError):
            Backend(kind="sampled", mitigation=True)

    def test_fields_are_read_only_and_replace_checks_again(self):
        backend = Backend.sampled(shots=100, seed=1)
        with pytest.raises(AttributeError):
            backend.seed = 2
        reseeded = backend._replace(seed=2)
        assert (reseeded.seed, reseeded.shots, backend.seed) == (2, 100, 1)
        with pytest.raises(ValueError, match="shots > 0"):
            backend._replace(shots=0)

    def test_describe_round_trips_through_json(self):
        backend = Backend.sampled(noise=ReadoutNoise(0.02, 0.02), mitigation=True)
        assert json.loads(json.dumps(backend.describe()))["mitigation"] is True


class TestMeasureDiagonal:
    def test_single_z_term_all_backends(self):
        hamiltonian = PauliSum.from_label_weights([(0.8, "ZIII")])
        n = BasisState("1000")
        for backend in (
            Backend.oracle(),
            Backend.exact(measure_diagonals_with_circuits=True),
            Backend.sampled(seed=5, measure_diagonals_with_circuits=True),
        ):
            estimate = measure_diagonal(hamiltonian, n.mask, backend)
            assert estimate.value.real == pytest.approx(-0.8, abs=1e-12)

    def test_flip_strings_are_skipped(self):
        hamiltonian = PauliSum.from_label_weights(
            [(0.5, "ZIII"), (0.7, "YXXY"), (0.2, "IIII")]
        )
        backend = Backend.exact(measure_diagonals_with_circuits=True)
        estimate = measure_diagonal(hamiltonian, BasisState("1100").mask, backend)
        assert estimate.executions == 2  # ZIII and IIII only
        assert estimate.value.real == pytest.approx(-0.3)

    def test_classical_default_even_when_sampled(self):
        hamiltonian = PauliSum.from_label_weights([(0.5, "ZIII")])
        estimate = measure_diagonal(hamiltonian, BasisState("1000").mask, Backend.sampled(seed=1))
        assert estimate.circuits == 0 and estimate.stderr_re == 0.0

    def test_sampled_noisy_within_four_stderr(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        n = BasisState("1100")
        oracle = sum_matrix_element(n, hamiltonian, n).real
        noise = ReadoutNoise(0.01, 0.01)
        hits = 0
        for seed in range(20):
            backend = Backend.sampled(
                seed=seed, noise=noise, mitigation=True,
                measure_diagonals_with_circuits=True,
            )
            calibration = build_calibration(noise, None, seed, 6)
            estimate = measure_diagonal(hamiltonian, n.mask, backend, calibration)
            if abs(estimate.value.real - oracle) <= 4 * max(estimate.stderr_re, 1e-4):
                hits += 1
        assert hits >= 19


class TestMeasureOffdiagonal:
    def test_matches_oracle_on_all_pairs(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        for style in ("direct", "indirect"):
            backend = Backend.exact(style=style)
            for i in range(6):
                for j in range(i + 1, 6):
                    n, nprime = SECTOR_BASES[i], SECTOR_BASES[j]
                    estimate = measure_offdiagonal(hamiltonian, n.mask, nprime.mask, backend)
                    oracle = sum_matrix_element(n, hamiltonian, nprime)
                    assert estimate.value == pytest.approx(oracle, abs=1e-10)

    def test_popcount_changing_pair_is_zero(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        n, nprime = BasisState("1100"), BasisState("1110")
        backend = Backend.exact()
        estimate = measure_offdiagonal(hamiltonian, n.mask, nprime.mask, backend)
        assert abs(estimate.value) < 1e-10

    def test_lone_string_pair(self):
        hamiltonian = PauliSum.from_label_weights([(1.0, "YXXY")])
        estimate = measure_offdiagonal(
            hamiltonian, BasisState("0110").mask, BasisState("1001").mask, Backend.exact()
        )
        assert estimate.value == pytest.approx(-1.0 + 0j, abs=1e-12)

    def test_requires_distinct_states(self):
        hamiltonian = PauliSum.from_label_weights([(1.0, "YXXY")])
        with pytest.raises(ValueError, match="distinct"):
            measure_offdiagonal(
                hamiltonian, BasisState("0110").mask, BasisState("0110").mask, Backend.oracle()
            )

    def test_oracle_measures_nothing(self):
        hamiltonian = PauliSum.from_label_weights([(1.0, "YXXY")])
        with pytest.raises(ValueError, match="measures nothing"):
            measure_offdiagonal(
                hamiltonian, BasisState("0110").mask, BasisState("1001").mask, Backend.oracle()
            )

    def test_diagonal_variances_do_not_enter(self):
        # Re = 2 m_re and Im = -2 m_im use no diagonal estimate, so neither
        # does their standard error.
        hamiltonian = PauliSum.from_label_weights([(1.0, "YXXY")])
        n, nprime = BasisState("0110"), BasisState("1001")
        exact = measure_offdiagonal(hamiltonian, n.mask, nprime.mask, Backend.exact())
        assert exact.stderr_re == 0.0 and exact.stderr_im == 0.0


class TestReadouts:
    """``exact`` and ``sampled`` evaluate the same observable of each readout."""

    HAMILTONIAN = PauliSum.from_label_weights([
        (0.4, "IIII"), (-0.7, "ZIII"), (0.3, "IZZI"), (0.5, "ZIIZ"),
        (0.6, "XYII"), (-0.45, "YXZI"), (0.25, "XXII"), (0.35, "YYZZ"),
    ])

    @pytest.mark.parametrize("kind", ["diagonal", "direct", "indirect"])
    def test_sampled_infinite_shot_mean_equals_exact(self, monkeypatch, kind):
        # The sampler's draw is replaced by its infinite-shot limit: every
        # entry of the rotated sparse state once, counted by its probability,
        # so the estimate is the distribution dotted with the outcome values.
        read = heffsolve.estimator._read

        def every_entry_once(state, shots, rng, noise, wires):
            bits = np.array([[index >> q & 1 for index in state] for q in wires], dtype=bool)
            probs = np.array([abs(amp) ** 2 for amp in state.values()])
            return bits.reshape(len(wires), len(state)), probs
        means = {"exact": [], "sampled": []}

        def recording(readouts, backend, calibration):
            results = read(readouts, backend, calibration)
            means[backend.kind].extend(mean for mean, _ in results)
            return results

        monkeypatch.setattr(heffsolve.estimator, "_read", recording)
        monkeypatch.setattr(heffsolve.estimator, "sample_outcome_counts", every_entry_once)
        n, nprime = BasisState("1101"), BasisState("0001")
        for backend in (Backend.exact, Backend.sampled):
            if kind == "diagonal":
                measure_diagonal(
                    self.HAMILTONIAN, n.mask, backend(measure_diagonals_with_circuits=True)
                )
            else:
                measure_offdiagonal(self.HAMILTONIAN, n.mask, nprime.mask, backend(style=kind))
        # one readout per diagonal; per part, one per commuting class (direct:
        # the even-Y and the odd-Y strings) or per connecting string (indirect)
        assert len(means["exact"]) == {"diagonal": 1, "direct": 4, "indirect": 8}[kind]
        assert np.allclose(means["sampled"], means["exact"], rtol=0.0, atol=1e-12)
        assert any(abs(m) > 0.1 for m in means["exact"])


class TestBuildEffectiveHamiltonian:
    def test_single_state_basis(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        basis = build_subspace(hamiltonian, SubspaceSpec(2, 0))
        heff = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
        assert heff.matrix.shape == (1, 1)
        expected = sum_matrix_element(basis.reference, hamiltonian, basis.reference)
        assert heff.matrix[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_oracle_equals_dense_projection(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        basis = two_particle_basis(hamiltonian)
        heff = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
        assert np.allclose(heff.matrix, dense_projection(hamiltonian, basis.states), atol=1e-12)

    def test_oracle_is_project_as_returned(self, rng):
        hamiltonian, basis = random_sector(rng, 6, 3)
        heff = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
        assert heff.matrix.dtype == np.float64
        assert np.array_equal(heff.matrix, heff.matrix.T)
        assert np.array_equal(heff.matrix, project_masks(hamiltonian, basis.masks))
        # real weights on odd-Y strings: complex, and still exactly Hermitian
        odd_y, states = closed_sum(rng, 7, (0, 2, 3, 6), 40)
        odd_y = PauliSum([(w.real, s) for w, s in odd_y], odd_y.qubit_count)
        assert any(s.y_count % 2 for _, s in odd_y)
        sector = [s for s in states if s.particle_number == 3]
        heff = build_effective_hamiltonian(odd_y, basis_from_states(odd_y, sector), Backend.oracle())
        assert heff.matrix.dtype == np.complex128 and np.abs(heff.matrix.imag).max() > 0
        assert np.array_equal(heff.matrix, heff.matrix.conj().T)
        expected = np.array([[sum_matrix_element(m, odd_y, n) for n in sector] for m in sector])
        assert np.array_equal(heff.matrix.view(np.uint64), expected.view(np.uint64))

    def test_exact_circuit_equals_oracle_both_styles(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        cases = [(hamiltonian, two_particle_basis(hamiltonian))]
        cases += [random_sector(rng, num, particles) for num, particles in ((5, 2), (5, 3))]
        for hamiltonian, basis in cases:
            oracle = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
            for style in ("direct", "indirect"):
                exact = build_effective_hamiltonian(hamiltonian, basis, Backend.exact(style=style))
                assert np.abs(exact.matrix - oracle.matrix).max() <= 1e-12

    def test_exact_reads_through_the_basis_change(self, rng, monkeypatch):
        # Negated images for every class that flips sites: the direct style
        # reads its pairs through that basis change, so exact must leave the
        # oracle; the indirect style reads only its ancillas' Z, so it must not.
        change = heffsolve.estimator.class_basis_change

        def negated(strings):
            gates, images = change(strings)
            if strings and strings[0][0]:
                images = [(-sign, z) for sign, z in images]
            return gates, images

        monkeypatch.setattr(heffsolve.estimator, "class_basis_change", negated)
        hamiltonian, states = closed_sum(rng, 7, (0, 2, 3, 6), 40)
        hamiltonian = PauliSum([(w.real, s) for w, s in hamiltonian], hamiltonian.qubit_count)
        basis = basis_from_states(hamiltonian, [s for s in states if s.particle_number == 3])
        oracle = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
        gap = {
            style: np.abs(
                build_effective_hamiltonian(hamiltonian, basis, Backend.exact(style)).matrix
                - oracle.matrix
            ).max()
            for style in ("direct", "indirect")
        }
        assert gap["direct"] > 1.0
        assert gap["indirect"] <= 1e-12

    def test_exactly_hermitian(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        basis = two_particle_basis(hamiltonian)
        heff = build_effective_hamiltonian(hamiltonian, basis, Backend.sampled(seed=3))
        assert np.array_equal(heff.matrix, heff.matrix.conj().T)
        assert np.allclose(heff.matrix.diagonal().imag, 0.0)

    def test_circuit_count_closed_form(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        basis = two_particle_basis(hamiltonian)
        backend = Backend.exact(measure_diagonals_with_circuits=True)
        heff = build_effective_hamiltonian(hamiltonian, basis, backend)
        size = basis.size
        counts = heff.circuit_counts
        assert counts.diagonal == size
        assert counts.offdiagonal_real == comb(size, 2)
        assert counts.offdiagonal_imag == comb(size, 2)
        assert counts.offdiagonal == 2 * comb(size, 2)

    def test_indirect_counts_scale_with_strings(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        basis = two_particle_basis(hamiltonian)
        heff = build_effective_hamiltonian(hamiltonian, basis, Backend.exact(style="indirect"))
        settings = connecting_settings(hamiltonian, basis.states)
        assert settings > 0
        assert heff.circuit_counts.offdiagonal == 2 * settings

    def test_rephasing_leaves_spectrum_invariant(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        basis = two_particle_basis(hamiltonian)
        heff = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=basis.size))
        conjugated = np.diag(phases.conj()) @ heff.matrix @ np.diag(phases)
        original = eigendecompose(heff).eigenvalues
        rotated = eigendecompose(conjugated).eigenvalues
        assert np.allclose(original, rotated, atol=1e-10)

    def test_basis_reordering_leaves_spectrum_invariant(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        basis = two_particle_basis(hamiltonian)
        shuffled = basis_from_states(
            hamiltonian, [SECTOR_BASES[k] for k in (3, 0, 5, 1, 4, 2)]
        )
        original = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
        permuted = build_effective_hamiltonian(hamiltonian, shuffled, Backend.oracle())
        assert np.allclose(
            eigendecompose(original).eigenvalues,
            eigendecompose(permuted).eigenvalues,
            atol=1e-10,
        )

    def test_sampled_reproducible(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        basis = two_particle_basis(hamiltonian)
        backend = Backend.sampled(seed=17)
        first = build_effective_hamiltonian(hamiltonian, basis, backend)
        second = build_effective_hamiltonian(hamiltonian, basis, backend)
        assert np.array_equal(first.matrix, second.matrix)

    def test_non_hermitian_input_rejected(self):
        lopsided = PauliSum.from_label_weights([(1j, "XXII")])
        basis = basis_from_states(
            PauliSum.from_label_weights([(1.0, "IIII")]), SECTOR_BASES
        )
        with pytest.raises(ValueError, match="Hermitian"):
            build_effective_hamiltonian(lopsided, basis, Backend.oracle())


class TestSparseExactBackend:
    """The exact backend reads every expectation from the sparse state."""

    @pytest.mark.parametrize("circuit_diagonals", [False, True])
    @pytest.mark.parametrize("style", ["direct", "indirect"])
    def test_forty_qubit_sector_equals_oracle(self, rng, style, circuit_diagonals):
        hamiltonian, basis = wide_sector(rng)
        assert hamiltonian.qubit_count == 40
        assert 0 < connected_pairs(hamiltonian, basis.states) < comb(basis.size, 2)
        oracle = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
        backend = Backend.exact(style, measure_diagonals_with_circuits=circuit_diagonals)
        exact = build_effective_hamiltonian(hamiltonian, basis, backend)
        assert np.abs(oracle.matrix.imag).max() > 0.1
        assert np.abs(exact.matrix - oracle.matrix).max() <= 1e-12

    @pytest.mark.parametrize("style", ["direct", "indirect"])
    def test_only_connected_pairs_simulate_circuits(self, rng, style, monkeypatch):
        hamiltonian, basis = wide_sector(rng, num_modes=8, modes=(0, 2, 5, 7))
        simulated = []
        real_run_sparse = heffsolve.estimator.run_sparse

        def counting(circuit, state=None):
            if state is None:  # a circuit, not the basis rotations of a readout
                simulated.append(circuit)
            return real_run_sparse(circuit, state)

        def refused(*args, **kwargs):
            raise AssertionError("the exact backend built a dense state")

        monkeypatch.setattr(heffsolve.estimator, "run_sparse", counting)
        monkeypatch.setattr(heffsolve.estimator, "run_statevector", refused)
        monkeypatch.setattr(heffsolve.estimator, "state_expectation", refused)
        backend = Backend.exact(style, measure_diagonals_with_circuits=True)
        counts = build_effective_hamiltonian(hamiltonian, basis, backend).circuit_counts
        pairs = comb(basis.size, 2)
        connected = connected_pairs(hamiltonian, basis.states)
        settings = connecting_settings(hamiltonian, basis.states)
        assert 0 < connected < pairs
        offdiagonal = 2 * connected if style == "direct" else 2 * settings
        assert len(simulated) == basis.size + offdiagonal
        assert counts.diagonal == basis.size
        if style == "direct":
            assert counts.offdiagonal_real == counts.offdiagonal_imag == pairs
        else:
            assert counts.offdiagonal_real == counts.offdiagonal_imag == settings


    @pytest.mark.parametrize("style", ["direct", "indirect"])
    def test_sampled_only_connected_pairs_simulate_circuits(self, rng, style, monkeypatch):
        # Mitigated, with circuit diagonals, on a 40-mode register: every
        # circuit runs on the sparse state, and no draw outgrows its shots.
        hamiltonian, basis = wide_sector(rng)
        simulated, draws = [], []
        real_run_sparse = heffsolve.estimator.run_sparse
        real_sample = heffsolve.estimator.sample_outcome_counts

        def counting(circuit, state=None):
            if state is None:  # a circuit, not the basis rotations of a readout
                simulated.append(circuit)
            return real_run_sparse(circuit, state)

        def recording(*args):
            bits, counts = real_sample(*args)
            draws.append((len(args[0]), bits.shape, counts.sum()))
            return bits, counts

        def refused(*args, **kwargs):
            raise AssertionError("the sampled backend built a dense state")

        monkeypatch.setattr(heffsolve.estimator, "run_sparse", counting)
        monkeypatch.setattr(heffsolve.estimator, "sample_outcome_counts", recording)
        for name in ("run_statevector", "apply_circuit", "marginal_probabilities"):
            monkeypatch.setattr(heffsolve.estimator, name, refused)
        backend = Backend.sampled(
            shots=200, seed=3, style=style, noise=ReadoutNoise(0.02, 0.03), mitigation=True,
            measure_diagonals_with_circuits=True,
        )
        heff = build_effective_hamiltonian(hamiltonian, basis, backend)
        counts = heff.circuit_counts
        connected = connected_pairs(hamiltonian, basis.states)
        settings = connecting_settings(hamiltonian, basis.states)
        classes = connecting_classes(hamiltonian, basis.states)
        assert 0 < connected < comb(basis.size, 2)
        assert connected < classes < settings
        offdiagonal = 2 * connected if style == "direct" else 2 * settings
        assert len(simulated) == basis.size + offdiagonal
        # the calibration draws first: |0> and |1> on each wire of the two-ancilla register
        calibration = 2 * (hamiltonian.qubit_count + 2)
        assert draws[:calibration] == [(1, (1, shape[1]), 200) for _, shape, _ in draws[:calibration]]
        readouts = draws[calibration:]
        assert len(readouts) == basis.size + 2 * (classes if style == "direct" else settings)
        assert all(entries <= 64 and shape[1] <= 200 and total == 200 for entries, shape, total in readouts)
        assert counts.settings == len(readouts)
        assert counts.total_shots == 200 * len(readouts)
        assert np.all(np.isfinite(heff.matrix))


class TestCalibration:
    def test_exact_matrices(self):
        noise = ReadoutNoise(0.03, 0.08)
        calibration = build_calibration(noise, None, 0, 2)
        assert np.allclose(calibration.matrices[0], [[0.97, 0.08], [0.03, 0.92]])

    def test_zero_noise_estimates_identity(self):
        calibration = build_calibration(ReadoutNoise(0.0, 0.0), 4000, 0, 3)
        for q in range(3):
            assert np.allclose(calibration.matrices[q], np.eye(2))

    def test_estimated_entries_within_binomial_error(self):
        noise = ReadoutNoise(0.02, 0.02)
        shots = 8000
        bound = 4 * np.sqrt(0.02 * 0.98 / shots)
        for seed in range(10):
            calibration = build_calibration(noise, shots, seed, 1)
            matrix = calibration.matrices[0]
            assert abs(matrix[1, 0] - 0.02) <= bound
            assert abs(matrix[0, 1] - 0.02) <= bound

    def test_each_preparation_is_one_binomial_draw_of_its_stream(self):
        # the sampler's multinomial over one entry draws nothing, so a column
        # is the flip channel's binomial draw on its (wire, prepared bit) stream
        noise = ReadoutNoise((0.02, 0.0, 0.3), (0.1, 0.2, 0.0))
        for seed, shots in ((0, 1000), (5, 37), (11, 8000)):
            calibration = build_calibration(noise, shots, seed, 3)
            for q in range(3):
                flips = [
                    int(rng_from_seed(derive_seed(seed, TAG_CALIBRATION, q, bit)).binomial(shots, p))
                    if p > 0 else 0
                    for bit, p in enumerate(noise.for_qubit(q))
                ]
                expected = [[(shots - flips[0]) / shots, flips[1] / shots],
                            [flips[0] / shots, (shots - flips[1]) / shots]]
                assert calibration.matrices[q].tolist() == expected
        with pytest.raises(ValueError, match="calibration shots must be positive"):
            build_calibration(noise, 0, 0, 3)

    def test_columns_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            CalibrationMatrix((np.array([[0.9, 0.1], [0.2, 0.9]]),))

    def test_each_calibrated_wire_is_inverted_once_per_build(self, monkeypatch):
        hamiltonian = random_conserving_hamiltonian(np.random.default_rng(3), 4)
        basis = build_subspace(hamiltonian, SubspaceSpec(2, 2))
        wires = hamiltonian.qubit_count + 2
        noise = ReadoutNoise(tuple(0.01 * (q + 1) for q in range(wires)), 0.03)
        backend = Backend.sampled(
            shots=300, seed=4, noise=noise, mitigation=True,
            measure_diagonals_with_circuits=True,
        )
        expected = build_calibration(noise, backend.shots, backend.seed, wires).matrices
        inverted = []
        inv = np.linalg.inv

        def counting_inv(a):
            inverted.append(np.array(a))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        heff = build_effective_hamiltonian(hamiltonian, basis, backend)
        # many more mitigated readouts than wires, so a per-readout inversion shows
        assert heff.circuit_counts.string_executions > wires
        assert len(inverted) == wires
        for got, want in zip(inverted, expected):
            assert np.array_equal(got, want)


class TestMitigation:
    def test_identity_calibration_is_noop(self):
        calibration = CalibrationMatrix((np.eye(2), np.eye(2)))
        strings = [(1.0, PauliString("ZI")), (0.5, PauliString("IZ")), (2.0, PauliString("ZZ"))]
        bits = np.array([[0, 1, 0, 1], [0, 0, 1, 1]], dtype=bool)
        parities = [(c, s.z_mask) for c, s in strings]
        raw = _outcome_values(bits, parities, [0, 1], None)
        assert raw.tolist() == [3.5, -2.5, -1.5, 0.5]
        assert _outcome_values(bits, parities, [0, 1], calibration).tolist() == raw.tolist()
        observable = [(c, s.x_mask, s.z_mask) for c, s in strings]
        # the pipeline's mitigated estimate equals the raw one
        state = {0: math.sqrt(0.7), 1: math.sqrt(0.3)}
        backend = Backend.sampled(shots=100, noise=ReadoutNoise())
        raw = _estimate(state, observable, backend, 5, None, 2)
        mitigated = Backend.sampled(shots=100, noise=ReadoutNoise(), mitigation=True)
        assert _estimate(state, observable, mitigated, 5, calibration, 2) == raw

    def test_exact_inversion_recovers_noiseless_distribution(self):
        noise = ReadoutNoise(0.04, 0.07)
        calibration = build_calibration(noise, None, 0, 2)
        clean = np.array([0.5, 0.0, 0.25, 0.25])
        channel = np.kron(calibration.matrices[1], calibration.matrices[0])
        observed = channel @ clean
        # pulling back each outcome indicator reads that outcome's clean probability
        recovered = [apply_per_qubit(indicator, calibration.pullbacks) @ observed for indicator in np.eye(4)]
        assert np.allclose(recovered, clean, atol=1e-12)

    def test_mitigated_mean_is_linear_and_unclipped(self):
        # every shot reads 0 through a symmetric 30% channel: the pull-back
        # of Z is (A^-1)^T [1, -1] = [2.5, -2.5], and the mean is not clipped
        calibration = CalibrationMatrix((np.array([[0.7, 0.3], [0.3, 0.7]]),))
        backend = Backend.sampled(shots=100, noise=ReadoutNoise(), mitigation=True)
        mean, _ = _estimate({0: 1.0}, [(1.0, 0, PauliString("Z").z_mask)], backend, 0, calibration, 1)
        assert mean == 2.5

    def test_pull_back_is_the_adjoint_of_the_channel(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @st.composite
        def cases(draw):
            wires = draw(st.integers(1, 4))
            flip = st.floats(0.0, 0.25)
            channels = [
                np.array([[1 - a, b], [a, 1 - b]])
                for a, b in (draw(st.tuples(flip, flip)) for _ in range(wires))
            ]
            size = 2 ** wires
            weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
            weights[0] += 1.0  # keeps the total positive
            values = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
            return channels, weights / weights.sum(), np.array(values)

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(cases())
        def check(case):
            channels, p, v = case
            calibration = CalibrationMatrix(tuple(channels))
            pulled_back = apply_per_qubit(v, calibration.pullbacks)
            assert abs(pulled_back @ apply_per_qubit(p, channels) - v @ p) <= 1e-12

        check()

    def test_per_term_pull_back_equals_the_stored_maps(self):
        # At any outcome, the product of the support's factors g_q[x_q] is the
        # dense pull-back (A^-1)^T of the term's parity vector over all wires.
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @st.composite
        def cases(draw):
            wires = draw(st.integers(1, 5))
            flip = st.floats(0.0, 0.25)
            channels = [
                np.array([[1 - a, b], [a, 1 - b]])
                for a, b in (draw(st.tuples(flip, flip)) for _ in range(wires))
            ]
            label = "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=wires, max_size=wires)))
            coefficient = draw(st.floats(-2.0, 2.0))
            return channels, coefficient, PauliString(label), draw(st.integers(0, 2 ** wires - 1))

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(cases())
        def check(case):
            channels, c, string, outcome = case
            calibration = CalibrationMatrix(tuple(channels))
            wires = list(range(len(channels)))
            bits = np.array([[outcome >> q & 1] for q in wires], dtype=bool)
            support = string.x_mask | string.z_mask
            per_term = _outcome_values(bits, [(c, support)], wires, calibration)[0]
            parity = np.array([(-1.0) ** (k & support).bit_count() for k in range(2 ** len(wires))])
            dense = apply_per_qubit(c * parity, calibration.pullbacks)[outcome]
            assert abs(per_term - dense) <= 1e-12

        check()

    def test_mitigation_improves_noisy_diagonal(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        n = BasisState("1100")
        oracle = sum_matrix_element(n, hamiltonian, n).real
        noise = ReadoutNoise(0.02, 0.02)
        calibration = build_calibration(noise, None, 0, 6)
        wins = 0
        trials = 30
        for seed in range(trials):
            raw = measure_diagonal(
                hamiltonian, n.mask,
                Backend.sampled(seed=seed, noise=noise, measure_diagonals_with_circuits=True),
            )
            fixed = measure_diagonal(
                hamiltonian, n.mask,
                Backend.sampled(
                    seed=seed, noise=noise, mitigation=True,
                    measure_diagonals_with_circuits=True,
                ),
                calibration,
            )
            if abs(fixed.value.real - oracle) < abs(raw.value.real - oracle):
                wins += 1
        assert wins >= int(0.8 * trials)


class TestMitigatedCoverage:
    """The mitigated off-diagonal estimate is unbiased and its stderr calibrated."""

    @pytest.mark.parametrize("style", ["direct", "indirect"])
    def test_z_scores_over_seeds(self, style):
        hamiltonian = h2_style_hamiltonian()
        n, nprime = BasisState("1100"), BasisState("0011")
        exact = sum_matrix_element(n, hamiltonian, nprime)
        noise = ReadoutNoise(0.03, 0.03)
        calibration = build_calibration(noise, None, 0, hamiltonian.qubit_count + 2)
        z_re, z_im = [], []
        for seed in range(200):
            backend = Backend.sampled(2000, seed, style, noise=noise, mitigation=True)
            est = measure_offdiagonal(hamiltonian, n.mask, nprime.mask, backend, calibration)
            z_re.append((est.value.real - exact.real) / est.stderr_re)
            z_im.append((est.value.imag - exact.imag) / est.stderr_im)
        for z in (z_re, z_im):
            assert abs(np.mean(z)) <= 0.2
            assert 0.9 <= np.std(z, ddof=1) <= 1.1


class TestHeffJson:
    def test_round_trip(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        basis = two_particle_basis(hamiltonian)
        heff = build_effective_hamiltonian(hamiltonian, basis, Backend.sampled(seed=2))
        payload = json.loads(heff_to_json(heff_to_dict(heff)))
        assert payload["format"] == "heffsolve-heff-v3"
        states, matrix = heff_matrix_from_dict(payload)
        assert [s.bits for s in states] == [s.bits for s in basis.states]
        assert np.allclose(matrix, heff.matrix)
        entries = {(e["row"], e["col"]): e for e in payload["entries"]}
        # the connected pairs, in row-major order; classical diagonals are not listed
        assert list(entries) == sorted(entries)
        for i, j in itertools.combinations_with_replacement(range(basis.size), 2):
            if (i, j) not in entries:
                # the closed form: a classical diagonal, or an unconnected pair reading 0
                assert i == j or connecting_count(hamiltonian, states[i], states[j]) == 0, (i, j)
                assert i == j or matrix[i, j] == 0, (i, j)
                continue
            entry = entries[i, j]
            stats = (entry["shots"], entry["stderr_re"], entry["stderr_im"])
            assert i < j and connecting_count(hamiltonian, states[i], states[j]) > 0, (i, j)
            assert stats[0] > 0, (i, j)
            if min(stats) == 0:
                # the connecting strings' sum annihilates both states, so
                # the one histogram of each part reads 0 on every shot
                assert sum_matrix_element(states[i], hamiltonian, states[j]) == 0
                assert matrix[i, j] == 0 and stats[1:] == (0.0, 0.0), (i, j)
        assert 0 < len(entries) < comb(basis.size, 2)
        counts = payload["circuit_counts"]
        assert counts["offdiagonal_total"] == 2 * comb(basis.size, 2)
        assert counts["total_shots"] == sum(e["shots"] for e in entries.values())

    def test_oracle_writes_no_entries(self, rng):
        hamiltonian, basis = random_sector(rng, 6, 3)
        heff = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
        assert heff.entry_cells.shape == (0, 2) and heff.entry_counts.shape == (0, 4)
        assert heff.entry_stderrs.shape == (0, 2)
        assert heff.circuit_counts.as_dict() == CircuitCounts().as_dict()
        payload = json.loads(heff_to_json(heff_to_dict(heff)))
        assert payload["format"] == "heffsolve-heff-v3"
        assert "entries" not in payload
        states, matrix = heff_matrix_from_dict(payload)
        assert [s.bits for s in states] == [s.bits for s in basis.states]
        # bit for bit, signed zeros included; a real matrix reads back with +0.0 imaginary parts
        assert heff.matrix.dtype == np.float64
        assert np.array_equal(matrix.view(np.uint64), heff.matrix.astype(complex).view(np.uint64))

    def test_writer_prints_the_tolist_text(self, rng):
        nan, inf = float("nan"), float("inf")
        sparse = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        sparse[rng.random((30, 30)) < 0.8] = 0.0
        sparse[3] = 0.0
        sparse[7, 2] = complex(0.0, -0.0)
        sparse[9, 4], sparse[11, 5] = complex(inf, 2.5), complex(-0.5, -inf)
        matrices = [
            # signed zeros only, in either part
            np.array([[complex(0.0, 0.0), complex(-0.0, 0.0)],
                      [complex(0.0, -0.0), complex(-0.0, -0.0)]]),
            # a real-only and an imaginary-only cell, and an all-zero row
            np.array([[1.5, 0.0, 0.0], [0.0, 2.0j, 0.0], [0.0, 0.0, 0.0]]),
            # signed zeros beside nonzero parts
            np.array([[0.0, complex(1e-300, -0.0)], [complex(-0.0, 3.25), 0.0]]),
            np.array([[complex(nan, 0.0), complex(0.0, nan)], [complex(-1 / 3, 0.0), 7.0]]),
            np.array([[complex(inf, -0.0), complex(1.0, -inf)], [complex(-inf, nan), -inf]]),
            np.zeros((4, 4), dtype=complex),
            np.full((1, 1), complex(0.1, -0.2)),
            sparse,
            sparse.real.copy(),
        ]
        for matrix in matrices:
            payload = {
                "basis": ["1"] * len(matrix), "format": "f", "matrix": matrix,
                "zeta": {"b": 1, "a": -0.0},
            }
            listed = np.stack([matrix.real, matrix.imag], -1).tolist()
            text = heff_to_json(payload)
            assert text == json.dumps({**payload, "matrix": listed}, sort_keys=True)
            assert heff_to_json({"matrix": matrix}) == '{"matrix": ' + json.dumps(listed) + "}"
            # and the reader gives back every bit
            _, back = heff_matrix_from_dict(json.loads(text))
            assert back.dtype == np.complex128
            assert np.array_equal(back.view(np.uint64), matrix.astype(complex).view(np.uint64))


class TestScreening:
    """Only strings with ``x_mask == n XOR n'`` are measured for a pair."""

    def test_string_executions_closed_form(self, rng):
        # real weights (one class per connected pair) and complex hoppings
        # (pairs whose strings split into an even-Y and an odd-Y class)
        for hamiltonian, basis in (
            random_sector(rng, 5, 2), wide_sector(rng, num_modes=8, modes=(0, 2, 5, 7)),
        ):
            settings = connecting_settings(hamiltonian, basis.states)
            classes = connecting_classes(hamiltonian, basis.states)
            diagonal_strings = classify_terms(hamiltonian)[0].num_terms
            assert 0 < classes < settings
            for style in ("direct", "indirect"):
                readouts = classes if style == "direct" else settings
                for circuit_diagonals in (False, True):
                    for backend in (
                        Backend.exact(style, measure_diagonals_with_circuits=circuit_diagonals),
                        Backend.sampled(
                            shots=100, seed=1, style=style,
                            measure_diagonals_with_circuits=circuit_diagonals,
                        ),
                    ):
                        heff = build_effective_hamiltonian(hamiltonian, basis, backend)
                        counts = heff.circuit_counts
                        diagonal = basis.size * diagonal_strings if circuit_diagonals else 0
                        diagonals = basis.size if circuit_diagonals else 0
                        assert counts.string_executions == 2 * settings + diagonal
                        assert counts.settings == 2 * readouts + diagonals
                        assert counts.as_dict()["settings"] == counts.settings
                        if backend.kind == "sampled":
                            assert counts.total_shots == (2 * readouts + diagonals) * 100
                        else:
                            assert counts.total_shots == 0
                        if style == "direct":
                            assert counts.offdiagonal == 2 * comb(basis.size, 2)
                        else:
                            assert counts.offdiagonal == 2 * settings

    def test_unconnected_pair_is_exact_zero(self, monkeypatch):
        hamiltonian = PauliSum.from_label_weights([(0.5, "ZIII"), (1.0, "YXXY")])
        n, nprime = BasisState("1100"), BasisState("1010")
        assert connecting_count(hamiltonian, n, nprime) == 0

        def refused(*args, **kwargs):
            raise AssertionError("a circuit was simulated for an unconnected pair")

        for name in ("run_sparse", "run_statevector"):
            monkeypatch.setattr(heffsolve.estimator, name, refused)
        noise = ReadoutNoise(0.03, 0.03)
        calibration = build_calibration(noise, None, 0, 6)
        for style, circuits in (("direct", 2), ("indirect", 0)):
            for backend in (
                Backend.exact(style),
                Backend.sampled(
                    shots=1000, seed=3, style=style, noise=noise, mitigation=True,
                    measure_diagonals_with_circuits=True,
                ),
            ):
                estimate = measure_offdiagonal(hamiltonian, n.mask, nprime.mask, backend, calibration)
                assert estimate.value == 0
                assert (estimate.shots, estimate.stderr_re, estimate.stderr_im) == (0, 0.0, 0.0)
                assert estimate.circuits == circuits
                assert estimate.executions == 0

    def test_build_measures_only_connected_pairs(self, rng, monkeypatch):
        hamiltonian, basis = random_sector(rng, 6, 3)
        connected = connected_pairs(hamiltonian, basis.states)
        assert 0 < connected < comb(basis.size, 2) // 2
        measure = heffsolve.estimator.measure_offdiagonal
        calls = []

        def counting(h, n, nprime, *args):
            calls.append((n, nprime))
            return measure(h, n, nprime, *args)

        monkeypatch.setattr(heffsolve.estimator, "measure_offdiagonal", counting)
        index = {s.mask: k for k, s in enumerate(basis.states)}
        for backend in (Backend.exact("indirect"), Backend.sampled(shots=100, seed=2)):
            calls.clear()
            build_effective_hamiltonian(hamiltonian, basis, backend)
            assert len(calls) == len(set(calls)) == connected
            for a, b in calls:
                assert index[a] < index[b]
                assert connecting_count(hamiltonian, *(basis.states[index[m]] for m in (a, b)))

    def test_unconnected_entries_keep_their_closed_form(self, rng):
        # an unconnected pair is not listed: it reads 0 in the matrix, and its
        # closed form (0 shots, two direct circuits, none indirect) is in the counts
        hamiltonian, basis = random_sector(rng, 6, 3)
        states = basis.states
        upper = {
            (i, j)
            for _, rows, cols in flip_cells(hamiltonian.groups, basis.masks)
            for i, j in zip(rows.tolist(), cols.tolist()) if i < j
        }
        reference = {
            (i, j) for i, j in itertools.combinations(range(basis.size), 2)
            if connecting_count(hamiltonian, states[i], states[j])
        }
        assert upper == reference and 0 < len(upper) < comb(basis.size, 2)
        for style, unconnected_circuits in (("direct", 2), ("indirect", 0)):
            for circuit_diagonals in (False, True):
                for backend in (
                    Backend.exact(style, measure_diagonals_with_circuits=circuit_diagonals),
                    Backend.sampled(shots=100, seed=2, style=style,
                                    measure_diagonals_with_circuits=circuit_diagonals),
                ):
                    heff = build_effective_hamiltonian(hamiltonian, basis, backend)
                    payload = json.loads(heff_to_json(heff_to_dict(heff)))
                    entries = payload["entries"]
                    cells = [(e["row"], e["col"]) for e in entries]
                    diagonals = [(i, i) for i in range(basis.size)] if circuit_diagonals else []
                    assert cells == sorted(upper | set(diagonals))
                    assert heff.entry_cells.tolist() == [list(c) for c in cells]
                    for entry in entries:
                        assert type(entry["shots"]) is int and type(entry["circuits"]) is int
                        assert type(entry["stderr_re"]) is float
                        assert type(entry["stderr_im"]) is float
                    _, matrix = heff_matrix_from_dict(payload)
                    for i, j in itertools.combinations(range(basis.size), 2):
                        if (i, j) not in upper:
                            assert matrix[i, j] == 0 and matrix[j, i] == 0, (i, j)
                    counts = heff.circuit_counts
                    settings = connecting_settings(hamiltonian, states)
                    diagonal = basis.size if circuit_diagonals else 0
                    assert counts.diagonal == diagonal
                    assert counts.offdiagonal == (
                        2 * comb(basis.size, 2) if style == "direct" else 2 * settings
                    )
                    unlisted = comb(basis.size, 2) - len(upper)
                    listed = sum(e["circuits"] for e in entries)
                    assert counts.diagonal + counts.offdiagonal == (
                        listed + unlisted * unconnected_circuits
                    )
                    assert counts.total_shots == sum(e["shots"] for e in entries)

    def test_sampled_pair_ignores_appended_strings(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4, max_strings=40)
        n, nprime = max(
            ((a, b) for a in SECTOR_BASES for b in SECTOR_BASES if a.mask < b.mask),
            key=lambda pair: connecting_count(hamiltonian, *pair),
        )
        flip = n.mask ^ nprime.mask
        assert connecting_count(hamiltonian, n, nprime) > 0
        labels = {s.label for _, s in hamiltonian}
        extra = [
            (w, s)
            for w, s in random_hermitian_sum(rng, 4, 30)
            if s.x_mask != flip and s.label not in labels
        ]
        assert any(not s.is_diagonal() for _, s in extra)
        padded = PauliSum(hamiltonian.terms + tuple(extra), hamiltonian.qubit_count)
        noise = ReadoutNoise(0.02, 0.02)
        calibration = build_calibration(noise, 2000, 5, 6)
        for style in ("direct", "indirect"):
            for extra_kw in ({}, {"noise": noise, "mitigation": True}):
                backend = Backend.sampled(shots=2000, seed=5, style=style, **extra_kw)
                before, after = (
                    measure_offdiagonal(h, n.mask, nprime.mask, backend, calibration)
                    for h in (hamiltonian, padded)
                )
                assert before == after

    def test_project_equals_pairwise_loop(self, rng):
        cases = [
            (h, [BasisState.from_mask(int(m), 5) for m in rng.permutation(32)[:12]])
            for h in (
                random_conserving_hamiltonian(rng, 5, max_strings=40),
                random_hermitian_sum(rng, 5, 25),
            )
        ]
        top_bit = closed_sum(rng, 63, (0, 1, 31, 61, 62), 30)
        assert any(s.mask >> 62 for s in top_bit[1])
        odd_y = closed_sum(rng, 7, (0, 2, 3, 6), 40)
        assert any(s.y_count % 2 for _, s in odd_y[0])
        for hamiltonian, states in [*cases, top_bit, odd_y]:
            expected = np.array(
                [[sum_matrix_element(m, hamiltonian, n) for n in states] for m in states]
            )
            assert np.array_equal(project_masks(hamiltonian, masks_of(states)), expected)
        assert np.count_nonzero(project_masks(top_bit[0], masks_of(top_bit[1]))) > len(top_bit[1])
        assert np.abs(project_masks(odd_y[0], masks_of(odd_y[1])).imag).max() > 0

    def test_sector_matrix_unchanged(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 6, max_strings=60)
        states, matrix = sector_matrix(hamiltonian, 3)
        assert [s.mask for s in states] == [s.mask for s in sector_basis(6, 3)]
        # reference: the string-by-string sector assembly, written out here
        index = {s.mask: k for k, s in enumerate(states)}
        expected = np.zeros(matrix.shape, dtype=complex)
        for w, s in hamiltonian:
            for col, state in enumerate(states):
                row = index.get(state.mask ^ s.x_mask)
                if row is not None:
                    sign = -1.0 if (state.mask & s.z_mask).bit_count() & 1 else 1.0
                    expected[row, col] += w * sign * 1j ** (s.y_count % 4)
        assert np.array_equal(matrix, expected)

    def test_project_is_complex_only_for_odd_y(self, rng):
        odd_y, states = closed_sum(rng, 7, (0, 2, 3, 6), 40)
        assert any(s.y_count % 2 for _, s in odd_y)
        matrix = project_masks(odd_y, masks_of(states))
        assert matrix.dtype == np.complex128 and np.abs(matrix.imag).max() > 0
        expected = np.array([[sum_matrix_element(m, odd_y, n) for n in states] for m in states])
        assert np.array_equal(matrix.view(np.uint64), expected.view(np.uint64))
        real = random_conserving_hamiltonian(rng, 6, max_strings=60)
        assert project_masks(real, masks_of(sector_basis(6, 3))).dtype == np.float64

    def test_project_rejects_mismatched_states(self):
        hamiltonian = PauliSum.from_label_weights([(1.0, "ZIII")])
        with pytest.raises(ValueError, match="length mismatch"):
            basis_from_states(hamiltonian, [BasisState("110")])

    def test_project_rejects_repeated_states(self):
        hamiltonian = PauliSum.from_label_weights([(1.0, "XZ"), (0.5, "ZI")])
        with pytest.raises(ValueError, match="distinct"):
            project_masks(hamiltonian, masks_of([BasisState("10"), BasisState("01"), BasisState("10")]))
