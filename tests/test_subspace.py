"""Reference search, excitation enumeration, and basis selection."""

import io
from math import comb

import numpy as np
import pytest

from heffsolve.pauli import BasisState, PauliSum
from heffsolve.subspace import (
    MonteCarloSearch,
    SubspaceBasis,
    SubspaceSpec,
    basis_from_states,
    build_subspace,
    diagonal_energy,
    enumerate_excitations,
    find_reference,
    load_states,
    save_states,
)

from conftest import random_conserving_hamiltonian

SECTOR_BASES = ["1100", "1010", "1001", "0110", "0101", "0011"]


def level_hamiltonian(levels):
    """Sum of eps_i * (I - Z_i)/2 so each occupied level costs eps_i."""
    n = len(levels)
    pairs = []
    for i, eps in enumerate(levels):
        z_label = "".join("Z" if j == i else "I" for j in range(n))
        pairs.append((eps / 2, "I" * n))
        pairs.append((-eps / 2, z_label))
    return PauliSum.from_label_weights(pairs, n)


class TestFindReference:
    def test_fills_lowest_levels(self):
        hamiltonian = level_hamiltonian((-2.0, -1.0, 1.0, 3.0))
        assert find_reference(hamiltonian, 2).bits == "1100"

    def test_all_equal_diagonal_breaks_ties_lexicographically(self):
        hamiltonian = PauliSum.from_label_weights([(1.0, "IIII")])
        assert find_reference(hamiltonian, 2).bits == "0011"

    def test_monte_carlo_matches_exhaustive(self, rng):
        hits = 0
        trials = 20
        for trial in range(trials):
            hamiltonian = random_conserving_hamiltonian(rng, 8, fermionic_terms=5)
            exact = find_reference(hamiltonian, 4)
            approx = find_reference(
                hamiltonian, 4, MonteCarloSearch(steps=4000, seed=trial)
            )
            exact_energy = diagonal_energy(hamiltonian, exact)
            approx_energy = diagonal_energy(hamiltonian, approx)
            assert approx_energy >= exact_energy - 1e-12
            if approx == exact:
                hits += 1
        assert hits >= int(0.9 * trials)

    def test_monte_carlo_never_worse_than_start(self, rng):
        # the annealer tracks the best visited state, which includes the start
        hamiltonian = random_conserving_hamiltonian(rng, 8, fermionic_terms=5)
        for seed in range(5):
            strategy = MonteCarloSearch(steps=3, seed=seed)
            result = find_reference(hamiltonian, 4, strategy)
            start_rng = np.random.Generator(np.random.Philox(seed))
            start = BasisState.from_occupied(
                (int(v) for v in start_rng.choice(8, size=4, replace=False)), 8
            )
            assert diagonal_energy(hamiltonian, result) <= diagonal_energy(hamiltonian, start) + 1e-12

    @pytest.mark.parametrize(
        "schedule",
        [
            {"initial_temperature": -1.0},
            {"initial_temperature": 0.0},
            {"initial_temperature": float("inf")},
            {"initial_temperature": float("nan")},
            {"cooling": 1.5},
            {"cooling": 0.0},
            {"cooling": -0.5},
            {"cooling": float("nan")},
            {"steps": -1},
        ],
    )
    def test_monte_carlo_schedule_is_validated(self, schedule):
        with pytest.raises(ValueError, match="annealing"):
            MonteCarloSearch(**schedule)

    def test_monte_carlo_flat_diagonal_anneals_at_unit_temperature(self):
        # the measured T0 is 0 here; the annealer still runs and stays in the sector
        hamiltonian = PauliSum.from_label_weights([(1.0, "IIII")])
        for cooling in (1.0, 0.5):
            reference = find_reference(hamiltonian, 2, MonteCarloSearch(steps=20, cooling=cooling))
            assert reference.particle_number == 2

    def test_invalid_particle_number(self):
        hamiltonian = level_hamiltonian((-1.0, 1.0))
        with pytest.raises(ValueError):
            find_reference(hamiltonian, 0)
        with pytest.raises(ValueError):
            find_reference(hamiltonian, 2)


class TestEnumerateExcitations:
    def test_singles(self):
        states = enumerate_excitations(BasisState("1100"), 1)
        assert sorted(s.bits for s in states) == sorted(["1010", "1001", "0110", "0101"])

    def test_doubles(self):
        states = enumerate_excitations(BasisState("1100"), 2)
        assert [s.bits for s in states] == ["0011"]

    def test_order_zero_is_reference(self):
        ref = BasisState("1100")
        assert enumerate_excitations(ref, 0) == [ref]

    def test_too_large_order_is_empty(self):
        assert enumerate_excitations(BasisState("1100"), 3) == []

    def test_counts_match_binomials(self):
        for n, n_f in ((6, 2), (8, 4), (10, 3)):
            ref = BasisState.from_occupied(range(n_f), n)
            for order in range(min(n_f, n - n_f) + 1):
                states = enumerate_excitations(ref, order)
                assert len(states) == comb(n_f, order) * comb(n - n_f, order)
                assert len({s.bits for s in states}) == len(states)
                assert all(s.particle_number == n_f for s in states)

    def test_lih_scale_total(self):
        ref = BasisState.from_occupied(range(4), 12)
        total = sum(len(enumerate_excitations(ref, k)) for k in range(5))
        assert total == 495


class TestBuildSubspace:
    def test_complete_two_particle_sector(self):
        hamiltonian = level_hamiltonian((-2.0, -1.0, 1.0, 3.0))
        basis = build_subspace(hamiltonian, SubspaceSpec(2, 2))
        assert sorted(s.bits for s in basis.states) == sorted(SECTOR_BASES)
        assert basis.states[0].bits == "1100"

    def test_order_zero(self):
        hamiltonian = level_hamiltonian((-2.0, -1.0, 1.0, 3.0))
        basis = build_subspace(hamiltonian, SubspaceSpec(2, 0))
        assert basis.size == 1 and basis.states[0] == basis.reference

    def test_truncation_keeps_lowest(self):
        hamiltonian = level_hamiltonian((-2.0, -1.0, 1.0, 3.0))
        basis = build_subspace(hamiltonian, SubspaceSpec(2, 2, target_size=3))
        assert basis.size == 3
        assert basis.states[0].bits == "1100"
        energies = basis.diagonal_energies
        assert energies[1] <= energies[2]
        full = build_subspace(hamiltonian, SubspaceSpec(2, 2))
        assert set(b.bits for b in basis.states) <= set(b.bits for b in full.states)
        assert list(full.diagonal_energies[1:3]) == list(energies[1:])

    def test_lih_scale_truncation(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 12, fermionic_terms=5, max_strings=60)
        basis = build_subspace(hamiltonian, SubspaceSpec(4, 2, target_size=200))
        assert basis.size == 200
        candidates = 1 + comb(4, 1) * comb(8, 1) + comb(4, 2) * comb(8, 2)
        assert candidates == 201
        full = build_subspace(hamiltonian, SubspaceSpec(4, 2))
        assert full.size == 201

    def test_size_bounded_by_binomials_and_polynomial(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 8, fermionic_terms=5)
        n, n_f = 8, 4
        for order in (1, 2, 3):
            basis = build_subspace(hamiltonian, SubspaceSpec(n_f, order))
            binomial_bound = sum(
                comb(n_f, k) * comb(n - n_f, k) for k in range(order + 1)
            )
            polynomial_bound = sum(n ** (2 * k) for k in range(order + 1))
            assert basis.size <= binomial_bound < polynomial_bound

    def test_oversized_target_warns_and_keeps_all(self, caplog):
        hamiltonian = level_hamiltonian((-2.0, -1.0, 1.0, 3.0))
        with caplog.at_level("WARNING"):
            basis = build_subspace(hamiltonian, SubspaceSpec(2, 2, target_size=50))
        assert basis.size == 6
        assert any("target size" in record.message for record in caplog.records)

    def test_order_beyond_sector_rejected(self):
        hamiltonian = level_hamiltonian((-2.0, -1.0, 1.0, 3.0))
        with pytest.raises(ValueError, match="excitation order"):
            build_subspace(hamiltonian, SubspaceSpec(2, 3))

    def test_deterministic(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 8, fermionic_terms=5)
        spec = SubspaceSpec(4, 2, target_size=20)
        first = build_subspace(hamiltonian, spec)
        second = build_subspace(hamiltonian, spec)
        assert [s.bits for s in first.states] == [s.bits for s in second.states]

    def test_tie_break_is_lexicographic(self):
        hamiltonian = PauliSum.from_label_weights([(1.0, "IIII")])
        basis = build_subspace(hamiltonian, SubspaceSpec(2, 2))
        tail = [s.bits for s in basis.states[1:]]
        assert tail == sorted(tail)

    def test_basis_invariants_enforced(self):
        ref = BasisState("1100")
        with pytest.raises(ValueError, match="reference"):
            SubspaceBasis(ref, (BasisState("1010"),), (0.0,))
        with pytest.raises(ValueError, match="sectors"):
            SubspaceBasis(ref, (ref, BasisState("1110")), (0.0, 0.0))
        with pytest.raises(ValueError, match="duplicate"):
            SubspaceBasis(ref, (ref, ref), (0.0, 0.0))


class TestStatesFile:
    def test_round_trip(self):
        states = [BasisState(b) for b in SECTOR_BASES]
        buffer = io.StringIO()
        save_states(states, buffer)
        again = load_states(io.StringIO(buffer.getvalue()))
        assert [s.bits for s in again] == SECTOR_BASES

    def test_rebuild_basis_from_file(self):
        hamiltonian = level_hamiltonian((-2.0, -1.0, 1.0, 3.0))
        states = [BasisState(b) for b in SECTOR_BASES]
        basis = basis_from_states(hamiltonian, states)
        assert basis.reference.bits == "1100"
        assert basis.diagonal_energies[0] == pytest.approx(-3.0)

    def test_bad_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_states(io.StringIO("1100\n10x0\n"))

    def test_inconsistent_lengths(self):
        with pytest.raises(ValueError, match="inconsistent"):
            load_states(io.StringIO("1100\n110\n"))
