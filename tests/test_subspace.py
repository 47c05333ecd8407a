"""Reference search, excitation enumeration, and basis selection."""

import io
import itertools
from math import comb

import numpy as np
import pytest

import heffsolve.subspace
from heffsolve.pauli import BasisState, FlipGroups
from heffsolve.subspace import (
    ExhaustiveSearch,
    MonteCarloSearch,
    SubspaceBasis,
    SubspaceSpec,
    basis_from_states,
    build_subspace,
    diagonal_energy,
    enumerate_excitations,
    find_reference,
    format_states,
    load_states,
)

from conftest import bit_strings, pauli_sum, random_conserving_hamiltonian

SECTOR_BASES = ["1100", "1010", "1001", "0110", "0101", "0011"]


def level_hamiltonian(levels):
    """Sum of eps_i * (I - Z_i)/2 so each occupied level costs eps_i."""
    n = len(levels)
    pairs = []
    for i, eps in enumerate(levels):
        z_label = "".join("Z" if j == i else "I" for j in range(n))
        pairs.append((eps / 2, "I" * n))
        pairs.append((-eps / 2, z_label))
    return pauli_sum(pairs, n)


class TestFindReference:
    def test_fills_lowest_levels(self):
        hamiltonian = level_hamiltonian((-2.0, -1.0, 1.0, 3.0))
        assert find_reference(hamiltonian, 2) == BasisState("1100").mask

    def test_all_equal_diagonal_breaks_ties_lexicographically(self):
        hamiltonian = pauli_sum([(1.0, "IIII")])
        assert find_reference(hamiltonian, 2) == BasisState("0011").mask

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
            start = sum(1 << int(v) for v in start_rng.choice(8, size=4, replace=False))
            assert diagonal_energy(hamiltonian, result) <= diagonal_energy(hamiltonian, start) + 1e-12

    def test_monte_carlo_phases_the_diagonal_once(self, rng, monkeypatch):
        # one flip grouping (with its phased weights) per sum, reused by every
        # step and by later searches; every step's energy is the diagonal
        # energy, bit for bit
        hamiltonian = random_conserving_hamiltonian(rng, 8, fermionic_terms=5)
        built, evaluated = [], []
        group, amplitudes = FlipGroups.__init__, heffsolve.subspace._flip_amplitudes

        def counting(groups, hamiltonian):
            built.append(groups)
            group(groups, hamiltonian)

        def recording(groups, span, masks):
            re_sum, im_sum = amplitudes(groups, span, masks)
            evaluated.extend(zip(masks.tolist(), re_sum.tolist()))
            return re_sum, im_sum

        monkeypatch.setattr(FlipGroups, "__init__", counting)
        monkeypatch.setattr(heffsolve.subspace, "_flip_amplitudes", recording)
        find_reference(hamiltonian, 4, MonteCarloSearch(steps=200, seed=3))
        assert len(built) == 1 and len(evaluated) == 100 + 1 + 200
        find_reference(hamiltonian, 4)
        monkeypatch.undo()
        assert len(built) == 1 and hamiltonian.groups is built[0]
        for mask, energy in evaluated:
            assert energy == diagonal_energy(hamiltonian, mask)

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

    def test_strategies_compare_by_value(self):
        # RunConfig.describe reads the strategy as "mc" when it equals the schedule
        assert MonteCarloSearch(steps=5, seed=2) == MonteCarloSearch(steps=5, seed=2)
        assert MonteCarloSearch(steps=5, seed=2) != MonteCarloSearch(steps=5, seed=3)
        assert ExhaustiveSearch() == ExhaustiveSearch() != MonteCarloSearch()
        assert MonteCarloSearch() != ExhaustiveSearch()
        with pytest.raises(AttributeError):
            MonteCarloSearch().steps = 1

    def test_monte_carlo_flat_diagonal_anneals_at_unit_temperature(self):
        # the measured T0 is 0 here; the annealer still runs and stays in the sector
        hamiltonian = pauli_sum([(1.0, "IIII")])
        for cooling in (1.0, 0.5):
            reference = find_reference(hamiltonian, 2, MonteCarloSearch(steps=20, cooling=cooling))
            assert reference.bit_count() == 2

    def test_flat_diagonal_returns_the_smallest_bit_string(self):
        hamiltonian = pauli_sum([(1.0, "I" * 10)])
        assert find_reference(hamiltonian, 5) == BasisState("0000011111").mask

    @pytest.mark.parametrize("num", [8, 10, 12])
    @pytest.mark.parametrize("kind", ["random", "degenerate"])
    def test_exhaustive_matches_brute_force(self, rng, num, kind):
        # degenerate: occupation energies from {-1, 0, 1}, so the minimum is tied
        for _ in range(3):
            if kind == "random":
                hamiltonian = random_conserving_hamiltonian(rng, num, fermionic_terms=6)
            else:
                hamiltonian = level_hamiltonian(rng.integers(-1, 2, size=num).astype(float))
            sector = [sum(1 << q for q in occ) for occ in itertools.combinations(range(num), num // 2)]
            best = min(sector, key=lambda m: (diagonal_energy(hamiltonian, m), bit_strings([m], num)[0]))
            assert find_reference(hamiltonian, num // 2) == best

    def test_invalid_particle_number(self):
        hamiltonian = level_hamiltonian((-1.0, 1.0))
        with pytest.raises(ValueError):
            find_reference(hamiltonian, 0)
        with pytest.raises(ValueError):
            find_reference(hamiltonian, 2)


class TestEnumerateExcitations:
    def test_singles(self):
        masks = enumerate_excitations(BasisState("1100").mask, 4, 1)
        assert sorted(bit_strings(masks, 4)) == sorted(["1010", "1001", "0110", "0101"])

    def test_doubles(self):
        masks = enumerate_excitations(BasisState("1100").mask, 4, 2)
        assert bit_strings(masks, 4) == ["0011"]

    def test_order_zero_is_reference(self):
        ref = BasisState("1100").mask
        assert enumerate_excitations(ref, 4, 0).tolist() == [ref]

    def test_too_large_order_is_empty(self):
        assert enumerate_excitations(BasisState("1100").mask, 4, 3).tolist() == []

    def test_counts_match_binomials(self):
        for n, n_f in ((6, 2), (8, 4), (10, 3)):
            ref = (1 << n_f) - 1
            for order in range(min(n_f, n - n_f) + 1):
                masks = enumerate_excitations(ref, n, order).tolist()
                assert len(masks) == comb(n_f, order) * comb(n - n_f, order)
                assert len(set(masks)) == len(masks)
                assert all(m.bit_count() == n_f for m in masks)

    @pytest.mark.parametrize(
        "bits, order",
        [
            ("1100", 0), ("1100", 1), ("1100", 2), ("1100", 3),
            ("0110100110", 2), ("1011001110", 3), ("0010110001", 4),
            ("1" + "0" * 62 + "1", 1), ("11" + "0" * 61 + "1", 2), ("01" * 32, 1),
            ("1" * 63 + "0", 1),
        ],
    )
    def test_order_matches_nested_combinations(self, bits, order):
        # vacated sets outer, filled sets inner, each in itertools.combinations order
        occupied = [i for i, c in enumerate(bits) if c == "1"]
        unoccupied = [i for i, c in enumerate(bits) if c == "0"]
        expected = []
        for vacate in itertools.combinations(occupied, order):
            for fill in itertools.combinations(unoccupied, order):
                expected.append(sum(1 << q for q in (set(occupied) - set(vacate)) | set(fill)))
        assert enumerate_excitations(BasisState(bits).mask, len(bits), order).tolist() == expected

    def test_lih_scale_total(self):
        total = sum(len(enumerate_excitations(0b1111, 12, k)) for k in range(5))
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
        assert basis.size == 1 and basis.states[0].bits == basis.reference.bits

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
        hamiltonian = pauli_sum([(1.0, "IIII")])
        basis = build_subspace(hamiltonian, SubspaceSpec(2, 2))
        tail = [s.bits for s in basis.states[1:]]
        assert tail == sorted(tail)

    def test_mixed_ties_sort_by_energy_then_bit_string(self):
        # small-integer Z and ZZ weights: many diagonal energies tie, but not all
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @st.composite
        def cases(draw):
            num = draw(st.sampled_from((10, 12)))
            weight = st.integers(-2, 2).filter(bool)
            pairs = [(draw(weight), q, -1) for q in draw(st.sets(st.integers(0, num - 1), min_size=1))]
            pairs += [
                (draw(weight), *pair)
                for pair in draw(st.sets(st.tuples(st.integers(0, num - 1), st.integers(0, num - 1))
                                         .filter(lambda p: p[0] < p[1]), max_size=6))
            ]
            particles = draw(st.integers(2, num - 2))
            order = draw(st.integers(2, min(3, particles, num - particles)))
            return num, pairs, particles, order, draw(st.integers(1, 700))

        def energy(pairs, mask):
            # <n|Z_p Z_q|n> = (-1)**(n_p + n_q), with q = -1 for a lone Z_p
            return float(sum(w * (-1) ** ((mask >> p & 1) + (q >= 0 and mask >> q & 1)) for w, p, q in pairs))

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(cases())
        def check(case):
            num, pairs, particles, order, size = case
            labels = [(float(w), "".join("Z" if k in (p, q) else "I" for k in range(num))) for w, p, q in pairs]
            hamiltonian = pauli_sum(labels, num)
            full = build_subspace(hamiltonian, SubspaceSpec(particles, order)).masks.tolist()
            expected = sorted(range(1, len(full)), key=lambda k: (energy(pairs, full[k]),
                                                                 bit_strings([full[k]], num)[0]))
            assert full == [full[0], *(full[k] for k in expected)]
            energies = [energy(pairs, m) for m in full[1:]]
            assert len(set(energies)) < len(energies)
            truncated = build_subspace(hamiltonian, SubspaceSpec(particles, order, size))
            assert truncated.masks.tolist() == full[:size]

        check()

    def test_basis_invariants_enforced(self):
        ref = BasisState("1100").mask
        with pytest.raises(ValueError, match="reference"):
            SubspaceBasis(np.zeros(0, dtype=np.uint64), (), 4)
        with pytest.raises(ValueError, match="sectors"):
            SubspaceBasis([ref, BasisState("1110").mask], (0.0, 0.0), 4)
        with pytest.raises(ValueError, match="duplicate"):
            SubspaceBasis([ref, ref], (0.0, 0.0), 4)

    @pytest.mark.parametrize(
        "num, masks",
        [(1, [1]), (12, [0b000000111111, 0b101010101010, 0b111111000000, 0b100000011111]),
         (64, [1 << 63 | 1, 1 << 62 | 1 << 5, 3, 1 << 63 | 1 << 40])],
    )
    def test_bits_are_the_states_strings(self, num, masks):
        basis = SubspaceBasis(masks, [0.0] * len(masks), num)
        assert basis.bits == [s.bits for s in basis.states] == bit_strings(masks, num)


class TestStatesFile:
    def test_round_trip(self):
        again = load_states(io.StringIO(format_states(SECTOR_BASES)))
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
