"""Eigendecomposition, exact sector spectra, and density of states."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from heffsolve.estimator import Backend, build_effective_hamiltonian
from heffsolve.pauli import BasisState, PauliSum
from heffsolve.spectra import (
    CapacityError,
    _block_labels,
    _check_hermitian,
    Spectrum,
    dos,
    dos_to_csv,
    eigendecompose,
    exact_sector_spectrum,
    sector_basis,
    sector_matrix,
    spectrum_to_csv,
)
from heffsolve.subspace import SubspaceSpec, basis_from_states, build_subspace

from conftest import dense_projection, jacobi_eigh, random_conserving_hamiltonian


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


class TestJacobi:
    def test_diagonal_matrix(self):
        values, vectors = jacobi_eigh(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert np.allclose(values, [-1.0, 2.0, 3.0])
        assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])

    def test_closed_form_2x2(self):
        a, b = 1.3, -0.4
        values, _ = jacobi_eigh(np.array([[a, b], [b, a]], dtype=complex))
        assert np.allclose(values, sorted([a - b, a + b]))

    @pytest.mark.parametrize("n", [1, 2, 6, 25, 60])
    def test_against_lapack_oracle(self, rng, n):
        matrix = random_hermitian(rng, n)
        values, vectors = jacobi_eigh(matrix)
        assert np.allclose(values, np.linalg.eigvalsh(matrix), atol=1e-9)
        residual = np.abs(matrix @ vectors - vectors * values).max()
        assert residual <= 1e-8 * max(np.linalg.norm(matrix), 1.0)
        assert np.abs(vectors.conj().T @ vectors - np.eye(n)).max() < 1e-8

    def test_degenerate_spectrum(self):
        matrix = np.diag([1.0, 1.0, 2.0]).astype(complex)
        matrix[0, 1] = matrix[1, 0] = 0.5
        values, _ = jacobi_eigh(matrix)
        assert np.allclose(values, [0.5, 1.5, 2.0])


class TestEigendecompose:
    def test_accepts_effective_hamiltonian(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        basis = build_subspace(hamiltonian, SubspaceSpec(2, 2))
        heff = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
        spectrum = eigendecompose(heff)
        assert spectrum.size == basis.size
        assert np.all(np.diff(spectrum.eigenvalues) >= -1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1.0, np.nan], [np.nan, 2.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 1.0]],
        ],
        ids=["nan", "inf-diagonal", "inf-imaginary"],
    )
    def test_rejects_non_finite(self, matrix):
        # max(deviation, nan) keeps the earlier deviation, so NaN once passed the check;
        # the refusal is the only report, with no numpy warning before it
        with warnings.catch_warnings(), pytest.raises(ValueError, match="non-finite"):
            warnings.simplefilter("error")
            eigendecompose(np.array(matrix))

    def test_methods_agree(self, rng):
        matrix = random_hermitian(rng, 10)
        jac, _ = jacobi_eigh(matrix)
        lap = eigendecompose(matrix).eigenvalues
        assert np.allclose(jac, lap, atol=1e-9)

    def test_real_valued_input_takes_the_real_routine(self, rng):
        a = rng.normal(size=(30, 30))
        matrix = ((a + a.T) / 2).astype(complex)
        spectrum = eigendecompose(matrix)
        assert np.abs(spectrum.eigenvalues - np.linalg.eigvalsh(matrix)).max() <= 1e-12
        vectors = spectrum.eigenvectors
        assert vectors.dtype == np.float64
        assert np.abs(vectors.T @ matrix @ vectors - np.diag(spectrum.eigenvalues)).max() <= 1e-12
        values_only = eigendecompose(matrix, compute_vectors=False)
        assert np.array_equal(values_only.eigenvalues, np.linalg.eigvalsh(matrix.real))

    def test_complex_input_keeps_its_complex_spectrum(self, rng):
        matrix = random_hermitian(rng, 30)
        spectrum = eigendecompose(matrix)
        assert np.abs(spectrum.eigenvalues - np.linalg.eigvalsh(matrix)).max() <= 1e-12
        assert np.abs(spectrum.eigenvalues - np.linalg.eigvalsh(matrix.real)).max() > 1e-3
        vectors = spectrum.eigenvectors
        assert vectors.dtype == np.complex128
        diagonalized = vectors.conj().T @ matrix @ vectors
        assert np.abs(diagonalized - np.diag(spectrum.eigenvalues)).max() <= 1e-12

    def test_vectors_optional(self, rng):
        spectrum = eigendecompose(random_hermitian(rng, 5), compute_vectors=False)
        assert spectrum.eigenvectors is None

    def test_an_uncoupled_state_leaves_the_other_eigenvalues_bit_identical(self, rng):
        matrix = random_hermitian(rng, 12)
        padded = np.zeros((13, 13), dtype=complex)
        padded[1:, 1:] = matrix
        padded[0, 0] = 0.25
        spectrum = eigendecompose(padded)
        alone = eigendecompose(matrix).eigenvalues
        assert np.array_equal(spectrum.eigenvalues, np.sort(np.append(alone, 0.25)))
        vectors = spectrum.eigenvectors
        diagonalized = vectors.conj().T @ padded @ vectors
        assert np.abs(diagonalized - np.diag(spectrum.eigenvalues)).max() <= 1e-12
        values_only = eigendecompose(padded, compute_vectors=False).eigenvalues
        assert np.array_equal(values_only, np.sort(np.append(np.linalg.eigvalsh(matrix), 0.25)))

    def test_interleaved_blocks_are_found(self, rng):
        sizes = (3, 1, 4)
        matrix = np.zeros((8, 8), dtype=complex)
        start = 0
        for size in sizes:
            matrix[start:start + size, start:start + size] = random_hermitian(rng, size)
            start += size
        perm = rng.permutation(8)
        shuffled = matrix[np.ix_(perm, perm)]
        block_of = np.repeat(np.arange(len(sizes)), sizes)[perm]
        labels = _block_labels(shuffled)
        expected = [np.flatnonzero(block_of == block_of[i])[0] for i in range(8)]
        assert labels.tolist() == expected
        spectrum = eigendecompose(shuffled)
        assert np.abs(spectrum.eigenvalues - np.linalg.eigvalsh(matrix)).max() <= 1e-12
        vectors = spectrum.eigenvectors
        diagonalized = vectors.conj().T @ shuffled @ vectors
        assert np.abs(diagonalized - np.diag(spectrum.eigenvalues)).max() <= 1e-12

    def test_real_heff_of_every_size_takes_lapack(self, rng):
        while True:
            hamiltonian = random_conserving_hamiltonian(rng, 8)
            basis = build_subspace(hamiltonian, SubspaceSpec(4, 2, 20))
            matrix = build_effective_hamiltonian(hamiltonian, basis, Backend.exact()).matrix
            if np.any(matrix - np.diag(matrix.diagonal())):
                break
        assert matrix.shape == (20, 20) and not matrix.imag.any()
        values = eigendecompose(matrix).eigenvalues
        assert np.array_equal(values, np.linalg.eigh(matrix.real)[0])

    def test_hermiticity_check_keeps_its_tolerance_in_little_memory(self, rng):
        matrix = random_hermitian(rng, 924)
        matrix[923, 0] += 0.99e-9
        tracemalloc.start()
        try:
            _check_hermitian(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= matrix.nbytes / 4
        matrix[923, 0] += 0.02e-9
        with pytest.raises(ValueError, match=r"max deviation 1\.010e-09"):
            eigendecompose(matrix)


    def test_hermiticity_check_leaves_a_real_matrix_alone(self, rng):
        matrix = random_hermitian(rng, 300).real.copy()
        matrix[299, 0] += 0.99e-9
        before = matrix.copy()
        checked = _check_hermitian(matrix)
        assert checked.dtype == np.float64
        assert np.array_equal(matrix.view(np.uint64), before.view(np.uint64))
        matrix[299, 0] += 0.02e-9
        with pytest.raises(ValueError, match=r"max deviation 1\.010e-09"):
            _check_hermitian(matrix)
        assert np.array_equal(matrix[:299], before[:299])


class TestSectorSpectrum:
    def test_basis_order_matches_bit_strings(self):
        assert [s.bits for s in sector_basis(4, 2)] == [
            "1100", "1010", "1001", "0110", "0101", "0011",
        ]

    @pytest.mark.parametrize("num", range(11))
    def test_basis_order_matches_combinations(self, num):
        for particles in range(num + 1):
            expected = [BasisState.from_mask(sum(1 << q for q in occ), num)
                        for occ in itertools.combinations(range(num), particles)]
            assert [s.bits for s in sector_basis(num, particles)] == [s.bits for s in expected]

    def test_matrix_matches_dense_projection(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 6)
        states, matrix = sector_matrix(hamiltonian, 3)
        assert np.allclose(matrix, dense_projection(hamiltonian, states), atol=1e-12)

    def test_complete_basis_recovers_sector(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        basis = basis_from_states(hamiltonian, sector_basis(4, 2))
        heff = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
        assert np.allclose(
            eigendecompose(heff).eigenvalues,
            exact_sector_spectrum(hamiltonian, 2).eigenvalues,
            atol=1e-10,
        )

    def test_lapack_baseline_matches_jacobi(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 8)
        lapack = exact_sector_spectrum(hamiltonian, 4).eigenvalues
        jacobi, _ = jacobi_eigh(sector_matrix(hamiltonian, 4)[1])
        assert lapack.shape == (70,)
        assert np.abs(lapack - jacobi).max() <= 1e-12

    def test_z_field_levels_analytic(self):
        # eps * n_0 within the 1-particle sector of 3 modes: levels {eps, 0, 0}
        hamiltonian = PauliSum.from_label_weights([(0.5, "III"), (-0.5, "ZII")])
        spectrum = exact_sector_spectrum(hamiltonian, 1)
        assert np.allclose(spectrum.eigenvalues, [0.0, 0.0, 1.0])

    def test_capacity_guard(self):
        hamiltonian = PauliSum.from_label_weights([(1.0, "I" * 20)])
        with pytest.raises(CapacityError):
            exact_sector_spectrum(hamiltonian, 10)

    def test_variational_bound_and_monotonicity(self, rng):
        for _ in range(5):
            hamiltonian = random_conserving_hamiltonian(rng, 8, fermionic_terms=5)
            exact_min = exact_sector_spectrum(hamiltonian, 4).eigenvalues[0]
            minima = []
            for order in (1, 2, 3):
                basis = build_subspace(hamiltonian, SubspaceSpec(4, order))
                heff = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
                minima.append(eigendecompose(heff).eigenvalues[0])
            assert minima[0] >= minima[1] >= minima[2] >= exact_min - 1e-9


    def test_every_level_interlaces_the_sector(self, rng):
        # Cauchy interlacing: E_k(Heff) >= E_k(sector) for every k < Ns
        def check(backend, trials, tol):
            for _ in range(trials):
                hamiltonian = random_conserving_hamiltonian(rng, 8, fermionic_terms=6, max_strings=60)
                particles = int(rng.integers(2, 7))
                order = int(rng.integers(1, min(particles, 8 - particles) + 1))
                size = int(rng.integers(1, 71))
                basis = build_subspace(hamiltonian, SubspaceSpec(particles, order, size))
                levels = eigendecompose(build_effective_hamiltonian(hamiltonian, basis, backend)).eigenvalues
                sector = exact_sector_spectrum(hamiltonian, particles).eigenvalues
                assert np.all(levels >= sector[: len(levels)] - tol)

        check(Backend.oracle(), 100, 1e-12)
        check(Backend.exact(), 10, 1e-10)
        check(Backend.exact("indirect"), 5, 1e-10)


class TestDos:
    def test_single_eigenvalue_single_bin(self):
        histogram = dos(Spectrum(np.array([1.5])), bin_count=1)
        assert histogram.counts.tolist() == [1]
        assert len(histogram.bin_edges) == 2

    def test_counts_cover_all_eigenvalues(self, rng):
        values = np.sort(rng.normal(size=40))
        histogram = dos(Spectrum(values), bin_count=7)
        assert histogram.counts.sum() == 40

    def test_identical_spectra_identical_histograms(self, rng):
        hamiltonian = random_conserving_hamiltonian(rng, 4)
        basis = basis_from_states(hamiltonian, sector_basis(4, 2))
        heff = build_effective_hamiltonian(hamiltonian, basis, Backend.oracle())
        first = dos(eigendecompose(heff), bin_count=6)
        second = dos(exact_sector_spectrum(hamiltonian, 2), bin_count=6)
        assert np.allclose(first.bin_edges, second.bin_edges)
        assert np.array_equal(first.counts, second.counts)

    def test_noise_split_degenerate_pair_lands_in_separate_bins(self):
        from heffsolve.circuits import ReadoutNoise

        hamiltonian = PauliSum.from_label_weights(
            [(1.0, "ZZII"), (1.0, "IIZZ"), (0.3, "YXXY")]
        )
        pair = basis_from_states(
            hamiltonian, [BasisState(b) for b in ("1010", "1001")]
        )
        exact = eigendecompose(
            build_effective_hamiltonian(hamiltonian, pair, Backend.exact())
        )
        noisy_backend = Backend.sampled(
            shots=8000, seed=12, noise=ReadoutNoise(0.02, 0.02),
            measure_diagonals_with_circuits=True,
        )
        noisy = eigendecompose(
            build_effective_hamiltonian(hamiltonian, pair, noisy_backend)
        )
        split = float(noisy.eigenvalues[1] - noisy.eigenvalues[0])
        assert split > 0
        histogram = dos(noisy, bin_width=split / 2)
        assert np.count_nonzero(histogram.counts) == 2
        exact_histogram = dos(exact, bin_width=split / 2)
        assert np.count_nonzero(exact_histogram.counts) == 1
        assert exact_histogram.counts.sum() == 2

    def test_bin_width_mode(self):
        histogram = dos(Spectrum(np.array([0.0, 0.3, 0.9, 1.0])), bin_width=0.5)
        assert len(histogram.counts) == 2
        assert histogram.counts.sum() == 4

    def test_argument_validation(self):
        spectrum = Spectrum(np.array([1.0]))
        with pytest.raises(ValueError):
            dos(spectrum)
        with pytest.raises(ValueError):
            dos(spectrum, bin_width=0.5, bin_count=2)
        with pytest.raises(ValueError):
            dos(spectrum, bin_count=0)
        with pytest.raises(ValueError):
            dos(Spectrum(np.array([])), bin_count=2)


class TestCsv:
    def test_spectrum_csv(self):
        text = spectrum_to_csv(Spectrum(np.array([-1.0, 0.25])))
        assert text.splitlines() == ["index,eigenvalue", "0,-1", "1,0.25"]

    def test_dos_csv(self):
        histogram = dos(Spectrum(np.array([0.0, 1.0])), bin_count=2)
        lines = dos_to_csv(histogram).splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 3
