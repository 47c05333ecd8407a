"""Classical post-processing: eigendecomposition and density of states.

Every spectrum, of an effective Hamiltonian or of a whole particle sector,
comes from the platform LAPACK routine via numpy, one connected block of the
matrix at a time.  A real matrix, or one whose imaginary part is exactly
zero, is diagonalized in real arithmetic.  Exact sector spectra project the
Hamiltonian onto the occupation masks of the whole fixed-particle-number
sector, one flip group at a time; for a real particle-conserving
Hamiltonian that matrix is real and never copied to complex.
"""

from __future__ import annotations

import math
from math import comb
from typing import NamedTuple

import numpy as np

from .pauli import BasisState, PauliSum, project_masks
from .subspace import _subset_masks

__all__ = [
    "CapacityError",
    "Spectrum",
    "DosHistogram",
    "eigendecompose",
    "exact_sector_spectrum",
    "sector_matrix",
    "dos",
    "spectrum_to_csv",
    "dos_to_csv",
]

#: Dense decompositions beyond this dimension are refused.
MAX_DENSE_DIMENSION = 4096

_HERMITICITY_TOL = 1e-9

# Side of the Hermiticity check's tiles, whose temporaries stay near 64 kB at
# any size; at 128 the transposed reads of a 4096-wide matrix thrash the cache.
_CHECK_TILE = 64


class CapacityError(RuntimeError):
    """A requested dense computation exceeds the supported size."""


class Spectrum(NamedTuple):
    """Ascending eigenvalues, optional orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def size(self) -> int:
        return int(self.eigenvalues.shape[0])


class DosHistogram(NamedTuple):
    """Unnormalized eigenvalue histogram: right-open bins, last bin closed."""

    bin_edges: np.ndarray
    counts: np.ndarray


def _check_hermitian(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    n = matrix.shape[0]
    peaks = [0.0]
    # max |M - M^dagger| over each upper tile and its mirror, so no temporary
    # is matrix-sized; a real array's .conj() is the array itself
    with np.errstate(invalid="ignore", over="ignore"):
        for top in range(0, n, _CHECK_TILE):
            rows = slice(top, top + _CHECK_TILE)
            for left in range(top, n, _CHECK_TILE):
                cols = slice(left, left + _CHECK_TILE)
                peaks.append(np.abs(matrix[rows, cols] - matrix[cols, rows].conj().T).max())
    deviation = float(np.max(peaks))
    # a NaN or infinite entry makes its own difference NaN or infinite
    if not math.isfinite(deviation):
        raise ValueError("matrix has non-finite entries")
    if deviation > _HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {deviation:.3e})")
    return matrix


def _block_labels(matrix: np.ndarray) -> np.ndarray:
    """Label of each row's connected block: the smallest row index in it."""
    coupled = matrix != 0
    labels = np.full(matrix.shape[0], -1)
    for start in range(matrix.shape[0]):
        if labels[start] < 0:
            members = frontier = np.arange(matrix.shape[0]) == start
            while frontier.any():
                frontier = coupled[frontier].any(axis=0) & ~members
                members = members | frontier
            labels[members] = start
    return labels


def _lapack(matrix: np.ndarray, compute_vectors: bool):
    return np.linalg.eigh(matrix) if compute_vectors else (np.linalg.eigvalsh(matrix), None)


def eigendecompose(heff_or_matrix, compute_vectors: bool = True) -> Spectrum:
    """Full spectrum of a Hermitian matrix (or an EffectiveHamiltonian).

    LAPACK diagonalizes every matrix, one connected block at a time, so the
    eigenvalues of a block do not depend on states it does not couple to.
    A real matrix, or one whose imaginary part is exactly zero, goes to the
    real symmetric routine and then has real eigenvectors.  Non-Hermitian
    input beyond 1e-9, and a NaN or infinite entry, are rejected
    (ValueError).
    """
    matrix = getattr(heff_or_matrix, "matrix", heff_or_matrix)
    matrix = _check_hermitian(matrix)
    n = matrix.shape[0]
    if n > MAX_DENSE_DIMENSION:
        raise CapacityError(f"dense decomposition limited to {MAX_DENSE_DIMENSION}, got {n}")
    if np.iscomplexobj(matrix) and not matrix.imag.any():
        # a real symmetric matrix: the real routine, several times faster
        matrix = matrix.real
    labels = _block_labels(matrix)
    if not labels.any():  # one block: LAPACK on the matrix itself, no copy
        return Spectrum(*_lapack(matrix, compute_vectors))
    values = np.empty(n)
    vectors = np.zeros_like(matrix) if compute_vectors else None
    for label in np.flatnonzero(labels == np.arange(n)):
        rows = np.flatnonzero(labels == label)
        block_values, block_vectors = _lapack(matrix[np.ix_(rows, rows)], compute_vectors)
        values[rows] = block_values
        if compute_vectors:
            vectors[np.ix_(rows, rows)] = block_vectors
    order = np.argsort(values, kind="stable")
    return Spectrum(values[order], None if vectors is None else vectors[:, order])


def sector_basis(num_qubits: int, particle_number: int) -> list[BasisState]:
    """Every configuration of the particle sector, in descending bit-string order."""
    masks = _subset_masks(range(num_qubits), particle_number)
    return [BasisState.from_mask(int(m), num_qubits) for m in masks]


def sector_matrix(hamiltonian: PauliSum, particle_number: int) -> tuple[list[BasisState], np.ndarray]:
    """Dense fixed-particle-number matrix: :func:`project_masks` onto the whole
    sector, with the sector's states in :func:`sector_basis` order."""
    masks = _subset_masks(range(hamiltonian.qubit_count), particle_number)
    return sector_basis(hamiltonian.qubit_count, particle_number), project_masks(hamiltonian, masks)


def exact_sector_spectrum(
    hamiltonian: PauliSum,
    particle_number: int,
    compute_vectors: bool = False,
) -> Spectrum:
    """Exact spectrum within one particle sector (the comparison baseline)."""
    num = hamiltonian.qubit_count
    if not 0 <= particle_number <= num:
        raise ValueError("invalid particle number")
    dim = comb(num, particle_number)
    if dim > MAX_DENSE_DIMENSION:
        raise CapacityError(
            f"sector dimension C({num},{particle_number}) = {dim} exceeds {MAX_DENSE_DIMENSION}"
        )
    masks = _subset_masks(range(num), particle_number)
    return eigendecompose(project_masks(hamiltonian, masks), compute_vectors=compute_vectors)


def dos(
    spectrum: Spectrum,
    bin_width: float | None = None,
    bin_count: int | None = None,
) -> DosHistogram:
    """Unnormalized density of states over [min, max] of the spectrum.

    Exactly one of ``bin_width``/``bin_count`` must be given.  A degenerate
    range (single distinct eigenvalue) widens to one unit-or-width bin.
    """
    if (bin_width is None) == (bin_count is None):
        raise ValueError("give exactly one of bin_width or bin_count")
    values = np.asarray(spectrum.eigenvalues, dtype=float)
    if values.size == 0:
        raise ValueError("empty spectrum")
    lo, hi = float(values.min()), float(values.max())
    if bin_count is not None and bin_count < 1:
        raise ValueError("bin_count must be positive")
    if bin_width is not None and bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if hi == lo:
        width = bin_width if bin_width is not None else 1.0
        edges = np.array([lo - 0.5 * width, lo + 0.5 * width])
    elif bin_count is not None:
        edges = np.linspace(lo, hi, bin_count + 1)
    else:
        steps = max(1, math.ceil((hi - lo) / bin_width - 1e-12))
        edges = lo + bin_width * np.arange(steps + 1)
        if edges[-1] < hi:
            edges = np.append(edges, edges[-1] + bin_width)
    counts, edges = np.histogram(values, bins=edges)
    return DosHistogram(edges, counts.astype(int))


def spectrum_to_csv(spectrum: Spectrum) -> str:
    lines = ["index,eigenvalue"]
    lines += [f"{i},{v:.17g}" for i, v in enumerate(spectrum.eigenvalues)]
    return "\n".join(lines) + "\n"


def dos_to_csv(histogram: DosHistogram) -> str:
    lines = ["bin_left,bin_right,count"]
    edges, counts = histogram.bin_edges, histogram.counts
    lines += [
        f"{edges[i]:.17g},{edges[i + 1]:.17g},{int(counts[i])}" for i in range(len(counts))
    ]
    return "\n".join(lines) + "\n"
