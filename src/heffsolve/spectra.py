"""Classical post-processing: eigendecomposition and density of states.

The always-available eigensolver is a cyclic Jacobi iteration for complex
Hermitian matrices (each rotation zeroes one off-diagonal element through a
phased 2x2 unitary); LAPACK via numpy can be selected for large subspaces
behind the same interface, and diagonalizes a matrix with no imaginary part
in real arithmetic.  Exact sector spectra come from assembling the full
fixed-particle-number matrix combinatorially and diagonalizing it with
LAPACK; the Jacobi iteration stays selectable as the reference it is tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .pauli import BasisState, PauliSum, project
from .subspace import _sector_masks

__all__ = [
    "CapacityError",
    "Spectrum",
    "DosHistogram",
    "jacobi_eigh",
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
_JACOBI_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 60

# Jacobi comfortably handles acceptance-scale matrices; larger subspaces
# switch to the bound LAPACK routine under method="auto".
_AUTO_JACOBI_LIMIT = 128


class CapacityError(RuntimeError):
    """A requested dense computation exceeds the supported size."""


@dataclass(slots=True)
class Spectrum:
    """Ascending eigenvalues, optional orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    constant_shift: float = 0.0

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def size(self) -> int:
        return int(self.eigenvalues.shape[0])


@dataclass(slots=True)
class DosHistogram:
    """Unnormalized eigenvalue histogram: right-open bins, last bin closed."""

    bin_edges: np.ndarray
    counts: np.ndarray


def _check_hermitian(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    deviation = np.abs(matrix - matrix.conj().T).max() if matrix.size else 0.0
    if deviation > _HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {deviation:.3e})")
    return matrix


def jacobi_eigh(
    matrix: np.ndarray,
    tol: float = _JACOBI_TOL,
    max_sweeps: int = _JACOBI_MAX_SWEEPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a complex Hermitian matrix.

    Each rotation applies ``U = [[c, -s e^{i phi}], [s e^{-i phi}, c]]`` with
    the phase of the targeted entry, reducing the off-diagonal Frobenius norm
    monotonically.  Returns (ascending eigenvalues, eigenvector columns).
    """
    a = _check_hermitian(matrix).copy()
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    if n == 1:
        return a.real.diagonal().copy(), v
    scale = max(float(np.linalg.norm(a)), 1.0)
    strict_upper = np.triu_indices(n, k=1)
    for _ in range(max_sweeps):
        off = math.sqrt(2.0) * float(np.linalg.norm(a[strict_upper]))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                beta = a[p, q]
                mag = abs(beta)
                if mag <= 1e-300:
                    continue
                phase = beta / mag
                tau = (a[p, p].real - a[q, q].real) / (2.0 * mag)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rotation = np.array(
                    [[c, -s * phase], [s * np.conj(phase), c]], dtype=complex
                )
                a[:, [p, q]] = a[:, [p, q]] @ rotation
                a[[p, q], :] = rotation.conj().T @ a[[p, q], :]
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                v[:, [p, q]] = v[:, [p, q]] @ rotation
    else:
        raise RuntimeError(f"Jacobi iteration did not converge in {max_sweeps} sweeps")
    eigenvalues = a.real.diagonal().copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def eigendecompose(
    heff_or_matrix,
    compute_vectors: bool = True,
    method: str = "auto",
    constant_shift: float = 0.0,
) -> Spectrum:
    """Full spectrum of a Hermitian matrix (or an EffectiveHamiltonian).

    ``method`` is ``jacobi`` (own iteration, the reference path), ``lapack``
    (bound platform routine), or ``auto`` (jacobi up to small sizes).
    LAPACK gets a matrix whose imaginary part is exactly zero as a real
    symmetric one, and then returns real eigenvectors.  Non-Hermitian input
    beyond 1e-9 is rejected.
    """
    matrix = getattr(heff_or_matrix, "matrix", heff_or_matrix)
    matrix = _check_hermitian(matrix)
    n = matrix.shape[0]
    if n > MAX_DENSE_DIMENSION:
        raise CapacityError(f"dense decomposition limited to {MAX_DENSE_DIMENSION}, got {n}")
    if method == "auto":
        method = "jacobi" if n <= _AUTO_JACOBI_LIMIT else "lapack"
    if method == "jacobi":
        values, vectors = jacobi_eigh(matrix)
    elif method == "lapack":
        if not matrix.imag.any():
            # a real symmetric matrix: the real routine, several times faster
            matrix = matrix.real
        if compute_vectors:
            values, vectors = np.linalg.eigh(matrix)
        else:
            values, vectors = np.linalg.eigvalsh(matrix), None
    else:
        raise ValueError(f"unknown method {method!r}")
    if constant_shift:
        values = values + constant_shift
    return Spectrum(values, vectors if compute_vectors else None, constant_shift)


def sector_basis(num_qubits: int, particle_number: int) -> list[BasisState]:
    """Every configuration of the particle sector, in bit-string order."""
    return [BasisState.from_mask(m, num_qubits) for m in _sector_masks(num_qubits, particle_number)]


def sector_matrix(hamiltonian: PauliSum, particle_number: int) -> tuple[list[BasisState], np.ndarray]:
    """Dense fixed-particle-number matrix: :func:`project` onto the whole sector."""
    states = sector_basis(hamiltonian.qubit_count, particle_number)
    return states, project(hamiltonian, states)


def exact_sector_spectrum(
    hamiltonian: PauliSum,
    particle_number: int,
    compute_vectors: bool = False,
    method: str = "lapack",
) -> Spectrum:
    """Exact spectrum within one particle sector (the comparison baseline).

    The sector matrix goes to LAPACK by default, whatever its size;
    ``method="jacobi"`` gives the same eigenvalues to rounding.
    """
    num = hamiltonian.qubit_count
    if not 0 <= particle_number <= num:
        raise ValueError("invalid particle number")
    dim = comb(num, particle_number)
    if dim > MAX_DENSE_DIMENSION:
        raise CapacityError(
            f"sector dimension C({num},{particle_number}) = {dim} exceeds {MAX_DENSE_DIMENSION}"
        )
    _, matrix = sector_matrix(hamiltonian, particle_number)
    return eigendecompose(matrix, compute_vectors=compute_vectors, method=method)


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
