"""Shared oracles: dense Kronecker-product matrices, per-pair Pauli matrix
elements, fermionic ladder algebra, a Jacobi eigensolver and a Jordan-Wigner
map by repeated addition, and exact outcome distributions of a circuit; and
label-level builders of Pauli sums.

Everything here is deliberately independent of the package's combinatorial
paths: Pauli matrices are built by explicit tensor products, matrix elements
one basis pair and one string at a time, fermionic operators act on
occupation tuples with explicit sign bookkeeping, and spectra come from a
cyclic Jacobi iteration rather than LAPACK.
"""

import math

import numpy as np
import pytest

from heffsolve.circuits import Circuit, ReadoutNoise, run_statevector
from heffsolve.fermion import FermionHamiltonian, FermionTerm, jw_ladder, jw_transform
from heffsolve.pauli import BasisState, PauliString, PauliSum, multiply_masks

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def sum_of_terms(terms, n: int) -> PauliSum:
    """The sum of ``(weight, PauliString)`` pairs on ``n`` qubits, from their masks."""
    terms = list(terms)
    x, z = [s.x_mask for _, s in terms], [s.z_mask for _, s in terms]
    return PauliSum(x, z, [w for w, _ in terms], n)


def pauli_sum(pairs, n: int | None = None) -> PauliSum:
    """The sum of ``(weight, label)`` pairs on ``n`` qubits (by default, the
    first label's length)."""
    terms = [(w, PauliString(label)) for w, label in pairs]
    return sum_of_terms(terms, terms[0][1].num_qubits if n is None else n)


def weight_of(hamiltonian: PauliSum, label: str) -> complex:
    """The weight of the string ``label`` in ``hamiltonian``; 0 if absent."""
    return dict((s.label, w) for w, s in hamiltonian.terms).get(label, 0j)


def dense_pauli(label: str) -> np.ndarray:
    """Dense matrix of a Pauli string; qubit 0 is the least significant bit."""
    out = np.array([[1.0 + 0j]])
    for c in reversed(label):
        out = np.kron(out, PAULI_MATRICES[c])
    return out


def dense_sum(hamiltonian: PauliSum) -> np.ndarray:
    dim = 1 << hamiltonian.qubit_count
    out = np.zeros((dim, dim), dtype=complex)
    for w, s in hamiltonian:
        out += w * dense_pauli(s.label)
    return out


def basis_vector(state: BasisState) -> np.ndarray:
    vec = np.zeros(1 << state.num_qubits, dtype=complex)
    vec[state.mask] = 1.0
    return vec


def masks_of(states) -> np.ndarray:
    """The ``uint64`` occupation masks of ``states``, in order."""
    return np.array([s.mask for s in states], dtype=np.uint64)


def bit_strings(masks, num_qubits: int) -> list[str]:
    """The bit string of each occupation mask (character ``i`` is bit ``i``)."""
    return [format(int(m), f"0{num_qubits}b")[::-1] for m in masks]


def dense_projection(hamiltonian: PauliSum, states) -> np.ndarray:
    """Brute-force <m|H|n> over a basis list, via the dense matrix."""
    matrix = dense_sum(hamiltonian)
    vectors = np.stack([basis_vector(s) for s in states], axis=1)
    return vectors.conj().T @ matrix @ vectors


# --- per-pair Pauli matrix elements ----------------------------------------

def _require_equal_length(a_len: int, b_len: int) -> None:
    if a_len != b_len:
        raise ValueError(f"length mismatch: {a_len} vs {b_len}")


def apply_string(h: PauliString, n: BasisState) -> tuple[complex, BasisState]:
    """Apply a Pauli string to a basis state: ``h|n> == phase * |m>``.

    X and Y flip their bit; Y contributes ``i`` on ``|0>`` and ``-i`` on
    ``|1>``; Z contributes ``-1`` on ``|1>``.  Collecting factors, the phase
    is ``i**y_count * (-1)**popcount(n & z_mask)`` and ``m = n XOR x_mask``.
    """
    _require_equal_length(h.num_qubits, n.num_qubits)
    sign = -1 if (n.mask & h.z_mask).bit_count() & 1 else 1
    phase = sign * (1j ** (h.y_count % 4))
    m = BasisState.from_mask(n.mask ^ h.x_mask, n.num_qubits)
    return phase, m


def string_matrix_element(m: BasisState, h: PauliString, n: BasisState) -> complex:
    """Exact ``<m|h|n>``; always one of {0, +1, -1, +i, -i}."""
    _require_equal_length(h.num_qubits, n.num_qubits)
    _require_equal_length(m.num_qubits, n.num_qubits)
    if m.mask != n.mask ^ h.x_mask:
        return 0j
    phase, _ = apply_string(h, n)
    return phase


def sum_matrix_element(m: BasisState, hamiltonian: PauliSum, n: BasisState) -> complex:
    """``<m|H|n>`` summed over the terms of a Pauli sum, one pair at a time:
    the reference that ``project`` and the circuit estimators are checked
    against."""
    _require_equal_length(hamiltonian.qubit_count, n.num_qubits)
    total = 0j
    target = m.mask
    for weight, string in hamiltonian.terms:
        if target == n.mask ^ string.x_mask:
            sign = -1 if (n.mask & string.z_mask).bit_count() & 1 else 1
            total += weight * sign * (1j ** (string.y_count % 4))
    return total


# --- independent fermionic oracle -----------------------------------------

def ladder_matrix(mode: int, dagger: bool, num_modes: int) -> np.ndarray:
    """Dense annihilation/creation matrix from occupation-number bookkeeping.

    a_j clears bit j with sign (-1)**(number of occupied modes below j);
    built directly on occupation bit masks, no Pauli algebra involved.
    """
    dim = 1 << num_modes
    out = np.zeros((dim, dim), dtype=complex)
    below = (1 << mode) - 1
    for n in range(dim):
        occupied = bool(n >> mode & 1)
        if occupied == dagger:
            continue
        m = n ^ (1 << mode)
        sign = -1.0 if bin(n & below).count("1") & 1 else 1.0
        out[m, n] = sign
    return out


def dense_fermion(hamiltonian: FermionHamiltonian) -> np.ndarray:
    dim = 1 << hamiltonian.mode_count
    out = np.eye(dim, dtype=complex) * hamiltonian.constant
    for term in hamiltonian.terms:
        product = np.eye(dim, dtype=complex)
        for mode, dagger in term.factors:
            product = product @ ladder_matrix(mode, dagger, hamiltonian.mode_count)
        out += term.coefficient * product
    return out


# --- Jordan-Wigner by repeated addition --------------------------------------

def add_sums(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a + b``: the terms of ``a`` then ``b``, merged and pruned."""
    x, z, w = (np.concatenate(p) for p in zip((a.x, a.z, a.w), (b.x, b.z, b.w)))
    return PauliSum(x, z, w.tolist(), a.qubit_count)


def multiply_sums(a: PauliSum, b: PauliSum) -> PauliSum:
    """``a * b``: every product of a term of ``a`` by a term of ``b``, in that
    order, merged and pruned."""
    products = [
        (wa * wb, *multiply_masks(xa, za, xb, zb))
        for wa, xa, za in a.triples() for wb, xb, zb in b.triples()
    ]
    xs, zs = [x for _, _, x, _ in products], [z for _, _, _, z in products]
    return PauliSum(xs, zs, [w * p for w, p, _, _ in products], a.qubit_count)


def jw_transform_by_addition(hamiltonian: FermionHamiltonian, hermitian_tol: float = 1e-10) -> PauliSum:
    """Jordan-Wigner as ``total = total + mapped`` per term, renormalizing the
    whole sum each time (quadratic in the string count).  The reference for
    the terms, their order and their weight bits."""
    n = hamiltonian.mode_count
    total = PauliSum([], [], [], n)
    for term in hamiltonian.terms:
        mapped = pauli_sum([(term.coefficient, "I" * n)])
        for mode, dagger in term.factors:
            mapped = multiply_sums(mapped, jw_ladder(mode, dagger, n))
        total = add_sums(total, mapped)
    if hamiltonian.constant:
        total = add_sums(total, pauli_sum([(hamiltonian.constant, "I" * n)]))
    return total.real_weights(tol=hermitian_tol)


# --- exact outcome distributions --------------------------------------------

def apply_per_qubit(vec: np.ndarray, matrices) -> np.ndarray:
    """Apply the 2x2 ``matrices[j]`` (a readout channel, its inverse or its
    inverse transpose) to outcome bit ``j`` of ``vec``.

    ``vec`` spans ``2**len(matrices)`` outcomes; the tensor-product map is
    applied one bit at a time, never as a dense composite.
    """
    num = len(matrices)
    out = vec.reshape([2] * num)
    for j, matrix in enumerate(matrices):
        axis = num - 1 - j
        out = np.moveaxis(np.tensordot(matrix, out, axes=([1], [axis])), 0, axis)
    return out.reshape(-1)


def apply_noise_to_distribution(
    probs: np.ndarray, noise: ReadoutNoise, qubits: tuple[int, ...]
) -> np.ndarray:
    """Exact (infinite-shot) push of a distribution through the flip channel."""
    return apply_per_qubit(probs, [noise.channel_matrix(q) for q in qubits])


def outcome_distribution(circuit: Circuit, noise: ReadoutNoise | None = None) -> np.ndarray:
    """Exact outcome probabilities over every wire, noise applied analytically."""
    probs = np.abs(run_statevector(circuit)) ** 2
    if noise is not None:
        probs = apply_noise_to_distribution(probs, noise, tuple(range(circuit.total_qubits)))
    return probs


# --- independent eigensolver ------------------------------------------------

def jacobi_eigh(
    matrix: np.ndarray,
    tol: float = 1e-13,
    max_sweeps: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a complex Hermitian matrix.

    Each rotation applies ``U = [[c, -s e^{i phi}], [s e^{-i phi}, c]]`` with
    the phase of the targeted entry, reducing the off-diagonal Frobenius norm
    monotonically.  Returns (ascending eigenvalues, eigenvector columns).
    """
    a = np.array(matrix, dtype=complex)
    assert a.ndim == 2 and a.shape[0] == a.shape[1]
    assert np.abs(a - a.conj().T).max(initial=0.0) <= 1e-9
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


# --- random instances -------------------------------------------------------

def random_fermion_terms(rng: np.random.Generator, num_modes: int, count: int):
    terms = []
    for _ in range(count):
        kind = int(rng.integers(3 if num_modes >= 4 else 2))
        coeff = float(rng.normal())
        if kind == 0:
            i = int(rng.integers(num_modes))
            terms.append(FermionTerm(coeff, ((i, True), (i, False))))
        elif kind == 1:
            i, j = (int(v) for v in rng.choice(num_modes, 2, replace=False))
            terms.append(FermionTerm(coeff, ((i, True), (j, False))))
            terms.append(FermionTerm(coeff, ((j, True), (i, False))))
        else:
            i, j, k, l = (int(v) for v in rng.choice(num_modes, 4, replace=False))
            terms.append(FermionTerm(coeff, ((i, True), (j, True), (k, False), (l, False))))
            terms.append(FermionTerm(coeff, ((l, True), (k, True), (j, False), (i, False))))
    return terms


def random_conserving_hamiltonian(
    rng: np.random.Generator,
    num_modes: int,
    fermionic_terms: int = 4,
    max_strings: int = 30,
) -> PauliSum:
    """Random Hermitian particle-conserving Pauli sum with a bounded term count."""
    while True:
        terms = random_fermion_terms(rng, num_modes, fermionic_terms)
        mapped = jw_transform(FermionHamiltonian(tuple(terms), num_modes))
        if 0 < mapped.num_terms <= max_strings:
            return mapped


def random_hermitian_sum(rng: np.random.Generator, num_qubits: int, terms: int) -> PauliSum:
    """Random Hermitian Pauli sum without any conservation structure."""
    pairs = []
    for _ in range(terms):
        label = "".join(rng.choice(list("IXYZ"), size=num_qubits))
        pairs.append((float(rng.normal()), label))
    return pauli_sum(pairs, num_qubits)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
