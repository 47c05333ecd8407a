"""Assembly of the effective Hamiltonian from measured matrix elements.

Diagonal entries come from plain basis preparation and Z-basis readout;
off-diagonal entries come from the interference circuits in
:mod:`heffsolve.circuits`.  Only strings containing X or Y are ever measured
for off-diagonal entries (I/Z-only strings cannot connect two different
basis states), and their own diagonal elements vanish identically, so the
recovery reduces to

    Re <n|H|n'> = 2 m_re            Im <n|H|n'> = -2 m_im      (direct)
    Re <n|h|n'> = 4 m_re - 1        Im <n|h|n'> = 1 - 4 m_im   (indirect, per string)

where ``m`` is the measured ancilla-projector expectation of each circuit.

A string ``h`` can contribute to ``<n|H|n'>`` only when it flips exactly
``n XOR n'`` (``h.x_mask == n.mask ^ n'.mask``), which is known classically.
Each pair therefore measures only its connecting strings: the others would
give exact zeros (``exact``) or zero-mean shot noise (``sampled``).  The
direct style still runs and counts its two circuits (real and imaginary) for
every pair, so its circuit count stays ``2 C(Ns, 2)``; ``string_executions``
and shots count only the connecting strings.

For a pair that no string connects, no circuit is simulated.

Backends: ``oracle`` (combinatorial, no circuits), ``exact`` (expectations
on the sparse state of :func:`heffsolve.circuits.run_sparse`, at any
register size), ``sampled`` (finite shots drawn from a dense statevector,
optional readout noise and calibration-matrix mitigation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ``state_expectation`` is not called here; it stays bound because
# perfbench/spans.py wraps it.
from .circuits import (
    Circuit,
    ReadoutNoise,
    apply_circuit,
    apply_per_qubit,
    build_indirect_circuit,
    build_offdiagonal_circuit,
    derive_seed,
    marginal_probabilities,
    measurement_rotations,
    parity_values,
    prepare_basis_circuit,
    rng_from_seed,
    run_sparse,
    run_statevector,
    sample_outcome_counts,
    sparse_expectation,
    state_expectation,
)
from .pauli import (
    BasisState,
    PauliString,
    PauliSum,
    classify_terms,
    project,
    sum_matrix_element,
)
from .subspace import SubspaceBasis

__all__ = [
    "Backend",
    "MeasurementEstimate",
    "CalibrationMatrix",
    "CircuitCounts",
    "EffectiveHamiltonian",
    "measure_diagonal",
    "measure_offdiagonal",
    "build_effective_hamiltonian",
    "build_calibration",
    "heff_to_dict",
    "heff_matrix_from_dict",
]

_BACKEND_KINDS = ("oracle", "exact", "sampled")
_STYLES = ("direct", "indirect")

# Seed-derivation tags keeping every randomized stage on an independent stream.
_TAG_DIAGONAL = 1
_TAG_OFFDIAGONAL = 2
_TAG_CALIBRATION = 3


@dataclass(frozen=True, slots=True)
class Backend:
    """How matrix elements are evaluated.

    ``oracle`` computes them combinatorially; ``exact`` runs the measurement
    circuits on their nonzero amplitudes and reads deterministic
    expectations; ``sampled`` draws finite shots, optionally through a
    readout-noise channel with calibration-matrix mitigation.  Diagonal
    entries default to the classical path even for circuit backends (they
    are classically trivial);
    ``measure_diagonals_with_circuits`` (circuit backends) forces the all-hardware mode.
    """

    kind: str = "oracle"
    shots: int = 8000
    seed: int = 0
    noise: ReadoutNoise | None = None
    mitigation: bool = False
    measurement_style: str = "direct"
    measure_diagonals_with_circuits: bool = False
    calibration_shots: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.measurement_style not in _STYLES:
            raise ValueError(f"unknown measurement style {self.measurement_style!r}")
        if self.kind == "sampled" and self.shots <= 0:
            raise ValueError("sampled backend needs shots > 0")
        if self.noise is not None and self.kind != "sampled":
            raise ValueError("readout noise applies to the sampled backend only")
        if self.mitigation and self.noise is None:
            raise ValueError("mitigation requires a noise model")
        if self.measure_diagonals_with_circuits and not self.uses_circuits:
            raise ValueError("circuit diagonals need a circuit backend (exact or sampled)")

    @classmethod
    def oracle(cls) -> "Backend":
        return cls(kind="oracle")

    @classmethod
    def exact(cls, style: str = "direct", **kw) -> "Backend":
        return cls(kind="exact", measurement_style=style, **kw)

    @classmethod
    def sampled(cls, shots: int = 8000, seed: int = 0, style: str = "direct", **kw) -> "Backend":
        return cls(kind="sampled", shots=shots, seed=seed, measurement_style=style, **kw)

    @property
    def uses_circuits(self) -> bool:
        return self.kind != "oracle"

    def describe(self) -> dict:
        noise = None
        if self.noise is not None:
            noise = {"p01": self.noise.p01, "p10": self.noise.p10}
        return {
            "kind": self.kind,
            "shots": self.shots if self.kind == "sampled" else None,
            "seed": self.seed,
            "noise": noise,
            "mitigation": self.mitigation,
            "measurement_style": self.measurement_style if self.uses_circuits else None,
            "measure_diagonals_with_circuits": self.measure_diagonals_with_circuits,
            "calibration_shots": self.calibration_shots,
        }


@dataclass(frozen=True, slots=True)
class MeasurementEstimate:
    """One estimated matrix element and its statistical pedigree.

    Histograms are not kept: each is reduced to a mean and variance by
    :func:`_sampled_estimate` as it is drawn, and the entry keeps the shot
    and circuit totals with the propagated standard errors.
    """

    value: complex
    stderr_re: float = 0.0
    stderr_im: float = 0.0
    shots: int = 0
    circuits: int = 0
    executions: int = 0

    @property
    def variance_re(self) -> float:
        return self.stderr_re * self.stderr_re

    @property
    def variance_im(self) -> float:
        return self.stderr_im * self.stderr_im


@dataclass(frozen=True, slots=True)
class CalibrationMatrix:
    """Per-qubit 2x2 column-stochastic confusion matrices (composite = tensor product)."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for m in self.matrices:
            if m.shape != (2, 2):
                raise ValueError("calibration matrices must be 2x2")
            if not np.allclose(m.sum(axis=0), 1.0, atol=1e-9):
                raise ValueError("calibration matrix columns must sum to 1")
            if abs(np.linalg.det(m)) < 1e-9:
                raise ValueError("singular calibration matrix")

    def matrix_for(self, qubit: int) -> np.ndarray:
        return self.matrices[qubit]

    def composite(self, qubits) -> np.ndarray:
        out = np.array([[1.0]])
        for q in reversed(tuple(qubits)):
            out = np.kron(out, self.matrices[q])
        return out


@dataclass(slots=True)
class CircuitCounts:
    """Execution accounting for one effective-Hamiltonian build.

    ``diagonal``/``offdiagonal_*`` count circuits at per-(state) and
    per-(pair, part) granularity (direct style: ``2 C(Ns, 2)`` in all, even
    for pairs no string connects; indirect style: one per (pair, part,
    connecting string)).  ``string_executions`` counts the string-level
    measurement settings within them and ``total_shots`` their shots; both
    cover only the strings that connect their pair.
    """

    diagonal: int = 0
    offdiagonal_real: int = 0
    offdiagonal_imag: int = 0
    string_executions: int = 0
    total_shots: int = 0

    @property
    def offdiagonal(self) -> int:
        return self.offdiagonal_real + self.offdiagonal_imag

    def add(self, other: "CircuitCounts") -> None:
        self.diagonal += other.diagonal
        self.offdiagonal_real += other.offdiagonal_real
        self.offdiagonal_imag += other.offdiagonal_imag
        self.string_executions += other.string_executions
        self.total_shots += other.total_shots

    def as_dict(self) -> dict:
        return {
            "diagonal": self.diagonal,
            "offdiagonal_real": self.offdiagonal_real,
            "offdiagonal_imag": self.offdiagonal_imag,
            "offdiagonal_total": self.offdiagonal,
            "string_executions": self.string_executions,
            "total_shots": self.total_shots,
        }


@dataclass(slots=True)
class EffectiveHamiltonian:
    """The projected Hamiltonian over a subspace basis, exactly Hermitian.

    ``estimates`` maps each upper-triangle entry ``(i, j)`` to its
    measurement statistics; it is empty for a backend that measures nothing
    (``oracle``), whose entries are exact.
    """

    basis: SubspaceBasis
    matrix: np.ndarray
    estimates: dict[tuple[int, int], MeasurementEstimate]
    backend: Backend
    circuit_counts: CircuitCounts

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# Calibration and mitigation
# ---------------------------------------------------------------------------

def build_calibration(
    noise: ReadoutNoise,
    shots: int | None,
    seed: int,
    qubit_count: int,
) -> CalibrationMatrix:
    """Estimate per-qubit confusion matrices from calibration preparations.

    For every wire, ``|0>`` and ``|1>`` are prepared and read ``shots`` times
    through the flip channel; observed frequencies fill the columns.
    ``shots=None`` returns the exact (infinite-shot) matrices.
    """
    matrices = []
    for q in range(qubit_count):
        if shots is None:
            matrices.append(noise.channel_matrix(q))
            continue
        p01, p10 = noise.for_qubit(q)
        if shots <= 0:
            raise ValueError("calibration shots must be positive")
        rng0 = rng_from_seed(derive_seed(seed, _TAG_CALIBRATION, q, 0))
        rng1 = rng_from_seed(derive_seed(seed, _TAG_CALIBRATION, q, 1))
        ones_from_zero = int(rng0.binomial(shots, p01)) if p01 > 0 else 0
        zeros_from_one = int(rng1.binomial(shots, p10)) if p10 > 0 else 0
        matrices.append(
            np.array(
                [
                    [(shots - ones_from_zero) / shots, zeros_from_one / shots],
                    [ones_from_zero / shots, (shots - zeros_from_one) / shots],
                ]
            )
        )
    return CalibrationMatrix(tuple(matrices))


_NNLS_MAX_DIM = 4096


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Nonnegative least squares, ``scipy.optimize.nnls`` imported on first use.

    Only the fallback of :func:`_mitigate_probabilities` needs it, and no solve
    reaches that, so a solve never loads scipy.
    """
    from scipy.optimize import nnls as scipy_nnls

    return scipy_nnls(a, b)


def _mitigate_probabilities(
    weights: np.ndarray, calibration: CalibrationMatrix, qubits
) -> np.ndarray:
    """Solve ``cal @ p = observed`` for a nonnegative normalized ``p``.

    The tensor-structured linear inversion is tried first; when it is already
    nonnegative it coincides with the nonnegative least-squares solution.
    Otherwise NNLS runs on the dense composite matrix.  Clipping to a
    distribution biases the estimators fed from it, so the matrix-element
    measurements use the linear estimate of :func:`_sampled_estimate` instead.
    """
    qubits = tuple(qubits)
    observed = weights / weights.sum()
    solved = apply_per_qubit(
        observed, [np.linalg.inv(calibration.matrix_for(q)) for q in qubits]
    )
    if solved.min() < -1e-9:
        if solved.shape[0] > _NNLS_MAX_DIM:
            raise ValueError(
                f"NNLS fallback needs a dense {solved.shape[0]}-dim calibration matrix; too large"
            )
        solved, _ = nnls(calibration.composite(qubits), observed)
    solved = np.clip(solved, 0.0, None)
    total = solved.sum()
    if total <= 0.0:
        raise ValueError("mitigated distribution vanished")
    return solved / total


# ---------------------------------------------------------------------------
# Matrix-element measurement
# ---------------------------------------------------------------------------

def _mean_and_variance(weights: np.ndarray, values: np.ndarray, shots: int) -> tuple[float, float]:
    freq = weights / weights.sum()
    mean = float(freq @ values)
    second = float(freq @ (values * values))
    return mean, max(second - mean * mean, 0.0) / shots


def _inverse_transposed_values(
    values: np.ndarray, calibration: CalibrationMatrix, qubits
) -> np.ndarray:
    """Per-outcome values pulled back through the calibration inverse.

    The mitigated mean is a linear functional of the raw counts,
    ``u^T c / shots`` with ``u = (A^-1)^T v``, so its mean and its raw
    sampling variance are both moments of ``u``.
    """
    return apply_per_qubit(
        values, [np.linalg.inv(calibration.matrix_for(q)).T for q in qubits]
    )


def _sampled_estimate(
    probs: np.ndarray,
    values: np.ndarray,
    backend: Backend,
    seed: int,
    qubits,
    calibration: CalibrationMatrix | None,
) -> tuple[float, float]:
    """Sample one histogram and estimate ``E[values]`` with its variance.

    Under mitigation the values are pulled back through the calibration
    inverse and both moments come from the raw counts: the mean
    ``u . c / shots`` is then unbiased for the noiseless expectation, and the
    variance carries the amplification of inverting the channel.  Being a
    linear estimate, the mean is not clipped to the physical range of
    ``values`` and may fall outside it.
    """
    rng = rng_from_seed(seed)
    counts = sample_outcome_counts(probs, backend.shots, rng, backend.noise, tuple(qubits))
    weights = counts.astype(float)
    if not backend.mitigation:
        return _mean_and_variance(weights, values, backend.shots)
    if calibration is None:
        raise ValueError("mitigation requested but no calibration supplied")
    pulled_back = _inverse_transposed_values(values, calibration, qubits)
    return _mean_and_variance(weights, pulled_back, backend.shots)


def measure_diagonal(
    hamiltonian: PauliSum,
    n: BasisState,
    backend: Backend,
    calibration: CalibrationMatrix | None = None,
    seed: int | None = None,
) -> MeasurementEstimate:
    """Estimate ``<n|H|n>``.

    The classical path evaluates the sum combinatorially.  The circuit path
    prepares ``|n>`` with X gates and reads every I/Z-only string from the
    Z-basis histogram; strings containing X or Y have identically zero
    diagonal elements and are skipped.
    """
    if not backend.measure_diagonals_with_circuits:
        value = sum_matrix_element(n, hamiltonian, n).real
        return MeasurementEstimate(complex(value))
    diagonal_part, _ = classify_terms(hamiltonian)
    num = n.num_qubits
    circuit = prepare_basis_circuit(n)
    if backend.kind == "exact":
        state = run_sparse(circuit)
        value = sum(
            w.real * sparse_expectation(state, s) for w, s in diagonal_part
        )
        return MeasurementEstimate(complex(value), circuits=1, executions=diagonal_part.num_terms)
    # sampled: one Z-basis histogram serves every diagonal string
    probs = marginal_probabilities(run_statevector(circuit), num, circuit.measured)
    if seed is None:
        seed = derive_seed(backend.seed, _TAG_DIAGONAL, n.mask)
    values = np.zeros(probs.shape[0])
    for w, s in diagonal_part:
        values += w.real * parity_values(num, s.z_mask)
    mean, var = _sampled_estimate(probs, values, backend, seed, circuit.measured, calibration)
    return MeasurementEstimate(
        complex(mean),
        stderr_re=math.sqrt(var),
        shots=backend.shots,
        circuits=1,
        executions=diagonal_part.num_terms,
    )


def _strings_by_flip(hamiltonian: PauliSum) -> dict[int, list[tuple[int, float, PauliString]]]:
    """Off-diagonal strings grouped by the bits they flip.

    Each entry is ``(k, weight, string)``, ``k`` being the string's index in
    the full off-diagonal list: it is the string's seed key, so its shot
    stream does not depend on which other strings exist.  The dict is empty
    when the Hamiltonian has no off-diagonal string.
    """
    _, offdiag = classify_terms(hamiltonian)
    groups: dict[int, list[tuple[int, float, PauliString]]] = {}
    for k, (w, s) in enumerate(offdiag.terms):
        groups.setdefault(s.x_mask, []).append((k, w.real, s))
    return groups


def _offdiagonal_direct(
    connecting: list[tuple[int, float, PauliString]],
    n: BasisState,
    nprime: BasisState,
    backend: Backend,
    calibration: CalibrationMatrix | None,
) -> tuple[complex, float, float, CircuitCounts]:
    """Recovered ``<n|H_offdiag|n'>`` from the single-ancilla circuits.

    Per part the circuit expectation is ``m = sum_s lambda_s q_s`` with
    ``q_s = (<I (x) h_s> + <Z_anc (x) h_s>)/2``: ``exact`` reads it from the
    sparse state, ``sampled`` from the rotated histogram as the
    string-support parity gated on the ancilla reading 0.  The recovery is
    ``Re = 2 m_re`` and ``Im = -2 m_im``.  ``connecting`` holds
    ``(seed key, weight, string)`` of the strings that flip ``n XOR n'``;
    when it is empty no circuit is built or simulated, but both are still
    counted.
    """
    num = n.num_qubits
    anc_bit = 1 << num
    counts = CircuitCounts()
    m_part = {"real": 0.0, "imag": 0.0}
    var_part = {"real": 0.0, "imag": 0.0}
    for part in ("real", "imag"):
        if part == "real":
            counts.offdiagonal_real += 1
        else:
            counts.offdiagonal_imag += 1
        if not connecting:
            continue
        circuit = build_offdiagonal_circuit(n, nprime, part)
        counts.string_executions += len(connecting)
        if backend.kind == "exact":
            state = run_sparse(circuit)
            for _, w, s in connecting:
                q = 0.5 * (
                    sparse_expectation(state, PauliString(s.label + "I"))
                    + sparse_expectation(state, PauliString(s.label + "Z"))
                )
                m_part[part] += w * q
            continue
        base_state = run_statevector(circuit)
        for s_index, w, s in connecting:
            rotated = apply_circuit(
                base_state, Circuit(num + 1, measurement_rotations(s))
            )
            probs = marginal_probabilities(rotated, num + 1, circuit.measured)
            seed = derive_seed(
                backend.seed, _TAG_OFFDIAGONAL, n.mask, nprime.mask,
                0 if part == "real" else 1, s_index,
            )
            support = sum(1 << q_idx for q_idx in s.support())
            values = parity_values(num + 1, support)
            idx = np.arange(values.shape[0])
            values = values * ((idx & anc_bit) == 0)
            q_mean, q_var = _sampled_estimate(
                probs, values, backend, seed, circuit.measured, calibration
            )
            m_part[part] += w * q_mean
            var_part[part] += (w ** 2) * q_var
            counts.total_shots += backend.shots
    value = complex(2.0 * m_part["real"], -2.0 * m_part["imag"])
    return value, 4.0 * var_part["real"], 4.0 * var_part["imag"], counts


def _offdiagonal_indirect(
    connecting: list[tuple[int, float, PauliString]],
    n: BasisState,
    nprime: BasisState,
    backend: Backend,
    calibration: CalibrationMatrix | None,
) -> tuple[complex, float, float, CircuitCounts]:
    """Recovered ``<n|H_offdiag|n'>`` from the two-ancilla per-string circuits.

    ``m_s`` is the probability that both ancillas read 0; since every
    measured string flips bits its own diagonal elements vanish, leaving
    ``Re_s = 4 m_s - 1`` on the real circuit and ``Im_s = 1 - 4 m_s`` on the
    imaginary one.  Only the ``connecting`` strings get circuits.
    """
    num = n.num_qubits
    ancilla_bits = (1 << num) | (1 << (num + 1))
    counts = CircuitCounts()
    totals = {"real": 0.0, "imag": 0.0}
    variances = {"real": 0.0, "imag": 0.0}
    for part in ("real", "imag"):
        for s_index, w, s in connecting:
            circuit = build_indirect_circuit(n, nprime, s, part)
            if part == "real":
                counts.offdiagonal_real += 1
            else:
                counts.offdiagonal_imag += 1
            counts.string_executions += 1
            if backend.kind == "exact":
                m_s = sum(
                    abs(amp) ** 2
                    for index, amp in run_sparse(circuit).items()
                    if not index & ancilla_bits
                )
                v_s = 0.0
            else:
                probs = marginal_probabilities(
                    run_statevector(circuit), num + 2, circuit.measured
                )
                idx = np.arange(probs.shape[0])
                values = ((idx & ancilla_bits) == 0).astype(float)
                seed = derive_seed(
                    backend.seed, _TAG_OFFDIAGONAL, n.mask, nprime.mask,
                    2 if part == "real" else 3, s_index,
                )
                m_s, v_s = _sampled_estimate(
                    probs, values, backend, seed, circuit.measured, calibration
                )
                counts.total_shots += backend.shots
            recovered = 4.0 * m_s - 1.0
            totals[part] += w * (recovered if part == "real" else -recovered)
            variances[part] += (w ** 2) * 16.0 * v_s
    value = complex(totals["real"], totals["imag"])
    return value, variances["real"], variances["imag"], counts


def measure_offdiagonal(
    hamiltonian: PauliSum,
    n: BasisState,
    nprime: BasisState,
    backend: Backend,
    diag_n: MeasurementEstimate | float | None = None,
    diag_nprime: MeasurementEstimate | float | None = None,
    calibration: CalibrationMatrix | None = None,
    strings_by_flip: dict[int, list[tuple[int, float, PauliString]]] | None = None,
    totals: CircuitCounts | None = None,
) -> MeasurementEstimate:
    """Estimate the complex element ``<n|H|n'>`` for ``n != n'``.

    Only the off-diagonal strings that flip exactly ``n XOR n'`` are
    measured; each keeps its index in the full off-diagonal list as its seed
    key, so its shot stream does not depend on which other strings exist.
    ``strings_by_flip`` is that grouping of ``hamiltonian``'s strings, built
    here when not given.  Substituting the (identically zero) diagonal
    elements of that operator into the recovery leaves ``Re = 2 m_re`` and
    ``Im = -2 m_im``, so the diagonal estimates that circuit backends
    require enter neither the value nor its standard errors, which propagate
    the circuit variances alone.  When ``totals`` is given, this
    measurement's circuits, settings and shots are added to it.
    """
    if n == nprime:
        raise ValueError("off-diagonal measurement needs two distinct states")
    if backend.kind == "oracle":
        return MeasurementEstimate(sum_matrix_element(n, hamiltonian, nprime))
    if backend.uses_circuits and (diag_n is None or diag_nprime is None):
        raise ValueError("circuit backends need both diagonal estimates")
    if strings_by_flip is None:
        strings_by_flip = _strings_by_flip(hamiltonian)
    if not strings_by_flip:
        return MeasurementEstimate(0j)
    connecting = strings_by_flip.get(n.mask ^ nprime.mask, [])
    if backend.measurement_style == "direct":
        value, var_re, var_im, counts = _offdiagonal_direct(
            connecting, n, nprime, backend, calibration
        )
    else:
        value, var_re, var_im, counts = _offdiagonal_indirect(
            connecting, n, nprime, backend, calibration
        )
    if totals is not None:
        totals.add(counts)
    return MeasurementEstimate(
        value,
        stderr_re=math.sqrt(var_re),
        stderr_im=math.sqrt(var_im),
        shots=counts.total_shots,
        circuits=counts.offdiagonal,
        executions=counts.string_executions,
    )


def build_effective_hamiltonian(
    hamiltonian: PauliSum,
    basis: SubspaceBasis,
    backend: Backend,
) -> EffectiveHamiltonian:
    """Measure all entries of the projection of ``H`` onto ``basis``.

    ``size`` diagonal entries plus one complex estimate per unordered pair
    fill the upper triangle; the lower triangle is the conjugate transpose
    and a final ``(M + M^dagger)/2`` pass makes Hermiticity exact.  The
    oracle backend takes every entry from one :func:`project` call and keeps
    no per-entry estimates.
    """
    hamiltonian = hamiltonian.real_weights()
    states = basis.states
    size = len(states)
    if not backend.uses_circuits:
        matrix = project(hamiltonian, states)
        # Mirror the upper triangle as the measured path does, so that even
        # the signs of zeros match it.
        lower = np.tril_indices(size, -1)
        matrix[lower] = matrix.T[lower].conj()
        matrix = 0.5 * (matrix + matrix.conj().T)
        return EffectiveHamiltonian(basis, matrix, {}, backend, CircuitCounts())
    calibration = None
    if backend.mitigation:
        calibration = build_calibration(
            backend.noise,
            backend.calibration_shots if backend.calibration_shots is not None else backend.shots,
            backend.seed,
            qubit_count=hamiltonian.qubit_count + 2,
        )
    matrix = np.zeros((size, size), dtype=complex)
    estimates: dict[tuple[int, int], MeasurementEstimate] = {}
    totals = CircuitCounts()
    diagonals: list[MeasurementEstimate] = []
    for i, state in enumerate(states):
        est = measure_diagonal(hamiltonian, state, backend, calibration)
        diagonals.append(est)
        estimates[(i, i)] = est
        matrix[i, i] = est.value.real
        totals.diagonal += est.circuits
        totals.string_executions += est.executions
        totals.total_shots += est.shots
    strings_by_flip = _strings_by_flip(hamiltonian)
    for i in range(size):
        for j in range(i + 1, size):
            est = measure_offdiagonal(
                hamiltonian, states[i], states[j], backend,
                diagonals[i], diagonals[j], calibration, strings_by_flip, totals,
            )
            estimates[(i, j)] = est
            matrix[i, j] = est.value
            matrix[j, i] = est.value.conjugate()
    matrix = 0.5 * (matrix + matrix.conj().T)
    return EffectiveHamiltonian(basis, matrix, estimates, backend, totals)


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

def heff_to_dict(heff: EffectiveHamiltonian) -> dict:
    """JSON-ready description (format ``heffsolve-heff-v2``).

    The basis, the matrix as ``[re, im]`` pairs, the backend and its circuit
    counts; a backend that measures also gets ``entries``, the per-entry
    statistics of the upper triangle.
    """
    payload = {
        "format": "heffsolve-heff-v2",
        "qubit_count": heff.basis.reference.num_qubits,
        "reference": heff.basis.reference.bits,
        "basis": [s.bits for s in heff.basis.states],
        "diagonal_energies": list(heff.basis.diagonal_energies),
        "matrix": np.stack([heff.matrix.real, heff.matrix.imag], -1).tolist(),
        "backend": heff.backend.describe(),
        "circuit_counts": heff.circuit_counts.as_dict(),
    }
    if heff.backend.uses_circuits:
        payload["entries"] = [
            {
                "row": i,
                "col": j,
                "shots": est.shots,
                "stderr_re": est.stderr_re,
                "stderr_im": est.stderr_im,
                "circuits": est.circuits,
            }
            for (i, j), est in sorted(heff.estimates.items())
        ]
    return payload


def heff_matrix_from_dict(payload: dict) -> tuple[list[BasisState], np.ndarray]:
    """Recover (basis states, complex matrix) from the JSON form."""
    states = [BasisState(bits) for bits in payload["basis"]]
    matrix = np.array(
        [[complex(re, im) for re, im in row] for row in payload["matrix"]], dtype=complex
    )
    return states, matrix
