"""Assembly of the effective Hamiltonian from measured matrix elements.

Every measured entry is read the same way: a circuit from
:mod:`heffsolve.circuits` plus the observable it reads, a list
``[(coefficient, PauliString)]`` over the circuit's wires whose strings
share one measurement basis.  There are three kinds:

- diagonal ``<n|H|n>``: ``|n>`` prepared, reading ``sum_s w_s s`` over the
  I/Z-only strings;
- direct off-diagonal: one single-ancilla circuit per part (real,
  imaginary), reading ``0.5 (s (x) I) + 0.5 (s (x) Z)`` per string;
- indirect off-diagonal: one two-ancilla circuit per part and string,
  reading ``0.25 (II + ZI + IZ + ZZ)`` on the ancillas.

One routine, :func:`_read`, evaluates them; the backends differ only there.
``exact`` takes the expectations from the sparse state of
:func:`heffsolve.circuits.run_sparse`, at any register size; ``sampled``
draws finite shots from a dense statevector in the shared basis, with
optional readout noise and calibration-matrix mitigation.  ``oracle``
measures nothing: its matrix is :func:`heffsolve.pauli.project` of the basis.

Only strings containing X or Y are ever measured for off-diagonal entries
(I/Z-only strings cannot connect two different basis states), and their own
diagonal elements vanish identically, so the recovery reduces to

    Re <n|H|n'> = 2 m_re            Im <n|H|n'> = -2 m_im      (direct)
    Re <n|h|n'> = 4 m_re - 1        Im <n|h|n'> = 1 - 4 m_im   (indirect, per string)

where ``m`` is the measured expectation of each readout.

A string ``h`` can contribute to ``<n|H|n'>`` only when it flips exactly
``n XOR n'`` (``h.x_mask == n.mask ^ n'.mask``), which is known classically.
Each pair therefore measures only its connecting strings: the others would
give exact zeros (``exact``) or zero-mean shot noise (``sampled``).  The
direct style still counts its two circuits (real and imaginary) for every
pair, so its circuit count stays ``2 C(Ns, 2)``; ``string_executions`` and
shots count only the connecting strings.  For a pair that no string
connects, no circuit is simulated.
"""

from __future__ import annotations

import json
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
    flip_groups,
    project,
)
from .subspace import SubspaceBasis, diagonal_energy

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
    "heff_to_json",
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

    A measuring backend gives a complex ``matrix`` and ``estimates``, the
    statistics of each upper-triangle entry ``(i, j)``.  The ``oracle``
    ``matrix`` is :func:`~heffsolve.pauli.project`'s array, exact and
    float64 unless the Hamiltonian has odd-Y strings, and ``estimates`` is
    empty.
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


def _read(
    readouts: list[tuple[Circuit, list[tuple[float, PauliString]], tuple[int, ...]]],
    backend: Backend,
    calibration: CalibrationMatrix | None,
) -> list[tuple[float, float]]:
    """Mean and variance of each readout ``(circuit, observable, seed key)``.

    The observable ``[(coefficient, string)]`` is over the circuit's wires,
    all of them measured, and its strings share the X/Y sites of the first,
    so one measurement basis reads them all.  Consecutive readouts of one
    circuit object share its simulation.  ``exact`` takes ``sum c <P>`` from
    the sparse state, with variance 0.  ``sampled`` rotates the dense state
    into the shared basis and reduces one histogram, drawn from the seed the
    key derives, over the values ``sum c (-1)**popcount(outcome & support)``.
    """
    results = []
    circuit = state = None
    for readout_circuit, observable, key in readouts:
        if readout_circuit is not circuit:
            circuit = readout_circuit
            state = run_sparse(circuit) if backend.kind == "exact" else run_statevector(circuit)
        if backend.kind == "exact":
            results.append((sum(c * sparse_expectation(state, s) for c, s in observable), 0.0))
            continue
        wires = circuit.total_qubits
        rotations = measurement_rotations(observable[0][1]) if observable else []
        rotated = apply_circuit(state, Circuit(wires, rotations)) if rotations else state
        probs = marginal_probabilities(rotated, wires, circuit.measured)
        values = sum(
            (c * parity_values(wires, s.x_mask | s.z_mask) for c, s in observable),
            np.zeros(probs.shape[0]),
        )
        seed = derive_seed(backend.seed, *key)
        results.append(
            _sampled_estimate(probs, values, backend, seed, circuit.measured, calibration)
        )
    return results


def measure_diagonal(
    hamiltonian: PauliSum,
    n: BasisState,
    backend: Backend,
    calibration: CalibrationMatrix | None = None,
) -> MeasurementEstimate:
    """Estimate ``<n|H|n>``.

    The classical path is :func:`heffsolve.subspace.diagonal_energy`, exact
    with no statistics; :func:`build_effective_hamiltonian` reads the same
    values from its basis instead of calling this.  The circuit path
    prepares ``|n>`` with X gates and reads the observable ``sum_s w_s s``
    over the I/Z-only strings; strings containing X or Y have identically
    zero diagonal elements and are skipped.
    """
    if not backend.measure_diagonals_with_circuits:
        return MeasurementEstimate(complex(diagonal_energy(hamiltonian, n)))
    diagonal_part, _ = classify_terms(hamiltonian)
    observable = [(w.real, s) for w, s in diagonal_part]
    [(mean, var)] = _read(
        [(prepare_basis_circuit(n), observable, (_TAG_DIAGONAL, n.mask))], backend, calibration
    )
    return MeasurementEstimate(
        complex(mean),
        stderr_re=math.sqrt(var),
        shots=backend.shots if backend.kind == "sampled" else 0,
        circuits=1,
        executions=diagonal_part.num_terms,
    )


def measure_offdiagonal(
    hamiltonian: PauliSum,
    n: BasisState,
    nprime: BasisState,
    backend: Backend,
    calibration: CalibrationMatrix | None = None,
    strings_by_flip: dict[int, list[tuple[int, complex, PauliString]]] | None = None,
    totals: CircuitCounts | None = None,
) -> MeasurementEstimate:
    """Estimate the complex element ``<n|H|n'>`` for ``n != n'``.

    Only the off-diagonal strings that flip exactly ``n XOR n'`` are
    measured; each keeps its index in the full off-diagonal list as its seed
    key, so its shot stream does not depend on which other strings exist.
    ``strings_by_flip`` is that grouping, :func:`~heffsolve.pauli.flip_groups`
    of ``hamiltonian``'s off-diagonal part, built here when not given.  Per
    part (real, imaginary) and connecting string ``s`` with weight ``w`` the
    readout ``m_s`` is:

    - direct: ``<0.5 (s (x) I) + 0.5 (s (x) Z)>`` on the part's one
      single-ancilla circuit; ``Re = 2 sum w m_s``, ``Im = -2 sum w m_s``;
    - indirect: ``<0.25 (II + ZI + IZ + ZZ)>`` on the two ancillas of the
      string's own circuit, the probability that both read 0;
      ``Re = sum w (4 m_s - 1)``, ``Im = sum w (1 - 4 m_s)``.

    The standard errors propagate the readout variances alone.  When
    ``totals`` is given, this measurement's circuits, settings and shots
    are added to it.  A backend that measures nothing (``oracle``) is a
    ValueError: its entries come from :func:`~heffsolve.pauli.project`.
    """
    if n == nprime:
        raise ValueError("off-diagonal measurement needs two distinct states")
    if not backend.uses_circuits:
        raise ValueError(f"the {backend.kind} backend measures nothing; use pauli.project")
    if strings_by_flip is None:
        strings_by_flip = flip_groups(classify_terms(hamiltonian)[1])
    connecting = strings_by_flip.get(n.mask ^ nprime.mask, [])
    direct = backend.measurement_style == "direct"
    # the direct style runs one circuit per part, counted even when no string connects
    circuits = 1 if direct else len(connecting)
    counts = CircuitCounts(
        offdiagonal_real=circuits,
        offdiagonal_imag=circuits,
        string_executions=2 * len(connecting),
        total_shots=2 * len(connecting) * backend.shots if backend.kind == "sampled" else 0,
    )
    recovered = []
    for index, (part, sign) in enumerate((("real", 1.0), ("imag", -1.0))):
        if direct:
            circuit = build_offdiagonal_circuit(n, nprime, part) if connecting else None
            readouts = [
                (circuit, [(0.5, PauliString(s.label + "I")), (0.5, PauliString(s.label + "Z"))],
                 (_TAG_OFFDIAGONAL, n.mask, nprime.mask, index, k))
                for k, _, s in connecting
            ]
        else:
            ancillas_zero = [
                (0.25, PauliString("I" * n.num_qubits + a)) for a in ("II", "ZI", "IZ", "ZZ")
            ]
            readouts = [
                (build_indirect_circuit(n, nprime, s, part), ancillas_zero,
                 (_TAG_OFFDIAGONAL, n.mask, nprime.mask, 2 + index, k))
                for k, _, s in connecting
            ]
        total = var = 0.0
        for (_, w, _), (m_s, v_s) in zip(connecting, _read(readouts, backend, calibration)):
            w = w.real
            if direct:
                total += w * m_s
                var += (w ** 2) * v_s
            else:
                total += w * (sign * (4.0 * m_s - 1.0))
                var += (w ** 2) * 16.0 * v_s
        recovered.append((2.0 * sign * total, 4.0 * var) if direct else (total, var))
    (re, var_re), (im, var_im) = recovered
    if totals is not None:
        totals.add(counts)
    return MeasurementEstimate(
        complex(re, im),
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
    and a final ``(M + M^dagger)/2`` pass makes Hermiticity exact.  Classical
    diagonals are ``basis.diagonal_energies``, so ``basis`` must come from
    this Hamiltonian.  The oracle backend's matrix is :func:`project`'s
    array as returned, exactly Hermitian already, with no per-entry
    estimates.
    """
    hamiltonian = hamiltonian.real_weights()
    states = basis.states
    size = len(states)
    if not backend.uses_circuits:
        return EffectiveHamiltonian(
            basis, project(hamiltonian, states), {}, backend, CircuitCounts()
        )
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
    for i, (state, energy) in enumerate(zip(states, basis.diagonal_energies)):
        if backend.measure_diagonals_with_circuits:
            est = measure_diagonal(hamiltonian, state, backend, calibration)
        else:
            est = MeasurementEstimate(complex(energy))
        estimates[(i, i)] = est
        matrix[i, i] = est.value.real
        totals.diagonal += est.circuits
        totals.string_executions += est.executions
        totals.total_shots += est.shots
    strings_by_flip = flip_groups(classify_terms(hamiltonian)[1])
    for i in range(size):
        for j in range(i + 1, size):
            est = measure_offdiagonal(
                hamiltonian, states[i], states[j], backend, calibration, strings_by_flip, totals
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
    """Description of ``heff`` in format ``heffsolve-heff-v2``; write it with
    :func:`heff_to_json`.

    The basis, the matrix (kept as the complex array; written as ``[re, im]``
    pairs), the backend and its circuit counts; a backend that measures also
    gets ``entries``, the per-entry statistics of the upper triangle.
    """
    payload = {
        "format": "heffsolve-heff-v2",
        "qubit_count": heff.basis.reference.num_qubits,
        "reference": heff.basis.reference.bits,
        "basis": [s.bits for s in heff.basis.states],
        "diagonal_energies": list(heff.basis.diagonal_energies),
        "matrix": heff.matrix,
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


def _matrix_json(matrix: np.ndarray) -> str:
    """``json.dumps(np.stack([matrix.real, matrix.imag], -1).tolist())``, at a
    cost that grows with the cells that are not ``+0.0`` in both parts: a
    finite cell prints with ``float.__repr__``, as ``json`` does."""
    rows, cols = matrix.shape
    re, im = matrix.real, matrix.imag
    # -0.0 == 0, so the sign bit tells a signed zero from the constant cell
    kept = (re != 0) | (im != 0) | np.signbit(re) | np.signbit(im)
    zero_cells = ["[0.0, 0.0]"] * cols
    row_cells: dict[int, list[str]] = {}
    values = re[kept], im[kept]
    finite = np.isfinite(values[0]) & np.isfinite(values[1])
    for i, j, x, y, plain in zip(*(a.tolist() for a in (*np.nonzero(kept), *values, finite))):
        cell = f"[{x!r}, {y!r}]" if plain else json.dumps([x, y])
        row_cells.setdefault(i, zero_cells.copy())[j] = cell
    zero_row = "[" + ", ".join(zero_cells) + "]"
    return "[" + ", ".join(
        "[" + ", ".join(row_cells[i]) + "]" if i in row_cells else zero_row for i in range(rows)
    ) + "]"


def heff_to_json(payload: dict) -> str:
    """The text of ``json.dumps(payload, sort_keys=True)`` for a
    :func:`heff_to_dict` payload, with its ``matrix`` array as ``[re, im]``
    pairs."""
    return "{" + ", ".join(
        f"{json.dumps(key)}: "
        + (_matrix_json(value) if key == "matrix" else json.dumps(value, sort_keys=True))
        for key, value in sorted(payload.items())
    ) + "}"


def heff_matrix_from_dict(payload: dict) -> tuple[list[BasisState], np.ndarray]:
    """Recover (basis states, complex matrix) from the JSON form."""
    states = [BasisState(bits) for bits in payload["basis"]]
    pairs = np.array(payload["matrix"], dtype=float).reshape(len(states), len(states), 2)
    matrix = np.empty(pairs.shape[:2], dtype=complex)
    matrix.real = pairs[..., 0]
    matrix.imag = pairs[..., 1]
    return states, matrix
