"""Assembly of the effective Hamiltonian from measured matrix elements.

Every measured entry is read the same way: a circuit from
:mod:`heffsolve.circuits` plus the observable it reads, a list
``[(coefficient, x_mask, z_mask)]`` of Pauli strings over the circuit's
wires that form one commuting class: they share their X/Y sites and the
parity of their Y count, so one Clifford basis change
(:func:`heffsolve.circuits.class_basis_change`) makes them all Z-strings
and one histogram reads them all.  Each readout is one measurement
setting: a diagonal ``<n|H|n>`` reads ``sum_s w_s s`` over the I/Z-only
strings on ``|n>``; an off-diagonal entry reads its connecting strings
through single-ancilla (direct) or two-ancilla (indirect) circuits, as
:func:`measure_offdiagonal` sets out.  The ancilla factor of an observable
is a bit of its ``z_mask``, and the strings come from the mask arrays of
the :class:`~heffsolve.pauli.PauliSum` and its flip groups: no label is
built.

One routine, :func:`_estimate`, reads every readout, and the backends
differ only in its last step.  Both circuit backends simulate with
:func:`heffsolve.circuits.run_sparse`, at any register size, rotate the
state by the class's basis change and read the parities of the Z-string
images: ``exact`` weighs each entry by its probability (the infinite-shot
limit), and ``sampled`` draws finite shots over the entries, with optional
readout noise and calibration-matrix mitigation.  ``oracle`` measures
nothing: its matrix is :func:`heffsolve.pauli.project_masks` of the basis
masks.

A string ``h`` can contribute to ``<n|H|n'>`` only when it flips exactly
``n XOR n'``, which is known classically, so each pair measures only its
connecting strings: the others would give exact zeros (``exact``) or
zero-mean shot noise (``sampled``).  A build finds the connected pairs with
:func:`heffsolve.pauli.flip_cells`, the pair finder of the oracle
projection too, and measures only those.  Every other pair, and every
classical diagonal, has its closed form without a call: its value in the
matrix, 0 shots, stderr 0, and for a pair the direct style's two counted
circuits (real and imaginary), so that style's circuit count stays
``2 C(Ns, 2)``.  ``string_executions``, ``settings`` and shots count only
the connecting strings.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from itertools import groupby
from operator import itemgetter, or_
from typing import NamedTuple

import numpy as np

# The dense simulator's names are not called here; they stay bound because
# perfbench/spans.py wraps them, and leave with that tracer.
from .circuits import (
    TAG_CALIBRATION,
    TAG_DIAGONAL,
    TAG_OFFDIAGONAL,
    Circuit,
    ReadoutNoise,
    apply_circuit,
    build_indirect_circuit,
    build_offdiagonal_circuit,
    class_basis_change,
    derive_seed,
    marginal_probabilities,
    prepare_basis_circuit,
    rng_from_seed,
    run_sparse,
    run_statevector,
    sample_outcome_counts,
    state_expectation,
)
from .pauli import BasisState, PauliSum, flip_cells, project_masks, sites
from .records import Frozen
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


class Backend(Frozen):
    """How matrix elements are evaluated.

    ``oracle`` computes them combinatorially; ``exact`` runs the measurement
    circuits on their nonzero amplitudes and reads deterministic
    expectations; ``sampled`` draws ``shots`` per measurement setting (one
    histogram per commuting class of strings read), optionally through a
    readout-noise channel with calibration-matrix mitigation.  Diagonal
    entries default to the classical path even for circuit backends (they
    are classically trivial);
    ``measure_diagonals_with_circuits`` (circuit backends) forces the all-hardware mode.
    """

    __slots__ = ("kind", "shots", "seed", "noise", "mitigation", "measurement_style",
                 "measure_diagonals_with_circuits")

    def __init__(
        self, kind: str = "oracle", shots: int = 8000, seed: int = 0,
        noise: ReadoutNoise | None = None, mitigation: bool = False,
        measurement_style: str = "direct", measure_diagonals_with_circuits: bool = False,
    ):
        self._set(kind, shots, seed, noise, mitigation, measurement_style,
                  measure_diagonals_with_circuits)
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
        }


class MeasurementEstimate(NamedTuple):
    """One estimated matrix element and its statistical pedigree.

    Shots are not kept: each readout is reduced to a mean and variance by
    :func:`_estimate` (variance 0 under ``exact``), and the entry keeps the
    totals of shots, circuits, string executions and measurement settings
    (readouts) with the propagated standard errors.
    """

    value: complex
    stderr_re: float = 0.0
    stderr_im: float = 0.0
    shots: int = 0
    circuits: int = 0
    executions: int = 0
    settings: int = 0


class CalibrationMatrix(Frozen):
    """Per-qubit 2x2 column-stochastic confusion matrices ``A_q``.

    The composite channel is their tensor product and is never formed.  Each
    wire's pull-back map ``(A_q^-1)^T`` is computed once, here, and with it
    ``readout_factors[q] = (A_q^-1)^T (1, -1)``, the factors through which
    :func:`_outcome_values` reads each parity term.
    """

    __slots__ = ("matrices", "pullbacks", "readout_factors")

    def __init__(self, matrices: tuple[np.ndarray, ...]):
        for m in matrices:
            if m.shape != (2, 2):
                raise ValueError("calibration matrices must be 2x2")
            if not np.allclose(m.sum(axis=0), 1.0, rtol=0, atol=1e-9):
                raise ValueError("calibration matrix columns must sum to 1")
            if abs(np.linalg.det(m)) < 1e-9:
                raise ValueError("singular calibration matrix")
        pullbacks = tuple(np.linalg.inv(m).T for m in matrices)
        self._set(matrices, pullbacks, np.array([p @ (1.0, -1.0) for p in pullbacks]))


class CircuitCounts(NamedTuple):
    """Execution accounting for one effective-Hamiltonian build: the sums of
    its :class:`EffectiveHamiltonian` entry arrays, plus the closed form of
    the cells they do not list.

    ``diagonal``/``offdiagonal_*`` count circuits at per-(state) and
    per-(pair, part) granularity (direct style: ``2 C(Ns, 2)`` in all, even
    for pairs no string connects; indirect style: one per (pair, part,
    connecting string)).  ``string_executions`` counts the (string, part)
    terms read within them, one per diagonal string of a circuit diagonal.
    ``settings`` counts the readouts, each one basis change and, under
    ``sampled``, one histogram: one per circuit diagonal, and per connected
    (pair, part) one per commuting class of its connecting strings (direct)
    or one per connecting string (indirect).  ``total_shots`` is
    ``settings`` times the shots per setting.  All cover only the strings
    that connect their pair.
    """

    diagonal: int = 0
    offdiagonal_real: int = 0
    offdiagonal_imag: int = 0
    string_executions: int = 0
    total_shots: int = 0
    settings: int = 0

    @property
    def offdiagonal(self) -> int:
        return self.offdiagonal_real + self.offdiagonal_imag

    def as_dict(self) -> dict:
        return {
            "diagonal": self.diagonal,
            "offdiagonal_real": self.offdiagonal_real,
            "offdiagonal_imag": self.offdiagonal_imag,
            "offdiagonal_total": self.offdiagonal,
            "string_executions": self.string_executions,
            "settings": self.settings,
            "total_shots": self.total_shots,
        }


class EffectiveHamiltonian(NamedTuple):
    """The projected Hamiltonian over a subspace basis, exactly Hermitian.

    A measuring backend gives a complex ``matrix`` and the statistics of
    each upper-triangle cell ``(i, j)``, ``i <= j``, whose circuits the
    build ran, in row-major order: ``entry_cells`` (the ``(i, j)`` rows),
    ``entry_counts`` (int columns shots, circuits, string executions,
    settings) and ``entry_stderrs`` (float columns ``stderr_re``,
    ``stderr_im``).  Those are the circuit diagonals and the connected
    pairs; every other cell has the closed form of the module docstring.
    The ``oracle`` ``matrix`` is :func:`~heffsolve.pauli.project_masks`'s
    array, exact and float64 unless the Hamiltonian has odd-Y strings, and
    the entry arrays have no rows.
    """

    basis: SubspaceBasis
    matrix: np.ndarray
    entry_cells: np.ndarray
    entry_counts: np.ndarray
    entry_stderrs: np.ndarray
    backend: Backend

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def circuit_counts(self) -> CircuitCounts:
        shots, circuits, executions, settings = self.entry_counts.sum(axis=0).tolist()
        # one circuit per measured diagonal; a pair's real and imaginary parts count alike
        diagonal = self.size if self.backend.measure_diagonals_with_circuits else 0
        if self.backend.uses_circuits and self.backend.measurement_style == "direct":
            # the two circuits of each pair that is not listed
            circuits += 2 * (math.comb(self.size, 2) - (len(self.entry_cells) - diagonal))
        part = (circuits - diagonal) // 2
        return CircuitCounts(diagonal, part, part, executions, shots, settings)


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

    For every wire ``q``, ``|0>`` and ``|1>`` are prepared and wire ``q`` is
    read ``shots`` times through the flip channel by
    :func:`~heffsolve.circuits.sample_outcome_counts`; observed frequencies
    fill the columns.  ``shots=None`` returns the exact (infinite-shot)
    matrices.
    """
    if shots is not None and shots <= 0:
        raise ValueError("calibration shots must be positive")
    matrices = []
    for q in range(qubit_count):
        if shots is None:
            matrices.append(noise.channel_matrix(q))
            continue
        columns = []
        for bit in (0, 1):
            rng = rng_from_seed(derive_seed(seed, TAG_CALIBRATION, q, bit))
            bits, counts = sample_outcome_counts({bit << q: 1}, shots, rng, noise, (q,))
            ones = int(counts[bits[0]].sum())
            columns.append(((shots - ones) / shots, ones / shots))
        matrices.append(np.array(columns).T)
    return CalibrationMatrix(tuple(matrices))


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Not implemented: readout mitigation is the linear pull-back of
    :func:`_outcome_values`, and nothing calls this.  The name stays bound
    only because the benchmark's tracer wraps it, and it leaves with that
    tracer."""
    raise NotImplementedError("readout mitigation is the linear pull-back of _outcome_values")


# ---------------------------------------------------------------------------
# Matrix-element measurement
# ---------------------------------------------------------------------------

def _mean_and_variance(counts: np.ndarray, values: np.ndarray, shots: int) -> tuple[float, float]:
    freq = counts / counts.sum()
    mean = float(freq @ values)
    second = float(freq @ (values * values))
    return mean, max(second - mean * mean, 0.0) / shots


def _outcome_values(
    bits: np.ndarray,
    observable: list[tuple[float, int]],
    wires: list[int],
    calibration: CalibrationMatrix | None,
) -> np.ndarray:
    """``sum c (-1)**parity`` of each outcome, or its calibration pull-back.

    The observable is ``[(c, z_mask)]`` over Z-strings.  Row ``j`` of
    ``bits`` is wire ``wires[j]`` (ascending), which holds the support of
    every string.  Each wire reads a factor ``g_q[bit]``: ``(1, -1)`` raw, and
    ``g_q = (A_q^-1)^T (1, -1)`` under mitigation.  A column-stochastic
    ``A_q`` has ``(A_q^-1)^T (1, 1) = (1, 1)``, so a wire outside a string's
    support contributes a factor of 1, and each term's pull-back is the
    product of its support's factors; no ``2^wires`` vector is formed.

    Every string is read at once: its products accumulate over the wires in
    ascending order, a wire off its support giving exactly 1.0, and the
    strings then accumulate in term order from ``+0.0``.
    """
    factors = np.where(bits, -1.0, 1.0)
    if calibration is not None:
        g = calibration.readout_factors[wires].reshape(-1, 2)
        factors = np.where(bits, g[:, 1:], g[:, :1])
    # the z masks may pass bit 63 (an ancilla), so they unpack from bytes, not uint64
    width = wires[-1] // 8 + 1 if wires else 1
    packed = np.frombuffer(b"".join(z.to_bytes(width, "little") for _, z in observable), dtype=np.uint8)
    support = np.unpackbits(packed.reshape(-1, width), axis=1, bitorder="little")[:, wires].view(bool)
    chains = np.ones((len(observable), 1 + len(wires), bits.shape[1]))
    chains[:, 0] = np.array([c for c, _ in observable], dtype=float)[:, None]
    np.copyto(chains[:, 1:], factors, where=support[:, :, None])
    terms = np.concatenate((np.zeros((1, bits.shape[1])), np.multiply.accumulate(chains, axis=1)[:, -1]))
    return np.add.accumulate(terms, axis=0)[-1]


def _estimate(
    state: dict[int, complex],
    observable: list[tuple[float, int, int]],
    backend: Backend,
    seed: int | None,
    calibration: CalibrationMatrix | None,
    total_qubits: int,
) -> tuple[float, float]:
    """Read one readout of a :func:`run_sparse` state on ``total_qubits``
    wires: its mean, and the variance of that mean.

    The state is rotated by the observable's :func:`class_basis_change`,
    and each string is read as the sign times the parity of its Z-string
    image.  ``exact`` returns the infinite-shot mean, ``sum c sign sum
    (-1)**parity |amp|^2`` over the rotated entries, with variance 0.
    ``sampled`` draws ``backend.shots`` from the rotated state with
    ``seed``, reading only the wires the images touch.  This is the one
    readout-mitigation estimator: under mitigation the values are pulled
    back through the calibration inverse and both moments come from the raw
    shots, so the mean is unbiased for the noiseless expectation, and the
    variance carries the amplification of inverting the channel.  The mean
    is linear, so it is not clipped to the values' physical range.
    """
    if backend.mitigation and calibration is None:
        raise ValueError("mitigation requested but no calibration supplied")
    gates, images = class_basis_change([(x, z) for _, x, z in observable])
    if gates:
        state = run_sparse(Circuit(total_qubits, gates), state)
    images = [(c * sign, z) for (c, _, _), (sign, z) in zip(observable, images)]
    if backend.kind == "exact":
        probs = [(index, abs(amp) ** 2) for index, amp in state.items()]
        return sum(
            c * sum(-p if (index & z).bit_count() & 1 else p for index, p in probs) for c, z in images
        ), 0.0
    wires = sites(reduce(or_, (z for _, z in images), 0))
    rng = rng_from_seed(seed)
    bits, counts = sample_outcome_counts(state, backend.shots, rng, backend.noise, tuple(wires))
    values = _outcome_values(bits, images, wires, calibration if backend.mitigation else None)
    return _mean_and_variance(counts, values, backend.shots)


def _read(
    readouts: list[tuple[Circuit, list[tuple[float, int, int]], tuple[int, ...]]],
    backend: Backend,
    calibration: CalibrationMatrix | None,
) -> list[tuple[float, float]]:
    """Mean and variance of each readout ``(circuit, observable, seed key)``.

    The observable ``[(coefficient, x_mask, z_mask)]`` over the circuit's
    wires, all of them measured, is one commuting class.  Every circuit runs
    on :func:`run_sparse`, consecutive readouts of one circuit object share
    its simulation, and :func:`_estimate` reads each one; under ``sampled``
    with the seed the key derives.
    """
    results = []
    circuit = state = None
    for readout_circuit, observable, key in readouts:
        if readout_circuit is not circuit:
            circuit = readout_circuit
            state = run_sparse(circuit)
        seed = derive_seed(backend.seed, *key) if backend.kind == "sampled" else None
        results.append(_estimate(state, observable, backend, seed, calibration, circuit.total_qubits))
    return results


def measure_diagonal(
    hamiltonian: PauliSum,
    n: int,
    backend: Backend,
    calibration: CalibrationMatrix | None = None,
) -> MeasurementEstimate:
    """Estimate ``<n|H|n>`` at the occupation mask ``n`` on the Hamiltonian's
    ``qubit_count`` qubits.

    The classical path is :func:`heffsolve.subspace.diagonal_energy`, exact
    with no statistics; :func:`build_effective_hamiltonian` reads the same
    values from its basis instead of calling this.  The circuit path
    prepares ``|n>`` with X gates and reads ``sum_s w_s s`` over the I/Z-only
    strings (``x_mask`` 0), in term order: no other string has a diagonal
    element.
    """
    if not backend.measure_diagonals_with_circuits:
        return MeasurementEstimate(complex(diagonal_energy(hamiltonian, n)))
    diagonal = hamiltonian.x == 0
    weights, z_masks = hamiltonian.w.real[diagonal].tolist(), hamiltonian.z[diagonal].tolist()
    observable = [(w, 0, z) for w, z in zip(weights, z_masks)]
    circuit = prepare_basis_circuit(n, hamiltonian.qubit_count)
    [(mean, var)] = _read([(circuit, observable, (TAG_DIAGONAL, n))], backend, calibration)
    return MeasurementEstimate(
        complex(mean),
        stderr_re=math.sqrt(var),
        shots=backend.shots if backend.kind == "sampled" else 0,
        circuits=1,
        executions=len(observable),
        settings=1,
    )


def measure_offdiagonal(
    hamiltonian: PauliSum,
    n: int,
    nprime: int,
    backend: Backend,
    calibration: CalibrationMatrix | None = None,
) -> MeasurementEstimate:
    """Estimate the complex element ``<n|H|n'>`` for occupation masks
    ``n != n'`` on the Hamiltonian's ``qubit_count`` qubits.

    Only the strings that flip exactly ``n XOR n'``, the flip group of that
    ``x_mask`` in ``hamiltonian.groups``, are measured; their own diagonal
    elements vanish, which the recovery below uses.  Per part (real,
    imaginary) there is one readout per measurement setting, and the
    settings are:

    - direct: one per commuting class of the connecting strings, those of
      even and those of odd Y count (at most two; one for real-weight
      fermionic inputs), in the order each first appears.  The class is
      read from one histogram of the part's one single-ancilla circuit, as
      ``m = <sum_s 0.5 w_s (s (x) I) + 0.5 w_s (s (x) Z)>``;
      ``Re = 2 sum m``, ``Im = -2 sum m`` over the classes;
    - indirect: one per connecting string ``s`` with weight ``w``,
      ``m_s = <0.25 (II + ZI + IZ + ZZ)>`` on the two ancillas of the
      string's own circuit, the probability that both read 0;
      ``Re = sum w (4 m_s - 1)``, ``Im = sum w (1 - 4 m_s)``.

    A setting's seed key holds the index of its first string among the
    off-diagonal terms of the sum, so its shot stream does not depend on
    which other strings exist.  The standard errors propagate the readout
    variances alone.  The direct style counts its two circuits even when no
    string connects the pair.  A backend that measures nothing (``oracle``)
    is a ValueError: its entries come from :func:`~heffsolve.pauli.project_masks`.
    """
    if n == nprime:
        raise ValueError("off-diagonal measurement needs two distinct states")
    if not backend.uses_circuits:
        raise ValueError(f"the {backend.kind} backend measures nothing; use pauli.project_masks")
    groups = hamiltonian.groups
    num = hamiltonian.qubit_count
    x_mask = n ^ nprime
    span = groups.span(x_mask)
    members = groups.index[span]
    # a term's index among the off-diagonal terms: the diagonal ones before it drop out
    ranks = members - np.searchsorted(groups.index[groups.span(0)], members)
    weights, z_masks = hamiltonian.w.real[members].tolist(), groups.z[span].tolist()
    direct = backend.measurement_style == "direct"
    # the (rank, weight, z_mask) of each setting's strings: a commuting class (direct) or one string
    settings: dict[int, list[tuple[int, float, int]]] = {}
    for k, w, z, odd in zip(ranks.tolist(), weights, z_masks, groups.odd[span].tolist()):
        settings.setdefault(odd if direct else k, []).append((k, w, z))
    prep, meas = 1 << num, 2 << num  # the z-mask bits of the two ancillas
    recovered = []
    for index, (part, sign) in enumerate((("real", 1.0), ("imag", -1.0))):
        if direct:
            circuit = build_offdiagonal_circuit(n, nprime, num, part) if settings else None
            readouts = [
                (circuit, [(0.5 * w, x_mask, z | a) for _, w, z in terms for a in (0, prep)],
                 (TAG_OFFDIAGONAL, n, nprime, index, terms[0][0]))
                for terms in settings.values()
            ]
        else:
            readouts = [
                (build_indirect_circuit(n, nprime, num, x_mask, z, part),
                 [(0.25, 0, a) for a in (0, prep, meas, prep | meas)],  # II, ZI, IZ, ZZ
                 (TAG_OFFDIAGONAL, n, nprime, 2 + index, k))
                for [(k, _, z)] in settings.values()
            ]
        total = var = 0.0
        for terms, (m, v) in zip(settings.values(), _read(readouts, backend, calibration)):
            if direct:
                total += m
                var += v
            else:
                w = terms[0][1]
                total += w * (sign * (4.0 * m - 1.0))
                var += (w ** 2) * 16.0 * v
        recovered.append((2.0 * sign * total, 4.0 * var) if direct else (total, var))
    (re, var_re), (im, var_im) = recovered
    executions = 2 * len(z_masks)
    return MeasurementEstimate(
        complex(re, im),
        stderr_re=math.sqrt(var_re),
        stderr_im=math.sqrt(var_im),
        shots=2 * len(settings) * backend.shots if backend.kind == "sampled" else 0,
        circuits=2 if direct else executions,
        executions=executions,
        settings=2 * len(settings),
    )


def build_effective_hamiltonian(
    hamiltonian: PauliSum,
    basis: SubspaceBasis,
    backend: Backend,
) -> EffectiveHamiltonian:
    """Measure all entries of the projection of ``H`` onto ``basis``.

    The ``size`` diagonal entries are measured (or read classically), and
    :func:`measure_offdiagonal` runs once for each pair ``i < j`` that
    :func:`~heffsolve.pauli.flip_cells` finds connected.  Only the measured
    cells get entry rows; every other cell has its closed form (value 0 off
    the diagonal, 0 shots, stderr 0).  The lower triangle is the conjugate
    transpose and a final ``(M + M^dagger)/2`` pass makes Hermiticity
    exact.  Classical diagonals are ``basis.diagonal_energies``, so
    ``basis`` must come from this Hamiltonian.  The oracle backend's matrix
    is :func:`project_masks`'s array as returned, exactly Hermitian already,
    with empty entry arrays.
    """
    hamiltonian = hamiltonian.real_weights()
    size = basis.size
    if not backend.uses_circuits:
        return EffectiveHamiltonian(
            basis, project_masks(hamiltonian, basis.masks), np.zeros((0, 2), dtype=np.int64),
            np.zeros((0, 4), dtype=np.int64), np.zeros((0, 2)), backend,
        )
    calibration = None
    if backend.mitigation:
        calibration = build_calibration(
            backend.noise, backend.shots, backend.seed, qubit_count=hamiltonian.qubit_count + 2
        )
    matrix = np.zeros((size, size), dtype=complex)
    measured = []  # (i, j, estimate) of each cell whose circuits ran
    masks = basis.masks.tolist()
    if backend.measure_diagonals_with_circuits:
        for i, mask in enumerate(masks):
            est = measure_diagonal(hamiltonian, mask, backend, calibration)
            measured.append((i, i, est))
            matrix[i, i] = est.value.real
    else:
        np.fill_diagonal(matrix, basis.diagonal_energies)
    for _, rows, cols in flip_cells(hamiltonian.groups, basis.masks):
        upper = rows < cols
        for i, j in zip(rows[upper].tolist(), cols[upper].tolist()):
            est = measure_offdiagonal(hamiltonian, masks[i], masks[j], backend, calibration)
            measured.append((i, j, est))
            matrix[i, j] = est.value
            matrix[j, i] = est.value.conjugate()
    matrix = 0.5 * (matrix + matrix.conj().T)
    measured.sort(key=lambda cell: cell[:2])  # row-major; flip_cells gives them by flip group
    return EffectiveHamiltonian(
        basis,
        matrix,
        np.array([(i, j) for i, j, _ in measured], dtype=np.int64).reshape(-1, 2),
        np.array([(e.shots, e.circuits, e.executions, e.settings) for *_, e in measured],
                 dtype=np.int64).reshape(-1, 4),
        np.array([(e.stderr_re, e.stderr_im) for *_, e in measured], dtype=float).reshape(-1, 2),
        backend,
    )


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

def heff_to_dict(heff: EffectiveHamiltonian) -> dict:
    """Description of ``heff`` in format ``heffsolve-heff-v3``; write it with
    :func:`heff_to_json`.

    The basis, the matrix (kept as the complex array; written as ``[re, im]``
    pairs), the backend and its circuit counts; a backend that measures also
    gets ``entries``, one record per listed cell of its entry arrays, in
    their row-major order.
    """
    bits = heff.basis.bits
    payload = {
        "format": "heffsolve-heff-v3",
        "qubit_count": heff.basis.qubit_count,
        "reference": bits[0],
        "basis": bits,
        "diagonal_energies": heff.basis.diagonal_energies.tolist(),
        "matrix": heff.matrix,
        "backend": heff.backend.describe(),
        "circuit_counts": heff.circuit_counts.as_dict(),
    }
    if heff.backend.uses_circuits:
        payload["entries"] = [
            {"row": i, "col": j, "shots": shots, "circuits": circuits,
             "stderr_re": stderr_re, "stderr_im": stderr_im}
            for (i, j), (shots, circuits, _, _), (stderr_re, stderr_im) in zip(
                heff.entry_cells.tolist(), heff.entry_counts.tolist(), heff.entry_stderrs.tolist()
            )
        ]
    return payload


def _matrix_json(matrix: np.ndarray) -> str:
    """``json.dumps(np.stack([matrix.real, matrix.imag], -1).tolist())``, at a
    cost that grows with the rows and the cells that are not ``+0.0`` in both
    parts: a finite cell prints with ``float.__repr__``, as ``json`` does."""
    rows, cols = matrix.shape
    re, im = matrix.real, matrix.imag
    # -0.0 == 0, so the sign bit tells a signed zero from the constant cell
    kept = (re != 0) | (im != 0) | np.signbit(re) | np.signbit(im)
    # ", " then k constant cells, each with its separator, is run[:2 + 12 * k]
    run = ", " + "[0.0, 0.0], " * cols
    texts = ["[" + run[2:12 * cols] + "]"] * rows
    values = re[kept], im[kept]
    finite = np.isfinite(values[0]) & np.isfinite(values[1])
    cells = zip(*(a.tolist() for a in (*np.nonzero(kept), *values, finite)))
    for i, row in groupby(cells, key=itemgetter(0)):
        parts, last = ["["], -1
        for _, j, x, y, plain in row:
            # the constant cells after the last kept one; a separator leads unless it opens the row
            parts.append(run[2:2 + 12 * j] if last < 0 else run[:2 + 12 * (j - last - 1)])
            parts.append(f"[{x!r}, {y!r}]" if plain else json.dumps([x, y]))
            last = j
        parts.append(run[:12 * (cols - 1 - last)] + "]")
        texts[i] = "".join(parts)
    return "[" + ", ".join(texts) + "]"


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
