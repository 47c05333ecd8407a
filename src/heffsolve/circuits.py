"""Measurement circuits and their simulation.

The circuits built here are the interference circuits that extract matrix
elements ``<n|H|n'>`` between computational basis states: a single-ancilla
version whose ancilla statistics encode the real or imaginary part, and a
two-ancilla variant that reads one Pauli string at a time through controlled
applications.  The register layout is target qubits ``0..N-1`` followed by
the ancilla(s) at the highest indices.

:func:`run_sparse` is the simulator of every solve: it keeps only the
nonzero amplitudes.  The circuits built here reach at most 16 of them, and
a direct circuit followed by the basis rotations of a string with ``k``
X/Y sites at most ``2^(2+k)``, so its cost does not depend on the register
size.  :func:`sample_outcome_counts` is the one finite-shot sampler: it
draws the shots over the sparse state's entries, then flips the shots on
each read wire through an asymmetric per-qubit readout channel, from a
counter-based Philox generator so every result is reproducible from its
recorded seed.

:func:`run_statevector` is a dense statevector of ``2^wires`` amplitudes.
No solve calls it; it and :func:`outcome_distribution` are the reference the
tests check the sparse path against.  :func:`apply_per_qubit` applies any
per-qubit 2x2 map (the channel, its inverse or its inverse transpose) to a
dense outcome vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectra
from .pauli import BasisState, PauliOp, PauliString

__all__ = [
    "Gate",
    "Circuit",
    "ReadoutNoise",
    "controlled_prepare",
    "build_offdiagonal_circuit",
    "build_indirect_circuit",
    "prep_ancilla_index",
    "measure_ancilla_index",
    "run_statevector",
    "apply_circuit",
    "run_sparse",
    "sparse_expectation",
    "outcome_distribution",
    "apply_per_qubit",
    "measurement_rotations",
    "sample_outcome_counts",
]

_SQRT2_INV = 1.0 / math.sqrt(2.0)

_MAT_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_CONTROLLED = {"cx": "x", "cy": "y", "cz": "z"}
_GATE_KINDS = frozenset(_MAT_1Q) - {"y", "z"} | frozenset(_CONTROLLED) | {"rx", "ry"}


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: kind, qubit indices (control first for controlled kinds)."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    @classmethod
    def h(cls, q: int) -> "Gate":
        return cls("h", (q,))

    @classmethod
    def s(cls, q: int) -> "Gate":
        return cls("s", (q,))

    @classmethod
    def sdg(cls, q: int) -> "Gate":
        return cls("sdg", (q,))

    @classmethod
    def x(cls, q: int) -> "Gate":
        return cls("x", (q,))

    @classmethod
    def rx(cls, q: int, angle: float) -> "Gate":
        return cls("rx", (q,), angle)

    @classmethod
    def ry(cls, q: int, angle: float) -> "Gate":
        return cls("ry", (q,), angle)

    @classmethod
    def cx(cls, control: int, target: int) -> "Gate":
        return cls("cx", (control, target))

    @classmethod
    def controlled_pauli(cls, control: int, target: int, op: PauliOp) -> "Gate":
        if op is PauliOp.I:
            raise ValueError("controlled identity is a no-op; build the circuit without it")
        return cls("c" + op.value.lower(), (control, target))

    @property
    def is_controlled(self) -> bool:
        return self.kind in _CONTROLLED

    def matrix_1q(self) -> np.ndarray:
        """The 2x2 matrix applied to the (last) target qubit."""
        if self.kind == "rx":
            return _rx(self.angle)
        if self.kind == "ry":
            return _ry(self.angle)
        return _MAT_1Q[_CONTROLLED.get(self.kind, self.kind)]


@dataclass(slots=True)
class Circuit:
    """An ordered gate list on ``total_qubits`` wires.

    ``measured_qubits`` lists the wires read out at the end (ascending,
    default all); sampled bit strings use one character per measured wire.
    """

    total_qubits: int
    gates: list[Gate] = field(default_factory=list)
    measured_qubits: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for gate in self.gates:
            self._check(gate)
        if self.measured_qubits is not None:
            self.measured_qubits = tuple(sorted(self.measured_qubits))
            for q in self.measured_qubits:
                if not 0 <= q < self.total_qubits:
                    raise ValueError(f"measured qubit {q} out of range")

    def _check(self, gate: Gate) -> None:
        if gate.kind not in _GATE_KINDS:
            raise ValueError(f"unknown gate kind {gate.kind!r}")
        for q in gate.qubits:
            if not 0 <= q < self.total_qubits:
                raise ValueError(f"qubit {q} out of range for {self.total_qubits} wires")
        if gate.is_controlled and gate.qubits[0] == gate.qubits[1]:
            raise ValueError("control and target coincide")

    def add(self, gate: Gate) -> None:
        self._check(gate)
        self.gates.append(gate)

    def extend(self, gates) -> None:
        for gate in gates:
            self.add(gate)

    @property
    def measured(self) -> tuple[int, ...]:
        if self.measured_qubits is None:
            return tuple(range(self.total_qubits))
        return self.measured_qubits


# ---------------------------------------------------------------------------
# Circuit builders
# ---------------------------------------------------------------------------

def prep_ancilla_index(num_targets: int) -> int:
    """Wire index of the basis-preparation ancilla."""
    return num_targets


def measure_ancilla_index(num_targets: int) -> int:
    """Wire index of the operator-measurement ancilla (indirect style only)."""
    return num_targets + 1


def controlled_prepare(pattern: BasisState, control: int, control_value: int) -> list[Gate]:
    """Gates that flip the set bits of ``pattern`` when the control reads ``control_value``.

    One controlled-X per set bit; a ``control_value`` of 0 is realized by
    X-conjugating the control wire.
    """
    if control < pattern.num_qubits:
        raise ValueError(f"control {control} collides with the {pattern.num_qubits}-qubit target register")
    if control_value not in (0, 1):
        raise ValueError("control_value must be 0 or 1")
    flips = [Gate.cx(control, i) for i in pattern.occupied()]
    if control_value == 0:
        return [Gate.x(control), *flips, Gate.x(control)]
    return flips


def build_offdiagonal_circuit(n: BasisState, nprime: BasisState, part: str) -> Circuit:
    """Single-ancilla interference circuit for the pair ``(n, n')``.

    The ancilla branch ``|1>`` holds ``|n>`` and branch ``|0>`` holds
    ``|n'>``; the ``imag`` variant inserts an S-dagger on the ancilla before
    the closing Hadamard.  Recovery formulas live in the estimator.
    """
    if part not in ("real", "imag"):
        raise ValueError(f"part must be 'real' or 'imag', got {part!r}")
    if n.num_qubits != nprime.num_qubits:
        raise ValueError("basis states have different lengths")
    if n == nprime:
        raise ValueError("n == n'; diagonal elements use plain basis preparation")
    num = n.num_qubits
    anc = prep_ancilla_index(num)
    circuit = Circuit(num + 1)
    circuit.add(Gate.h(anc))
    circuit.extend(controlled_prepare(nprime, anc, 0))
    circuit.extend(controlled_prepare(n, anc, 1))
    if part == "imag":
        circuit.add(Gate.sdg(anc))
    circuit.add(Gate.h(anc))
    return circuit


def build_indirect_circuit(
    n: BasisState, nprime: BasisState, h: PauliString, part: str
) -> Circuit:
    """Two-ancilla circuit reading one Pauli string through controlled gates.

    The preparation ancilla entangles ``|n'>``/``|n>`` as in the direct
    circuit; the measurement ancilla controls one single-qubit Pauli per
    non-identity site of ``h``.  Both ancillas are Hadamard-framed and read
    in the Z basis.  Sampled like any other circuit, so reaching precision
    ``eps`` still costs O(1/eps^2) shots; amplitude-estimation-style
    readout is out of scope.
    """
    if part not in ("real", "imag"):
        raise ValueError(f"part must be 'real' or 'imag', got {part!r}")
    if n.num_qubits != nprime.num_qubits or h.num_qubits != n.num_qubits:
        raise ValueError("basis states and string must share one register size")
    if n == nprime:
        raise ValueError("n == n'; diagonal elements use plain basis preparation")
    num = n.num_qubits
    prep, meas = prep_ancilla_index(num), measure_ancilla_index(num)
    circuit = Circuit(num + 2)
    circuit.add(Gate.h(prep))
    circuit.add(Gate.h(meas))
    circuit.extend(controlled_prepare(nprime, prep, 0))
    circuit.extend(controlled_prepare(n, prep, 1))
    for site in h.support():
        circuit.add(Gate.controlled_pauli(meas, site, h[site]))
    if part == "imag":
        circuit.add(Gate.sdg(prep))
    circuit.add(Gate.h(prep))
    circuit.add(Gate.h(meas))
    return circuit


def prepare_basis_circuit(n: BasisState) -> Circuit:
    """X gates preparing ``|n>`` on a bare target register (diagonal entries)."""
    circuit = Circuit(n.num_qubits)
    circuit.extend(Gate.x(i) for i in n.occupied())
    return circuit


# ---------------------------------------------------------------------------
# Statevector simulation
# ---------------------------------------------------------------------------

def _apply_1q(state: np.ndarray, matrix: np.ndarray, qubit: int, total: int) -> None:
    view = np.moveaxis(state.reshape([2] * total), total - 1 - qubit, 0)
    block = view.reshape(2, -1)
    view[...] = (matrix @ block).reshape(view.shape)


def _apply_controlled_1q(
    state: np.ndarray, matrix: np.ndarray, control: int, target: int, total: int
) -> None:
    axes = (total - 1 - control, total - 1 - target)
    view = np.moveaxis(state.reshape([2] * total), axes, (0, 1))
    block = view[1].reshape(2, -1)
    view[1] = (matrix @ block).reshape(view[1].shape)


def apply_circuit(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Apply all gates to a copy of ``state`` and return the result."""
    total = circuit.total_qubits
    if state.shape != (1 << total,):
        raise ValueError("state size does not match the circuit register")
    out = np.array(state, dtype=complex, copy=True)
    for gate in circuit.gates:
        if gate.is_controlled:
            _apply_controlled_1q(out, gate.matrix_1q(), gate.qubits[0], gate.qubits[1], total)
        else:
            _apply_1q(out, gate.matrix_1q(), gate.qubits[0], total)
    return out


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Simulate from ``|0...0>``; amplitude index bit ``i`` is qubit ``i``."""
    state = np.zeros(1 << circuit.total_qubits, dtype=complex)
    state[0] = 1.0
    state = apply_circuit(state, circuit)
    norm = np.linalg.norm(state)
    if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
        raise RuntimeError(f"statevector norm drifted to {norm!r}")
    return state


def apply_pauli_to_state(state: np.ndarray, string: PauliString) -> np.ndarray:
    """Dense action of a Pauli string on a statevector (permutation * phase)."""
    dim = state.shape[0]
    if dim != 1 << string.num_qubits:
        raise ValueError("state size does not match the string length")
    idx = np.arange(dim, dtype=np.int64)
    sign = 1.0 - 2.0 * (np.bitwise_count(idx & string.z_mask) & 1)
    phase = (1j ** (string.y_count % 4)) * sign
    out = np.empty_like(state)
    out[idx ^ string.x_mask] = phase * state
    return out


def state_expectation(state: np.ndarray, observable: PauliString) -> float:
    return float(np.vdot(state, apply_pauli_to_state(state, observable)).real)


# ---------------------------------------------------------------------------
# Sparse-state simulation
# ---------------------------------------------------------------------------

# 2x2 gate matrices as Python complex pairs ((m00, m01), (m10, m11)), which
# the per-entry loop below multiplies faster than numpy scalars.
def _entries(matrix: np.ndarray) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    return tuple(tuple(complex(v) for v in row) for row in matrix)


_ENTRIES_1Q = {kind: _entries(m) for kind, m in _MAT_1Q.items()}


def run_sparse(circuit: Circuit, state: dict[int, complex] | None = None) -> dict[int, complex]:
    """Simulate from ``state`` (default ``|0...0>``) on the nonzero amplitudes only.

    The state maps each basis index (bit ``i`` is qubit ``i``) to its
    amplitude; entries that become exactly zero are dropped, and ``state``
    itself is left as it is.  A gate that splits entries in two is refused
    with :class:`CapacityError` when the support could outgrow
    ``MAX_DENSE_DIMENSION**2`` entries, the size of the largest dense matrix
    the program admits.  The norm is checked as in :func:`run_statevector`.
    """
    limit = spectra.MAX_DENSE_DIMENSION ** 2
    if state is None:
        state = {0: 1 + 0j}
    for gate in circuit.gates:
        if gate.angle is None:
            (m00, m01), (m10, m11) = _ENTRIES_1Q[_CONTROLLED.get(gate.kind, gate.kind)]
        else:
            (m00, m01), (m10, m11) = _entries(gate.matrix_1q())
        if (m00 and m10 or m01 and m11) and 2 * len(state) > limit:
            raise spectra.CapacityError(
                f"sparse state of {len(state)} entries could exceed {limit} at gate {gate.kind}"
            )
        control = 1 << gate.qubits[0] if gate.is_controlled else 0
        bit = 1 << gate.qubits[-1]
        out: dict[int, complex] = {}
        for index, amp in state.items():
            if index & control != control:
                out[index] = amp
                continue
            to_zero, to_one = (m01, m11) if index & bit else (m00, m10)
            if to_zero:
                out[index & ~bit] = out.get(index & ~bit, 0) + to_zero * amp
            if to_one:
                out[index | bit] = out.get(index | bit, 0) + to_one * amp
        state = {index: amp for index, amp in out.items() if amp != 0}
    norm = math.sqrt(sum(abs(amp) ** 2 for amp in state.values()))
    if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
        raise RuntimeError(f"statevector norm drifted to {norm!r}")
    return state


def sparse_expectation(state: dict[int, complex], observable: PauliString) -> float:
    """``<psi|P|psi>`` over the stored entries, with the phases of :func:`apply_pauli_to_state`.

    Wires beyond the string's length are read as identity.
    """
    x_mask, z_mask = observable.x_mask, observable.z_mask
    total = 0j
    for index, amp in state.items():
        partner = state.get(index ^ x_mask)
        if partner is not None:
            term = partner.conjugate() * amp
            total += -term if (index & z_mask).bit_count() & 1 else term
    return ((1j ** (observable.y_count % 4)) * total).real


# ---------------------------------------------------------------------------
# Readout noise and finite-shot sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ReadoutNoise:
    """Asymmetric per-qubit readout flip channel.

    ``p01`` is the probability of reading 1 when the true bit is 0, ``p10``
    the reverse; scalars broadcast over all qubits, sequences are indexed by
    wire.  Probabilities must lie in [0, 0.5) so the channel is invertible.
    """

    p01: float | tuple[float, ...] = 0.0
    p10: float | tuple[float, ...] = 0.0

    def __post_init__(self) -> None:
        for name, value in (("p01", self.p01), ("p10", self.p10)):
            values = value if isinstance(value, tuple) else (value,)
            for p in values:
                if not 0.0 <= p < 0.5:
                    raise ValueError(f"{name} must be in [0, 0.5), got {p}")

    def for_qubit(self, qubit: int) -> tuple[float, float]:
        p01 = self.p01[qubit] if isinstance(self.p01, tuple) else self.p01
        p10 = self.p10[qubit] if isinstance(self.p10, tuple) else self.p10
        return p01, p10

    def is_trivial(self, qubits) -> bool:
        return all(self.for_qubit(q) == (0.0, 0.0) for q in qubits)

    def channel_matrix(self, qubit: int) -> np.ndarray:
        """Column-stochastic 2x2 map from true to observed bit distribution."""
        p01, p10 = self.for_qubit(qubit)
        return np.array([[1 - p01, p10], [p01, 1 - p10]])


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic 63-bit stream seed for an independent task."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0] >> np.uint64(1))


def marginal_probabilities(state: np.ndarray, total: int, measured: tuple[int, ...]) -> np.ndarray:
    """Probabilities over measured wires, outcome index bit ``j`` = measured[j]."""
    probs = np.abs(state) ** 2
    measured = tuple(sorted(measured))
    if len(measured) == total:
        return probs
    tensor = probs.reshape([2] * total)
    drop = tuple(total - 1 - q for q in range(total) if q not in measured)
    tensor = tensor.sum(axis=drop)
    # remaining axes are ordered most-significant-first over the kept wires,
    # which matches outcome index bit j <-> measured[j]
    return tensor.reshape(-1)


def apply_per_qubit(vec: np.ndarray, matrices) -> np.ndarray:
    """Apply the 2x2 ``matrices[j]`` to outcome bit ``j`` of ``vec``.

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


def sample_outcome_counts(
    state: dict[int, complex],
    shots: int,
    rng: np.random.Generator,
    noise: ReadoutNoise | None = None,
    wires: tuple[int, ...] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``shots`` outcomes from a :func:`run_sparse` state and read ``wires``.

    Returns ``(bits, counts)``: column ``k`` of the boolean ``bits`` is what
    ``wires`` read in outcome ``k``, and ``counts[k]`` how many shots gave it
    (two columns may hold one outcome).  The shots are drawn multinomially
    over the state's entries, so nothing of size ``2^wires`` is formed.  Each
    read wire then flips through the channel: a binomial draw per column
    moves its flipped shots to a new column.  Flips on other wires leave the
    wire's row as drawn, so this is statistically the same as flipping each
    shot independently.  A trivial channel draws nothing, so it reproduces
    the noiseless stream.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    probs = np.array([abs(amp) ** 2 for amp in state.values()])
    counts = rng.multinomial(shots, probs / probs.sum())
    drawn = np.flatnonzero(counts)
    bits = np.array(
        [[index >> q & 1 for index in state] for q in wires], dtype=bool
    ).reshape(len(wires), len(state))[:, drawn]
    counts = counts[drawn]
    for j, q in enumerate(wires):
        p01, p10 = noise.for_qubit(q) if noise is not None else (0.0, 0.0)
        if p01 == p10 == 0.0:
            continue
        flipped = rng.binomial(counts, np.where(bits[j], p10, p01))
        moved = bits[:, flipped > 0]
        moved[j] ^= True
        bits = np.concatenate([bits, moved], axis=1)
        counts = np.concatenate([counts - flipped, flipped[flipped > 0]])
    return bits[:, counts > 0], counts[counts > 0]


def measurement_rotations(observable: PauliString, offset: int = 0) -> list[Gate]:
    """Basis changes making the observable Z-diagonal: H for X, S-dagger + H for Y."""
    gates: list[Gate] = []
    for i, c in enumerate(observable.label):
        if c == "X":
            gates.append(Gate.h(offset + i))
        elif c == "Y":
            gates.append(Gate.sdg(offset + i))
            gates.append(Gate.h(offset + i))
    return gates


def outcome_distribution(circuit: Circuit, noise: ReadoutNoise | None = None) -> np.ndarray:
    """Exact outcome probabilities over the measured wires, noise applied analytically."""
    state = run_statevector(circuit)
    measured = circuit.measured
    probs = marginal_probabilities(state, circuit.total_qubits, measured)
    if noise is not None:
        probs = apply_noise_to_distribution(probs, noise, measured)
    return probs
