"""Measurement circuits and their simulation.

The circuits built here are the interference circuits that extract matrix
elements ``<n|H|n'>`` between computational basis states: a single-ancilla
version whose ancilla statistics encode the real or imaginary part, and a
two-ancilla variant that reads one Pauli string at a time through controlled
applications.  The register layout is target qubits ``0..N-1``, then the
preparation ancilla at wire ``N`` and, in the two-ancilla variant, the
measurement ancilla at wire ``N + 1``.  Both prepare their two branches
the short way: X gates for ``|n'>``, then one CX from the ancilla per site
where ``n`` and ``n'`` differ, so a direct circuit has ``|n ^ n'|`` CX and
``|n ^ n'| + 2`` layers (one more for the imaginary part), whatever the
particle number.

:func:`run_sparse` is the simulator of every solve: it runs a circuit from
``|0...0>`` on its nonzero amplitudes.  The circuits built here reach at
most 16, and a direct circuit with a :func:`class_basis_change` appended
(one Hadamard) at most 8, so its cost does not depend on the register size.
:func:`sample_outcome_counts` is the one finite-shot sampler: it draws the
shots over the sparse state's entries, then flips the shots on
each read wire through an asymmetric per-qubit readout channel, from a
counter-based Philox generator so every result is reproducible from its
recorded seed.

:func:`run_statevector` is a dense statevector of ``2^wires`` amplitudes.
No solve calls it; it is the reference the tests check the sparse path
against.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from . import spectra
from .pauli import PauliString, sites
from .records import Frozen

__all__ = [
    "Gate",
    "Circuit",
    "ReadoutNoise",
    "build_offdiagonal_circuit",
    "build_indirect_circuit",
    "run_statevector",
    "apply_circuit",
    "run_sparse",
    "class_basis_change",
    "sample_outcome_counts",
]

_SQRT2_INV = 1.0 / math.sqrt(2.0)

_MAT_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_CONTROLLED = {"cx": "x", "cy": "y", "cz": "z"}
_GATE_KINDS = frozenset(_MAT_1Q) - {"y", "z"} | frozenset(_CONTROLLED)


class Gate(NamedTuple):
    """One gate: kind, qubit indices (control first for controlled kinds)."""

    kind: str
    qubits: tuple[int, ...]

    @classmethod
    def h(cls, q: int) -> "Gate":
        return cls("h", (q,))

    @classmethod
    def sdg(cls, q: int) -> "Gate":
        return cls("sdg", (q,))

    @classmethod
    def x(cls, q: int) -> "Gate":
        return cls("x", (q,))

    @classmethod
    def cx(cls, control: int, target: int) -> "Gate":
        return cls("cx", (control, target))

    @property
    def is_controlled(self) -> bool:
        return self.kind in _CONTROLLED

    def matrix_1q(self) -> np.ndarray:
        """The 2x2 matrix applied to the (last) target qubit."""
        return _MAT_1Q[_CONTROLLED.get(self.kind, self.kind)]


class Circuit:
    """An ordered gate list on ``total_qubits`` wires.

    The constructor and :meth:`extend` check each gate they take.
    """

    __slots__ = ("total_qubits", "gates")

    def __init__(self, total_qubits: int, gates: Iterable[Gate] = ()):
        self.total_qubits = total_qubits
        self.gates: list[Gate] = []
        self.extend(gates)

    def extend(self, gates: Iterable[Gate]) -> None:
        gates = list(gates)
        for kind, qubits in gates:
            if kind not in _GATE_KINDS:
                raise ValueError(f"unknown gate kind {kind!r}")
            for q in qubits:
                if not 0 <= q < self.total_qubits:
                    raise ValueError(f"qubit {q} out of range for {self.total_qubits} wires")
            if kind in _CONTROLLED and qubits[0] == qubits[1]:
                raise ValueError("control and target coincide")
        self.gates.extend(gates)


# ---------------------------------------------------------------------------
# Circuit builders
# ---------------------------------------------------------------------------

def _prepare_branches(n: int, nprime: int, anc: int) -> list[Gate]:
    """X gates preparing ``|n'>``, then ``CX(anc -> q)`` for each ``q`` in
    ``n ^ n'``: after a Hadamard on ``anc`` the register holds
    ``(|0>|n'> + |1>|n>)/sqrt(2)``, with ``popcount(n ^ n')`` CX."""
    return [*(Gate.x(q) for q in sites(nprime)), *(Gate.cx(anc, q) for q in sites(n ^ nprime))]


def build_offdiagonal_circuit(n: int, nprime: int, num_qubits: int, part: str) -> Circuit:
    """Single-ancilla interference circuit for the pair of masks ``(n, n')``
    on ``num_qubits`` target qubits.

    The ancilla branch ``|1>`` holds ``|n>`` and branch ``|0>`` holds
    ``|n'>``; the ``imag`` variant inserts an S-dagger on the ancilla before
    the closing Hadamard.  The circuit has ``popcount(n ^ n')`` CX, one X
    per set bit of ``n'`` and two Hadamards (three one-qubit gates on the
    ancilla for ``imag``).  Recovery formulas live in the estimator.
    """
    if part not in ("real", "imag"):
        raise ValueError(f"part must be 'real' or 'imag', got {part!r}")
    if (n | nprime) >> num_qubits:
        raise ValueError(f"basis states exceed the {num_qubits}-qubit register")
    if n == nprime:
        raise ValueError("n == n'; diagonal elements use plain basis preparation")
    anc = num_qubits
    gates = [Gate.h(anc), *_prepare_branches(n, nprime, anc)]
    if part == "imag":
        gates.append(Gate.sdg(anc))
    gates.append(Gate.h(anc))
    return Circuit(num_qubits + 1, gates)


def build_indirect_circuit(
    n: int, nprime: int, num_qubits: int, x_mask: int, z_mask: int, part: str
) -> Circuit:
    """Two-ancilla circuit for the pair of masks ``(n, n')`` on ``num_qubits``
    target qubits, reading the Pauli string of masks ``x_mask``, ``z_mask``
    through controlled gates.

    The preparation ancilla entangles ``|n'>``/``|n>`` as in the direct
    circuit, with ``popcount(n ^ n')`` CX; the measurement ancilla controls
    one single-qubit Pauli per site of the string, ``popcount(x_mask |
    z_mask)`` more two-qubit gates.  Both ancillas are Hadamard-framed and
    read in the Z basis.  Sampled like any other circuit, so reaching
    precision ``eps`` still costs O(1/eps^2) shots; amplitude-estimation-style
    readout is out of scope.
    """
    if part not in ("real", "imag"):
        raise ValueError(f"part must be 'real' or 'imag', got {part!r}")
    if (n | nprime | x_mask | z_mask) >> num_qubits:
        raise ValueError("basis states and string must share one register size")
    if n == nprime:
        raise ValueError("n == n'; diagonal elements use plain basis preparation")
    prep, meas = num_qubits, num_qubits + 1
    gates = [Gate.h(prep), Gate.h(meas), *_prepare_branches(n, nprime, prep)]
    for site in sites(x_mask | z_mask):
        pauli = "ixzy"[x_mask >> site & 1 | (z_mask >> site & 1) << 1]
        gates.append(Gate("c" + pauli, (meas, site)))
    if part == "imag":
        gates.append(Gate.sdg(prep))
    gates += [Gate.h(prep), Gate.h(meas)]
    return Circuit(num_qubits + 2, gates)


def prepare_basis_circuit(n: int, num_qubits: int) -> Circuit:
    """X gates preparing the mask ``|n>`` on a bare ``num_qubits``-qubit
    target register (diagonal entries)."""
    return Circuit(num_qubits, [Gate.x(i) for i in sites(n)])


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
_ENTRIES_1Q = {kind: tuple(tuple(complex(v) for v in row) for row in m) for kind, m in _MAT_1Q.items()}


def run_sparse(circuit: Circuit) -> dict[int, complex]:
    """Simulate from ``|0...0>`` on the nonzero amplitudes only.

    The state maps each basis index (bit ``i`` is qubit ``i``) to its
    amplitude; entries that become exactly zero are dropped.  A gate that
    splits entries in two is refused with :class:`CapacityError` when the
    support could outgrow ``MAX_DENSE_DIMENSION**2`` entries, the size of
    the largest dense matrix the program admits.  The norm is checked as in
    :func:`run_statevector`.
    """
    limit = spectra.MAX_DENSE_DIMENSION ** 2
    state = {0: 1 + 0j}
    for gate in circuit.gates:
        (m00, m01), (m10, m11) = _ENTRIES_1Q[_CONTROLLED.get(gate.kind, gate.kind)]
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


# ---------------------------------------------------------------------------
# Readout noise and finite-shot sampling
# ---------------------------------------------------------------------------

class ReadoutNoise(Frozen):
    """Asymmetric per-qubit readout flip channel.

    ``p01`` is the probability of reading 1 when the true bit is 0, ``p10``
    the reverse; scalars broadcast over all qubits, sequences are indexed by
    wire.  Probabilities must lie in [0, 0.5) so the channel is invertible.
    """

    __slots__ = ("p01", "p10")

    def __init__(self, p01: float | tuple[float, ...] = 0.0, p10: float | tuple[float, ...] = 0.0):
        self._set(p01, p10)
        for name, value in (("p01", p01), ("p10", p10)):
            values = value if isinstance(value, tuple) else (value,)
            for p in values:
                if not 0.0 <= p < 0.5:
                    raise ValueError(f"{name} must be in [0, 0.5), got {p}")

    def for_qubit(self, qubit: int) -> tuple[float, float]:
        p01 = self.p01[qubit] if isinstance(self.p01, tuple) else self.p01
        p10 = self.p10[qubit] if isinstance(self.p10, tuple) else self.p10
        return p01, p10

    def channel_matrix(self, qubit: int) -> np.ndarray:
        """Column-stochastic 2x2 map from true to observed bit distribution."""
        p01, p10 = self.for_qubit(qubit)
        return np.array([[1 - p01, p10], [p01, 1 - p10]])


# The first key of every derive_seed stream: one tag per randomized stage,
# so no two stages share a stream.
TAG_DIAGONAL = 1  # a circuit diagonal's readout
TAG_OFFDIAGONAL = 2  # an off-diagonal readout
TAG_CALIBRATION = 3  # a calibration preparation
TAG_RUN = 4  # the backend seed of one run of a solve
TAG_ANNEALING = 5  # the reference-search annealer


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic 63-bit stream seed for an independent task; ``key``
    starts with one of the ``TAG_*`` stage tags."""
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


def class_basis_change(
    strings: list[tuple[int, int]],
) -> tuple[list[Gate], list[tuple[int, int]]]:
    """Clifford gates ``U`` that make one commuting class Z-diagonal, and the
    image ``U s U^dagger = sign * Z^a`` of each string ``s = (x_mask,
    z_mask)``, in order, as ``(sign, a)``.

    The strings must flip the same sites ``F`` (one ``x_mask``) and hold Y
    counts ``popcount(x_mask & z_mask)`` of one parity; then any two commute,
    since their symplectic product is the parity of the Y sites they differ in.  With the pivot
    ``p`` the lowest site of ``F``, ``CX(p -> q)`` for every other ``q`` in
    ``F`` maps ``X^F`` to ``X_p`` and ``Z_q`` to ``Z_p Z_q``, which leaves
    ``X_p`` (even Y count) or ``X_p Z_p`` (odd) on the pivot; then H, or
    S-dagger and H, turns that into ``Z_p``.  So ``s`` maps to
    ``(-1)**(y_count // 2) Z^(z_mask | p)``, read off the masks.  Strings
    that flip nothing are Z-strings already and need no gates.
    """
    if not strings:
        return [], []
    x_mask = strings[0][0]
    y_counts = [(x & z).bit_count() for x, z in strings]
    if any(x != x_mask for x, _ in strings) or len({y & 1 for y in y_counts}) > 1:
        raise ValueError("the strings must share their X/Y sites and the parity of their Y count")
    pivot = x_mask & -x_mask
    images = [(-1 if y & 2 else 1, z | pivot) for (_, z), y in zip(strings, y_counts)]
    if not x_mask:
        return [], images
    p = pivot.bit_length() - 1
    gates = [Gate.cx(p, q) for q in sites(x_mask ^ pivot)]
    if y_counts[0] & 1:
        gates.append(Gate.sdg(p))
    gates.append(Gate.h(p))
    return gates, images
