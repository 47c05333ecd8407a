"""Selection of the computational-basis subspace.

The subspace anchors on a reference configuration of minimal diagonal energy
(found exhaustively or by simulated annealing), grows it with all
single/double/... excitations up to a chosen order, and keeps the lowest-
energy configurations.  Every candidate shares the reference's particle
number, so the projected Hamiltonian stays inside one symmetry sector.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .pauli import BasisState, PauliSum, _flip_amplitudes, flip_groups

__all__ = [
    "ExhaustiveSearch",
    "MonteCarloSearch",
    "SubspaceSpec",
    "SubspaceBasis",
    "diagonal_energy",
    "find_reference",
    "enumerate_excitations",
    "build_subspace",
    "save_states",
    "load_states",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class ExhaustiveSearch:
    """Scan every configuration of the particle sector for the exact argmin."""


@dataclass(frozen=True, slots=True)
class MonteCarloSearch:
    """Simulated annealing over occupied/unoccupied swaps.

    Geometric cooling ``T_k = T0 * cooling**k`` with ``0 < cooling <= 1``;
    ``initial_temperature`` is finite and positive, or None: then ``T0`` is
    the diagonal-energy standard deviation over 100 random configurations of
    the sector, or 1 where that is 0.  The best configuration ever visited is
    returned, so the result never exceeds the starting energy.
    """

    steps: int = 2000
    seed: int = 0
    initial_temperature: float | None = None
    cooling: float = 0.95

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError(f"annealing steps must be nonnegative, got {self.steps}")
        t0 = self.initial_temperature
        if t0 is not None and not (math.isfinite(t0) and t0 > 0.0):
            raise ValueError(f"annealing initial temperature must be finite and positive, got {t0}")
        if not 0.0 < self.cooling <= 1.0:
            raise ValueError(f"annealing cooling factor must lie in (0, 1], got {self.cooling}")


@dataclass(frozen=True, slots=True)
class SubspaceSpec:
    """What to select: sector, excitation truncation, size, search strategy.

    ``target_size`` of None keeps every enumerated configuration.
    """

    particle_number: int
    max_excitation_order: int
    target_size: int | None = None
    search_strategy: ExhaustiveSearch | MonteCarloSearch = ExhaustiveSearch()

    def __post_init__(self) -> None:
        if self.max_excitation_order < 0:
            raise ValueError("excitation order must be nonnegative")
        if self.target_size is not None and self.target_size < 1:
            raise ValueError("target size must be at least 1")


@dataclass(frozen=True, slots=True)
class SubspaceBasis:
    """An ordered basis: the reference first, then ascending diagonal energy."""

    reference: BasisState
    states: tuple[BasisState, ...]
    diagonal_energies: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.states or self.states[0] != self.reference:
            raise ValueError("the reference must be the first basis state")
        if len(self.states) != len(self.diagonal_energies):
            raise ValueError("energies must parallel the states")
        popcounts = {s.particle_number for s in self.states}
        if len(popcounts) > 1:
            raise ValueError("basis states span multiple particle sectors")
        if len(set(s.bits for s in self.states)) != len(self.states):
            raise ValueError("duplicate basis states")

    @property
    def size(self) -> int:
        return len(self.states)


def diagonal_energy(hamiltonian: PauliSum, state: BasisState) -> float:
    return _diagonal_energies(hamiltonian, [state])[0]


def _diagonal_energies(hamiltonian: PauliSum, states: Sequence[BasisState]) -> list[float]:
    masks = np.fromiter((s.mask for s in states), dtype=np.uint64, count=len(states))
    return _flip_amplitudes(_diagonal_group(hamiltonian), masks)[0].tolist()


def _diagonal_group(hamiltonian: PauliSum) -> list:
    """The flip group of the I/Z-only strings, whose amplitude at a mask
    ``n`` is ``<n|H|n>``; no other string has a diagonal element."""
    return flip_groups(hamiltonian).get(0, [])


def _sector_masks(num_qubits: int, particle_number: int) -> Iterable[int]:
    for occupied in itertools.combinations(range(num_qubits), particle_number):
        yield sum(1 << i for i in occupied)


def find_reference(
    hamiltonian: PauliSum,
    particle_number: int,
    strategy: ExhaustiveSearch | MonteCarloSearch = ExhaustiveSearch(),
) -> BasisState:
    """Configuration minimizing the diagonal energy within the particle sector.

    Exhaustive search returns the exact argmin; Monte Carlo anneals swap
    proposals and returns the best configuration visited.  Ties break toward
    the lexicographically smallest bit string.
    """
    num = hamiltonian.qubit_count
    if not 0 < particle_number < num:
        raise ValueError(f"particle number {particle_number} must be strictly between 0 and {num}")
    if isinstance(strategy, ExhaustiveSearch):
        masks = np.fromiter(_sector_masks(num, particle_number), dtype=np.uint64)
        energies = _flip_amplitudes(_diagonal_group(hamiltonian), masks)[0]
        tied = masks[energies == energies.min()]
        return min((BasisState.from_mask(int(m), num) for m in tied), key=lambda s: s.bits)
    return _anneal_reference(hamiltonian, particle_number, strategy)


def _anneal_reference(
    hamiltonian: PauliSum, particle_number: int, strategy: MonteCarloSearch
) -> BasisState:
    num = hamiltonian.qubit_count
    diagonal = _diagonal_group(hamiltonian)
    rng = np.random.Generator(np.random.Philox(strategy.seed))
    occupied = list(rng.choice(num, size=particle_number, replace=False))
    unoccupied = [i for i in range(num) if i not in occupied]

    def mask_of(occ: Sequence[int]) -> int:
        return sum(1 << i for i in occ)

    def energy(mask: int) -> float:
        return float(_flip_amplitudes(diagonal, np.array([mask], dtype=np.uint64))[0][0])

    temperature = strategy.initial_temperature
    if temperature is None:
        probe = np.empty(100, dtype=np.uint64)
        for k in range(100):
            probe[k] = mask_of(rng.choice(num, size=particle_number, replace=False))
        temperature = float(np.std(_flip_amplitudes(diagonal, probe)[0])) or 1.0

    current_mask = mask_of(occupied)
    current = energy(current_mask)
    best_state, best = BasisState.from_mask(current_mask, num), current
    for _ in range(strategy.steps):
        i = int(rng.integers(len(occupied)))
        j = int(rng.integers(len(unoccupied)))
        proposal_mask = current_mask ^ (1 << occupied[i]) ^ (1 << unoccupied[j])
        proposal = energy(proposal_mask)
        delta = proposal - current
        if delta <= 0.0 or (temperature > 0.0 and rng.random() < np.exp(-delta / temperature)):
            occupied[i], unoccupied[j] = unoccupied[j], occupied[i]
            current_mask, current = proposal_mask, proposal
            state = BasisState.from_mask(current_mask, num)
            if (current, state.bits) < (best, best_state.bits):
                best_state, best = state, current
        temperature *= strategy.cooling
    return best_state


def enumerate_excitations(reference: BasisState, order: int) -> list[BasisState]:
    """All configurations moving exactly ``order`` particles off the reference.

    Exactly ``C(N_F, order) * C(N - N_F, order)`` states; an order exceeding
    ``min(N_F, N - N_F)`` yields an empty list.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order == 0:
        return [reference]
    occupied = reference.occupied()
    unoccupied = reference.unoccupied()
    if order > min(len(occupied), len(unoccupied)):
        return []
    states = []
    for vacate in itertools.combinations(occupied, order):
        removed = reference.mask ^ sum(1 << i for i in vacate)
        for fill in itertools.combinations(unoccupied, order):
            states.append(BasisState.from_mask(removed | sum(1 << i for i in fill), reference.num_qubits))
    return states


def build_subspace(hamiltonian: PauliSum, spec: SubspaceSpec) -> SubspaceBasis:
    """Select the basis: reference + excitations, truncated to the lowest energies.

    States after the reference sort by ascending diagonal energy with a
    lexicographic bit-string tie-break; the reference is always retained.
    A target size beyond the enumerated count keeps everything (logged).
    """
    num = hamiltonian.qubit_count
    n_f = spec.particle_number
    if spec.max_excitation_order > min(n_f, num - n_f):
        raise ValueError(
            f"excitation order {spec.max_excitation_order} exceeds min(N_F, N - N_F) = {min(n_f, num - n_f)}"
        )
    reference = find_reference(hamiltonian, n_f, spec.search_strategy)
    candidates: list[BasisState] = []
    for order in range(spec.max_excitation_order + 1):
        candidates.extend(enumerate_excitations(reference, order))
    energies = _diagonal_energies(hamiltonian, candidates)
    order_keys = sorted(
        range(1, len(candidates)),
        key=lambda k: (energies[k], candidates[k].bits),
    )
    ordered = [0, *order_keys]
    if spec.target_size is not None:
        if spec.target_size > len(ordered):
            logger.warning(
                "target size %d exceeds the %d enumerated configurations; keeping all",
                spec.target_size,
                len(ordered),
            )
        ordered = ordered[: spec.target_size]
    return SubspaceBasis(
        reference,
        tuple(candidates[k] for k in ordered),
        tuple(energies[k] for k in ordered),
    )


# ---------------------------------------------------------------------------
# Text form: one bit string per line, reference first.
# ---------------------------------------------------------------------------

def save_states(states: Sequence[BasisState], path_or_file: str | TextIO) -> None:
    text = "\n".join(s.bits for s in states) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
        return
    with open(path_or_file, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_states(path_or_file: str | TextIO) -> list[BasisState]:
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    states = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            states.append(BasisState(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    lengths = {s.num_qubits for s in states}
    if len(lengths) > 1:
        raise ValueError("bit strings have inconsistent lengths")
    return states


def basis_from_states(hamiltonian: PauliSum, states: Sequence[BasisState]) -> SubspaceBasis:
    """Rebuild a SubspaceBasis (reference = first line) with fresh energies."""
    return SubspaceBasis(states[0], tuple(states), tuple(_diagonal_energies(hamiltonian, states)))
