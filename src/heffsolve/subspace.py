"""Selection of the computational-basis subspace.

The subspace anchors on a reference configuration of minimal diagonal energy
(found exhaustively or by simulated annealing), grows it with all
single/double/... excitations up to a chosen order, and keeps the lowest-
energy configurations.  Every candidate shares the reference's particle
number, so the projected Hamiltonian stays inside one symmetry sector.  One
enumerator of ``uint64`` occupation masks gives the sector and the excitations,
and configurations stay masks from there to the readout; bit strings
(:class:`~heffsolve.pauli.BasisState`) are made only for the states files and
messages.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .pauli import BasisState, PauliSum, _flip_amplitudes, _require_equal_length, sites, string_order
from .records import Frozen

__all__ = [
    "ExhaustiveSearch",
    "MonteCarloSearch",
    "SubspaceSpec",
    "SubspaceBasis",
    "diagonal_energy",
    "find_reference",
    "enumerate_excitations",
    "build_subspace",
    "format_states",
    "load_states",
]

class ExhaustiveSearch(NamedTuple):
    """Scan every configuration of the particle sector for the exact argmin."""


class MonteCarloSearch(Frozen):
    """Simulated annealing over occupied/unoccupied swaps.

    Geometric cooling ``T_k = T0 * cooling**k`` with ``0 < cooling <= 1``;
    ``initial_temperature`` is finite and positive, or None: then ``T0`` is
    the diagonal-energy standard deviation over 100 random configurations of
    the sector, or 1 where that is 0.  The best configuration ever visited is
    returned, so the result never exceeds the starting energy.
    """

    __slots__ = ("steps", "seed", "initial_temperature", "cooling")

    def __init__(
        self, steps: int = 2000, seed: int = 0, initial_temperature: float | None = None,
        cooling: float = 0.95,
    ):
        self._set(steps, seed, initial_temperature, cooling)
        if self.steps < 0:
            raise ValueError(f"annealing steps must be nonnegative, got {self.steps}")
        t0 = self.initial_temperature
        if t0 is not None and not (math.isfinite(t0) and t0 > 0.0):
            raise ValueError(f"annealing initial temperature must be finite and positive, got {t0}")
        if not 0.0 < self.cooling <= 1.0:
            raise ValueError(f"annealing cooling factor must lie in (0, 1], got {self.cooling}")

    def _key(self) -> tuple:
        return self.steps, self.seed, self.initial_temperature, self.cooling

    # by value: RunConfig.describe reads the strategy as "mc" when it equals the schedule
    def __eq__(self, other: object) -> bool:
        return type(other) is MonteCarloSearch and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class SubspaceSpec(Frozen):
    """What to select: sector, excitation truncation, size, search strategy.

    ``target_size`` of None keeps every enumerated configuration.
    """

    __slots__ = ("particle_number", "max_excitation_order", "target_size", "search_strategy")

    def __init__(
        self, particle_number: int, max_excitation_order: int, target_size: int | None = None,
        search_strategy: ExhaustiveSearch | MonteCarloSearch = ExhaustiveSearch(),
    ):
        self._set(particle_number, max_excitation_order, target_size, search_strategy)
        if self.max_excitation_order < 0:
            raise ValueError("excitation order must be nonnegative")
        if self.target_size is not None and self.target_size < 1:
            raise ValueError("target size must be at least 1")


class SubspaceBasis(Frozen):
    """An ordered basis of ``qubit_count``-bit occupation masks: the reference
    first, then ascending diagonal energy.

    ``masks`` (``uint64``) and the parallel ``diagonal_energies`` are held as
    read-only arrays.  :attr:`reference` and :attr:`states` build
    :class:`~heffsolve.pauli.BasisState` objects on demand, for files and
    messages.
    """

    __slots__ = ("masks", "diagonal_energies", "qubit_count")

    def __init__(self, masks: np.ndarray, diagonal_energies: np.ndarray, qubit_count: int):
        masks = np.array(masks, dtype=np.uint64)
        energies = np.array(diagonal_energies, dtype=float)
        if not masks.size:
            raise ValueError("a basis holds the reference first, and this one holds no state")
        if energies.shape != masks.shape:
            raise ValueError("energies must parallel the states")
        popcounts = np.bitwise_count(masks)
        if np.any(popcounts != popcounts[0]):
            raise ValueError("basis states span multiple particle sectors")
        ascending = np.sort(masks)
        if np.any(ascending[1:] == ascending[:-1]):
            raise ValueError("duplicate basis states")
        for array in (masks, energies):
            array.flags.writeable = False
        self._set(masks, energies, qubit_count)

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def reference(self) -> BasisState:
        return BasisState.from_mask(int(self.masks[0]), self.qubit_count)

    @property
    def states(self) -> tuple[BasisState, ...]:
        return tuple(BasisState.from_mask(m, self.qubit_count) for m in self.masks.tolist())


def diagonal_energy(hamiltonian: PauliSum, mask: int) -> float:
    """``<n|H|n>`` at the occupation mask ``n``."""
    return float(_diagonal(hamiltonian, np.array([mask], dtype=np.uint64))[0])


def _diagonal(hamiltonian: PauliSum, masks: np.ndarray) -> np.ndarray:
    """``<n|H|n>`` at each ``uint64`` mask: the amplitudes of the flip group of
    the I/Z-only strings, the only strings with a diagonal element."""
    groups = hamiltonian.groups
    return _flip_amplitudes(groups, groups.span(0), masks)[0]


def _subset_masks(bits: Sequence[int], k: int) -> np.ndarray:
    """The ``uint64`` masks that set ``k`` of ``bits``, in ``itertools.combinations``
    order.  Walking the bits from the last, it keeps each size's masks over the
    bits walked (those with the new bit first) while that size can reach ``k``."""
    by_size = {0: np.zeros(1, dtype=np.uint64)}
    none = np.zeros(0, dtype=np.uint64)
    for walked, bit in enumerate(reversed(bits), start=1):
        by_size = {
            j: np.concatenate((by_size.get(j - 1, none) | np.uint64(1 << bit), by_size.get(j, none)))
            for j in range(max(0, k - (len(bits) - walked)), min(k, walked) + 1)
        }
    return by_size.get(k, none)


def _require_sector(num: int, particle_number: int) -> None:
    if not 0 < particle_number < num:
        raise ValueError(f"particle number {particle_number} must be strictly between 0 and {num}")


def find_reference(
    hamiltonian: PauliSum,
    particle_number: int,
    strategy: ExhaustiveSearch | MonteCarloSearch = ExhaustiveSearch(),
) -> int:
    """The occupation mask minimizing the diagonal energy within the particle sector.

    Exhaustive search scores the sector as one ``uint64`` array for the exact
    argmin; Monte Carlo anneals swap proposals and returns the best one visited.
    Ties break toward the lexicographically smallest bit string.
    """
    num = hamiltonian.qubit_count
    _require_sector(num, particle_number)
    if isinstance(strategy, ExhaustiveSearch):
        masks = _subset_masks(range(num), particle_number)
        energies = _diagonal(hamiltonian, masks)
        # masks descend in bit-string order: the last tie is the smallest string
        tied = np.flatnonzero(energies == energies.min())
        return int(masks[tied[-1]])
    return _anneal_reference(hamiltonian, particle_number, strategy)


def _anneal_reference(hamiltonian: PauliSum, particle_number: int, strategy: MonteCarloSearch) -> int:
    num = hamiltonian.qubit_count
    rng = np.random.Generator(np.random.Philox(strategy.seed))
    # Python ints: a shift by a numpy int64 site overflows at bit 63
    occupied = rng.choice(num, size=particle_number, replace=False).tolist()
    unoccupied = [i for i in range(num) if i not in occupied]

    temperature = strategy.initial_temperature
    if temperature is None:
        probe = np.array(
            [sum(1 << q for q in rng.choice(num, size=particle_number, replace=False).tolist())
             for _ in range(100)],
            dtype=np.uint64,
        )
        temperature = float(np.std(_diagonal(hamiltonian, probe))) or 1.0

    def bits(mask: int) -> str:
        return f"{mask:0{num}b}"[::-1]

    best_mask = current_mask = sum(1 << q for q in occupied)
    best = current = diagonal_energy(hamiltonian, current_mask)
    for _ in range(strategy.steps):
        i = int(rng.integers(len(occupied)))
        j = int(rng.integers(len(unoccupied)))
        proposal_mask = current_mask ^ (1 << occupied[i]) ^ (1 << unoccupied[j])
        proposal = diagonal_energy(hamiltonian, proposal_mask)
        delta = proposal - current
        if delta <= 0.0 or (temperature > 0.0 and rng.random() < np.exp(-delta / temperature)):
            occupied[i], unoccupied[j] = unoccupied[j], occupied[i]
            current_mask, current = proposal_mask, proposal
            if (current, bits(current_mask)) < (best, bits(best_mask)):
                best_mask, best = current_mask, current
        temperature *= strategy.cooling
    return best_mask


def enumerate_excitations(reference: int, num_qubits: int, order: int) -> np.ndarray:
    """The ``uint64`` masks moving exactly ``order`` particles off the
    ``num_qubits``-bit ``reference`` mask.

    Exactly ``C(N_F, order) * C(N - N_F, order)`` masks, vacated sets outer and
    filled sets inner; an order exceeding ``min(N_F, N - N_F)`` yields none.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    vacated = reference ^ _subset_masks(sites(reference), order)
    filled = _subset_masks(sites(reference ^ ((1 << num_qubits) - 1)), order)
    return np.bitwise_or.outer(vacated, filled).ravel()


def build_subspace(hamiltonian: PauliSum, spec: SubspaceSpec) -> SubspaceBasis:
    """Select the basis: reference + excitations, truncated to the lowest energies.

    Masks after the reference sort by ascending diagonal energy with a
    lexicographic bit-string tie-break (``-0.0`` ties with ``0.0``); the
    reference is always retained.  A target size beyond the enumerated count
    keeps everything (logged).
    """
    num = hamiltonian.qubit_count
    n_f = spec.particle_number
    _require_sector(num, n_f)
    if spec.max_excitation_order > min(n_f, num - n_f):
        raise ValueError(
            f"excitation order {spec.max_excitation_order} exceeds min(N_F, N - N_F) = {min(n_f, num - n_f)}"
        )
    reference = find_reference(hamiltonian, n_f, spec.search_strategy)
    candidates = np.concatenate(
        [enumerate_excitations(reference, num, order) for order in range(spec.max_excitation_order + 1)]
    )
    energies = _diagonal(hamiltonian, candidates)
    # lexsort's last key is the primary one
    ranked = 1 + np.lexsort((string_order(candidates[1:]), energies[1:]))
    kept = np.concatenate(([0], ranked))
    if spec.target_size is not None:
        if spec.target_size > len(kept):
            import logging  # here, its one use: no solve or import pays for loading it

            logging.getLogger(__name__).warning(
                "target size %d exceeds the %d enumerated configurations; keeping all",
                spec.target_size,
                len(kept),
            )
        kept = kept[: spec.target_size]
    return SubspaceBasis(candidates[kept], energies[kept], num)


# ---------------------------------------------------------------------------
# Text form: one bit string per line, reference first.
# ---------------------------------------------------------------------------

def format_states(states: Sequence[BasisState]) -> str:
    return "\n".join(s.bits for s in states) + "\n"


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
    for state in states:
        _require_equal_length(hamiltonian.qubit_count, state.num_qubits)
    masks = np.array([s.mask for s in states], dtype=np.uint64)
    return SubspaceBasis(masks, _diagonal(hamiltonian, masks), hamiltonian.qubit_count)
