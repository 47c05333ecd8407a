"""Second-quantized fermionic Hamiltonians and the Jordan-Wigner map.

A Hamiltonian is a list of terms ``coefficient * a(+)_i a(+)_j ... a_k a_l``
restricted to the particle-conserving one- and two-body class.  Mapping to
qubits goes factor-by-factor through the ladder-operator images

    a_j(+) -> 1/2 (Z_0 ... Z_{j-1}) (X_j -+ i Y_j)

and multiplies the resulting Pauli sums exactly, which carries every
anticommutation sign automatically (no symbolic normal ordering needed).
The occupied convention is ``1`` (see :mod:`heffsolve.pauli`), so the
creation operator takes the ``- i Y`` branch.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .pauli import WEIGHT_TOLERANCE, PauliSum, _flip_amplitudes, multiply_masks
from .records import Frozen

__all__ = [
    "FermionTerm",
    "FermionHamiltonian",
    "jw_ladder",
    "jw_transform",
    "check_particle_conservation",
    "load_fermion_hamiltonian",
    "parse_fermion_hamiltonian",
    "format_fermion_hamiltonian",
]


class FermionTerm(NamedTuple):
    """One product of ladder operators with a coefficient (Hartree).

    ``factors`` is an ordered sequence of ``(mode, dagger)``; the operator is
    read left to right, e.g. ``((1, True), (0, False))`` is ``a+_1 a_0``.
    """

    coefficient: complex
    factors: tuple[tuple[int, bool], ...]

    def conserves_particles(self) -> bool:
        daggers = sum(1 for _, d in self.factors if d)
        return 2 * daggers == len(self.factors)


class FermionHamiltonian(Frozen):
    """Particle-conserving one- and two-body Hamiltonian on ``mode_count`` modes.

    ``constant`` is a scalar shift (e.g. nuclear-nuclear repulsion) carried
    into the identity string by the qubit map.
    """

    __slots__ = ("terms", "mode_count", "constant")

    def __init__(self, terms: tuple[FermionTerm, ...], mode_count: int, constant: float = 0.0):
        self._set(terms, mode_count, constant)
        for term in self.terms:
            if len(term.factors) not in (2, 4):
                raise ValueError(
                    f"term has {len(term.factors)} factors; only one- and two-body terms are supported"
                )
            if not term.conserves_particles():
                raise ValueError(f"term {term.factors} does not conserve particle number")
            for mode, _ in term.factors:
                if not 0 <= mode < self.mode_count:
                    raise ValueError(f"mode {mode} out of range for {self.mode_count} modes")


def jw_ladder(mode: int, dagger: bool, qubit_count: int) -> PauliSum:
    """Jordan-Wigner image of a single ladder operator as a two-term sum.

    Returns ``1/2 (Z...Z X I...I) -+ (i/2) (Z...Z Y I...I)`` with Z on every
    qubit below ``mode``; the creation operator (``dagger=True``) takes the
    minus sign so that ``a+ a`` is the occupation projector ``(I - Z)/2``.
    """
    if not 0 <= mode < qubit_count:
        raise ValueError(f"mode {mode} out of range for {qubit_count} qubits")
    site, tail = 1 << mode, (1 << mode) - 1
    y_weight = -0.5j if dagger else 0.5j
    return PauliSum.from_masks([site, site], [tail, tail | site], [0.5, y_weight], qubit_count)


def jw_transform(hamiltonian: FermionHamiltonian, hermitian_tol: float = 1e-10) -> PauliSum:
    """Map a fermionic Hamiltonian to a Pauli sum via Jordan-Wigner.

    Each term is mapped factor-by-factor and multiplied out exactly on the
    strings' bit masks; duplicate strings merge and near-zero weights are
    pruned after every factor.  The terms accumulate into one sum in order
    of first appearance, dropping after each term the strings it brought to
    ``WEIGHT_TOLERANCE`` or below (one that reappears goes last).  The
    constant becomes the identity-string weight.  For a Hermitian input the
    resulting weights are real; residual imaginary parts above
    ``hermitian_tol`` raise ValueError.
    """
    n = hamiltonian.mode_count
    ladders: dict[tuple[int, bool], list[tuple[complex, int, int]]] = {}
    total: dict[tuple[int, int], complex] = {}
    constant = [(hamiltonian.constant, ())] if hamiltonian.constant else []
    for coefficient, factors in [(t.coefficient, t.factors) for t in hamiltonian.terms] + constant:
        mapped = _pruned({(0, 0): 0 + complex(coefficient)})
        for factor in factors:
            if factor not in ladders:
                ladders[factor] = list(jw_ladder(*factor, n).triples())
            products: dict[tuple[int, int], complex] = {}
            for (xa, za), wa in mapped.items():
                for wb, xb, zb in ladders[factor]:
                    phase, x, z = multiply_masks(xa, za, xb, zb)
                    products[x, z] = products.get((x, z), 0) + wa * wb * phase
            mapped = _pruned(products)
        for key, w in mapped.items():
            total[key] = total.get(key, 0) + w
        for key in mapped:
            if abs(total[key]) <= WEIGHT_TOLERANCE:
                del total[key]
    x, z = [key[0] for key in total], [key[1] for key in total]
    return PauliSum.from_masks(x, z, total.values(), n).real_weights(tol=hermitian_tol)


def _pruned(weights: dict[tuple[int, int], complex]) -> dict[tuple[int, int], complex]:
    return {key: w for key, w in weights.items() if abs(w) > WEIGHT_TOLERANCE}


def check_particle_conservation(
    hamiltonian: PauliSum, trials: int = 50, seed: int = 0, tol: float = 1e-12
) -> bool:
    """Check that ``<m|H|n> = 0`` whenever m and n have different popcounts.

    At each sampled basis state ``n`` (the empty and the full one among
    them), every flip group that changes ``n``'s popcount gives one entry of
    ``H|n>``, summed over the group's strings, so any string that changes the
    particle number and survives cancellation is caught exactly.  Works for
    every qubit count a ``uint64`` occupation mask holds.
    """
    n_qubits = hamiltonian.qubit_count
    rng = np.random.default_rng(seed)
    samples = np.concatenate([
        np.array([0, (1 << n_qubits) - 1], dtype=np.uint64),
        rng.integers(0, 1 << n_qubits, size=trials, dtype=np.uint64),
    ])
    popcounts = np.bitwise_count(samples)
    groups = hamiltonian.groups
    for x_mask, span in groups.spans.items():
        moved = samples[np.bitwise_count(samples ^ np.uint64(x_mask)) != popcounts]
        re_sum, im_sum = _flip_amplitudes(groups, span, moved)
        if np.any(np.hypot(re_sum, 0.0 if im_sum is None else im_sum) > tol):
            return False
    return True


# ---------------------------------------------------------------------------
# Text format:
#   modes 4
#   constant 0.7137
#   0.5 0.0 1^ 0^ 2 3     # <re> <im> then factors, '^' marks creation
# ---------------------------------------------------------------------------

class FermionFormatError(ValueError):
    """Raised on malformed fermion-term text, with a 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _parse_factor(token: str, lineno: int) -> tuple[int, bool]:
    dagger = token.endswith("^")
    body = token[:-1] if dagger else token
    # ASCII only: str.isdigit also takes digits such as '²', which int refuses
    if not (body.isascii() and body.isdigit()):
        raise FermionFormatError(lineno, f"malformed factor token {token!r}")
    return int(body), dagger


def parse_fermion_hamiltonian(text: str | Iterable[str]) -> FermionHamiltonian:
    lines = text.splitlines() if isinstance(text, str) else list(text)
    mode_count: int | None = None
    constant = 0.0
    terms: list[FermionTerm] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "modes":
            if len(fields) != 2 or not (fields[1].isascii() and fields[1].isdigit()):
                raise FermionFormatError(lineno, f"bad header {raw.strip()!r}")
            mode_count = int(fields[1])
            continue
        if fields[0] == "constant":
            try:
                constant = float(fields[1])
            except (IndexError, ValueError):
                raise FermionFormatError(lineno, f"bad constant line {raw.strip()!r}") from None
            if not math.isfinite(constant):
                raise FermionFormatError(lineno, f"non-finite constant in {raw.strip()!r}")
            continue
        if mode_count is None:
            raise FermionFormatError(lineno, "term before 'modes N' header")
        if len(fields) < 3:
            raise FermionFormatError(lineno, f"expected '<re> <im> <factor>...', got {raw.strip()!r}")
        try:
            re_part, im_part = float(fields[0]), float(fields[1])
        except ValueError:
            raise FermionFormatError(lineno, f"bad coefficient in {raw.strip()!r}") from None
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
            raise FermionFormatError(lineno, f"non-finite coefficient in {raw.strip()!r}")
        factors = tuple(_parse_factor(tok, lineno) for tok in fields[2:])
        terms.append(FermionTerm(complex(re_part, im_part), factors))
    if mode_count is None:
        raise FermionFormatError(len(lines) + 1, "missing 'modes N' header")
    try:
        return FermionHamiltonian(tuple(terms), mode_count, constant)
    except ValueError as exc:
        raise FermionFormatError(len(lines) + 1, str(exc)) from None


def format_fermion_hamiltonian(hamiltonian: FermionHamiltonian) -> str:
    lines = [f"modes {hamiltonian.mode_count}"]
    if hamiltonian.constant:
        lines.append(f"constant {hamiltonian.constant:.17g}")
    for term in hamiltonian.terms:
        factors = " ".join(f"{m}^" if d else f"{m}" for m, d in term.factors)
        c = complex(term.coefficient)
        lines.append(f"{c.real:.17g} {c.imag:.17g} {factors}")
    return "\n".join(lines) + "\n"


def load_fermion_hamiltonian(path_or_file: str | TextIO) -> FermionHamiltonian:
    if hasattr(path_or_file, "read"):
        return parse_fermion_hamiltonian(path_or_file.read())
    with open(path_or_file, "r", encoding="utf-8") as fh:
        return parse_fermion_hamiltonian(fh.read())
