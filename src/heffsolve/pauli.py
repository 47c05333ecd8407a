"""Exact Pauli-string algebra on computational basis states.

Operators are weighted sums of Pauli strings (tensor products of I, X, Y, Z).
All matrix elements of a single string are evaluated combinatorially with bit
masks and phase counting, so single-string values are exactly one of
{0, +1, -1, +i, -i} with no floating-point error.

Bit/qubit convention (the single switch point for all sign conventions in
this package): qubit ``i`` is character ``i`` of a string label, read left to
right, and bit ``i`` of the integer occupation mask.  ``Z`` has eigenvalue
``+1`` on ``|0>`` and ``-1`` on ``|1>``; an occupied spin-orbital is ``1``.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

__all__ = [
    "PauliOp",
    "PauliString",
    "PauliSum",
    "BasisState",
    "multiply_ops",
    "multiply_masks",
    "multiply_strings",
    "flip_groups",
    "project",
    "project_masks",
    "classify_terms",
    "load_pauli_sum",
    "save_pauli_sum",
    "parse_pauli_sum",
    "format_pauli_sum",
]

#: Terms with |weight| below this are dropped when a PauliSum is normalized.
WEIGHT_TOLERANCE = 1e-12


class PauliOp(enum.Enum):
    """Single-qubit Pauli operator (or the identity)."""

    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    def __str__(self) -> str:
        return self.value


# i**k for k mod 4, the phase of a product of strings.
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


def multiply_masks(xa: int, za: int, xb: int, zb: int) -> tuple[complex, int, int]:
    """``(phase, x_mask, z_mask)`` of the product of strings ``(xa, za)`` and
    ``(xb, zb)``.  A string is ``i**popcount(x & z) X^x Z^z`` (``Y = iXZ``),
    and moving ``Z^za`` past ``X^xb`` costs ``(-1)**popcount(za & xb)``."""
    x, z = xa ^ xb, za ^ zb
    k = (xa & za).bit_count() + (xb & zb).bit_count() - (x & z).bit_count()
    return _PHASES[(k + 2 * (za & xb).bit_count()) % 4], x, z


def multiply_ops(a: PauliOp, b: PauliOp) -> tuple[complex, PauliOp]:
    """Multiply two single-qubit Paulis, returning (phase, product)."""
    phase, product = multiply_strings(PauliString(a.value), PauliString(b.value))
    return phase, PauliOp(product.label)


class PauliString:
    """A tensor product of single-qubit Paulis, e.g. ``YXXY``.

    Internally carries bit masks: bit ``i`` of ``x_mask`` is set when site
    ``i`` is X or Y (a bit flip), bit ``i`` of ``z_mask`` when site ``i`` is
    Z or Y (a phase flip).
    """

    __slots__ = ("label", "x_mask", "z_mask", "y_count")

    def __init__(self, label: str):
        bad = set(label) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli characters {sorted(bad)} in {label!r}")
        self.label = label
        self.x_mask = sum(1 << i for i, c in enumerate(label) if c in "XY")
        self.z_mask = sum(1 << i for i, c in enumerate(label) if c in "ZY")
        self.y_count = label.count("Y")

    @classmethod
    def from_masks(cls, x_mask: int, z_mask: int, num_qubits: int) -> "PauliString":
        chars = ("IXZY"[(x_mask >> i & 1) | (z_mask >> i & 1) << 1] for i in range(num_qubits))
        return cls("".join(chars))

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls("I" * num_qubits)

    @property
    def num_qubits(self) -> int:
        return len(self.label)

    @property
    def ops(self) -> tuple[PauliOp, ...]:
        return tuple(PauliOp(c) for c in self.label)

    @property
    def locality(self) -> int:
        """Number of non-identity sites (the string is `locality`-local)."""
        return sum(1 for c in self.label if c != "I")

    def is_diagonal(self) -> bool:
        """True when the string is built from I/Z only (no bit flips)."""
        return self.x_mask == 0

    def support(self) -> tuple[int, ...]:
        """Indices of the non-identity sites."""
        return tuple(i for i, c in enumerate(self.label) if c != "I")

    def __len__(self) -> int:
        return len(self.label)

    def __getitem__(self, i: int) -> PauliOp:
        return PauliOp(self.label[i])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PauliString) and self.label == other.label

    def __hash__(self) -> int:
        return hash(self.label)

    def __repr__(self) -> str:
        return f"PauliString({self.label!r})"


class BasisState:
    """A computational basis state: an N-bit occupation string like ``1100``.

    Character ``i`` of ``bits`` is the occupation of qubit / spin-orbital
    ``i``; the integer ``mask`` has bit ``i`` set when qubit ``i`` is 1.
    """

    __slots__ = ("bits", "mask")

    def __init__(self, bits: str):
        bad = set(bits) - {"0", "1"}
        if bad:
            raise ValueError(f"invalid bits {sorted(bad)} in {bits!r}")
        self.bits = bits
        self.mask = sum(1 << i for i, c in enumerate(bits) if c == "1")

    @classmethod
    def from_mask(cls, mask: int, num_qubits: int) -> "BasisState":
        return cls("".join("1" if mask >> i & 1 else "0" for i in range(num_qubits)))

    @classmethod
    def from_occupied(cls, occupied: Iterable[int], num_qubits: int) -> "BasisState":
        occ = set(occupied)
        return cls("".join("1" if i in occ else "0" for i in range(num_qubits)))

    @property
    def num_qubits(self) -> int:
        return len(self.bits)

    @property
    def particle_number(self) -> int:
        return self.bits.count("1")

    def occupied(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.bits) if c == "1")

    def unoccupied(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.bits) if c == "0")

    def lex_value(self) -> int:
        """Integer that orders states like their bit strings sort."""
        return int(self.bits, 2) if self.bits else 0

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BasisState) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"BasisState({self.bits!r})"


class PauliSum:
    """A weighted sum of equal-length Pauli strings.

    Normalization merges duplicate strings and drops terms with weight below
    ``WEIGHT_TOLERANCE``; merge order follows first appearance, so sums are
    deterministic for a given term order.
    """

    __slots__ = ("terms", "qubit_count")

    def __init__(
        self,
        terms: Iterable[tuple[complex, PauliString]] = (),
        qubit_count: int | None = None,
        normalize: bool = True,
    ):
        terms = list(terms)
        if qubit_count is None:
            if not terms:
                raise ValueError("qubit_count is required for an empty sum")
            qubit_count = terms[0][1].num_qubits
        for _, string in terms:
            if string.num_qubits != qubit_count:
                raise ValueError(
                    f"string {string.label!r} has {string.num_qubits} qubits, expected {qubit_count}"
                )
        if normalize:
            merged: dict[str, complex] = {}
            keep: dict[str, PauliString] = {}
            for weight, string in terms:
                merged[string.label] = merged.get(string.label, 0) + complex(weight)
                keep.setdefault(string.label, string)
            terms = [
                (w, keep[label]) for label, w in merged.items() if abs(w) > WEIGHT_TOLERANCE
            ]
        self.terms = tuple((complex(w), s) for w, s in terms)
        self.qubit_count = qubit_count

    @classmethod
    def zero(cls, qubit_count: int) -> "PauliSum":
        return cls((), qubit_count)

    @classmethod
    def from_label_weights(
        cls, pairs: Iterable[tuple[complex, str]], qubit_count: int | None = None
    ) -> "PauliSum":
        return cls([(w, PauliString(label)) for w, label in pairs], qubit_count)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def max_locality(self) -> int:
        return max((s.locality for _, s in self.terms), default=0)

    def weight_of(self, label: str) -> complex:
        for w, s in self.terms:
            if s.label == label:
                return w
        return 0j

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """Hermitian iff every weight is real (strings are Hermitian)."""
        return all(abs(w.imag) <= tol for w, _ in self.terms)

    def real_weights(self, tol: float = 1e-10) -> "PauliSum":
        """Coerce weights to their real parts; reject if any imag exceeds tol."""
        worst = max((abs(w.imag) for w, _ in self.terms), default=0.0)
        if worst > tol:
            raise ValueError(f"sum is not Hermitian: max imaginary weight {worst:.3e}")
        return PauliSum([(w.real, s) for w, s in self.terms], self.qubit_count)

    def __iter__(self) -> Iterator[tuple[complex, PauliString]]:
        return iter(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.qubit_count != other.qubit_count:
            raise ValueError("qubit counts differ")
        return PauliSum(self.terms + other.terms, self.qubit_count)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, other: "PauliSum | complex | float | int") -> "PauliSum":
        if isinstance(other, PauliSum):
            if self.qubit_count != other.qubit_count:
                raise ValueError("qubit counts differ")
            products = []
            for wa, sa in self.terms:
                for wb, sb in other.terms:
                    phase, prod = multiply_strings(sa, sb)
                    products.append((wa * wb * phase, prod))
            return PauliSum(products, self.qubit_count)
        return PauliSum([(w * other, s) for w, s in self.terms], self.qubit_count)

    def __rmul__(self, other: complex | float | int) -> "PauliSum":
        return self.__mul__(other)

    def __repr__(self) -> str:
        body = " + ".join(f"({w:.6g})*{s.label}" for w, s in self.terms[:4])
        more = f" + ... ({self.num_terms} terms)" if self.num_terms > 4 else ""
        return f"PauliSum[{body}{more}]"


def _require_equal_length(a_len: int, b_len: int) -> None:
    if a_len != b_len:
        raise ValueError(f"length mismatch: {a_len} vs {b_len}")


def multiply_strings(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Multiply two Pauli strings: ``a @ b == phase * product``.

    The phase is always one of {1, -1, i, -i}.
    """
    _require_equal_length(a.num_qubits, b.num_qubits)
    phase, x, z = multiply_masks(a.x_mask, a.z_mask, b.x_mask, b.z_mask)
    return phase, PauliString.from_masks(x, z, a.num_qubits)


def flip_groups(hamiltonian: PauliSum) -> dict[int, list[tuple[int, complex, PauliString]]]:
    """The terms grouped by the bits their strings flip: ``x_mask -> [(k,
    weight, string)]``, ``k`` being the term's index, in term order."""
    groups: dict[int, list[tuple[int, complex, PauliString]]] = {}
    for k, (w, s) in enumerate(hamiltonian.terms):
        groups.setdefault(s.x_mask, []).append((k, w, s))
    return groups


def project(hamiltonian: PauliSum, states: Sequence[BasisState]) -> np.ndarray:
    """:func:`project_masks` on the masks of ``states``."""
    for state in states:
        _require_equal_length(hamiltonian.qubit_count, state.num_qubits)
    return project_masks(hamiltonian, np.array([s.mask for s in states], dtype=np.uint64))


def project_masks(hamiltonian: PauliSum, masks: np.ndarray) -> np.ndarray:
    """Dense projection ``M[r, c] = <masks[r]|H|masks[c]>`` over distinct
    ``uint64`` occupation masks, one flip group (:func:`flip_groups`) at a time.

    A group's strings all map ``masks`` to ``masks ^ x_mask``, so one
    ``searchsorted`` over the sorted masks finds the cells it reaches, which
    no other group reaches, and :func:`_flip_amplitudes` of the columns'
    masks fills them.  The result is complex only if some ``w * i**y_count``
    is; for real weights it is exactly Hermitian, bit for bit.
    """
    size = len(masks)
    order = np.argsort(masks)
    sorted_masks = masks[order]
    if np.any(sorted_masks[1:] == sorted_masks[:-1]):
        raise ValueError("project needs distinct states")
    is_complex = any((w * 1j ** (s.y_count % 4)).imag for w, s in hamiltonian)
    matrix = np.zeros((size, size), dtype=complex if is_complex else float)
    cells_of = matrix.reshape(-1)
    for x_mask, group in flip_groups(hamiltonian).items():
        images = masks ^ np.uint64(x_mask)
        slots = np.minimum(np.searchsorted(sorted_masks, images), size - 1)
        cols = np.flatnonzero(sorted_masks[slots] == images)
        re_sum, im_sum = _flip_amplitudes(group, masks[cols])
        cells = order[slots[cols]] * size + cols
        cells_of.real[cells] = re_sum
        if im_sum is not None:
            cells_of.imag[cells] = im_sum
    return matrix


def _flip_amplitudes(
    group: list[tuple[int, complex, PauliString]], masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """``<n ^ x_mask|H|n>`` at each ``uint64`` mask ``n``: the sum over one
    flip group's strings of ``w * i**y_count * (-1)**popcount(n & z_mask)``.

    This is the one evaluator of exact matrix elements.  Real and imaginary
    parts accumulate apart, in term order from ``+0.0``; the imaginary part
    is None when no string's ``w * i**y_count`` has one (it would be all
    ``+0.0``).
    """
    phased = [(w * 1j ** (s.y_count % 4), np.uint64(s.z_mask)) for _, w, s in group]
    re_sum = np.zeros(masks.size)
    im_sum = np.zeros(masks.size) if any(p.imag for p, _ in phased) else None
    for p, z_mask in phased:
        sign = 1.0 - 2.0 * (np.bitwise_count(masks & z_mask) & np.uint8(1))
        re_sum += p.real * sign
        if im_sum is not None:
            im_sum += p.imag * sign
    return re_sum, im_sum


def classify_terms(hamiltonian: PauliSum) -> tuple[PauliSum, PauliSum]:
    """Split a sum into (diagonal, off-diagonal) parts.

    Diagonal terms are the strings built from I/Z only: they never connect
    two different basis states.  Strings containing at least one X or Y flip
    bits, so all their diagonal elements vanish; they only feed off-diagonal
    entries.  The two parts add back up to the input.
    """
    diag = [(w, s) for w, s in hamiltonian.terms if s.is_diagonal()]
    off = [(w, s) for w, s in hamiltonian.terms if not s.is_diagonal()]
    return (
        PauliSum(diag, hamiltonian.qubit_count, normalize=False),
        PauliSum(off, hamiltonian.qubit_count, normalize=False),
    )


# ---------------------------------------------------------------------------
# Text format: one term per line, "<re> <im> <string>", '#' starts a comment.
# ---------------------------------------------------------------------------

class PauliFormatError(ValueError):
    """Raised on malformed Pauli-sum text, with a 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_pauli_sum(text: str | Iterable[str]) -> PauliSum:
    """Parse the Pauli-sum text format.

    Qubit count is inferred from the string length and must be uniform.
    """
    lines = text.splitlines() if isinstance(text, str) else list(text)
    terms: list[tuple[complex, PauliString]] = []
    qubit_count: int | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise PauliFormatError(lineno, f"expected '<re> <im> <string>', got {raw.strip()!r}")
        try:
            re_part, im_part = float(fields[0]), float(fields[1])
        except ValueError:
            raise PauliFormatError(lineno, f"bad weight in {raw.strip()!r}") from None
        try:
            string = PauliString(fields[2])
        except ValueError as exc:
            raise PauliFormatError(lineno, str(exc)) from None
        if qubit_count is None:
            qubit_count = string.num_qubits
        elif string.num_qubits != qubit_count:
            raise PauliFormatError(
                lineno, f"string length {string.num_qubits} != {qubit_count} seen earlier"
            )
        terms.append((complex(re_part, im_part), string))
    if qubit_count is None:
        raise PauliFormatError(len(lines) + 1, "no terms found")
    return PauliSum(terms, qubit_count)


def format_pauli_sum(hamiltonian: PauliSum) -> str:
    lines = [f"{w.real:.17g} {w.imag:.17g} {s.label}" for w, s in hamiltonian.terms]
    return "\n".join(lines) + "\n"


def load_pauli_sum(path_or_file: str | TextIO) -> PauliSum:
    if hasattr(path_or_file, "read"):
        return parse_pauli_sum(path_or_file.read())
    with open(path_or_file, "r", encoding="utf-8") as fh:
        return parse_pauli_sum(fh.read())


def save_pauli_sum(hamiltonian: PauliSum, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pauli_sum(hamiltonian))
