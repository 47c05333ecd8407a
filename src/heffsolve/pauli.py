"""Exact Pauli-string algebra on computational basis states.

Operators are weighted sums of Pauli strings (tensor products of I, X, Y, Z).
All matrix elements of a single string are evaluated combinatorially with bit
masks and phase counting, so single-string values are exactly one of
{0, +1, -1, +i, -i} with no floating-point error.

Bit/qubit convention (the single switch point for all sign conventions in
this package): qubit ``i`` is character ``i`` of a string label, read left to
right, and bit ``i`` of the integer occupation mask.  ``Z`` has eigenvalue
``+1`` on ``|0>`` and ``-1`` on ``|1>``; an occupied spin-orbital is ``1``.
A string is its symplectic ``(x_mask, z_mask)`` pair (Aaronson & Gottesman,
quant-ph/0406196) and a basis state its occupation mask; labels and bit
strings are only parsed, printed and shown in messages.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Iterator, TextIO

import numpy as np

__all__ = [
    "PauliOp",
    "PauliString",
    "PauliSum",
    "BasisState",
    "multiply_ops",
    "multiply_masks",
    "multiply_strings",
    "FlipGroups",
    "flip_cells",
    "project_masks",
    "classify_terms",
    "load_pauli_sum",
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

# the parity bit of a popcount, as the uint8 np.bitwise_count returns
_ONE = np.uint8(1)


def sites(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending: the sites a mask marks."""
    return [q for q, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def string_order(masks: np.ndarray) -> np.ndarray:
    """Keys that sort ``uint64`` occupation masks as their bit strings sort:
    each mask with its 64 bits reversed, so bit 0 (character 0) weighs most."""
    bits = np.unpackbits(masks.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    return np.packbits(bits, axis=1).view(">u8").ravel().astype(np.uint64)


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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PauliString) and self.label == other.label

    def __hash__(self) -> int:
        return hash(self.label)

    def __repr__(self) -> str:
        return f"PauliString({self.label!r})"


class BasisState:
    """A computational basis state as its N-bit occupation string, like ``1100``.

    Character ``i`` of ``bits`` is the occupation of qubit / spin-orbital
    ``i``; the integer ``mask`` has bit ``i`` set when qubit ``i`` is 1.
    The pipeline holds states as masks; this form is only read from and
    written to files and shown in messages.
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

    @property
    def num_qubits(self) -> int:
        return len(self.bits)

    @property
    def particle_number(self) -> int:
        return self.bits.count("1")

    def __repr__(self) -> str:
        return f"BasisState({self.bits!r})"


class PauliSum:
    """A weighted sum of equal-length Pauli strings, held as read-only arrays
    in term order: the strings' ``uint64`` masks ``x`` and ``z``, and their
    complex weights ``w``.  :attr:`groups` is built on first use and kept;
    ``terms`` and iteration build ``(weight, PauliString)`` pairs on demand.

    Every sum is normalized: duplicate strings merge and terms with weight
    below ``WEIGHT_TOLERANCE`` drop; merge order follows first appearance, so
    sums are deterministic for a given term order.  A merged weight that is
    not finite (NaN or infinite) is a ValueError.
    """

    __slots__ = ("x", "z", "w", "qubit_count", "_groups")

    def __init__(self, terms: Iterable[tuple[complex, PauliString]] = (), qubit_count: int | None = None):
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
        self._hold([(s.x_mask, s.z_mask) for _, s in terms], [w for w, _ in terms], qubit_count)

    @classmethod
    def from_masks(cls, x, z, w, qubit_count: int) -> "PauliSum":
        """The sum of ``w[k]`` times the string with masks ``x[k]`` and ``z[k]``."""
        new = cls.__new__(cls)
        new._hold(zip(map(int, x), map(int, z)), w, qubit_count)
        return new

    def _hold(self, masks: Iterable[tuple[int, int]], w, qubit_count: int) -> None:
        if qubit_count > 64:  # the masks are uint64 words
            raise ValueError(f"{qubit_count} qubits exceed the 64-bit masks")
        merged: dict[tuple[int, int], complex] = {}
        for key, weight in zip(masks, w):
            merged[key] = merged.get(key, 0) + complex(weight)
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in merged.values()):
            raise ValueError("Pauli weights must be finite")
        kept = [key for key, v in merged.items() if abs(v) > WEIGHT_TOLERANCE]
        self.x, self.z = np.array(kept, dtype=np.uint64).reshape(-1, 2).T.copy()
        self.w = np.array([merged[key] for key in kept], dtype=complex)
        for a in (self.x, self.z, self.w):
            a.flags.writeable = False
        self.qubit_count = qubit_count
        self._groups = None

    @classmethod
    def zero(cls, qubit_count: int) -> "PauliSum":
        return cls((), qubit_count)

    @classmethod
    def from_label_weights(
        cls, pairs: Iterable[tuple[complex, str]], qubit_count: int | None = None
    ) -> "PauliSum":
        return cls([(w, PauliString(label)) for w, label in pairs], qubit_count)

    @property
    def terms(self) -> tuple[tuple[complex, PauliString], ...]:
        return tuple((w, PauliString.from_masks(x, z, self.qubit_count)) for w, x, z in self.triples())

    def triples(self) -> Iterator[tuple[complex, int, int]]:
        """``(weight, x_mask, z_mask)`` of each term, as Python numbers."""
        return zip(self.w.tolist(), self.x.tolist(), self.z.tolist())

    @property
    def groups(self) -> "FlipGroups":
        """The terms grouped by the bits their strings flip, built once."""
        if self._groups is None:
            self._groups = FlipGroups(self)
        return self._groups

    @property
    def num_terms(self) -> int:
        return len(self.w)

    @property
    def max_locality(self) -> int:
        return int(np.bitwise_count(self.x | self.z).max(initial=0))

    def weight_of(self, label: str) -> complex:
        return dict((s.label, w) for w, s in self.terms).get(label, 0j)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """Hermitian iff every weight is real (strings are Hermitian)."""
        return bool(np.all(np.abs(self.w.imag) <= tol))

    def real_weights(self, tol: float = 1e-10) -> "PauliSum":
        """Coerce weights to their real parts; reject if any imag exceeds tol.
        A sum with real weights is returned as it is, with its grouping."""
        worst = float(np.abs(self.w.imag).max(initial=0.0))
        if worst > tol:
            raise ValueError(f"sum is not Hermitian: max imaginary weight {worst:.3e}")
        if not worst:
            return self
        return PauliSum.from_masks(self.x, self.z, self.w.real.tolist(), self.qubit_count)

    def __iter__(self) -> Iterator[tuple[complex, PauliString]]:
        return iter(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.qubit_count != other.qubit_count:
            raise ValueError("qubit counts differ")
        x, z, w = (np.concatenate(p) for p in zip((self.x, self.z, self.w), (other.x, other.z, other.w)))
        return PauliSum.from_masks(x, z, w.tolist(), self.qubit_count)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, other: "PauliSum | complex | float | int") -> "PauliSum":
        if isinstance(other, PauliSum):
            if self.qubit_count != other.qubit_count:
                raise ValueError("qubit counts differ")
            products = [
                (wa * wb, *multiply_masks(xa, za, xb, zb))
                for wa, xa, za in self.triples() for wb, xb, zb in other.triples()
            ]
            xs, zs = [x for _, _, x, _ in products], [z for _, _, _, z in products]
            return PauliSum.from_masks(xs, zs, [w * p for w, p, _, _ in products], self.qubit_count)
        return PauliSum.from_masks(self.x, self.z, [w * other for w in self.w.tolist()], self.qubit_count)

    def __rmul__(self, other: complex | float | int) -> "PauliSum":
        return self.__mul__(other)

    def __repr__(self) -> str:
        body = " + ".join(f"({w:.6g})*{s.label}" for w, s in self.terms[:4])
        more = f" + ... ({self.num_terms} terms)" if self.num_terms > 4 else ""
        return f"PauliSum[{body}{more}]"


class FlipGroups:
    """The terms of a :class:`PauliSum` grouped by the bits their strings flip.

    A stable sort by ``x_mask`` keeps each group's terms together in term
    order; ``spans`` maps each ``x_mask``, ascending, to the group's slice of
    the arrays: the terms' ``index`` in the sum, their ``z_mask``, their
    ``phased`` weight ``w * i**popcount(x & z)`` (the factor of
    ``(-1)**popcount(n & z)`` in ``<n ^ x|H|n>``), and ``odd``, the Y-count
    parity that splits a group into its two commuting classes.
    """

    __slots__ = ("spans", "index", "z", "phased", "odd")

    def __init__(self, hamiltonian: PauliSum):
        x, z = hamiltonian.x, hamiltonian.z
        self.index = np.argsort(x, kind="stable")
        flips, starts = np.unique(x[self.index], return_index=True)
        bounds = [*starts.tolist(), len(self.index)]
        self.spans: dict[int, slice] = dict(zip(flips.tolist(), map(slice, bounds[:-1], bounds[1:])))
        y = np.bitwise_count(x & z)[self.index]
        self.z = z[self.index]
        self.phased = hamiltonian.w[self.index] * np.array(_PHASES)[y % 4]
        self.odd = (y & _ONE).astype(bool)

    def span(self, x_mask: int) -> slice:
        """The positions of the group that flips ``x_mask``; empty if none does."""
        return self.spans.get(x_mask, slice(0, 0))


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


def flip_cells(groups: FlipGroups, masks: np.ndarray) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """``(span, rows, cols)`` for each flip group of ``groups``, ``span``
    being its positions, with ``masks[rows] == masks[cols] ^ x_mask``: the
    cells of the projection over the ``uint64`` ``masks`` that the group
    reaches, and no other group reaches.  Repeated masks are a ValueError.

    A group's strings all map ``masks`` to ``masks ^ x_mask``, so one
    ``searchsorted`` over the sorted masks finds its cells.
    """
    size = len(masks)
    order = np.argsort(masks)
    sorted_masks = masks[order]
    if np.any(sorted_masks[1:] == sorted_masks[:-1]):
        raise ValueError("the states must be distinct")
    for x_mask, span in groups.spans.items():
        images = masks ^ np.uint64(x_mask)
        slots = np.minimum(np.searchsorted(sorted_masks, images), size - 1)
        cols = np.flatnonzero(sorted_masks[slots] == images)
        yield span, order[slots[cols]], cols


def project_masks(hamiltonian: PauliSum, masks: np.ndarray) -> np.ndarray:
    """Dense projection ``M[r, c] = <masks[r]|H|masks[c]>`` over distinct
    ``uint64`` occupation masks, one flip group at a time.

    :func:`flip_cells` finds each group's cells and :func:`_flip_amplitudes`
    of the columns' masks fills them.  The result is complex only if some
    ``w * i**y_count`` is; for real weights it is exactly Hermitian, bit for
    bit.
    """
    groups = hamiltonian.groups
    size = len(masks)
    matrix = np.zeros((size, size), dtype=complex if groups.phased.imag.any() else float)
    cells_of = matrix.reshape(-1)
    for span, rows, cols in flip_cells(groups, masks):
        re_sum, im_sum = _flip_amplitudes(groups, span, masks[cols])
        cells = rows * size + cols
        cells_of.real[cells] = re_sum
        if im_sum is not None:
            cells_of.imag[cells] = im_sum
    return matrix


def _flip_amplitudes(
    groups: FlipGroups, span: slice, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """``<n ^ x_mask|H|n>`` at each ``uint64`` mask ``n``, from the flip group
    at ``span`` of ``groups``: the sum over its strings of
    ``w * i**y_count * (-1)**popcount(n & z_mask)``.

    This is the one evaluator of exact matrix elements.  Real and imaginary
    parts accumulate apart, string by string in term order from ``+0.0``;
    the imaginary part is None when no string's ``w * i**y_count`` has one
    (it would be all ``+0.0``).
    """
    phased = groups.phased[span].tolist()
    re_sum = np.zeros(masks.size)
    im_sum = np.zeros(masks.size) if any(p.imag for p in phased) else None
    for p, z_mask in zip(phased, groups.z[span]):
        sign = 1.0 - 2.0 * (np.bitwise_count(masks & z_mask) & _ONE)
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
    flips, n = hamiltonian.x != 0, hamiltonian.qubit_count
    return tuple(
        PauliSum.from_masks(hamiltonian.x[part], hamiltonian.z[part], hamiltonian.w[part], n)
        for part in (~flips, flips)
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
        if not (math.isfinite(re_part) and math.isfinite(im_part)):
            raise PauliFormatError(lineno, f"non-finite weight in {raw.strip()!r}")
        try:
            string = PauliString(fields[2])
        except ValueError as exc:
            raise PauliFormatError(lineno, str(exc)) from None
        if qubit_count is None:
            qubit_count = string.num_qubits
            if qubit_count > 64:
                raise PauliFormatError(lineno, f"{qubit_count} qubits exceed the 64-bit masks")
        elif string.num_qubits != qubit_count:
            raise PauliFormatError(
                lineno, f"string length {string.num_qubits} != {qubit_count} seen earlier"
            )
        terms.append((complex(re_part, im_part), string))
    if qubit_count is None:
        raise PauliFormatError(len(lines) + 1, "no terms found")
    try:
        return PauliSum(terms, qubit_count)
    except ValueError as exc:  # finite weights that merge past the float range
        raise PauliFormatError(len(lines) + 1, str(exc)) from None


def format_pauli_sum(hamiltonian: PauliSum) -> str:
    lines = [f"{w.real:.17g} {w.imag:.17g} {s.label}" for w, s in hamiltonian.terms]
    return "\n".join(lines) + "\n"


def load_pauli_sum(path_or_file: str | TextIO) -> PauliSum:
    if hasattr(path_or_file, "read"):
        return parse_pauli_sum(path_or_file.read())
    with open(path_or_file, "r", encoding="utf-8") as fh:
        return parse_pauli_sum(fh.read())
