"""Output checks on ``solve`` bundles, and the reference values they use.

The reference projection is assembled with ``heffsolve.spectra.sector_matrix``
(one hash lookup per string and sector state) and diagonalised with LAPACK,
so it shares neither the oracle backend's pairwise loop nor the Jacobi
eigensolver with the program run under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from heffsolve.fermion import jw_transform, parse_fermion_hamiltonian
from heffsolve.pauli import BasisState, classify_terms
from heffsolve.spectra import sector_matrix

BUNDLE_FILES = (
    "heff.json", "spectrum.csv", "dos.csv", "basis.txt",
    "error_vs_exact.csv", "manifest.json", "timing.json",
)
# Wall-clock times: the README excludes this file from byte identity.
UNSTABLE_FILES = frozenset({"timing.json"})

# Exact and oracle backends must match the projection to this, and E0 may sit
# below the exact-sector ground energy by no more than this.
TOLERANCE = 1e-10


def bundle_digest(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every byte-stable bundle file; raises if one is missing."""
    missing = [name for name in BUNDLE_FILES if not (out_dir / name).is_file()]
    if missing:
        raise FileNotFoundError(f"bundle {out_dir} lacks {', '.join(missing)}")
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in BUNDLE_FILES
        if name not in UNSTABLE_FILES
    }


def bundle_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


@dataclass
class Reference:
    """Exact-sector matrix and ground energy of one generated input."""

    sector_index: dict[int, int]
    sector: np.ndarray
    exact_e0: float
    offdiag_x_masks: Counter
    diagonal_strings: int

    @classmethod
    def from_ferm(cls, text: str, particles: int) -> "Reference":
        hamiltonian = jw_transform(parse_fermion_hamiltonian(text))
        states, matrix = sector_matrix(hamiltonian, particles)
        diagonal, offdiag = classify_terms(hamiltonian)
        return cls(
            sector_index={s.mask: k for k, s in enumerate(states)},
            sector=matrix,
            exact_e0=float(np.linalg.eigvalsh(matrix)[0]),
            offdiag_x_masks=Counter(s.x_mask for _, s in offdiag),
            diagonal_strings=diagonal.num_terms,
        )


@dataclass
class BundleReport:
    """What one bundle's content checks found, plus the values they computed."""

    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)


def _ground_energy(out_dir: Path) -> float:
    with open(out_dir / "spectrum.csv", encoding="utf-8") as fh:
        next(fh)
        return float(next(fh).split(",")[1])


def check_bundle(out_dir: Path, reference: Reference, backend: str) -> BundleReport:
    """Content checks of one bundle.

    Every backend: the matrix is finite and Hermitian.  Exact and oracle
    backends: it equals the reference projection on its basis, and E0 is not
    below the exact-sector ground energy.
    """
    report = BundleReport()
    heff = json.loads((out_dir / "heff.json").read_text(encoding="utf-8"))
    matrix = np.array(heff["matrix"], dtype=float)
    matrix = matrix[..., 0] + 1j * matrix[..., 1]
    masks = [BasisState(bits).mask for bits in heff["basis"]]
    e0 = _ground_energy(out_dir)
    if not np.all(np.isfinite(matrix)) or not math.isfinite(e0):
        report.problems.append("matrix or E0 is not finite")
    elif np.abs(matrix - matrix.conj().T).max() > TOLERANCE:
        report.problems.append("matrix is not Hermitian")
    rows = [reference.sector_index[m] for m in masks]
    projection = reference.sector[np.ix_(rows, rows)]
    if backend in ("exact", "oracle"):
        deviation = float(np.abs(matrix - projection).max())
        if not deviation <= TOLERANCE:
            report.problems.append(f"matrix differs from the oracle projection by {deviation:.3g}")
        if not e0 >= reference.exact_e0 - TOLERANCE:
            report.problems.append(f"E0 {e0!r} is below the exact-sector E0 {reference.exact_e0!r}")
    counts = heff["circuit_counts"]
    # Settings that can be non-zero: <n|h|n'> vanishes unless h flips exactly n XOR n'.
    useful = sum(
        reference.offdiag_x_masks[masks[i] ^ masks[j]]
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
    )
    # Measured off-diagonal (pair, string) settings: each is run once per part
    # (real, imaginary); circuit diagonals add one execution per diagonal string.
    settings = (counts["string_executions"] - counts["diagonal"] * reference.diagonal_strings) // 2
    report.values = {
        "e0_abs_err_mha": 1e3 * abs(e0 - reference.exact_e0),
        "e0_meas_err_mha": 1e3 * abs(e0 - float(np.linalg.eigvalsh(projection)[0])),
        "estimator.string_settings": counts["string_executions"],
        "estimator.offdiag_circuits": counts["offdiagonal_total"],
        "estimator.shots": counts["total_shots"],
        "estimator.useful_settings": useful,
        "estimator.offdiag_settings": settings,
        "estimator.useful_ratio": useful / settings if settings else 0.0,
        "circuits.amplitudes_computed": counts["string_executions"] << (heff["qubit_count"] + 1),
    }
    return report
