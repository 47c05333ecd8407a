"""Workload table and the seeded input generator.

Each workload is one ``heffsolve solve`` configuration run on a random
particle-conserving Hamiltonian written as a ``.ferm`` file.  The terms have
the three shapes of ``tests/conftest.random_fermion_terms``: number operators,
and hopping pairs and double excitations with their Hermitian partners, each
with a standard-normal coefficient.  Their counts give the string counts of seed 1
of ``random_fermion_terms`` at 12/30/60 fermionic terms.

Which modes each term couples is drawn once per workload, from a fixed
stream; the workload seed draws the coefficients.  The Pauli strings, and so
the cost of every (pair, string) setting (the statevector cost of a string
grows with its Jordan-Wigner Z chain), are then the same for every seed.  The
seed still changes the reference state, the kept basis, which pairs connect
and the energies, but not how much work a solve is, so the seed-to-seed
spread of the timings is the machine's.  The one data-dependent branch that
costs time, the NNLS fallback of readout mitigation, ran on every sampled
histogram of ``sampled-mitigated-n6`` on every seed checked
(``estimator.nnls_calls`` equalled ``circuits.sample_calls``, 1,446, and NNLS
took about 3.7 times the sampling time).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    modes: int
    particles: int
    number_terms: int
    hopping_pairs: int
    double_sets: int
    flags: tuple[str, ...]

    @property
    def backend(self) -> str:
        return self.flags[self.flags.index("--backend") + 1]

    @property
    def pauli_strings(self) -> int:
        """Identity, one Z per number operator, 2 per hopping pair, 8 per double-excitation set."""
        return 1 + self.number_terms + 2 * self.hopping_pairs + 8 * self.double_sets


# Why each workload is in the set is recorded beside it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-direct-n8", 8, 4, 4, 8, 11,
            ("--backend", "exact", "--nf", "4", "--ns", "20"),
        ),
        Workload(
            "sampled-mitigated-n6", 6, 3, 3, 4, 5,
            ("--backend", "sampled", "--shots", "8000", "--noise", "0.02,0.02", "--mitigate",
             "--diagonals", "circuit", "--nf", "3", "--ns", "6", "--seed", "7"),
        ),
        Workload(
            "oracle-n12-o3", 12, 6, 9, 12, 27,
            ("--backend", "oracle", "--nf", "6", "--order", "3", "--ns", "400"),
        ),
    )
}


def _structure(workload: Workload) -> list[tuple[tuple[int, ...], tuple[bool, ...]]]:
    """Ladder-operator factors of every term, the same for every seed."""
    n = workload.modes
    rng = np.random.default_rng([0, n])
    out = []
    for i in sorted(rng.choice(n, workload.number_terms, replace=False)):
        out.append(((int(i), int(i)), (True, False)))
    pairs = list(itertools.combinations(range(n), 2))
    for k in rng.choice(len(pairs), workload.hopping_pairs, replace=False):
        i, j = (int(v) for v in rng.permutation(pairs[k]))
        out.append(((i, j), (True, False)))
    quads = list(itertools.combinations(range(n), 4))
    for k in rng.choice(len(quads), workload.double_sets, replace=False):
        i, j, k_, l = (int(v) for v in rng.permutation(quads[k]))
        out.append(((i, j, k_, l), (True, True, False, False)))
    return out


def _term_line(coeff: float, modes: tuple[int, ...], daggers: tuple[bool, ...]) -> str:
    return f"{coeff!r} 0.0 " + " ".join(f"{m}^" if d else f"{m}" for m, d in zip(modes, daggers))


def ferm_text(workload: Workload, seed: int) -> str:
    """The ``.ferm`` input of ``workload`` for ``seed``; equal seeds give equal text."""
    rng = np.random.default_rng([seed, workload.modes])
    lines = [f"# perfbench {workload.name} seed {seed}", f"modes {workload.modes}"]
    for modes, daggers in _structure(workload):
        coeff = float(rng.normal())
        lines.append(_term_line(coeff, modes, daggers))
        if len(set(modes)) > 1:  # hopping and double excitations get their Hermitian partner
            lines.append(_term_line(coeff, modes[::-1], daggers))
    return "\n".join(lines) + "\n"
