"""heffsolve: non-variational hybrid eigensolver.

Projects a fermionic/qubit Hamiltonian onto a selected set of computational
basis states by simulating ancilla-based interference measurement circuits,
assembles the resulting effective Hamiltonian matrix, and diagonalizes it
classically for ground- and excited-state energies and densities of states.
"""

from .pauli import (
    BasisState,
    PauliOp,
    PauliString,
    PauliSum,
    classify_terms,
    load_pauli_sum,
    multiply_strings,
    project_masks,
)
from .fermion import (
    FermionHamiltonian,
    FermionTerm,
    check_particle_conservation,
    jw_ladder,
    jw_transform,
    load_fermion_hamiltonian,
)
from .subspace import (
    ExhaustiveSearch,
    MonteCarloSearch,
    SubspaceBasis,
    SubspaceSpec,
    build_subspace,
    enumerate_excitations,
    find_reference,
)
from .circuits import (
    Circuit,
    Gate,
    ReadoutNoise,
    build_indirect_circuit,
    build_offdiagonal_circuit,
    run_statevector,
)
from .estimator import (
    Backend,
    CalibrationMatrix,
    EffectiveHamiltonian,
    MeasurementEstimate,
    build_calibration,
    build_effective_hamiltonian,
    measure_diagonal,
    measure_offdiagonal,
)
from .spectra import (
    CapacityError,
    DosHistogram,
    Spectrum,
    dos,
    eigendecompose,
    exact_sector_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BasisState", "PauliOp", "PauliString", "PauliSum",
    "classify_terms", "multiply_strings", "project_masks",
    "load_pauli_sum",
    "FermionHamiltonian", "FermionTerm", "check_particle_conservation",
    "jw_ladder", "jw_transform", "load_fermion_hamiltonian",
    "ExhaustiveSearch", "MonteCarloSearch", "SubspaceBasis", "SubspaceSpec",
    "build_subspace", "enumerate_excitations", "find_reference",
    "Circuit", "Gate", "ReadoutNoise",
    "build_indirect_circuit", "build_offdiagonal_circuit",
    "run_statevector",
    "Backend", "CalibrationMatrix", "EffectiveHamiltonian", "MeasurementEstimate",
    "build_calibration", "build_effective_hamiltonian",
    "measure_diagonal", "measure_offdiagonal",
    "CapacityError", "DosHistogram", "Spectrum",
    "dos", "eigendecompose", "exact_sector_spectrum",
]
