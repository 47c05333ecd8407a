"""Command-line pipeline: transform, subspace, solve, scan, calibrate.

Every randomized stage draws from an independent stream derived from one
master seed, and identical configurations produce byte-identical result
bundles (wall-clock timings go to a separate ``timing.json`` that is
excluded from that guarantee).  Exit codes: 0 success, 2 input error,
3 capacity error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, replace
from math import comb
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import ReadoutNoise, derive_seed
from .estimator import (
    Backend,
    build_calibration,
    build_effective_hamiltonian,
    heff_to_dict,
    heff_to_json,
)
from .fermion import (
    FermionFormatError,
    check_particle_conservation,
    jw_transform,
    load_fermion_hamiltonian,
)
from .pauli import PauliFormatError, PauliSum, load_pauli_sum, save_pauli_sum
from .spectra import (
    MAX_DENSE_DIMENSION,
    CapacityError,
    dos,
    dos_to_csv,
    eigendecompose,
    exact_sector_spectrum,
    spectrum_to_csv,
)
from .subspace import (
    ExhaustiveSearch,
    MonteCarloSearch,
    SubspaceBasis,
    SubspaceSpec,
    basis_from_states,
    build_subspace,
    load_states,
    save_states,
)

CHEMICAL_ACCURACY = 5e-3  # Hartree

# Occupation masks travel through numpy int64 arrays, whose bit 63 is the sign.
MAX_QUBITS = 63

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3

_ENV_PREFIX = "HEFFSOLVE_"


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False, "": False}


def _env(name: str, fallback, cast=str, choices=None):
    """The flag default from ``HEFFSOLVE_<name>``, or ``fallback`` when unset;
    a value that does not parse is a ValueError that names the variable."""
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        value = _BOOLEANS[raw.strip().lower()] if cast is bool else cast(raw)
        if choices is not None and value not in choices:
            raise ValueError
    except (KeyError, ValueError):
        raise ValueError(f"{_ENV_PREFIX}{name}={raw!r} is not a valid value") from None
    return value


def _add_choice(parser: argparse.ArgumentParser, flag: str, choices: tuple, env: str, **kw) -> None:
    """A choice flag whose default is ``choices[0]`` or ``HEFFSOLVE_<env>``."""
    parser.add_argument(flag, choices=choices, default=_env(env, choices[0], choices=choices), **kw)


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def _load_hamiltonian(path: str, fmt: str = "auto") -> PauliSum:
    if fmt == "auto":
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if line:
                    fmt = "fermion" if line.startswith(("modes", "constant")) else "pauli"
                    break
            else:
                raise ValueError(f"{path}: empty input file")
    if fmt == "fermion":
        hamiltonian = jw_transform(load_fermion_hamiltonian(path))
    else:
        hamiltonian = load_pauli_sum(path).real_weights()
    if hamiltonian.qubit_count > MAX_QUBITS:
        raise ValueError(
            f"{path}: {hamiltonian.qubit_count} qubits exceed the {MAX_QUBITS}-qubit limit "
            "of the integer occupation masks"
        )
    # the sector projections would silently drop particle-changing strings
    if fmt != "fermion" and not check_particle_conservation(hamiltonian):
        raise ValueError(f"{path}: the Pauli sum does not conserve particle number")
    return hamiltonian


def _parse_noise(text: str | None) -> ReadoutNoise | None:
    if not text:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--noise expects 'p01,p10', got {text!r}")
    return ReadoutNoise(float(parts[0]), float(parts[1]))


@dataclass
class RunConfig:
    """Everything a solve/scan run depends on; echoed into the manifest.

    A configuration is validated whole when it is built, so a bad one is
    rejected before any work is done or any file is written.  ``backend``
    is the one for run 0; a sampled run ``r`` reseeds it from ``seed``.
    """

    input_path: str
    out_dir: str
    particle_number: int
    order: int
    target_size: int | None
    basis_file: str | None
    strategy: str
    mc_steps: int
    mc_t0: float | None
    mc_cooling: float
    backend: Backend
    seed: int
    repeats: int
    levels: int
    dos_bins: int
    fmt: str = "auto"

    def __post_init__(self) -> None:
        for flag, value in (
            ("--shots", self.backend.shots),
            ("--repeats", self.repeats),
            ("--levels", self.levels),
            ("--dos-bins", self.dos_bins),
        ):
            if value < 1:
                raise ValueError(f"{flag} must be at least 1, got {value}")
        if self.particle_number < 0:
            raise ValueError(f"--nf must be nonnegative, got {self.particle_number}")
        # The annealing schedule is checked whatever the strategy; the subspace
        # spec and the backend check their own fields.
        MonteCarloSearch(steps=self.mc_steps, initial_temperature=self.mc_t0, cooling=self.mc_cooling)
        self.subspace_spec()

    def describe(self) -> dict:
        backend = self.backend
        return {
            "input": self.input_path,
            "particle_number": self.particle_number,
            "order": self.order,
            "target_size": self.target_size if self.target_size is not None else "all",
            "basis_file": self.basis_file,
            "strategy": self.strategy,
            "mc_steps": self.mc_steps,
            "mc_t0": self.mc_t0,
            "mc_cooling": self.mc_cooling,
            "backend": backend.kind,
            "shots": backend.shots,
            "seed": self.seed,
            "noise": backend.describe()["noise"],
            "mitigation": backend.mitigation,
            "style": backend.measurement_style,
            "diagonals": "circuit" if backend.measure_diagonals_with_circuits else "classical",
            "repeats": self.repeats,
            "levels": self.levels,
            "dos_bins": self.dos_bins,
        }

    def subspace_spec(self) -> SubspaceSpec:
        if self.strategy == "exhaustive":
            strategy = ExhaustiveSearch()
        else:
            strategy = MonteCarloSearch(
                steps=self.mc_steps,
                seed=derive_seed(self.seed, 5),
                initial_temperature=self.mc_t0,
                cooling=self.mc_cooling,
            )
        return SubspaceSpec(self.particle_number, self.order, self.target_size, strategy)


def _select_basis(hamiltonian: PauliSum, config: RunConfig):
    if not config.basis_file:
        return build_subspace(hamiltonian, config.subspace_spec())
    states = load_states(config.basis_file)
    wanted = (hamiltonian.qubit_count, config.particle_number)
    outside = [s.bits for s in states if (s.num_qubits, s.particle_number) != wanted]
    if outside or not states:
        raise ValueError(
            f"{config.basis_file}: the basis must be {wanted[0]}-bit states in the "
            f"--nf {wanted[1]} sector; found {outside[0] if outside else 'no state'}"
        )
    return basis_from_states(hamiltonian, states)


def _error_rows(heff_values: np.ndarray, exact_values: np.ndarray) -> str:
    lines = ["index,e_heff,e_exact,abs_error,within_chemical_accuracy"]
    for k in range(min(len(heff_values), len(exact_values))):
        err = abs(float(heff_values[k]) - float(exact_values[k]))
        lines.append(
            f"{k},{heff_values[k]:.17g},{exact_values[k]:.17g},{err:.17g},{int(err <= CHEMICAL_ACCURACY)}"
        )
    return "\n".join(lines) + "\n"


def _solve_one(
    hamiltonian: PauliSum,
    basis,
    config: RunConfig,
    run_index: int,
    out_dir: Path,
    exact_values: np.ndarray | None,
    dir_label: str | None = None,
) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    backend = config.backend
    if backend.kind == "sampled":
        backend = replace(backend, seed=derive_seed(config.seed, 4, run_index))
    heff = build_effective_hamiltonian(hamiltonian, basis, backend)
    spectrum = eigendecompose(heff, compute_vectors=False)
    _write_text(out_dir / "heff.json", heff_to_json(heff_to_dict(heff)) + "\n")
    _write_text(out_dir / "spectrum.csv", spectrum_to_csv(spectrum))
    _write_text(out_dir / "dos.csv", dos_to_csv(dos(spectrum, bin_count=config.dos_bins)))
    with open(out_dir / "basis.txt.tmp", "w", encoding="utf-8") as fh:
        save_states(basis.states, fh)
    os.replace(out_dir / "basis.txt.tmp", out_dir / "basis.txt")
    if exact_values is not None:
        _write_text(out_dir / "error_vs_exact.csv", _error_rows(spectrum.eigenvalues, exact_values))
    return {
        "run": run_index,
        "seed": backend.seed,
        "directory": dir_label if dir_label is not None else out_dir.name,
        "circuit_counts": heff.circuit_counts.as_dict(),
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
        "ground_energy": spectrum.ground_energy,
    }


def _aggregate_csv(run_records: list[dict], exact_values: np.ndarray | None) -> str:
    energies = np.array([r["eigenvalues"] for r in run_records])
    header = "index,e_mean,e_min,e_max"
    if exact_values is not None:
        header += ",err_mean,err_min,err_max"
    lines = [header]
    for k in range(energies.shape[1]):
        col = energies[:, k]
        row = f"{k},{col.mean():.17g},{col.min():.17g},{col.max():.17g}"
        if exact_values is not None and k < len(exact_values):
            err = np.abs(col - float(exact_values[k]))
            row += f",{err.mean():.17g},{err.min():.17g},{err.max():.17g}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _exact_reference(hamiltonian: PauliSum, particle_number: int) -> np.ndarray | None:
    if comb(hamiltonian.qubit_count, particle_number) > MAX_DENSE_DIMENSION:
        return None
    return exact_sector_spectrum(hamiltonian, particle_number).eigenvalues


def _prepare(config: RunConfig) -> tuple[PauliSum, SubspaceBasis, np.ndarray | None]:
    """Load and check the input, select the basis and compute the exact
    reference; raises on a bad input or capacity before any file exists."""
    hamiltonian = _load_hamiltonian(config.input_path, config.fmt)
    basis = _select_basis(hamiltonian, config)
    if basis.size > MAX_DENSE_DIMENSION:
        raise CapacityError(
            f"subspace size {basis.size} exceeds the dense limit {MAX_DENSE_DIMENSION}"
        )
    return hamiltonian, basis, _exact_reference(hamiltonian, config.particle_number)


def _run_solve(
    config: RunConfig, prepared: tuple[PauliSum, SubspaceBasis, np.ndarray | None] | None = None
) -> tuple[dict, list[dict]]:
    """Solve one configuration, prepared by :func:`_prepare` unless
    ``prepared`` is given; returns the manifest and the per-run records."""
    started = time.perf_counter()
    hamiltonian, basis, exact_values = prepared if prepared is not None else _prepare(config)
    out_root = Path(config.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    records = []
    if config.repeats == 1:
        records.append(
            _solve_one(hamiltonian, basis, config, 0, out_root, exact_values, dir_label=".")
        )
    else:
        for r in range(config.repeats):
            records.append(
                _solve_one(hamiltonian, basis, config, r, out_root / f"run_{r:03d}", exact_values)
            )
        _write_text(out_root / "aggregate.csv", _aggregate_csv(records, exact_values))
    manifest = {
        "command": "solve",
        "version": __version__,
        "config": config.describe(),
        "chemical_accuracy_hartree": CHEMICAL_ACCURACY,
        "qubit_count": hamiltonian.qubit_count,
        "term_count": hamiltonian.num_terms,
        "subspace_size": basis.size,
        "exact_sector_available": exact_values is not None,
        "runs": [
            {k: rec[k] for k in ("run", "seed", "directory", "circuit_counts", "ground_energy")}
            for rec in records
        ],
    }
    _write_json(out_root / "manifest.json", manifest)
    _write_json(out_root / "timing.json", {"wall_seconds": time.perf_counter() - started})
    return manifest, records


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_transform(args) -> int:
    hamiltonian = jw_transform(load_fermion_hamiltonian(args.input))
    save_pauli_sum(hamiltonian, args.output)
    print(f"wrote {args.output}: {hamiltonian.num_terms} strings, max locality {hamiltonian.max_locality}")
    return EXIT_OK


def _cmd_subspace(args) -> int:
    config = _config_from_args(args, needs_out=False)
    hamiltonian = _load_hamiltonian(config.input_path, config.fmt)
    basis = build_subspace(hamiltonian, config.subspace_spec())
    with open(args.output + ".tmp", "w", encoding="utf-8") as fh:
        save_states(basis.states, fh)
    os.replace(args.output + ".tmp", args.output)
    print(f"reference {basis.reference.bits}, kept {basis.size} configurations -> {args.output}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    manifest, _ = _run_solve(_config_from_args(args))
    ground = manifest["runs"][0]["ground_energy"]
    print(f"subspace size {manifest['subspace_size']}, ground energy {ground:.10g}")
    print(f"results in {args.out}")
    return EXIT_OK


_R_PATTERN = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def _distance_from_name(stem: str) -> float:
    matches = _R_PATTERN.findall(stem)
    if not matches:
        raise ValueError(f"cannot parse a bond distance from file name {stem!r}")
    return float(matches[-1])


def _cmd_scan(args) -> int:
    base = _config_from_args(args)
    directory = Path(args.input)
    files = sorted(p for p in directory.iterdir() if p.is_file()) if directory.is_dir() else []
    if not files:
        raise ValueError(f"no Hamiltonian files found in {args.input!r}")
    points = sorted((_distance_from_name(p.stem), p) for p in files)
    out_root = Path(args.out)
    # Every point passes its checks before any is solved, so a bad point
    # leaves no directory behind.
    configs = [
        replace(base, input_path=str(path), out_dir=str(out_root / path.stem)) for _, path in points
    ]
    prepared = [_prepare(config) for config in configs]
    if len({hamiltonian.qubit_count for hamiltonian, _, _ in prepared}) > 1:
        raise ValueError("inconsistent qubit counts across scan files")
    rows = []
    point_manifests = []
    for (distance, path), config, point in zip(points, configs, prepared):
        _, records = _run_solve(config, point)
        # the first run's spectrum: spectrum.csv, or run_000/spectrum.csv with --repeats
        rows.append((distance, records[0]["eigenvalues"][: config.levels]))
        point_manifests.append({"distance": distance, "file": path.name, "directory": path.stem})
    levels = max(len(e) for _, e in rows)
    header = "R," + ",".join(f"E{k}" for k in range(levels))
    lines = [header]
    for distance, eigs in rows:
        values = ",".join(f"{v:.17g}" for v in eigs)
        lines.append(f"{distance:.17g},{values}")
    _write_text(out_root / "pes.csv", "\n".join(lines) + "\n")
    _write_json(
        out_root / "manifest.json",
        {
            "command": "scan",
            "version": __version__,
            "config": base.describe(),
            "points": point_manifests,
        },
    )
    print(f"scanned {len(rows)} points -> {out_root / 'pes.csv'}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    noise = _parse_noise(args.noise)
    if noise is None:
        raise ValueError("--noise is required for calibrate")
    if args.qubits < 1:
        raise ValueError(f"--qubits must be at least 1, got {args.qubits}")
    if args.shots < 0:
        raise ValueError(f"--shots must be nonnegative, got {args.shots}")
    shots = None if args.shots == 0 else args.shots
    calibration = build_calibration(noise, shots, args.seed, args.qubits)
    payload = {
        "qubits": args.qubits,
        "shots": shots,
        "seed": args.seed,
        "matrices": [[[float(x) for x in row] for row in m] for m in calibration.matrices],
    }
    _write_json(Path(args.output), payload)
    print(f"wrote calibration for {args.qubits} qubits -> {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, with_backend: bool = True) -> None:
    parser.add_argument("--nf", type=int, required=True, help="electron (particle) number")
    parser.add_argument("--order", type=int, default=_env("ORDER", 2, int),
                        help="maximum excitation order (default 2 = singles+doubles)")
    parser.add_argument("--ns", default=_env("NS", "all"),
                        help="subspace size target, an integer or 'all'")
    _add_choice(parser, "--strategy", ("exhaustive", "mc"), "STRATEGY",
                help="reference search strategy")
    parser.add_argument("--mc-steps", type=int, default=_env("MC_STEPS", 2000, int))
    parser.add_argument("--mc-t0", type=float, default=None)
    parser.add_argument("--mc-cooling", type=float, default=0.95)
    parser.add_argument("--seed", type=int, default=_env("SEED", 0, int),
                        help="master seed; all streams derive from it")
    parser.add_argument("--format", choices=("auto", "fermion", "pauli"), default="auto",
                        dest="fmt", help="input format (default: sniff)")
    if with_backend:
        parser.add_argument("--basis", default=None, help="reuse a fixed basis file")
        _add_choice(parser, "--backend", ("oracle", "exact", "sampled"), "BACKEND")
        parser.add_argument("--shots", type=int, default=_env("SHOTS", 8000, int))
        parser.add_argument("--noise", default=_env("NOISE", None),
                            help="readout flip probabilities 'p01,p10'")
        parser.add_argument("--mitigate", action="store_true",
                            default=_env("MITIGATE", False, bool))
        _add_choice(parser, "--style", ("direct", "indirect"), "STYLE")
        _add_choice(parser, "--diagonals", ("classical", "circuit"), "DIAGONALS",
                    help="diagonal entries: classical evaluation or full circuits")
        parser.add_argument("--repeats", type=int, default=_env("REPEATS", 1, int),
                            help="independent repetitions (min/max bands)")
        parser.add_argument("--levels", type=int, default=_env("LEVELS", 4, int),
                            help="energies per scan point")
        parser.add_argument("--dos-bins", type=int, default=_env("DOS_BINS", 20, int))


def _config_from_args(args, needs_out: bool = True) -> RunConfig:
    target = args.ns
    if isinstance(target, str):
        target = None if target == "all" else int(target)
    return RunConfig(
        input_path=args.input,
        out_dir=getattr(args, "out", "") if needs_out else "",
        particle_number=args.nf,
        order=args.order,
        target_size=target,
        basis_file=getattr(args, "basis", None),
        strategy=args.strategy,
        mc_steps=args.mc_steps,
        mc_t0=args.mc_t0,
        mc_cooling=args.mc_cooling,
        backend=Backend(
            kind=getattr(args, "backend", "oracle"),
            shots=getattr(args, "shots", 8000),
            noise=_parse_noise(getattr(args, "noise", None)),
            mitigation=getattr(args, "mitigate", False),
            measurement_style=getattr(args, "style", "direct"),
            measure_diagonals_with_circuits=getattr(args, "diagonals", "classical") == "circuit",
        ),
        seed=args.seed,
        repeats=getattr(args, "repeats", 1),
        levels=getattr(args, "levels", 4),
        dos_bins=getattr(args, "dos_bins", 20),
        fmt=args.fmt,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heffsolve",
        description="Project a qubit Hamiltonian onto selected basis states via "
                    "simulated measurement circuits and diagonalize classically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="fermion file -> Pauli-sum file (Jordan-Wigner)")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("subspace", help="select and export a basis")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    _add_common(p, with_backend=False)
    p.set_defaults(func=_cmd_subspace)

    p = sub.add_parser("solve", help="full pipeline on one Hamiltonian file")
    p.add_argument("input")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("scan", help="pipeline per bond-distance file in a directory")
    p.add_argument("input", help="directory of Hamiltonian files named with R values")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("calibrate", help="estimate readout confusion matrices")
    p.add_argument("--noise", required=True, help="'p01,p10'")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--shots", type=int, default=_env("SHOTS", 8000, int),
                   help="calibration shots; 0 = exact matrices")
    p.add_argument("--seed", type=int, default=_env("SEED", 0, int))
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (PauliFormatError, FermionFormatError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
