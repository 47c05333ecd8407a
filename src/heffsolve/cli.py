"""Command-line pipeline: transform, subspace, solve, scan, calibrate.

Every randomized stage draws from an independent stream derived from one
master seed, and identical configurations produce byte-identical result
bundles (wall-clock timings go to a separate ``timing.json`` that is
excluded from that guarantee).  A command computes all of its output before
:func:`_publish` writes any of it, so a failed run leaves no file.  Exit
codes: 0 success, 2 input error, 3 capacity error.

Flags collect text; :func:`_settings` gives each setting of the command being
run its value, from its flag, else ``HEFFSOLVE_<NAME>``, else its default,
through its one parser in ``_SETTINGS``.  A value that its parser, or the
class that takes it, refuses is an input error naming its flag or variable.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
import time
from math import comb
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import TAG_ANNEALING, TAG_RUN, ReadoutNoise, derive_seed
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
from .pauli import PauliFormatError, PauliSum, format_pauli_sum, load_pauli_sum
from .records import Frozen
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
    format_states,
    load_states,
)

CHEMICAL_ACCURACY = 5e-3  # Hartree

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3

#: The most bins ``--dos-bins`` may ask for; each is one line of ``dos.csv``.
MAX_DOS_BINS = 10**6


def _publish(root: Path, files: dict[Path | str, str]) -> None:
    """Write ``files``, ``{path under root: text}``, in order, each to a ``.tmp``
    sibling renamed into place.  The one writer of the output tree, called once
    a command has computed all of its output, so a failure leaves no file."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        finally:  # a write or rename that fails leaves no .tmp behind
            tmp.unlink(missing_ok=True)


def _load_hamiltonian(path: str, fmt: str) -> PauliSum:
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
    # the sector projections would silently drop particle-changing strings
    if fmt != "fermion" and not check_particle_conservation(hamiltonian):
        raise ValueError(f"{path}: the Pauli sum does not conserve particle number")
    with np.errstate(over="ignore"):  # no energy, entry or eigenvalue exceeds sum |w|
        if not np.isfinite(np.abs(hamiltonian.w).sum()):
            raise ValueError(f"{path}: the term magnitudes have a non-finite sum")
    return hamiltonian


class RunConfig(Frozen):
    """Everything a solve/scan run depends on; :meth:`describe` echoes it into
    the manifest.  It holds the objects that check its settings: ``subspace``,
    the ``annealing`` schedule (checked and recorded whatever the strategy) and
    ``backend``, the one for run 0 (a sampled run ``r`` reseeds it from
    ``seed``), so a bad configuration is rejected before any work is done.
    """

    __slots__ = ("input_path", "subspace", "annealing", "backend", "basis_file", "seed",
                 "repeats", "dos_bins", "format")

    def __init__(
        self, input_path: str, subspace: SubspaceSpec, annealing: MonteCarloSearch,
        backend: Backend, basis_file: str | None, seed: int, repeats: int, dos_bins: int,
        format: str,
    ):
        self._set(input_path, subspace, annealing, backend, basis_file, seed, repeats, dos_bins,
                  format)

    @classmethod
    def from_settings(cls, args: argparse.Namespace, values: dict, given: dict) -> "RunConfig":
        """The run of ``args``, whose settings :func:`_settings` gave as ``values`` and ``given``."""
        subspace, annealing = _selection(values, given)
        return cls(
            input_path=args.input, subspace=subspace, annealing=annealing,
            backend=_build(Backend, _BACKEND_FIELDS, values, given), basis_file=args.basis,
            **{name: values[name] for name in ("seed", "repeats", "dos_bins", "format")},
        )

    def describe(self) -> dict:
        subspace, annealing, backend = self.subspace, self.annealing, self.backend
        return {
            "input": self.input_path,
            "particle_number": subspace.particle_number,
            "order": subspace.max_excitation_order,
            "target_size": subspace.target_size if subspace.target_size is not None else "all",
            "basis_file": self.basis_file,
            "strategy": "mc" if subspace.search_strategy == annealing else "exhaustive",
            "mc_steps": annealing.steps,
            "mc_t0": annealing.initial_temperature,
            "mc_cooling": annealing.cooling,
            "backend": backend.kind,
            "shots": backend.shots,
            "seed": self.seed,
            "noise": backend.describe()["noise"],
            "mitigation": backend.mitigation,
            "style": backend.measurement_style,
            "diagonals": "circuit" if backend.measure_diagonals_with_circuits else "classical",
            "repeats": self.repeats,
            "dos_bins": self.dos_bins,
        }


def _select_basis(hamiltonian: PauliSum, config: RunConfig):
    if not config.basis_file:
        return build_subspace(hamiltonian, config.subspace)
    try:
        states = load_states(config.basis_file)
        wanted = (hamiltonian.qubit_count, config.subspace.particle_number)
        outside = [s.bits for s in states if (s.num_qubits, s.particle_number) != wanted]
        if outside or not states:
            raise ValueError(
                f"the basis must be {wanted[0]}-bit states in the --nf {wanted[1]} sector; "
                f"found {outside[0] if outside else 'no state'}"
            )
        return basis_from_states(hamiltonian, states)
    except ValueError as exc:
        raise ValueError(f"{config.basis_file}: {exc}") from None


def _error_rows(heff_values: np.ndarray, exact_values: np.ndarray) -> str:
    lines = ["index,e_heff,e_exact,abs_error,within_chemical_accuracy"]
    for k in range(min(len(heff_values), len(exact_values))):
        err = abs(float(heff_values[k]) - float(exact_values[k]))
        lines.append(
            f"{k},{heff_values[k]:.17g},{exact_values[k]:.17g},{err:.17g},{int(err <= CHEMICAL_ACCURACY)}"
        )
    return "\n".join(lines) + "\n"


def _solve_one(hamiltonian: PauliSum, basis: SubspaceBasis, config: RunConfig, run_index: int,
               exact_values: np.ndarray | None) -> tuple[dict, dict[Path, str]]:
    """Run ``run_index``'s record, and its files keyed by their path in the bundle."""
    backend = config.backend
    if backend.kind == "sampled":
        backend = backend._replace(seed=derive_seed(config.seed, TAG_RUN, run_index))
    heff = build_effective_hamiltonian(hamiltonian, basis, backend)
    spectrum = eigendecompose(heff, compute_vectors=False)
    run = Path(f"run_{run_index:03d}" if config.repeats > 1 else ".")
    files = {
        run / "heff.json": heff_to_json(heff_to_dict(heff)) + "\n",
        run / "spectrum.csv": spectrum_to_csv(spectrum),
        run / "dos.csv": dos_to_csv(dos(spectrum, bin_count=config.dos_bins)),
        run / "basis.txt": format_states(basis.states),
    }
    if exact_values is not None:
        files[run / "error_vs_exact.csv"] = _error_rows(spectrum.eigenvalues, exact_values)
    return {
        "run": run_index,
        "seed": backend.seed,
        "directory": str(run),
        "circuit_counts": heff.circuit_counts.as_dict(),
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
        "ground_energy": spectrum.ground_energy,
    }, files


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
    reference; raises on a bad input or capacity."""
    hamiltonian = _load_hamiltonian(config.input_path, config.format)
    basis = _select_basis(hamiltonian, config)
    if basis.size > MAX_DENSE_DIMENSION:
        raise CapacityError(f"subspace size {basis.size} exceeds the dense limit {MAX_DENSE_DIMENSION}")
    return hamiltonian, basis, _exact_reference(hamiltonian, config.subspace.particle_number)


def _run_solve(
    config: RunConfig, prepared: tuple[PauliSum, SubspaceBasis, np.ndarray | None] | None = None
) -> tuple[dict, list[dict], dict[Path, str]]:
    """Solve one configuration, prepared by :func:`_prepare` unless ``prepared``
    is given; returns the manifest, the per-run records and the bundle's files."""
    started = time.perf_counter()
    hamiltonian, basis, exact_values = prepared if prepared is not None else _prepare(config)
    runs = [_solve_one(hamiltonian, basis, config, r, exact_values) for r in range(config.repeats)]
    records = [record for record, _ in runs]
    files = {name: text for _, run_files in runs for name, text in run_files.items()}
    if config.repeats > 1:
        files[Path("aggregate.csv")] = _aggregate_csv(records, exact_values)
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
    files[Path("manifest.json")] = json.dumps(manifest, sort_keys=True) + "\n"
    files[Path("timing.json")] = json.dumps({"wall_seconds": time.perf_counter() - started}) + "\n"
    return manifest, records, files


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_transform(args) -> int:
    hamiltonian = jw_transform(load_fermion_hamiltonian(args.input))
    _publish(Path(), {args.output: format_pauli_sum(hamiltonian)})
    print(f"wrote {args.output}: {hamiltonian.num_terms} strings, max locality {hamiltonian.max_locality}")
    return EXIT_OK


def _cmd_subspace(args) -> int:
    values, given = _settings(args)
    basis = build_subspace(_load_hamiltonian(args.input, values["format"]), _selection(values, given)[0])
    _publish(Path(), {args.output: format_states(basis.states)})
    print(f"reference {basis.reference.bits}, kept {basis.size} configurations -> {args.output}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    manifest, _, files = _run_solve(RunConfig.from_settings(args, *_settings(args)))
    _publish(Path(args.out), files)
    ground = manifest["runs"][0]["ground_energy"]
    print(f"subspace size {manifest['subspace_size']}, ground energy {ground:.10g}")
    print(f"results in {args.out}")
    return EXIT_OK


_R_PATTERN = r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"  # compiled by the one scan that uses it


def _distance_from_name(stem: str) -> float:
    matches = re.findall(_R_PATTERN, stem)
    if not matches:
        raise ValueError(f"cannot parse a bond distance from file name {stem!r}")
    return float(matches[-1])


def _cmd_scan(args) -> int:
    values, given = _settings(args)
    base, levels = RunConfig.from_settings(args, values, given), values["levels"]
    directory = Path(args.input)
    files = sorted(p for p in directory.iterdir() if p.is_file()) if directory.is_dir() else []
    if not files:
        raise ValueError(f"no Hamiltonian files found in {args.input!r}")
    points = sorted((_distance_from_name(p.stem), p) for p in files)
    # Every point passes its checks before any is solved.
    configs = [base._replace(input_path=str(path)) for _, path in points]
    prepared = [_prepare(config) for config in configs]
    if len({hamiltonian.qubit_count for hamiltonian, _, _ in prepared}) > 1:
        raise ValueError("inconsistent qubit counts across scan files")
    rows, point_manifests, bundle = [], [], {}
    for (distance, path), config, point in zip(points, configs, prepared):
        _, records, point_files = _run_solve(config, point)
        bundle.update((Path(path.stem, name), text) for name, text in point_files.items())
        # the first run's spectrum: spectrum.csv, or run_000/spectrum.csv with --repeats
        rows.append((distance, records[0]["eigenvalues"][:levels]))
        point_manifests.append({"distance": distance, "file": path.name, "directory": path.stem})
    columns = max(len(e) for _, e in rows)
    lines = ["R," + ",".join(f"E{k}" for k in range(columns))]
    for distance, eigs in rows:
        values = ",".join(f"{v:.17g}" for v in eigs)
        lines.append(f"{distance:.17g},{values}")
    bundle[Path("pes.csv")] = "\n".join(lines) + "\n"
    # levels shapes pes.csv only, so each point's manifest is its file's solve's
    manifest = {"command": "scan", "version": __version__,
                "config": {**base.describe(), "levels": levels}, "points": point_manifests}
    bundle[Path("manifest.json")] = json.dumps(manifest, sort_keys=True) + "\n"
    _publish(Path(args.out), bundle)
    print(f"scanned {len(rows)} points -> {Path(args.out) / 'pes.csv'}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    values, _ = _settings(args)
    noise, qubits, seed = values["noise"], values["qubits"], values["seed"]
    if noise is None:
        raise ValueError("--noise is required for calibrate")
    shots = 8000 if values["shots"] is None else values["shots"]
    shots = None if shots == 0 else shots
    calibration = build_calibration(noise, shots, seed, qubits)
    matrices = [[[float(x) for x in row] for row in m] for m in calibration.matrices]
    payload = {"qubits": qubits, "shots": shots, "seed": seed, "matrices": matrices}
    _publish(Path(), {args.output: json.dumps(payload, sort_keys=True) + "\n"})
    print(f"wrote calibration for {qubits} qubits -> {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _parse_noise(text: str) -> ReadoutNoise | None:
    if not text:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected 'p01,p10'")
    return ReadoutNoise(float(parts[0]), float(parts[1]))


def _parse_ns(text: str) -> int | None:
    return None if text == "all" else int(text)


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False, "": False}


def _parse_boolean(text: str) -> bool:
    word = text.strip().lower()
    if word not in _BOOLEANS:
        raise ValueError("expected 1, true, yes, on, 0, false, no or off")
    return _BOOLEANS[word]


def _words(*words: str) -> dict[str, str]:
    return {word: word for word in words}


# Every setting, by its argparse dest: its one parser (a function of the text,
# or a dict from each accepted word to its value), whether HEFFSOLVE_<DEST>
# gives the text when the flag is absent, and its default; None leaves the
# default to the class that takes the setting (Backend, MonteCarloSearch,
# SubspaceSpec), which checks its range.  ``_LEAST`` and ``_MOST`` bound the
# other counts.
_SETTINGS = {
    "nf": (int, False, None),
    "order": (int, True, 2),
    "ns": (_parse_ns, True, None),
    "strategy": (_words("exhaustive", "mc"), True, None),
    "mc_steps": (int, True, None),
    "mc_t0": (float, False, None),
    "mc_cooling": (float, False, None),
    "seed": (int, True, 0),
    "format": (_words("auto", "fermion", "pauli"), False, "auto"),
    "backend": (_words("oracle", "exact", "sampled"), True, None),
    "shots": (int, True, None),
    "noise": (_parse_noise, True, None),
    "mitigate": (_parse_boolean, True, None),
    "style": (_words("direct", "indirect"), True, None),
    "diagonals": ({"classical": False, "circuit": True}, True, None),
    "repeats": (int, True, 1),
    "levels": (int, True, 4),
    "dos_bins": (int, True, 20),
    "qubits": (int, False, None),
}
_LEAST = {"nf": 0, "shots": 0, "repeats": 1, "levels": 1, "dos_bins": 1, "qubits": 1}
_MOST = {"dos_bins": MAX_DOS_BINS}
_BACKEND_FIELDS = {"backend": "kind", "shots": "shots", "noise": "noise", "mitigate": "mitigation",
                   "style": "measurement_style", "diagonals": "measure_diagonals_with_circuits"}
_ANNEALING_FIELDS = {"mc_steps": "steps", "mc_t0": "initial_temperature", "mc_cooling": "cooling"}
_SUBSPACE_FIELDS = {"order": "max_excitation_order", "ns": "target_size"}


def _settings(args: argparse.Namespace) -> tuple[dict, dict]:
    """The value of each setting of the command being run (``args`` holds its
    flags only): the flag's text if given, else ``HEFFSOLVE_<NAME>`` where the
    setting has one, through the setting's parser; else its default.  Also each
    given text's source, ``--flag='text'`` or ``HEFFSOLVE_<NAME>='text'``."""
    values, given = {}, {}
    for name, text in vars(args).items():
        if name not in _SETTINGS:
            continue
        parse, variable, default = _SETTINGS[name]
        source = "--" + name.replace("_", "-")
        if text is None and variable:
            source = "HEFFSOLVE_" + name.upper()
            text = os.environ.get(source)
        if text is None:
            values[name] = default
            continue
        given[name] = f"{source}={text!r}"
        try:
            if isinstance(parse, dict) and text not in parse:
                raise ValueError("expected one of " + ", ".join(parse))
            values[name] = parse[text] if isinstance(parse, dict) else parse(text)
            if name in _LEAST and values[name] < _LEAST[name]:
                raise ValueError(f"must be at least {_LEAST[name]}, got {values[name]}")
            if name in _MOST and values[name] > _MOST[name]:
                raise ValueError(f"must be at most {_MOST[name]}, got {values[name]}")
        except ValueError as exc:
            raise ValueError(f"{given[name]} is not a valid value: {exc}") from None
    return values, given


def _build(cls, fields: dict[str, str], values: dict, given: dict, *args, **keywords):
    """``cls(*args, **keywords)`` plus the set settings of ``fields``; its ValueError names their sources."""
    keywords.update({field: values[name] for name, field in fields.items() if values[name] is not None})
    try:
        return cls(*args, **keywords)
    except ValueError as exc:
        sources = " or ".join(given[name] for name in fields if name in given)
        raise ValueError(f"{sources} is not a valid value: {exc}") from None


def _selection(values: dict, given: dict) -> tuple[SubspaceSpec, MonteCarloSearch]:
    """The basis selection, and the annealing schedule that ``mc`` seeds and searches with."""
    mc = values["strategy"] == "mc"
    # derive_seed loads numpy.random, which an exhaustive solve never needs
    seed = {"seed": derive_seed(values["seed"], TAG_ANNEALING)} if mc else {}
    annealing = _build(MonteCarloSearch, _ANNEALING_FIELDS, values, given, **seed)
    strategy = annealing if mc else ExhaustiveSearch()
    spec = _build(SubspaceSpec, _SUBSPACE_FIELDS, values, given, values["nf"], search_strategy=strategy)
    return spec, annealing


def _add(parser: argparse.ArgumentParser, name: str, **kw) -> None:
    """The flag of setting ``name``; it collects text, which :func:`_settings` parses."""
    parse = _SETTINGS[name][0]
    if isinstance(parse, dict):
        kw["metavar"] = "{" + ",".join(parse) + "}"
    parser.add_argument("--" + name.replace("_", "-"), **kw)


def _add_common(parser: argparse.ArgumentParser, with_backend: bool = True) -> None:
    _add(parser, "nf", required=True, help="electron (particle) number")
    _add(parser, "order", help="maximum excitation order (2 = singles+doubles)")
    _add(parser, "ns", help="subspace size target, an integer or 'all'")
    _add(parser, "strategy", help="reference search strategy")
    for name in ("mc_steps", "mc_t0", "mc_cooling"):
        _add(parser, name)
    _add(parser, "seed", help="master seed; all streams derive from it")
    _add(parser, "format", help="input format (default: sniff)")
    if with_backend:
        parser.add_argument("--basis", help="reuse a fixed basis file")
        _add(parser, "backend")
        _add(parser, "shots")
        _add(parser, "noise", help="readout flip probabilities 'p01,p10'")
        _add(parser, "mitigate", action="store_const", const="on")
        _add(parser, "style")
        _add(parser, "diagonals", help="diagonal entries: classical evaluation or full circuits")
        _add(parser, "repeats", help="independent repetitions (min/max bands)")


# Each command's flags, added to its subparser ``p``; each returns the command's handler.

def _transform_flags(p: argparse.ArgumentParser):
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    return _cmd_transform


def _subspace_flags(p: argparse.ArgumentParser):
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    _add_common(p, with_backend=False)
    return _cmd_subspace


def _solve_flags(p: argparse.ArgumentParser):
    p.add_argument("input")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    _add(p, "dos_bins")
    return _cmd_solve


def _scan_flags(p: argparse.ArgumentParser):
    p.add_argument("input", help="directory of Hamiltonian files named with R values")
    p.add_argument("--out", required=True)
    _add_common(p)
    _add(p, "levels", help="energies per scan point")
    _add(p, "dos_bins")
    return _cmd_scan


def _calibrate_flags(p: argparse.ArgumentParser):
    _add(p, "noise", required=True, help="'p01,p10'")
    _add(p, "qubits", required=True)
    _add(p, "shots", help="calibration shots; 0 = exact matrices")
    _add(p, "seed")
    p.add_argument("-o", "--output", required=True)
    return _cmd_calibrate


#: Each command: its help line, and the function that adds its flags.
_COMMANDS = {
    "transform": ("fermion file -> Pauli-sum file (Jordan-Wigner)", _transform_flags),
    "subspace": ("select and export a basis", _subspace_flags),
    "solve": ("full pipeline on one Hamiltonian file", _solve_flags),
    "scan": ("pipeline per bond-distance file in a directory", _scan_flags),
    "calibrate": ("estimate readout confusion matrices", _calibrate_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, with the flags of ``command`` only, or of
    every command when it is None: a run parses one command's flags, so it
    builds only those."""
    parser = argparse.ArgumentParser(
        prog="heffsolve",
        description="Project a qubit Hamiltonian onto selected basis states via "
                    "simulated measurement circuits and diagonalize classically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if command in (None, name):
            p.set_defaults(func=add_flags(p))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (PauliFormatError, FermionFormatError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> int:
    """The program entry (``python -m heffsolve.cli`` and the ``heffsolve``
    script): :func:`main` on ``sys.argv``, with the import-time heap frozen.

    Frozen objects are left out of every collection, so the interpreter's
    exit no longer walks the ~22k objects the imports made once more.
    :func:`main` itself freezes nothing, so an in-process call leaves the
    caller's collector as it was.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
