"""Scenario-driven command line: simulate, lattice, emerge, oracle.

Configuration is a single JSON document (schema in the README). Output
formats are stable: CSV files always carry the header ``t,re,im,abs`` with
17-significant-digit values and LF line endings, JSON reports are emitted
with sorted keys. Exit codes: 0 success, 2 config error (or an output that
cannot be written), 3 window guard, 4 lattice-law failure, 5 degenerate premise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ._blas import blas_threads
from .emergence import BinPartition, PointerAlgebra, Verdict, require_epsilon, run_emergence
from .engine import (
    ANALYTIC_FORMS,
    DEFAULT_SUSTAIN,
    DEFAULT_THRESHOLD_RATIO,
    analytic_decay,
    expectation_series,
    incompatibility_observable,
    reduced_width,
    require_thresholds,
    require_window,
)
from .errors import ConfigError, LatticeTooLarge, SidLatticeError, UnsupportedFamily, WindowExceeded
from .lattice import (
    DEFAULT_MAX_ELEMENTS,
    DensityState,
    Subspace,
    check_lattice_laws,
    compatibility_matrix,
    from_vectors,
    generate_lattice,
    is_boolean,
    kolmogorov_check,
)
from .spectral import (
    MAX_GRID_POINTS,
    DiagonalPart,
    FrequencyGrid,
    KernelFamilySpec,
    RegularKernel,
    VanHoveObservable,
    VanHoveState,
    build_kernel,
    make_grid,
)
from .settings import default_tol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_WINDOW = 3
EXIT_LAWS = 4
EXIT_DEGENERATE = 5

DIAG_FAMILIES = ("linear", "constant", "gaussian", "zero")
# Guard on time.n_samples before any kernel is built; with the grid caps it bounds the series
MAX_SAMPLES = 1_000_000
# Grid cap unless both observables carry a kernel (M = K1 K2 is n x n): none is stored
MAX_MADE_GRID_POINTS = 16384
# Caps on --max-elements and the subspace dim, from the closure's measured time (README)
MAX_LATTICE_ELEMENTS = 512
MAX_LATTICE_DIM = 256


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return doc


def _require_output_dir(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"output directory {parent} does not exist (for {path})")
    if os.path.isdir(path):
        raise ConfigError(f"output path {path} is a directory")


@contextlib.contextmanager
def _output(path: str):
    """The output file, opened for text with LF endings; an OSError opening, writing or closing
    it (a full disk, say) exits 2 with one line."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_csv(fh, times, values) -> None:
    """The header t,re,im,abs, then one row per sample, each passed on to fh by itself: every
    number as float(x) formatted with .17g, one %-format per row (four calls fewer)."""
    fh.write("t,re,im,abs\n")
    fh.writelines("%.17g,%.17g,%.17g,%.17g\n" % (t, v.real, v.imag, abs(v))
                  for t, v in zip(times, values))


def _write_json(path: str, doc: dict) -> None:
    with _output(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cfg_get(doc: dict, key: str, kind, what: str, default=...):  # ...: the key is required
    if key not in doc:
        if default is ...:
            raise ConfigError(f"missing {what} key {key!r}")
        return default
    value = doc[key]
    if kind is float and _is_number(value):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind in (dict, list, str) and isinstance(value, kind):
        return value
    raise ConfigError(f"{what} key {key!r} must be a {kind.__name__}")


def _is_number(value) -> bool:
    """A JSON number that float() takes: not a bool, not an int past 1.8e308."""
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float)


def _build_diag(grid: FrequencyGrid, doc: Optional[dict], what: str) -> DiagonalPart:
    if doc is None:
        return DiagonalPart.zeros(grid)
    where = f"{what} diag"
    family = doc.get("family")
    amplitude = _cfg_get(doc, "amplitude", float, where, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # DiagonalPart rejects inf, nan
        if "samples" in doc:
            samples = _cfg_get(doc, "samples", list, where)
            if len(samples) != grid.n_points or not all(map(_is_number, samples)):
                raise ConfigError(f"{where} samples must list {grid.n_points} numbers")
            values = np.asarray(samples, dtype=np.float64)
        elif family == "linear":
            values = amplitude * grid.nodes
        elif family == "constant":
            values = amplitude * np.ones(grid.n_points)
        elif family == "zero":
            return DiagonalPart.zeros(grid)
        elif family == "gaussian":
            mu = _cfg_get(doc, "mu", float, f"{what} gaussian diag")
            width = _cfg_get(doc, "Sigma", float, f"{what} gaussian diag")
            if not width > 0:
                raise ConfigError(f"{what} gaussian diag needs Sigma > 0")
            values = amplitude * np.exp(-0.5 * ((grid.nodes - mu) / width) ** 2)
        else:
            raise ConfigError(
                f"{what} diag family must be one of {DIAG_FAMILIES} or explicit samples")
    # a family sampled to zero; the state's quadrature check names its own
    if "samples" not in doc and what != "state" and amplitude != 0.0 and not np.any(values):
        raise ConfigError(f"{where} samples to zero on the grid")
    try:
        return DiagonalPart(grid, values)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _build_kernel(grid: FrequencyGrid, doc: Optional[dict], what: str) -> RegularKernel:
    if doc is None:
        return RegularKernel.absent(grid)
    for key in ("amplitude", "sigma", "gamma", "mu", "Sigma"):  # seed: the spec's int rule
        _cfg_get(doc, key, float, f"{what} kernel", None)
    try:
        spec = KernelFamilySpec.from_json(doc)
    except (UnsupportedFamily, ValueError, TypeError) as exc:
        raise ConfigError(f"{what} kernel spec invalid: {exc}") from exc
    try:
        return build_kernel(grid, spec)
    except ValueError as exc:
        # samples that overflow, e.g. from a huge amplitude
        raise ConfigError(f"{what} kernel invalid: {exc}") from exc


def _build_observable(grid: FrequencyGrid, doc: dict, what: str) -> VanHoveObservable:
    diag = _build_diag(grid, _cfg_get(doc, "diag", dict, what, None), what)
    kernel = _build_kernel(grid, _cfg_get(doc, "kernel", dict, what, None), what)
    if kernel.present and kernel.is_zero:
        raise ConfigError(f"{what} kernel samples to zero on the grid")
    try:
        return VanHoveObservable(diag, kernel)
    except ValueError as exc:
        raise ConfigError(f"{what} is not a valid observable: {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    grid: FrequencyGrid
    rho: VanHoveState
    o1: VanHoveObservable
    o2: VanHoveObservable
    t_max: float
    n_samples: int
    decoherence_ratio: float
    epsilon: Optional[float]
    sustain: int
    partition: Optional[BinPartition]
    outputs: dict


def _resolve_outputs(doc: dict, outputs: dict) -> dict:
    out_doc = _cfg_get(doc, "output", dict, "config", {})
    configured = {key: _cfg_get(out_doc, key, str, "output", None)
                  for key in ("series", "report")}
    resolved = {}
    for name, cli_path in outputs.items():
        path = cli_path or configured[name]
        if not path:
            raise ConfigError(
                f"no {name} output path: give it on the command line or as output.{name}")
        _require_output_dir(path)
        resolved[name] = path
    return resolved


def load_scenario(path: str, need_partition: bool, outputs: dict) -> Scenario:
    """Read and validate a scenario config, building its kernels last.

    ``outputs`` maps each file the command writes ("series", "report") to
    its command-line path or None, which falls back to the config's output
    block. Every output path must exist in name and directory before any
    kernel is built, so a bad path costs no numeric work.
    """
    doc = _load_json(path, "config")
    grid_doc = _cfg_get(doc, "grid", dict, "config")
    obs_doc = _cfg_get(doc, "observables", dict, "config")
    o1_doc, o2_doc = (_cfg_get(obs_doc, name, dict, "observables") for name in ("O1", "O2"))
    try:  # the grid cap is the smaller when both observables carry a kernel
        grid = make_grid(_cfg_get(grid_doc, "omega_max", float, "grid"),
                         _cfg_get(grid_doc, "n_points", int, "grid"),
                         MAX_GRID_POINTS if "kernel" in o1_doc and "kernel" in o2_doc
                         else MAX_MADE_GRID_POINTS)
    except (SidLatticeError, ValueError) as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc

    time_doc = _cfg_get(doc, "time", dict, "config")
    t_max = _cfg_get(time_doc, "t_max", float, "time")
    n_samples = _cfg_get(time_doc, "n_samples", int, "time")
    if n_samples > MAX_SAMPLES:
        raise ConfigError(f"n_samples must be in [2, {MAX_SAMPLES}], got {n_samples}")
    thr_doc = _cfg_get(doc, "thresholds", dict, "config", {})
    ratio = _cfg_get(thr_doc, "decoherence_ratio", float, "thresholds", DEFAULT_THRESHOLD_RATIO)
    sustain = _cfg_get(thr_doc, "sustain", int, "thresholds", DEFAULT_SUSTAIN)
    epsilon = _cfg_get(thr_doc, "epsilon", float, "thresholds", None)
    if need_partition and epsilon is None:
        raise ConfigError("emerge needs thresholds.epsilon")
    partition = None
    try:  # the library's own guards, before any kernel is built; WindowExceeded exits 3
        if need_partition:
            part = _cfg_get(doc, "partition", dict, "config")
            partition = BinPartition.equal_bins(
                grid, _cfg_get(part, "n_bins", int, "partition", 4))
            PointerAlgebra(partition)  # its cap, so an over-fine partition costs nothing
        require_window(grid, t_max, n_samples)
        require_thresholds(ratio, sustain)
        if epsilon is not None:
            require_epsilon(epsilon)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    resolved = _resolve_outputs(doc, outputs)

    state_doc = _cfg_get(doc, "state", dict, "config")
    diag = _build_diag(grid, _cfg_get(state_doc, "diag", dict, "state", None), "state")
    kernel = _build_kernel(grid, _cfg_get(state_doc, "kernel", dict, "state", None), "state")
    try:
        rho = VanHoveState.normalized(diag, kernel)
    except ValueError as exc:
        raise ConfigError(f"invalid state: {exc}") from exc
    o1, o2 = _build_observable(grid, o1_doc, "O1"), _build_observable(grid, o2_doc, "O2")

    return Scenario(
        grid=grid, rho=rho, o1=o1, o2=o2, t_max=t_max, n_samples=n_samples,
        decoherence_ratio=ratio, epsilon=epsilon, sustain=sustain,
        partition=partition, outputs=resolved,
    )


@contextlib.contextmanager
def _evaluating():
    """A ValueError of the numeric run exits 2 with one line and no warning: an unbounded D,
    the series and the HS norms are checked finite, so an overflow there is one of these."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except ValueError as exc:
        raise ConfigError(f"cannot evaluate the scenario: {exc}") from exc


def run_simulate(config_path: str, out_path: Optional[str]) -> int:
    scenario = load_scenario(config_path, need_partition=False,
                             outputs={"series": out_path})
    with _evaluating():
        incompat = incompatibility_observable(scenario.o1, scenario.o2)
        series = expectation_series(scenario.rho, incompat, scenario.t_max, scenario.n_samples)
    with _output(scenario.outputs["series"]) as fh:
        _write_csv(fh, series.times, series.values)
    return EXIT_OK


def _complex_pairs(pairs, n: int, what: str) -> list[complex]:
    """A list of n [re, im] pairs of JSON numbers as complex values."""
    if not (isinstance(pairs, list) and len(pairs) == n and all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) for p in pairs)):
        raise ConfigError(f"{what} needs {n} [re, im] pairs of numbers")
    return [complex(re, im) for re, im in pairs]


def _parse_subspaces(doc: dict) -> tuple[int, list[Subspace]]:
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ConfigError(f"dim must be a positive integer, got {dim!r}")
    if dim > MAX_LATTICE_DIM:
        raise ConfigError(f"dim={dim} exceeds the lattice cap {MAX_LATTICE_DIM}")
    spaces = []
    for k, vectors in enumerate(_cfg_get(doc, "elements", list, "subspace document")):
        if not isinstance(vectors, list):
            raise ConfigError(f"element {k} must be a list of column vectors")
        cols = [_complex_pairs(vec, dim, f"element {k}: each column vector") for vec in vectors]
        try:
            spaces.append(from_vectors(dim, cols))
        except ValueError as exc:
            raise ConfigError(f"element {k}: {exc}") from exc
    return dim, spaces


def _parse_state(path: str, dim: int) -> DensityState:
    rows = _cfg_get(_load_json(path, "state document"), "matrix", list, "state document")
    if len(rows) != dim:
        raise ConfigError(f"state matrix must be {dim} x {dim}, got {len(rows)} rows")
    mat = [_complex_pairs(row, dim, f"state matrix row {i}") for i, row in enumerate(rows)]
    try:
        return DensityState(mat)
    except ValueError as exc:
        raise ConfigError(f"invalid density state: {exc}") from exc


def run_lattice(input_path: str, state_path: Optional[str], report_path: str,
                max_elements: int) -> int:
    if not 2 <= max_elements <= MAX_LATTICE_ELEMENTS:
        raise ConfigError(f"--max-elements must be at least 2 and at most "
                          f"{MAX_LATTICE_ELEMENTS}, got {max_elements}")
    _require_output_dir(report_path)
    doc = _load_json(input_path, "subspace document")
    dim, seeds = _parse_subspaces(doc)
    state = None if state_path is None else _parse_state(state_path, dim)
    report: dict = {"dim": dim, "input_elements": len(seeds), "laws": None, "boolean": None,
                    "compatibility_matrix": None, "kolmogorov": None}
    try:
        lat = generate_lattice(seeds, max_elements=max_elements, ambient_dim=dim)
    except LatticeTooLarge as exc:
        # the closure refuses a new element only once it holds max_elements
        report.update(n_elements=max_elements, closed=False, error=str(exc))
        _write_json(report_path, report)
        print(f"lattice closure exceeded {max_elements} elements; "
              "laws not certified", file=sys.stderr)
        return EXIT_LAWS

    laws = check_lattice_laws(lat)
    report.update(n_elements=len(lat), closed=True, laws=laws, boolean=is_boolean(lat),
                  compatibility_matrix=compatibility_matrix(lat).tolist(),
                  kolmogorov=None if state is None else asdict(kolmogorov_check(state, lat)))
    _write_json(report_path, report)
    if not laws["all_pass"]:
        failing = [k for k, v in laws.items()
                   if k != "all_pass" and not v["pass"]]
        print(f"lattice law suite failed: {failing}", file=sys.stderr)
        return EXIT_LAWS
    return EXIT_OK


def run_emerge(config_path: str, report_path: Optional[str],
               series_path: Optional[str]) -> int:
    scenario = load_scenario(config_path, need_partition=True,
                             outputs={"report": report_path, "series": series_path})
    with _evaluating():
        report = run_emergence(
            scenario.rho, scenario.o1, scenario.o2, scenario.partition,
            scenario.t_max, scenario.n_samples, scenario.epsilon,
            threshold_ratio=scenario.decoherence_ratio, sustain=scenario.sustain)
    _write_json(scenario.outputs["report"], report.to_json_dict())
    with _output(scenario.outputs["series"]) as fh:
        _write_csv(fh, report.series.times, report.series.values)
    if report.verdict is Verdict.DEGENERATE:
        print("degenerate premise: the observables already commute",
              file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def run_oracle(family: str, params_json: str, t_list: str) -> int:
    try:
        params = json.loads(params_json)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params is not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise ConfigError("--params must be a JSON object")
    not_numbers = sorted(k for k, v in params.items() if not _is_number(v))
    if not_numbers:
        raise ConfigError(f"--params values must be numbers: {not_numbers}")
    try:
        times = np.array([float(x) for x in t_list.split(",") if x.strip() != ""])
    except ValueError as exc:
        raise ConfigError(f"--t must be a comma-separated list of times: {exc}") from exc
    if times.size == 0:
        raise ConfigError("--t must name at least one time")
    if not np.all(np.isfinite(times)):
        raise ConfigError("--t times must be finite")

    if family not in ANALYTIC_FORMS:
        raise ConfigError(
            f"oracle family must be gaussian_band or lorentz_band, got {family!r}")
    kind, width = ANALYTIC_FORMS[family]
    if f"{width}_c" in params:
        rate = float(params[f"{width}_c"])
    elif f"{width}1" in params and f"{width}2" in params:
        widths = [float(params[f"{width}{i}"]) for i in (1, 2)]
        if not all(w > 0 for w in widths):
            raise ConfigError(f"widths {width}1, {width}2 must be positive, got {widths}")
        rate = reduced_width(kind, *widths)
    else:
        raise ConfigError(f"{family} oracle needs {width}_c or {width}1+{width}2")
    if not 0 < rate < np.inf:
        raise ConfigError(f"decay rate must be positive, got {rate}")

    _write_csv(sys.stdout, times, analytic_decay(kind, rate, times))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidlattice",
        description="Commutator decay of van Hove observables and Boolean "
                    "property-lattice diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="sample <D(t)> and write a CSV series")
    p_sim.add_argument("--config", required=True, help="scenario config JSON")
    p_sim.add_argument("--out", help="CSV output path (falls back to output.series)")
    p_sim.set_defaults(run=lambda a: run_simulate(a.config, a.out))

    p_lat = sub.add_parser("lattice", help="close a subspace set and check lattice laws")
    p_lat.add_argument("--in", dest="input", required=True, help="subspace JSON document")
    p_lat.add_argument("--state", help="optional density state JSON for Kolmogorov residuals")
    p_lat.add_argument("--report", required=True, help="JSON report path")
    p_lat.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS,
                       help=f"closure cap, 2 to {MAX_LATTICE_ELEMENTS} (default %(default)s)")
    p_lat.set_defaults(run=lambda a: run_lattice(a.input, a.state, a.report, a.max_elements))

    p_em = sub.add_parser("emerge", help="full emergence run: report JSON plus series CSV")
    p_em.add_argument("--config", required=True, help="scenario config JSON")
    p_em.add_argument("--report", help="report path (falls back to output.report)")
    p_em.add_argument("--series", help="series CSV path (falls back to output.series)")
    p_em.set_defaults(run=lambda a: run_emerge(a.config, a.report, a.series))

    p_or = sub.add_parser("oracle", help="closed-form decay samples for test harnesses")
    p_or.add_argument("--family", required=True, help="gaussian_band or lorentz_band")
    p_or.add_argument("--params", required=True,
                      help='JSON, e.g. {"sigma_c": 1.0} or {"gamma1": ..., "gamma2": ...}')
    p_or.add_argument("--t", required=True, help="comma-separated times")
    p_or.set_defaults(run=lambda a: run_oracle(a.family, a.params, a.t))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        default_tol()
    except ValueError as exc:
        # read once here, before any validation, so the message names it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # a run that fails prints its error line alone; one that succeeds, each warning
    # (an envelope leak) as one line after its work
    with warnings.catch_warnings(record=True) as caught:
        try:
            with blas_threads(1):  # the pool only where engine raises it, for its large products
                code = args.run(args)
        except SidLatticeError as exc:  # a window overrun, else a config or domain precondition
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_WINDOW if isinstance(exc, WindowExceeded) else EXIT_CONFIG
    if code == EXIT_OK:
        for caught_warning in caught:
            print(f"warning: {caught_warning.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
