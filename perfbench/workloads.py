"""Benchmark workloads: seeded inputs, CLI arguments and output checks.

Each workload is one `sidlattice` CLI command on inputs generated from the
benchmark seed. The seed changes the inputs but not the amount of work:
grid sizes, bin counts and the lattice closure size are fixed by
construction.

The output checks do not call the code under test. Kernels, the
incompatibility kernel and sample points of the expectation series are
recomputed here with plain numpy, as a direct double sum over the grid
without the program's anti-diagonal regrouping. No check compares against
stored bytes: a legitimate regrouping moves roundoff by about 1e-13.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OMEGA_MAX = 20.0
T_MAX = 10.0
N_SAMPLES = 201
EPSILON = 1e-06
SQRT2 = math.sqrt(2.0)
SERIES_CHECK_POINTS = 5
SERIES_RTOL = 1e-10
HS_TOL = 1e-10
MO2_ANGLE_RANGE = (0.2, 1.3)
# Closure size of each two-dimensional block of the lattice workload.
BLOCK_ELEMENTS = {"mo2": 6, "bool": 4}

DEFAULT_SEED = 1
HELD_OUT_SEED = 2


@dataclass(frozen=True)
class Workload:
    """One CLI command at fixed sizes.

    Scenario workloads (emerge, simulate) use ``n_points`` and ``n_bins``;
    ``o1_kernel`` gives O1 a lorentz_band kernel beside its linear diagonal,
    so the kernel-against-kernel commutator term does real work. The lattice
    workload closes one two-dimensional block per entry of ``blocks``.
    """

    name: str
    command: str
    why: str
    n_points: int = 0
    n_bins: int = 0
    o1_kernel: bool = False
    blocks: tuple = ()


WORKLOADS = {w.name: w for w in (
    Workload("emerge-n2048", "emerge",
             "emerge at n=2048 with a diagonal-only O1: kernel builds, "
             "validation and the commutator dominate; the listed workload "
             "that runs the emergence and pointer-lattice stages",
             n_points=2048, n_bins=4),
    Workload("simulate-kk-n2048", "simulate",
             "simulate at n=2048 with kernels on both observables: the "
             "kernel-against-kernel commutator is real work, and the only "
             "run of the simulate command",
             n_points=2048, o1_kernel=True),
    Workload("emerge-bins5-n256", "emerge",
             "emerge at n=256 with 5 bins: the 32-element pointer lattice "
             "and its Boolean check dominate",
             n_points=256, n_bins=5),
    Workload("lattice-mo2-bool-bool", "lattice",
             "lattice closure of non-commuting generators in C^6 (96 "
             "elements, non-Boolean): generic closure and law tables",
             blocks=("mo2", "bool", "bool")),
)}


# The workloads BENCHMARK.json lists. The two lattice-heavy workloads spend
# their time in the Python interpreter, whose speed drifts by 20% and more
# over tens of seconds on a shared 2-core host. Over five seeds, 20-second
# runs of either spread by 0.26-0.29 (quartile distance over median), and
# 40-second runs of emerge-bins5-n256 still by 0.11: above a third of the
# largest allowed bound, 0.25. Longer runs do not fit the time budget of
# 22 runs per workload. Both stay runnable by name for traced and hand-made
# comparisons.
BENCHMARKED = ("emerge-n2048", "simulate-kk-n2048")


def scenario_config(w: Workload, seed: int) -> dict:
    """Scenario JSON for an emerge or simulate workload."""
    o1 = {"diag": {"family": "linear"}}
    if w.o1_kernel:
        o1["kernel"] = {"family": "lorentz_band", "amplitude": 0.5,
                        "gamma": 1.0, "mu": 10.0, "Sigma": 2.0}
    doc = {
        "grid": {"omega_max": OMEGA_MAX, "n_points": w.n_points},
        "state": {
            "diag": {"family": "gaussian", "mu": 10.0, "Sigma": 3.0},
            "kernel": {"family": "random_bandlimited", "amplitude": 1.0,
                       "sigma": SQRT2, "mu": 10.0, "Sigma": 2.0,
                       "seed": int(seed)},
        },
        "observables": {"O1": o1, "O2": {"kernel": {
            "family": "gaussian_band", "amplitude": 1.0, "sigma": SQRT2,
            "mu": 10.0, "Sigma": 2.0}}},
        "time": {"t_max": T_MAX, "n_samples": N_SAMPLES},
        "thresholds": {"decoherence_ratio": math.exp(-1.0),
                       "epsilon": EPSILON, "sustain": 10},
    }
    if w.command == "emerge":
        doc["partition"] = {"n_bins": w.n_bins}
    return doc


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _pairs(vec: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in vec]


def lattice_inputs(w: Workload, seed: int) -> tuple[dict, dict]:
    """Subspace and state documents for the lattice workload.

    Block b spans coordinates 2b and 2b+1. An "mo2" block holds two lines at
    a seed-drawn angle (the non-Boolean 6-element MO2 lattice); a "bool"
    block holds two orthogonal lines (a 4-element Boolean block). A
    seed-drawn Haar rotation of the whole space hides the block structure,
    and the state is a seed-drawn full-rank density matrix.
    """
    rng = np.random.default_rng(seed)
    dim = 2 * len(w.blocks)
    theta = rng.uniform(*MO2_ANGLE_RANGE)
    eye = np.eye(dim)
    lines = []
    for b, kind in enumerate(w.blocks):
        e0, e1 = eye[2 * b], eye[2 * b + 1]
        if kind == "mo2":
            lines += [e0, math.cos(theta) * e0 + math.sin(theta) * e1]
        else:
            lines += [e0, e1]
    u = _haar_unitary(rng, dim)
    subspaces = {"dim": dim, "elements": [[_pairs(u @ v)] for v in lines]}

    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T + 0.1 * np.eye(dim)
    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    state = {"matrix": [_pairs(row) for row in rho]}
    return subspaces, state


def write_inputs(w: Workload, seed: int, workdir: Path) -> list[str]:
    """Write the workload's input files into workdir and return the CLI argv."""
    def dump(name: str, doc: dict) -> str:
        path = workdir / name
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return str(path)

    if w.command == "lattice":
        subspaces, state = lattice_inputs(w, seed)
        return ["lattice", "--in", dump("subspaces.json", subspaces),
                "--state", dump("state.json", state),
                "--report", str(workdir / "report.json")]
    cfg = dump("scenario.json", scenario_config(w, seed))
    if w.command == "simulate":
        return ["simulate", "--config", cfg, "--out", str(workdir / "series.csv")]
    return ["emerge", "--config", cfg, "--report", str(workdir / "report.json"),
            "--series", str(workdir / "series.csv")]


def output_files(w: Workload, workdir: Path) -> list[Path]:
    """Files one CLI call writes, in a fixed order."""
    if w.command == "lattice":
        return [workdir / "report.json"]
    if w.command == "simulate":
        return [workdir / "series.csv"]
    return [workdir / "report.json", workdir / "series.csv"]


# ---------------------------------------------------------------- references

def _family_kernel(nodes: np.ndarray, omega_max: float, spec: dict) -> np.ndarray:
    """Closed-form kernel family sampled on the grid, as documented."""
    nu = nodes[:, None] - nodes[None, :]
    s = 0.5 * (nodes[:, None] + nodes[None, :])
    envelope = np.exp(-0.5 * ((s - spec["mu"]) / spec["Sigma"]) ** 2)
    amplitude = spec.get("amplitude", 1.0)
    family = spec["family"]
    if family == "gaussian_band":
        return amplitude * np.exp(-0.5 * (nu / spec["sigma"]) ** 2) * envelope
    if family == "lorentz_band":
        gamma2 = spec["gamma"] ** 2
        return amplitude * gamma2 / (nu ** 2 + gamma2) * envelope
    if family == "random_bandlimited":
        modes = 6
        rng = np.random.default_rng(spec["seed"])
        phases = np.exp(2j * math.pi * np.outer(nodes / omega_max, np.arange(modes)))
        coeff = rng.standard_normal((modes, modes)) \
            + 1j * rng.standard_normal((modes, modes))
        coeff = 0.5 * (coeff + coeff.conj().T)
        mix = phases @ coeff @ phases.conj().T / modes
        mix = 0.5 * (mix + mix.conj().T)
        return amplitude * mix * np.exp(-0.5 * (nu / spec["sigma"]) ** 2) * envelope
    raise ValueError(f"no reference for kernel family {family!r}")


def _diag(nodes: np.ndarray, doc) -> np.ndarray:
    if doc is None:
        return np.zeros_like(nodes)
    if doc["family"] == "linear":
        return doc.get("amplitude", 1.0) * nodes
    raise ValueError(f"no reference for diagonal family {doc['family']!r}")


def reference_series(cfg: dict, times: np.ndarray) -> np.ndarray:
    """<D(t)> as the direct double sum spacing^2 * phi^H (conj(rho_K) o D_K) phi.

    phi_l = exp(-i omega_l t), and D_K is -i times the commutator kernel
    (d1(w) - d1(w')) K2 - (d2(w) - d2(w')) K1 + spacing (K1 K2 - K2 K1).
    """
    n = cfg["grid"]["n_points"]
    omega_max = cfg["grid"]["omega_max"]
    spacing = omega_max / n
    nodes = (np.arange(n) + 0.5) * spacing
    obs = cfg["observables"]
    zero = np.zeros((n, n))
    k1, k2 = ((_family_kernel(nodes, omega_max, o["kernel"]) if "kernel" in o else zero)
              for o in (obs["O1"], obs["O2"]))
    d1, d2 = (_diag(nodes, o.get("diag")) for o in (obs["O1"], obs["O2"]))
    comm = (d1[:, None] - d1[None, :]) * k2 - (d2[:, None] - d2[None, :]) * k1
    comm = comm + spacing * (k1 @ k2 - k2 @ k1)
    rho_k = _family_kernel(nodes, omega_max, cfg["state"]["kernel"])
    weights = np.conjugate(rho_k) * (-1j * comm)
    out = np.empty(times.size, dtype=np.complex128)
    for j, t in enumerate(times):
        phi = np.exp(-1j * nodes * t)
        out[j] = spacing ** 2 * (np.conjugate(phi) @ weights @ phi)
    return out


# -------------------------------------------------------------------- checks

def read_series_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) from a `t,re,im,abs` CSV; raises ValueError if malformed."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["t", "re", "im", "abs"]:
        raise ValueError("series CSV header is not t,re,im,abs")
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    if data.ndim != 2 or data.shape[1] != 4:
        raise ValueError("series CSV rows must have four columns")
    return data[:, 0], data[:, 1] + 1j * data[:, 2]


def check_series(cfg: dict, times: np.ndarray, values: np.ndarray) -> list[str]:
    """Compare a written series against the direct double sum at a few times."""
    n_samples = cfg["time"]["n_samples"]
    if times.shape != (n_samples,):
        return [f"series has {times.size} samples, expected {n_samples}"]
    expected_times = np.linspace(0.0, cfg["time"]["t_max"], n_samples)
    if np.max(np.abs(times - expected_times)) > 1e-12:
        return ["series sample times differ from linspace(0, t_max, n_samples)"]
    picks = np.linspace(0, n_samples - 1, SERIES_CHECK_POINTS).round().astype(int)
    expected = reference_series(cfg, times[picks])
    scale = abs(expected[0])
    err = float(np.max(np.abs(values[picks] - expected)))
    if not err <= SERIES_RTOL * scale:
        return [f"series differs from the direct double sum by {err:.3e} "
                f"(limit {SERIES_RTOL:g} * |D(0)| = {SERIES_RTOL * scale:.3e})"]
    return []


def check_emerge_report(report: dict) -> list[str]:
    problems = []
    if report.get("verdict") != "BOOLEANIZED":
        problems.append(f"verdict is {report.get('verdict')!r}, expected BOOLEANIZED")
    if report.get("pointer_lattice_boolean") is not True:
        problems.append("pointer_lattice_boolean is not true")
    drift = abs(report["hs_norm_final"] - report["hs_norm_initial"])
    if not drift <= HS_TOL:
        problems.append(f"HS norm drifted by {drift:.3e} (limit {HS_TOL:g})")
    return problems


def check_lattice_report(w: Workload, report: dict) -> list[str]:
    n_expected = math.prod(BLOCK_ELEMENTS[b] for b in w.blocks)
    expected = {
        "closed": True,
        "n_elements": n_expected,
        "boolean": "mo2" not in w.blocks,
    }
    problems = [f"{key} is {report.get(key)!r}, expected {value!r}"
                for key, value in expected.items() if report.get(key) != value]
    if not (report.get("laws") or {}).get("all_pass"):
        problems.append("laws.all_pass is not true")
    pairs = (report.get("kolmogorov") or {}).get("pairs_checked")
    if pairs != n_expected * (n_expected + 1) // 2:
        problems.append(f"kolmogorov.pairs_checked is {pairs!r}, expected "
                        f"{n_expected * (n_expected + 1) // 2}")
    return problems


def check_outputs(w: Workload, seed: int, workdir: Path) -> list[str]:
    """Every problem found in the outputs of one CLI call (empty when correct)."""
    try:
        if w.command == "lattice":
            report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
            return check_lattice_report(w, report)
        problems = []
        if w.command == "emerge":
            report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
            problems += check_emerge_report(report)
        times, values = read_series_csv(workdir / "series.csv")
        return problems + check_series(scenario_config(w, seed), times, values)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"outputs unreadable: {exc!r}"]
