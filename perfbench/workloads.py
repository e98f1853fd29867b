"""Workload inputs drawn from a seed, the jobs they make, and their checks.

Every workload is a closed loop: one caller runs its job list in order and
starts a job only after the previous one has returned.  The seed draws
(a, b, m, omega) inside each named tau regime; the decay constant
c = m^2 - omega^2 is held fixed, so every grid's node count (all of them
scale with 1/sqrt(c)) is the same for every seed.  A new seed changes the
physics, not the amount of work.

Each job's ``check`` runs outside the timed region.  It raises
:class:`CheckFailed` when the output is wrong and otherwise returns a digest
of the output that must repeat exactly from pass to pass (or ``None`` when
there is nothing to compare).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from kgstab import cli, evolve, spectrum
from kgstab.model import ModelParams

WORKLOADS = ("spectrum", "evolve", "analysis")

# tau ranges of the three regimes: tau >= tau_star (all stable),
# 1 < tau < tau_star (mixed window) and tau < 1.  The two lower ranges stay
# inside the region where the shipped k2 rule and the finite-difference
# oracle disagree, so `classify` with the oracle refuses there for every seed.
REGIMES = {
    "stable": (1.5, 3.0),
    "mixed": (1.03, 1.12),
    "subunit": (0.90, 0.98),
}
DECAY = 0.19  # c = m^2 - omega^2; omega = 0.9 at m = 1

# spectrum: grid, eigenpair count and the checks' tolerances
SPECTRUM_STEP = 0.02
SPECTRUM_K = 4
EIGENVALUE_TOL = 1e-8        # bisection runs to 1e-10
KERNEL_MATCH_FLOOR = 0.9999  # cosine of eigenvector against R or R'

# evolve: grids and the conservation bounds of the checks
EVOLVE_DX = 0.02
EVOLVE_DT = 0.01
PERTURB_EPS = 1e-3
ENERGY_DRIFT_MAX = 1e-6
CHARGE_DRIFT_MAX = 1e-9

# analysis
TAU_STAR = 1.134618332903044
TAU_STAR_TOL = 1e-9
SIGMA_GAP_LIMIT = 1e-6
SWEEP_N = 20000
REFUSAL_TAG = "kgstab: oracle-disagreement:"


class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclass(frozen=True)
class Wave:
    """A standing wave: model coefficients and frequency."""

    a: float
    b: float
    m: float
    omega: float

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.a, self.b, self.m)

    def argv(self) -> list[str]:
        return ["--a", repr(self.a), "--b", repr(self.b), "--m", repr(self.m)]


@dataclass(frozen=True)
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], object]


def draw_wave(rng: random.Random, regime: str) -> Wave:
    tau = rng.uniform(*REGIMES[regime])
    m = rng.uniform(0.9, 1.1)
    a = rng.uniform(0.8, 1.2)
    return Wave(a=a, b=tau * a * a / (2.0 * m * m), m=m,
                omega=math.sqrt(m * m - DECAY))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- spectrum --------------------------------------------------------------

def _spectrum_job(name: str, wave: Wave) -> Job:
    p = wave.params

    def call():
        return spectrum.spectral_report(p, wave.omega, SPECTRUM_STEP,
                                        k=SPECTRUM_K)

    def check(report):
        from scipy.linalg import eigh_tridiagonal

        for kind, values, match in (
                ("lplus", report.lplus_eigenvalues, report.lplus_kernel_match),
                ("lminus", report.lminus_eigenvalues,
                 report.lminus_kernel_match)):
            op = spectrum.assemble(p, wave.omega, SPECTRUM_STEP, kind=kind)
            ref = eigh_tridiagonal(op.diagonal, op.off_diagonal,
                                   eigvals_only=True, select="i",
                                   select_range=(0, SPECTRUM_K - 1))
            _require(len(values) == SPECTRUM_K,
                     f"{kind}: {len(values)} eigenvalues, want {SPECTRUM_K}")
            gap = max(abs(v - r) for v, r in zip(values, ref))
            _require(gap <= EIGENVALUE_TOL,
                     f"{kind}: eigenvalues off LAPACK by {gap:.3e}")
            _require(match >= KERNEL_MATCH_FLOOR,
                     f"{kind}: kernel match {match!r} below floor")
        _require(report.negative_count_lplus == 1,
                 f"negative_count_lplus={report.negative_count_lplus}")
        _require(report.negative_count_lminus == 0,
                 f"negative_count_lminus={report.negative_count_lminus}")
        return None

    return Job(name, call, check)


# -- evolve ----------------------------------------------------------------

def _evolve_job(name: str, wave: Wave, perturbation: str, t_final: float,
                sample_every: int) -> Job:
    p = wave.params
    n_samples = math.ceil(round(t_final / EVOLVE_DT) / sample_every) + 1

    def call():
        return evolve.run(p, wave.omega, perturbation, t_final,
                          sample_every=sample_every, step_x=EVOLVE_DX,
                          step_t=EVOLVE_DT)

    def check(diag):
        _require(not diag.truncated, f"truncated at t={diag.truncation_time}")
        _require(len(diag.times) == n_samples,
                 f"{len(diag.times)} samples, want {n_samples}")
        _require(abs(diag.times[-1] - t_final) < 0.5 * EVOLVE_DT,
                 f"ended at t={diag.times[-1]!r}, want {t_final!r}")
        for series in (diag.times, diag.energy, diag.charge,
                       diag.orbital_distance, diag.sup_amplitude):
            _require(all(math.isfinite(v) for v in series),
                     "non-finite diagnostic value")
        summary = diag.summary()
        _require(summary["relative_energy_drift"] < ENERGY_DRIFT_MAX,
                 f"energy drift {summary['relative_energy_drift']:.3e}")
        _require(summary["relative_charge_drift"] < CHARGE_DRIFT_MAX,
                 f"charge drift {summary['relative_charge_drift']:.3e}")
        return None

    return Job(name, call, check)


# -- analysis --------------------------------------------------------------

_MATCHERS = {
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool) and math.isfinite(v)),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
    "null": lambda v: v is None,
}


def validate(obj, schema: dict, path: str = "payload") -> None:
    """Check ``obj`` against the restricted schema dialect of cli.SCHEMAS."""
    kinds = schema.get("type")
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if not any(_MATCHERS[k](obj) for k in kinds):
        raise CheckFailed(f"{path}: {obj!r:.60} is not of type {kinds}")
    if isinstance(obj, dict):
        for key in schema.get("required", ()):
            if key not in obj:
                raise CheckFailed(f"{path}: missing key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                validate(obj[key], sub, f"{path}.{key}")
    elif isinstance(obj, list) and "items" in schema:
        for i, item in enumerate(obj):
            validate(item, schema["items"], f"{path}[{i}]")


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_tiling(payload: dict) -> None:
    window = payload["omega_window"]
    bounds = [window["omega_star"]]
    for interval in payload["intervals"]:
        lo, hi = interval["lo"], interval["hi"]
        _require(lo == bounds[-1] and lo < hi,
                 f"interval {interval} does not continue the tiling")
        _require(interval["verdict"] in ("stable", "unstable"),
                 f"verdict {interval['verdict']!r}")
        bounds.append(hi)
    _require(bounds[-1] == window["m"], "intervals stop short of m")


def _check_tau_star(payload: dict, wave: Wave) -> None:
    _require(abs(payload["tau_star"] - TAU_STAR) <= TAU_STAR_TOL,
             f"tau_star={payload['tau_star']!r}")


def _check_classify(payload: dict, wave: Wave) -> None:
    _require(payload["params"] == {"a": wave.a, "b": wave.b, "m": wave.m},
             "params not echoed")
    _check_tiling(payload)


def _check_sigma(payload: dict, wave: Wave) -> None:
    _require(payload["sigma_closed"] > 0.0, "sigma_closed not positive")
    _require("relative_gap" in payload, "sigma --check gave no gap")
    _require(payload["relative_gap"] < SIGMA_GAP_LIMIT,
             f"sigma gap {payload['relative_gap']:.3e}")


def _check_sweep(payload: dict, wave: Wave) -> None:
    window = wave.params.window
    rows = payload["rows"]
    _require(payload["n"] == SWEEP_N and len(rows) == SWEEP_N,
             f"sweep has {len(rows)} rows, want {SWEEP_N}")
    omegas = [row["omega"] for row in rows]
    _require(window.omega_star < omegas[0]
             and all(x < y for x, y in zip(omegas, omegas[1:]))
             and omegas[-1] < window.m, "sweep rows out of order or window")
    _require(all(row["d2_sign"] in (-1, 0, 1) for row in rows), "bad d2_sign")


def _cli_job(name: str, argv: list[str], wave: Wave, check_payload,
             may_refuse: bool = False) -> Job:
    """A `kgstab ... --json` call.  ``may_refuse`` marks the oracle-checked
    inputs where refusing with exit 4 is the documented behaviour."""
    command = argv[0]
    checked = set()  # digests of payloads that already passed

    def check(result):
        code, out, err = result
        if may_refuse and code == 4:
            _require(err.startswith(REFUSAL_TAG),
                     f"exit 4 without tag: {err!r}")
            return _digest(f"4\n{err}")
        _require(code == 0, f"exit {code}: {err.strip()!r:.200}")
        envelope = json.loads(out)
        payload = envelope["payload"]
        digest = _digest(json.dumps(payload))
        if digest not in checked:
            _require(envelope["command"] == command,
                     "wrong command in envelope")
            validate(payload, cli.SCHEMAS[command])
            check_payload(payload, wave)
            checked.add(digest)
        return digest

    return Job(name, lambda: _run_cli(argv), check)


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass over ``workload`` with inputs from ``seed``."""
    rng = random.Random(seed)
    waves = {regime: draw_wave(rng, regime) for regime in REGIMES}
    if workload == "spectrum":
        return [_spectrum_job(f"spectrum-{regime}", wave)
                for regime, wave in waves.items()]
    if workload == "evolve":
        dense = draw_wave(rng, "stable")
        eps = PERTURB_EPS
        return [
            _evolve_job("coarse-stable-scale", waves["stable"],
                        f"scale:{eps}", 50.0, 50),
            _evolve_job("coarse-mixed-bump", waves["mixed"],
                        f"bump:{eps}", 50.0, 50),
            _evolve_job("dense-stable-scale", dense, f"scale:{eps}", 10.0, 5),
        ]
    if workload == "analysis":
        stable, mixed = waves["stable"], waves["mixed"]
        return [
            _cli_job("tau-star", ["tau-star", "--json"], stable,
                     _check_tau_star),
            *[_cli_job(f"classify-{regime}",
                       ["classify", *wave.argv(), "--json"], wave,
                       _check_classify, may_refuse=regime != "stable")
              for regime, wave in waves.items()],
            _cli_job("classify-mixed-no-check",
                     ["classify", *mixed.argv(), "--no-check", "--json"],
                     mixed, _check_classify),
            _cli_job("sigma-check",
                     ["sigma", *stable.argv(), "--omega", repr(stable.omega),
                      "--check", "--json"], stable, _check_sigma),
            _cli_job("sweep",
                     ["sweep", *mixed.argv(), "--n", str(SWEEP_N), "--json"],
                     mixed, _check_sweep),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
