"""Command-line front end: every analysis as a subcommand.

JSON output is wrapped in a fixed envelope (schema_version / command /
params / payload / provenance) and rendered by a deterministic serializer:
identical arguments give byte-identical payloads, with volatile facts (wall
time, file paths) quarantined in ``provenance``.

Exit codes: 0 success, 2 usage, 3 domain/grid/CFL errors, 4 oracle
disagreement, 5 blow-up-truncated evolution.  Every failure prints a single
machine-parsable line ``kgstab: <tag>: <reason>`` on stderr.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time

from . import evolve as evolve_mod
from . import soliton, spectrum, stability
from .model import DomainError, ModelParams, alpha_of_omega

SCHEMA_VERSION = "1.0.0"

# Published payload schemas, one per subcommand (restricted JSON-Schema
# vocabulary: type / required / properties / items; "number" admits any
# finite numeric, "maybe-number" admits null as well).
_NUM = {"type": "number"}
_INT = {"type": "integer"}
_MAYBE_NUM = {"type": ["number", "null"]}
_NUM_ARRAY = {"type": "array", "items": _NUM}


def _object(properties: dict, optional=()) -> dict:
    """Object schema requiring every property except the ``optional`` ones."""
    return {"type": "object",
            "required": [key for key in properties if key not in optional],
            "properties": properties}


SCHEMAS = {
    "tau-star": _object({"tau_star": _NUM, "alpha_d": _NUM}),
    "classify": _object({
        "params": _object({"a": _NUM, "b": _NUM, "m": _NUM}),
        "tau": _NUM,
        "tau_star": _NUM,
        "omega_window": _object({"omega_star": _NUM, "m": _NUM}),
        "roots_alpha": _NUM_ARRAY,
        "roots_omega": _NUM_ARRAY,
        "intervals": {"type": "array", "items": _object(
            {"lo": _NUM, "hi": _NUM, "verdict": {"type": "string"}})},
    }),
    "profile": _object({"omega": _NUM, "half_length": _NUM, "step": _NUM,
                        "max_ode_residual": _NUM, "x": _NUM_ARRAY,
                        "r": _NUM_ARRAY}),
    "sigma": _object({"omega": _NUM, "alpha": _NUM, "sigma_closed": _NUM,
                      "sigma_quadrature": _NUM, "relative_gap": _NUM},
                     optional=("sigma_quadrature", "relative_gap")),
    "spectrum": _object({
        "omega": _NUM,
        "grid": _object({"half_length": _NUM, "step": _NUM}),
        "lplus_eigenvalues": _NUM_ARRAY,
        "lminus_eigenvalues": _NUM_ARRAY,
        "lplus_kernel_match": _NUM,
        "lminus_kernel_match": _NUM,
        "negative_count_lplus": _INT,
        "negative_count_lminus": _INT,
    }),
    "evolve": _object({
        "t_final": _NUM,
        "relative_energy_drift": _NUM,
        "relative_charge_drift": _NUM,
        "initial_distance": _NUM,
        "max_distance": _NUM,
        "distance_ratio": _MAYBE_NUM,
        "first_crossing_100x": _MAYBE_NUM,
        "max_sup_amplitude": _NUM,
        "truncated": {"type": "boolean"},
        "truncation_time": _MAYBE_NUM,
        "tail_first_exceed": _MAYBE_NUM,
    }),
    "sweep": _object({
        "n": _INT,
        "rows": {"type": "array", "items": _object(
            {"omega": _NUM, "alpha": _NUM, "sigma": _NUM, "d2_sign": _INT})},
    }),
}

# Relative gap between closed-form sigma and its quadrature oracle beyond
# which `sigma --check` refuses to pass.
_SIGMA_GAP_LIMIT = 1e-6
_SIGMA_CHECK_STEP = 0.005

# JSON string escapes: the quote, the backslash and the control characters.
_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\",
                          **{chr(i): f"\\u{i:04x}" for i in range(0x20)}})


def _format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite number {value!r} has no JSON encoding")
    return format(value, ".17g")


def _escape_string(text: str) -> str:
    return '"' + text.translate(_ESCAPES) + '"'


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit
    floats, no locale or timestamp dependence."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):  # bool before int: True is an int subclass
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return _escape_string(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{_escape_string(str(key))}: {render_json(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        parts = [f"{inner}{render_json(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"no JSON encoding for {type(obj).__name__}")


def _envelope(command: str, p: ModelParams | None, payload: dict,
              provenance: dict, start: float) -> str:
    """The rendered envelope, with the wall time since ``start`` as the last
    provenance key."""
    provenance["wall_time_s"] = time.perf_counter() - start
    return render_json({
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": None if p is None else {"a": p.a, "b": p.b, "m": p.m},
        "payload": payload,
        "provenance": provenance,
    }) + "\n"


def _csv(header, rows) -> str:
    """CSV text: floats at 17 significant digits, anything else via str."""
    lines = [",".join(header)]
    lines += [",".join(_format_float(float(v)) if isinstance(v, float)
                       else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path=None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as stream:
            stream.write(text)
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    """argparse with a single-line machine-parsable usage error, reading
    negative numbers in exponent form (``-1e-05``) as values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.exit(2, f"kgstab: usage-error: {message}\n")


def _add_model_args(cmd, with_omega: bool = False):
    cmd.add_argument("--a", type=float, required=True,
                     help="quadratic coefficient (positive)")
    cmd.add_argument("--b", type=float, required=True,
                     help="cubic coefficient (positive)")
    cmd.add_argument("--m", type=float, required=True, help="mass (positive)")
    if with_omega:
        cmd.add_argument("--omega", type=float, required=True,
                         help="standing-wave frequency inside the window")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgstab",
                     description="Standing-wave construction and stability "
                                 "classification for the quadratic-cubic "
                                 "Klein-Gordon equation")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("tau-star", help="critical coupling sup k2")
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(func=_cmd_tau_star)

    cmd = sub.add_parser("classify", help="stable/unstable window partition")
    _add_model_args(cmd)
    fmt = cmd.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    cmd.add_argument("--no-check", action="store_true",
                     help="skip the finite-difference oracle check")
    cmd.set_defaults(func=_cmd_classify)

    cmd = sub.add_parser("profile", help="sampled profile R(x) as CSV")
    _add_model_args(cmd, with_omega=True)
    cmd.add_argument("--h", type=float, default=0.01, help="grid step")
    cmd.add_argument("--tail", type=float, default=1e-12,
                     help="tail tolerance relative to R(0)")
    cmd.add_argument("--json", action="store_true")
    cmd.add_argument("--out", help="output path (default stdout)")
    cmd.set_defaults(func=_cmd_profile)

    cmd = sub.add_parser("sigma", help="closed-form sigma = omega*||R||^2")
    _add_model_args(cmd, with_omega=True)
    cmd.add_argument("--check", action="store_true",
                     help="compare against quadrature; nonzero exit on gap")
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(func=_cmd_sigma)

    cmd = sub.add_parser("spectrum", help="low spectrum of L+ and L-")
    _add_model_args(cmd, with_omega=True)
    cmd.add_argument("--h", type=float, default=0.02, help="grid step")
    cmd.add_argument("--L", type=float, default=None, help="half-length")
    cmd.add_argument("--k", type=int, default=4, help="eigenpair count")
    cmd.add_argument("--json", action="store_true")
    cmd.add_argument("--vectors", help="write eigenvectors to this CSV path")
    cmd.set_defaults(func=_cmd_spectrum)

    cmd = sub.add_parser("evolve", help="nonlinear evolution diagnostics")
    _add_model_args(cmd, with_omega=True)
    cmd.add_argument("--perturb", required=True,
                     type=evolve_mod.parse_perturbation,
                     help="none | scale:EPS | bump:EPS")
    cmd.add_argument("--t-final", type=float, required=True, dest="t_final")
    cmd.add_argument("--dx", type=float, default=0.02)
    cmd.add_argument("--dt", type=float, default=0.01)
    cmd.add_argument("--sample", type=int, default=50,
                     help="steps between diagnostic samples")
    cmd.add_argument("--out", required=True,
                     help="path for the diagnostics CSV")
    cmd.set_defaults(func=_cmd_evolve)

    cmd = sub.add_parser("sweep", help="omega grid of (alpha, sigma, sign d2)")
    _add_model_args(cmd)
    cmd.add_argument("--n", type=int, required=True,
                     help="number of omega samples")
    cmd.add_argument("--json", action="store_true")
    cmd.add_argument("--out", help="output path (default stdout)")
    cmd.set_defaults(func=_cmd_sweep)

    return parser


def _cmd_tau_star(args) -> int:
    start = time.perf_counter()
    crit = stability.tau_star()
    if args.json:
        payload = {"tau_star": crit.tau_star, "alpha_d": crit.alpha_d}
        prov = {"tolerances": {"tol_alpha": stability.ALPHA_TOL}}
        _emit(_envelope("tau-star", None, payload, prov, start))
    else:
        print(f"tau_star = {_format_float(crit.tau_star)}")
        print(f"alpha_d = {_format_float(crit.alpha_d)}")
    return 0


def _cmd_classify(args) -> int:
    start = time.perf_counter()
    p = ModelParams(args.a, args.b, args.m)
    report = stability.classify(p, check_oracle=not args.no_check)
    if args.json:
        prov = {"tolerances": {"alpha_tol": stability.ALPHA_TOL,
                               "sign_tol": stability.SIGN_TOL},
                "oracle_checked": not args.no_check}
        _emit(_envelope("classify", p, report.to_dict(), prov, start))
    elif args.csv:
        _emit(_csv(["lo", "hi", "verdict"], report.intervals))
    else:
        print(f"tau = {_format_float(report.tau)}")
        print(f"tau_star = {_format_float(report.tau_star)}")
        print(f"omega_window = ({_format_float(report.omega_window.omega_star)}, "
              f"{_format_float(report.omega_window.m)})")
        for root_a, root_w in zip(report.roots_alpha, report.roots_omega):
            print(f"root: omega = {_format_float(root_w)} "
                  f"(alpha = {_format_float(root_a)})")
        for lo, hi, verdict in report.intervals:
            print(f"{verdict}: ({_format_float(lo)}, {_format_float(hi)})")
    return 0


def _cmd_profile(args) -> int:
    start = time.perf_counter()
    p = ModelParams(args.a, args.b, args.m)
    prof = soliton.build_profile(p, args.omega, args.h, tail_tol=args.tail)
    x, r = prof.x.tolist(), prof.values.tolist()
    if args.json:
        payload = {"omega": prof.omega, "half_length": prof.half_length,
                   "step": prof.step, "max_ode_residual": prof.max_ode_residual,
                   "x": x, "r": r}
        prov = {"grid": {"step": args.h, "tail_tol": args.tail}}
        text = _envelope("profile", p, payload, prov, start)
    else:
        text = _csv(["x", "R"], zip(x, r))
    _emit(text, args.out)
    return 0


def _cmd_sigma(args) -> int:
    start = time.perf_counter()
    p = ModelParams(args.a, args.b, args.m)
    closed = stability.sigma_closed(p, args.omega)
    payload = {"omega": args.omega, "alpha": alpha_of_omega(p, args.omega),
               "sigma_closed": closed}
    if args.check:
        quad = soliton.charge(
            soliton.build_profile(p, args.omega, _SIGMA_CHECK_STEP))
        payload["sigma_quadrature"] = quad
        payload["relative_gap"] = abs(closed - quad) / closed
    if args.json:
        prov = {"tolerances": {"check_gap": _SIGMA_GAP_LIMIT},
                "grid": {"step": _SIGMA_CHECK_STEP} if args.check else None}
        _emit(_envelope("sigma", p, payload, prov, start))
    else:
        print(f"sigma_closed = {_format_float(closed)}")
        if args.check:
            print(f"sigma_quadrature = {_format_float(payload['sigma_quadrature'])}")
            print(f"relative_gap = {_format_float(payload['relative_gap'])}")
    gap = payload.get("relative_gap", 0.0)
    if not gap < _SIGMA_GAP_LIMIT:
        print(f"kgstab: oracle-disagreement: sigma quadrature gap {gap:.3e} "
              f"exceeds {_SIGMA_GAP_LIMIT:.0e}", file=sys.stderr)
        return 4
    return 0


def _cmd_spectrum(args) -> int:
    start = time.perf_counter()
    p = ModelParams(args.a, args.b, args.m)
    report = spectrum.spectral_report(p, args.omega, args.h,
                                      half_length=args.L, k=args.k)
    if args.vectors:
        header = ["x", *(f"{kind}_{i}" for kind in ("lplus", "lminus")
                         for i in range(args.k))]
        rows = ([x, *plus, *minus] for x, plus, minus in zip(
            report.x.tolist(), report.lplus_eigenvectors.tolist(),
            report.lminus_eigenvectors.tolist()))
        _emit(_csv(header, rows), args.vectors)
    if args.json:
        prov = {"grid": {"step": args.h, "half_length": report.half_length,
                         "k": args.k},
                "tolerances": {"eigenvalue_tol": spectrum.EIGENVALUE_TOL,
                               "kernel_band":
                                   spectrum.KERNEL_BAND * args.h * args.h}}
        _emit(_envelope("spectrum", p, report.to_dict(), prov, start))
    else:
        print(f"omega = {_format_float(report.omega)}")
        print("lplus_eigenvalues = "
              + " ".join(_format_float(v) for v in report.lplus_eigenvalues))
        print("lminus_eigenvalues = "
              + " ".join(_format_float(v) for v in report.lminus_eigenvalues))
        print(f"negative_count_lplus = {report.negative_count_lplus}")
        print(f"negative_count_lminus = {report.negative_count_lminus}")
        print(f"lplus_kernel_match = {_format_float(report.lplus_kernel_match)}")
        print(f"lminus_kernel_match = {_format_float(report.lminus_kernel_match)}")
    return 0


def _cmd_evolve(args) -> int:
    start = time.perf_counter()
    p = ModelParams(args.a, args.b, args.m)
    kind, eps = args.perturb
    perturbation = kind if kind == "none" else f"{kind}:{eps!r}"
    diag = evolve_mod.run(p, args.omega, perturbation, args.t_final,
                          sample_every=args.sample, step_x=args.dx,
                          step_t=args.dt)
    columns = (diag.times, diag.energy, diag.charge, diag.orbital_distance,
               diag.sup_amplitude)
    _emit(_csv(["time", "energy", "charge", "orbital_distance",
                "sup_amplitude"], zip(*columns)), args.out)
    prov = {"grid": {"step_x": args.dx, "step_t": args.dt,
                     "sample_every": args.sample,
                     "perturbation": perturbation},
            "out": args.out}
    _emit(_envelope("evolve", p, diag.summary(), prov, start))
    if diag.truncated:
        print(f"kgstab: blow-up: run truncated at t="
              f"{_format_float(diag.truncation_time)}", file=sys.stderr)
        return 5
    return 0


def _cmd_sweep(args) -> int:
    start = time.perf_counter()
    p = ModelParams(args.a, args.b, args.m)
    if args.n < 1:
        raise DomainError(f"--n must be >= 1, got {args.n!r}")
    window = p.window
    omegas = [window.omega_star + (i + 1) * window.width / (args.n + 1)
              for i in range(args.n)]

    rows = [
        {
            "omega": omega,
            "alpha": alpha_of_omega(p, omega),
            "sigma": stability.sigma_closed(p, omega),
            "d2_sign": stability.d_second_sign(p, omega),
        }
        for omega in omegas
    ]

    if args.json:
        text = _envelope("sweep", p, {"n": args.n, "rows": rows}, {}, start)
    else:
        text = _csv(["omega", "alpha", "sigma", "d2_sign"],
                    (row.values() for row in rows))
    _emit(text, args.out)
    return 0


# Exception family -> (stderr tag, exit code); the first isinstance match wins.
_ERRORS = {
    DomainError: ("domain-error", 3),
    evolve_mod.CFLError: ("cfl-error", 3),
    soliton.GridError: ("grid-error", 3),
    stability.OracleDisagreementError: ("oracle-disagreement", 4),
    spectrum.EigensolverError: ("eigensolver-error", 1),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except tuple(_ERRORS) as exc:
        tag, code = next(entry for family, entry in _ERRORS.items()
                         if isinstance(exc, family))
        print(f"kgstab: {tag}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
