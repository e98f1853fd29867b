"""The ``kgstab`` command line, one subcommand per analysis.

JSON output is an envelope (schema_version, command, params, payload,
provenance) whose payload is byte-identical for identical arguments; wall
time and paths go in ``provenance``.  Exit codes: 0 success, 1 eigensolver
failure, 2 usage or an unwritable output (checked before computing), 3
domain, grid or CFL error, 4 oracle disagreement (a ``sigma --check``
relative gap not below 1e-6 included), 5 truncated evolution.  Every
failure prints one line ``kgstab: <tag>: <reason>`` on stderr.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import re
import stat
import sys
import time

import numpy as np

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

# Records formatted per chunk: the writers hold one chunk's Python tuples and
# row strings at a time, besides the text.
_CHUNK_ROWS = 1024

# JSON string escapes: the quote, the backslash and the control characters.
_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\",
                          **{chr(i): f"\\u{i:04x}" for i in range(0x20)}})


def _format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite number {value!r} has no JSON encoding")
    return format(value, ".17g")


def _escape_string(text: str) -> str:
    return '"' + text.translate(_ESCAPES) + '"'


def _record_formats(table) -> list:
    """One %-format per field of a structured array: %.17g for a float
    field, which must be finite, and %d for an integer field."""
    formats = []
    for name in table.dtype.names:
        kind = table.dtype[name].kind
        if kind == "f" and np.isfinite(table[name]).all():
            formats.append("%.17g")
        elif kind == "f":
            raise ValueError(f"non-finite number in field {name!r} has no "
                             "JSON encoding")
        elif kind in "iu":
            formats.append("%d")
        else:
            raise TypeError(f"no JSON encoding for field {name!r} of kind "
                            f"{kind!r}")
    return formats


def _record_chunks(template: str, table):
    """The records of ``table`` through ``template``, one joined string per
    ``_CHUNK_ROWS`` records."""
    for start in range(0, len(table), _CHUNK_ROWS):
        chunk = table[start:start + _CHUNK_ROWS].tolist()
        yield "".join(map(template.__mod__, chunk))


def _write_json(obj, depth: int, parts: list) -> None:
    """Append the JSON text of ``obj``, nested ``depth`` levels deep, to
    ``parts`` piece by piece."""
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):  # bool before int: True is an int subclass
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(_format_float(obj))
    elif isinstance(obj, str):
        parts.append(_escape_string(obj))
    else:
        pad = "  " * (depth + 1)
        inner = ",\n" + pad
        start = len(parts)
        if isinstance(obj, dict):
            brackets = "{}"
            for key, val in obj.items():
                parts.append(inner + _escape_string(str(key)) + ": ")
                _write_json(val, depth + 1, parts)
        elif isinstance(obj, (list, tuple)):
            brackets = "[]"
            for val in obj:
                parts.append(inner)
                _write_json(val, depth + 1, parts)
        elif isinstance(obj, np.ndarray) and obj.dtype.names:
            brackets = "[]"
            fields = ",".join(
                f"\n{pad}  {_escape_string(name).replace('%', '%%')}: {fmt}"
                for name, fmt in zip(obj.dtype.names, _record_formats(obj)))
            template = f"{inner}{{{fields}\n{pad}}}"
            parts.extend(_record_chunks(template, obj))
        else:
            raise TypeError(f"no JSON encoding for {type(obj).__name__}")
        # each member follows a ",\n<pad>" separator: the first one's comma
        # becomes the opening bracket
        if len(parts) == start:
            parts.append(brackets)
        else:
            parts[start] = brackets[0] + parts[start][1:]
            parts.append("\n" + "  " * depth + brackets[1])


def render_json(obj) -> str:
    """Deterministic JSON text: insertion-ordered keys, floats at 17
    significant digits, a structured array as a list of objects.  Raises
    ValueError for a non-finite number and TypeError for another type."""
    parts = []
    _write_json(obj, 0, parts)
    return "".join(parts)


def _envelope(args, p: ModelParams | None, payload: dict, provenance: dict,
              start: float) -> str:
    """The rendered envelope of ``args.command``, with the wall time since
    ``start`` as the last provenance key."""
    provenance["wall_time_s"] = time.perf_counter() - start
    return render_json({
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "params": None if p is None else {"a": p.a, "b": p.b, "m": p.m},
        "payload": payload,
        "provenance": provenance,
    }) + "\n"


def _csv(header, rows) -> str:
    """CSV text of a structured array or of rows: floats at 17 significant
    digits, anything else via str."""
    if isinstance(rows, np.ndarray):
        lines = _record_chunks(",".join(_record_formats(rows)) + "\n", rows)
    else:
        lines = (",".join(_format_float(float(v)) if isinstance(v, float)
                          else str(v) for v in row) + "\n" for row in rows)
    return "".join([",".join(header) + "\n", *lines])


class _OutputError(Exception):
    """An output file could not be opened or written."""


def _emit(text: str, out_path=None) -> None:
    """Write ``text`` with one ``write``, to ``out_path`` or else stdout."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as stream:
                stream.write(text)
        except OSError as exc:
            raise _OutputError(exc) from exc
    else:
        sys.stdout.write(text)


def _check_writable(path: str) -> None:
    """Raise ``_OutputError``, with the message opening ``path`` for writing
    would give, unless it is an existing writable file (``/dev/null``
    included) or a new one in an existing writable directory.  Opens
    nothing, so a refused command leaves no file behind."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            code = errno.ENOENT
        elif not os.access(parent, os.W_OK | os.X_OK):
            code = _refusal(parent)
        else:
            return
    except OSError as exc:  # a file on the way to it, say
        raise _OutputError(exc) from exc
    else:
        if stat.S_ISDIR(mode):
            code = errno.EISDIR
        elif not os.access(path, os.W_OK):
            code = _refusal(path)
        else:
            return
    raise _OutputError(OSError(code, os.strerror(code), path))


def _refusal(path: str) -> int:
    """The errno of open where ``os.access`` refuses ``path``: EROFS on a
    read-only filesystem, EACCES otherwise."""
    if os.statvfs(path).f_flag & os.ST_RDONLY:
        return errno.EROFS
    return errno.EACCES


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
    """The argument parser of ``kgstab`` and its seven subcommands."""
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
    cmd.add_argument("--L", type=float, default=None,
                     help="half-length, rounded up to an even number of steps")
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
                     help="number of omega samples, at most "
                          f"{stability.MAX_ROWS}")
    cmd.add_argument("--json", action="store_true")
    cmd.add_argument("--out", help="output path (default stdout)")
    cmd.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser``'s tree, built on the first ``main`` call and reused:
    each parse fills a new namespace and leaves the tree as it was."""
    return build_parser()


def _cmd_tau_star(args, p: None, start: float) -> int:
    crit = stability.tau_star()
    if args.json:
        payload = {"tau_star": crit.tau_star, "alpha_d": crit.alpha_d}
        prov = {"tolerances": {"tol_alpha": stability.ALPHA_TOL}}
        _emit(_envelope(args, p, payload, prov, start))
    else:
        print(f"tau_star = {_format_float(crit.tau_star)}")
        print(f"alpha_d = {_format_float(crit.alpha_d)}")
    return 0


def _cmd_classify(args, p: ModelParams, start: float) -> int:
    report = stability.classify(p, check_oracle=not args.no_check)
    if not args.csv and not math.isfinite(report.tau):
        # the verdicts alone (CSV) hold: an overflowed tau exceeds every k2
        raise DomainError(f"tau = 2 m^2 b / a^2 = {report.tau!r} leaves the "
                          "float range")
    if args.json:
        prov = {"tolerances": {"alpha_tol": stability.ALPHA_TOL,
                               "sign_tol": stability.SIGN_TOL},
                "oracle_checked": not args.no_check}
        _emit(_envelope(args, p, report.to_dict(), prov, start))
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


def _cmd_profile(args, p: ModelParams, start: float) -> int:
    prof = soliton.build_profile(p, args.omega, args.h, tail_tol=args.tail)
    if args.json:
        payload = {"omega": prof.omega, "half_length": prof.half_length,
                   "step": prof.step, "max_ode_residual": prof.max_ode_residual,
                   "x": prof.x.tolist(), "r": prof.values.tolist()}
        prov = {"grid": {"step": args.h, "tail_tol": args.tail}}
        text = _envelope(args, p, payload, prov, start)
    else:
        rows = np.rec.fromarrays([prof.x, prof.values], names=["x", "R"])
        text = _csv(rows.dtype.names, rows)
    _emit(text, args.out)
    return 0


def _cmd_sigma(args, p: ModelParams, start: float) -> int:
    closed = stability.sigma_closed(p, args.omega)
    payload = {"omega": args.omega, "alpha": alpha_of_omega(p, args.omega),
               "sigma_closed": closed}
    if args.check:
        quad = soliton.charge(
            soliton.build_profile(p, args.omega, soliton.ORACLE_STEP))
        payload["sigma_quadrature"] = quad
        payload["relative_gap"] = abs(closed - quad) / closed
    if args.json:
        prov = {"tolerances": {"check_gap": _SIGMA_GAP_LIMIT},
                "grid": {"step": soliton.ORACLE_STEP} if args.check else None}
        _emit(_envelope(args, p, payload, prov, start))
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


def _cmd_spectrum(args, p: ModelParams, start: float) -> int:
    report = spectrum.spectral_report(p, args.omega, args.h,
                                      half_length=args.L, k=args.k)
    if args.vectors:
        header = ["x", *(f"{kind}_{i}" for kind in ("lplus", "lminus")
                         for i in range(args.k))]
        rows = np.rec.fromarrays([report.x, *report.lplus_eigenvectors.T,
                                  *report.lminus_eigenvectors.T], names=header)
        _emit(_csv(header, rows), args.vectors)
    if args.json:
        prov = {"grid": {"step": args.h, "half_length": report.half_length,
                         "k": args.k},
                "tolerances": {"eigenvalue_tol": spectrum.EIGENVALUE_TOL,
                               "kernel_band": spectrum.kernel_band(
                                   p, args.omega, args.h)}}
        _emit(_envelope(args, p, report.to_dict(), prov, start))
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


def _cmd_evolve(args, p: ModelParams, start: float) -> int:
    kind, eps = args.perturb
    perturbation = kind if kind == "none" else f"{kind}:{eps!r}"
    diag = evolve_mod.run(p, args.omega, perturbation, args.t_final,
                          sample_every=args.sample, step_x=args.dx,
                          step_t=args.dt)
    rows = np.rec.fromarrays(
        [diag.times, diag.energy, diag.charge, diag.orbital_distance,
         diag.sup_amplitude],
        names=["time", "energy", "charge", "orbital_distance", "sup_amplitude"])
    _emit(_csv(rows.dtype.names, rows), args.out)
    prov = {"grid": {"step_x": args.dx, "step_t": args.dt,
                     "sample_every": args.sample,
                     "perturbation": perturbation},
            "out": args.out}
    _emit(_envelope(args, p, diag.summary(), prov, start))
    if diag.truncated:
        print(f"kgstab: blow-up: run truncated at t="
              f"{_format_float(diag.truncation_time)}", file=sys.stderr)
        return 5
    return 0


def _cmd_sweep(args, p: ModelParams, start: float) -> int:
    rows = np.rec.fromarrays(stability.sweep_columns(p, args.n),
                             names=["omega", "alpha", "sigma", "d2_sign"])
    if args.json:
        text = _envelope(args, p, {"n": args.n, "rows": rows}, {}, start)
    else:
        text = _csv(rows.dtype.names, rows)
    _emit(text, args.out)
    return 0


# Exception family -> (stderr tag, exit code); the first isinstance match wins.
_ERRORS = {
    DomainError: ("domain-error", 3),
    evolve_mod.CFLError: ("cfl-error", 3),
    soliton.GridError: ("grid-error", 3),
    stability.OracleDisagreementError: ("oracle-disagreement", 4),
    spectrum.EigensolverError: ("eigensolver-error", 1),
    _OutputError: ("io-error", 2),
}


def main(argv=None) -> int:
    """Run one ``kgstab`` command line and return its exit code; every
    output path is checked before the command computes."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        start = time.perf_counter()
        p = (None if args.command == "tau-star"
             else ModelParams(args.a, args.b, args.m))
        # an unwritable output refuses the command before it computes
        for flag in ("out", "vectors"):
            if getattr(args, flag, None):
                _check_writable(getattr(args, flag))
        return args.func(args, p, start)
    except tuple(_ERRORS) as exc:
        tag, code = next(entry for family, entry in _ERRORS.items()
                         if isinstance(exc, family))
        print(f"kgstab: {tag}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
