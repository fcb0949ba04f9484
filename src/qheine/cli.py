"""Command-line front end.

Subcommands: eval, identities, gfraction, moments, check, kq, boundary,
figure, scan.  Machine-readable JSON goes to stdout (schema_version 1);
curve data goes to CSV or SVG files with deterministic formatting.
Exit status: 0 success/pass, 1 check failure, 2 input or numeric error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import DomainError, QHeineError
from .figures import DEFAULT_FIGURE_SAMPLES, figure_preset
from .gfrac import (
    RatioVariant,
    gfraction_coeffs,
    hypothesis_check,
    ratio_eval,
    ratio_moments,
    totally_monotone_check,
)
from .geomtest import (
    KqGrid,
    bn_sequence,
    boundary_curve,
    kq_conditions_check,
    kq_membership_test,
    map_gauss_ratio,
    map_shift_a,
    map_shift_all,
    map_shift_bc,
    map_zphi,
)
from .qcore import DEFAULT_TOL, ParamSet, gauss_f, heine_phi, verify_identities
from .scanner import GridSpec, Range, records_to_csv, scan, soundness_violations

SCHEMA_VERSION = 1

_VARIANT_NAMES = sorted(v.value for v in RatioVariant)
_SVG_SIZE = 800
_SVG_MARGIN = 60


def _emit(payload: dict):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    print(json.dumps(payload))


def _pair(z: complex):
    return [float(z.real), float(z.imag)]


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise DomainError(f"cannot parse complex number from {text!r}")


def _params(args) -> ParamSet:
    return ParamSet(args.a, args.b, args.c, args.q)


# ---------------------------------------------------------------------------
# curve serialisation

def curve_to_csv(curve) -> str:
    """theta, Re w, Im w per row; 17 significant digits, '\\n' endings."""
    M = curve.M
    theta = 2.0 * math.pi * np.arange(M) / M
    rows = np.column_stack([theta, curve.samples.real, curve.samples.imag])
    return "theta,re_w,im_w\n" + ("%.17g,%.17g,%.17g\n" * M) % tuple(rows.ravel().tolist())


def curve_to_svg(curve) -> str:
    """One closed polyline plus axes, 800x800, equal-aspect autoscaling."""
    xs, ys = curve.samples.real, curve.samples.imag
    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    bw = max(xmax - xmin, 1e-30)
    bh = max(ymax - ymin, 1e-30)
    span = _SVG_SIZE - 2 * _SVG_MARGIN
    scale = min(span / bw, span / bh)
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)

    def sx(x):
        return 0.5 * _SVG_SIZE + (x - cx) * scale

    def sy(y):
        return 0.5 * _SVG_SIZE - (y - cy) * scale

    # the closed polyline repeats its first point
    xy = np.column_stack([sx(np.append(xs, xs[0])), sy(np.append(ys, ys[0]))])
    pts = " ".join(["%.3f,%.3f"] * len(xy)) % tuple(xy.ravel().tolist())
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">\n'
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>\n'
        f'<line x1="0" y1="{sy(0.0):.3f}" x2="{_SVG_SIZE}" y2="{sy(0.0):.3f}" '
        f'stroke="#bbbbbb" stroke-width="1"/>\n'
        f'<line x1="{sx(0.0):.3f}" y1="0" x2="{sx(0.0):.3f}" y2="{_SVG_SIZE}" '
        f'stroke="#bbbbbb" stroke-width="1"/>\n'
        f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.2"/>\n'
        f"</svg>\n"
    )


def _write_curve(curve, fmt: str, path: str):
    text = curve_to_csv(curve) if fmt == "csv" else curve_to_svg(curve)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _curve_map_from_args(args):
    if args.map == "gauss_ratio":
        return map_gauss_ratio(args.a, args.b, args.c)
    p = _params(args)
    return {
        "shift_bc": lambda: map_shift_bc(p),
        "shift_bc_qz": lambda: map_shift_bc(p, normalized=True),
        "shift_a": lambda: map_shift_a(p),
        "shift_all": lambda: map_shift_all(p),
        "zphi": lambda: map_zphi(p),
    }[args.map]()


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the process exit status)

def cmd_eval(args) -> int:
    z = _parse_complex(args.z)
    if args.gauss:
        res = gauss_f(args.a, args.b, args.c, z, args.tol)
    elif args.ratio:
        value = ratio_eval(RatioVariant(args.ratio), _params(args), z)
        _emit({"value": _pair(value), "terms_used": None, "est_error": None})
        return 0
    else:
        res = heine_phi(_params(args), z, args.tol)
    _emit({"value": _pair(res.value), "terms_used": res.terms_used,
           "est_error": res.est_error})
    return 0


def cmd_identities(args) -> int:
    residuals = verify_identities(_params(args), _parse_complex(args.z), args.tol)
    passed = all(v < args.tol for v in residuals.values())
    _emit({"residuals": residuals, "max_residual": max(residuals.values()),
           "tol": args.tol, "pass": passed})
    return 0 if passed else 1


def cmd_gfraction(args) -> int:
    p = _params(args)
    gf = gfraction_coeffs(RatioVariant(args.variant), p, args.N)
    bc_in_z = args.variant == "shift_bc" and args.argument == "z"
    _emit({
        "variant": args.variant,
        "argument_scale": 1.0 / p.q if bc_in_z else 1.0,
        "g": [float(x) for x in gf.g],
        "partial_numerators": [float(x) for x in gf.partial_numerators],
    })
    return 0


def cmd_moments(args) -> int:
    ms = ratio_moments(RatioVariant(args.variant), _params(args), args.N)
    rep = totally_monotone_check(ms, args.tol)
    _emit({
        "variant": args.variant,
        "moments": [float(x) for x in ms.m],
        "totally_monotone": rep.passed,
        "first_violation": list(rep.first_violation) if rep.first_violation else None,
    })
    return 0 if rep.passed else 1


def cmd_check(args) -> int:
    p = _params(args)
    if args.what == "hypothesis":
        rep = hypothesis_check(RatioVariant(args.variant), p)
        _emit({"what": "hypothesis", "variant": args.variant,
               "pass": rep.passed, "violations": list(rep.violations)})
        return 0 if rep.passed else 1
    if args.what == "kq":
        rep = kq_conditions_check(p)
        _emit({"what": "kq", "route": rep.route.value, "pass": rep.passed,
               "details": rep.details})
        return 0 if rep.passed else 1
    sc = bn_sequence(p, args.N)
    _emit({"what": "bn", "verdict": sc.verdict.value,
           "limit_estimate": sc.limit_estimate,
           "B_head": [float(x) for x in sc.B[:10]]})
    return 0 if sc.verdict.value != "neither" else 1


def cmd_kq(args) -> int:
    rep = kq_membership_test(_params(args),
                             KqGrid(args.radii, args.angles, args.r_max))
    _emit({"max_ratio": rep.max_ratio, "worst_z": _pair(rep.worst_z),
           "pass": rep.passed})
    return 0 if rep.passed else 1


def cmd_boundary(args) -> int:
    curve = boundary_curve(_curve_map_from_args(args), args.r, args.M)
    _write_curve(curve, args.format, args.out)
    _emit({"map": args.map, "r": args.r, "M": args.M, "format": args.format,
           "out": args.out})
    return 0


def cmd_figure(args) -> int:
    preset = figure_preset(args.number, args.c)
    curve = boundary_curve(preset.curve_map, preset.r, args.samples)
    out = args.out or f"figure{args.number}.{args.format}"
    _write_curve(curve, args.format, out)
    payload = {"figure": args.number, "r": preset.r, "M": args.samples,
               "params": preset.meta, "format": args.format, "out": out}
    if args.number == 5:
        payload["max_unit_deviation"] = float(
            np.max(np.abs(np.abs(curve.samples) - 1.0)))
    _emit(payload)
    return 0


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {text!r}")


# scan config key -> (GridSpec field, parser); absent keys keep the defaults
_GRID_KEYS = {
    "tests.bn": ("run_bn", _parse_bool),
    "tests.vconvex": ("run_vconvex", _parse_bool),
    "tests.kq": ("run_kq", _parse_bool),
    "curve.r": ("curve_r", float),
    "curve.samples": ("curve_samples", int),
    "kq.radii": ("kq_radii", int),
    "kq.angles": ("kq_angles", int),
    "kq.rmax": ("kq_rmax", float),
    "bn.n": ("bn_n", int),
    "cap": ("cap", int),
}


def load_grid_config(path: str) -> GridSpec:
    """Flat key-value scan config; see the README for the grammar."""
    entries = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()

    fields = {}
    for name in "abcq":
        try:
            fields[name] = Range(float(entries.pop(f"{name}.min", None)),
                                 float(entries.pop(f"{name}.max", None)),
                                 int(entries.pop(f"{name}.steps", None)))
        except (TypeError, ValueError):
            raise DomainError(f"{path}: missing or malformed {name}.min/max/steps")
    for key, (field, parse) in _GRID_KEYS.items():
        if key in entries:
            value = entries.pop(key)
            try:
                fields[field] = parse(value)
            except ValueError:
                raise DomainError(f"{path}: malformed {key}={value!r}")
    if entries:
        raise DomainError(f"{path}: unknown config keys {sorted(entries)}")
    return GridSpec(**fields)


def cmd_scan(args) -> int:
    grid = load_grid_config(args.config)
    records = scan(grid, threads=args.threads)
    csv_text = records_to_csv(records)
    with open(args.out, "w", newline="") as fh:
        fh.write(csv_text)
    violations = soundness_violations(records)
    _emit({
        "points": len(records),
        "hyp_thm1_pass": sum(r.hyp_thm1 for r in records),
        "hyp_thm2_pass": sum(r.hyp_thm2 for r in records),
        "kq_route_pass": sum(r.kq_route != "none" for r in records),
        "soundness_violations": len(violations),
        "out": args.out,
    })
    return 0 if not violations else 1


# ---------------------------------------------------------------------------

def _add_params(sub, include_q=True):
    sub.add_argument("-a", type=float, required=True)
    sub.add_argument("-b", type=float, required=True)
    sub.add_argument("-c", type=float, required=True)
    if include_q:
        sub.add_argument("-q", type=float, required=True)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qheine",
        description="Basic hypergeometric series, g-fraction expansions of "
                    "shifted ratios, Hausdorff moment checks, and boundary-"
                    "curve geometry tests.")
    sp = ap.add_subparsers(dest="command", required=True)

    ev = sp.add_parser("eval", help="evaluate a series or shifted ratio at a point")
    kind = ev.add_mutually_exclusive_group()
    kind.add_argument("--phi", action="store_true", help="Heine series (default)")
    kind.add_argument("--gauss", action="store_true", help="Gauss series (ignores -q)")
    kind.add_argument("--ratio", choices=_VARIANT_NAMES)
    _add_params(ev)
    ev.add_argument("-z", required=True, help="complex point, e.g. 0.3 or 0.3+0.4j")
    ev.add_argument("--tol", type=float, default=DEFAULT_TOL)
    ev.set_defaults(func=cmd_eval)

    idn = sp.add_parser("identities", help="residuals of the contiguous identities")
    _add_params(idn)
    idn.add_argument("-z", required=True)
    idn.add_argument("--tol", type=float, default=1e-11)
    idn.set_defaults(func=cmd_identities)

    gf = sp.add_parser("gfraction", help="dump g_k and partial numerators")
    gf.add_argument("--variant", choices=_VARIANT_NAMES, required=True)
    _add_params(gf)
    gf.add_argument("-N", type=int, default=32)
    gf.add_argument("--argument", choices=["qz", "z"], default="qz")
    gf.set_defaults(func=cmd_gfraction)

    mo = sp.add_parser("moments", help="moment sequence and total monotonicity")
    mo.add_argument("--variant", choices=_VARIANT_NAMES, required=True)
    _add_params(mo)
    mo.add_argument("-N", type=int, default=15)
    mo.add_argument("--tol", type=float, default=1e-9)
    mo.set_defaults(func=cmd_moments)

    ck = sp.add_parser("check", help="hypothesis / close-to-convexity / B_n checks")
    ck.add_argument("--what", choices=["hypothesis", "kq", "bn"], required=True)
    ck.add_argument("--variant", choices=_VARIANT_NAMES, default="shift_bc")
    _add_params(ck)
    ck.add_argument("-N", type=int, default=100, help="B_n chain length for --what bn")
    ck.set_defaults(func=cmd_check)

    kq = sp.add_parser("kq", help="sampled q-close-to-convexity report")
    _add_params(kq)
    kq.add_argument("--r-max", type=float, default=0.99)
    kq.add_argument("--radii", type=int, default=64)
    kq.add_argument("--angles", type=int, default=64)
    kq.set_defaults(func=cmd_kq)

    bd = sp.add_parser("boundary", help="sample a circle image to CSV or SVG")
    bd.add_argument("--map", required=True,
                    choices=["shift_bc", "shift_bc_qz", "shift_a", "shift_all",
                             "zphi", "gauss_ratio"])
    _add_params(bd, include_q=False)
    bd.add_argument("-q", type=float, default=0.5, help="unused by gauss_ratio")
    bd.add_argument("-r", type=float, default=0.99)
    bd.add_argument("-M", type=int, default=1024)
    bd.add_argument("--format", choices=["csv", "svg"], default="csv")
    bd.add_argument("--out", required=True)
    bd.set_defaults(func=cmd_boundary)

    fg = sp.add_parser("figure", help="emit a bundled preset curve")
    fg.add_argument("number", type=int, choices=[1, 2, 3, 4, 5])
    fg.add_argument("--c", type=float, default=None,
                    help="c override for figure 5")
    fg.add_argument("--samples", type=int, default=DEFAULT_FIGURE_SAMPLES)
    fg.add_argument("--format", choices=["svg", "csv"], default="svg")
    fg.add_argument("--out", default=None)
    fg.set_defaults(func=cmd_figure)

    sc = sp.add_parser("scan", help="run a parameter sweep from a config file")
    sc.add_argument("--config", required=True)
    sc.add_argument("--out", required=True)
    sc.add_argument("--threads", type=int, default=None,
                    help="overrides QHEINE_THREADS")
    sc.set_defaults(func=cmd_scan)
    return ap


_PARSER = None  # built on the first main call; parsing leaves it unchanged


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except QHeineError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
