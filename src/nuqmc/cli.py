"""Command-line front end.

Subcommands: ``discrepancy``, ``variation``, ``decompose``, ``transform``,
``integrate``, ``generate``, ``counterexample``.  Inputs are JSON files in
the schemas of :mod:`nuqmc.jsonio`; every report embeds the config that
produced it and is byte-identical across runs for a fixed config and seed.

Exit codes: 0 success, 2 validation error (including malformed JSON, and a
result that is not finite), 3 exact-mode budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .discrepancy import CELL_BUDGET, PointSet, random_search_lower_bound, star_discrepancy
from .errors import BudgetExceededError, NuqmcError, ValidationError
from .integrate import kh_certificate, qmc_estimate
from .jsonio import (
    grid_function_to_dict,
    load_grid_function,
    load_measure,
    load_points,
    points_to_dict,
)
from .measures import _allocation, total_variation
from .sequences import halton
from .transforms import (
    chelson_conditional,
    chelson_identity_check,
    chelson_measure,
    forward_cdf_map,
    product_transform,
)
from .variation import (
    ANCHOR_ONE,
    ANCHOR_ZERO,
    JordanPair,
    STEP,
    function_to_measure,
    hk_variation,
    jordan_decompose_function,
    leonov_decompose,
    measure_to_function,
    vitali_variation,
)

DEFAULT_POINT = (56.0 / 81.0, 20.0 / 23.0)


def _output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="report destination (default stdout)")


def _exact_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget", type=int, default=None,
                        help="cell budget for exact discrepancy grids (exact mode only)")


def _mode_flag(args, flag: str, default, read: bool, where: str) -> None:
    """Refuse ``--flag`` in a mode that never reads it, else resolve its
    default, so the report's config reads as it did with a parser default."""
    if getattr(args, flag) is None:
        setattr(args, flag, default)
    elif not read:
        raise ValidationError(f"--{flag.replace('_', '-')} is read {where}")


def _exact_budget(args, exact: bool) -> None:
    _mode_flag(args, "budget", CELL_BUDGET, exact, "in exact mode only: "
               "discrepancy without --search, integrate --certify")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nuqmc",
        description="Quasi-Monte Carlo toolkit for general (non-uniform) measures",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("discrepancy", help="star-discrepancy of a point set")
    p.add_argument("--points", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--search", type=int, default=None, metavar="TRIALS",
                   help="randomized lower bound instead of the exact grid")
    p.add_argument("--seed", type=int, default=None, help="search seed (with --search only)")
    _exact_flags(p)
    _output_flags(p)

    p = sub.add_parser("variation", help="Vitali and Hardy-Krause variation")
    p.add_argument("--function", required=True)
    _output_flags(p)

    p = sub.add_parser("decompose", help="monotone decompositions and the measure round-trip")
    p.add_argument("--function", required=True)
    _output_flags(p)

    p = sub.add_parser("transform", help="map points through a product measure's inverse CDFs")
    p.add_argument("--points", required=True)
    p.add_argument("--measure", required=True)
    _output_flags(p)

    p = sub.add_parser("integrate", help="QMC estimate, optionally certified")
    p.add_argument("--f", "--function", dest="function", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--certify", action="store_true")
    _exact_flags(p)
    _output_flags(p)

    p = sub.add_parser("generate", help="low-discrepancy point sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _output_flags(p)

    p = sub.add_parser("counterexample",
                       help="failure report for the conditional-transform identity")
    p.add_argument("--point", default=None,
                   help="input point as 'x1,x2' (default 56/81,20/23)")
    p.add_argument("--box", default="1.0,0.8", help="probe corner as 'a1,a2'")
    p.add_argument("--boundary-csv", default=None,
                   help="write a CSV sampling of the image-set boundary here")
    p.add_argument("--boundary-samples", type=int, default=None,
                   help="boundary samples (default 256; with --boundary-csv only)")
    p.add_argument("--tolerance", type=float, default=1e-12)
    _output_flags(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads every argv with, built once a process:
    ``parse_args`` returns a fresh namespace and leaves the parser as it was."""
    return build_parser()


def _parse_pair(text: str, name: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"{name} must be 'a,b', got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as err:
        raise ValidationError(f"{name}: {err}") from err


def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, (list, tuple)):
        rows.append((prefix, json.dumps(obj)))
    else:
        rows.append((prefix, obj))


def _non_finite(prefix: str, obj) -> str | None:
    """The first key, in report order, that holds a NaN or an infinity."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            key = _non_finite(f"{prefix}.{k}" if prefix else str(k), obj[k])
            if key is not None:
                return key
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            key = _non_finite(f"{prefix}[{i}]", item)
            if key is not None:
                return key
    elif isinstance(obj, float) and not math.isfinite(obj):
        return f"{prefix} = {obj}"
    return None


def _emit(report: dict, fmt: str, out: str | None) -> None:
    try:  # JSON has no NaN or infinity, and no result is meant to be one
        text = json.dumps(report, sort_keys=True, indent=2 if fmt == "json" else None,
                          allow_nan=False) + "\n"
    except ValueError:
        raise ValidationError(f"report is not finite: {_non_finite('', report)}") from None
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        rows: list = []
        _flatten("", report, rows)
        writer.writerows(rows)
        text = buf.getvalue()
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _fraction(x: float, max_den: int = 10**6) -> str:
    frac = Fraction(x).limit_denominator(max_den)
    return f"{frac.numerator}/{frac.denominator}"


def _discrepancy_result_dict(res) -> dict:
    return {
        "value": res.value,
        "witness": list(res.witness_box.upper),
        "witness_flags": list(res.witness_flags),
        "attained": res.attained,
        "method": res.method,
    }


def _run_discrepancy(args) -> dict:
    _exact_budget(args, args.search is None)
    _mode_flag(args, "seed", 0, args.search is not None, "with --search only")
    ps = load_points(args.points)
    m = load_measure(args.measure)
    if args.search is not None:
        res = random_search_lower_bound(ps, m, trials=args.search, seed=args.seed)
    else:
        res = star_discrepancy(ps, m, cell_budget=args.budget)
    return _discrepancy_result_dict(res)


def _run_variation(args) -> dict:
    f = load_grid_function(args.function)
    return {
        "vitali": vitali_variation(f),
        "hk_one": hk_variation(f, ANCHOR_ONE),
        "hk_zero": hk_variation(f, ANCHOR_ZERO),
    }


def _run_decompose(args) -> dict:
    f = load_grid_function(args.function)
    pair: JordanPair = jordan_decompose_function(f)
    f1, f2 = leonov_decompose(f)
    result = {
        "jordan_plus": grid_function_to_dict(pair.f_plus),
        "jordan_minus": grid_function_to_dict(pair.f_minus),
        "leonov_prefix": grid_function_to_dict(f1),
        "leonov_complement": grid_function_to_dict(f2),
        "hk_zero": hk_variation(f, ANCHOR_ZERO),
        "hk_zero_plus": hk_variation(pair.f_plus, ANCHOR_ZERO),
        "hk_zero_minus": hk_variation(pair.f_minus, ANCHOR_ZERO),
    }
    if f.interp == STEP:
        nu = function_to_measure(f)
        back = measure_to_function(nu)
        roundtrip = function_to_measure(back)
        max_err = 0.0
        if len(nu):
            max_err = float(np.max(np.abs(nu.weights - roundtrip.weights))) \
                if len(nu) == len(roundtrip) else float("inf")
        result["measure"] = {
            "atoms": [{"x": x, "w": w}
                      for x, w in zip(nu.locations.tolist(), nu.weights.tolist())],
            "total_variation": total_variation(nu),
            "roundtrip_max_weight_error": max_err,
        }
    return result


def _run_transform(args) -> dict:
    ps = load_points(args.points)
    image = product_transform(ps, load_measure(args.measure))
    return {"points": points_to_dict(image)}


def _run_integrate(args) -> dict:
    _exact_budget(args, args.certify)
    f = load_grid_function(args.function)
    m = load_measure(args.measure)
    ps = load_points(args.points)
    if not args.certify:
        return {"estimate": qmc_estimate(f, ps)}
    return dataclasses.asdict(kh_certificate(f, ps, m, cell_budget=args.budget))


def _run_generate(args) -> dict:
    try:
        ps = halton(args.n, args.d)
    except ValidationError as err:  # named by the flags, not by halton's parameters
        raise ValidationError(f"--n {args.n} --d {args.d}: {err}") from None
    return {"points": points_to_dict(ps)}


def _run_counterexample(args) -> dict:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ValidationError("--tolerance must be finite and > 0")
    _mode_flag(args, "boundary_samples", 256, bool(args.boundary_csv), "with --boundary-csv only")
    if args.boundary_samples < 0:
        raise ValidationError("--boundary-samples must be >= 0")
    x = DEFAULT_POINT if args.point is None else _parse_pair(args.point, "--point")
    probe = _parse_pair(args.box, "--box")
    cdf = chelson_conditional()
    m = chelson_measure()
    ps = PointSet(2, [x])
    report = chelson_identity_check(ps, cdf, m, probe=probe, tol=args.tolerance)
    z = report.transformed.points[0].tolist()

    if args.boundary_csv:
        # boundary of the image of [0, probe]: the curve y1 -> G(y1, probe_2)
        with _allocation(8 * args.boundary_samples, ValidationError(
                "--boundary-samples: the samples do not fit in memory")):
            ys = np.linspace(0.0, probe[0], args.boundary_samples)
        with open(args.boundary_csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["y1", "image_x", "image_y"])
            for y1 in ys:
                gx, gy = forward_cdf_map((y1, probe[1]), cdf)
                writer.writerow([repr(float(y1)), repr(gx), repr(gy)])

    result = {
        "input_point": list(x),
        "transformed_point": list(z),
        "probe_box": list(report.probe),
        "probe_box_image": list(report.probe_image),
        "measure_mass_probe": report.measure_mass_probe,
        "uniform_mass_probe_image": report.uniform_mass_probe_image,
        "transformed_count_in_probe": report.transformed_in_probe,
        "original_count_in_probe_image": report.original_in_probe_image,
        "mu_discrepancy_transformed": report.mu_discrepancy,
        "uniform_discrepancy_original": report.uniform_discrepancy,
        "difference": report.difference,
        "identity_holds": report.identity_holds,
        "rationals": {
            "input_point": [_fraction(c) for c in x],
            "transformed_point": [_fraction(c) for c in z],
            "measure_mass_probe": _fraction(report.measure_mass_probe),
            "uniform_mass_probe_image": _fraction(report.uniform_mass_probe_image),
            "mu_discrepancy_transformed": _fraction(report.mu_discrepancy),
            "uniform_discrepancy_original": _fraction(report.uniform_discrepancy),
        },
    }
    if args.boundary_csv:
        result["boundary_csv"] = args.boundary_csv
    return result


_RUNNERS = {
    "discrepancy": _run_discrepancy,
    "variation": _run_variation,
    "decompose": _run_decompose,
    "transform": _run_transform,
    "integrate": _run_integrate,
    "generate": _run_generate,
    "counterexample": _run_counterexample,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # a non-finite result is refused by _emit
            result = _RUNNERS[args.subcommand](args)
        out = args.out
        if args.subcommand in ("transform", "generate") and out:
            # --out receives the point-set file itself (loadable by --points);
            # the config-stamped report still goes to stdout
            payload = result["points"]
            Path(out).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
            result = {"written": out, "n": len(payload["points"]), "d": payload["d"]}
            out = None
        _emit({"config": vars(args), "result": result}, args.format, out)
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (NuqmcError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
