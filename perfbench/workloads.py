"""Seeded job decks for the two workloads.

A deck is a fixed number of jobs per size class; the seed draws the points,
functions and measures of every job and shuffles the order of each pass.
The program only ever receives the generated inputs.  Every job carries a
``check`` that verifies its output outside the timed region and returns the
list of failures (empty when the output is correct).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

TOL = 1e-12
CHECK_TRIALS = 200
PAPER_POINT = (56.0 / 81.0, 20.0 / 23.0)
PAPER_RATIONALS = {
    "mu_discrepancy": "610/729",
    "uniform_discrepancy": "20/23",
    "measure_mass_probe": "22/25",
    "uniform_mass_probe_image": "4/5",
}

WORKLOADS = ("exact-grid", "analytic-bv-cli")


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    inputs: tuple = field(default=())  # arrays hashed into the deck digest


@dataclass
class Context:
    """What a deck needs besides the seed: the package, the Chelson CDF
    callback to hand to ``AnalyticCdfMeasure``, and where CLI inputs go."""

    nq: object
    chelson_callback: Callable
    work_dir: str = ""
    tiny: bool = False


def build(workload: str, seed: int, ctx: Context) -> list[Job]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "exact-grid":
        return _exact_grid(ctx, rng)
    # one deck for the three Python-bound job families: on a shared 2-CPU
    # host their speed drifts for tens of seconds at a time, and one long
    # run per seed averages that drift better than three short ones
    return _analytic_cert(ctx, rng) + _bv_roundtrip(ctx, rng) + _cli_mixed(ctx, rng)


# -- input generators --------------------------------------------------------


class _Points:
    """Cranley-Patterson shifted Halton points: one Halton prefix per
    dimension, shifted by a seeded vector mod 1 for every point set."""

    def __init__(self, nq, rng):
        self.nq = nq
        self.rng = rng
        self._halton = {}

    def __call__(self, n: int, d: int):
        base = self._halton.get(d)
        if base is None or base.shape[0] < n:
            base = self.nq.halton(max(n, 64), d).points
            self._halton[d] = base
        shift = self.rng.random(d)
        return self.nq.PointSet(d, (base[:n] + shift) % 1.0)


def _smooth_axis(nq, rng, breakpoints=33):
    bp = np.linspace(0.0, 1.0, breakpoints)
    power = rng.uniform(0.5, 2.0)
    return nq.AxisCdf(bp, bp ** power)


def _jump_plateau_axis(nq, rng):
    """Ramp to a jump at ``j``, then a plateau on ``[p, q]``, then a ramp."""
    j, p, q = np.sort(rng.choice(np.arange(1, 64), 3, replace=False)) / 64.0
    lo = rng.uniform(0.1, 0.3)
    hi = lo + rng.uniform(0.2, 0.4)
    bp = [0.0, j, p, q, 1.0]
    values = [0.0, hi, hi + 0.1, hi + 0.1, 1.0]
    left = [0.0, lo, hi + 0.1, hi + 0.1, 1.0]
    return nq.AxisCdf(bp, values, left)


def _chelson(ctx):
    return ctx.nq.AnalyticCdfMeasure(2, ctx.chelson_callback, continuous=True, label="chelson")


def _breakpoints(rng, k):
    inner = np.sort(rng.choice(np.arange(1, 4096), k - 2, replace=False)) / 4096.0
    return np.concatenate([[0.0], inner, [1.0]])


def _step_function(nq, rng, shape, integer=True):
    bps = [_breakpoints(rng, k) for k in shape]
    if integer:
        values = rng.integers(-8, 9, size=shape).astype(float)
    else:
        values = rng.uniform(-1.0, 1.0, size=shape)
    return nq.GridFunction(bps, values, nq.STEP)


# -- checks ------------------------------------------------------------------


def _close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _check_star(nq, ps, m, res, seed) -> list:
    out = []
    dev = nq.one_sided_deviation(res.witness_box.upper, ps, m, res.witness_flags)
    if not _close(dev, res.value):
        out.append(f"witness deviation {dev!r} != reported {res.value!r}")
    lower = nq.random_search_lower_bound(ps, m, CHECK_TRIALS, seed).value
    if lower > res.value + TOL:
        out.append(f"search lower bound {lower!r} exceeds exact {res.value!r}")
    return out


def _fraction(x: float) -> str:
    f = Fraction(x).limit_denominator(10**6)
    return f"{f.numerator}/{f.denominator}"


def _check_paper(report) -> list:
    out = []
    for name, want in PAPER_RATIONALS.items():
        got = _fraction(getattr(report, name))
        if got != want:
            out.append(f"{name} is {got}, the paper gives {want}")
    return out


def _star_job(nq, rng, kind, ps, m) -> Job:
    seed = int(rng.integers(2**31))
    return Job(kind, lambda: nq.star_discrepancy(ps, m),
               lambda res: _check_star(nq, ps, m, res, seed), (ps.points,))


# -- exact-grid --------------------------------------------------------------


def _exact_grid(ctx, rng) -> list[Job]:
    nq = ctx.nq
    pts = _Points(nq, rng)
    scale = 8 if ctx.tiny else 1
    uniform = [  # (d, N, jobs per deck)
        (2, 512, 2), (3, 64, 2), (4, 24, 5), (2, 1024, 5),
        (4, 32, 3), (3, 128, 2), (2, 2048, 5), (2, 4096, 1),
    ]
    jobs = []

    for d, n, count in uniform:
        for _ in range(count):
            jobs.append(_star_job(nq, rng, f"uniform-d{d}-n{n}", pts(max(n // scale, 4), d), nq.UniformMeasure(d)))
    for _ in range(2):
        m = nq.ProductMeasure([_smooth_axis(nq, rng) for _ in range(2)])
        jobs.append(_star_job(nq, rng, "product-smooth-d2-n1024", pts(1024 // scale, 2), m))
    for _ in range(2):
        m = nq.ProductMeasure([_jump_plateau_axis(nq, rng) for _ in range(2)])
        jobs.append(_star_job(nq, rng, "product-jump-d2-n1024", pts(1024 // scale, 2), m))
    for _ in range(2):
        atoms = 128 // scale
        w = rng.uniform(0.5, 1.5, atoms)
        m = nq.DiscreteMeasure.from_points(2, rng.random((atoms, 2)), w / w.sum())
        jobs.append(_star_job(nq, rng, "discrete-d2-n512-a128", pts(512 // scale, 2), m))
    return jobs


# -- analytic-bv-cli, part 1: analytic measures and certificates -------------


def _analytic_cert(ctx, rng) -> list[Job]:
    nq = ctx.nq
    pts = _Points(nq, rng)
    tiny = ctx.tiny
    chelson = _chelson(ctx)
    cond = nq.chelson_conditional()
    jobs = []

    for n, count in ((16, 2), (32, 9), (48, 12), (64, 1)):
        for _ in range(count):
            jobs.append(_star_job(nq, rng, f"chelson-star-n{n}", pts(n // 4 if tiny else n, 2), chelson))

    def cert_job(kind, f, ps, m):
        def check(cert):
            return [] if cert.satisfied is True else [f"certificate not satisfied: {cert}"]
        return Job(kind, lambda: nq.kh_certificate(f, ps, m), check, (f.values, ps.points))

    for k in (8, 16, 24, 32):
        k = max(k // 4, 2) if tiny else k
        f = _step_function(nq, rng, (k, k), integer=False)
        jobs.append(cert_job(f"cert-chelson-k{k}", f, pts(8 if tiny else 32, 2), chelson))
    for k, d, n in ((8, 3, 32), (16, 2, 256), (24, 2, 256), (32, 2, 256)):
        k = max(k // 4, 2) if tiny else k
        f = _step_function(nq, rng, (k,) * d, integer=False)
        m = nq.ProductMeasure([_smooth_axis(nq, rng) for _ in range(d)])
        jobs.append(cert_job(f"cert-product-d{d}-k{k}", f, pts(n // 8 if tiny else n, d), m))

    def identity_job(kind, ps, paper):
        seed = int(rng.integers(2**31))

        def check(report):
            out = []
            back = [nq.forward_cdf_map(z, cond) for z in report.transformed.points]
            if not np.allclose(back, ps.points, rtol=0.0, atol=1e-12):
                out.append("forward map does not invert the conditional transform")
            lower = nq.random_search_lower_bound(report.transformed, chelson, CHECK_TRIALS, seed).value
            if lower > report.mu_discrepancy + TOL:
                out.append(f"search lower bound {lower!r} exceeds {report.mu_discrepancy!r}")
            if paper:
                out.extend(_check_paper(report))
            return out

        return Job(kind, lambda: nq.chelson_identity_check(ps, cond, chelson), check, (ps.points,))

    for n in (16, 16, 32, 32):
        jobs.append(identity_job(f"identity-n{n}", pts(n // 4 if tiny else n, 2), False))
    for _ in range(2):
        jobs.append(identity_job("identity-paper", nq.PointSet(2, [PAPER_POINT]), True))

    def transform_job(ps, m):
        def check(image):
            exact = nq.star_discrepancy(ps, nq.UniformMeasure(2)).value
            mapped = nq.star_discrepancy(image, m).value
            return [] if _close(mapped, exact) else [
                f"D*_m(T(P)) = {mapped!r} but D*_lambda(P) = {exact!r}"]
        return Job("product-transform-n256", lambda: nq.product_transform(ps, m), check, (ps.points,))

    for _ in range(4):
        m = nq.ProductMeasure([_smooth_axis(nq, rng) for _ in range(2)])
        jobs.append(transform_job(pts(32 if tiny else 256, 2), m))
    return jobs


# -- analytic-bv-cli, part 2: BV functions and signed measures ---------------

BV_SHAPES = (  # (shape, jobs per deck); 10^3 to 1.6 * 10^4 vertices
    ((32, 32), 2), ((10, 10, 10), 1), ((4, 4, 4, 4, 4), 1), ((6, 6, 6, 6), 1),
    ((4, 4, 4, 4, 2, 2), 4),
    ((64, 64), 1), ((8, 8, 8, 8), 1),
    ((20, 20, 20), 1), ((6, 6, 6, 6, 6), 1), ((90, 90), 1),
    ((11, 11, 11, 11), 1),
)


def _bv_job(nq, f) -> Job:
    def run():
        hk_one = nq.hk_variation(f, nq.ANCHOR_ONE)
        hk_zero = nq.hk_variation(f, nq.ANCHOR_ZERO)
        vitali = nq.vitali_variation(f)
        f1, f2 = nq.leonov_decompose(f)
        pair = nq.jordan_decompose_function(f)
        monotone = nq.is_completely_monotone(pair.f_plus)
        nu = nq.function_to_measure(f)
        back = nq.measure_to_function(nu)
        pos, neg = nq.jordan_decompose_measure(nu)
        tv = nq.total_variation(nu)
        return dict(hk_one=hk_one, hk_zero=hk_zero, vitali=vitali, leonov=(f1, f2),
                    pair=pair, monotone=monotone, nu=nu, back=back, jordan=(pos, neg), tv=tv)

    def check(out):
        bad = []
        vertices = f.vertex_coordinates()
        if not np.array_equal(out["back"].evaluate(vertices), f.values.reshape(-1)):
            bad.append("measure_to_function(function_to_measure(f)) != f at the vertices")
        again = nq.function_to_measure(out["back"])
        nu = out["nu"]
        if not (np.array_equal(again.locations, nu.locations)
                and np.array_equal(again.weights, nu.weights)):
            bad.append("function -> measure -> function -> measure changed the measure")
        if not _close(out["tv"], out["hk_zero"] + abs(f.value_at_origin())):
            bad.append(f"total variation {out['tv']!r} != hk0 + |f(0)|")
        if out["monotone"] is not True:
            bad.append("f_plus of the Jordan split is not completely monotone")
        pair = out["pair"]
        if not np.array_equal(f.value_at_origin() + pair.f_plus.values - pair.f_minus.values, f.values):
            bad.append("f != f(0) + f_plus - f_minus")
        f1, f2 = out["leonov"]
        if not np.array_equal(f1.values - f2.values, f.values):
            bad.append("f != f1 - f2 in the prefix-variation split")
        pos, neg = out["jordan"]
        if not _close(pos.mass + neg.mass, out["tv"]):
            bad.append("Jordan part masses do not add up to the total variation")
        return bad

    return Job(f"bv-d{f.dimension}-v{f.values.size}", run, check, (f.values,) + f.breakpoints)


def _bv_roundtrip(ctx, rng) -> list[Job]:
    nq = ctx.nq
    jobs = []
    for shape, count in BV_SHAPES:
        if ctx.tiny:
            shape = tuple(max(2, k // 3) for k in shape)
        for _ in range(count):
            jobs.append(_bv_job(nq, _step_function(nq, rng, shape)))
    return jobs


# -- analytic-bv-cli, part 3: CLI requests -----------------------------------
#
# Each job is one ``nuqmc.cli.main(argv)`` call with the argv of a
# ``python -m nuqmc.cli`` process, on JSON files written during set-up.  The
# per-process interpreter and import cost is paid once, in set-up (this
# worker imports ``nuqmc.cli`` before READY), and is reported by the traced
# run as ``cli.interpreter_s`` and ``cli.import_s``.


def _cli_mixed(ctx, rng) -> list[Job]:
    from nuqmc import cli, jsonio as jio

    nq = ctx.nq
    pts = _Points(nq, rng)
    tiny = ctx.tiny
    outputs = {}

    def write(name, obj):
        path = os.path.join(ctx.work_dir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def cli_job(kind, argv, check):
        argv = [str(a) for a in argv]

        def check_all(result):
            code, stdout = result
            if code != 0:
                return [f"exit code {code} for {argv}"]
            first = outputs.setdefault(tuple(argv), stdout)
            bad = [] if first == stdout else [f"stdout differs from the first run of {argv}"]
            try:
                report = json.loads(stdout)
            except ValueError as err:
                return bad + [f"stdout does not parse: {err}"]
            return bad + check(report["result"])

        texts = [" ".join(argv).replace(ctx.work_dir, "")]
        texts += [Path(a).read_text() for a in argv if a.startswith(ctx.work_dir)]
        inputs = tuple(np.frombuffer(t.encode(), np.uint8) for t in texts)
        return Job(kind, lambda: run(argv), check_all, inputs)

    def check_witness(p, m):
        def check(res):
            ps, meas = jio.load_points(p), jio.load_measure(m)
            dev = nq.one_sided_deviation(res["witness"], ps, meas, tuple(res["witness_flags"]))
            bad = [] if _close(dev, res["value"]) else [f"witness deviation {dev!r} != {res['value']!r}"]
            if res["method"] == "exact":
                lower = nq.random_search_lower_bound(ps, meas, CHECK_TRIALS, 7).value
                if lower > res["value"] + TOL:
                    bad.append(f"search lower bound {lower!r} exceeds exact {res['value']!r}")
            return bad
        return check

    uniform2 = write("uniform2.measure.json", {"type": "uniform", "d": 2})
    uniform6 = write("uniform6.measure.json", {"type": "uniform", "d": 6})
    jobs = []
    # the N=2048 requests hold the workload's 90th percentile: numpy-bound
    # jobs there keep it steady while Python-bound speed drifts on the host
    for i, n in enumerate((1024,) * 2 + (2048,) * 7):
        p = write(f"exact{i}.points.json", jio.points_to_dict(pts(n // 16 if tiny else n, 2)))
        jobs.append(cli_job(f"cli-discrepancy-exact-n{n}", ["discrepancy", "--points", p, "--measure", uniform2],
                            check_witness(p, uniform2)))

    for i in range(2):
        n, trials = (64, 300) if tiny else (512, 1000)
        p = write(f"search{i}.points.json", jio.points_to_dict(pts(n, 6)))
        seed = int(rng.integers(2**31))
        jobs.append(cli_job("cli-discrepancy-search",
                            ["discrepancy", "--search", trials, "--seed", seed,
                             "--points", p, "--measure", uniform6],
                            check_witness(p, uniform6)))

    def check_cert(res):
        return [] if res["satisfied"] is True else [f"certificate not satisfied: {res}"]

    def axis_dict(ax):
        return {"breakpoints": ax.breakpoints.tolist(), "values": ax.values.tolist(),
                "values_left": ax.values_left.tolist()}

    for i in range(2):
        k = 4 if tiny else 16
        f = write(f"cert{i}.function.json",
                  jio.grid_function_to_dict(_step_function(nq, rng, (k, k), integer=False)))
        axes = [_smooth_axis(nq, rng) for _ in range(2)]
        m = write(f"cert{i}.measure.json", {"type": "product", "axes": [axis_dict(a) for a in axes]})
        p = write(f"cert{i}.points.json", jio.points_to_dict(pts(32 if tiny else 256, 2)))
        jobs.append(cli_job("cli-integrate-certify",
                            ["integrate", "--certify", "--f", f, "--measure", m, "--points", p],
                            check_cert))

    for i in range(2):
        f = write(f"decompose{i}.function.json",
                  jio.grid_function_to_dict(_step_function(nq, rng, (6, 6) if tiny else (12, 12))))

        def check_decompose(res, f=f):
            fn = jio.load_grid_function(f)
            bad = []
            if res["measure"]["roundtrip_max_weight_error"] != 0.0:
                bad.append("function <-> measure round trip is not exact")
            if not _close(res["measure"]["total_variation"], res["hk_zero"] + abs(fn.value_at_origin())):
                bad.append("total variation != hk0 + |f(0)|")
            if not _close(res["hk_zero"], res["hk_zero_plus"] + res["hk_zero_minus"]):
                bad.append("Jordan split is not variation-additive")
            return bad

        jobs.append(cli_job("cli-decompose", ["decompose", "--function", f], check_decompose))

    def check_counterexample(res):
        rat = res["rationals"]
        got = {"mu_discrepancy": rat["mu_discrepancy_transformed"],
               "uniform_discrepancy": rat["uniform_discrepancy_original"],
               "measure_mass_probe": rat["measure_mass_probe"],
               "uniform_mass_probe_image": rat["uniform_mass_probe_image"]}
        return [f"{k} is {got[k]}, the paper gives {v}" for k, v in PAPER_RATIONALS.items() if got[k] != v]

    jobs.append(cli_job("cli-counterexample", ["counterexample"], check_counterexample))

    for _ in range(2):
        n_gen = int(rng.integers(480, 544)) // (8 if tiny else 1)

        def check_generate(res, n_gen=n_gen):
            want = nq.halton(n_gen, 3).points.tolist()
            return [] if res["points"]["points"] == want else ["generated points differ from halton()"]

        jobs.append(cli_job("cli-generate", ["generate", "--n", n_gen, "--d", 3], check_generate))
    return jobs
