"""Command-line entry points.

Subcommands wrap the library's main capabilities so single checks run without
writing a script. Exit codes: 0 on success, 2 when a requested check fails
(the command ran fine but the asserted property did not hold), 1 on usage
errors, each printed as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .baselines import MODELS
from .distributions import densify, from_descriptor, index_to_vectors, sample as draw_from
from .errors import GuardError
from .harness import (
    ExperimentSpec,
    _run_kind,
    fit_scaling,
    learner_advantage,
    run_spec,
    write_rows_csv,
)
from .metrics import tv_distance
from .rng import make_generator

CHECK_FAILED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json_arg(text: str) -> dict:
    """Parse an inline JSON object or read one from a file path.

    Malformed JSON, an unreadable file and JSON that is not an object raise
    ``ValueError``, which :func:`main` reports in one ``error:`` line.
    """
    text = text.strip()
    inline = text.startswith("{") or text.startswith("[")
    try:
        value = json.loads(text if inline else Path(text).read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed JSON in {text!r}: {err}") from None
    except OSError as err:
        raise ValueError(f"cannot read JSON file {text!r}: {err.strerror}") from None
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object in {text!r}, got {value!r}")
    return value


def _split(text: str, flag: str, cast) -> list:
    """Comma-separated ``text`` read through ``cast``; a bad item raises ``ValueError``."""
    try:
        return [cast(item) for item in text.split(",")]
    except ValueError:
        want = "integers" if cast is int else "numbers"
        raise ValueError(f"{flag} must be comma-separated {want}, got {text!r}") from None


def _glyphs(row) -> str:
    return "".join("+" if v > 0 else "-" for v in row)


def _cmd_sample(args) -> int:
    desc = _load_json_arg(args.dist)
    dist = from_descriptor(desc)
    if isinstance(dist, list):
        raise ValueError("descriptor names a whole family; pass one member (set 'ell')")
    rng = make_generator(args.seed, "cli-sample")
    points = draw_from(dist, args.n, rng)
    if args.out:
        header = ["row", *(f"x{j}" for j in range(1, points.shape[1] + 1))]
        write_rows_csv(args.out, header, ((i, *row.tolist()) for i, row in enumerate(points)))
        print(f"wrote {args.n} samples to {args.out}")
    else:
        for row in points[:20]:
            print(_glyphs(row))
        if args.n > 20:
            print(f"... ({args.n - 20} more rows; use --out to keep them)")
    if args.pmf_out:
        dense = densify(dist)
        signs = index_to_vectors(np.arange(dense.size), dense.dim)
        rows = ((i, _glyphs(x), float(p)) for i, (x, p) in enumerate(zip(signs, dense.probs)))
        write_rows_csv(args.pmf_out, ["index", "x", "prob"], rows)
        print(f"wrote pmf to {args.pmf_out}")
    return 0


def _cmd_tv(args) -> int:
    a = from_descriptor(_load_json_arg(args.dist_a))
    b = from_descriptor(_load_json_arg(args.dist_b))
    if isinstance(a, list) or isinstance(b, list):
        raise ValueError("tv compares two members, not families")
    value = tv_distance(densify(a).probs, densify(b).probs)
    print(f"tv = {value!r}")
    if args.expect is not None:
        gap = abs(value - args.expect)
        ok = gap <= args.tol
        print(f"expected {args.expect!r} (|gap| = {gap:.3e}): {'PASS' if ok else 'FAIL'}")
        return 0 if ok else CHECK_FAILED
    return 0


def _cmd_norm(args) -> int:
    params = {key: vars(args)[key] for key in ("d", "k", "alpha", "family")}
    _, [row], summary, _ = _run_kind(ExperimentSpec("norm", "norm", params))
    value, bound, ratio = row[-3:]
    print(f"family={args.family} d={args.d} k={args.k} alpha={args.alpha}")
    print(f"value_sq = {value!r}")
    print(f"bound_sq = {bound!r} (ratio {ratio:.6f})")
    if args.json_out:
        report = {key: summary[key] for key in ("value_sq", "bound_sq", "witness_bits")}
        Path(args.json_out).write_text(json.dumps(report) + "\n")
        print(f"wrote report to {args.json_out}")
    if value > bound + 1e-12:
        print("FAIL: value exceeds the closed-form bound")
        return CHECK_FAILED
    return 0


def _cmd_audit(args) -> int:
    mechanism = _load_json_arg(args.mechanism)
    neighbors = _load_json_arg(args.neighbors)
    if not {"a", "b"} <= neighbors.keys():
        raise ValueError(f'--neighbors needs keys "a" and "b", got {neighbors!r}')
    spec = ExperimentSpec(kind="audit", experiment_id="audit", params={
        "mechanism": mechanism, "stream_a": neighbors["a"], "stream_b": neighbors["b"],
        "eps_grid": _split(args.eps, "--eps", float),
    })
    header, rows, summary, _ = _run_kind(spec)
    for e, _, _, dmax in rows:
        print(f"epsilon={e!r}  delta_max={dmax!r}")
    if args.out:
        write_rows_csv(args.out, header, rows)
        print(f"wrote curve to {args.out}")
    if args.max_delta is not None:
        worst = summary["worst_delta"]
        ok = worst <= args.max_delta
        print(f"worst delta {worst!r} vs cap {args.max_delta!r}: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else CHECK_FAILED
    return 0


def _cmd_reduce_check(args) -> int:
    n = args.n
    if n % 3 != 0:
        raise ValueError(f"n must be divisible by 3, got {n}")
    spec = ExperimentSpec("wrapper_gap", "reduce-check", {
        "n": n, "randomizer": {"type": "binary_rr", "flip_p": args.flip_p}, "cutoff": n // 3,
        "reference": {0: 1.0 - args.ref_one, 1: args.ref_one},
        "input": {0: 1.0 - args.input_one, 1: args.input_one},
    })
    _, [(_, tv_null, tv_real, bound)], _, _ = _run_kind(spec)
    print(f"n={n}: tv on reference stream = {tv_null!r}")
    print(f"n={n}: tv on shifted stream   = {tv_real!r} (bound {bound!r})")
    ok = tv_null <= 1e-10 and tv_real <= bound + 1e-10
    print("PASS" if ok else "FAIL")
    return 0 if ok else CHECK_FAILED


def _cmd_distinguish(args) -> int:
    dist, report = learner_advantage(
        args.trials, make_generator(args.seed, "cli-distinguish"),
        d=args.d, k=args.k, alpha=args.alpha, epsilon=args.epsilon,
        planted_subset=args.planted, planted_sign=1, learner=args.learner,
        n_learn=args.n_learn, test_phase_scale=args.scale,
    )
    print(f"test_len={dist.test_len} tau={report.tau!r}")
    print(f"advantage={report.advantage!r} ci=[{report.ci_low!r}, {report.ci_high!r}]")
    if args.min_advantage is not None:
        ok = report.advantage >= args.min_advantage
        print("PASS" if ok else "FAIL")
        return 0 if ok else CHECK_FAILED
    return 0


def _cmd_sweep(args) -> int:
    spec = ExperimentSpec(
        kind="selection_sweep",
        experiment_id=args.experiment_id,
        params={
            "dims": _split(args.dims, "--dims", int),
            "model": args.model,
            "epsilon": args.epsilon,
            "delta": args.delta,
            "alpha": args.alpha,
            "target": args.target,
        },
        trials=args.trials,
        master_seed=args.seed,
    )
    result = run_spec(spec, args.out)
    print(f"wrote {result.csv_path}")
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    return 0


def _cmd_fit(args) -> int:
    try:
        rows = Path(args.csv).read_text().rstrip().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read CSV file {args.csv!r}: {exc.strerror}") from None
    if not rows:
        raise ValueError(f"{args.csv} is empty")
    header = rows[0].split(",")
    if args.x not in header or args.y not in header:
        raise ValueError(f"columns {args.x!r}/{args.y!r} not in {header}")
    xi, yi = header.index(args.x), header.index(args.y)
    xs, ys = [], []
    for number, line in enumerate(rows[1:], start=2):
        parts = line.split(",")
        try:
            if len(parts) != len(header):
                raise ValueError
            xs.append(float(parts[xi]))
            ys.append(float(parts[yi]))
        except ValueError:
            raise ValueError(f"{args.csv} line {number}: expected {len(header)} fields with "
                             f"numbers under {args.x!r} and {args.y!r}, got {line!r}") from None
    fit = fit_scaling(xs, ys)
    print(json.dumps(fit.to_json(), indent=2, sort_keys=True))
    if args.slope_min is not None or args.slope_max is not None:
        lo = args.slope_min if args.slope_min is not None else -np.inf
        hi = args.slope_max if args.slope_max is not None else np.inf
        ok = lo <= fit.slope <= hi
        print("PASS" if ok else "FAIL")
        return 0 if ok else CHECK_FAILED
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="panshuffle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw samples from a distribution descriptor")
    p.add_argument("--dist", required=True, help="JSON descriptor (inline or a file path)")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path for the samples")
    p.add_argument("--pmf-out", help="CSV path for the dense pmf")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("tv", help="exact total variation between two members")
    p.add_argument("--dist-a", required=True)
    p.add_argument("--dist-b", required=True)
    p.add_argument("--expect", type=float, help="assert the value (exit 2 on mismatch)")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(fn=_cmd_tv)

    p = sub.add_parser("norm", help="brute-force family norm vs the closed-form bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--family", choices=("plain", "labeled"), default="plain")
    p.add_argument("--json-out")
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("audit", help="exact privacy curve of a mechanism on a neighbor pair")
    p.add_argument("--mechanism", required=True, help="mechanism manifest JSON")
    p.add_argument("--neighbors", required=True, help='JSON {"a": [...], "b": [...]}')
    p.add_argument("--eps", default="0.5,1.0,2.0", help="comma-separated epsilon grid")
    p.add_argument("--out", help="CSV path for the curve")
    p.add_argument("--max-delta", type=float, help="assert the worst delta (exit 2 on breach)")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("reduce-check", help="wrapper output-law identities at small n")
    p.add_argument("--n", type=int, default=12, help="cohort size (divisible by 3)")
    p.add_argument("--flip-p", type=float, default=0.3)
    p.add_argument("--ref-one", type=float, default=0.4, help="reference P[x=1]")
    p.add_argument("--input-one", type=float, default=0.9, help="shifted-input P[x=1]")
    p.set_defaults(fn=_cmd_reduce_check)

    p = sub.add_parser("distinguish", help="learner-based two-world distinguisher")
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--n-learn", type=int, default=0)
    p.add_argument("--scale", type=float, default=24.0)
    p.add_argument("--planted", type=int, nargs="+", default=[1])
    p.add_argument("--learner", choices=("planted", "plugin"), default="planted")
    p.add_argument("--trials", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-advantage", type=float)
    p.set_defaults(fn=_cmd_distinguish)

    p = sub.add_parser("sweep", help="selection sample-complexity sweep over dimensions")
    p.add_argument("--dims", default="8,16,32,64,128")
    p.add_argument("--model", choices=MODELS, default="pan")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--target", type=float, default=0.9)
    p.add_argument("--trials", type=int, default=1000, help="confirmation trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--experiment-id", default="selection-sweep")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("fit", help="fit a log-log scaling line to CSV columns")
    p.add_argument("--csv", required=True)
    p.add_argument("--x", default="d")
    p.add_argument("--y", default="n_star")
    p.add_argument("--slope-min", type=float)
    p.add_argument("--slope-max", type=float)
    p.set_defaults(fn=_cmd_fit)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a bad input or a guard it trips exits 1 with one ``error:`` line."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, GuardError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
