"""Command-line front end: estimate, bandwidth, simulate, validate.

All output is plain comma-separated text with 17 significant digits so
downstream plotting stays tool-agnostic. Every command is deterministic
given its flags, input bytes, and seed; simulate requires an explicit
seed.
"""

import argparse
import sys

import numpy as np

from . import bandwidth as bw
from . import estimator, simulate, validation
from .models import GammaMarginal, product_gamma
from .theory import MixingProfile

__all__ = ["main"]


def _parse_marginal(spec):
    """Marginal specs: exp:RATE | gamma:SHAPE,SCALE."""
    kind, _, arg = spec.partition(":")
    if kind == "exp":
        return GammaMarginal(1.0, 1.0 / float(arg or 1.0))
    if kind == "gamma":
        parts = [float(p) for p in arg.split(",")]
        return GammaMarginal(parts[0], parts[1] if len(parts) > 1 else 1.0)
    raise argparse.ArgumentTypeError(f"unknown marginal spec '{spec}'")


def _parse_model(spec, d):
    """Model specs: exp:RATE | gamma:SHAPE,SCALE | data:FILE."""
    kind, _, arg = spec.partition(":")
    if kind == "data":
        return None, _load_sample(arg)
    try:
        m = _parse_marginal(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad --model spec '{spec}': {exc}") from exc
    return product_gamma([m.shape] * d, [m.scale] * d), None


def _load_sample(path):
    """load_sample with unreadable or malformed input as a usage error."""
    try:
        return estimator.load_sample(path)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_grid(spec):
    """Grid spec: lo:hi:num per axis, axes separated by ';'."""
    axes = []
    for part in spec.split(";"):
        lo, hi, num = part.split(":")
        axes.append(np.linspace(float(lo), float(hi), int(num)))
    return axes


def _default_grid(data, num=50):
    axes = []
    for j in range(data.shape[1]):
        hi = float(np.quantile(data[:, j], 0.99))
        axes.append(np.linspace(0.0, hi if hi > 0 else 1.0, num))
    return axes


def _resolve_bandwidth(args, data, tau, which):
    if args.b is not None:
        return float(args.b), "fixed"
    if args.rule == "plugin":
        rule = bw.plug_in_bandwidth(data, tau, which=which, stages=args.stages)
        return rule.bandwidth(data.shape[0]), f"rule {rule.kind} (C={rule.C:.6g})"
    raise SystemExit("need --b VALUE or --rule plugin")


def run_estimate(args):
    data = _load_sample(args.input)
    if data.shape[1] == 1 and args.tau > 0:
        data = estimator.fragment(data[:, 0], args.tau)
    d = data.shape[1]
    which = args.which
    b, provenance = _resolve_bandwidth(args, data, args.tau, which)
    axes = _parse_grid(args.grid) if args.grid else _default_grid(data)
    if len(axes) != d:
        raise SystemExit(f"grid has {len(axes)} axes, data has dimension {d}")
    fld = estimator.field_on_grid(
        data, axes, np.full(d, b), kind=which,
        axis=args.axis if which == "derivative" else None,
    )
    estimator.save_field(fld, args.output)
    print(f"bandwidth={b:.16e} provenance={provenance}")
    print(f"wrote {fld.values.size} nodes to {args.output}")
    return 0


def run_bandwidth(args):
    d = args.tau + 1
    model, data = _parse_model(args.model, d)
    if data is not None:
        rule = bw.plug_in_bandwidth(data, args.tau, which=args.which,
                                    stages=args.stages)
    elif args.upsilon is not None:
        if args.which != "density":
            raise SystemExit("the mixing-aware rule applies to the density")
        mp = MixingProfile(upsilon=args.upsilon,
                           alpha_integral=args.alpha_integral)
        rule = bw.mixing_bandwidth(model, args.tau, args.n, mp)
    elif args.which == "density":
        rule = bw.density_bandwidth(model, args.tau, args.n)
    else:
        rule = bw.derivative_bandwidth(model, args.tau, args.n)
    print(rule.serialize(n=args.n))
    return 0


def run_simulate(args):
    marginal = args.marginal  # parsed by the --marginal argument type
    spec = simulate.MixingProcessSpec(marginal, phi=args.phi)

    if args.b is not None:
        bandwidth = float(args.b)
    else:
        d = args.tau + 1
        model = product_gamma([marginal.shape] * d, [marginal.scale] * d)
        if args.which == "density":
            bandwidth = bw.density_bandwidth(model, args.tau, args.n_grid[0])
        else:
            bandwidth = bw.derivative_bandwidth(model, args.tau,
                                                args.n_grid[0])
    cfg = simulate.ExperimentConfig(
        process=spec, n_grid=args.n_grid, replicates=args.replicates,
        tau=args.tau, seed=args.seed, which=args.which,
        bandwidth=bandwidth, workers=args.workers,
    )
    result = simulate.mc_mise(cfg)
    if len(args.n_grid) >= 3:
        simulate.rate_fit(result)
    simulate.export_result(result, args.output)
    print(f"wrote {len(result.records)} replicate records to {args.output}")
    if result.slope is not None:
        print(f"slope={result.slope:.6f} stderr={result.slope_se:.6f}")
    return 0


def run_validate(args):
    checks = validation.run_all(quick=args.quick)
    width = max(len(name) for name, _ok, _d in checks)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        failed += not ok
    return 1 if failed else 0


def _int_list(text):
    return [int(p) for p in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gammakde",
        description="Gamma product-kernel density and derivative estimation "
                    "on the nonnegative orthant",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate on a data file")
    p_est.add_argument("--input", required=True)
    p_est.add_argument("--output", required=True)
    p_est.add_argument("--tau", type=int, default=0)
    p_est.add_argument("--which", choices=["density", "derivative"],
                       default="density")
    p_est.add_argument("--axis", type=int, default=None)
    p_est.add_argument("--b", type=float, default=None)
    p_est.add_argument("--rule", choices=["plugin"], default=None)
    p_est.add_argument("--stages", type=int, choices=[1, 2], default=1)
    p_est.add_argument("--grid", default=None,
                       help="lo:hi:num per axis, ';'-separated")
    p_est.set_defaults(func=run_estimate)

    p_bw = sub.add_parser("bandwidth", help="compute a bandwidth rule")
    p_bw.add_argument("--which", choices=["density", "derivative"],
                      required=True)
    p_bw.add_argument("--tau", type=int, default=0)
    p_bw.add_argument("--n", type=int, required=True)
    p_bw.add_argument("--model", required=True,
                      help="exp:RATE | gamma:SHAPE,SCALE | data:FILE")
    p_bw.add_argument("--stages", type=int, choices=[1, 2], default=1)
    p_bw.add_argument("--upsilon", type=float, default=None)
    p_bw.add_argument("--alpha-integral", type=float, default=None)
    p_bw.set_defaults(func=run_bandwidth)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("--output", required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--which", choices=["density", "derivative"],
                       default="density")
    p_sim.add_argument("--tau", type=int, default=0)
    p_sim.add_argument("--n-grid", type=_int_list, required=True,
                       help="comma-separated increasing sample sizes")
    p_sim.add_argument("--replicates", type=int, default=50)
    p_sim.add_argument("--phi", type=float, default=0.0)
    p_sim.add_argument("--marginal", type=_parse_marginal, default="exp:1.0",
                       help="exp:RATE | gamma:SHAPE,SCALE")
    p_sim.add_argument("--b", type=float, default=None)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.set_defaults(func=run_simulate)

    p_val = sub.add_parser("validate", help="run the validation suite")
    p_val.add_argument("--quick", action="store_true",
                       help="skip the Monte Carlo checks")
    p_val.set_defaults(func=run_validate)

    args = parser.parse_args(argv)
    if args.command == "bandwidth" and args.upsilon is not None \
            and args.alpha_integral is None:
        p_bw.error("--upsilon needs --alpha-integral")
    if args.command == "simulate" and args.seed < 0:
        p_sim.error(f"--seed must be >= 0, got {args.seed}")
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        # bad input named on the command line: one line and exit 2
        sub.choices[args.command].error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
