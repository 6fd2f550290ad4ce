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
    try:
        if kind == "exp":
            return GammaMarginal(1.0, 1.0 / float(arg or 1.0))
        if kind == "gamma":
            parts = [float(p) for p in arg.split(",")]
            return GammaMarginal(parts[0], parts[1] if len(parts) > 1 else 1.0)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad marginal spec '{spec}': {exc}") from exc
    raise argparse.ArgumentTypeError(f"unknown marginal spec '{spec}'")


def _parse_model(spec, d):
    """Model specs: exp:RATE | gamma:SHAPE,SCALE | data:FILE."""
    kind, _, arg = spec.partition(":")
    if kind == "data":
        return None, estimator.load_sample(arg)
    m = _parse_marginal(spec)
    return product_gamma([m.shape] * d, [m.scale] * d), None


def _parse_grid(spec):
    """Grid spec: lo:hi:num per axis, axes separated by ';'."""
    axes = []
    for part in spec.split(";"):
        try:
            lo, hi, num = part.split(":")
            with np.errstate(over="ignore", invalid="ignore"):
                nodes = np.linspace(float(lo), float(hi), int(num))
        except ValueError:
            raise ValueError(
                f"bad --grid axis '{part}': expected lo:hi:num") from None
        if not np.all(np.isfinite(nodes)):
            raise ValueError(f"bad --grid axis '{part}': nodes are not "
                             "finite floats")
        axes.append(nodes)
    return axes


def _default_grid(data, num=50):
    axes = []
    for j in range(data.shape[1]):
        hi = float(np.quantile(data[:, j], 0.99))
        axes.append(np.linspace(0.0, hi if hi > 0 else 1.0, num))
    return axes


def _resolve_bandwidth(args, data, tau, which):
    if args.b is not None:
        return args.b, "fixed"
    if args.rule == "plugin":
        rule = bw.plug_in_bandwidth(data, tau, which=which, stages=args.stages)
        return rule.bandwidth(data.shape[0]), f"rule {rule.kind} (C={rule.C:.6g})"
    raise ValueError("need --b VALUE or --rule plugin")


def run_estimate(args):
    if args.axis is not None and args.which != "derivative":
        raise ValueError("--axis applies only to --which derivative")
    if args.stages != 1 and args.rule != "plugin":
        raise ValueError("--stages applies only to --rule plugin")
    data = estimator.load_sample(args.input)
    if data.shape[1] == 1 and args.tau > 0:
        data = estimator.fragment(data[:, 0], args.tau)
    elif args.tau > 0 and data.shape[1] != args.tau + 1:
        raise ValueError(
            f"--tau {args.tau} needs a one-column series or "
            f"{args.tau + 1} columns; the data has {data.shape[1]}")
    d = data.shape[1]
    which = args.which
    b, provenance = _resolve_bandwidth(args, data, args.tau, which)
    axes = _parse_grid(args.grid) if args.grid else _default_grid(data)
    if len(axes) != d:
        raise ValueError(f"grid has {len(axes)} axes, data has dimension {d}")
    fld = estimator.field_on_grid(data, axes, np.full(d, b), kind=which,
                                  axis=args.axis)
    estimator.save_field(fld, args.output)
    print(f"bandwidth={b:.16e} provenance={provenance}")
    print(f"wrote {fld.values.size} nodes to {args.output}")
    return 0


def run_bandwidth(args):
    d = args.tau + 1
    model, data = _parse_model(args.model, d)
    if data is not None:
        if args.upsilon is not None:
            raise ValueError("--upsilon applies only to exp: and gamma: "
                             "models")
        rule = bw.plug_in_bandwidth(data, args.tau, which=args.which,
                                    stages=args.stages)
    elif args.stages != 1:
        raise ValueError("--stages applies only to data: models")
    elif args.upsilon is not None:
        if args.which != "density":
            raise ValueError("the mixing-aware rule applies to the density")
        mp = MixingProfile(upsilon=args.upsilon,
                           alpha_integral=args.alpha_integral)
        rule = bw.mixing_bandwidth(model, args.n, mp)
    elif args.which == "density":
        rule = bw.density_bandwidth(model, args.n)
    else:
        rule = bw.derivative_bandwidth(model, args.n)
    print(rule.serialize(n=args.n))
    return 0


def run_simulate(args):
    marginal = args.marginal  # parsed by the --marginal argument type
    spec = simulate.MixingProcessSpec(marginal, phi=args.phi)

    if args.b is not None:
        bandwidth = args.b
    else:
        d = args.tau + 1
        model = product_gamma([marginal.shape] * d, [marginal.scale] * d)
        if args.which == "density":
            bandwidth = bw.density_bandwidth(model, args.n_grid[0])
        else:
            bandwidth = bw.derivative_bandwidth(model, args.n_grid[0])
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


def _int_at_least(low):
    """argparse type: an integer that is at least ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _positive_float(text):
    """argparse type: a finite float > 0."""
    value = float(text)
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0, got {text}")
    return value


_positive_float.__name__ = "float"  # argparse names it in "invalid float"


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
    p_est.add_argument("--tau", type=_int_at_least(0), default=0)
    p_est.add_argument("--which", choices=["density", "derivative"],
                       default="density")
    p_est.add_argument("--axis", type=int, default=None)
    chosen = p_est.add_mutually_exclusive_group()
    chosen.add_argument("--b", type=_positive_float, default=None)
    chosen.add_argument("--rule", choices=["plugin"], default=None)
    p_est.add_argument("--stages", type=int, choices=[1, 2], default=1)
    p_est.add_argument("--grid", default=None,
                       help="lo:hi:num per axis, ';'-separated")
    p_est.set_defaults(func=run_estimate)

    p_bw = sub.add_parser("bandwidth", help="compute a bandwidth rule")
    p_bw.add_argument("--which", choices=["density", "derivative"],
                      required=True)
    p_bw.add_argument("--tau", type=_int_at_least(0), default=0)
    p_bw.add_argument("--n", type=_int_at_least(1), required=True)
    p_bw.add_argument("--model", required=True,
                      help="exp:RATE | gamma:SHAPE,SCALE | data:FILE")
    p_bw.add_argument("--stages", type=int, choices=[1, 2], default=1)
    p_bw.add_argument("--upsilon", type=float, default=None)
    p_bw.add_argument("--alpha-integral", type=float, default=None)
    p_bw.set_defaults(func=run_bandwidth)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("--output", required=True)
    p_sim.add_argument("--seed", type=_int_at_least(0), required=True)
    p_sim.add_argument("--which", choices=["density", "derivative"],
                       default="density")
    p_sim.add_argument("--tau", type=_int_at_least(0), default=0)
    p_sim.add_argument("--n-grid", type=_int_list, required=True,
                       help="comma-separated increasing sample sizes")
    p_sim.add_argument("--replicates", type=int, default=50)
    p_sim.add_argument("--phi", type=float, default=0.0)
    p_sim.add_argument("--marginal", type=_parse_marginal, default="exp:1.0",
                       help="exp:RATE | gamma:SHAPE,SCALE")
    p_sim.add_argument("--b", type=_positive_float, default=None)
    p_sim.add_argument("--workers", type=_int_at_least(1), default=1)
    p_sim.set_defaults(func=run_simulate)

    p_val = sub.add_parser("validate", help="run the validation suite")
    p_val.add_argument("--quick", action="store_true",
                       help="skip the Monte Carlo checks")
    p_val.set_defaults(func=run_validate)

    args = parser.parse_args(argv)
    if args.command == "bandwidth" \
            and (args.upsilon is None) != (args.alpha_integral is None):
        p_bw.error("--upsilon and --alpha-integral go together")
    try:
        return args.func(args)
    except (argparse.ArgumentTypeError, MemoryError, OSError,
            ValueError) as exc:
        # any of these raised while a command runs is reported as a usage
        # error: one line and exit 2, no traceback; MemoryError is a grid
        # or sample too large to allocate
        sub.choices[args.command].error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
