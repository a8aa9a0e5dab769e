"""Command-line front end.

Subcommands:

  run     one optimizer on one objective, trace CSV out
  search  full tune-then-measure pipeline from a JSON config
  bench   same pipeline from a named preset at desk or paper scale
  rates   power-law exponent fits over windows of a trace CSV
  check   the geometric self-verification suite
  list    every name the other subcommands accept, each optimizer kind
          with the tunables it reads

Exit codes are a stable contract: 0 success, 1 usage or config error or
a closed stdout, 2 the requested run diverged, 3 a self-check failed.
All randomness flows from one master seed (--seed, falling back to the
CONTACT_OPT_SEED environment variable), and outputs are byte-identical
for a given seed.  Every run is serial; search and bench accept --jobs (a
positive integer) and ignore it.
"""

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional

from .checks import CHECK_FAMILIES, run_checks
from .harness import (
    ConfigError,
    RateUndefinedError,
    estimate_rate,
    export_band_csv,
    export_svg,
    export_trace_csv,
    parse_experiment,
    parse_init_flag,
    read_trace_csv,
    run_bench,
    spec_to_doc,
)
from .integrators import PLAN_NAMES
from .objectives import OBJECTIVE_NAMES, get_objective
from .optimizers import KIND_PARAMS, OPTIMIZER_KINDS, TUNABLES, OptimizerConfig, run
from .presets import PRESET_NAMES, SCALES, experiment_preset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_CHECK_FAILED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; this contract reserves 2 for
    divergence, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _master_seed(explicit: Optional[int], default: int = 0) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("CONTACT_OPT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"CONTACT_OPT_SEED must be an integer, got {env!r}")
    return default


def _fmt_params(params: dict) -> str:
    return ", ".join(f"{k}={v!r}" for k, v in params.items())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    seed = _master_seed(args.seed, default=1)
    obj = get_objective(args.objective, dim=args.dim, seed=seed)
    cfg = OptimizerConfig(kind=args.optimizer, **{name: getattr(args, name) for name in TUNABLES})
    x0 = parse_init_flag(args.init).start(obj.dim, seed)
    rec = run(obj, cfg, x0, args.iters, trial_seed=seed)
    if args.out:
        export_trace_csv([rec], args.out)
        print(f"trace written to {args.out}")
    print(f"{rec.kind}: final gap {rec.trace[-1]:.6e} after {len(rec.trace) - 1} iterations")
    if rec.diverged:
        print("run diverged", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _run_pipeline(spec, args) -> int:
    outcomes = run_bench(spec)
    bands = []
    records = []
    for oc in outcomes:
        sr = oc.search
        if sr.viable:
            print(
                f"{sr.kind}: best final gap {sr.best_gap:.6e} with {_fmt_params(sr.best_params)}"
                f"  [{sr.n_diverged}/{sr.n_trials} trials diverged]"
            )
            bands.append(oc.band)
            records.extend(oc.records)
        else:
            print(
                f"{sr.kind}: no viable parameters ({sr.n_diverged}/{sr.n_trials} trials diverged)"
            )
    if args.out:
        export_band_csv(bands, args.out)
        print(f"bands written to {args.out}")
    if args.traces:
        export_trace_csv(records, args.traces)
        print(f"traces written to {args.traces}")
    if args.svg:
        if bands:
            export_svg(bands, args.svg, title=args.title or "")
            print(f"figure written to {args.svg}")
        else:
            print("no bands to plot, skipping SVG", file=sys.stderr)
    return EXIT_OK


def cmd_search(args) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise OSError(f"cannot read config {args.config!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValueError(f"config {args.config!r} is not valid JSON: {e}") from e
    spec = parse_experiment(doc)
    spec = dataclasses.replace(
        spec, master_seed=_master_seed(args.seed, default=spec.master_seed)
    )
    return _run_pipeline(spec, args)


def cmd_bench(args) -> int:
    init = parse_init_flag(args.init) if args.init else None
    spec = experiment_preset(
        args.preset,
        scale=args.scale,
        master_seed=_master_seed(args.seed),
        init=init,
    )
    if args.dump_config:
        print(json.dumps(spec_to_doc(spec), indent=2))
        return EXIT_OK
    if not args.out:
        args.out = f"bench_{args.preset}_{args.scale}.csv"
    return _run_pipeline(spec, args)


def cmd_rates(args) -> int:
    pairs = read_trace_csv(args.trace)
    windows = []
    for token in args.windows.split(","):
        lo, _, hi = token.partition("-")
        try:
            k_lo, k_hi = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"--windows: expected lo-hi, got {token!r}") from None
        if k_hi <= k_lo:
            raise ValueError(f"--windows: expected lo < hi, got {token!r}")
        windows.append((k_lo, k_hi))
    print(f"{'optimizer':<10} {'trial':>5} {'window':>12} {'p':>10}")
    for trial, rec in pairs:
        for k_lo, k_hi in windows:
            lo = max(1, k_lo)
            hi = min(k_hi, len(rec.trace) - 1)
            label = f"{k_lo}-{k_hi}"
            if hi <= lo:
                p_str = "n/a"
            else:
                try:
                    p_str = f"{estimate_rate(rec.trace, (lo, hi)):.2f}"
                except RateUndefinedError:
                    p_str = "n/a"
            print(f"{rec.kind:<10} {trial:>5} {label:>12} {p_str:>10}")
    return EXIT_OK


def cmd_check(args) -> int:
    only = args.only.split(",") if args.only is not None else None
    results = run_checks(only=only, seed=_master_seed(args.seed))
    for r in results:
        print(r.line())
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


def cmd_list(args) -> int:
    print("objectives:        " + ", ".join(OBJECTIVE_NAMES))
    print("optimizers:        " + ", ".join(
        f"{kind}({', '.join(params)})" for kind, params in KIND_PARAMS.items()))
    print("integrator plans:  " + ", ".join(PLAN_NAMES))
    print(
        "bench presets:     "
        + ", ".join(PRESET_NAMES)
        + f"  (scales: {', '.join(SCALES)})"
    )
    print("check families:    " + ", ".join(CHECK_FAMILIES))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contactopt", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("run", help="run one optimizer on one objective")
    p.add_argument("--objective", required=True, choices=OBJECTIVE_NAMES)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=None, help="objective/init seed")
    p.add_argument("--optimizer", required=True, choices=OPTIMIZER_KINDS)
    for name in TUNABLES:
        p.add_argument(f"--{name}", type=float, default=getattr(OptimizerConfig, name))
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--init", default="pattern:1", help="fixed:a,... | pattern:a,... | box:lo,hi")
    p.add_argument("--out", default=None, help="trace CSV path")
    p.set_defaults(func=cmd_run)

    # the flags of the tune-then-measure pipeline that search and bench share
    pipeline = _Parser(add_help=False)
    pipeline.add_argument("--seed", type=int, default=None, help="master seed (overrides a config's)")
    pipeline.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    pipeline.add_argument("--out", default=None, help="band CSV path")
    pipeline.add_argument("--traces", default=None, help="per-run trace CSV path")
    pipeline.add_argument("--svg", default=None, help="figure path")
    pipeline.add_argument("--title", default=None)

    p = sub.add_parser("search", parents=[pipeline], help="tune and measure from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bench", parents=[pipeline], help="tune and measure a named preset")
    p.add_argument("--preset", required=True, choices=PRESET_NAMES)
    p.add_argument("--scale", choices=SCALES, default="desk")
    p.add_argument("--init", default=None, help="override the preset start point")
    p.add_argument(
        "--dump-config",
        action="store_true",
        help="print the preset as an editable JSON config and exit",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("rates", help="fit power-law exponents on a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--windows", default="0-50,50-150,150-300")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("check", help="geometric self-verification suite")
    p.add_argument("--only", default=None, help="comma list of families")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("list", help="show every accepted name")
    p.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "jobs", 1) < 1:
            raise ValueError("--jobs must be >= 1")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except SystemExit as e:
        return int(e.code or 0)
    except BrokenPipeError:
        # end quietly; what is still buffered goes to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except ConfigError as e:
        print(f"config error {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
