#!/usr/bin/env python3
"""Convergence-order sweep for the splitting integrators.

Integrates the relativistic contact Hamiltonian over a fixed horizon with
each composition plan at a ladder of step sizes, measures the endpoint error
against a fine RK4 reference (``checks.order_errors``: 4 dims, gamma = 0.1,
one reference per sweep at dt = max(taus)/100, shared by every plan and step
size), and fits the log-log slope with ``checks.fit_order``.  Each plan's
slope is printed beside its design order from ``integrators.PLANS``, where
it should sit; jump6's error constant is large, so its small-tau end needs
care.
"""

import argparse
import sys

from contactopt.checks import ORDER_TAUS, fit_order, order_errors
from contactopt.integrators import PLAN_NAMES, PLANS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--plans", default=",".join(PLAN_NAMES),
                    help="comma list of composition plans")
    ap.add_argument("--taus", default=",".join(map(str, ORDER_TAUS)))
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    try:
        taus = [float(v) for v in args.taus.split(",") if v]
    except ValueError:
        ap.error(f"--taus: expected comma-separated numbers, got {args.taus!r}")
    if len(taus) < 2:
        ap.error("--taus needs at least two step sizes to fit a slope")

    plans = args.plans.split(",")
    try:
        errors = order_errors(plans, taus, args.horizon, args.seed)
    except ValueError as e:
        ap.error(str(e))
    print(f"{'plan':<8} {'tau':>9} {'endpoint error':>16}")
    for name in plans:
        for tau, err in zip(taus, errors[name]):
            print(f"{name:<8} {tau:>9.4f} {err:>16.3e}")
        slope = fit_order(taus, errors[name])
        print(f"{name:<8} observed order {slope:.3f}  (design order {PLANS[name][0]})\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
