#!/usr/bin/env python3
"""Profile optimal truncation of the non-terminating series.

For non-integer order the shell weights eventually grow factorially, so
the series is asymptotic in a*pi: it is summed to its smallest shell
term and that term is the reported error estimate.  This script sweeps
a*pi on a log grid at fixed (alpha, beta, k) and prints, per point, the
number of shells kept, the reported estimate, and the actual deviation
from the closed form.  The estimate column should dominate the
deviation column everywhere the asymptotic regime warning is absent.

Usage:
    python scripts/truncation_profile.py
    python scripts/truncation_profile.py --k -0.5 --alpha 0.3 --beta -0.55
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chebgamma import SeriesParams, closed_form, series_sum  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=float, default=-0.5)
    parser.add_argument("--alpha", type=float, default=0.3)
    parser.add_argument("--beta", type=float, default=-0.55)
    parser.add_argument("--zmin", type=float, default=2.0)
    parser.add_argument("--zmax", type=float, default=math.exp(4.0))
    parser.add_argument("--points", type=int, default=12)
    args = parser.parse_args(argv)
    if args.points < 2 or not 0.0 < args.zmin < args.zmax:
        parser.error("need --points >= 2 and 0 < --zmin < --zmax")

    print(f"k = {args.k}, alpha = {args.alpha}, beta = {args.beta}")
    print(f"{'a*pi':>10}  {'shells':>6}  {'estimate':>10}  {'|dev|':>10}  "
          f"{'honest':>6}  warnings")
    ratio = (args.zmax / args.zmin) ** (1.0 / (args.points - 1))
    z = args.zmin
    for _ in range(args.points):
        p = SeriesParams(a=z / math.pi, k=args.k, alpha=args.alpha, beta=args.beta)
        res = series_sum(p)
        dev = abs(res.value - closed_form(p))
        honest = "yes" if dev <= res.error_estimate else "NO"
        notes = ",".join(sorted(res.warnings)) if res.warnings else "-"
        print(f"{z:>10.3f}  {res.shells_used:>6d}  {res.error_estimate:>10.2e}  "
              f"{dev:>10.2e}  {honest:>6}  {notes}")
        z *= ratio
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
