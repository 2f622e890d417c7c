#!/usr/bin/env python3
"""Self-check for ab.py's statistics and result parsing.

Run directly or via ctest (ab_selftest). Plain python, no pytest: each
check prints a PASSED/FAILED line and the script exits nonzero on the
first failure.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402


def check(name, ok, detail=""):
    print(f"{name} ... {'PASSED' if ok else 'FAILED'}")
    if not ok:
        print(f"  {detail}")
        sys.exit(1)


def main():
    check("quartiles of one value", ab.quartiles([3.0]) == (3.0, 3.0, 3.0))
    q = ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    check("quartiles interpolate inclusively", q == (2.0, 3.0, 4.0), q)

    base = [0.090, 0.094, 0.100, 0.092, 0.096, 0.098, 0.091, 0.095, 0.093, 0.097]
    head = [b - 0.020 for b in base]
    s = ab.summarize(base, head, "lower")
    check("a clear drop wins every pair", s["wins"] == 10 and s["pairs"] == 10, s)
    check("base IQR is q3 - q1", abs(s["base_iqr"] - 0.0045) < 1e-12, s)
    check("a drop beyond the spread is claimed", s["claimed"], s)

    head = [b - 0.002 for b in base]
    s = ab.summarize(base, head, "lower")
    check("a drop within the spread is not claimed",
          s["wins"] == 10 and not s["claimed"], s)

    head = list(base)
    head[0] -= 0.1
    head[1] -= 0.1
    s = ab.summarize(base, head, "lower")
    check("ties are not wins", s["wins"] == 2 and not s["claimed"], s)

    s = ab.summarize([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], "higher")
    check("higher-is-better direction", s["wins"] == 3, s)
    s = ab.summarize(base, [b + 0.02 for b in base], "lower")
    check("a rise is never claimed as a drop", s["wins"] == 0 and not s["claimed"], s)
    nine = [b - 0.02 for b in base[:9]] + [base[9] + 0.001]
    check("9 of 10 pairs suffice", ab.summarize(base, nine, "lower")["claimed"])

    # From 20 pairs up, the gain must hold in the whole list and both halves.
    check("fewer than 20 pairs are not split",
          ab.gain(base, [b - 0.02 for b in base], "lower")[1:] == ([], True))
    twenty = base + [b + 0.001 for b in base]
    _, halves, holds = ab.gain(twenty, [b - 0.02 for b in twenty], "lower")
    check("both halves claiming holds",
          holds and len(halves) == 2 and
          [h["pairs"] for h in halves] == [10, 10], halves)
    one_half = [b - 0.02 for b in twenty[:10]] + twenty[10:]
    whole, halves, holds = ab.gain(twenty, one_half, "lower")
    check("one half claiming does not hold",
          not holds and halves[0]["claimed"] and not halves[1]["claimed"],
          halves)
    # 18 of 20 wins claim the whole list, but the second half wins 8 of 10.
    late_losses = [b - 0.02 for b in twenty[:18]] + [b + 0.001
                                                     for b in twenty[18:]]
    whole, halves, holds = ab.gain(twenty, late_losses, "lower")
    check("a whole-list gain with a losing half does not hold",
          whole["claimed"] and halves[0]["claimed"] and
          not halves[1]["claimed"] and not holds, (whole, halves))

    # No-regression verdicts against a 10% bound.
    flat = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    check("a rise within the bound holds",
          ab.regression(flat, [v + 0.05 for v in flat], "lower", 0.1) == "holds")
    check("a rise past the bound regresses",
          ab.regression(flat, [v + 0.2 for v in flat], "lower", 0.1) ==
          "REGRESSED")
    check("a drop past the bound regresses when higher is better",
          ab.regression(flat, [v - 0.2 for v in flat], "higher", 0.1) ==
          "REGRESSED")
    wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    check("a base spread wider than the bound is unresolved",
          ab.regression(wide, wide, "lower", 0.1) == "unresolved")
    check("unless every head run beats every base run",
          ab.regression(wide, [0.4] * 10, "lower", 0.1) == "holds")

    host, result = ab.parse_run(
        'host {"cpus":4}\nworkload=onboard_cold seed=1\n'
        '{"correct":true,"failed":0,"metrics":{"setup_s":{"value":0.05}}}\n')
    check("host line and result JSON", host == '{"cpus":4}' and
          result["metrics"]["setup_s"]["value"] == 0.05, (host, result))
    check("seed lists", ab.seed_list("1-3,7") == [1, 2, 3, 7])
    return 0


if __name__ == "__main__":
    sys.exit(main())
