#!/usr/bin/env python3
"""The paper ledger: the output of the 16 paper benches, kept byte for byte.

    python3 tools/paper_ledger.py build/bench --write bench_output.txt
    python3 tools/paper_ledger.py build/bench --check fig8_vs_random

--write runs every paper bench in BENCHES order from the given binary
directory and writes their output, one `==> <bench> <==` section each, to
the file (regenerate bench_output.txt this way after a change that means to
move a number, and say why in CHANGES.md). --check reruns one bench and
diffs its output against its section of the ledger (default: the
repository's bench_output.txt), exiting 1 with a unified diff when they
differ. The benches are seeded and thread-count invariant, so an exact
diff is the right gate.

One bench measures wall clock: fig1_fig7_core_hours times a real
inference sweep, and its PML core-hour and speedup columns derive from
that time. Both the ledger and the check print those values as
`wall-clock` (WALL_CLOCK below), so the rest of that bench's table is
still compared exactly.
"""
import argparse
import difflib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BENCHES = [
    "table1_dataset",
    "fig1_fig7_core_hours",
    "fig2_cluster_variation",
    "fig5_fig6_feature_importance",
    "table2_model_comparison",
    "table3_split_accuracy",
    "fig8_vs_random",
    "fig9_frontera_cluster_based",
    "fig10_mri_cluster_based",
    "fig11_vs_openmpi",
    "fig12_node_based",
    "fig13_applications",
    "table_aggregate_speedups",
    "ablation_features",
    "ablation_noise",
    "ext_future_work",
]

HEADER = """\
# Output of the paper benches, one section per bench. Regenerate with
#   python3 tools/paper_ledger.py build/bench --write bench_output.txt
# The `paper` ctest label reruns each bench and diffs its section.
"""
MASK = "wall-clock"


def mask_fig1(text):
    """fig1_fig7_core_hours with its wall-clock-derived values masked: the
    last three cells of each table row, and the measured sweep time."""
    lines = []
    for line in text.split("\n"):
        cells = line.split("|")
        if len(cells) == 9 and cells[1].strip().isdigit():
            for i in (5, 6, 7):
                cells[i] = MASK.rjust(len(cells[i]) - 1) + " "
            line = "|".join(cells)
        lines.append(line)
    return re.sub(r"(PML one-time cost: ).*?( measured inference sweep)",
                  r"\1" + MASK + r"\2", "\n".join(lines))


WALL_CLOCK = {"fig1_fig7_core_hours": mask_fig1}


def run(bin_dir, bench):
    """The bench's stdout, wall-clock fields masked; exits on failure."""
    proc = subprocess.run([str(Path(bin_dir) / bench)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, encoding="utf-8")
    if proc.returncode != 0:
        sys.exit(f"{bench} exited {proc.returncode}:\n{proc.stderr}")
    if not proc.stdout.endswith("\n"):
        sys.exit(f"{bench}: output does not end with a newline")
    return WALL_CLOCK.get(bench, lambda text: text)(proc.stdout)


def sections(text):
    """{bench: output} of a ledger's text."""
    parts = re.split(r"^==> (\S+) <==\n", text, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("bin_dir", help="directory holding the bench binaries")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="regenerate the ledger")
    mode.add_argument("--check", metavar="BENCH", choices=BENCHES,
                      help="rerun one bench and diff it against the ledger")
    parser.add_argument("--ledger", default=str(ROOT / "bench_output.txt"),
                        help="ledger to check against (default: %(default)s)")
    args = parser.parse_args()

    if args.write:
        out = HEADER + "".join(f"==> {b} <==\n{run(args.bin_dir, b)}"
                               for b in BENCHES)
        Path(args.write).write_text(out, encoding="utf-8")
        return 0

    want = sections(Path(args.ledger).read_text(encoding="utf-8")).get(args.check)
    if want is None:
        sys.exit(f"{args.ledger} has no section for {args.check}")
    got = run(args.bin_dir, args.check)
    if got == want:
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        f"{args.ledger} ({args.check})", f"{args.check} now"))
    print(f"\n{args.check} no longer prints its ledger section; if the "
          "change means to move these numbers, regenerate the ledger "
          "(--write) and say why in CHANGES.md.")
    return 1


if __name__ == "__main__":
    sys.exit(main())
