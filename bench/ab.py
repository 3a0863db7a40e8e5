#!/usr/bin/env python3
"""Alternating A/B runs of one perfbench workload: base commit vs. head.

Usage, from the root of the repository:

    python3 bench/ab.py --workload fanout --pairs 10 --seed 4242 --seconds 20
    python3 bench/ab.py --workload join_churn --base HEAD~1 --head HEAD
    python3 bench/ab.py --workload replicated_failover --metric setup_s
    python3 bench/ab.py --workload micro --pairs 10

Each side is exported into its own directory under --dir (`git archive`
of the revision, or a copy of the tracked and untracked-but-not-ignored
files when the revision is `worktree`), so neither run sees the other's
build and the repository itself is left untouched. Both sides are built
first, then the runs alternate: pair i runs base then head for even i and
head then base for odd i, so a drift of the machine's speed hits both
sides alike. Every run is `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` inside that side's directory; a run that exits
non-zero or reports failed operations stops the comparison.

The report gives each side's median and interquartile range of one
end-to-end metric of BENCHMARK.json, chosen with --metric (default
host_ops_per_s), the pairs head won, the median delta, and whether that
delta is larger than the base's IQR ("beats noise"); "won" and "beats"
follow the metric's declared `better` direction. It also says whether every virt_*
metric was identical between the two sides, which holds when a change
leaves the modeled system's virtual time alone. Last, for every
end-to-end metric that BENCHMARK.json declares (name, `better`, `bound`;
the file is only read), it prints both medians, the relative change and
the no-regression verdict: `WORSE beyond bound` when the head median is
worse than the base median by more than `bound` (a fraction of the base)
in the metric's `better` direction, `within bound` otherwise.

`--workload micro` compares the event loop instead: each run is
`bench/main.exe --quick --smoke micro` (which writes no BENCH_*.json), and
the report covers its `engine pooled step @2000 pending` row, host
ns/event (lower is better) and minor words/event, with no bound verdicts.
--seed, --seconds and --metric do not apply to it. Needs git, dune and python3 only; no network.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRIC = "host_ops_per_s"
MICRO_ROW = "engine pooled step @2000 pending"
MICRO_METRIC = "host_ns_per_event"


def git(*args):
    return subprocess.run(
        ["git", "-C", ROOT] + list(args), check=True, capture_output=True, text=True
    ).stdout


def export(rev, dest):
    """Materialise [rev] (a commit, or `worktree`) into the empty dir [dest]."""
    os.makedirs(dest)
    if rev == "worktree":
        files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for rel in filter(None, files.split("\0")):
            src = os.path.join(ROOT, rel)
            if os.path.isfile(src):
                os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
                shutil.copy2(src, os.path.join(dest, rel))
        return "worktree of " + git("rev-parse", "--short", "HEAD").strip()
    sha = git("rev-parse", "--verify", rev + "^{commit}").strip()
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("ab: git archive %s failed" % rev)
    return sha[:12]


def build(side_dir, target):
    env = dict(os.environ, DUNE_CACHE="disabled")
    subprocess.run(
        ["dune", "build", "--root", side_dir, target],
        cwd=side_dir, env=env, check=True, stdout=sys.stderr, stderr=sys.stderr,
    )


def run_micro(side_dir, args):
    exe = os.path.join(side_dir, "_build", "default", "bench", "main.exe")
    proc = subprocess.run([exe, "--quick", "--smoke", "micro"],
                          cwd=side_dir, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit("ab: micro run in %s exited %d" % (side_dir, proc.returncode))
    for line in proc.stdout.splitlines():
        if line.strip().startswith(MICRO_ROW):
            ns, words = line.strip()[len(MICRO_ROW):].split()[:2]
            return {MICRO_METRIC: float(ns), "minor_words_per_event": float(words)}
    sys.exit("ab: no %r row in the micro output of %s" % (MICRO_ROW, side_dir))


def run_once(side_dir, args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=side_dir, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit("ab: run in %s exited %d" % (side_dir, proc.returncode))
    result = json.loads(lines[-1])
    if result.get("failed", 0) != 0 or not result.get("correct", False):
        sys.exit("ab: run in %s reported failures: %s" % (side_dir, lines[-1]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def end_to_end():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def bound_verdicts(runs):
    """One line per declared end-to-end metric both sides reported."""
    for m in end_to_end():
        name = m["name"]
        if any(r.get(name) is None for r in runs["base"] + runs["head"]):
            continue
        b = statistics.median(r[name] for r in runs["base"])
        h = statistics.median(r[name] for r in runs["head"])
        # positive when head is worse, as a fraction of base
        worse = (h - b) if m["better"] == "lower" else (b - h)
        rel = worse / abs(b) if b else (0.0 if worse == 0 else float("inf"))
        print("  %-18s base %12.4f  head %12.4f  %+7.2f%%  bound %g (%s better): %s"
              % (name, b, h, 100.0 * (h - b) / b if b else 0.0, m["bound"], m["better"],
                 "WORSE beyond bound" if rel > m["bound"] else "within bound"))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["fanout", "join_churn", "replicated_failover", "micro"])
    ap.add_argument("--base", default="HEAD",
                    help="base revision (default HEAD)")
    ap.add_argument("--head", default="worktree",
                    help="head revision, or `worktree` for the uncommitted "
                         "tree (default)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--metric", default=METRIC,
                    help="end-to-end metric of BENCHMARK.json to compare "
                         "(default %s)" % METRIC)
    ap.add_argument("--dir", default=os.path.join(tempfile.gettempdir(), "corona-ab"),
                    help="directory for the two exports; emptied "
                         "first (default: corona-ab in the system temp dir)")
    args = ap.parse_args()
    micro = args.workload == "micro"
    declared = {m["name"]: m for m in end_to_end()}
    if micro:
        if args.metric != METRIC:
            sys.exit("ab: --metric does not apply to --workload micro")
        metric = MICRO_METRIC
    elif args.metric in declared:
        metric = args.metric
    else:
        sys.exit("ab: --metric must be one of: " + ", ".join(declared))
    run = run_micro if micro else run_once
    # +1 when higher is better, -1 when lower is.
    sign = -1 if micro or declared[metric]["better"] == "lower" else 1

    shutil.rmtree(args.dir, ignore_errors=True)
    sides = {}
    for name, rev in (("base", args.base), ("head", args.head)):
        d = os.path.join(args.dir, name)
        sides[name] = (d, export(rev, d))
        build(d, "./bench/main.exe" if micro else "./perfbench/corona_bench.exe")

    runs = {"base": [], "head": []}
    setting = ("%r row" % MICRO_ROW if micro
               else "seed %d, %g s runs" % (args.seed, args.seconds))
    print("ab: %s %s, %s; base %s, head %s" % (
        args.workload, setting, metric, sides["base"][1], sides["head"][1]), flush=True)
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for name in order:
            runs[name].append(run(sides[name][0], args))
        b = runs["base"][-1][metric]
        h = runs["head"][-1][metric]
        print("pair %2d  base %12.6g  head %12.6g  %+6.1f%%" % (
            i + 1, b, h, 100.0 * (h - b) / b), flush=True)

    base = [r[metric] for r in runs["base"]]
    head = [r[metric] for r in runs["head"]]
    won = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    delta = hmed - bmed
    beats = sign * delta > bq3 - bq1
    virt = [k for k in runs["base"][0] if k.startswith("virt_")]
    same_virt = all(
        r[k] == runs["base"][0][k] for k in virt for r in runs["base"] + runs["head"]
    )
    print("base median %.6g  IQR %.6g-%.6g" % (bmed, bq1, bq3))
    print("head median %.6g  IQR %.6g-%.6g" % (hmed, hq1, hq3))
    print("median delta %+.1f%%  pairs won %d/%d  beats noise (delta > base IQR): %s"
          % (100.0 * delta / bmed, won, len(base), "yes" if beats else "no"))
    if not micro:
        print("virt_* identical on both sides: %s" % ("yes" if same_virt else "no"))
    for k in runs["base"][0]:
        if not k.startswith("virt_") and k != metric:
            (b1, b2, b3), (h1, h2, h3) = (
                quartiles([r[k] for r in runs[name]]) for name in ("base", "head"))
            print("  %-22s base median %12.4f (IQR %.4f-%.4f)  head median %12.4f"
                  " (IQR %.4f-%.4f)" % (k, b2, b1, b3, h2, h1, h3))
    if not micro:
        print("no-regression verdicts (BENCHMARK.json end_to_end):")
        bound_verdicts(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
