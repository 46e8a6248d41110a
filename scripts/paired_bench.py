"""Paired perfbench runs of a parent revision against the working tree.

    python3 scripts/paired_bench.py --parent HEAD --workload cls_budget \
        --seeds 0-9 --seconds 25 --json BENCH_N.json

Exports ``--parent`` with ``git archive`` into a temporary directory outside
the repository, then runs ``perfbench/run.py --trace 0`` once per seed on
each side: the export runs the parent's sources, this checkout its own
working tree.  The two runs of a seed form a pair, and the side that runs
first alternates from seed to seed.  For every end-to-end metric that
``BENCHMARK.json`` declares, it prints each side's median and quartiles, the
median and quartiles of the per-pair ratio change / parent, the pairs the
change won (ties count for neither side), and the gap between the medians
against the parent's interquartile range.  It also prints each side's
``reference_s`` median, the allocator check of the normalisation, and the
raw pass time ``wall_s`` summarised as the metrics are (side medians and
quartiles, pair ratio and pairs won), which tells a gain in the program
apart from a moved reference kernel.  Each run's minor page faults
(``minflt``: the ``RUSAGE_CHILDREN`` ``ru_minflt`` delta around the run,
its set-up probes, passes and anchor included) are summarised by their
median per side, as ``reference_s`` is, and gate nothing.
``--json`` writes the same summary with every run's numbers.
"""

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text):
    """Seeds from a list such as "0-4,7": ranges include both ends."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    if not seeds or min(seeds) < 0 or len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct non-negative integers: {text!r}")
    return seeds


def spread(values):
    """Median, quartiles and interquartile range of one side's runs."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "runs": len(values)}


def paired(pairs, name, better="lower"):
    """Each side's ``spread`` of metric ``name``, the pairs the change won
    (ties count for neither side) and the ``spread`` of the per-pair ratio
    change / parent."""
    sign = 1.0 if better == "lower" else -1.0
    return {**{s: spread([p[s][name] for p in pairs]) for s in SIDES},
            "change_won": sum(sign * (p["parent"][name] - p["change"][name]) > 0
                              for p in pairs),
            "pair_ratio": spread([p["change"][name] / p["parent"][name] for p in pairs])}


def summarize(pairs, metrics):
    """Summary of the runs of one workload.

    ``pairs`` holds one {"parent": {name: value}, "change": {name: value}}
    per seed; ``metrics`` maps each end-to-end metric to "lower" or
    "higher", the direction that is better.  A metric's ``gap`` is the
    parent's median minus the change's, signed so that a positive gap is
    a gain and a negative one a regression, and ``gap_exceeds_parent_iqr``
    compares its size with the parent's quartile spread, either way.
    ``ratio`` divides the change's median by the parent's; ``pair_ratio``
    gives the spread of change / parent within each pair, which cancels
    the host's drift from one pair to the next.  ``reference_s`` and
    ``minflt`` give each side's median reference time and page-fault
    count, over the runs that reported one, and ``wall_s`` the ``paired``
    summary of the raw pass time over the pairs whose runs both reported
    it (None when none did).
    """
    out = {}
    for name, better in metrics.items():
        m = paired(pairs, name, better)
        gap = (1.0 if better == "lower" else -1.0) * (
            m["parent"]["median"] - m["change"]["median"])
        out[name] = {**m, "gap": gap,
                     "gap_exceeds_parent_iqr": abs(gap) > m["parent"]["iqr"],
                     "ratio": m["change"]["median"] / m["parent"]["median"]}
    raw = [p for p in pairs if all("wall_s" in p[s] for s in SIDES)]
    return {"pairs": len(pairs), "metrics": out,
            **{name: side_medians(pairs, name) for name in ("reference_s", "minflt")},
            "wall_s": paired(raw, "wall_s") if raw else None}


def side_medians(pairs, name):
    """Each side's median of ``name`` over the runs that reported it (None
    when none did)."""
    values = {s: [p[s][name] for p in pairs if name in p[s]] for s in SIDES}
    return {s: statistics.median(v) if v else None for s, v in values.items()}


def format_summary(workload, summary):
    lines = [f"{workload}: {summary['pairs']} pairs"]
    for name, m in summary["metrics"].items():
        p, c, r = m["parent"], m["change"], m["pair_ratio"]
        way = "gain" if m["gap"] > 0 else "regression" if m["gap"] < 0 else "tie"
        lines.append(
            f"  {name}: parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
            f"  ratio {m['ratio']:.4f}  pair ratio {r['median']:.4f}"
            f" [{r['q1']:.4f}, {r['q3']:.4f}]  change won {m['change_won']} of "
            f"{summary['pairs']}  gap {m['gap']:.4g} ({way}) vs parent IQR {p['iqr']:.4g}"
            f" ({'exceeds' if m['gap_exceeds_parent_iqr'] else 'within'})")
    for name in ("reference_s", "minflt"):
        med = summary[name]
        lines.append(f"  {name} median: parent {med['parent']}  change {med['change']}")
    raw = summary["wall_s"]
    if raw:
        p, c, r = raw["parent"], raw["change"], raw["pair_ratio"]
        lines.append(
            f"  wall_s (raw): parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
            f"  pair ratio {r['median']:.4f} [{r['q1']:.4f}, {r['q3']:.4f}]"
            f"  change won {raw['change_won']} of {p['runs']}")
    return "\n".join(lines)


def export(rev, dest):
    """The tree of ``rev`` extracted into ``dest``; returns its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def run_once(checkout, workload, seed, seconds):
    """One ``perfbench/run.py --trace 0`` run; its metrics and minor page
    faults, or None with the reason when it failed its checks."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["minflt"] = faults
    for line in lines:  # the raw times run.py prints as "name = value unit"
        name, sep, rest = line.partition(" = ")
        if sep and name in ("wall_s", "reference_s"):
            values[name] = float(rest.split()[0])
    return values, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision to compare the working tree against")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: every one)")
    parser.add_argument("--seeds", default="0-9", help='seeds, e.g. "0-9" or "0,2,5"')
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--json", help="write the summary and every run here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    if any(w not in known for w in workloads):
        parser.error(f"--workload must be among {known}")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))

    report = {"parent": args.parent, "seconds": args.seconds, "seeds": seeds,
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        report["parent_commit"] = export(args.parent, tmp)
        checkouts = {"parent": tmp, "change": ROOT}
        for workload in workloads:
            pairs, failed = [], []
            for i, seed in enumerate(seeds):
                pair = {"seed": seed, "first": SIDES[i % 2]}
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    values, why = run_once(checkouts[side], workload, seed, args.seconds)
                    if values is None:
                        failed.append({"seed": seed, "side": side, "reason": why})
                    pair[side] = values
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{s} {pair[s]['wall_norm_s']:.4f}" if pair[s] else f"{s} failed"
                    for s in SIDES), flush=True)
                if pair["parent"] and pair["change"]:
                    pairs.append(pair)
            entry = {"pairs": pairs, "failed": failed}
            if pairs:
                entry["summary"] = summarize(pairs, metrics)
                print(format_summary(workload, entry["summary"]), flush=True)
            report["workloads"][workload] = entry
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if any(e["failed"] for e in report["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
