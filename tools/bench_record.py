"""Record bench/run.py results into a BENCH_*.json file, and compare two records.

    python3 tools/bench_record.py --out BENCH_7.json --runs 20 \
        --checkout base=../parent-checkout --checkout again=../parent-checkout \
        --checkout new=.
    python3 tools/bench_record.py --compare BENCH_7.json:base BENCH_7.json:again
    python3 tools/bench_record.py --compare BENCH_7.json:base BENCH_7.json:new
    python3 tools/bench_record.py --compare BENCH_6.json BENCH_7.json

Recording copies each labelled checkout, without `.git` and
`__pycache__`, into one temporary directory made for the recording and
removed at its end, and runs the copy's `bench/run.py` there, each run a
fresh process, `--runs` times per workload and seed, alternating which
checkout goes first from one run to the next (a b, b a, a b, ...), so
the runs of two checkouts pair up. bench/run.py writes no bytecode, so
every run compiles the package from source, reads no `__pycache__` that
a checkout holds, and loads the standard library from its own bytecode,
as a bare run does; nothing is written inside a checkout. Each run's
last stdout line is kept (its `correct`, `attempted`, `failed` and
metric values; a run with no such line keeps the tail of its stderr as
`error`), and each metric gets its median and quartiles per checkout,
workload and seed. The file also names each checkout's git commit (and
whether its working tree differs from it), the Python version and the
core count. It is rewritten after every run; recording into an existing
file adds to it, replacing the workload and seed cells it records again.
A label given twice, --runs below 1, or a record made under another
Python version, core count or --seconds, or one that names another
commit for a label of this call, is refused (exit 2) before any run, so
that no cell is labelled with what another call measured. Recording
exits 1, with the file written, when any of its runs is not correct or
has a failed op, and 0 otherwise.

Comparing reads two records, each FILE:LABEL; without a label it is the
file's "change" record, or its only one. It prints one table: a row for
each workload, seed and end-to-end metric of BENCHMARK.json that both
sides hold, with both medians in the metric's unit, the median per-pair
ratio (new over base) with a seeded bootstrap 95% interval, and the
pairs that new wins by the metric's `better`. A ratio past the metric's
bound is marked PAST BOUND. Each failed run is printed after the rows,
with the last line of its error. A workload, seed or label cell that one
record lacks, or has no run in yet, is skipped. It gates nothing: the
exit status is 0 whatever it prints, and 2 when a record cannot be read.

An interval that holds 1 resolves nothing, however the wins fall. A
claim is read beside an A/A: record the parent twice, as `base` and
`again`, with the change as `new` (as above), and compare base with
again and base with new; the A/B counts where the A/A holds 1 and the
A/B's interval excludes it. Each run is its own process, so an offset
that one process holds for its whole life changes from run to run and
widens the interval, instead of shifting every pair alike. A run at
--seconds 1 takes 4-7 s (set-up and at least 3 passes), so 20 runs of
three labels on one workload take about 6 min. BENCH_35.json, an A/A of
20 runs per workload at --seconds 1 on a 2-core host, has 95% intervals
3.5-11% wide on the rates and report_s, 5-13% on setup_s and 0.2-0.4%
on peak_rss_mib: a claim needs a margin past its own A/A's width.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("file_roundtrip", "report_tables", "key_census")
BOOTSTRAP = 2000


def git(checkout: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def commit(checkout: Path) -> dict:
    """checkout's git commit, and whether its tree differs (read writing nothing)."""
    return {"sha": git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(git(checkout, "--no-optional-locks", "status", "--porcelain"))}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench run in checkout; its last stdout line, or a failed record."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    try:
        last = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": None, "metrics": {},
                "error": done.stderr.strip()[-400:]}
    return {"correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each metric over runs."""
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, value in run["metrics"].items():
            values.setdefault(name, []).append(value)
    out = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive") if len(vals) > 1 \
            else (vals[0],) * 3
        out[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3, "runs": len(vals)}
    return out


def record(args) -> int:
    checkouts = {}
    for spec in args.checkouts:
        label, _, path = spec.partition("=")
        checkout = Path(path).resolve()
        if not (label and (checkout / "bench" / "run.py").is_file()):
            print(f"error: {spec!r} is not LABEL=CHECKOUT with a bench/run.py", file=sys.stderr)
            return 2
        if label in checkouts:
            print(f"error: label {label!r} is given twice", file=sys.stderr)
            return 2
        checkouts[label] = checkout
    if args.runs < 1:
        print(f"error: --runs {args.runs} is below 1", file=sys.stderr)
        return 2
    out = Path(args.out)
    result = json.loads(out.read_text()) if out.is_file() else {"workloads": {}}
    setting = {"python": platform.python_version(), "cores": os.cpu_count(),
               "seconds": args.seconds}
    labelled = {label: commit(path) for label, path in checkouts.items()}
    clashes = [f"{name} {result[name]!r}, not {value!r}" for name, value in setting.items()
               if name in result and result[name] != value]
    clashes += [f"label {label!r} at commit {result['checkouts'][label]['sha']}, "
                f"not {ours['sha']}" for label, ours in labelled.items()
                if label in result.get("checkouts", {})
                and result["checkouts"][label].get("sha") != ours["sha"]]
    if clashes:
        print(f"error: {out} was recorded with " + "; ".join(clashes)
              + ": record into another file", file=sys.stderr)
        return 2
    result.update(setting)
    result["checkouts"] = {**result.get("checkouts", {}), **labelled}
    labels, failed = list(checkouts), 0
    with tempfile.TemporaryDirectory(prefix="bench-record-") as work:
        clean = shutil.ignore_patterns(".git", "__pycache__")
        copies = {label: shutil.copytree(path, Path(work, str(k)), ignore=clean)
                  for k, (label, path) in enumerate(checkouts.items())}
        for workload in args.workloads:
            for seed in args.seeds:
                cell = {label: {"runs": []} for label in labels}
                result["workloads"].setdefault(workload, {})[str(seed)] = cell
                for k in range(args.runs):
                    for label in (labels if k % 2 == 0 else labels[::-1]):
                        run = run_once(copies[label], workload, seed, args.seconds)
                        cell[label]["runs"].append(run)
                        cell[label]["metrics"] = summary(cell[label]["runs"])
                        failed += not run["correct"] or bool(run["failed"])
                        print(f"{workload} seed {seed} run {k + 1}/{args.runs} {label}: "
                              f"{outcome(run)}", file=sys.stderr)
                        out.write_text(json.dumps(result, indent=1) + "\n")
    if failed:
        print(f"error: {failed} runs are not correct or have failed ops", file=sys.stderr)
    return 1 if failed else 0


def outcome(run: dict) -> str:
    """run's correct and failed fields, and the last line of its error if it has one."""
    fields = f"correct={run['correct']} failed={run['failed']}"
    error = run.get("error", "").splitlines()
    return f"{fields} error: {error[-1]}" if error else fields


def load(spec: str) -> dict:
    """The cells of record spec, FILE or FILE:LABEL, that hold a run."""
    path, _, label = spec.partition(":")
    data = json.loads(Path(path).read_text())
    return cells(data, label or ("change" if "change" in data["checkouts"]
                                 else list(data["checkouts"])[-1]))


def cells(data: dict, label: str) -> dict:
    """The cells of a record's label that hold a run."""
    return {workload: {seed: cell[label] for seed, cell in seeds.items()
                       if "metrics" in cell.get(label, {})}
            for workload, seeds in data["workloads"].items()}


def ratio_interval(ratios: list[float], seed: int = 0) -> tuple[float, float]:
    """A seeded bootstrap 95% interval of the median of ratios."""
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP))
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def table(base: dict, new: dict) -> None:
    """Print a row for each workload, seed and end-to-end metric of
    BENCHMARK.json that both hold (each workload -> seed -> a record's
    cell), then each failed run."""
    print(f"{'workload':15} {'seed':>4} {'metric':20} {'unit':>5} {'base':>10} {'new':>10} "
          f"{'new/base':>8} {'95% interval':>16} {'new wins':>8}")
    metrics, failed = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"], []
    for workload, seeds in new.items():
        for seed, cell in seeds.items():
            other = base.get(workload, {}).get(seed)
            if other is None:
                continue
            for metric in metrics:
                name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
                if name not in cell["metrics"] or name not in other["metrics"]:
                    continue
                pairs = [(r["metrics"][name], s["metrics"][name])
                         for r, s in zip(other["runs"], cell["runs"])
                         if name in r["metrics"] and name in s["metrics"]]
                ratios = [n / b for b, n in pairs if b]
                ratio = statistics.median(ratios) if ratios else math.nan
                low, high = ratio_interval(ratios) if ratios else (math.nan, math.nan)
                wins = sum((n > b) if higher else (n < b) for b, n in pairs)
                worse = ratio < 1 - bound if higher else ratio > 1 + bound
                print(f"{workload:15} {seed:>4} {name:20} {metric['unit']:>5} "
                      f"{other['metrics'][name]['median']:10.4g} "
                      f"{cell['metrics'][name]['median']:10.4g} {ratio:8.3f} "
                      f"{f'[{low:.3f}, {high:.3f}]':>16} {f'{wins}/{len(pairs)}':>8}"
                      + ("  PAST BOUND" if worse else ""))
            failed += [f"{workload:15} {seed:>4} {label} run: {outcome(r)}"
                       for label, c in (("base", other), ("new", cell))
                       for r in c["runs"] if not r["correct"] or r["failed"]]
    for line in failed:
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", dest="checkouts", action="append", default=[],
                        metavar="LABEL=CHECKOUT", help="a checkout to run, under a label")
    parser.add_argument("--out", help="BENCH_*.json file to write")
    parser.add_argument("--runs", type=int, default=5, help="runs per checkout, workload and seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=30.0, help="bench/run.py --seconds")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two records, each FILE or FILE:LABEL")
    args = parser.parse_args(argv)
    if args.compare:
        try:
            table(*map(load, args.compare))
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot compare {args.compare}: {exc!r}", file=sys.stderr)
            return 2
        return 0
    if not (args.out and args.checkouts):
        parser.error("recording needs --out and at least one --checkout")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
