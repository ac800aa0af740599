"""Record bench/run.py results into a BENCH_*.json file, and compare two records.

    python3 tools/bench_record.py --out BENCH_7.json --runs 5 --seeds 0 11 \
        --checkout parent=../parent-checkout --checkout change=.
    python3 tools/bench_record.py --compare BENCH_7.json:parent BENCH_7.json:change
    python3 tools/bench_record.py --compare BENCH_6.json BENCH_7.json

Recording runs `bench/run.py` inside each labelled checkout, `--runs` times
per workload and seed, alternating which checkout goes first from one run
to the next, so the runs of two checkouts pair up. Each run's last stdout
line is kept (its `correct`, `attempted`, `failed` and metric values), and
each metric gets its median and quartiles per checkout, workload and seed.
The file also names each checkout's git commit (and whether its working
tree differs from it), the Python version and the core count. It is
rewritten after every run; recording into an existing file adds to it,
replacing the workload and seed cells it records again. Every run looks
for bytecode only under one fresh PYTHONPYCACHEPREFIX directory, made for
the recording and removed at its end, which holds links to the
interpreter's own standard-library bytecode and nothing else. So no run
reads a `__pycache__` that a checkout holds, and a used checkout and a
fresh copy of it compile the same way, while the standard library loads
from its bytecode, as in a bare run, not from source.

Comparing prints, for every end-to-end metric of BENCHMARK.json, the ratio
of the two medians (new over base) on each workload and seed, and how many
run pairs the new record wins. A metric that got worse by more than its
BENCHMARK.json bound is marked PAST BOUND. A workload, seed or label cell
that one record lacks, or has no run in yet, is skipped. Comparing gates
nothing: the exit status is 0 whatever it prints. A record is FILE:LABEL;
without a label it is the file's "change" record, or its only one.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("file_roundtrip", "report_tables", "key_census")


def git(checkout: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float, pycache: str) -> dict:
    """One bench run in checkout, with pycache as its bytecode cache root;
    its last stdout line, or a failed record."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONPYCACHEPREFIX": pycache})
    try:
        last = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": None, "metrics": {},
                "error": done.stderr.strip()[-400:]}
    return {"correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def link_stdlib_bytecode(pycache: str) -> None:
    """Link each standard-library module's bytecode for this interpreter
    where a run with pycache as its PYTHONPYCACHEPREFIX looks for it: the
    module's directory, as an absolute path, under pycache. A bytecode
    file is checked against its source on import, as in __pycache__."""
    suffix = f".{sys.implementation.cache_tag}.pyc"
    for root, dirs, files in os.walk(sysconfig.get_paths()["stdlib"]):
        dirs[:] = [d for d in dirs if d not in ("site-packages", "dist-packages")]
        if Path(root).name != "__pycache__":
            continue
        source_dir = Path(root).parent
        target = Path(pycache, *source_dir.parts[1:])
        target.mkdir(parents=True, exist_ok=True)
        for name in files:
            if name.endswith(suffix):  # not an optimized level's .opt-1.pyc
                (target / name).symlink_to(Path(root, name))


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
        checkouts[label] = checkout
    out = Path(args.out)
    result = json.loads(out.read_text()) if out.is_file() else {"workloads": {}}
    result.update({
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "seconds": args.seconds,
        "checkouts": {label: {"sha": git(path, "rev-parse", "HEAD"),
                              "dirty": bool(git(path, "status", "--porcelain"))}
                      for label, path in checkouts.items()},
    })
    labels = list(checkouts)
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
        link_stdlib_bytecode(pycache)
        for workload in args.workloads:
            for seed in args.seeds:
                cell = {label: {"runs": []} for label in labels}
                result["workloads"].setdefault(workload, {})[str(seed)] = cell
                for k in range(args.runs):
                    for label in (labels if k % 2 == 0 else labels[::-1]):
                        run = run_once(checkouts[label], workload, seed, args.seconds, pycache)
                        cell[label]["runs"].append(run)
                        cell[label]["metrics"] = summary(cell[label]["runs"])
                        print(f"{workload} seed {seed} run {k + 1}/{args.runs} {label}: "
                              f"correct={run['correct']} failed={run['failed']}", file=sys.stderr)
                        out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


def load(spec: str) -> tuple[str, dict]:
    path, _, label = spec.partition(":")
    data = json.loads(Path(path).read_text())
    labels = list(data["checkouts"])
    label = label or ("change" if "change" in labels else labels[-1])
    return label, {workload: {seed: cell[label] for seed, cell in seeds.items()
                              if "metrics" in cell.get(label, {})}
                   for workload, seeds in data["workloads"].items()}


def compare(base_spec: str, new_spec: str) -> int:
    bounds = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    _, base = load(base_spec)
    _, new = load(new_spec)
    print(f"{'workload':15} {'seed':>4} {'metric':22} {'base':>12} {'new':>12} "
          f"{'new/base':>8} {'wins':>6}")
    for workload, seeds in new.items():
        for seed, cell in seeds.items():
            other = base.get(workload, {}).get(seed)
            if other is None:
                continue
            for metric in bounds:
                name = metric["name"]
                if name not in cell["metrics"] or name not in other["metrics"]:
                    continue
                b, n = other["metrics"][name]["median"], cell["metrics"][name]["median"]
                higher = metric["better"] == "higher"
                pairs = [(r["metrics"].get(name), s["metrics"].get(name))
                         for r, s in zip(other["runs"], cell["runs"])]
                wins = sum(1 for x, y in pairs if x is not None and y is not None
                           and (y > x if higher else y < x))
                worse = n < b * (1 - metric["bound"]) if higher else n > b * (1 + metric["bound"])
                ratio = n / b if b else float("nan")
                print(f"{workload:15} {seed:>4} {name:22} {b:12.5g} {n:12.5g} {ratio:8.3f} "
                      f"{wins:>2}/{len(pairs):<3}" + ("  PAST BOUND" if worse else ""))
            fails = [(label, r["correct"], r["failed"]) for label, c in (("base", other),
                                                                         ("new", cell))
                     for r in c["runs"] if not r["correct"] or r["failed"]]
            for label, correct, failed in fails:
                print(f"{workload:15} {seed:>4} {label} run: correct={correct} failed={failed}")
    return 0


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
            return compare(*args.compare)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot compare {args.compare}: {exc!r}", file=sys.stderr)
            return 2
    if not (args.out and args.checkouts):
        parser.error("recording needs --out and at least one --checkout")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
