"""Record bench/run.py results into a BENCH_*.json file, and compare two records.

    python3 tools/bench_record.py --out BENCH_7.json --runs 5 --seeds 0 11 \
        --checkout parent=../parent-checkout --checkout change=.
    python3 tools/bench_record.py --compare BENCH_7.json:parent BENCH_7.json:change
    python3 tools/bench_record.py --compare BENCH_6.json BENCH_7.json
    python3 tools/bench_record.py --interleave ../parent-checkout . --pairs 40

Recording copies each labelled checkout, without `.git` and
`__pycache__`, into one temporary directory made for the recording and
removed at its end, and runs the copy's `bench/run.py` there, `--runs`
times per workload and seed, alternating which checkout goes first from
one run to the next, so the runs of two checkouts pair up. bench/run.py
writes no bytecode, so every run compiles the package from source, reads
no `__pycache__` that a checkout holds, and loads the standard library
from its own bytecode, as a bare run does; nothing is written inside a
checkout. Each run's last stdout line is kept (its `correct`,
`attempted`, `failed` and metric values), and each metric gets its
median and quartiles per checkout, workload and seed. The file also
names each checkout's git commit (and whether its working tree differs
from it), the Python version and the core count. It is rewritten after
every run; recording into an existing file adds to it, replacing the
workload and seed cells it records again. A record made under another
Python version, core count or --seconds, or one that names another
commit for a label of this call, is refused (exit 2) before any run, so
that no cell is labelled with what another call measured.

Comparing and interleaving print one table: a row for each workload,
seed and end-to-end metric of BENCHMARK.json that both sides hold, with
both medians in the metric's unit, the median per-pair ratio (new over
base) with a seeded bootstrap 95% interval, and the pairs that new wins
by the metric's `better`. A ratio past the metric's bound is marked PAST
BOUND. Each failed run is printed after the rows.

Comparing reads two records, each FILE:LABEL; without a label it is the
file's "change" record, or its only one. A workload, seed or label cell
that one record lacks, or has no run in yet, is skipped. It gates
nothing: the exit status is 0 whatever it prints, and 2 when a record
cannot be read. An interval that holds 1 resolves nothing, however the
wins fall: an A/A record of 10 alternating 30 s file_roundtrip pairs
read encrypt_mib_s 0.975x.

Interleaving times two checkouts' packages on the bench's own op groups,
each in one worker process: a fresh `python -B` (writing no bytecode) in
a temporary directory, whose sys.path starts with that checkout's `src/`,
then this checkout's `bench/` and `tests/`; this process imports neither
package. A worker builds its inputs with `bench/run.py`'s `set_up` (seed
0, every group at full size) and answers one JSON line per request: a
checked pass of an op group, or its checks. Each group runs once per
checkout to warm it; a failed bench check (against `bench/expected/` or
the oracles), or first-pass ciphertexts or census counts that differ
between the two, print one `check failed: ...` line each and exit 1
before any timing. Then come --pairs pairs of passes per group, the two
taking turns to go first, each kept as a run of the group's workload at
seed 0 under the label `base` or `new`. The table reads them as it reads
two records, then come `checks pass` or the checks that failed while
timed; --out writes a record of them (with each label's commit, the
Python version, the core count and --pairs) for `--compare FILE:base
FILE:new`. It exits 0 when every check passes, 1 when one fails, 2 when
a checkout cannot be loaded or set up (printing its worker's stderr), 3
when the tool fails, and kills and waits for every worker first. A pair
takes about 2.5 s on a 2-core host. Two workers can run up to 3% apart
for a whole run: one of two 40-pair A/A runs (`--interleave . .`) read
encrypt_mib_s 1.027 [1.010, 1.035]. So a claim needs 40 or more pairs
(the default), an A/A run beside the A/B, and a margin past 3% or repeated
runs. Full output agreement is `tools/parity.py`'s check.

Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
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
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("file_roundtrip", "report_tables", "key_census")
LABELS = ("base", "new")  # --interleave's two checkouts
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
        checkouts[label] = checkout
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
    labels = list(checkouts)
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
                        print(f"{workload} seed {seed} run {k + 1}/{args.runs} {label}: "
                              f"correct={run['correct']} failed={run['failed']}", file=sys.stderr)
                        out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


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
            failed += [f"{workload:15} {seed:>4} {label} run: correct={r['correct']} "
                       f"failed={r['failed']}" for label, c in (("base", other), ("new", cell))
                       for r in c["runs"] if not r["correct"] or r["failed"]]
    for line in failed:
        print(line)


def serve(src: str) -> None:
    """A worker: the bench's set-up, then a JSON line per stdin line: a group
    index gets a checked pass as a record's run, `checks` the checks."""
    import run as bench  # bench/run.py, on the worker's sys.path

    answer, sys.stdout = sys.stdout, sys.stderr  # a stray print goes to the log
    if not Path(src, "chaoscrypt", "__init__.py").is_file():
        raise ImportError(f"no chaoscrypt package under {src}")
    pkg, inputs = bench.set_up(bench.DEFAULT_SEED, Path.cwd(), None)
    runner, census = bench.Runner(pkg), inputs.census["full"]
    groups = [lambda: bench.roundtrip_pass(runner, inputs.roundtrip),
              lambda: bench.report_pass(runner, inputs.report),
              lambda: bench.census_pass(runner, census)]
    for request in sys.stdin:
        if request.strip() == "checks":
            reply = {"problems": runner.problems,
                     "ciphertexts": {c.kind: c.ciphertext_hex for c in inputs.roundtrip.cases},
                     "counts": {c.kind: c.counts for c in census}}
        else:
            gc.collect()
            before = runner.failed
            metrics = bench.summarize(groups[int(request)]())
            failed = runner.failed - before
            reply = {"correct": not failed, "failed": failed, "metrics": metrics}
        print(json.dumps(reply), file=answer, flush=True)


def start(checkout: Path, work: Path) -> subprocess.Popen:
    """A worker for checkout: a fresh interpreter that writes no bytecode,
    serving checkout's src/ package in work, with its stderr in a file there."""
    src = str((checkout / "src").resolve())
    path = [src, *(str(ROOT / name) for name in ("bench", "tests", "tools"))]
    code = f"import sys; sys.path[:0] = {path!r}; import bench_record; bench_record.serve({src!r})"
    work.mkdir()
    with open(work / "stderr.txt", "w") as log:
        return subprocess.Popen([sys.executable, "-B", "-c", code], cwd=work, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log)


def ask(worker: subprocess.Popen, request: str) -> dict:
    """worker's answer to request; EOFError if the worker has stopped."""
    with contextlib.suppress(OSError):  # unbuffered: closing stdin flushes nothing
        os.write(worker.stdin.fileno(), f"{request}\n".encode())
        if line := worker.stdout.readline():
            return json.loads(line)
    raise EOFError(worker)


def failures(base: dict, new: dict) -> list[str]:
    """Each failed check in two workers' `checks`, and each first-pass record they differ in."""
    lines = [f"{label} {problem}" for label, checks in zip(LABELS, (base, new))
             for problem in checks["problems"]]
    lines += [f"base and new differ in the {kind} roundtrip ciphertext"
              for kind, text in base["ciphertexts"].items() if text != new["ciphertexts"][kind]]
    lines += [f"base and new differ in the {kind} census counts: {counts} "
              f"against {new['counts'][kind]}" for kind, counts in base["counts"].items()
              if counts != new["counts"][kind]]
    return [f"check failed: {line}" for line in lines]


def interleave(names: list[str], pairs: int, out: str | None) -> int:
    with tempfile.TemporaryDirectory(prefix="interleave-") as work:
        workers = []
        try:
            for k, name in enumerate(names):
                workers.append(start(Path(name), Path(work, str(k))))
            for worker in workers:  # every set-up is done before any pass
                ask(worker, "checks")
            return _interleave(workers, names, pairs, out)
        except EOFError as exc:
            k = workers.index(exc.args[0])
            log = Path(work, str(k), "stderr.txt").read_text().strip()[-2000:]
            print(f"error: cannot load or set up the package of {names[k]} (its worker "
                  f"stopped):\n{log}", file=sys.stderr)
            return 2
        finally:
            for worker in workers:
                worker.kill()
                worker.communicate()  # waits for it, and closes its pipes


def _interleave(workers: list, names: list[str], pairs: int, out: str | None) -> int:
    for worker in workers:  # the warm pass, checked
        for group in range(len(WORKLOADS)):
            ask(worker, str(group))
    failed = failures(*(ask(worker, "checks") for worker in workers))
    if failed:
        print("\n".join(failed))
        return 1
    result = {"python": platform.python_version(), "cores": os.cpu_count(), "pairs": pairs,
              "workloads": {workload: {"0": {label: {"runs": []} for label in LABELS}}
                            for workload in WORKLOADS}}
    for k in range(pairs):
        for group, workload in enumerate(WORKLOADS):
            for t in ((0, 1) if k % 2 == 0 else (1, 0)):
                cell = result["workloads"][workload]["0"][LABELS[t]]
                cell["runs"].append(ask(workers[t], str(group)))
                cell["metrics"] = summary(cell["runs"])
    print(f"base {names[0]}, new {names[1]}: {pairs} interleaved pairs per op group "
          f"(Python {result['python']}, {result['cores']} cores)")
    table(*(cells(result, label) for label in LABELS))
    failed = failures(*(ask(worker, "checks") for worker in workers))
    print("\n".join(failed) if failed else "checks pass")
    if out:
        result["checkouts"] = {label: commit(Path(name)) for label, name in zip(LABELS, names)}
        Path(out).write_text(json.dumps(result, indent=1) + "\n")
    return 1 if failed else 0


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
    parser.add_argument("--interleave", nargs=2, metavar=("BASE", "NEW"),
                        help="time two checkouts' packages on the bench's op groups")
    parser.add_argument("--pairs", type=int, default=40, help="--interleave pairs per op group")
    args = parser.parse_args(argv)
    if args.interleave:
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        try:
            return interleave(args.interleave, args.pairs, args.out)
        except Exception:
            traceback.print_exc()
            return 3
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
