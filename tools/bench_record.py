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

Interleaving times two checkouts' packages in this one process, with no
subprocess or thread. It loads each checkout's `src/` package under its
own module objects, and swaps them into `sys.modules` before each of
that checkout's op groups, so that an import made during an op (such as
the scanner's lift pass) loads that checkout's module. It times the
bench itself: with this checkout's `bench/run.py` and
`tests/oracles.py`, each checkout gets the bench's seed-0 inputs at full
size (in one temporary directory), a bench Runner, and the bench's three
op groups through its own `cli.main`. No bytecode is written. Each group
runs once per checkout to warm it; a failed bench check (against
`bench/expected/` or the oracles), or first-pass ciphertexts or census
counts that differ between the two, print one `check failed: ...` line
each and exit 1 before any timing. Then come --pairs pairs of passes per
group, the two checkouts taking turns to go first. Each pass is a run
(`bench.summarize` of it, in the bench's units) of the group's workload
at seed 0, and the table reads the two sets of cells as it reads two
records; then `checks pass`, or each check that failed while timed. It
exits 0 when every check passes, 1 when one fails, 2 when a checkout
cannot be loaded or set up, and 3 when the tool fails. A pair takes
about 3 s on a 2-core host. A claim from it needs 40 or more pairs (the
default), or an A/A run (`--interleave . .`) beside the A/B: on a 2-core
shared host, 20 pairs of identical code gave intervals that exclude 1.
Full output agreement is `tools/parity.py`'s check.

Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from types import SimpleNamespace

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
    labelled = {label: {"sha": git(path, "rev-parse", "HEAD"),
                        "dirty": bool(git(path, "status", "--porcelain"))}
                for label, path in checkouts.items()}
    clashes = [f"{name} {result[name]!r}, not {value!r}" for name, value in setting.items()
               if name in result and result[name] != value]
    clashes += [f"label {label!r} at commit {result['checkouts'][label]['sha']}, "
                f"not {commit['sha']}" for label, commit in labelled.items()
                if label in result.get("checkouts", {})
                and result["checkouts"][label].get("sha") != commit["sha"]]
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
    labels = list(data["checkouts"])
    label = label or ("change" if "change" in labels else labels[-1])
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


PACKAGE = "chaoscrypt"
LOADED = ("bench_run", "spans", "oracles")  # bench/run.py, its import, tests/oracles.py


def _ours(name: str) -> bool:
    """Whether name is a sys.modules entry that interleaving swaps."""
    return name == PACKAGE or name.startswith(PACKAGE + ".") or name in LOADED


def _activate(modules: dict) -> None:
    """Make modules the entries of sys.modules that _ours names, and no others."""
    for name in [name for name in sys.modules if _ours(name)]:
        del sys.modules[name]
    sys.modules.update(modules)


def load_tree(checkout: Path) -> dict:
    """The package under checkout/src, every module of it imported, as a
    dict of its sys.modules entries. sys.modules is left without them."""
    src = (checkout / "src").resolve()
    if not (src / PACKAGE / "__init__.py").is_file():
        raise ImportError(f"no {PACKAGE} package under {src}")
    _activate({})
    sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    try:
        package = importlib.import_module(PACKAGE)
        for module in pkgutil.iter_modules(package.__path__):
            if module.name != "__main__":  # which would run the command line
                importlib.import_module(f"{PACKAGE}.{module.name}")
        modules = {name: module for name, module in sys.modules.items() if _ours(name)}
    finally:
        sys.path.remove(str(src))
        _activate({})
    return modules


def load_file(name: str, path: Path):
    """The module at path, in sys.modules under name before it runs (a
    dataclass looks its module up there)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def set_up(bench, modules: dict, work: Path) -> SimpleNamespace:
    """One checkout's bench Runner and its three op groups on the bench's
    seed-0 inputs at full size, written under work."""
    _activate(modules)
    pkg = SimpleNamespace(**{name: modules[f"{PACKAGE}.{name}"]
                             for name in ("maps", "cipher", "analysis", "cli")},
                          oracles=load_file("oracles", ROOT / "tests" / "oracles.py"))
    work.mkdir()
    roundtrip = bench.make_roundtrip(pkg, bench.DEFAULT_SEED, work, bench.FULL_MESSAGE)
    report = bench.make_report(pkg, work, full=True)
    census = bench.make_census(pkg, bench.DEFAULT_SEED, work)["full"]
    runner = bench.Runner(pkg)
    groups = [lambda: bench.roundtrip_pass(runner, roundtrip),
              lambda: bench.report_pass(runner, report),
              lambda: bench.census_pass(runner, census)]
    return SimpleNamespace(modules=modules, runner=runner, groups=groups,
                           roundtrip=roundtrip, census=census)


def run_group(bench, checkout: SimpleNamespace, group: int) -> dict:
    """One pass of an op group of checkout, as a record's run: whether
    no op failed, how many did, and the bench's metric values."""
    _activate(checkout.modules)
    gc.collect()
    before = checkout.runner.failed
    metrics = bench.summarize(checkout.groups[group]())
    failed = checkout.runner.failed - before
    return {"correct": not failed, "failed": failed, "metrics": metrics}


def failures(base: SimpleNamespace, new: SimpleNamespace) -> list[str]:
    """Each failed bench check, and each first-pass record (a roundtrip
    ciphertext, census counts) in which the two checkouts differ."""
    lines = [f"{label} {problem}" for label, checkout in (("base", base), ("new", new))
             for problem in checkout.runner.problems]
    lines += [f"base and new differ in the {case.kind} roundtrip ciphertext"
              for case, other in zip(base.roundtrip.cases, new.roundtrip.cases)
              if case.ciphertext_hex != other.ciphertext_hex]
    lines += [f"base and new differ in the {case.kind} census counts: {case.counts} "
              f"against {other.counts}" for case, other in zip(base.census, new.census)
              if case.counts != other.counts]
    return [f"check failed: {line}" for line in lines]


def interleave(base: str, new: str, pairs: int) -> int:
    saved = {name: module for name, module in sys.modules.items() if _ours(name)}
    saved_path, writes = sys.path[:], sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no bytecode is written into either checkout
    try:
        sys.path.insert(0, str(ROOT / "bench"))  # for bench/run.py's spans import
        bench = load_file("bench_run", ROOT / "bench" / "run.py")
        with tempfile.TemporaryDirectory(prefix="interleave-") as work:
            checkouts = []
            for k, checkout in enumerate((base, new)):
                try:
                    checkouts.append(set_up(bench, load_tree(Path(checkout)), Path(work, str(k))))
                except Exception as exc:
                    print(f"error: cannot load the package of {checkout}: {exc!r}",
                          file=sys.stderr)
                    return 2
            return _interleave(bench, checkouts, (base, new), pairs)
    finally:
        _activate(saved)
        sys.path[:] = saved_path
        sys.dont_write_bytecode = writes


def _interleave(bench, checkouts: list, names: tuple, pairs: int) -> int:
    groups = range(len(checkouts[0].groups))
    for checkout in checkouts:  # the warm pass, checked
        for group in groups:
            run_group(bench, checkout, group)
    failed = failures(*checkouts)
    if failed:
        print("\n".join(failed))
        return 1
    cells = ({}, {})
    for k in range(pairs):
        for group in groups:
            for t in ((0, 1) if k % 2 == 0 else (1, 0)):
                cell = cells[t].setdefault(WORKLOADS[group], {}).setdefault("0", {"runs": []})
                cell["runs"].append(run_group(bench, checkouts[t], group))
                cell["metrics"] = summary(cell["runs"])
    print(f"base {names[0]}, new {names[1]}: {pairs} interleaved pairs per op group "
          f"(Python {platform.python_version()}, {os.cpu_count()} cores)")
    table(*cells)
    failed = failures(*checkouts)
    print("\n".join(failed) if failed else "checks pass")
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
                        help="time two checkouts' packages on the bench's op groups, in-process")
    parser.add_argument("--pairs", type=int, default=40, help="--interleave pairs per op group")
    args = parser.parse_args(argv)
    if args.interleave:
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        try:
            return interleave(*args.interleave, args.pairs)
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
