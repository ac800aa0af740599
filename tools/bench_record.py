"""Record bench/run.py results into a BENCH_*.json file, and compare two records.

    python3 tools/bench_record.py --out BENCH_7.json --runs 5 --seeds 0 11 \
        --checkout parent=../parent-checkout --checkout change=.
    python3 tools/bench_record.py --compare BENCH_7.json:parent BENCH_7.json:change
    python3 tools/bench_record.py --compare BENCH_6.json BENCH_7.json
    python3 tools/bench_record.py --interleave ../parent-checkout . --pairs 40

Recording runs `bench/run.py` inside each labelled checkout, `--runs`
times per workload and seed, alternating which checkout goes first from
one run to the next, so the runs of two checkouts pair up. Each run's last
stdout line is kept (its `correct`, `attempted`, `failed` and metric
values), and each metric gets its median and quartiles per checkout,
workload and seed. The file also names each checkout's git commit (and
whether its working tree differs from it), the Python version and the core
count. It is rewritten after every run; recording into an existing file
adds to it, replacing the workload and seed cells it records again. A
record made under another Python version, core count or --seconds, or one
that names another commit for a label of this call, is refused (exit 2)
before any run, so that no cell is labelled with what another call
measured. Every run looks for bytecode only under one fresh
PYTHONPYCACHEPREFIX directory, made for the recording and removed at its
end, which holds links to the interpreter's own standard-library bytecode
and nothing else. So no run reads a `__pycache__` that a checkout holds,
and a used checkout and a fresh copy of it compile the same way, while the
standard library loads from its bytecode, as in a bare run, not from
source.

Comparing prints, for every end-to-end metric of BENCHMARK.json, the ratio
of the two medians (new over base) on each workload and seed, and how many
run pairs the new record wins. A metric that got worse by more than its
BENCHMARK.json bound is marked PAST BOUND. A workload, seed or label cell
that one record lacks, or has no run in yet, is skipped. Comparing gates
nothing: the exit status is 0 whatever it prints. A record is FILE:LABEL;
without a label it is the file's "change" record, or its only one. A
claim of a few percent on file_roundtrip's encrypt_mib_s or
decrypt_mib_s needs an A/A record (two copies of one commit) beside the
A/B, or --interleave at 40 or more pairs: an A/A record of 10 alternating
30 s pairs read 0.975x.

Interleaving times two checkouts' packages in this one process, with no
subprocess, thread or file written: it loads each checkout's `src/`
package under its own module objects, and swaps that checkout's
`chaoscrypt` modules into `sys.modules` before each of its ops, so that
an import made during an op (such as the scanner's lift pass) loads that
checkout's module. Each op goes through the public API only: `report`
is analysis_report over both packaged tables; `census` an
identifiability_scan (iteration value 3) and a known_plaintext_attack
over one box of about 5.5e4 keys at increment 1e-4 per kind; `encrypt`
and `decrypt` 64 KiB per kind. Each checkout runs each op once to warm
it, and the two checkouts' outputs of that run are compared as plain
values. Then come --pairs pairs of timed runs per op, the two checkouts
taking turns to go first. For each op it prints both median times, the
median of the per-pair ratios (new over base) with a seeded bootstrap
95% interval, and the pairs the new checkout wins. It exits 0 when the
outputs agree, 1 when any differs (the timings are printed all the
same), 2 when a checkout cannot be loaded, and 3 when the tool fails.
A per-op claim from it needs 40 or more pairs (the default), or an A/A
run (`--interleave . .`) beside the A/B: on a 2-core shared host, 20
pairs of identical code gave intervals that exclude 1.

Standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import gc
import importlib
import json
import os
import pkgutil
import platform
import random
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time
import traceback
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


PACKAGE = "chaoscrypt"
INTERLEAVE_OPS = ("report", "census", "encrypt", "decrypt")
TABLES = ("table1_arnold", "table2_duffing")
ROUNDTRIP_ROWS = {"table1_arnold": 12, "table2_duffing": 2}  # rows bounded on random bytes
CENSUS_SIDE = 236  # keys per axis of a census box: 236^2 = 55 696
BOOTSTRAP = 2000


def _ours(name: str) -> bool:
    return name == PACKAGE or name.startswith(PACKAGE + ".")


def _activate(modules: dict) -> None:
    """Make modules the package's entries of sys.modules, and no others."""
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


def make_ops(pkg) -> dict:
    """Each interleaved op, as a function of no arguments that returns its
    output, built from pkg's public API alone."""
    specs = {table: pkg.load_report_spec(pkg.builtin_spec_path(table)) for table in TABLES}
    message = random.Random("interleave").randbytes(1 << 16)
    keys = [specs[table][row - 1][1] for table, row in ROUNDTRIP_ROWS.items()]
    ciphertexts = [pkg.encrypt_bytes(message, key) for key in keys]
    boxes = []
    for table in TABLES:
        text, key, domain = specs[table][0]
        inc = domain.increment
        lower = (key.params.a - CENSUS_SIDE // 2 * inc, key.params.b - CENSUS_SIDE // 2 * inc)
        upper = (lower[0] + (CENSUS_SIDE - 1) * inc, lower[1] + (CENSUS_SIDE - 1) * inc)
        box = pkg.KeyDomain(key.kind, lower, upper, inc, key.params.n_modulus)
        boxes.append((text, key, box, pkg.encrypt_bytes(text.encode(), key)))

    def census():
        return [(pkg.identifiability_scan(text, key, box, iteration_value=3),
                 pkg.known_plaintext_attack(ciphertext, text[:2], box))
                for text, key, box, ciphertext in boxes]

    return {
        "report": lambda: [pkg.analysis_report(specs[table]) for table in TABLES],
        "census": census,
        "encrypt": lambda: [pkg.encrypt_bytes(message, key) for key in keys],
        "decrypt": lambda: [pkg.decrypt(c, key) for c, key in zip(ciphertexts, keys)],
    }


def plain(value):
    """value as plain data, equal for equal values from two copies of a
    module: a dataclass as its type's name and fields, an enum member as
    its type's name and value, a float as its hex form (so that NaN equals
    NaN), bytes as hex and a tuple as a list."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__, {field.name: plain(getattr(value, field.name))
                                       for field in dataclasses.fields(value)}]
    if isinstance(value, enum.Enum):
        return [type(value).__name__, plain(value.value)]
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def run_op(modules: dict, op) -> tuple[float, object]:
    """op's time in seconds under modules, and its output as plain data
    (an exception's type and text, when it raises)."""
    _activate(modules)
    gc.collect()
    start = time.perf_counter()
    try:
        output = op()
    except Exception as exc:
        output = ["raised", type(exc).__name__, str(exc)]
    elapsed = time.perf_counter() - start
    return elapsed, plain(output)


def ratio_interval(ratios: list[float], seed: int = 0) -> tuple[float, float]:
    """A seeded bootstrap 95% interval of the median of ratios."""
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP))
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def interleave(base: str, new: str, pairs: int) -> int:
    saved_modules = {name: module for name, module in sys.modules.items() if _ours(name)}
    saved_path, writes = sys.path[:], sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # nothing is written into either checkout
    try:
        trees = []
        for checkout in (base, new):
            try:
                modules = load_tree(Path(checkout))
                _activate(modules)
                trees.append((modules, make_ops(modules[PACKAGE])))
            except Exception as exc:
                print(f"error: cannot load the package of {checkout}: {exc!r}", file=sys.stderr)
                return 2
        return _interleave(trees, (base, new), pairs)
    finally:
        _activate(saved_modules)
        sys.path[:] = saved_path
        sys.dont_write_bytecode = writes


def _interleave(trees: list, names: tuple, pairs: int) -> int:
    differ = []
    for op in INTERLEAVE_OPS:
        outputs = [run_op(modules, ops[op])[1] for modules, ops in trees]
        if outputs[0] != outputs[1]:
            differ.append(op)
    times = {op: ([], []) for op in INTERLEAVE_OPS}
    for k in range(pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        for op in INTERLEAVE_OPS:
            for t in order:
                modules, ops = trees[t]
                times[op][t].append(run_op(modules, ops[op])[0])
    print(f"base {names[0]}, new {names[1]}: {pairs} interleaved pairs per op "
          f"(Python {platform.python_version()}, {os.cpu_count()} cores)")
    print(f"{'op':8} {'base ms':>9} {'new ms':>9} {'new/base':>8} {'95% interval':>15} "
          f"{'new wins':>8}")
    for op, (base, new) in times.items():
        ratios = [n / b for b, n in zip(base, new)]
        low, high = ratio_interval(ratios)
        wins = sum(n < b for b, n in zip(base, new))
        print(f"{op:8} {statistics.median(base) * 1e3:9.2f} {statistics.median(new) * 1e3:9.2f} "
              f"{statistics.median(ratios):8.3f} {f'[{low:.3f}, {high:.3f}]':>15} "
              f"{f'{wins}/{pairs}':>8}")
    print(f"outputs differ: {', '.join(differ)}" if differ else "outputs agree")
    return 1 if differ else 0


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
                        help="time two checkouts' packages in interleaved pairs, in-process")
    parser.add_argument("--pairs", type=int, default=40, help="--interleave pairs per op")
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
            return compare(*args.compare)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot compare {args.compare}: {exc!r}", file=sys.stderr)
            return 2
    if not (args.out and args.checkouts):
        parser.error("recording needs --out and at least one --checkout")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
