"""chaoscrypt benchmark: one command, three workloads, one JSON result line.

    python3 bench/run.py --workload key_census --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from the
checkout's `src/`, and the test oracles from `tests/oracles.py`.

Every workload drives the package the way a user does, through in-process
`cli.main` calls, one process, `--workers 1`, CHAOSCRYPT_THREADS unset.
Each pass runs three op groups: the workload's own group at full size and
the two others at a small companion size, so every end-to-end metric is
printed on every workload (see bench/README.md). Passes repeat until
`--seconds` have elapsed (at least MIN_PASSES); each metric comes from
every op's median over passes, in seconds rescaled to a reference host
speed (see `measure`). Every op's output is checked.

`--trace 1` ignores `--seconds` and runs the fixed traced suite: spans
around every call into `maps`, `cipher`, `analysis` and `cli`, the report
phase replay, the census counts recomputed from outside, a 2-worker pool
pass and the tracing overhead of each workload. It prints the per-layer
metrics and writes the spans to `.bench_run/`.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import string
import sys
import traceback
from dataclasses import dataclass, field
from math import floor, fmod
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# Every set-up compiles the package from source, so runs never differ by
# whether an earlier run left bytecode behind.
sys.dont_write_bytecode = True

from spans import Tracer  # noqa: E402  (after the bytecode switch on purpose)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected"
RUN_DIR = ROOT / ".bench_run"

WORKLOADS = ("file_roundtrip", "report_tables", "key_census")
TABLES = ("table1_arnold", "table2_duffing")
KINDS = ("arnold", "duffing")
DEFAULT_SEED = 0

MIB = float(1 << 20)
SETUP_REPS = 9
MIN_PASSES = 3

# file_roundtrip: a message over four 64 KiB streaming chunks; keys are
# packaged spec rows (1-based) that stay bounded on random messages.
FULL_MESSAGE = 3 * 65536 + 8192
LIGHT_MESSAGE = 32768
ORACLE_PREFIX = 4096
ROUNDTRIP_KEYS = (("table1_arnold", 12), ("table2_duffing", 2))

# Companion report: leading rows of each packaged table. Row 4 of table2
# carries a divergence error (in its plaintext-sensitivity phase).
LIGHT_REPORT_ROWS = {"table1_arnold": 2, "table2_duffing": 4}

# key_census: each kind's FULL_KEY_DOMAIN at an increment giving ~5.5e4
# keys (arnold 456 x 123, duffing 276 x 198); the companion box is a
# LIGHT_BOX_SIDE^2 sub-box of it around the true key.
CENSUS_INCREMENT = {"arnold": 0.009, "duffing": 0.004}
CENSUS_TEXT_LEN = 8
CENSUS_ALPHABET = string.ascii_letters + string.digits
KPA_PREFIX_LEN = 2
LIGHT_BOX_SIDE = 81
LIST_LIMIT = 20  # cli --json lists at most this many keys

POOL_WORKERS = 2
MAP_STEPS = 200_000
TRACED_ENCRYPT_BYTES = 32768


class CheckError(Exception):
    """An output differs from what the seed-commit program produces."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ---------------------------------------------------------------- set-up

def load_package() -> SimpleNamespace:
    """Import chaoscrypt and the test oracles afresh from the checkout."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("chaoscrypt", "oracles"):
            del sys.modules[name]
    mods = {m: importlib.import_module(f"chaoscrypt.{m}")
            for m in ("maps", "cipher", "analysis", "cli")}
    return SimpleNamespace(**mods, oracles=importlib.import_module("oracles"))


@dataclass
class RoundtripCase:
    kind: str
    key: object
    key_path: Path
    cipher_path: Path
    out_path: Path
    ciphertext_hex: str | None = None  # set by the first checked encrypt


@dataclass
class Roundtrip:
    message: bytes
    plain_path: Path
    cases: list[RoundtripCase]


@dataclass
class Report:
    specs: list[tuple[str, str, bytes]]  # (table, --spec value, expected CSV)
    out_path: Path


@dataclass
class CensusCase:
    kind: str
    box: str            # "full" or "light"
    domain: object
    key: object         # true key, on the domain's grid
    text: str
    seed: int
    key_path: Path
    cipher_path: Path
    counts: dict = field(default_factory=dict)  # first-pass cli counts


@dataclass
class Inputs:
    roundtrip: Roundtrip
    report: Report
    census: dict[str, list[CensusCase]]  # box -> one case per kind


def make_roundtrip(pkg, seed: int, work: Path, size: int) -> Roundtrip:
    message = random.Random(f"roundtrip-{seed}").randbytes(size)
    plain_path = work / "message.bin"
    plain_path.write_bytes(message)
    cases = []
    for table, row in ROUNDTRIP_KEYS:
        spec = pkg.analysis.load_report_spec(pkg.analysis.builtin_spec_path(table))
        key = spec[row - 1][1]
        kind = key.kind.value
        key_path = work / f"roundtrip-{kind}.key"
        pkg.cipher.save_key(key, key_path)
        cases.append(RoundtripCase(kind, key, key_path, work / f"roundtrip-{kind}.hex",
                                   work / f"roundtrip-{kind}.out"))
    return Roundtrip(message, plain_path, cases)


def make_report(pkg, work: Path, full: bool) -> Report:
    specs = []
    for table in TABLES:
        expected = (EXPECTED / f"{table}.csv").read_bytes()
        if full:
            specs.append((table, table, expected))
            continue
        rows = LIGHT_REPORT_ROWS[table]
        items = json.loads(pkg.analysis.builtin_spec_path(table).read_text(encoding="utf-8"))
        spec_path = work / f"light-{table}.json"
        spec_path.write_text(json.dumps(items[:rows]), encoding="utf-8")
        lines = expected.splitlines(keepends=True)
        specs.append((table, str(spec_path), b"".join(lines[:rows + 1])))
    return Report(specs, work / "report.csv")


def light_box(pkg, full, i: int, j: int):
    """LIGHT_BOX_SIDE^2 sub-box of `full` around grid point (i, j)."""
    na, nb = full.axis_counts()
    i0 = min(max(i - LIGHT_BOX_SIDE // 2, 0), na - LIGHT_BOX_SIDE)
    j0 = min(max(j - LIGHT_BOX_SIDE // 2, 0), nb - LIGHT_BOX_SIDE)
    lo = full.params_at(i0, j0)
    hi = full.params_at(i0 + LIGHT_BOX_SIDE - 1, j0 + LIGHT_BOX_SIDE - 1)
    box = pkg.analysis.KeyDomain(full.kind, (lo.a, lo.b), (hi.a, hi.b), full.increment)
    if box.axis_counts() != (LIGHT_BOX_SIDE, LIGHT_BOX_SIDE):
        raise RuntimeError(f"companion box has {box.axis_counts()} keys per axis")
    return box


def make_census(pkg, seed: int, work: Path) -> dict[str, list[CensusCase]]:
    """A seeded true key and plaintext per kind, redrawn until neither the
    key nor its companion-box grid point diverges on the plaintext."""
    cipher = pkg.cipher
    census = {"full": [], "light": []}
    for kind_name in KINDS:
        kind = pkg.maps.MapKind(kind_name)
        whole = pkg.analysis.FULL_KEY_DOMAIN[kind]
        full = pkg.analysis.KeyDomain(kind, whole.lower, whole.upper,
                                      CENSUS_INCREMENT[kind_name])
        na, nb = full.axis_counts()
        rng = random.Random(f"census-{seed}-{kind_name}")
        while True:
            text = "".join(rng.choice(CENSUS_ALPHABET) for _ in range(CENSUS_TEXT_LEN))
            i, j = rng.randrange(na), rng.randrange(nb)
            box = light_box(pkg, full, i, j)
            full_key = cipher.Key(kind, full.params_at(i, j))
            light_key = cipher.Key(kind, box.snap(full_key.params))
            try:
                ciphertexts = [cipher.encrypt_bytes(text.encode(), k)
                               for k in (full_key, light_key)]
            except pkg.maps.DivergenceError:
                continue
            break
        for label, domain, key, ciphertext in (("full", full, full_key, ciphertexts[0]),
                                               ("light", box, light_key, ciphertexts[1])):
            stem = work / f"census-{label}-{kind_name}"
            key_path, cipher_path = stem.with_suffix(".key"), stem.with_suffix(".hex")
            cipher.save_key(key, key_path)
            cipher_path.write_text(ciphertext.hex() + "\n", encoding="ascii")
            census[label].append(CensusCase(kind_name, label, domain, key, text, seed,
                                            key_path, cipher_path))
    return census


def set_up(seed: int, work: Path, workload: str | None):
    """Import the package and build every input; `workload` None builds the
    traced suite's inputs (every group at full size)."""
    pkg = load_package()
    roundtrip_size = FULL_MESSAGE if workload in (None, "file_roundtrip") else LIGHT_MESSAGE
    inputs = Inputs(
        roundtrip=make_roundtrip(pkg, seed, work, roundtrip_size),
        report=make_report(pkg, work, full=workload in (None, "report_tables")),
        census=make_census(pkg, seed, work),
    )
    return pkg, inputs


def timed_set_up(seed: int, work: Path, workload: str | None):
    """Set up SETUP_REPS times; returns the median seconds at the reference
    speed, and the last set-up's package and inputs."""
    times = []
    for _ in range(SETUP_REPS):
        (pkg, inputs), seconds, _ = measure(lambda: set_up(seed, work, workload))
        times.append(seconds)
    return statistics.median(times), pkg, inputs


# ---------------------------------------------------------------- host speed
#
# The host is shared: how fast this process runs varies by up to ~2x over
# seconds, and wall time equals CPU time, so the noise is contention for
# the core itself. Each measured op is therefore bracketed by a fixed
# calibration loop written here (so no change to the package can move it),
# and its seconds are rescaled to the speed at which one calibration unit
# takes CAL_UNIT_REF_S, its time on an idle core of the 2-core host where
# the benchmark was defined. Contention slows the op and the loop alike and
# cancels; raw seconds are printed on stderr.

CAL_UNIT_REF_S = 0.0058
CAL_MIN_S = 0.03   # calibration before every op, and at least this after
CAL_SHARE = 0.1    # after an op, calibrate for this share of its time


@dataclass(frozen=True)
class _CalibrationKey:
    a: float
    b: float


def _calibration_unit(keys: int = 300) -> int:
    """A fixed pure-Python loop shaped like a grid scan: a frozen object, a
    bound closure and eight quantized symbols per key."""
    hits = 0
    for k in range(keys):
        key = _CalibrationKey(-4.0 + k * 1e-4, 0.5)
        a1, b1 = key.a - 1.0, 1.0 - key.b

        def step(x, y):
            return a1 * fmod(2.0 * x + y, 1.0), fmod(x + b1 * y, 1.0)

        x, y = 0.5, 0.06
        out = bytearray()
        for c in b"calibrat":
            for _ in range(6):
                x, y = step(x, y)
                if not (-1e6 <= x <= 1e6 and -1e6 <= y <= 1e6):
                    raise ArithmeticError("calibration orbit diverged")
            out.append((c + int(floor(abs(x) * 1e6))) % 256)
            x = fmod(x + c / 256, 1.0)
        hits += out[0] == 0
    return hits


def _calibrate(min_seconds: float) -> tuple[float, int]:
    t0 = perf_counter()
    units = 0
    while True:
        _calibration_unit()
        units += 1
        elapsed = perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed, units


def measure(func):
    """Run func once; returns (its result, seconds at the reference speed,
    raw seconds)."""
    before_s, before_n = _calibrate(CAL_MIN_S)
    t0 = perf_counter()
    result = func()
    raw = perf_counter() - t0
    after_s, after_n = _calibrate(max(CAL_MIN_S, CAL_SHARE * raw))
    slowdown = (before_s + after_s) / (before_n + after_n) / CAL_UNIT_REF_S
    return result, raw / slowdown, raw


# ---------------------------------------------------------------- ops

class Runner:
    """Runs cli ops, checks their outputs and counts attempts and failures.

    With a tracer, each op is a span and the (module, attribute) pairs in
    `wrapped` record spans for the op's length. While `pairs` is a list,
    each op runs first untraced, then traced, and the two times are
    appended to it, so tracing overhead is measured op by op.
    """

    def __init__(self, pkg, tracer: Tracer | None = None, wrapped=()):
        self.pkg = pkg
        self.tracer = tracer
        self.wrapped = wrapped
        self.pairs: list[tuple[float, float]] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.raw_seconds: list[float] = []

    def op(self, command: str, argv: list, check, **tags) -> tuple[float, str]:
        """One `cli.main` call; returns (seconds at the reference speed,
        stdout). `check(stdout)` runs after the clock stops and raises
        CheckError on a wrong output."""
        argv = [command, *map(str, argv)]
        if self.tracer is None:
            return self._run(argv, check, tags, traced=False)
        if self.pairs is None:
            return self._run(argv, check, tags, traced=True)
        untraced_s, _ = self._run(argv, check, tags, traced=False)
        traced_s, out = self._run(argv, check, tags, traced=True)
        self.pairs.append((untraced_s, traced_s))
        return traced_s, out

    def _run(self, argv: list[str], check, tags: dict, traced: bool) -> tuple[float, str]:
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1

        def call():
            try:
                return self.pkg.cli.main(argv)
            except SystemExit as exc:
                return exc.code
            except Exception:
                return f"exception\n{traceback.format_exc()}"

        def spanned():
            with self.tracer.span(f"cli.{argv[0]}", **tags) as span, \
                    self.tracer.patch(self.wrapped):
                return span, call()

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if traced:
                # a top-level span records the slowdown that rescales its subtree
                (span, code), seconds, raw = measure(spanned)
                if span["parent"] is None:
                    span["slowdown"] = raw / seconds
            else:
                code, seconds, raw = measure(call)
        self.raw_seconds.append(raw)
        try:
            require(code == 0, f"exit {code}: {err.getvalue().strip()[-400:]}")
            check(out.getvalue())
        except (CheckError, ValueError, KeyError, OSError) as exc:
            self.failed += 1
            self.problems.append(f"{' '.join(argv)}: {exc!r}")
        return seconds, out.getvalue()

    def verify(self, what: str, check) -> None:
        """A check that is not tied to one cli op."""
        try:
            check()
        except (CheckError, ValueError, KeyError, OSError) as exc:
            self.problems.append(f"{what}: {exc!r}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def domain_args(domain) -> list[str]:
    lo, hi = domain.lower, domain.upper
    return [f"--domain={lo[0]!r},{lo[1]!r},{hi[0]!r},{hi[1]!r}",
            "--increment", repr(domain.increment)]


def roundtrip_pass(runner: Runner, rt: Roundtrip) -> list[tuple]:
    """One encrypt and one decrypt per key; returns (metric, op, seconds, MiB)."""
    mib = len(rt.message) / MIB
    timings = []
    for case in rt.cases:
        dt, _ = runner.op("encrypt", ["--in", rt.plain_path, "--out", case.cipher_path,
                                      "--key", case.key_path],
                          lambda _, c=case: check_ciphertext(runner.pkg, rt, c), kind=case.kind)
        timings.append(("encrypt_mib_s", case.kind, dt, mib))
        dt, _ = runner.op("decrypt", ["--in", case.cipher_path, "--out", case.out_path,
                                      "--key", case.key_path],
                          lambda _, c=case: require(c.out_path.read_bytes() == rt.message,
                                                    "decrypted bytes differ from the plaintext"),
                          kind=case.kind)
        timings.append(("decrypt_mib_s", case.kind, dt, mib))
    return timings


def check_ciphertext(pkg, rt: Roundtrip, case: RoundtripCase) -> None:
    text = case.cipher_path.read_text(encoding="ascii")
    require(text.endswith("\n") and len(text) == 2 * len(rt.message) + 1,
            "ciphertext file has the wrong length")
    if case.ciphertext_hex is None:
        p = case.key.params
        oracle = pkg.oracles.oracle_symbols(rt.message[:ORACLE_PREFIX], case.key.kind,
                                            p.a, p.b, p.n_modulus, 3)
        require(text[:2 * ORACLE_PREFIX] == bytes(oracle).hex(),
                "ciphertext prefix differs from oracle_symbols")
        case.ciphertext_hex = text
    require(text == case.ciphertext_hex, "ciphertext differs from the first pass")


def report_pass(runner: Runner, rep: Report) -> list[tuple]:
    """One report per table; returns (metric, op, seconds, None)."""
    timings = []
    for table, spec, expected in rep.specs:
        dt, _ = runner.op("report", ["--spec", spec, "--out", rep.out_path],
                          lambda _, e=expected: require(rep.out_path.read_bytes() == e,
                                                        "report CSV differs from the seed output"),
                          table=table)
        timings.append(("report_s", table, dt, None))
    return timings


def census_pass(runner: Runner, cases: list[CensusCase], workers: int = 1) -> list[tuple]:
    """One identify and one attack per kind; returns (metric, op, seconds, keys)."""
    timings = []
    for case in cases:
        keys = case.domain.size()
        dt, _ = runner.op("identify", ["--text", case.text, "--key", case.key_path,
                                       *domain_args(case.domain), "--workers", workers,
                                       "--json"],
                          lambda out, c=case: check_census(c, "identify", out),
                          kind=case.kind, box=case.box, workers=workers)
        timings.append(("identify_keys_per_s", case.kind, dt, keys))
        dt, _ = runner.op("attack", ["--cipher", case.cipher_path,
                                     "--known-prefix", case.text[:KPA_PREFIX_LEN],
                                     "--kind", case.kind, *domain_args(case.domain), "--json"],
                          lambda out, c=case: check_census(c, "attack", out),
                          kind=case.kind, box=case.box, workers=1)
        timings.append(("attack_keys_per_s", case.kind, dt, keys))
    return timings


def summarize(timings: list[tuple]) -> dict[str, float]:
    """Per metric: each op's median seconds over passes, summed; then work
    over those seconds (or the seconds themselves where work is None)."""
    per_op: dict[tuple, list] = {}
    for metric, op, seconds, work in timings:
        per_op.setdefault((metric, op, work), []).append(seconds)
    totals: dict[str, list] = {}
    for (metric, _, work), seconds in per_op.items():
        acc = totals.setdefault(metric, [0.0, 0.0])
        acc[0] += statistics.median(seconds)
        acc[1] += work or 0.0
    return {metric: (seconds if work == 0.0 else work / seconds)
            for metric, (seconds, work) in totals.items()}


def recorded_counts() -> dict:
    return json.loads((EXPECTED / f"census_seed{DEFAULT_SEED}.json").read_text(encoding="utf-8"))


def check_census(case: CensusCase, command: str, stdout: str) -> None:
    """The true key is among the hits, the counts repeat across passes and,
    for the default seed, equal the recorded ones."""
    result = json.loads(stdout.splitlines()[-1])
    require(result["grid"] == case.domain.size(), f"grid {result['grid']}")
    count_field, list_field = (("matching", "matching_keys") if command == "identify"
                               else ("candidates", "candidate_keys"))
    count = result[count_field]
    require(count <= LIST_LIMIT, f"{count} hits, too many to find the true key among")
    p = case.key.params
    require(any(k["a"] == p.a and k["b"] == p.b for k in result[list_field]),
            "true key missing from the hits")
    previous = case.counts.setdefault(command, count)
    require(count == previous, f"{count_field} {count} differs from the first pass {previous}")
    if case.seed == DEFAULT_SEED:
        want = recorded_counts()[case.box][case.kind][count_field]
        require(count == want, f"{count_field} {count} differs from the recorded {want}")


def check_light_boxes_against_oracle(pkg, cases: list[CensusCase]) -> None:
    """The package's scan and oracle_matching_set agree on each companion box."""
    for case in cases:
        d, p = case.domain, case.key.params
        snapped, hits = pkg.oracles.oracle_matching_set(
            d.kind, d.lower, d.upper, d.increment, d.n_modulus, (p.a, p.b),
            case.text.encode(), 3)
        result = pkg.analysis.identifiability_scan(case.text, case.key, d, iteration_value=3)
        got = [(k.params.a, k.params.b) for k in result.matching_keys]
        require(snapped == (p.a, p.b) and got == hits,
                f"{case.kind}: scan matches {got} but the oracle gives {hits}")


# ---------------------------------------------------------------- untraced run

def run_untraced(args, work: Path) -> tuple[Runner, dict]:
    setup_s, pkg, inputs = timed_set_up(args.seed, work, args.workload)
    runner = Runner(pkg)
    runner.verify("companion boxes vs oracle_matching_set",
                  lambda: check_light_boxes_against_oracle(pkg, inputs.census["light"]))
    census_box = "full" if args.workload == "key_census" else "light"
    groups = [lambda: roundtrip_pass(runner, inputs.roundtrip),
              lambda: report_pass(runner, inputs.report),
              lambda: census_pass(runner, inputs.census[census_box])]
    timings = []
    deadline = perf_counter() + args.seconds
    passes = 0
    while passes < MIN_PASSES or perf_counter() < deadline:
        for group in groups:
            timings.extend(group())
        passes += 1
    units = {"encrypt_mib_s": "MiB/s", "decrypt_mib_s": "MiB/s", "report_s": "s",
             "identify_keys_per_s": "1/s", "attack_keys_per_s": "1/s"}
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update({name: (value, units[name])
                    for name, value in summarize(timings).items()})
    print("samples " + json.dumps({"passes": passes, "timings": timings,
                                   "raw_seconds": runner.raw_seconds}), file=sys.stderr)
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    metrics["ok_share"] = ((runner.attempted - runner.failed) / runner.attempted, "share")
    return runner, metrics


# ---------------------------------------------------------------- traced run

def replay_report(pkg, tracer: Tracer, table: str) -> tuple[list, dict]:
    """Replay analysis_report on a packaged table through the public
    functions, in its order and with its defaults (the any() over iteration
    values, compare_len=min(len, 8), the 2-byte KPA prefix, the row config,
    per-phase error rows), timing each phase. Each row is first run through
    analysis_report itself, so the two are timed side by side."""
    A, C, M = pkg.analysis, pkg.cipher, pkg.maps
    defaults = {k: v.default for k, v in inspect.signature(A.analysis_report).parameters.items()}
    caught = (M.DomainError, M.DivergenceError)
    stats = {"iv3_rows": 0, "scan_keys": 0}
    rows = []
    for idx, (plaintext, key, domain) in enumerate(
            A.load_report_spec(A.builtin_spec_path(table)), start=1):
        with tracer.span("report_row", table=table, row=idx):
            A.analysis_report([(plaintext, key, domain)])
        p = plaintext.encode("utf-8")
        row_cfg = C.default_config(key.kind)
        row = A.AnalysisRow(index=idx, plaintext=plaintext, key=key, domain=domain)
        errors = []

        def phase(name):
            return tracer.span(f"replay.{name}", table=table, row=idx)

        ciphertext = None
        with phase("encrypt"):
            try:
                ciphertext = C.encrypt_bytes(p, key, row_cfg)
                row.ciphertext_hex = ciphertext.hex()
            except caught as exc:
                errors.append(f"encrypt: {exc}")
        with phase("pt_sensitivity"):
            try:
                row.plaintext_sensitivity_pct = A.plaintext_sensitivity(
                    p, key, row_cfg, defaults["flip_bit"])
            except caught as exc:
                errors.append(f"plaintext_sensitivity: {exc}")
        with phase("key_sensitivity"):
            try:
                delta = domain.increment if defaults["key_delta"] is None else defaults["key_delta"]
                row.key_sensitivity_pct = A.key_sensitivity(p, key, row_cfg, delta=delta)
            except caught as exc:
                errors.append(f"key_sensitivity: {exc}")
        try:
            identifiable = False
            for iv in defaults["iteration_values"]:
                stats["iv3_rows"] += iv == 3
                with phase(f"identify_iv{iv}"):
                    result = A.identifiability_scan(
                        p, key, domain, row_cfg, iteration_value=iv,
                        compare_len=min(len(p), defaults["compare_len"]), workers=1)
                stats["scan_keys"] += result.grid_size
                if result.identifiable:
                    identifiable = True
                    break
            row.identifiable = "I" if identifiable else "NI"
        except caught as exc:
            errors.append(f"identifiability: {exc}")
        if ciphertext is not None:
            with phase("attack"):
                try:
                    attack = A.known_plaintext_attack(
                        ciphertext, p[:min(len(p), defaults["kpa_prefix_len"])], domain,
                        row_cfg, workers=1)
                    row.robust_kpa = attack.verdict
                    stats["scan_keys"] += domain.size()
                except caught as exc:
                    errors.append(f"attack: {exc}")
        else:
            errors.append("attack: skipped, no ciphertext")
        row.brute_force_secret = "YES" if row.identifiable == "I" else "NO"
        row.error = "; ".join(errors) if errors else None
        rows.append(row)
    return rows, stats


REPORT_PHASES = ("encrypt", "pt_sensitivity", "key_sensitivity",
                 "identify_iv2", "identify_iv3", "attack")


def census_counts(pkg, case: CensusCase) -> dict[str, int]:
    """Counts over the census grid recomputed from outside the scan code:
    per-key encrypt_bytes on the compare prefix, DivergenceError caught."""
    C, kind = pkg.cipher, pkg.maps.MapKind(case.kind)
    cfg = C.default_config(kind)  # n1 = n2 = 3, the cli's default --iters
    data = case.text.encode()
    reference = C.encrypt_bytes(data, case.key, cfg)
    counts = dict(grid=0, matching=0, candidates=0, diverged=0, depth0=0)
    for params in case.domain.grid_params():
        key = C.Key(kind, params)
        counts["grid"] += 1
        try:
            head = C.encrypt_bytes(data, key, cfg)
            counts["matching"] += head == reference
        except pkg.maps.DivergenceError as exc:
            counts["diverged"] += 1
            # symbols before the diverging one are well defined
            head = C.encrypt_bytes(data[:min(exc.symbol, KPA_PREFIX_LEN)], key, cfg)
        counts["candidates"] += (len(head) >= KPA_PREFIX_LEN
                                 and head[:KPA_PREFIX_LEN] == reference[:KPA_PREFIX_LEN])
        counts["depth0"] += len(head) >= 1 and head[0] != reference[0]
    return counts


def run_traced(args, work: Path) -> tuple[Runner, dict]:
    pkg, inputs = set_up(args.seed, work, None)
    tracer = Tracer()
    M, C, A = pkg.maps, pkg.cipher, pkg.analysis
    runner = Runner(pkg, tracer, wrapped=[
        (C, "encrypt_file"), (C, "decrypt_file"), (A, "analysis_report"),
        (A, "identifiability_scan"), (A, "known_plaintext_attack")])
    rt, full_census = inputs.roundtrip, inputs.census["full"]
    metrics: dict[str, tuple] = {}

    def block(name: str, func, **tags):
        """Run func in a top-level span bracketed by calibration (`measure`);
        the span's slowdown rescales every span under it."""
        def spanned():
            with tracer.span(name, **tags) as span:
                return span, func()
        (span, result), seconds, raw = measure(spanned)
        span["slowdown"] = raw / seconds
        return result

    # maps: bare iteration on the roundtrip keys
    for case in rt.cases:
        kind = case.key.kind
        block("maps.iterate", lambda: M.iterate(
            kind, C.DEFAULT_INITIAL_STATE[kind], case.key.params, MAP_STEPS), kind=case.kind)
        metrics[f"maps.{case.kind}.steps_per_s"] = (
            MAP_STEPS / tracer.total("maps.iterate", kind=case.kind), "1/s")

    # cipher: encrypt with traces, on a prefix of the roundtrip message
    head = rt.message[:TRACED_ENCRYPT_BYTES]
    for case in rt.cases:
        traced_ct, _ = block("cipher.encrypt", lambda: C.encrypt(head, case.key), kind=case.kind)
        plain_ct = C.encrypt_bytes(head, case.key)
        runner.verify(f"encrypt with traces {case.kind}",
                      lambda: require(traced_ct == plain_ct, "encrypt != encrypt_bytes"))
    metrics["cipher.encrypt_traced.mib_s"] = (
        len(rt.cases) * len(head) / MIB / tracer.total("cipher.encrypt"), "MiB/s")

    def kernel_pass():
        """The in-memory kernel on the roundtrip message, no file I/O."""
        for case in rt.cases:
            ciphertext = block("cipher.encrypt_bytes",
                               lambda: C.encrypt_bytes(rt.message, case.key), kind=case.kind)
            plain = block("cipher.decrypt", lambda: C.decrypt(ciphertext, case.key),
                          kind=case.kind)
            runner.verify(f"in-memory roundtrip {case.kind}",
                          lambda: require(plain == rt.message, "decrypt(encrypt(m)) != m"))

    # Each workload's own op group, every op run untraced then traced (see
    # Runner); the kernel pass follows the roundtrip group, on its message.
    groups = {"file_roundtrip": lambda: roundtrip_pass(runner, rt),
              "report_tables": lambda: report_pass(runner, inputs.report),
              "key_census": lambda: census_pass(runner, full_census)}
    for workload, group in groups.items():
        runner.pairs = []
        group()
        untraced_s, traced_s = map(sum, zip(*runner.pairs))
        runner.pairs = None
        metrics[f"trace.{workload}.overhead_share"] = (traced_s / untraced_s - 1.0, "share")
        if workload == "file_roundtrip":
            kernel_pass()

    for command in ("encrypt", "decrypt", "report", "identify", "attack"):
        calls = [c for c in tracer.find(f"cli.{command}") if tracer.children(c)]
        metrics[f"cli.{command}.overhead_s"] = (
            statistics.mean(tracer.self_time(c) for c in calls), "s")

    size = len(rt.message) / MIB
    for case in rt.cases:
        for func in ("encrypt_bytes", "decrypt"):
            metrics[f"cipher.{func}.{case.kind}.mib_s"] = (
                size / tracer.total(f"cipher.{func}", kind=case.kind), "MiB/s")
    file_s = {}
    for direction in ("encrypt", "decrypt"):
        file_s[direction] = tracer.total(f"cipher.{direction}_file")
        metrics[f"cipher.{direction}_file_s"] = (file_s[direction], "s")
    in_memory = tracer.total("cipher.encrypt_bytes") + tracer.total("cipher.decrypt")
    metrics["cipher.file_overhead_share"] = (1.0 - in_memory / sum(file_s.values()), "share")

    def inner(command: str, func: str, **tags) -> list[float]:
        """Durations of the package call under each traced cli call."""
        return [tracer.duration(c) for call in tracer.find(f"cli.{command}", **tags)
                for c in tracer.children(call, f"analysis.{func}")]

    for case in full_census:
        for command, func in (("identify", "identifiability_scan"),
                              ("attack", "known_plaintext_attack")):
            durations = inner(command, func, kind=case.kind, box="full", workers=1)
            metrics[f"analysis.{command}.{case.kind}.keys_per_s"] = (
                len(durations) * case.domain.size() / sum(durations), "1/s")

    # report phases, replayed; the replay must reproduce the packaged CSVs
    gap = 0.0
    stats = {"iv3_rows": 0, "scan_keys": 0}
    for table, _, expected in inputs.report.specs:
        rows, table_stats = block("replay", lambda: replay_report(pkg, tracer, table),
                                  table=table)
        for name in stats:
            stats[name] += table_stats[name]
        out = io.StringIO(newline="")
        A.write_report_csv(rows, out)
        runner.verify(f"replay {table}", lambda: require(
            out.getvalue().encode("utf-8") == expected, "replayed rows differ from the report"))
        for phase in REPORT_PHASES:
            metrics[f"analysis.report.{table}.{phase}_s"] = (
                tracer.total(f"replay.{phase}", table=table), "s")
        gap += (tracer.total("report_row", table=table)
                - sum(tracer.total(f"replay.{phase}", table=table) for phase in REPORT_PHASES))
    metrics["analysis.report.iv3_rows"] = (stats["iv3_rows"], "count")
    metrics["analysis.report.scan_keys"] = (stats["scan_keys"], "count")
    metrics["analysis.report.replay_gap_s"] = (gap, "s")

    # census counts from outside the scan, against the cli's counts (which
    # repeat over the two passes above) and, for the default seed, against
    # the recorded ones
    recorded = recorded_counts()["full"] if args.seed == DEFAULT_SEED else None
    for case in full_census:
        counts = census_counts(pkg, case)

        def agree(c=case, counts=counts):
            require(counts["matching"] == c.counts["identify"]
                    and counts["candidates"] == c.counts["attack"],
                    f"outside counts {counts} differ from the cli's {c.counts}")
            if recorded is not None:
                want = recorded[c.kind]
                require(all(counts[k] == want[k] for k in want),
                        f"counts {counts} differ from the recorded {want}")

        runner.verify(f"census counts {case.kind}", agree)
        grid = counts["grid"]
        metrics[f"analysis.census.{case.kind}.grid_keys"] = (grid, "count")
        metrics[f"analysis.identify.{case.kind}.matches"] = (counts["matching"], "count")
        metrics[f"analysis.attack.{case.kind}.candidates"] = (counts["candidates"], "count")
        metrics[f"analysis.census.{case.kind}.diverged_share"] = (counts["diverged"] / grid, "share")
        metrics[f"analysis.census.{case.kind}.depth0_share"] = (counts["depth0"] / grid, "share")

    # process pool: duffing identify at POOL_WORKERS over 1 worker
    (duffing,) = [c for c in full_census if c.kind == "duffing"]
    identify_s = {w: sum(t[2] for t in census_pass(runner, [duffing], workers=w)
                         if t[0] == "identify_keys_per_s")
                  for w in (1, POOL_WORKERS)}
    metrics["analysis.pool.speedup"] = (identify_s[1] / identify_s[POOL_WORKERS], "x")

    runner.verify("companion boxes vs oracle_matching_set",
                  lambda: check_light_boxes_against_oracle(pkg, inputs.census["light"]))
    tracer.dump(RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    return runner, metrics


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "chaoscrypt" / "__init__.py",
                           ROOT / "tests" / "oracles.py") if not p.is_file()]
    if missing:
        print(f"error: not a chaoscrypt checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    threads = os.environ.pop("CHAOSCRYPT_THREADS", None)
    print(f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"CHAOSCRYPT_THREADS {threads or 'unset'} (removed for the run)", file=sys.stderr)

    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        runner, metrics = (run_traced if args.trace else run_untraced)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
