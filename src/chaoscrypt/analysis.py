"""Security-analysis procedures for the chaotic stream cipher.

Covers key-space counting over gridded parameter boxes, plaintext and key
sensitivity percentages, the output-equality identifiability scan, the
known-plaintext key search, and generation of the per-key report tables.

Grid scans are embarrassingly parallel; results are identical regardless
of evaluation order or worker count. The worker count is capped by the
CPUs the process may run on.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from functools import partial
from importlib import resources
from math import floor
from time import perf_counter
from typing import Callable, Iterable, Sequence, TextIO

from .cipher import (
    _MAX_ITERATIONS,
    CipherConfig,
    Key,
    _field,
    _key_from_dict,
    _number,
    _parse_json,
    _scan_grid,
    _symbols,
    decrypt,
    default_config,
    encrypt_bytes,
)
from .maps import (DivergenceError, DomainError, MapKind, MapParams, _check_count,
                   _check_number, _finite)

__all__ = [
    "GRID_STEP",
    "KEY_SPACE_RESOLUTION",
    "BRUTE_FORCE_FLOOR",
    "FULL_KEY_DOMAIN",
    "REFERENCE_KEY_SPACE",
    "REFERENCE_PT_SENSITIVITY_BAND",
    "REPORT_HEADER",
    "KeyDomain",
    "IdentifiabilityResult",
    "AttackResult",
    "AnalysisRow",
    "CipherSummary",
    "key_space_size",
    "hamming_bits",
    "plaintext_sensitivity",
    "key_sensitivity",
    "identifiability_scan",
    "known_plaintext_attack",
    "analysis_report",
    "write_report_csv",
    "read_report_csv",
    "load_report_spec",
    "builtin_spec_path",
    "compare_ciphers",
    "write_comparison_csv",
]

# The paper's grid step of a and b: the default increment of a key grid,
# and the default key perturbation of key sensitivity.
GRID_STEP = 1e-4

# Resolution used when counting the admissible keys of a full cipher
# domain, and the classical floor a key space should exceed to be
# considered brute-force proof.
KEY_SPACE_RESOLUTION = 1e-8
BRUTE_FORCE_FLOOR = 2 ** 100

# Stabilizes floor() against binary representation error in decimal
# increments such as 0.0001 (0.003 / 0.0001 evaluates below 30 otherwise).
_GRID_EPS = 1e-9


def _check_axis(lo: float, hi: float) -> None:
    if not (_finite(lo) and _finite(hi)) or hi < lo:
        raise DomainError(f"degenerate axis [{lo}, {hi}]")


def _axis_count(lo: float, hi: float, step: float) -> int:
    _check_axis(lo, hi)
    _check_number(step, "axis step", positive=True)
    # ints subtract exactly, and may span more than a float holds
    steps = (hi - lo) / step + _GRID_EPS if _finite(hi - lo) else math.inf
    if not math.isfinite(steps):
        raise DomainError(f"axis [{lo}, {hi}] has too many steps of {step}")
    return int(floor(steps)) + 1


@dataclass(frozen=True)
class KeyDomain:
    """Rectangular (a, b) parameter box discretized by a per-axis
    increment; the torus modulus is shared by every key in the box."""

    kind: MapKind
    lower: tuple[float, float]
    upper: tuple[float, float]
    increment: float = GRID_STEP
    n_modulus: float = 1.0

    def __post_init__(self):
        # validate bounds, increment and n_modulus as side effects
        self.axis_counts()
        self.params_at(0, 0)

    def axis_counts(self) -> tuple[int, int]:
        return (_axis_count(self.lower[0], self.upper[0], self.increment),
                _axis_count(self.lower[1], self.upper[1], self.increment))

    def size(self) -> int:
        na, nb = self.axis_counts()
        return na * nb

    def tile_values(self, rows: Sequence[int], columns: Sequence[int]) -> tuple[list, list]:
        """The a-values of the given rows and the b-values of the given
        columns: grid key (i, j) is lower + (i, j) * increment."""
        (a0, b0), inc = self.lower, self.increment
        return [a0 + i * inc for i in rows], [b0 + j * inc for j in columns]

    def params_at(self, i: int, j: int) -> MapParams:
        (a,), (b,) = self.tile_values((i,), (j,))
        return MapParams(a, b, self.n_modulus)

    def grid_params(self) -> Iterable[MapParams]:
        """All grid keys in row-major order (a outermost, b innermost)."""
        a_values, b_values = self.tile_values(*map(range, self.axis_counts()))
        for a in a_values:
            for b in b_values:
                yield MapParams(a, b, self.n_modulus)

    def snap(self, params: MapParams) -> MapParams:
        """Nearest grid key, clamped into the box."""
        na, nb = self.axis_counts()
        # clamped before rounding, as a key far outside gives an infinite index
        i = round(min(max((params.a - self.lower[0]) / self.increment, 0), na - 1))
        j = round(min(max((params.b - self.lower[1]) / self.increment, 0), nb - 1))
        return self.params_at(i, j)

    def contains(self, params: MapParams) -> bool:
        return (self.lower[0] <= params.a <= self.upper[0]
                and self.lower[1] <= params.b <= self.upper[1])


# Full admissible key boxes of the two ciphers, and the key-space figures
# published for them. The Duffing computed count disagrees with its
# published figure by about an order of magnitude under any per-axis
# resolution that reproduces the published Arnold count, so reports carry
# both numbers with a flag.
FULL_KEY_DOMAIN = {
    MapKind.ARNOLD: KeyDomain(MapKind.ARNOLD, (-5.0, 0.4), (-0.9, 1.5)),
    MapKind.DUFFING: KeyDomain(MapKind.DUFFING, (1.8, -0.59), (2.9, 0.2)),
}
REFERENCE_KEY_SPACE = {
    MapKind.ARNOLD: 5e16,
    MapKind.DUFFING: 9e14,
}
REFERENCE_PT_SENSITIVITY_BAND = {
    MapKind.ARNOLD: (0.5, 2.5),
    MapKind.DUFFING: (0.5, 2.0),
}


def key_space_size(domain: KeyDomain, resolution: float) -> int:
    """Number of keys in the box at the given per-axis resolution
    (product over the two axes of floor(span / resolution) + 1)."""
    return replace(domain, increment=resolution).size()


def hamming_bits(c1: bytes | bytearray, c2: bytes | bytearray) -> int:
    """Number of differing bits between two equal-length byte strings;
    anything but the cipher's symbol form is refused (cipher._symbols)."""
    if len(_symbols(c1)) != len(_symbols(c2)):
        raise DomainError("hamming_bits requires equal-length inputs")
    return (int.from_bytes(c1, "little") ^ int.from_bytes(c2, "little")).bit_count()


def _as_bytes(plaintext: bytes | bytearray | str) -> bytes:
    """plaintext as bytes: a str as its UTF-8, anything but the cipher's
    symbol form refused (cipher._symbols)."""
    if isinstance(plaintext, str):
        return plaintext.encode("utf-8")
    return bytes(_symbols(plaintext))


def plaintext_sensitivity(plaintext: bytes | str, key: Key,
                          cfg: CipherConfig | None = None, flip_bit: int = 0) -> float:
    """Percentage of ciphertext bits changed by flipping one plaintext bit."""
    p = _as_bytes(plaintext)
    if not p:
        raise DomainError("plaintext sensitivity needs a non-empty plaintext")
    _check_count(flip_bit, "flip_bit", 0, 8 * len(p) - 1)
    flipped = bytearray(p)
    flipped[flip_bit >> 3] ^= 1 << (flip_bit & 7)
    c1 = encrypt_bytes(p, key, cfg)
    c2 = encrypt_bytes(bytes(flipped), key, cfg)
    return 100.0 * hamming_bits(c1, c2) / (8 * len(p))


def key_sensitivity(plaintext: bytes | str, key: Key,
                    cfg: CipherConfig | None = None, delta: float = GRID_STEP) -> float:
    """Percentage of ciphertext bits changed by increasing the key's a by
    delta, the paper's grid step by default. A nonzero delta below the
    resolution of a, which leaves the key equal to itself, raises
    DomainError; a delta of 0 is no perturbation and scores 0.
    """
    p = _as_bytes(plaintext)
    if not p:
        raise DomainError("key sensitivity needs a non-empty plaintext")
    _check_number(delta, "delta")
    params = key.params
    perturbed = replace(params, a=params.a + delta)
    if delta and perturbed == params:
        raise DomainError(f"delta {delta!r} leaves a = {params.a!r} unchanged")
    c1 = encrypt_bytes(p, key, cfg)
    c2 = encrypt_bytes(p, Key(key.kind, perturbed), cfg)
    return 100.0 * hamming_bits(c1, c2) / (8 * len(p))


@dataclass(frozen=True)
class IdentifiabilityResult:
    """Outcome of an output-equality scan over a key grid."""

    identifiable: bool
    true_key: Key               # snapped onto the scan grid
    matching_keys: list[Key]    # grid keys reproducing the reference output
    grid_size: int
    diverged: int = 0           # grid keys whose orbit diverged before a mismatch

    @property
    def verdict(self) -> str:
        return "I" if self.identifiable else "NI"


@dataclass(frozen=True)
class AttackResult:
    """Outcome of a known-plaintext key search over a grid."""

    candidates: list[Key]
    recovered: Key | None
    robust: bool
    diverged: int = 0           # grid keys whose orbit diverged before a mismatch

    @property
    def verdict(self) -> str:
        return "R" if self.robust else "NR"


# Most keys in one tile of a scan, serial or pooled, so that an interrupted
# pooled scan only waits for a few short tiles already running. A scan uses
# at most one worker per tile, so a grid of up to this many keys is one
# in-process scanner call: starting a pool costs more than it saves there.
_MAX_POOL_CHUNK = 1 << 16

# Largest grid a scan accepts, about 15 minutes of one worker; the full key
# boxes at the paper's increment 1e-4 hold 4.5e8 (Arnold) and 8.7e7 (Duffing).
_MAX_SCAN_KEYS = 10 ** 9


def _scan_tile(domain: KeyDomain, cfg: CipherConfig, queries: list, tile) -> tuple[int, list]:
    """_scan_grid on the tile of domain whose rows and columns are tile."""
    return _scan_grid(domain.kind, domain.n_modulus, cfg, queries, domain.tile_values(*tile))


def _size_text(size: int) -> str:
    """size in digits, or as "over 10^k" once it has more than 15 of them."""
    return str(size) if size < 10 ** 15 else f"over 10^{len(str(size)) - 1}"


def _matching_keys(domain: KeyDomain, cfg: CipherConfig, jobs: Sequence[tuple[tuple, Callable]],
                   workers: int, on_progress: Callable[[int, int], None] | None) -> list:
    """Each of one or two jobs (query, finish) finished with what a scan
    of its query (data, reference, n1, n2) alone finds: the grid keys, in
    grid order, whose encryption of data under cfg's start state,
    quantizer and gain with n1/n2 iterations is reference, and the count
    of keys whose orbit left the box or overflowed before their first
    mismatching symbol. The queries share one pass over the grid. Each
    key is dropped at its first mismatching symbol; divergent keys do not
    match."""
    _check_count(workers, "workers", 1)
    total = domain.size()
    if total > _MAX_SCAN_KEYS:
        raise DomainError(f"grid of {_size_text(total)} keys exceeds the scan cap of "
                          f"{_MAX_SCAN_KEYS}; use a larger increment or a smaller domain")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1, -(-total // _MAX_POOL_CHUNK))
    # serially the whole grid, pooled a quarter of a worker's share; a pool
    # starts only above the cap, so a pooled tile holds over an eighth of it
    chunk = min(_MAX_POOL_CHUNK, total if workers == 1 else -(-total // (workers * 4)))
    na, nb = domain.axis_counts()
    height, width = max(1, chunk // nb), min(nb, chunk)
    # Row-major tiles: whole rows, or column ranges of a row longer than chunk.
    # Index ranges, so only the worker scanning a tile builds its key values.
    tiles = ((range(i, min(i + height, na)), range(j, min(j + width, nb)))
             for i in range(0, na, height) for j in range(0, nb, width))
    scan = partial(_scan_tile, domain, cfg, [query for query, _ in jobs])
    hits, diverged, done = [[] for _ in jobs], [0] * len(jobs), 0
    pool = None
    if workers > 1:  # only a scan that pools imports the pool
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for scanned, found in (pool.map if pool else map)(scan, tiles):
            for k, (tile_hits, tile_diverged) in enumerate(found):
                hits[k] += tile_hits
                diverged[k] += tile_diverged
            done += scanned
            if on_progress:
                on_progress(done, total)
    finally:
        if pool:
            # after an exception, the tiles not yet started are dropped
            pool.shutdown(cancel_futures=True)
    return [finish([Key(domain.kind, MapParams(a, b, domain.n_modulus)) for a, b in keys], count)
            for (_, finish), keys, count in zip(jobs, hits, diverged)]


def _identification(plaintext: bytes | str, true_key: Key, domain: KeyDomain,
                    cfg: CipherConfig, iteration_value: int, compare_len: int | None) -> tuple:
    """identifiability_scan's arguments checked, as its scan's job for
    _matching_keys: the query and the function that makes the result."""
    p = _as_bytes(plaintext)
    if not p:
        raise DomainError("identifiability scan needs a non-empty plaintext")
    if true_key.kind is not domain.kind:
        raise DomainError("true key and domain use different map kinds")
    if compare_len is None:
        compare_len = min(len(p), 8)
    _check_count(compare_len, "compare_len", 1, len(p))
    _check_count(iteration_value, "iteration_value", 1, _MAX_ITERATIONS)
    scan_cfg = replace(cfg, n1=iteration_value, n2=iteration_value)
    snapped = Key(domain.kind, domain.snap(true_key.params))
    data = p[:compare_len]

    def finish(matching: list[Key], diverged: int) -> IdentifiabilityResult:
        return IdentifiabilityResult(matching == [snapped], snapped, matching, domain.size(),
                                     diverged)

    reference = encrypt_bytes(data, snapped, scan_cfg)
    return (data, reference, iteration_value, iteration_value), finish


def identifiability_scan(plaintext: bytes | str, true_key: Key, domain: KeyDomain,
                         cfg: CipherConfig | None = None, iteration_value: int = 3,
                         compare_len: int | None = None, workers: int = 1,
                         on_progress: Callable[[int, int], None] | None = None,
                         ) -> IdentifiabilityResult:
    """Decide whether the true key is the only grid key reproducing the
    cipher's output on this plaintext.

    Both iteration counts are set to iteration_value for the scan, and
    outputs are compared by exact integer equality on the first
    compare_len symbols (default: min(len(plaintext), 8)). The true key
    is snapped to the nearest grid point first.
    """
    cfg = cfg if cfg is not None else default_config(true_key.kind)
    job = _identification(plaintext, true_key, domain, cfg, iteration_value, compare_len)
    return _matching_keys(domain, cfg, [job], workers, on_progress)[0]


def _attack(ciphertext: bytes, known_prefix: bytes | str, domain: KeyDomain,
            cfg: CipherConfig) -> tuple:
    """known_plaintext_attack's arguments checked, as its scan's job for
    _matching_keys: the query and the function that makes the result."""
    prefix = _as_bytes(known_prefix)
    if not prefix:
        raise DomainError("known-plaintext attack needs a non-empty prefix")
    ciphertext = bytes(_symbols(ciphertext))
    if len(ciphertext) < len(prefix):
        raise DomainError("ciphertext shorter than the known prefix")

    def finish(candidates: list[Key], diverged: int) -> AttackResult:
        recovered = candidates[0] if len(candidates) == 1 else None
        try:
            robust = recovered is None or not decrypt(ciphertext, recovered, cfg).startswith(prefix)
        except DivergenceError:
            robust = True
        return AttackResult(candidates, recovered, robust, diverged)

    return (prefix, ciphertext[:len(prefix)], cfg.n1, cfg.n2), finish


def known_plaintext_attack(ciphertext: bytes, known_prefix: bytes | str,
                           domain: KeyDomain, cfg: CipherConfig | None = None,
                           workers: int = 1,
                           on_progress: Callable[[int, int], None] | None = None,
                           ) -> AttackResult:
    """Exhaustive grid search for keys whose encryption of the known
    plaintext prefix reproduces the observed ciphertext prefix.

    The cipher is robust against the attack when no single key is
    isolated, or when the isolated key fails to decrypt the full
    ciphertext into an extension of the known prefix.
    """
    cfg = cfg if cfg is not None else default_config(domain.kind)
    job = _attack(ciphertext, known_prefix, domain, cfg)
    return _matching_keys(domain, cfg, [job], workers, on_progress)[0]


@dataclass
class AnalysisRow:
    """One row of the per-key report table."""

    index: int
    plaintext: str
    key: Key
    domain: KeyDomain
    ciphertext_hex: str = ""
    plaintext_sensitivity_pct: float = field(default=math.nan)
    key_sensitivity_pct: float = field(default=math.nan)
    # a verdict stays empty when its phase did not run
    identifiable: str = ""
    robust_kpa: str = ""
    brute_force_secret: str = ""
    error: str | None = None


REPORT_HEADER = [
    "index", "plaintext", "key_a", "key_b", "ciphertext_hex",
    "pt_sensitivity_pct", "key_sensitivity_pct",
    "domain_lo_a", "domain_lo_b", "domain_hi_a", "domain_hi_b", "increment",
    "identifiable", "robust_kpa", "brute_force_secret",
]


def analysis_report(rows_spec: Sequence[tuple[str | bytes, Key, KeyDomain]],
                    cfg: CipherConfig | None = None, *,
                    iteration_values: Sequence[int] = (2, 3),
                    compare_len: int = 8, kpa_prefix_len: int = 2,
                    flip_bit: int = 0, key_delta: float | None = None,
                    workers: int = 1,
                    log: Callable[[str], None] | None = None) -> list[AnalysisRow]:
    """Run every analysis on each (plaintext, key, domain) triple.

    Identifiability tries iteration_values in turn, up to the first that
    isolates the true key: the first value's scan shares one grid pass
    with the attack's, and later values scan alone. Per-row failures are
    recorded in the row's error field and the run continues. A phase that
    fails, a later iteration value's scan included, leaves its verdict
    empty; so does an empty iteration_values for identifiability. The
    brute-force verdict mirrors identifiability, empty included. A count
    or a key_delta out of its domain is refused before the first row.
    """
    for name, count, lo in (("compare_len", compare_len, 0), ("kpa_prefix_len", kpa_prefix_len, 0),
                            ("flip_bit", flip_bit, 0), ("workers", workers, 1)):
        _check_count(count, name, lo)
    iteration_values = tuple(iteration_values)  # each row reads them again
    for iteration_value in iteration_values:
        _check_count(iteration_value, "iteration_value", 1, _MAX_ITERATIONS)
    if key_delta is not None:
        _check_number(key_delta, "key_delta")
    rows_spec = list(rows_spec)
    rows = []
    for idx, (plaintext, key, domain) in enumerate(rows_spec, start=1):
        t0 = perf_counter()
        p = _as_bytes(plaintext)
        text = plaintext if isinstance(plaintext, str) else p.decode("utf-8", "backslashreplace")
        row_cfg = cfg if cfg is not None else default_config(key.kind)
        row = AnalysisRow(index=idx, plaintext=text, key=key, domain=domain)
        failed = {}  # phase -> message of the error that stopped it

        def run(phases, task, *args, **kwargs):
            """task's result, or None with its error recorded under phases."""
            try:
                return task(*args, **kwargs)
            except (DomainError, DivergenceError) as exc:
                failed.update(dict.fromkeys(phases, str(exc)))
                return None

        ciphertext = run(["encrypt"], encrypt_bytes, p, key, row_cfg)
        row.ciphertext_hex = "" if ciphertext is None else ciphertext.hex()
        pct = run(["plaintext_sensitivity"], plaintext_sensitivity, p, key, row_cfg, flip_bit)
        row.plaintext_sensitivity_pct = math.nan if pct is None else pct
        delta = domain.increment if key_delta is None else key_delta
        pct = run(["key_sensitivity"], key_sensitivity, p, key, row_cfg, delta=delta)
        row.key_sensitivity_pct = math.nan if pct is None else pct

        attack = None  # the attack's job, until a grid pass carries it
        if ciphertext is None:
            failed["attack"] = "skipped, no ciphertext"
        else:
            attack = run(["attack"], _attack, ciphertext, p[:min(len(p), kpa_prefix_len)],
                         domain, row_cfg)
        # one pass per iteration value; without one (None), the attack's alone
        for iteration_value in iteration_values or [None]:
            ident_job = None if iteration_value is None else run(
                ["identifiability"], _identification, p, key, domain, row_cfg, iteration_value,
                min(len(p), compare_len))
            jobs = {phase: job for phase, job in (("identifiability", ident_job),
                                                  ("attack", attack)) if job is not None}
            attack = None
            results = run(list(jobs), _matching_keys, domain, row_cfg, list(jobs.values()),
                          workers, None) if jobs else None
            found = dict(zip(jobs, results or []))
            if "attack" in found:
                row.robust_kpa = found["attack"].verdict
            # a value whose scan did not finish leaves the verdict empty
            ident = found.get("identifiability")
            row.identifiable = "" if ident is None else ident.verdict
            if row.identifiable != "NI":
                break
        order = ("encrypt", "plaintext_sensitivity", "key_sensitivity", "identifiability", "attack")
        errors = [(phase, failed[phase]) for phase in order if phase in failed]

        row.brute_force_secret = {"I": "YES", "NI": "NO"}.get(row.identifiable, "")
        row.error = "; ".join(f"{phase}: {message}" for phase, message in errors) or None
        rows.append(row)
        if log:
            # phases that failed alike, such as both scans of a grid over the
            # cap, share one message
            shared: dict[str, list[str]] = {}
            for phase, message in errors:
                shared.setdefault(message, []).append(phase)
            error = "; ".join(f"{', '.join(phases)}: {message}"
                              for message, phases in shared.items())
            log(f"row {idx}/{len(rows_spec)} key=({key.params.a}, {key.params.b}) "
                f"grid={_size_text(domain.size())} ident={row.identifiable} kpa={row.robust_kpa} "
                f"elapsed={perf_counter() - t0:.2f}s" + (f" error={error}" if error else ""))
    return rows


def write_report_csv(rows: Sequence[AnalysisRow], out: TextIO) -> None:
    writer = csv.writer(out)
    writer.writerow(REPORT_HEADER)
    for r in rows:
        writer.writerow([
            r.index, r.plaintext, repr(r.key.params.a), repr(r.key.params.b),
            r.ciphertext_hex,
            repr(r.plaintext_sensitivity_pct), repr(r.key_sensitivity_pct),
            repr(r.domain.lower[0]), repr(r.domain.lower[1]),
            repr(r.domain.upper[0]), repr(r.domain.upper[1]),
            repr(r.domain.increment),
            r.identifiable, r.robust_kpa, r.brute_force_secret,
        ])


def read_report_csv(inp: TextIO, kind: MapKind) -> list[AnalysisRow]:
    """Parse a report CSV back into rows (the CSV does not carry the map
    kind or torus modulus, so the kind is supplied by the caller). Fields
    of up to 2**31 - 1 characters are read, the most csv's field limit
    takes on every platform; the limit is put back after."""
    limit = csv.field_size_limit(2 ** 31 - 1)
    try:
        records = list(csv.reader(inp))
    except csv.Error as exc:
        raise ValueError(f"malformed report CSV: {exc}")
    finally:
        csv.field_size_limit(limit)
    if not records:
        raise ValueError("empty report CSV")
    header, *records = records
    if header != REPORT_HEADER:
        raise ValueError(f"unexpected report header: {header}")
    rows = []
    for n, rec in enumerate(records, start=1):
        where = f"report row {n}"
        if len(rec) != len(REPORT_HEADER):
            raise ValueError(f"{where} has {len(rec)} columns, expected {len(REPORT_HEADER)}")
        (index, plaintext, key_a, key_b, ciphertext_hex, pt_pct, key_pct,
         lo_a, lo_b, hi_a, hi_b, increment, identifiable, robust, brute) = rec
        if identifiable not in ("I", "NI", "") or robust not in ("R", "NR", "") \
                or brute not in ("YES", "NO", ""):
            raise ValueError(f"unexpected verdicts in {where}")
        try:
            domain = KeyDomain(kind, (float(lo_a), float(lo_b)),
                               (float(hi_a), float(hi_b)), float(increment))
            rows.append(AnalysisRow(
                index=int(index), plaintext=plaintext,
                key=Key(kind, MapParams(float(key_a), float(key_b), domain.n_modulus)),
                domain=domain, ciphertext_hex=ciphertext_hex,
                plaintext_sensitivity_pct=float(pt_pct),
                key_sensitivity_pct=float(key_pct),
                identifiable=identifiable, robust_kpa=robust, brute_force_secret=brute,
            ))
        except ValueError as exc:  # int, float, KeyDomain and MapParams name the value
            raise ValueError(f"{where}: {exc}") from None
    return rows


def load_report_spec(path: str | os.PathLike) -> list[tuple[str, Key, KeyDomain]]:
    """Load (plaintext, key, domain) triples from a JSON spec file.

    An item of the wrong shape raises ValueError naming the item and field.
    """
    with open(path, "r", encoding="utf-8") as f:
        items = _parse_json(f.read(), "report spec")
    if not isinstance(items, list):
        raise ValueError("report spec must be a JSON list")
    triples = []
    for n, item in enumerate(items, start=1):
        where = f"report spec item {n}"
        key = _key_from_dict(_field(item, "key", where), f"{where} key")
        dobj = _field(item, "domain", where)
        lower, upper = (_pair(dobj, name, f"{where} domain") for name in ("lower", "upper"))
        domain = KeyDomain(key.kind, lower, upper,
                           _number(dobj, "increment", f"{where} domain", GRID_STEP),
                           n_modulus=key.params.n_modulus)
        plaintext = _field(item, "plaintext", where)
        if not isinstance(plaintext, str):
            raise ValueError(f"{where} field 'plaintext' must be a string, got {plaintext!r}")
        triples.append((plaintext, key, domain))
    return triples


def _pair(obj, name: str, where: str) -> tuple[float, float]:
    pair = _field(obj, name, where)
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError(f"{where} field {name!r} must be a list of two numbers")
    return tuple(_number({name: v}, name, where) for v in pair)


def builtin_spec_path(name: str):
    """Path to one of the packaged report specs, e.g. 'table1_arnold'."""
    candidate = resources.files("chaoscrypt").joinpath(f"specs/{name}.json")
    if not candidate.is_file():
        raise ValueError(f"no builtin report spec named {name!r}")
    return candidate


@dataclass(frozen=True)
class CipherSummary:
    """One cipher's aggregate line of the comparison table."""

    cipher: str
    rows: int
    key_space: int
    key_space_reference: float
    key_space_flagged: bool
    pt_sensitivity_min: float
    pt_sensitivity_max: float
    key_sensitivity_min: float
    key_sensitivity_max: float
    identifiable_keys: int
    robust_keys: int
    any_identifiable: bool
    any_robust: bool
    exceeds_2pow100: bool


def _minmax(values: Iterable[float]) -> tuple[float, float]:
    clean = [v for v in values if not math.isnan(v)]
    if not clean:
        return math.nan, math.nan
    return min(clean), max(clean)


def _summarize(rows: Sequence[AnalysisRow]) -> CipherSummary:
    if not rows:
        raise DomainError("cannot summarize an empty report")
    kind = rows[0].domain.kind
    computed = key_space_size(FULL_KEY_DOMAIN[kind], KEY_SPACE_RESOLUTION)
    reference = REFERENCE_KEY_SPACE[kind]
    ratio = computed / reference
    pt_min, pt_max = _minmax(r.plaintext_sensitivity_pct for r in rows)
    ks_min, ks_max = _minmax(r.key_sensitivity_pct for r in rows)
    n_ident = sum(1 for r in rows if r.identifiable == "I")
    n_robust = sum(1 for r in rows if r.robust_kpa == "R")
    return CipherSummary(
        cipher=kind.value,
        rows=len(rows),
        key_space=computed,
        key_space_reference=reference,
        key_space_flagged=not (0.5 <= ratio <= 2.0),
        pt_sensitivity_min=pt_min, pt_sensitivity_max=pt_max,
        key_sensitivity_min=ks_min, key_sensitivity_max=ks_max,
        identifiable_keys=n_ident, robust_keys=n_robust,
        any_identifiable=n_ident > 0, any_robust=n_robust > 0,
        exceeds_2pow100=computed > BRUTE_FORCE_FLOOR,
    )


def compare_ciphers(rows_first: Sequence[AnalysisRow],
                    rows_second: Sequence[AnalysisRow]) -> list[CipherSummary]:
    """Aggregate two reports into the two-line cipher comparison."""
    return [_summarize(rows_first), _summarize(rows_second)]


COMPARISON_HEADER = [
    "cipher", "rows", "key_space", "key_space_reference", "key_space_flagged",
    "pt_sensitivity_min_pct", "pt_sensitivity_max_pct",
    "key_sensitivity_min_pct", "key_sensitivity_max_pct",
    "identifiable_keys", "robust_keys",
    "any_identifiable", "any_robust", "key_space_exceeds_2pow100",
]


def write_comparison_csv(summaries: Sequence[CipherSummary], out: TextIO) -> None:
    writer = csv.writer(out)
    writer.writerow(COMPARISON_HEADER)
    for s in summaries:
        writer.writerow([
            s.cipher, s.rows, s.key_space, repr(s.key_space_reference),
            "yes" if s.key_space_flagged else "no",
            repr(s.pt_sensitivity_min), repr(s.pt_sensitivity_max),
            repr(s.key_sensitivity_min), repr(s.key_sensitivity_max),
            s.identifiable_keys, s.robust_keys,
            "yes" if s.any_identifiable else "no",
            "yes" if s.any_robust else "no",
            "yes" if s.exceeds_2pow100 else "no",
        ])
