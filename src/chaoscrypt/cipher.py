"""Message-embedded stream cipher driven by a 2-D chaotic map.

Per plaintext byte the running chaotic state is advanced twice; each
advance is quantized to an integer and mixed into the byte by addition
mod 256. The first-stage mixed value is then folded back into the state,
so the dynamics depend on everything already encrypted. Decryption
regenerates the same state sequence from the key and inverts the mixing
exactly. Symbols are bytes: the alphabet is fixed at SYMBOL_MODULUS =
256, and the cipher takes them as bytes or a bytearray alone, whose items
are bytes by construction; _symbols, the one check, refuses any other type.

One per-symbol body, _SYMBOL_BODY, is the whole cipher: it steps the
map with the bound tests the map needs, quantizes, mixes and feeds back
z, adding to x entry z of the gain's feedback table (_feed), which holds
the 256 increments gain * z / 256. It is spliced into two entry points,
_BLOCK and _FINISH, and its keystream part, _KEYSTREAM, into a third,
_SCAN; maps._kernel compiles each on first use for each map kind and
pair of iteration counts (n1, n2), with every step written out inline.
The block and finish entries take the table in place of the gain. Each
entry tests its start state once per call, not once per symbol. The
block entry runs one chunk of symbols and carries the state to the next;
it is compiled once per direction, with the direction and the tracing
chosen once per call: one block serves encrypt_bytes and encrypt_file,
one encrypt with its traces, and one decrypt and decrypt_file. The file
commands feed it 64 KiB reads and write each block through a temp file
that replaces the output only on success.

The grid scan behind _scan_grid serves the scans in analysis in two
steps. The scanner runs a tile of grid keys per call, each a-value of
the tile against each b-value, through symbol 0's keystream alone, which
rejects more than 99% of keys; it hands every key it cannot reject on,
as an (a, b) alone, one whose orbit leaves the box included. It runs
that with its grid-, row- and column-invariant parts lifted out of its
one key loop, which computes and tests no guard: a row that the map's
bound guard does not clear for every key hands its keys on untried, as
every row does when the start state or a lifted value fails. The finish
kernel then runs each key from the start state, symbol 0 included, stops
it at its first mismatching symbol and alone counts the keys that
diverged. A scan takes one or two queries (data, reference, n1, n2),
which share one config's start state, quantizer and gain. Its scanner
runs the schedule (n1, n2) of the query with more steps, the main one,
and decides the other, side query's symbol 0 from the same orbit:
symbol 0 depends only on the key and the start state, so the main
schedule's steps hold the side's. The finish kernel of the side query's
schedule runs the keys that pass the side test, those that fail the
main query's bound test and those handed on, so that one grid pass gives
each query what its own scan gives. Every scanner, with a side query or
without, is the one template _SCAN compiled with the one fill
_SCAN_FILL, and is called the same way: _scan_grid passes it each
query's symbol-0 target, which it computes once.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import IO, Callable, Iterable, Iterator

from .maps import (
    DIVERGENCE_BOUND,
    DomainError,
    MapKind,
    MapParams,
    State,
    _check_count,
    _check_number,
    _finite,
    _kernel,
)

__all__ = [
    "SYMBOL_MODULUS",
    "DEFAULT_INITIAL_STATE",
    "Key",
    "CipherConfig",
    "SymbolTrace",
    "default_config",
    "encrypt",
    "encrypt_bytes",
    "decrypt",
    "encrypt_file",
    "decrypt_file",
    "key_to_json",
    "key_from_json",
    "save_key",
    "load_key",
    "load_config",
    "config_from_dict",
]

SYMBOL_MODULUS = 256

# Largest n1/n2 a config file may ask for (the paper uses 2 and 3): every
# symbol costs n1 + n2 map steps, so a huge count never finishes.
_MAX_ITERATIONS = 1000

# Public starting points of the transmitter, one per map.
DEFAULT_INITIAL_STATE = {
    MapKind.ARNOLD: State(0.5, 0.06),
    MapKind.DUFFING: State(-0.04, 0.2),
}


@dataclass(frozen=True)
class Key:
    """Secret (a, b) parameter pair of a chaotic map; N stays public."""

    kind: MapKind
    params: MapParams


@dataclass(frozen=True)
class CipherConfig:
    """Public cipher parameters.

    n1 and n2 are the iteration counts before the two quantized snapshots
    of each symbol; quant_scale turns a state coordinate into an integer;
    reinject_gain scales the feedback written back into the state. The
    initial state is public: all secrecy lives in the key.
    """

    initial_state: State
    n1: int = 3
    n2: int = 3
    quant_scale: float = 1e6
    reinject_gain: float = 1.0

    def __post_init__(self):
        for name in ("n1", "n2"):
            _check_count(getattr(self, name),
                         f"config field {name!r} (iteration counts n1 and n2)", 1, _MAX_ITERATIONS)
        # every quantized coordinate lies in the box [-bound, bound], so
        # scaling it never overflows
        _check_number(self.quant_scale, "config field 'quant_scale'", positive=True)
        if not _finite(self.quant_scale * DIVERGENCE_BOUND):
            raise DomainError(f"config field 'quant_scale' times {DIVERGENCE_BOUND:g} "
                              f"must be finite, got {self.quant_scale!r}")
        _check_number(self.reinject_gain, "config field 'reinject_gain'")


@dataclass(frozen=True, slots=True)
class SymbolTrace:
    """Intermediate values of one symbol: first-stage mix z, emitted
    symbol y, and the two state snapshots they were derived from."""

    z: int
    y: int
    s1: State
    s2: State


def default_config(kind: MapKind) -> CipherConfig:
    """Default configuration for a map kind (differs only in start state)."""
    return CipherConfig(initial_state=DEFAULT_INITIAL_STATE[kind])


# The cipher's per-symbol body. For symbol k with input c it advances the
# orbit n1 steps, snapshots it ($snapshot), advances n2 steps; quantizes
# the two snapshots, mixes ($mix), runs $check, and feeds z back into the
# state by adding feed[z]: feed is the gain's feedback table (_feed), so
# the body adds the float gain * z / 256 gives, with no arithmetic that
# mixes an int and a float. Each step is a maps._BETWEEN_STEP, but the
# symbol's last, which is a maps._TESTED_STEP, so a key whose orbit
# cannot come back into the box tests it once per symbol (see
# maps._STEP_SOURCE). Each run of steps is written out in full, so the
# body is compiled once per (kind, n1, n2). Its first part, up to q1 and
# q2, is _KEYSTREAM, which the scanner runs alone (see _SCAN).
# A failed bound test runs $diverge; a step or a feedback that overflows
# (an infinite table entry, or a sum past the largest float) makes fmod
# raise ValueError, which each entry treats as a divergence.
#
# The body does not test the state it starts from: each entry tests its
# start state once per call ($entry), and a finished symbol leaves a state
# that passes that test. Duffing's last step tested y, and the feedback only
# moves x; Arnold's states stay finite, as fmod raises on an overflowed
# feedback. (A NaN fed back, which no config allows, fails the next
# symbol anyway: at a bound test, or at floor(nan), which raises
# ValueError.) The quantizations follow the last test, so they only see
# states inside the box. q1 and q2 are not reduced mod $modulus, the
# literal 256: the mixes reduce the sums they enter, which gives the same
# ints.
_KEYSTREAM = """\
$steps1
$snapshot
$steps2
q1 = floor(abs(s1x) * q)
q2 = floor(abs(x) * q)
"""
_SYMBOL_BODY = _KEYSTREAM + """\
$mix
$check
x = fmod(x + feed[z], 1.0)
"""
_ENCRYPT = """\
z = (c + q1) % $modulus
out = (z + q2) % $modulus
"""
_DECRYPT = """\
z = (c - q2) % $modulus
out = (z - q1) % $modulus
"""

# Entry point 1, the cipher: runs one chunk of symbols under one key from
# state (x, y), symbol k being the chunk's first, and returns the output
# bytes and the state to carry into the next chunk. There is one block per
# direction, each compiled on first use: _BLOCK_FILL encrypts without a
# trace, and _cipher_blocks fills in _DECRYPT to decrypt, or $emit with a
# call that hands trace each symbol's z, output and two snapshots, and
# names that variant in the block's file name, so that linecache keeps
# each variant's source.
_BLOCK = """\
def block(a, b, n, x, y, k, symbols, q, feed, trace):
    $setup
    result = bytearray()
    put = result.append
    if symbols and not ($entry):
        $diverge
    for c in symbols:
        try:
            $body
        except ValueError:
            $diverge
        put(out)
        $emit
    return result, x, y
"""
_BLOCK_FILL = {
    "body": _SYMBOL_BODY,
    "modulus": repr(SYMBOL_MODULUS),
    "diverge": ('raise DivergenceError(f"orbit diverged while processing symbol '
                '{k + len(result)}", symbol=k + len(result))'),
    "snapshot": "s1x = x",
    "mix": _ENCRYPT,
    "check": "",
    "emit": "",
}
_TRACED_FILL = {"snapshot": "s1x, s1y = x, y", "emit": "trace(z, out, s1x, s1y, x, y)"}

# Entry point 2, the grid scanner, a filter: runs symbol 0's keystream
# under each key (a, b) of a tile, a in a_values and b in b_values, and
# returns (passed, side): the keys, in row-major order, whose symbol 0 it
# cannot prove wrong, and side (below). It counts nothing: a key whose
# orbit leaves the box goes on too ($diverge), and _FINISH, which runs
# each key again from (x0, y0), fails it at the same test, before output.
#
# A key runs $lifted: its setup, start state, symbol 0's keystream
# (_KEYSTREAM) and the decision _MATCH_0. maps._kernel hands that code to
# _hoist.hoist, which lifts its grid-invariant subtrees out of the call's
# loops ($grid_lifts), its row-invariant ones out of the column loop
# ($row_lifts) and its column-invariant ones into a table with one entry
# per b ($column_lifts, $column_values), and returns the rest as
# $key_code (see there). A start state that fails $entry, or a grid or
# column lift that raises (only fmod can, on an overflowed dividend),
# sets top to NaN, so that every row hands its keys on (below). Only the
# key loop reads the row lifts, so they run under the row choice. No row
# lift holds an fmod (after step 1 Arnold's x depends on the row alone
# and its y on the column alone; Duffing has none), and a key-loop key
# runs bounded arithmetic, so neither needs a handler.
#
# More than 99% of keys stop at symbol 0, so a key does only what decides
# that: the output (c0 + q1 + q2) % 256 is e0 exactly when the keystream
# byte (q1 + q2) % 256 is t0, the grid-invariant (e0 - c0) % 256 that
# _scan_grid passes in, so _MATCH_0 compares that and hands on the keys
# that pass. The key computes no mix value and feeds nothing back. Its
# last step is maps._SPLIT_STEP, which makes only the x' that q2 reads,
# so a boxed Arnold key never computes its last y'.
#
# The scanner runs one query's schedule (n1, n2), its main one. Compiled
# with a side schedule (n1', n2') of no more steps, it adds lines, and
# changes none, that decide a second, side query's symbol 0 on the same
# orbit, which depends only on the key and the start state the queries
# share with q: snapshots of x after step n1' (side_s1x) and step
# n1' + n2' (side_s2x), and, right before the main compare, $side_check,
# which compares (q1' + q2') % 256 with target, the side query's t0. The
# keys that pass it, and each key that fails the main query's bound test
# ($diverge), go to side, for _FINISH to run the side query. This is
# exact as the key loop runs only keys that pass the guard: an Arnold key
# takes no bound test and cannot raise before the compare, and a Duffing
# key that passes the main query's one exact test had every earlier y
# inside the box (no_return). A scanner without a side schedule has every
# $side_ snippet blank and returns side empty.
#
# A key's guard, maps._kernel's $guard, is "$guard_column <= $guard_row",
# so the column loop computes each column's $guard_column once and keeps
# the largest in top (NaN once one is NaN), and each row decides the
# guard for all its keys at once: it tests top <= $guard_row. The key
# loop, compiled with the guard as the literal True, which the compiler
# folds away with the bound tests it skips, runs each row that passes.
# Any other row, or one whose comparison is NaN, takes no map step and
# hands its keys on, to side too, for _FINISH to run with their guards.
_SCAN = """\
def scan(a_values, b_values, n, x0, y0, q, t0, target):
    passed, side = [], []
    x, y = x0, y0
    columns = []
    top = 0.0
    try:
        if not ($entry):
            raise ValueError
        $grid_lifts
        for b in b_values:
            $column_lifts
            columns.append(($column_values))
            value = $guard_column
            if top == top and not value <= top:
                top = value
    except ValueError:
        top = float("nan")
    for a in a_values:
        if top <= $guard_row:
            $row_lifts
            for column in columns:
                $column_values = column
                $key_code
        else:
            keys = [(a, b) for b in b_values]
            passed += keys
            $side_hand_on
    return passed, side
"""
_MATCH_0 = """\
$side_check
if (q1 + q2) % $modulus == t0:
    passed.append((a, b))
"""
_SCAN_FILL = {
    "lifted": "$setup\nx, y = x0, y0\n" + _KEYSTREAM + _MATCH_0,
    "snapshot": "s1x = x",
    "modulus": repr(SYMBOL_MODULUS),
    "diverge": "passed.append((a, b))\n$side_drop\ncontinue",
    "last_step": "$split_step",
    "side_snapshot": "side_s1x = x",
    "side_snapshot_2": "side_s2x = x",
    "side_check": ("if (floor(abs(side_s1x) * q) + floor(abs(side_s2x) * q)) % $modulus"
                   " == target:\n    $side_drop"),
    "side_drop": "side.append((a, b))",
    "side_hand_on": "side += keys",
}

# Entry point 3, the finisher: runs the (c, expected) pairs under each
# key (a, b) of keys, from the start state (x0, y0), and returns the keys
# that match every pair, in the order given, and the count of keys that
# diverged before their first mismatching symbol, the only count of them:
# it runs every key the scanner cannot decide, for the main query and the
# side one. A start state failing $entry diverges every key; $setup
# computes a key's guard.
_FINISH = """\
def finish(keys, n, x0, y0, q, feed, pairs):
    x, y = x0, y0
    if not ($entry):
        return [], len(keys)
    hits, diverged = [], 0
    for a, b in keys:
        $setup
        x, y = x0, y0
        try:
            for c, expected in pairs:
                $body
            else:
                hits.append((a, b))
        except ValueError:
            diverged += 1
    return hits, diverged
"""
_FINISH_FILL = {
    **_BLOCK_FILL,
    "diverge": "diverged += 1\nbreak",
    "check": "if out != expected:\n    break",
}


def _feed(gain: float) -> tuple[float, ...]:
    """The feedback table of a gain, which the compiled entries take in
    its place: entry z is gain * z / 256, the increment the symbol body
    adds to x for the mixed value z. Built once per gain."""
    return _feed_table(gain, math.copysign(1.0, gain))


# Cached because the calls are short: a report of both packaged tables
# asks for a table 600 times, once per scan call and encryption, and
# building each anew made it 1.18x slower (Python 3.11).
# Keyed by the sign too: 0.0 == -0.0, but their entries differ in the sign
# of zero, which shows when x is -0.0. Typed, as an int gain's products
# can stay finite where those of the float equal to it overflow.
@lru_cache(maxsize=16, typed=True)
def _feed_table(gain: float, sign: float) -> tuple[float, ...]:
    return tuple(gain * z / SYMBOL_MODULUS for z in range(SYMBOL_MODULUS))


def _cipher_blocks(key: Key, cfg: CipherConfig | None, chunks: Iterable[bytes],
                   decrypting: bool = False, trace: Callable | None = None,
                   ) -> Iterator[bytearray]:
    """The cipher itself: one output block per chunk of input bytes.

    Output bytes are ciphertext when encrypting and plaintext when
    decrypting; the state and the symbol index carry from one chunk to
    the next, and the direction and trace pick the compiled block once.
    A divergent orbit raises DivergenceError with the index of the symbol
    being processed, after the symbols before it. A trace callable is
    called per symbol as trace(z, out, s1x, s1y, x, y): (s1x, s1y) is the
    state after the first n1 steps and (x, y) the state after the symbol,
    feedback included.
    """
    if cfg is None:
        cfg = default_config(key.kind)
    fill, variant = _BLOCK_FILL, ""
    if decrypting:
        fill, variant = {**fill, "mix": _DECRYPT}, "decrypt"
    elif trace is not None:
        fill, variant = {**fill, **_TRACED_FILL}, "traced"
    block = _kernel(key.kind, _BLOCK, cfg.n1, cfg.n2, variant=variant, **fill)
    p = key.params
    q, feed = cfg.quant_scale, _feed(cfg.reinject_gain)
    x, y, k = cfg.initial_state.x, cfg.initial_state.y, 0
    for chunk in chunks:
        out, x, y = block(p.a, p.b, p.n_modulus, x, y, k, chunk, q, feed, trace)
        k += len(chunk)
        yield out


def _symbols(data: bytes | bytearray) -> bytes | bytearray:
    """data, which must be bytes or a bytearray, the cipher's one symbol
    form; any other type raises DomainError naming it."""
    if not isinstance(data, (bytes, bytearray)):
        raise DomainError(f"symbols must be bytes or a bytearray, not {type(data).__name__}")
    return data


def _scan_grid(kind: MapKind, n_modulus: float, cfg: CipherConfig,
               queries: list[tuple[bytes, bytes, int, int]], tile: tuple[list, list],
               ) -> tuple[int, list[tuple[list, int]]]:
    """The count of keys scanned in the tile (a_values, b_values), and for
    each of one or two queries (data, reference, n1, n2), in the caller's
    order: the keys (a, b), in row-major order, whose encryption of the
    non-empty data under cfg's start state, quantizer and gain with n1/n2
    iterations is reference, and the count of keys whose orbit left the
    box or overflowed before their first mismatching symbol (such keys do
    not match). data is bytes, so its symbols need no check.

    One scanner pass decides symbol 0 for two queries: the one with more
    steps in symbol 0 is the main one, the first on a tie, and its
    scanner takes the other as its side schedule. Each query's symbol-0
    target is computed here, once. The finish kernel of each query's
    (n1, n2) then runs all of that query's keys in one call, each from
    cfg's start state, and gives the only count of diverged keys.
    """
    main = max(range(len(queries)), key=lambda k: sum(queries[k][2:]))
    targets = [(reference[0] - data[0]) % SYMBOL_MODULUS for data, reference, _, _ in queries]
    n1, n2 = queries[main][2:]
    side = queries[1 - main] if len(queries) == 2 else None
    scan = _kernel(kind, _SCAN, n1, n2, tuple(side[2:]) if side else None, **_SCAN_FILL)
    start, q, feed = cfg.initial_state, cfg.quant_scale, _feed(cfg.reinject_gain)
    passed, matches = scan(*tile, n_modulus, start.x, start.y, q, targets[main],
                           targets[1 - main] if side else None)
    found = []
    for (data, reference, n1, n2), keys in zip(queries, (passed, matches) if main == 0
                                               else (matches, passed)):
        finish = _kernel(kind, _FINISH, n1, n2, **_FINISH_FILL)
        found.append(finish(keys, n_modulus, start.x, start.y, q, feed, list(zip(data, reference))))
    return len(tile[0]) * len(tile[1]), found


def encrypt(plaintext: bytes | bytearray, key: Key,
            cfg: CipherConfig | None = None) -> tuple[bytes, list[SymbolTrace]]:
    """Encrypt bytes or a bytearray; returns (ciphertext, per-symbol traces).

    The trace list exposes the intermediate mixed values and state
    snapshots for the analysis procedures.
    """
    traces = []

    def trace(z, y, s1x, s1y, s2x, s2y):
        traces.append(SymbolTrace(z, y, State(s1x, s1y), State(s2x, s2y)))

    ciphertext = b"".join(_cipher_blocks(key, cfg, [_symbols(plaintext)], trace=trace))
    return ciphertext, traces


def encrypt_bytes(plaintext: bytes | bytearray, key: Key,
                  cfg: CipherConfig | None = None) -> bytes:
    """Encrypt bytes or a bytearray without collecting traces (fast path
    for scans and files)."""
    return b"".join(_cipher_blocks(key, cfg, [_symbols(plaintext)]))


def decrypt(ciphertext: bytes | bytearray, key: Key,
            cfg: CipherConfig | None = None) -> bytes:
    """Exact inverse of encrypt under the same key and configuration, on
    bytes or a bytearray."""
    return b"".join(_cipher_blocks(key, cfg, [_symbols(ciphertext)], decrypting=True))


# bytes per read of the file commands
_CHUNK = 1 << 16
_WHITESPACE_TABLE = str.maketrans("", "", " \t\r\n")


@contextmanager
def _atomic_write(path: str | os.PathLike, mode: str, **kwargs) -> Iterator[IO]:
    """Open a fresh temp file beside path for writing (mode "x" or "xb") and
    move it onto path when the block completes. On any exception the temp
    file is removed, so a failed command leaves no partial output.

    A path that exists but is not a regular file (a pipe, a device) cannot
    be replaced, and is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode.replace("x", "w"), **kwargs) as f:
            yield f
        return
    target = os.path.realpath(path)  # through a symlink, replace the file it names
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        # opened inside the try, so that a signal just after the file is
        # created still removes it
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _hex_chunks(path: str | os.PathLike) -> Iterator[bytes]:
    """Stream the bytes spelled by a hex text file, one 64 KiB read at a time.

    Whitespace is ignored anywhere, an odd trailing digit of one read is
    carried into the next, and any other character or an odd digit count
    raises ValueError naming the file.
    """
    carry = ""
    # latin-1 decodes every byte, so a non-ASCII one is reported as bad hex
    with open(path, "r", encoding="latin-1") as fin:
        for text in iter(partial(fin.read, _CHUNK), ""):
            digits = carry + text.translate(_WHITESPACE_TABLE)
            take = len(digits) - len(digits) % 2
            carry = digits[take:]
            try:
                chunk = bytes.fromhex(digits[:take])
            except ValueError:
                raise ValueError(f"malformed hex in ciphertext file {path}") from None
            yield chunk
    if carry:
        raise ValueError(f"odd number of hex digits in ciphertext file {path}")


def encrypt_file(path_in: str | os.PathLike, path_out: str | os.PathLike,
                 key: Key, cfg: CipherConfig | None = None) -> None:
    """Encrypt a file to lowercase hex, two digits per symbol, streaming.

    path_out is only replaced once the whole file is encrypted.
    """
    with open(path_in, "rb") as fin, _atomic_write(path_out, "x", encoding="ascii") as fout:
        for block in _cipher_blocks(key, cfg, iter(partial(fin.read, _CHUNK), b"")):
            fout.write(block.hex())
        fout.write("\n")


def decrypt_file(path_in: str | os.PathLike, path_out: str | os.PathLike,
                 key: Key, cfg: CipherConfig | None = None) -> None:
    """Decrypt a hex ciphertext file back to raw bytes, streaming.

    Whitespace (including the optional trailing newline) is ignored; any
    other non-hex character, or an odd digit count, raises ValueError.
    path_out is only replaced once the whole file is decrypted.
    """
    with _atomic_write(path_out, "xb") as fout:
        for block in _cipher_blocks(key, cfg, _hex_chunks(path_in), decrypting=True):
            fout.write(block)


def _field(obj, name: str, where: str, default=None):
    """obj[name] of a parsed JSON object, or default when absent; a
    non-object, or a missing field without a default, raises ValueError
    naming it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if name in obj:
        return obj[name]
    if default is None:
        raise ValueError(f"{where} missing field {name!r}")
    return default


def _number(obj, name: str, where: str, default=None, count: bool = False):
    """_field as a finite float, or as an int when count is set. Bools,
    strings and non-integral counts raise ValueError naming the field."""
    value = _field(obj, name, where, default)
    if not (_finite(value) and (not count or value == int(value))):
        raise ValueError(f"{where} field {name!r} must be "
                         f"{'an integer' if count else 'a finite number'}, got {value!r}")
    return int(value) if count else float(value)


def _key_dict(key: Key) -> dict:
    return {"kind": key.kind.value, "a": key.params.a, "b": key.params.b,
            "n_modulus": key.params.n_modulus}


def _key_from_dict(obj, where: str = "key JSON") -> Key:
    kind = MapKind.parse(str(_field(obj, "kind", where)))
    return Key(kind, MapParams(_number(obj, "a", where), _number(obj, "b", where),
                               _number(obj, "n_modulus", where, 1.0)))


def key_to_json(key: Key) -> str:
    """Single-line JSON rendering with full-precision decimals."""
    return json.dumps(_key_dict(key))


def _parse_json(text: str, what: str):
    """text parsed as JSON; malformed or too deeply nested text raises
    ValueError naming what it was read as."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed {what} JSON: {exc}")


def key_from_json(text: str) -> Key:
    return _key_from_dict(_parse_json(text, "key"))


def save_key(key: Key, path: str | os.PathLike) -> None:
    """Write the key's JSON line to path, replacing it only on success."""
    with _atomic_write(path, "x", encoding="ascii") as f:
        f.write(key_to_json(key) + "\n")


def load_key(path: str | os.PathLike) -> Key:
    with open(path, "r", encoding="utf-8") as f:
        return key_from_json(f.read())


def config_from_dict(obj: dict, kind: MapKind) -> CipherConfig:
    """Build a config from a JSON-style dict; absent fields take defaults.

    A field of the wrong shape or type raises ValueError naming it.
    """
    base = default_config(kind)
    state = base.initial_state
    if isinstance(obj, dict) and "initial_state" in obj:
        st = obj["initial_state"]
        state = State(_number(st, "x", "config initial_state"),
                      _number(st, "y", "config initial_state"))
    return CipherConfig(
        initial_state=state,
        n1=_number(obj, "n1", "config", base.n1, count=True),
        n2=_number(obj, "n2", "config", base.n2, count=True),
        quant_scale=_number(obj, "quant_scale", "config", base.quant_scale),
        reinject_gain=_number(obj, "reinject_gain", "config", base.reinject_gain),
    )


def load_config(path: str | os.PathLike, kind: MapKind) -> CipherConfig:
    with open(path, "r", encoding="utf-8") as f:
        return config_from_dict(_parse_json(f.read(), "config"), kind)
