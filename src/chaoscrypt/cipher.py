"""Message-embedded stream cipher driven by a 2-D chaotic map.

Per plaintext byte the running chaotic state is advanced twice; each
advance is quantized to an integer and mixed into the byte by addition
mod 256. The first-stage mixed value is then folded back into the state,
so the dynamics depend on everything already encrypted. Decryption
regenerates the same state sequence from the key and inverts the mixing
exactly.

One generator, _cipher_symbols, is the whole cipher: it steps the map,
checks the divergence bound after every step, quantizes, mixes and feeds
back, one symbol at a time, in either direction. encrypt, encrypt_bytes
and decrypt consume it in memory; encrypt_file and decrypt_file feed it
64 KiB reads and write 64 KiB blocks through a temp file that replaces
the output only on success; and the grid scans in analysis pull from it
one key at a time, stopping at a key's first mismatching symbol.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from math import floor, fmod
from operator import itemgetter
from typing import IO, Iterable, Iterator

from .maps import (
    DIVERGENCE_BOUND,
    DivergenceError,
    DomainError,
    MapKind,
    MapParams,
    State,
    step_function,
)

__all__ = [
    "SYMBOL_MODULUS",
    "DEFAULT_INITIAL_STATE",
    "Key",
    "CipherConfig",
    "SymbolTrace",
    "default_config",
    "quantize",
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
    symbol_modulus: int = SYMBOL_MODULUS


@dataclass(frozen=True)
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


def quantize(s: State, cfg: CipherConfig) -> int:
    """floor(|x| * quant_scale) mod symbol_modulus, for the state's x."""
    if not math.isfinite(s.x):
        raise DomainError("cannot quantize a non-finite state")
    return int(floor(abs(s.x) * cfg.quant_scale)) % cfg.symbol_modulus


def _cipher_symbols(key: Key, cfg: CipherConfig | None, symbols: Iterable[int],
                    decrypting: bool = False,
                    ) -> Iterator[tuple[int, int, float, float, float, float]]:
    """The cipher itself: yields (out, z, s1x, s1y, s2x, s2y) per input symbol.

    out is the ciphertext symbol when encrypting and the plaintext byte
    when decrypting; z is the first-stage mixed value fed back into the
    state; (s1x, s1y) is the state after the first n1 steps and
    (s2x, s2y) the state after the symbol, feedback included. The bound
    is checked after every map step, and a divergent orbit raises
    DivergenceError with the index of the symbol being processed.
    """
    if cfg is None:
        cfg = default_config(key.kind)
    if cfg.n1 < 1 or cfg.n2 < 1:
        raise DomainError("iteration counts n1 and n2 must be >= 1")
    step = step_function(key.kind, key.params)
    x, y = cfg.initial_state.x, cfg.initial_state.y
    steps = range(cfg.n1 + cfg.n2)
    first_stage_end = cfg.n1 - 1  # the step whose state feeds q1
    q, g, m = cfg.quant_scale, cfg.reinject_gain, cfg.symbol_modulus
    bound = DIVERGENCE_BOUND
    what = "ciphertext symbol" if decrypting else "plaintext byte"
    for k, c in enumerate(symbols):
        if not 0 <= c < m:
            raise DomainError(f"{what} {c} out of range [0, {m})")
        for i in steps:
            x, y = step(x, y)
            if not (-bound <= x <= bound and -bound <= y <= bound):
                raise DivergenceError(
                    f"orbit diverged while processing symbol {k}", symbol=k)
            if i == first_stage_end:
                s1x, s1y = x, y
        q1 = int(floor(abs(s1x) * q)) % m
        q2 = int(floor(abs(x) * q)) % m
        if decrypting:
            z = (c - q2) % m
            out = (z - q1) % m
        else:
            z = (c + q1) % m
            out = (z + q2) % m
        x = fmod(x + g * z / m, 1.0)
        yield out, z, s1x, s1y, x, y


_first = itemgetter(0)


def encrypt(plaintext: bytes | Iterable[int], key: Key,
            cfg: CipherConfig | None = None) -> tuple[bytes, list[SymbolTrace]]:
    """Encrypt a byte sequence; returns (ciphertext, per-symbol traces).

    The trace list exposes the intermediate mixed values and state
    snapshots for the analysis procedures.
    """
    out = bytearray()
    traces = []
    for y_sym, z, s1x, s1y, s2x, s2y in _cipher_symbols(key, cfg, plaintext):
        out.append(y_sym)
        traces.append(SymbolTrace(z, y_sym, State(s1x, s1y), State(s2x, s2y)))
    return bytes(out), traces


def encrypt_bytes(plaintext: bytes | Iterable[int], key: Key,
                  cfg: CipherConfig | None = None) -> bytes:
    """Encrypt without collecting traces (fast path for scans and files)."""
    return bytes(map(_first, _cipher_symbols(key, cfg, plaintext)))


def decrypt(ciphertext: bytes | Iterable[int], key: Key,
            cfg: CipherConfig | None = None) -> bytes:
    """Exact inverse of encrypt under the same key and configuration."""
    return bytes(map(_first, _cipher_symbols(key, cfg, ciphertext, decrypting=True)))


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
    f = open(tmp, mode, **kwargs)
    try:
        with f:
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
        plaintext = chain.from_iterable(iter(partial(fin.read, _CHUNK), b""))
        symbols = map(_first, _cipher_symbols(key, cfg, plaintext))
        while block := bytes(islice(symbols, _CHUNK)):
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
        ciphertext = chain.from_iterable(_hex_chunks(path_in))
        plaintext = map(_first, _cipher_symbols(key, cfg, ciphertext, decrypting=True))
        while block := bytes(islice(plaintext, _CHUNK)):
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
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (not count or value == int(value))):
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


def key_from_json(text: str) -> Key:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed key JSON: {exc}")
    return _key_from_dict(obj)


def save_key(key: Key, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as f:
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
    cfg = CipherConfig(
        initial_state=state,
        n1=_number(obj, "n1", "config", base.n1, count=True),
        n2=_number(obj, "n2", "config", base.n2, count=True),
        quant_scale=_number(obj, "quant_scale", "config", base.quant_scale),
        reinject_gain=_number(obj, "reinject_gain", "config", base.reinject_gain),
    )
    if cfg.n1 < 1 or cfg.n2 < 1:
        raise DomainError("config iteration counts n1 and n2 must be >= 1")
    if not cfg.quant_scale > 0.0:
        raise DomainError("config quant_scale must be finite and > 0")
    return cfg


def load_config(path: str | os.PathLike, kind: MapKind) -> CipherConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config JSON: {exc}")
    return config_from_dict(obj, kind)
