"""Tests for the message-embedded cipher."""

import ast
import difflib
import dis
import gc
import json
import linecache
import pickle
import random
import re
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chaoscrypt import cipher, maps
from chaoscrypt.analysis import (
    FULL_KEY_DOMAIN,
    KeyDomain,
    identifiability_scan,
    known_plaintext_attack,
)
from chaoscrypt.cipher import (
    CipherConfig,
    Key,
    SymbolTrace,
    decrypt,
    decrypt_file,
    default_config,
    encrypt,
    encrypt_bytes,
    encrypt_file,
    key_from_json,
    key_to_json,
    load_config,
    load_key,
    save_key,
)
from chaoscrypt.maps import DivergenceError, DomainError, MapKind, MapParams, State, iterate
from oracles import (
    arnold_edge_params,
    arnold_oracle_step,
    duffing_oracle_step,
    oracle_encrypt,
    oracle_run,
    oracle_scan_outcome,
    oracle_symbols,
)

DUFFING_KEY = Key(MapKind.DUFFING, MapParams(2.75, 0.1))
ARNOLD_KEY = Key(MapKind.ARNOLD, MapParams(-4.0, 0.5, 1.0))


def sample_grid_key(rng, kind):
    domain = FULL_KEY_DOMAIN[kind]
    na, nb = domain.axis_counts()
    return Key(kind, domain.params_at(rng.randrange(na), rng.randrange(nb)))


def test_largest_accepted_scale_quantizes_a_coordinate_at_the_bound():
    # x' = y and y' = x + 1e12 y - y^3 take (0, +-1e6) to (+-1e6, 0) and
    # back with no rounding, so at gain 0 and n1 = n2 = 1 each symbol's
    # first snapshot has |x| = 1e6, which the largest accepted scale takes
    # to 1.7e308 < inf
    key = Key(MapKind.DUFFING, MapParams(1e12, -1.0))
    data = b"at the bound"
    for y in (1e6, -1e6):
        cfg = CipherConfig(State(0.0, y), 1, 1, 1.7e302, 0.0)
        out, traces, diverged = oracle_run(data, duffing_oracle_step(1e12, -1.0), 0.0, y,
                                           1, 1, 1.7e302, 0.0)
        assert diverged is None and {s1 for _, _, s1, _ in traces} == {(y, 0.0)}
        assert encrypt_bytes(data, key, cfg) == out
        assert decrypt(out, key, cfg) == data
    with pytest.raises(DomainError, match="quant_scale"):
        replace(cfg, quant_scale=1.8e302)


def test_single_byte_matches_straight_line_oracle():
    expected = oracle_encrypt(b"A", duffing_oracle_step(2.75, 0.1), -0.04, 0.2)
    ciphertext, traces = encrypt(b"A", DUFFING_KEY)
    assert ciphertext == expected
    assert ciphertext == bytes([67])  # frozen from the oracle
    assert len(traces) == 1
    assert decrypt(ciphertext, DUFFING_KEY) == b"A"


def test_longer_message_matches_oracle_both_kinds():
    msg = b"Meet me after 5p.m."
    expected = oracle_encrypt(msg, arnold_oracle_step(-4.0, 0.5, 1.0), 0.5, 0.06)
    assert encrypt_bytes(msg, ARNOLD_KEY) == expected
    expected = oracle_encrypt(msg, duffing_oracle_step(2.75, 0.1), -0.04, 0.2)
    assert encrypt_bytes(msg, DUFFING_KEY) == expected


def test_empty_plaintext():
    ciphertext, traces = encrypt(b"", DUFFING_KEY)
    assert ciphertext == b""
    assert traces == []
    assert decrypt(b"", DUFFING_KEY) == b""


def test_roundtrip_random_keys_and_messages():
    rng = random.Random(42)
    full_length = 0
    for kind in (MapKind.ARNOLD, MapKind.DUFFING):
        for _ in range(150):
            key = sample_grid_key(rng, kind)
            cfg = default_config(kind)
            plaintext = bytes(rng.randrange(256) for _ in range(rng.randrange(65)))
            try:
                ciphertext = encrypt_bytes(plaintext, key, cfg)
            except DivergenceError as err:
                # the orbit left the bound; the encryptable prefix must
                # still round-trip exactly
                k = err.symbol
                assert k is not None and 0 <= k < len(plaintext)
                prefix_ct = encrypt_bytes(plaintext[:k], key, cfg)
                assert decrypt(prefix_ct, key, cfg) == plaintext[:k]
                continue
            assert len(ciphertext) == len(plaintext)
            assert decrypt(ciphertext, key, cfg) == plaintext
            full_length += 1
    assert full_length >= 150


def test_encrypt_is_deterministic():
    msg = b"determinism check"
    first = encrypt_bytes(msg, ARNOLD_KEY)
    second = encrypt_bytes(msg, ARNOLD_KEY)
    assert first == second
    assert encrypt(msg, ARNOLD_KEY) == encrypt(msg, ARNOLD_KEY)


def test_symbol_range_and_traces():
    msg = bytes(range(64))
    ciphertext, traces = encrypt(msg, DUFFING_KEY)
    assert len(traces) == len(msg)
    for sym, trace in zip(ciphertext, traces):
        assert isinstance(trace, SymbolTrace)
        assert 0 <= trace.z < 256
        assert 0 <= trace.y < 256
        assert trace.y == sym


def test_feedback_is_causal():
    rng = random.Random(5)
    msg = bytes(rng.randrange(256) for _ in range(32))
    base = encrypt_bytes(msg, ARNOLD_KEY)
    for _ in range(25):
        i = rng.randrange(32)
        mutated = bytearray(msg)
        mutated[i] ^= 1 << rng.randrange(8)
        changed = encrypt_bytes(bytes(mutated), ARNOLD_KEY)
        assert changed[:i] == base[:i]


def test_decrypt_with_perturbed_key_gives_wrong_plaintext():
    msg = b"abcdefghij0123456789"
    ciphertext = encrypt_bytes(msg, ARNOLD_KEY)
    off_key = Key(MapKind.ARNOLD, MapParams(-4.0 + 1e-4, 0.5, 1.0))
    assert decrypt(ciphertext, off_key) != msg


def test_divergence_reports_symbol_and_mirrors_in_decrypt():
    # this Duffing key escapes the bound partway through the message
    key = Key(MapKind.DUFFING, MapParams(2.6402, -0.3885))
    msg = b"What is your name?"
    with pytest.raises(DivergenceError) as err:
        encrypt_bytes(msg, key)
    k = err.value.symbol
    assert k is not None and 0 < k <= len(msg)
    prefix_ct = encrypt_bytes(msg[:k], key)
    assert decrypt(prefix_ct, key) == msg[:k]
    with pytest.raises(DivergenceError) as err2:
        decrypt(prefix_ct + b"\x00", key)
    assert err2.value.symbol == k


@pytest.mark.parametrize("iters", [1, 2, 3])
def test_kernel_matches_flat_oracle_on_random_grid_keys(iters):
    rng = random.Random(1000 + iters)
    diverged = 0
    for kind in (MapKind.ARNOLD, MapKind.DUFFING):
        cfg = replace(default_config(kind), n1=iters, n2=iters)
        for _ in range(60):
            key = sample_grid_key(rng, kind)
            ab = (key.params.a, key.params.b, key.params.n_modulus)
            data = rng.randbytes(rng.randrange(1, 40))
            try:
                expected = bytes(oracle_symbols(data, kind, *ab, iters))
            except OverflowError:
                pass
            else:
                assert encrypt_bytes(data, key, cfg) == expected
                assert decrypt(expected, key, cfg) == data
                continue
            diverged += 1
            k = 0
            while True:
                try:
                    oracle_symbols(data[:k + 1], kind, *ab, iters)
                except OverflowError:
                    break
                k += 1
            with pytest.raises(DivergenceError) as err:
                encrypt_bytes(data, key, cfg)
            assert err.value.symbol == k
            # decryption walks the same states, whatever symbols follow k
            prefix_ct = encrypt_bytes(data[:k], key, cfg)
            assert decrypt(prefix_ct, key, cfg) == data[:k]
            with pytest.raises(DivergenceError) as err:
                decrypt(prefix_ct + bytes(len(data) - k), key, cfg)
            assert err.value.symbol == k
    assert diverged > 0


def test_plaintext_byte_out_of_range():
    # symbols are bytes: anything else in a list is one DomainError naming it
    # (the Duffing orbit diverges at symbol 615 of the 7s; the cat-map one never)
    for call, symbols, key, named in [
            (encrypt_bytes, [65, 300], DUFFING_KEY, "300 at index 1"),
            (decrypt, [65, -1], DUFFING_KEY, "-1 at index 1"),
            (encrypt_bytes, [1.5], DUFFING_KEY, "1.5 at index 0"),
            (encrypt_bytes, ["a"], DUFFING_KEY, "'a' at index 0"),
            (encrypt, [7] * 70000 + [256], ARNOLD_KEY, "256 at index 70000")]:
        with pytest.raises(DomainError, match=f"symbol {named} is not a byte"):
            call(symbols, key)


def test_config_iteration_counts_validated():
    with pytest.raises(DomainError):
        cfg = replace(default_config(MapKind.DUFFING), n1=0)
        encrypt_bytes(b"x", DUFFING_KEY, cfg)


@pytest.mark.parametrize("field, value", [
    ("n1", 2.0), ("n2", True), ("n1", 0), ("n2", 1001),
    ("quant_scale", 0.0), ("quant_scale", -1.0), ("quant_scale", float("inf")),
    ("quant_scale", float("nan")), ("quant_scale", 1e308), ("quant_scale", 1.8e302),
    ("reinject_gain", float("inf")), ("reinject_gain", float("nan")),
])
def test_config_is_validated_once_built(field, value):
    with pytest.raises(DomainError, match=f"'{field}'"):
        replace(default_config(MapKind.ARNOLD), **{field: value})


def test_iteration_counts_are_capped_before_compiling():
    key = ARNOLD_KEY
    cap = cipher._MAX_ITERATIONS
    cfg = replace(default_config(MapKind.ARNOLD), n1=cap, n2=cap)
    data = b"cap!"
    expected = oracle_encrypt(data, arnold_oracle_step(-4.0, 0.5, 1.0), 0.5, 0.06, n1=cap, n2=cap)
    assert encrypt_bytes(data, key, cfg) == expected
    assert decrypt(expected, key, cfg) == data
    # a config built in Python skips config_from_dict's cap, and is refused
    # before a kernel is compiled for it
    compiled = maps._kernel.cache_info()
    for n1, n2 in ((cap + 1, 3), (3, cap + 1)):
        with pytest.raises(DomainError, match=f"at most {cap}"):
            encrypt_bytes(b"", key, CipherConfig(State(0.5, 0.06), n1=n1, n2=n2))
    assert maps._kernel.cache_info() == compiled


def test_cipher_values_survive_pickling():
    # the scan pool pickles the config (and its start State) to its workers
    values = [State(0.5, 0.06), SymbolTrace(7, 200, State(0.1, -0.2), State(0.3, 0.4)),
              default_config(MapKind.DUFFING), ARNOLD_KEY]
    for value in values:
        assert pickle.loads(pickle.dumps(value)) == value


def test_traced_encrypt_memory_per_symbol():
    data = random.Random(4).randbytes(32 << 10)
    encrypt(data[:1], ARNOLD_KEY)  # compile the kernel outside the measurement
    tracemalloc.start()
    try:
        _, traces = encrypt(data, ARNOLD_KEY)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traces) == len(data)
    assert held / len(data) < 300


@pytest.mark.parametrize("entry", ["orbit", "block"])
def test_divergence_traceback_shows_kernel_source(entry):
    # a Duffing start y outside the bound fails the entry test at once
    start = State(0.0, 2e6)
    cfg = replace(default_config(MapKind.DUFFING), initial_state=start, n1=2, n2=4)
    run = {"orbit": lambda: iterate(MapKind.DUFFING, start, DUFFING_KEY.params, 3),
           "block": lambda: encrypt_bytes(b"abc", DUFFING_KEY, cfg)}[entry]
    with pytest.raises(DivergenceError) as info:
        run()
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    filename = tb.tb_frame.f_code.co_filename
    n1n2 = "0/0" if entry == "orbit" else "2/4"
    assert filename == f"<chaoscrypt duffing {entry} {n1n2}>"
    assert linecache.getline(filename, tb.tb_lineno).lstrip().startswith("raise DivergenceError(")


def test_each_block_variant_keeps_its_own_source():
    # the encrypt, traced and decrypt blocks of one kind and (n1, n2) each
    # have a file name of their own, so compiling one leaves the source
    # that a traceback through another shows
    cfg = replace(default_config(MapKind.DUFFING), initial_state=State(0.0, 2e6), n1=3, n2=5)
    lines = {"": "z = (c + q1) % 256", "traced": "trace(z, out, s1x, s1y, x, y)",
             "decrypt": "z = (c - q2) % 256"}
    filenames = {}
    for variant, run in (("", encrypt_bytes), ("traced", encrypt), ("decrypt", decrypt)):
        with pytest.raises(DivergenceError) as info:
            run(b"abc", DUFFING_KEY, cfg)
        tb = info.tb
        while tb.tb_next is not None:
            tb = tb.tb_next
        filenames[variant] = tb.tb_frame.f_code.co_filename
    for variant, line in lines.items():
        assert filenames[variant] == f"<chaoscrypt duffing block 3/5{variant and ' ' + variant}>"
        assert line in [text.strip() for text in linecache.getlines(filenames[variant])]


def test_nan_feedback_is_a_divergence():
    # a NaN gain's feedback table feeds a NaN back into x, and the next
    # symbol's orbit counts as divergent, also for keys whose steps skip
    # the bound test. A config refuses a NaN gain, so the block entry is
    # called directly.
    for key in (ARNOLD_KEY, DUFFING_KEY):
        cfg = default_config(key.kind)
        with pytest.raises(DomainError, match="reinject_gain"):
            replace(cfg, reinject_gain=float("nan"))
        block = maps._kernel(key.kind, cipher._BLOCK, cfg.n1, cfg.n2, **cipher._BLOCK_FILL)
        p, s = key.params, cfg.initial_state
        with pytest.raises(DivergenceError) as err:
            block(p.a, p.b, p.n_modulus, s.x, s.y, 0, b"\x00\x00", cfg.quant_scale,
                  (float("nan"),) * 256, None)
        assert err.value.symbol == 1


# A seeded message longer than one 64 KiB chunk: bytes run through one
# block call, and any other iterable in 64 KiB lists.
LONG_MSG = random.Random(0).randbytes(2 * 65536 + 4000)
LONG_KEYS = [ARNOLD_KEY, Key(MapKind.DUFFING, MapParams(1.8995, 0.0068))]


@pytest.mark.parametrize("key", LONG_KEYS, ids=lambda key: key.kind.value)
def test_every_block_matches_the_oracles_past_one_chunk(tmp_path, key):
    # the untraced, traced and decrypting blocks, from memory and from files
    data = LONG_MSG[:70000]
    out, traces, diverged = run_oracle(key, default_config(key.kind), data)
    plain, _, diverged_back = run_oracle(key, default_config(key.kind), data, decrypting=True)
    assert diverged is None and diverged_back is None
    for given in (data, list(data)):
        assert encrypt_bytes(given, key) == out
        ciphertext, got = encrypt(given, key)
        assert ciphertext == out
        assert bytes(trace.y for trace in got) == out
        assert [(t.z, t.y, (t.s1.x, t.s1.y), (t.s2.x, t.s2.y)) for t in got] == traces
        assert decrypt(given, key) == plain
    assert decrypt(list(out), key) == data
    src, hexfile, back = tmp_path / "plain.bin", tmp_path / "ct.hex", tmp_path / "back.bin"
    src.write_bytes(data)
    encrypt_file(src, hexfile, key)
    assert hexfile.read_text() == out.hex() + "\n"
    decrypt_file(hexfile, back, key)
    assert back.read_bytes() == data


def test_divergence_inside_the_second_chunk_names_its_symbol(tmp_path):
    key = Key(MapKind.DUFFING, MapParams(2.6326, 0.1831))
    data = LONG_MSG[:100000]
    symbol = 91118  # the orbit leaves the box in the second 64 KiB chunk
    assert run_oracle(key, default_config(key.kind), data)[2] == symbol
    src, hexfile, back = tmp_path / "plain.bin", tmp_path / "ct.hex", tmp_path / "back.bin"
    src.write_bytes(data)
    ciphertext = encrypt_bytes(data[:symbol], key) + bytes(10)
    hexfile.write_text(ciphertext.hex())
    for call in (lambda: encrypt_bytes(data, key), lambda: encrypt_bytes(list(data), key),
                 lambda: encrypt(list(data), key), lambda: decrypt(list(ciphertext), key),
                 lambda: encrypt_file(src, tmp_path / "out.hex", key),
                 lambda: decrypt_file(hexfile, back, key)):
        with pytest.raises(DivergenceError) as err:
            call()
        assert err.value.symbol == symbol
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ct.hex", "plain.bin"]


def test_divergence_before_a_bad_symbol_wins():
    # a list runs its symbols before the first bad one, so the divergence
    # at symbol 91118 (see above) wins over a bad symbol later in its
    # chunk or in the next
    key = Key(MapKind.DUFFING, MapParams(2.6326, 0.1831))
    symbol = 91118
    ciphertext = encrypt_bytes(LONG_MSG[:symbol], key)
    for bad in (95000, 135000):
        for call, data in ((encrypt_bytes, LONG_MSG), (decrypt, ciphertext + bytes(bad))):
            with pytest.raises(DivergenceError) as err:
                call(list(data[:bad]) + [300], key)
            assert err.value.symbol == symbol


def test_start_outside_the_box_diverges_at_symbol_0_only_if_there_is_one():
    # each entry tests its start state once, before its first symbol
    cfg = replace(default_config(MapKind.DUFFING), initial_state=State(0.1, 2e6))
    for call in (encrypt_bytes, decrypt, lambda data, key, cfg: encrypt(data, key, cfg)[0]):
        for data in (b"ab", [97, 98]):
            with pytest.raises(DivergenceError) as err:
                call(data, DUFFING_KEY, cfg)
            assert err.value.symbol == 0
        assert call(b"", DUFFING_KEY, cfg) == b""
        assert call([], DUFFING_KEY, cfg) == b""
    assert encrypt(b"", DUFFING_KEY, cfg) == (b"", [])
    # every key of a scan starts there, so every key diverges
    tile = ([2.75, 2.76, 2.77], [0.1, 0.11])
    query = (b"ab", b"xy", cfg.n1, cfg.n2)
    assert cipher._scan_grid(MapKind.DUFFING, 1.0, cfg, [query], tile) == (6, [([], 6)])
    # also where x0 cancels y0^3, so that the steps after stay inside the box
    cfg = CipherConfig(State(2.0 ** 74 - 2.0 ** 35, 2.0 ** 20), 1, 2)
    tile = ([2.0], [-2.0 ** -14])
    query = (b"ab", b"xy", cfg.n1, cfg.n2)
    assert cipher._scan_grid(MapKind.DUFFING, 1.0, cfg, [query], tile) == (1, [([], 1)])


def test_file_roundtrip(tmp_path):
    # three 64 KiB reads, the last one short
    data = random.Random(9).randbytes(2 * 65536 + 7)
    src = tmp_path / "plain.bin"
    src.write_bytes(data)
    hexfile = tmp_path / "ct.hex"
    out = tmp_path / "back.bin"
    encrypt_file(src, hexfile, ARNOLD_KEY)
    text = hexfile.read_text()
    assert text == encrypt_bytes(data, ARNOLD_KEY).hex() + "\n"
    decrypt_file(hexfile, out, ARNOLD_KEY)
    assert out.read_bytes() == data
    # a newline at odd offset 65535 leaves an odd digit count in the first
    # 64 KiB read, so one digit must carry into the next read
    hexfile.write_text(text[:65535] + "\n" + text[65535:])
    decrypt_file(hexfile, out, ARNOLD_KEY)
    assert out.read_bytes() == data


def test_empty_file_roundtrip(tmp_path):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    hexfile = tmp_path / "ct.hex"
    out = tmp_path / "back.bin"
    encrypt_file(src, hexfile, DUFFING_KEY)
    decrypt_file(hexfile, out, DUFFING_KEY)
    assert out.read_bytes() == b""


def test_decrypt_file_tolerates_whitespace(tmp_path):
    data = b"\x00\x01\xfe\xff"
    ct = encrypt_bytes(data, DUFFING_KEY).hex()
    hexfile = tmp_path / "ct.hex"
    hexfile.write_text(ct[:4] + "\n" + ct[4:] + "\n")
    out = tmp_path / "back.bin"
    decrypt_file(hexfile, out, DUFFING_KEY)
    assert out.read_bytes() == data


def test_decrypt_file_rejects_malformed_hex(tmp_path):
    out = tmp_path / "back.bin"
    bad = tmp_path / "bad.hex"
    bad.write_text("zz41")
    with pytest.raises(ValueError):
        decrypt_file(bad, out, DUFFING_KEY)
    odd = tmp_path / "odd.hex"
    odd.write_text("abc")
    with pytest.raises(ValueError):
        decrypt_file(odd, out, DUFFING_KEY)


def test_key_json_roundtrip(tmp_path):
    key = Key(MapKind.DUFFING, MapParams(1.8995, 0.0068, 1.0))
    line = key_to_json(key)
    assert "\n" not in line
    assert json.loads(line)["kind"] == "duffing"
    assert key_from_json(line) == key
    path = tmp_path / "key.json"
    save_key(key, path)
    assert load_key(path) == key


def test_key_json_rejects_garbage():
    with pytest.raises(ValueError):
        key_from_json("not json at all {")
    with pytest.raises(ValueError):
        key_from_json('{"kind": "lorenz", "a": 1, "b": 2}')
    with pytest.raises(ValueError):
        key_from_json('{"kind": "arnold", "a": 1}')


def test_config_file_defaults_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"n1": 2, "quant_scale": 1000.0}')
    cfg = load_config(path, MapKind.DUFFING)
    assert cfg.n1 == 2
    assert cfg.n2 == 3
    assert cfg.quant_scale == 1000.0
    assert cfg.reinject_gain == 1.0
    assert cfg.initial_state == State(-0.04, 0.2)

    path.write_text('{"initial_state": {"x": 0.1, "y": 0.2}}')
    assert load_config(path, MapKind.ARNOLD).initial_state == State(0.1, 0.2)

    path.write_text('{"n1": 0}')
    with pytest.raises(DomainError):
        load_config(path, MapKind.ARNOLD)
    path.write_text('{"quant_scale": -5}')
    with pytest.raises(DomainError):
        load_config(path, MapKind.ARNOLD)
    path.write_text("[1, 2]")
    with pytest.raises(ValueError):
        load_config(path, MapKind.ARNOLD)
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed config JSON"):
        load_config(path, MapKind.ARNOLD)


def test_default_initial_states_per_kind():
    assert default_config(MapKind.ARNOLD).initial_state == State(0.5, 0.06)
    assert default_config(MapKind.DUFFING).initial_state == State(-0.04, 0.2)
    for kind in MapKind:
        cfg = default_config(kind)
        assert (cfg.n1, cfg.n2, cfg.quant_scale, cfg.reinject_gain) == (3, 3, 1e6, 1.0)


def test_package_exports_every_module_name():
    import chaoscrypt
    from chaoscrypt import analysis, cipher, maps

    missing = [name for module in (maps, cipher, analysis) for name in module.__all__
               if not hasattr(chaoscrypt, name)]
    assert missing == []


# Duffing keys whose orbit under CHUNKED_MSG leaves the bound at symbol 15
# (second symbol of the third 7-symbol chunk) and at symbol 21 (first
# symbol of the fourth)
CHUNKED_MSG = b"Meet me after 5p.m. at the old mill."
LATE_DIVERGENCE = [(MapParams(2.503, -0.299), 15), (MapParams(2.503, -0.263), 21)]


@pytest.mark.parametrize("params, symbol", LATE_DIVERGENCE)
def test_symbol_index_carries_across_file_chunks(tmp_path, monkeypatch, params, symbol):
    monkeypatch.setattr(cipher, "_CHUNK", 7)
    src, hexfile, out = tmp_path / "plain.bin", tmp_path / "ct.hex", tmp_path / "back.bin"
    for key, data in ((ARNOLD_KEY, CHUNKED_MSG), (DUFFING_KEY, bytes(range(50)))):
        src.write_bytes(data)
        encrypt_file(src, hexfile, key)
        ciphertext = encrypt_bytes(data, key)
        assert hexfile.read_text() == ciphertext.hex() + "\n"
        decrypt_file(hexfile, out, key)
        assert out.read_bytes() == decrypt(ciphertext, key) == data
    key = Key(MapKind.DUFFING, params)
    with pytest.raises(DivergenceError) as err:
        encrypt_bytes(CHUNKED_MSG, key)
    assert err.value.symbol == symbol
    src.write_bytes(CHUNKED_MSG)
    for path in (hexfile, out):
        path.unlink()
    with pytest.raises(DivergenceError) as err:
        encrypt_file(src, hexfile, key)
    assert err.value.symbol == symbol
    # decryption walks the same states up to the diverging symbol
    hexfile.write_text((encrypt_bytes(CHUNKED_MSG[:symbol], key) + bytes(9)).hex())
    with pytest.raises(DivergenceError) as err:
        decrypt_file(hexfile, out, key)
    assert err.value.symbol == symbol
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ct.hex", "plain.bin"]


# Arnold: the per-step bound test is skipped when |a - 1| * N <= 1e6 and
# N <= 1e6, so keys are drawn on both sides of that edge.
arnold_cases = st.tuples(
    st.just(MapKind.ARNOLD),
    st.one_of(
        st.tuples(st.floats(-6.0, 2.0), st.floats(-3.0, 3.0), st.sampled_from([0.5, 1.0, 1.3])),
        st.builds(lambda n, side, f, b: (1.0 + side * (1e6 / n) * f, b, n),
                  st.sampled_from([1.0, 3.0, 1e3, 1e6, 2e6]), st.sampled_from([1.0, -1.0]),
                  st.sampled_from([1 - 2.0 ** -40, 1.0, 1 + 2.0 ** -40, 0.5, 2.0]),
                  st.floats(-3.0, 3.0)),
        st.tuples(st.floats(-1e7, 1e7), st.floats(-3.0, 3.0), st.sampled_from([1.0, 2e6]))),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    | st.tuples(st.sampled_from([1.5e6, 5e6, -3e6, 1e12]), st.floats(-2e6, 2e6)))
# Duffing: about a third of the box diverges; a start y outside +-1e6
# must diverge at symbol 0, as the first step copies it into x.
duffing_cases = st.tuples(
    st.just(MapKind.DUFFING),
    st.tuples(st.floats(1.5, 3.1), st.floats(-0.8, 0.4), st.just(1.0)),
    st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    | st.tuples(st.floats(-2.0, 2.0),
                st.sampled_from([1e6, -1e6, 1e6 + 2 ** -29, -2e6, 1e9]))
    | st.tuples(st.sampled_from([1e7, -1e9]), st.floats(-1.0, 1.0)))


@st.composite
def kernel_cases(draw):
    kind, (a, b, n), start = draw(arnold_cases | duffing_cases)
    n1 = draw(st.integers(1, 4))
    n2 = draw(st.integers(1, 4).filter(lambda v: v != n1))
    cfg = CipherConfig(State(*start), n1, n2, draw(st.sampled_from([1e6, 7.0, 12345.678])),
                       draw(st.sampled_from([1.0, 0.0, 0.75, -2.5, -0.0, 1e308, 5e-324])))
    return Key(kind, MapParams(a, b, n)), cfg, draw(st.binary(max_size=24))


def oracle_step(key):
    a, b, n = key.params.a, key.params.b, key.params.n_modulus
    if key.kind is MapKind.ARNOLD:
        return arnold_oracle_step(a, b, n)
    return duffing_oracle_step(a, b)


def run_oracle(key, cfg, data, decrypting=False):
    s = cfg.initial_state
    return oracle_run(data, oracle_step(key), s.x, s.y, cfg.n1, cfg.n2, cfg.quant_scale,
                      cfg.reinject_gain, decrypting=decrypting)


def expect_outcome(call, out, diverged):
    """call() returns out, or raises the DivergenceError of symbol diverged."""
    if diverged is None:
        assert call() == out
        return
    with pytest.raises(DivergenceError) as err:
        call()
    assert err.value.symbol == diverged
    assert str(err.value) == f"orbit diverged while processing symbol {diverged}"


def trace_bits(z, y, s1, s2):
    """A symbol's trace with each state coordinate as float.hex, so that
    0.0 and -0.0, which State equality takes as equal, differ."""
    return z, y, *map(float.hex, s1), *map(float.hex, s2)


def assert_block_matches_oracle(key, cfg, data):
    """encrypt_bytes, traced encrypt and decrypt of data give the checked
    oracle's output and traces, the states bit for bit, or raise at its
    symbol; returns the encryption's (output, diverged symbol or None)."""
    out, traces, diverged = run_oracle(key, cfg, data)
    expect_outcome(lambda: encrypt_bytes(data, key, cfg), out, diverged)

    def traced():
        ciphertext, found = encrypt(data, key, cfg)
        return ciphertext, [trace_bits(t.z, t.y, (t.s1.x, t.s1.y), (t.s2.x, t.s2.y))
                            for t in found]

    expect_outcome(traced, (out, [trace_bits(*t) for t in traces]), diverged)
    plain, _, diverged_back = run_oracle(key, cfg, data, decrypting=True)
    expect_outcome(lambda: decrypt(data, key, cfg), plain, diverged_back)
    return out, diverged


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kernel_cases())
# N > 1e6: y' can leave the box however small |a - 1| * N is
@example((Key(MapKind.ARNOLD, MapParams(1.25, 0.5, 2e6)), CipherConfig(State(1.5e6, 0.0), 2, 3),
          b"xy"))
# y0 = 2^20 is outside the box, but x0 cancels y0^3 exactly, so the first
# three steps stay inside: only the entry test sees the orbit leave at
# symbol 0
@example((Key(MapKind.DUFFING, MapParams(2.0, -2.0 ** -14)),
          CipherConfig(State(2.0 ** 74 - 2.0 ** 35, 2.0 ** 20), 1, 2), b"xy"))
# gains 0.0 and -0.0 compare equal, but their feedback differs in the sign
# of zero: from (0.0, 0.0) symbol 0 ends at x = -0.0, and the feedback
# leaves x at 0.0 under gain 0.0 and at -0.0 under gain -0.0. Run one
# right after the other, a feedback table cached for the first gain would
# show in the traces of the second
@example((Key(MapKind.DUFFING, MapParams(-2.0, 0.5)), CipherConfig(State(0.0, 0.0), 1, 1,
                                                                  reinject_gain=0.0), b"\0\0\0"))
@example((Key(MapKind.DUFFING, MapParams(-2.0, 0.5)), CipherConfig(State(0.0, 0.0), 1, 1,
                                                                  reinject_gain=-0.0), b"\0\0\0"))
def test_kernel_matches_checked_oracle(case):
    key, cfg, data = case
    out, diverged = assert_block_matches_oracle(key, cfg, data)
    if diverged is None and out:
        assert decrypt(out, key, cfg) == data

    # scans over the (about) 3 x 3 grid around the key: keys whose orbit
    # leaves the bound before the compared prefix ends are misses
    prefix = data[:8]
    if not prefix:
        return
    inc = 1e-3
    dom = KeyDomain(key.kind, (key.params.a - inc, key.params.b - inc),
                    (key.params.a + inc, key.params.b + inc), inc, key.params.n_modulus)
    na, nb = dom.axis_counts()
    grid = [Key(key.kind, dom.params_at(i, j)) for i in range(na) for j in range(nb)]
    centre = Key(key.kind, dom.snap(key.params))
    for scan_cfg in (cfg, replace(cfg, n2=cfg.n1)):
        reference, _, centre_diverged = run_oracle(centre, scan_cfg, prefix)
        if centre_diverged is not None:
            continue
        expected = [k for k in grid
                    if run_oracle(k, scan_cfg, prefix)[::2] == (reference, None)]
        if scan_cfg is cfg:
            found = known_plaintext_attack(reference, prefix, dom, cfg).candidates
        else:  # identify sets n1 = n2 = its iteration value
            found = identifiability_scan(data, centre, dom, cfg,
                                         iteration_value=cfg.n1).matching_keys
        assert found == expected


# Boxes for the grid scanner: one row, one column, and random tiles
# (a range of rows by a range of columns) inside them.
# Arnold rows with |a - 1| N > 1e6, or N > 1e6, test every step
# ("unboxed"). Duffing boxes in its full key box straddle the region that
# diverges in symbol 0. The overflow variants: a start x of 1e308
# overflows 2x + y in every key's first step, b from 1e308 in steps of
# 1e307 overflows x + (1 - b) y in some columns only, a Duffing start y
# outside the box diverges every key at once, and a gain of 1e308
# overflows the feedback. A quantizer scale of 1e16 sees the last bit of
# x, so a lifted subtree whose value changes by one bit shows.
@st.composite
def scan_cases(draw):
    kind = draw(st.sampled_from(list(MapKind)))
    variant = draw(st.sampled_from(["plain", "plain", "plain", "start", "b", "gain"]))
    inc = draw(st.sampled_from([1e-3, 0.02, 0.1]))
    if kind is MapKind.ARNOLD:
        a0, b0 = draw(st.floats(-6.0, 2.0)), draw(st.floats(-2.0, 2.0))
        n = draw(st.sampled_from([1.0, 3.0, 3e5, 2e6]))
        start = draw(st.sampled_from([(0.5, 0.06), (-0.3, 0.7)])
                     | st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
        if variant == "start":
            start = (1e308, 0.0)
        elif variant == "b":
            start, b0, inc = (0.5, 1.5), 1e308, 1e307
    else:
        # a >= 3.5 diverges in symbol 0 from the default start
        a0, b0, n = draw(st.floats(1.8, 3.7)), draw(st.floats(-0.59, 0.2)), 1.0
        away_from_0 = st.floats(-0.5, -0.05) | st.floats(0.05, 0.5)
        start = draw(st.sampled_from([(-0.04, 0.2), (0.1, -0.3)])
                     | st.tuples(away_from_0, away_from_0))
        if variant == "start":
            start = (start[0], draw(st.sampled_from([2e6, -1e9])))
    na, nb = draw(st.sampled_from([(1, 9), (9, 1), (1, 1), (3, 40), (5, 7), (12, 12)]))
    def tile_range(size):
        first = draw(st.integers(0, size - 1))
        return range(first, draw(st.integers(first + 1, size)))

    rows, columns = tile_range(na), tile_range(nb)
    gain = 1e308 if variant == "gain" else draw(st.sampled_from([1.0, 0.75, -2.5]))
    cfg = CipherConfig(State(*start), draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                       draw(st.sampled_from([1e16, 1e16, 1e6, 7.0])), gain)
    data = draw(st.binary(min_size=1, max_size=4))
    # each reference is the output of a scanned key, when it has one
    refs = draw(st.lists(st.tuples(st.sampled_from(rows), st.sampled_from(columns)),
                         min_size=1, max_size=4))
    return kind, (a0, b0), inc, n, (rows, columns), cfg, data, refs


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scan_cases())
# in row 0, columns 2 and up overflow in their first step and columns 0
# and 1 do not; rows 1 and 2 (a - 1 about 1e307) leave the box
@example((MapKind.ARNOLD, (-4.0, 1e308), 1e307, 1.0, (range(3), range(9)),
          CipherConfig(State(0.5, 1.5), 2, 3, 1e16), b"ab", [(0, 0), (0, 1)]))
# rows from a = 3.5 straddle the start of symbol-0 divergence, at 3.55
@example((MapKind.DUFFING, (3.5, -0.2), 0.01, 1.0, (range(12), range(12)),
          CipherConfig(State(-0.04, 0.2), 3, 3, 1e16), b"abc", [(0, 7), (2, 6)]))
# a coarse quantizer lets many keys past symbol 0, into the code that
# gets back the values the lifted names stand for
@example((MapKind.ARNOLD, (-4.0, 0.3), 0.02, 1.0, (range(3), range(7)),
          CipherConfig(State(0.5, 0.06), 1, 1, 7.0), b"abcd", [(0, 3), (1, 2)]))
# from this start, (-b x0 + a y0) - y0^3 rounds differently from
# -b x0 + (a y0 - y0^3) for these keys
@example((MapKind.DUFFING, (2.0, -0.2), 0.01, 1.0, (range(3), range(3)),
          CipherConfig(State(0.3, 0.45), 2, 2, 1e16), b"xy", [(0, 0), (1, 0), (2, 0)]))
# Tiles across a guard, which a scanner decides for a whole row from the
# tile's largest column value: row 0 straddles it, its first column
# inside, and the other rows are past it at every column. A key of a row
# whose first column passes the guard can leave the box only far past
# the guard's edge, as here, so a tile with a row inside at every column
# holds no key whose outcome depends on the loop that runs it. Arnold,
# from b = 0.5, (1 + |a - 1| + |1 - b|) N across 1e6: in row 0,
# x + (1 - b) y overflows in symbol 0's last step at b = -1.7e308, which
# a boxed key would not compute before its compare. Duffing, from b = 0,
# |a| + |b| across 1e11: at a = 0 and b = 2.56e18, y leaves the box at
# step 1 and is 0 at step 2.
@example((MapKind.ARNOLD, (-4.0, 0.5), -0.85e308, 3.0, (range(3), range(3)),
          CipherConfig(State(0.5, 0.9), 1, 1, 1e16), b"ab", [(0, 0), (0, 2)]))
@example((MapKind.DUFFING, (0.0, 0.0), 1.28e18, 1.0, (range(3), range(3)),
          CipherConfig(State(0.0, 200.0), 1, 1, 7.0), b"ab", [(0, 0), (0, 2)]))
# past symbol 0 a key compares before it feeds back: at gain 1e308 the key
# (-4.21, 0.28) passes symbol 0 with z = 0, then misses symbol 1, whose
# feedback would overflow, so it is a miss, not a divergence
@example((MapKind.ARNOLD, (-4.22, 0.28), 0.01, 1.0, (range(3), range(7)),
          CipherConfig(State(0.5, 0.06), 1, 1, 7.0, 1e308), b"\xfe\xe0", [(2, 2)]))
# a start y outside the box diverges every key at symbol 0, also the key
# a = 4e12 = (2e6)^2, which brings y back to 0 at step 1 and, untested,
# would give the reference byte
@example((MapKind.DUFFING, (4e12, 0.01), 1e-3, 1.0, (range(7), range(1)),
          CipherConfig(State(0.0, 2e6), 1, 1), b"\0", [(0, 0)]))
def test_scan_grid_matches_per_key_oracle(case):
    kind, (a0, b0), inc, n, (rows, columns), cfg, data, refs = case
    s = cfg.initial_state
    keys = [(a0 + i * inc, b0 + j * inc) for i in rows for j in columns]

    def step(a, b):
        return arnold_oracle_step(a, b, n) if kind is MapKind.ARNOLD else duffing_oracle_step(a, b)

    for i, j in refs:
        reference, _, diverged = oracle_run(data, step(a0 + i * inc, b0 + j * inc), s.x, s.y,
                                            cfg.n1, cfg.n2, cfg.quant_scale, cfg.reinject_gain)
        if diverged is not None:
            reference = bytes(data)
        outcomes = [oracle_scan_outcome(data, reference, step(a, b), s.x, s.y, cfg.n1, cfg.n2,
                                        cfg.quant_scale, cfg.reinject_gain)
                    for a, b in keys]
        tile = ([a0 + i * inc for i in rows], [b0 + j * inc for j in columns])
        scanned, [(hits, diverged)] = cipher._scan_grid(
            kind, n, cfg, [(data, reference, cfg.n1, cfg.n2)], tile)
        assert hits == [ab for ab, outcome in zip(keys, outcomes) if outcome == "hit"]
        assert diverged == outcomes.count("diverged")
        assert scanned == len(keys)


@st.composite
def side_scans(draw):
    """A scan case and a side query over its tile: a schedule of 1 to 4
    steps each, and its own data and reference."""
    case = draw(scan_cases())
    kind, (a0, b0), inc, n, (rows, columns), cfg, data, refs = case
    side_cfg = replace(cfg, n1=draw(st.integers(1, 4)), n2=draw(st.integers(1, 4)))
    side_data = draw(st.binary(min_size=1, max_size=4))
    i, j = draw(st.sampled_from(refs))
    return case, (side_data, side_cfg, (a0 + i * inc, b0 + j * inc))


def scan_reference(kind, data, cfg, a, b, n):
    """The key's output on data, or data itself when its orbit diverges or
    the key is not finite."""
    try:
        return encrypt_bytes(data, Key(kind, MapParams(a, b, n)), cfg)
    except (DivergenceError, DomainError):
        return bytes(data)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(side_scans())
# Arnold columns from b = 1e308 whose first step overflows: a column whose
# lifts fail, its keys counted once as diverged, counts for the side query too
@example(((MapKind.ARNOLD, (-4.0, 1e308), 1e307, 1.0, (range(3), range(9)),
           CipherConfig(State(0.5, 1.5), 2, 3, 1e16), b"ab", [(0, 0)]),
          (b"xy", CipherConfig(State(0.5, 1.5), 1, 1, 1e16), (-4.0, 1e308))))
# a coarse quantizer: most keys pass the side query's symbol 0
@example(((MapKind.ARNOLD, (-4.0, 0.3), 0.02, 1.0, (range(3), range(7)),
           CipherConfig(State(0.5, 0.06), 1, 1, 7.0), b"abcd", [(0, 3)]),
          (b"ab", CipherConfig(State(0.5, 0.06), 3, 2, 7.0), (-4.0, 0.36))))
# Duffing rows from a = 3.5 diverge within symbol 0; equal step totals
@example(((MapKind.DUFFING, (3.5, -0.2), 0.01, 1.0, (range(12), range(12)),
           CipherConfig(State(-0.04, 0.2), 3, 3, 1e16), b"abc", [(0, 7)]),
          (b"abc", CipherConfig(State(-0.04, 0.2), 2, 4, 1e16), (3.5, -0.13))))
def test_side_query_gets_what_its_own_scan_gets(case):
    # one pass over a tile for two queries: each gets the hits and the
    # diverged count of a scan of it alone, in the caller's order,
    # whichever has the more steps
    (kind, (a0, b0), inc, n, (rows, columns), cfg, data, refs), side = case
    side_data, side_cfg, (a, b) = side
    i, j = refs[0]
    query = (data, scan_reference(kind, data, cfg, a0 + i * inc, b0 + j * inc, n),
             cfg.n1, cfg.n2)
    side_query = (side_data, scan_reference(kind, side_data, side_cfg, a, b, n),
                  side_cfg.n1, side_cfg.n2)
    tile = ([a0 + i * inc for i in rows], [b0 + j * inc for j in columns])
    scanned, [alone] = cipher._scan_grid(kind, n, cfg, [query], tile)
    side_scanned, [side_alone] = cipher._scan_grid(kind, n, cfg, [side_query], tile)
    assert side_scanned == scanned
    assert cipher._scan_grid(kind, n, cfg, [query, side_query], tile) == (
        scanned, [alone, side_alone])
    assert cipher._scan_grid(kind, n, cfg, [side_query, query], tile) == (
        scanned, [side_alone, alone])


def test_fused_scan_runs_one_scanner_and_one_finish_kernel_per_query(monkeypatch):
    # one scanner decides symbol 0 for both queries; the finish kernel of
    # each query's own schedule runs the rest, the side query's from
    # symbol 0, so no second scanner runs the side query's matches
    kind, n, cfg = MapKind.ARNOLD, 1.0, CipherConfig(State(0.5, 0.06), 3, 3, 7.0)
    tile = ([-4.0 + i * 0.02 for i in range(3)], [0.3 + j * 0.02 for j in range(7)])
    side_cfg = replace(cfg, n1=1, n2=1)
    queries = [(b"abcd", scan_reference(kind, b"abcd", cfg, tile[0][0], tile[1][3], n), 3, 3),
               (b"ab", scan_reference(kind, b"ab", side_cfg, tile[0][1], tile[1][2], n), 1, 1)]
    expected = [cipher._scan_grid(kind, n, cfg, [query], tile) for query in queries]
    kernels, kernel = [], cipher._kernel

    def spy_kernel(kind, template, n1=0, n2=0, side=None, **fill):
        kernels.append((template, n1, n2, side))
        return kernel(kind, template, n1, n2, side, **fill)

    monkeypatch.setattr(cipher, "_kernel", spy_kernel)
    scanned, found = cipher._scan_grid(kind, n, cfg, queries, tile)
    assert (scanned, found) == (21, [alone for _, [alone] in expected])
    assert found[1][0], "the side query has matches to finish"
    assert kernels == [(cipher._SCAN, 3, 3, (1, 1)), (cipher._FINISH, 3, 3, None),
                       (cipher._FINISH, 1, 1, None)]


def assert_scans_match_oracle(kind, n, cfg, tile, queries):
    """Each query (data, reference, n1, n2) scanned over tile alone, and
    the queries scanned in one pass in either order, give the hits and
    diverged counts of the per-key oracle."""
    keys = [(a, b) for a in tile[0] for b in tile[1]]
    s = cfg.initial_state
    expected = []
    for data, reference, n1, n2 in queries:
        outcomes = [oracle_scan_outcome(data, reference, oracle_step(Key(kind, MapParams(a, b, n))),
                                        s.x, s.y, n1, n2, cfg.quant_scale, cfg.reinject_gain)
                    for a, b in keys]
        expected.append(([ab for ab, outcome in zip(keys, outcomes) if outcome == "hit"],
                         outcomes.count("diverged")))
    for query, found in zip(queries, expected):
        assert cipher._scan_grid(kind, n, cfg, [query], tile) == (len(keys), [found])
    assert cipher._scan_grid(kind, n, cfg, queries, tile) == (len(keys), expected)
    assert cipher._scan_grid(kind, n, cfg, queries[::-1], tile) == (len(keys), expected[::-1])


@st.composite
def two_queries(draw, kind, n, cfg, tile):
    """Two queries over tile, each with its own schedule and data, whose
    references are the outputs of tile keys (or the data, for a key whose
    orbit diverges)."""
    queries = []
    for _ in range(2):
        query_cfg = replace(cfg, n1=draw(st.integers(1, 4)), n2=draw(st.integers(1, 4)))
        data = draw(st.binary(min_size=1, max_size=4))
        a, b = draw(st.sampled_from(tile[0])), draw(st.sampled_from(tile[1]))
        queries.append((data, scan_reference(kind, data, query_cfg, a, b, n),
                        query_cfg.n1, query_cfg.n2))
    return queries


# Duffing keys on both sides of |a| + |b| = 1e11, below which a key tests
# its bound once per symbol, and above which after every step. Their
# orbits leave the box for good within a few steps unless they start at
# (or next to) the origin. The tile's rows and columns cross the edge.
@st.composite
def duffing_guard_cases(draw):
    a = draw(st.floats(-1e11, 1e11))
    b = (draw(st.sampled_from([1.0, -1.0])) * (1e11 - abs(a))
         * draw(st.sampled_from([1 - 2.0 ** -40, 1.0, 1 + 2.0 ** -40, 0.5, 2.0])))
    if draw(st.booleans()):
        a, b = b, a
    inc = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    tile = ([a + i * inc for i in range(3)], [b + j * inc for j in range(3)])
    start = draw(st.sampled_from([(0.0, 0.0), (1e-9, 0.0), (0.0, -1e-12)])
                 | st.tuples(st.floats(-1e-6, 1e-6), st.floats(-1e-9, 1e-9)))
    cfg = CipherConfig(State(*start), draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                       draw(st.sampled_from([1e16, 1e6])), draw(st.sampled_from([0.0, 1e-12, 1.0])))
    data = draw(st.binary(min_size=1, max_size=8))
    return tile, cfg, data, draw(two_queries(MapKind.DUFFING, 1.0, cfg, tile))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(duffing_guard_cases())
# a = 4e12 is y^2 for the y = 2e6 of the first step, which leaves the box:
# the second step brings y back to 0, and the orbit stays at (0, 0) from
# the third on, so a test at the end of a symbol alone would let it through
@example((([4e12, 4e12 + 1e-3, 4e12 + 1.0], [0.0, 1e-3, 1.0]), CipherConfig(State(0.0, 5e-7), 1, 1),
          b"abc", [(b"ab", b"ab", 1, 1), (b"x", b"y", 1, 3)]))
# row 0 straddles |a| + |b| = 1e11, and at b = 2.56e18 leaves the box at
# step 1 and comes back at step 2 (see test_scan_grid_matches_per_key_oracle);
# row 1 is past it at every column
@example((([0.0, 2e11], [0.0, 1e3, 2.56e18]), CipherConfig(State(0.0, 200.0), 1, 1),
          b"ab", [(b"ab", b"cd", 1, 1), (b"x", b"y", 2, 2)]))
# a start y outside the box, from which the key a = 4e12 = (2e6)^2 would
# come back into it at step 1 and give the 1/1 query's reference byte
@example((([4e12 + k * 1e-3 for k in range(7)], [0.01]), CipherConfig(State(0.0, 2e6), 1, 1),
          b"\0", [(b"\0", b"\0", 1, 1), (b"\0", b"\0", 1, 2)]))
def test_duffing_guard_matches_checked_oracle(case):
    tile, cfg, data, queries = case
    for a in tile[0]:
        assert_block_matches_oracle(Key(MapKind.DUFFING, MapParams(a, tile[1][0])), cfg, data)
    assert_scans_match_oracle(MapKind.DUFFING, 1.0, cfg, tile, queries)


# Arnold keys for symbol 0's split last step. "overflow": |1 - b| near the
# largest float and N > 1, so that x + (1 - b) y overflows in the last
# step of some keys' symbol 0 but not in their first (|y0| < 1). "edge":
# keys on both sides of (1 + |a - 1| + |1 - b|) N = 1e6, below which a key
# puts its last y' off until after the compare, and above which it
# computes y' in the step's bound test.
@st.composite
def arnold_split_cases(draw):
    if draw(st.booleans()):
        n = draw(st.sampled_from([3.0, 1e3]))
        a0 = draw(st.floats(-6.0, 2.0))
        b0 = draw(st.sampled_from([1e308, -1e308, 5e307, -1.7e308]))
        b_inc = -b0 * draw(st.sampled_from([2.0 ** -3, 2.0 ** -20, 2.0 ** -52]))
        a_inc = 0.02
        start = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    else:
        a0, b0, n = arnold_edge_params(
            draw(st.sampled_from([1.0, 3.0, 1e3, 2e5])), draw(st.sampled_from([1.0, -1.0])),
            draw(st.floats(0.0, 0.5)), draw(st.sampled_from([1.0, -1.0])),
            draw(st.sampled_from([1 - 2.0 ** -40, 1.0, 1 + 2.0 ** -40, 0.5, 2.0])))
        # steps of 2^-45 or 2^-40 of |1 - b0|, so that a tile can cross the edge
        a_inc, b_inc = 1e-3, abs(1.0 - b0) * draw(st.sampled_from([2.0 ** -45, 2.0 ** -40]))
        start = draw(st.sampled_from([(0.5, 0.06), (-0.3, 0.7)]))
    tile = ([a0 + i * a_inc for i in range(3)], [b0 + j * b_inc for j in range(4)])
    # a coarse quantizer lets many keys past the compare, into the rest of
    # the split step
    cfg = CipherConfig(State(*start), draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                       draw(st.sampled_from([1e16, 7.0])), draw(st.sampled_from([1.0, 0.75])))
    data = draw(st.binary(min_size=1, max_size=8))
    return n, tile, cfg, data, draw(two_queries(MapKind.ARNOLD, n, cfg, tile))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arnold_split_cases())
# from b = -1.7e308, y1 = 2 makes x + (1 - b) y overflow at step 2: the
# last step of the 1/1 query's symbol 0 (its split step when scanned
# alone, its side check when fused with 3/3); from the next b, some keys
# overflow at step 4. A 7.0 quantizer lets many keys past the compares
@example((3.0, ([-4.0, -3.98, -3.96], [-1.7e308, -1.7e308 + 2.0 ** -3 * 1.7e308]),
          CipherConfig(State(0.5, 0.9), 3, 3, 7.0), b"ab",
          [(b"ab", b"cd", 3, 3), (b"x", b"y", 1, 1)]))
# N > 1e6: y' leaves the box however small (|a - 1| + |1 - b|) N / 1e6 is
@example((2e6, ([1.25, 1.5], [0.9, 0.95]), CipherConfig(State(1.5e6, 0.0), 2, 3), b"xy",
          [(b"xy", b"ab", 2, 3), (b"x", b"y", 1, 1)]))
# row 0 straddles (1 + |a - 1| + |1 - b|) N = 1e6, and at b = -1.7e308
# overflows in the 1/1 query's last step of symbol 0 (see
# test_scan_grid_matches_per_key_oracle); row 1 is past it at every column
@example((3.0, ([-4.0, 1e7], [0.5, -1.7e308]), CipherConfig(State(0.5, 0.9), 3, 3), b"ab",
          [(b"ab", b"cd", 3, 3), (b"x", b"y", 1, 1)]))
def test_arnold_split_step_matches_checked_oracle(case):
    n, tile, cfg, data, queries = case
    for b in tile[1]:
        assert_block_matches_oracle(Key(MapKind.ARNOLD, MapParams(tile[0][0], b, n)), cfg, data)
    assert_scans_match_oracle(MapKind.ARNOLD, n, cfg, tile, queries)


def scanner_tree(kind, n1, n2, side):
    scan = maps._kernel(kind, cipher._SCAN, n1, n2, side, **cipher._SCAN_FILL)
    return ast.parse("".join(linecache.getlines(scan.__code__.co_filename)))


def key_loops(tree):
    """Every key loop of a scanner (each `for column in columns:`)."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.For) and ast.unparse(node.target) == "column"]


def row_choice(tree):
    """The if that sends a scanner's row to its key loop or hands the
    row's keys on (its test `top <= ...`)."""
    (choice,) = [node for node in ast.walk(tree)
                 if isinstance(node, ast.If) and ast.unparse(node.test).startswith("top <=")]
    return choice


DECISION = "if (q1 + q2) % 256 == t0:\n    passed.append((a, b))"


def test_scanner_puts_a_boxed_keys_last_y_after_the_compare():
    # symbol 0's last step sets x alone. Its y' = fmod(x + (1 - b) y, n) is
    # computed only in the bound test, after the guard, which is True in
    # the key loop (every key of a row that runs it is boxed), so no key
    # computes it in the scanner: the key code ends at the compare, and a
    # key that passes it is handed on as (a, b), for the finish kernel to
    # run from the start state, its last y of symbol 0 included. So in the
    # key loop
    for n1, n2, side in [(2, 2, None), (1, 2, None), (3, 3, (2, 2)), (2, 2, (1, 3))]:
        loops = key_loops(scanner_tree(MapKind.ARNOLD, n1, n2, side))
        assert len(loops) == 1
        *steps, decision = loops[0].body
        assert ast.unparse(decision) == DECISION, (n1, n2, side)

        def assigned(stmt):
            return [node.id for target in getattr(stmt, "targets", [])
                    for node in ast.walk(target) if isinstance(node, ast.Name)]

        last_y = max(k for k, stmt in enumerate(steps) if "y" in assigned(stmt))
        last_x = max(k for k, stmt in enumerate(steps) if "x" in assigned(stmt))
        assert last_y < last_x, (n1, n2, side)
        assert assigned(steps[last_x]) == ["x"], (n1, n2, side)
        y_steps = []
        for stmt in steps[last_y + 1:]:
            for node in ast.walk(stmt):
                if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                    assert ast.unparse(node.values[0]) == "True"
                    node.values[1:] = []  # folded away by the compiler
            y_steps += [node for node in ast.walk(stmt)
                        if re.fullmatch(r"fmod\(x \+ _c\d+ \* y, n\)", ast.unparse(node))]
        assert y_steps == [], (n1, n2, side)


def test_scanner_without_a_side_schedule_keeps_no_side_work_per_key():
    # every scanner takes the side query's target and returns side, but
    # only one compiled with a side schedule tests it: the key loop of one
    # without (the per-key code of a single-query scan), and its rows that
    # hand their keys on, read and keep nothing for a side query
    side_names = {"side", "target", "side_s1x", "side_s2x"}
    for kind in MapKind:
        for n1, n2 in [(1, 1), (2, 2), (3, 3), (2, 4)]:
            for side in (None, (1, 1)):
                tree = scanner_tree(kind, n1, n2, side)
                assert len(key_loops(tree)) == 1
                choice = row_choice(tree)
                for branch in choice.body, choice.orelse:
                    names = {node.id for stmt in branch for node in ast.walk(stmt)
                             if isinstance(node, ast.Name)}
                    assert bool(names & side_names) == bool(side), (kind, n1, n2, side)


def test_fused_scanner_is_its_main_scanner_plus_side_lines():
    # A side schedule adds lines to its main schedule's scanner and changes
    # none: the side query's symbol 0 is decided from two snapshots of the
    # main query's orbit, after the main query's own bound tests, so the
    # single-query scanner's lines are a subsequence of the fused one's.
    # (difflib only shows the lines on a failure: its matcher may pair a
    # repeated step with the wrong copy and report a change.)
    for kind in MapKind:
        for n1, n2, side in [(1, 1, (1, 1)), (2, 2, (1, 1)), (2, 2, (1, 3)), (3, 3, (2, 2)),
                             (3, 3, (3, 3)), (4, 1, (1, 1)), (2, 3, (1, 4)), (1, 4, (2, 1))]:
            alone, fused = (
                linecache.getlines(maps._kernel(kind, cipher._SCAN, n1, n2, schedule,
                                                **cipher._SCAN_FILL).__code__.co_filename)
                for schedule in (None, side))
            rest = iter(fused)
            assert all(line in rest for line in alone), "".join(
                difflib.unified_diff(alone, fused, f"{n1}/{n2}", f"{n1}/{n2}+{side}"))
            assert len(fused) > len(alone), (kind, n1, n2, side)


def test_key_loop_runs_without_the_guard_and_other_rows_hand_their_keys_on():
    # A row runs its keys in the scanner's one key loop when every key of
    # the row passes the guard. The loop is compiled with the guard as the
    # literal True, which the compiler folds away, so its per-key code
    # reads no guard, Arnold's symbol 0 holds no bound test, and Duffing's
    # only its exact one, after symbol 0's last step, with a side schedule
    # or without. Any other row takes no map step: it hands each key on,
    # from symbol 0, to the finish kernel of each query.
    folded = compile("if not (True or -1e6 <= x <= 1e6):\n    x = 0\n", "<guard>", "exec")
    assert not [op for op in dis.get_instructions(folded)
                if op.opname in ("COMPARE_OP", "STORE_NAME")]
    for kind, guarded in ((MapKind.ARNOLD, "boxed"), (MapKind.DUFFING, "no_return")):
        for n1, n2, side in [(1, 1, None), (2, 2, None), (3, 2, None), (2, 2, (1, 1)),
                             (2, 2, (1, 3)), (3, 3, (2, 2)), (2, 3, (1, 4)), (4, 4, (1, 2))]:
            choice = row_choice(scanner_tree(kind, n1, n2, side))
            # the row lifts, which only the key loop reads, then the loop
            *row_lifts, loop = choice.body
            assert [stmt for stmt in row_lifts if not isinstance(stmt, ast.Assign)] == []
            assert isinstance(loop, ast.For) and ast.unparse(loop.target) == "column"
            lines = ast.unparse(loop).splitlines()
            # the key loop neither stores nor reads the guard
            assert not [line for line in lines if re.search(rf"\b{guarded}\b", line)], (
                kind, n1, n2, side)
            # the key code runs symbol 0's keystream alone, with no loop
            # over later symbols, and ends in the compare, which hands a
            # key that passes on as (a, b), to run from the start state
            *symbol_0, decision = loop.body
            assert ast.unparse(decision) == DECISION, (kind, n1, n2, side)
            assert not [node for stmt in loop.body for node in ast.walk(stmt)
                        if isinstance(node, ast.For)]
            tests = [stmt for stmt in symbol_0 if isinstance(stmt, ast.If)
                     and "1000000.0" in ast.unparse(stmt.test)
                     and not ast.unparse(stmt.test).startswith("not (True or ")]
            if kind is MapKind.ARNOLD:
                assert tests == [], (n1, n2, side)
            else:
                # a key the test drops goes on, from symbol 0, to the
                # finish kernel of the main query and of the side one,
                # which count it as diverged
                (test,) = tests
                assert " or " not in ast.unparse(test.test), (n1, n2, side)
                assert [ast.unparse(stmt) for stmt in test.body] == ["passed.append((a, b))"] + (
                    ["side.append((a, b))"] if side else []) + ["continue"]
            # a row that fails the guard's test makes no map step: it only
            # hands each of its keys on, as (a, b)
            assert [ast.unparse(stmt) for stmt in choice.orelse] == [
                "keys = [(a, b) for b in b_values]", "passed += keys"] + (
                ["side += keys"] if side else []), (kind, n1, n2, side)
            # every key goes on as (a, b) alone: no scanner reads symbol
            # 0's input or the feedback table, nor mixes or feeds back
            tree = scanner_tree(kind, n1, n2, side)
            assert not [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                        and node.id in ("feed", "c0", "z", "x_prev")], (kind, n1, n2, side)
            handed = [ast.unparse(node.args[0]) for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func) in ("passed.append", "side.append")]
            assert set(handed) == {"(a, b)"}, (kind, n1, n2, side)


@pytest.fixture(scope="module")
def scanners():
    """Every scanner of both kinds, each (n1, n2) in {1..4}^2 and
    (1000, 1000), alone and fused with a 1/1 and an n2/n1 side schedule,
    each as ((kind, n1, n2, side), source, parsed tree, source lines).
    Parsed once for the module: parsing is most of what reading them costs,
    and with the collector on, each full collection it sets off walks every
    tree parsed so far."""
    schedules = [(n1, n2) for n1 in range(1, 5) for n2 in range(1, 5)] + [(1000, 1000)]
    found = []
    gc.disable()
    try:
        for kind in MapKind:
            for n1, n2 in schedules:
                for side in (None, (1, 1), (n2, n1)):
                    scan = maps._kernel(kind, cipher._SCAN, n1, n2, side, **cipher._SCAN_FILL)
                    source = "".join(linecache.getlines(scan.__code__.co_filename))
                    found.append(((kind, n1, n2, side), source, ast.parse(source),
                                  source.splitlines(True)))
    finally:
        gc.enable()
    return found


def source_segment(lines, node):
    """node's source, as ast.get_source_segment gives it, from its source's
    lines (which get_source_segment splits again on every call)."""
    first, last = node.lineno - 1, node.end_lineno - 1
    if first == last:
        return lines[first].encode()[node.col_offset:node.end_col_offset].decode()
    return (lines[first].encode()[node.col_offset:].decode() + "".join(lines[first + 1:last])
            + lines[last].encode()[:node.end_col_offset].decode())


def test_scanner_decides_or_hands_on_every_key_and_loses_none(scanners):
    # A scanner only rejects keys: it drops a key when it proves its
    # symbol 0 wrong, and hands every other key on, for the finish kernel
    # to decide from the start state, and to count if it diverges. Its one
    # handler encloses its entry test, grid lifts and column lifts: a start
    # state that fails the test, or a lift that raises, sets top to NaN, so
    # that every row fails the row choice and hands its keys on through
    # the one row hand-on. The row lifts and the key code run under no
    # handler. That is exact as no row lift holds an fmod, the one lifted
    # call that can raise: after step 1, Arnold's x depends on the row
    # alone and its y on the column alone, and Duffing's steps hold no
    # fmod. A key of a row that passes the guard runs bounded arithmetic
    # alone.
    for at, source, tree, _ in scanners:
        assert not re.search(r"\b(lost|diverged)\b", source), at
        # the one try and the row loop are statements of the function
        # itself, so the handler encloses no row lift and no key code
        assert len(re.findall(r"^ *try:$", source, re.MULTILINE)) == 1
        assert source.count("keys = [(a, b) for b in b_values]") == 1
        function = tree.body[0].body
        (handler,) = [stmt for stmt in function if isinstance(stmt, ast.Try)]
        (rows,) = [stmt for stmt in function if isinstance(stmt, ast.For)
                   and ast.unparse(stmt.target) == "a"]
        assert [ast.unparse(stmt) for stmt in handler.handlers[0].body] == [
            "top = float('nan')"]
        assert not [node for node in ast.walk(handler) if isinstance(node, ast.Return)]
        assert ast.unparse(function[-1]) == "return (passed, side)"
        (choice,) = rows.body
        assert ast.unparse(choice.test).startswith("top <=")
        row_lifts = choice.body[:-1]
        assert row_lifts, at
        assert not [ast.unparse(stmt) for stmt in row_lifts if "fmod" in ast.unparse(stmt)], at


# Duffing keys from a = 100 pass the row guard (|a| + |b| <= 1e11), and
# from the default start (-0.04, 0.2) their orbits leave the box at step
# 3, inside symbol 0 at 2/2 and at 3/3: y is about 20 at step 1, -6e3 at
# step 2 and 2e11 at step 3.
DIVERGING_TILE = ([100.0 + 0.25 * i for i in range(4)], [0.25 * j for j in range(5)])


@pytest.mark.parametrize("start", [(-0.04, 0.2), (0.0, 2e6)], ids=["key_loop", "entry"])
def test_scanner_hands_on_each_key_it_cannot_decide_and_finish_counts_it(start):
    # From the default start every key of the tile fails the key loop's
    # exact test; from (0, 2e6) the start state fails the entry test, and
    # every row hands its keys on. Either way the scanner hands each key
    # on, in row-major order, to passed, and to side when fused, and the
    # finish kernel of each query counts it as diverged, once: single and
    # fused scans, in either order, give what per-key encryption gives.
    kind = MapKind.DUFFING
    cfg = replace(default_config(kind), initial_state=State(*start))
    keys = [(a, b) for a in DIVERGING_TILE[0] for b in DIVERGING_TILE[1]]
    for n1, n2 in ((3, 3), (2, 2)):
        for side in (None, (1, 1), (2, 2)):
            scan = maps._kernel(kind, cipher._SCAN, n1, n2, side, **cipher._SCAN_FILL)
            target = 0 if side else None
            assert scan(*DIVERGING_TILE, 1.0, *start, cfg.quant_scale, 0, target) == (
                keys, keys if side else []), (n1, n2, side)
    queries = [(b"ab", b"cd", 3, 3), (b"xyz", b"xyz", 2, 2)]
    expected = []
    for data, reference, n1, n2 in queries:
        hits, diverged = [], 0
        for a, b in keys:
            try:
                out = encrypt_bytes(data, Key(kind, MapParams(a, b)), replace(cfg, n1=n1, n2=n2))
            except DivergenceError:
                diverged += 1
                continue
            if out == reference:
                hits.append((a, b))
        assert (hits, diverged) == ([], len(keys))
        expected.append((hits, diverged))
    for query, found in zip(queries, expected):
        assert cipher._scan_grid(kind, 1.0, cfg, [query], DIVERGING_TILE) == (len(keys), [found])
    assert cipher._scan_grid(kind, 1.0, cfg, queries, DIVERGING_TILE) == (len(keys), expected)
    assert cipher._scan_grid(kind, 1.0, cfg, queries[::-1], DIVERGING_TILE) == (
        len(keys), expected[::-1])


def test_finish_kernel_tests_its_own_start_state():
    # The finish kernel tests the start state it is given, as the block
    # and scan entries test theirs: from (0, 2e6), outside the box, every
    # key diverges at symbol 0. Untested, the key a = 4e12 = (2e6)^2 would
    # bring y back to 0 at step 1 and give the expected byte 0.
    finish = maps._kernel(MapKind.DUFFING, cipher._FINISH, 1, 1, **cipher._FINISH_FILL)
    keys = [(4e12 + k * 1e-3, 0.01) for k in range(7)]
    assert finish(keys, 1.0, 0.0, 2e6, 1e6, cipher._feed(1.0), [(0, 0)]) == ([], 7)


def test_lift_pass_keeps_an_if_body_that_reads_invariants():
    # an if body is kept verbatim, so it may read a row's a and a column's
    # b, but not a name that stands for another value, and it may assign
    # no invariant
    from chaoscrypt._hoist import hoist

    head = "x, y = x0, y0\nz = x * a\n"
    snippets = hoist(head + "if z > b:\n    found.append((a, b))\n")
    assert snippets["row_lifts"] == "_r7 = x0 * a\n"
    assert "if _r7 > b:\n    found.append((a, b))\n" in snippets["key_code"]
    for body in ("found.append(z)", "found.append(x)", "a = 1.0", "b = 2.0", "q = 0.5"):
        with pytest.raises(ValueError, match="cannot lift across"):
            hoist(head + f"if z > b:\n    {body}\n")
    # the hand-off sits in an if body, so no region holds an expression
    # statement or a subscript, and the pass refuses both, also of an
    # invariant such as a, or of a name that stands for one; it refuses a
    # tuple target whose value is not a tuple of its length, and a new
    # value for an invariant
    for tail in ("found.append((a, z))", "found.append(a)", "x = fmod(x + feed[z], 1.0)",
                 "w = table[a]", "w = (a, b)", "x, y = z", "a = z"):
        with pytest.raises(ValueError, match="cannot lift across"):
            hoist(head + tail + "\n")


def loops_around(tree: ast.AST, expression: str) -> list[tuple[str, ...]]:
    """For each place in tree that computes expression, the targets of the
    for loops around it, outermost first."""
    places = []

    def visit(node, loops):
        if isinstance(node, ast.expr) and ast.unparse(node) == expression:
            places.append(loops)
        if isinstance(node, ast.For):
            loops += (ast.unparse(node.target),)
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(tree, ())
    return places


def test_scanner_lifts_invariant_values_out_of_its_loops():
    # Each value is computed only in the loop of the level it is invariant
    # at: the call's (no loop), a row's (for a) or a column's (for b), and
    # never in the key loop (for column). A template name that the lift
    # pass does not know would leave them there. A guard's side may compute
    # a lifted value again at its own level: the row choice computes
    # a - 1.0, and the column loop 1.0 - b.
    lifted = {
        MapKind.ARNOLD: {"fmod(2.0 * x0 + y0, n)": (), "a - 1.0": ("a",), "1.0 - b": ("b",)},
        MapKind.DUFFING: {"y0 * y0 * y0": (), "-b": ("b",)},
    }
    for kind, places in lifted.items():
        cfg = replace(default_config(kind), n1=2, n2=2)
        scan = maps._kernel(kind, cipher._SCAN, cfg.n1, cfg.n2, **cipher._SCAN_FILL)
        source = "".join(linecache.getlines(scan.__code__.co_filename))
        assert "$" not in source
        assert not re.search(r"grid_invariant|row_invariant|column_invariant|key_code"
                             r"|end_of_lifts", source)
        tree = ast.parse(source)
        for expression, loops in places.items():
            found = loops_around(tree, expression)
            assert found and set(found) == {loops}, (expression, found)


def test_scanner_computes_each_side_of_the_guard_at_its_own_level(scanners):
    # the column loop computes the guard's column side, as _STEP_SOURCE
    # spells it, and keeps the largest in top; the row choice compares top
    # with the row side. top takes a value of its own, not one the column
    # table holds, so the key loop unpacks no guard value it never reads.
    guards = {}
    for kind in MapKind:
        fields = {**maps._STEP_SOURCE[kind], "bound": repr(maps.DIVERGENCE_BOUND)}
        guards[kind] = [maps._splice(f"${name}", fields) for name in ("guard_column", "guard_row")]
    for at, source, tree, lines in scanners:
        column, row = guards[at[0]]
        assert source.count(column) == source.count(row) == 1, at
        function = tree.body[0].body
        (handler,) = [stmt for stmt in function if isinstance(stmt, ast.Try)]
        (columns,) = [stmt for stmt in handler.body if isinstance(stmt, ast.For)]
        (rows,) = [stmt for stmt in function if isinstance(stmt, ast.For)
                   and ast.unparse(stmt.target) == "a"]
        assert ast.unparse(columns.target) == "b", at
        assert ast.unparse(columns.iter) == "b_values", at
        assert column in source_segment(lines, columns), at
        assert source_segment(lines, rows.body[-1].test) == f"top <= {row}", at
        (table,) = [node.args[0] for node in ast.walk(columns)
                    if isinstance(node, ast.Call) and ast.unparse(node.func) == "columns.append"]
        (top,) = [node.value for node in ast.walk(columns)
                  if isinstance(node, ast.Assign)
                  and [ast.unparse(target) for target in node.targets] == ["top"]]
        assert ast.unparse(top) not in [ast.unparse(name) for name in table.elts], at
