"""Tests for the message-embedded cipher."""

import json
import random
from dataclasses import replace
from math import floor, fmod

import pytest

from chaoscrypt.analysis import FULL_KEY_DOMAIN
from chaoscrypt.cipher import (
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
    quantize,
    save_key,
)
from chaoscrypt.maps import DivergenceError, DomainError, MapKind, MapParams, State
from oracles import oracle_symbols

DUFFING_KEY = Key(MapKind.DUFFING, MapParams(2.75, 0.1))
ARNOLD_KEY = Key(MapKind.ARNOLD, MapParams(-4.0, 0.5, 1.0))


# --- straight-line oracle: the whole per-symbol pipeline with bare floats,
# --- no package calls. Used to pin the cipher's observable behaviour.

def oracle_encrypt(data, step, x, y, n1=3, n2=3, q=1e6, g=1.0, m=256):
    out = []
    for c in data:
        for _ in range(n1):
            x, y = step(x, y)
        q1 = int(floor(abs(x) * q)) % m
        z = (c + q1) % m
        for _ in range(n2):
            x, y = step(x, y)
        q2 = int(floor(abs(x) * q)) % m
        out.append((z + q2) % m)
        x = fmod(x + g * z / m, 1.0)
    return bytes(out)


def duffing_oracle_step(a, b):
    return lambda x, y: (y, -b * x + a * y - y * y * y)


def arnold_oracle_step(a, b, n):
    return lambda x, y: ((a - 1.0) * fmod(2.0 * x + y, n), fmod(x + (1.0 - b) * y, n))


def sample_grid_key(rng, kind):
    domain = FULL_KEY_DOMAIN[kind]
    na, nb = domain.axis_counts()
    return Key(kind, domain.params_at(rng.randrange(na), rng.randrange(nb)))


def test_quantize_examples():
    cfg = default_config(MapKind.ARNOLD)
    assert quantize(State(0.0, 0.7), cfg) == 0
    assert quantize(State(0.5, 0.0), cfg) == 500000 % 256
    assert quantize(State(0.5, 0.0), cfg) == 32
    # sign is dropped before scaling: floor(0.27e6) = 270000 -> mod 256
    assert quantize(State(-0.27, 0.0), cfg) == int(floor(0.27 * 1e6)) % 256
    assert quantize(State(-0.27, 0.0), cfg) == 176


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
    with pytest.raises(DomainError):
        encrypt_bytes([65, 300], DUFFING_KEY)
    with pytest.raises(DomainError):
        decrypt([65, -1], DUFFING_KEY)


def test_config_iteration_counts_validated():
    cfg = replace(default_config(MapKind.DUFFING), n1=0)
    with pytest.raises(DomainError):
        encrypt_bytes(b"x", DUFFING_KEY, cfg)


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


def test_default_initial_states_per_kind():
    assert default_config(MapKind.ARNOLD).initial_state == State(0.5, 0.06)
    assert default_config(MapKind.DUFFING).initial_state == State(-0.04, 0.2)
    for kind in MapKind:
        cfg = default_config(kind)
        assert (cfg.n1, cfg.n2, cfg.quant_scale, cfg.reinject_gain,
                cfg.symbol_modulus) == (3, 3, 1e6, 1.0, 256)


def test_package_exports_every_module_name():
    import chaoscrypt
    from chaoscrypt import analysis, cipher, maps

    missing = [name for module in (maps, cipher, analysis) for name in module.__all__
               if not hasattr(chaoscrypt, name)]
    assert missing == []
