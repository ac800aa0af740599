"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (visible with `pytest -rA` or `-s`).
"""

import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from chaoscrypt.analysis import (
    BRUTE_FORCE_FLOOR,
    FULL_KEY_DOMAIN,
    KEY_SPACE_RESOLUTION,
    REFERENCE_KEY_SPACE,
    REFERENCE_PT_SENSITIVITY_BAND,
    REPORT_HEADER,
    KeyDomain,
    identifiability_scan,
    key_sensitivity,
    key_space_size,
    known_plaintext_attack,
    plaintext_sensitivity,
)
from chaoscrypt.cipher import (
    Key,
    decrypt,
    default_config,
    encrypt_bytes,
    save_key,
)
from chaoscrypt.cli import main as cli_main
from chaoscrypt.maps import (
    DivergenceError,
    MapKind,
    MapParams,
    State,
    divergence_measure,
    duffing_step,
    arnold_step,
    signed_mod,
    trajectory,
)
from oracles import oracle_matching_set

FIG_ARNOLD = MapParams(-3.5, 0.9, 1.0)
FIG_DUFFING = MapParams(2.75, 0.1)
ARNOLD_START = State(0.5, 0.06)
DUFFING_START = State(-0.04, 0.2)
ARNOLD_KEY = Key(MapKind.ARNOLD, MapParams(-4.0, 0.5, 1.0))


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL [{number:2d}] {label}", flush=True)
        raise
    print(f"ACCEPTANCE PASS [{number:2d}] {label}", flush=True)


def test_criterion_01_signed_mod_oracle():
    with criterion(1, "signed mod examples and 10^4 decomposition checks (<1s)"):
        start = time.perf_counter()
        assert signed_mod(5, 3) == 2.0
        assert signed_mod(-5, 3) == -2.0
        rng = random.Random(11)
        for _ in range(10_000):
            d = rng.uniform(-1e6, 1e6)
            m = 10.0 ** rng.uniform(-3.0, 3.0)
            r = signed_mod(d, m)
            t = (d - r) / m
            assert abs(t - round(t)) <= 1e-9 * max(1.0, abs(t))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f} s; the bound is 1.0 s"


def test_criterion_02_map_step_oracles():
    with criterion(2, "hand-derived map steps within 1e-12"):
        s = duffing_step(DUFFING_START, MapParams(2.75, 0.1))
        assert abs(s.x - 0.2) <= 1e-12 and abs(s.y - 0.546) <= 1e-12
        s = arnold_step(ARNOLD_START, FIG_ARNOLD)
        assert abs(s.x - (-0.27)) <= 1e-12 and abs(s.y - 0.506) <= 1e-12


def test_criterion_03_chaos_smoke():
    with criterion(3, "divergence measure > 0.1 and finite 5001-point orbits (<1s)"):
        start = time.perf_counter()
        assert divergence_measure(MapKind.ARNOLD, ARNOLD_START, 1e-8,
                                  FIG_ARNOLD, 5000) > 0.1
        assert divergence_measure(MapKind.DUFFING, DUFFING_START, 1e-8,
                                  FIG_DUFFING, 5000) > 0.1
        for kind, s0, params in [(MapKind.ARNOLD, ARNOLD_START, FIG_ARNOLD),
                                 (MapKind.DUFFING, DUFFING_START, FIG_DUFFING)]:
            points = trajectory(kind, s0, params, 5000)
            assert len(points) == 5001
            assert all(math.isfinite(p.x) and math.isfinite(p.y) for p in points)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f} s; the bound is 1.0 s"


def test_criterion_04_roundtrip():
    with criterion(4, "10^3 exact roundtrips over sampled keys (<10s)"):
        start = time.perf_counter()
        rng = random.Random(20240401)
        full_length = 0
        for kind in (MapKind.ARNOLD, MapKind.DUFFING):
            domain = FULL_KEY_DOMAIN[kind]
            na, nb = domain.axis_counts()
            cfg = default_config(kind)
            some_key = Key(kind, domain.params_at(na // 2, nb // 2))
            assert decrypt(encrypt_bytes(b"", some_key, cfg), some_key, cfg) == b""
            for _ in range(500):
                key = Key(kind, domain.params_at(rng.randrange(na), rng.randrange(nb)))
                plaintext = bytes(rng.randrange(256) for _ in range(rng.randrange(65)))
                try:
                    ciphertext = encrypt_bytes(plaintext, key, cfg)
                except DivergenceError as err:
                    # fail-fast key: the encryptable prefix must still
                    # round-trip exactly
                    k = err.symbol
                    assert k is not None and 0 <= k < len(plaintext)
                    prefix_ct = encrypt_bytes(plaintext[:k], key, cfg)
                    assert decrypt(prefix_ct, key, cfg) == plaintext[:k]
                    continue
                assert decrypt(ciphertext, key, cfg) == plaintext
                full_length += 1
        assert full_length >= 600
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f} s; the bound is 10.0 s"


def test_criterion_05_causal_feedback():
    with criterion(5, "byte flips never change earlier ciphertext symbols"):
        rng = random.Random(321)
        trials = 0
        while trials < 100:
            kind = rng.choice([MapKind.ARNOLD, MapKind.DUFFING])
            domain = FULL_KEY_DOMAIN[kind]
            na, nb = domain.axis_counts()
            key = Key(kind, domain.params_at(rng.randrange(na), rng.randrange(nb)))
            plaintext = bytes(rng.randrange(256) for _ in range(32))
            i = rng.randrange(32)
            mutated = bytearray(plaintext)
            mutated[i] ^= 1 << rng.randrange(8)
            try:
                base = encrypt_bytes(plaintext, key)
                changed = encrypt_bytes(bytes(mutated), key)
            except DivergenceError:
                continue
            assert changed[:i] == base[:i]
            trials += 1


def test_criterion_06_key_space_arithmetic():
    with criterion(6, "key-space counts, reference figures and the 2^100 floor"):
        arnold = key_space_size(FULL_KEY_DOMAIN[MapKind.ARNOLD], KEY_SPACE_RESOLUTION)
        assert 4.0e16 <= arnold <= 5.5e16
        duffing = key_space_size(FULL_KEY_DOMAIN[MapKind.DUFFING], KEY_SPACE_RESOLUTION)
        flagged = not (0.5 <= duffing / REFERENCE_KEY_SPACE[MapKind.DUFFING] <= 2.0)
        print(f"  arnold grid count {arnold:.3e} "
              f"(reference {REFERENCE_KEY_SPACE[MapKind.ARNOLD]:.0e}); "
              f"duffing grid count {duffing:.3e} "
              f"(reference {REFERENCE_KEY_SPACE[MapKind.DUFFING]:.0e}, "
              f"{'flagged' if flagged else 'consistent'})")
        assert flagged
        assert arnold < BRUTE_FORCE_FLOOR and duffing < BRUTE_FORCE_FLOOR


def test_criterion_07_scan_oracle_equivalence():
    with criterion(7, "identifiability scans equal brute-force recomputation (<60s)"):
        start = time.perf_counter()
        rng = random.Random(555)
        text = b"What is your name?"
        completed = 0
        while completed < 5:
            kind = MapKind.ARNOLD if completed % 2 == 0 else MapKind.DUFFING
            if kind is MapKind.ARNOLD:
                a0, b0 = rng.uniform(-4.9, -1.0), rng.uniform(0.41, 1.4)
            else:
                a0, b0 = rng.uniform(1.81, 2.75), rng.uniform(-0.45, 0.15)
            lo = (a0, b0)
            hi = (a0 + 0.003, b0 + 0.002)
            domain = KeyDomain(kind, lo, hi, 1e-4)
            assert domain.size() <= 10_000
            true_ab = (a0 + 0.0017, b0 + 0.0009)
            key = Key(kind, MapParams(true_ab[0], true_ab[1], 1.0))
            iters = 2 + completed % 2
            try:
                res = identifiability_scan(text, key, domain, iteration_value=iters)
            except DivergenceError:
                with pytest.raises(OverflowError):
                    oracle_matching_set(kind, lo, hi, 1e-4, 1.0, true_ab,
                                        text[:8], iters)
                continue
            snapped, hits = oracle_matching_set(kind, lo, hi, 1e-4, 1.0, true_ab,
                                                text[:8], iters)
            assert (res.true_key.params.a, res.true_key.params.b) == snapped
            assert [(k.params.a, k.params.b) for k in res.matching_keys] == hits
            completed += 1

        # the 51 x 41 grid around key (0.0034, 0.0013), iteration values 2 and 3
        domain = KeyDomain(MapKind.ARNOLD, (0.0, 0.0), (0.005, 0.004), 1e-4)
        assert domain.axis_counts() == (51, 41)
        key = Key(MapKind.ARNOLD, MapParams(0.0034, 0.0013, 1.0))
        for iters in (2, 3):
            res = identifiability_scan(text, key, domain, iteration_value=iters)
            snapped, hits = oracle_matching_set(
                MapKind.ARNOLD, (0.0, 0.0), (0.005, 0.004), 1e-4, 1.0,
                (0.0034, 0.0013), text[:8], iters)
            assert (res.true_key.params.a, res.true_key.params.b) == snapped
            assert [(k.params.a, k.params.b) for k in res.matching_keys] == hits
            print(f"  51x41 grid at iteration value {iters}: verdict={res.verdict} "
                  f"matching={len(res.matching_keys)}")
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.3f} s; the bound is 60.0 s"


def test_criterion_08_attack_consistency():
    with criterion(8, "known-plaintext attack self-consistency and monotonicity"):
        domain = KeyDomain(MapKind.ARNOLD, (-4.0005, 0.4995), (-3.9995, 0.5005), 1e-4)
        assert domain.size() == 121
        msg = b"Meet me after 5p.m."
        ciphertext = encrypt_bytes(msg, ARNOLD_KEY)
        snapped = domain.snap(ARNOLD_KEY.params)
        res = known_plaintext_attack(ciphertext, msg, domain)
        assert snapped in [k.params for k in res.candidates]
        previous = None
        for n in (1, 2, 4, 8):
            res = known_plaintext_attack(ciphertext, msg[:n], domain)
            current = {(k.params.a, k.params.b) for k in res.candidates}
            assert (snapped.a, snapped.b) in current
            if previous is not None:
                assert current <= previous
            previous = current


def test_criterion_09_sensitivity_sanity():
    with criterion(9, "zero-delta key sensitivity and table-wide plaintext sensitivity"):
        assert key_sensitivity(b"some message", ARNOLD_KEY, delta=0.0) == 0.0
        from chaoscrypt.analysis import builtin_spec_path, load_report_spec
        triples = load_report_spec(builtin_spec_path("table1_arnold"))
        values = []
        for text, key, _domain in triples:
            pct = plaintext_sensitivity(text.encode(), key, default_config(key.kind))
            assert 0.0 <= pct <= 100.0
            values.append(pct)
        lo_ref, hi_ref = REFERENCE_PT_SENSITIVITY_BAND[MapKind.ARNOLD]
        print(f"  plaintext sensitivity over the 20 table keys: "
              f"min={min(values):.4f}% max={max(values):.4f}% "
              f"(reference band {lo_ref}-{hi_ref}%)")


def test_criterion_10_report_structure(tmp_path, capsys):
    with criterion(10, "full 20-row reports and comparison table (<10min)"):
        start = time.perf_counter()
        table1 = tmp_path / "table1.csv"
        table2 = tmp_path / "table2.csv"
        assert cli_main(["report", "--spec", "table1_arnold",
                         "--out", str(table1)]) == 0
        assert cli_main(["report", "--spec", "table2_duffing",
                         "--out", str(table2)]) == 0
        comparison = tmp_path / "comparison.csv"
        assert cli_main(["compare", "--arnold", str(table1),
                         "--duffing", str(table2), "--out", str(comparison)]) == 0
        capsys.readouterr()

        import csv
        for path in (table1, table2):
            with open(path, newline="") as f:
                records = list(csv.reader(f))
            assert records[0] == REPORT_HEADER
            assert len(records) == 21
            for rec in records[1:]:
                identifiable, robust, brute = rec[12], rec[13], rec[14]
                assert identifiable in ("I", "NI")
                assert robust in ("R", "NR")
                assert brute == ("YES" if identifiable == "I" else "NO")

        lines = comparison.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].endswith(",no") and lines[2].endswith(",no")
        elapsed = time.perf_counter() - start
        print(f"  both reports plus comparison in {elapsed:.1f}s")
        assert elapsed < 600.0, f"took {elapsed:.3f} s; the bound is 600.0 s"


def test_criterion_11_cli_roundtrip(tmp_path):
    with criterion(11, "1 MiB file roundtrip and documented CLI exit codes"):
        key_path = tmp_path / "key.json"
        save_key(ARNOLD_KEY, key_path)
        plain = tmp_path / "plain.bin"
        plain.write_bytes(random.Random(8).randbytes(1 << 20))
        ct = tmp_path / "ct.hex"
        back = tmp_path / "back.bin"

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "chaoscrypt", *argv],
                                  capture_output=True, text=True)

        proc = run("encrypt", "--in", str(plain), "--out", str(ct),
                   "--key", str(key_path))
        assert proc.returncode == 0, proc.stderr
        proc = run("decrypt", "--in", str(ct), "--out", str(back),
                   "--key", str(key_path))
        assert proc.returncode == 0, proc.stderr
        assert back.read_bytes() == plain.read_bytes()

        bad = tmp_path / "bad.hex"
        bad.write_text("0a0b0czz")
        proc = run("decrypt", "--in", str(bad), "--out", str(tmp_path / "x.bin"),
                   "--key", str(key_path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

        proc = run("encrypt", "--in", str(plain), "--out", str(tmp_path / "y.hex"),
                   "--key", str(key_path), "--domain", "0,0,0.1,0.1")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
