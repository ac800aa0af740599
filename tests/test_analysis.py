"""Tests for the cryptanalysis procedures."""

import concurrent.futures
import csv
import io
import multiprocessing
import os
import random
import re
import time
from dataclasses import replace
from pathlib import Path

import pytest

from chaoscrypt import analysis, cipher
from chaoscrypt.analysis import (
    BRUTE_FORCE_FLOOR,
    FULL_KEY_DOMAIN,
    KEY_SPACE_RESOLUTION,
    REFERENCE_KEY_SPACE,
    REPORT_HEADER,
    AnalysisRow,
    KeyDomain,
    analysis_report,
    builtin_spec_path,
    compare_ciphers,
    hamming_bits,
    identifiability_scan,
    key_sensitivity,
    key_space_size,
    known_plaintext_attack,
    load_report_spec,
    plaintext_sensitivity,
    read_report_csv,
    write_comparison_csv,
    write_report_csv,
)
from chaoscrypt.cipher import Key, decrypt, default_config, encrypt_bytes
from chaoscrypt.maps import (
    DivergenceError,
    DomainError,
    MapKind,
    MapParams,
    State,
    divergence_measure,
    iterate,
    signed_mod,
    trajectory,
)

from oracles import START, oracle_matches, oracle_matching_set, oracle_symbols

ARNOLD_KEY = Key(MapKind.ARNOLD, MapParams(-4.0, 0.5, 1.0))
DUFFING_KEY = Key(MapKind.DUFFING, MapParams(2.75, 0.1))


# --- key space ------------------------------------------------------------

def test_key_space_point_domain_counts_one():
    dom = KeyDomain(MapKind.ARNOLD, (1.0, 2.0), (1.0, 2.0))
    assert key_space_size(dom, 1e-8) == 1
    assert dom.size() == 1


def test_key_space_published_domains():
    arnold = key_space_size(FULL_KEY_DOMAIN[MapKind.ARNOLD], KEY_SPACE_RESOLUTION)
    assert 4.0e16 <= arnold <= 5.5e16
    duffing = key_space_size(FULL_KEY_DOMAIN[MapKind.DUFFING], KEY_SPACE_RESOLUTION)
    assert 8.0e15 <= duffing <= 9.5e15
    # the published Duffing figure is an order of magnitude below the
    # computed grid count; reports must flag that
    assert duffing / REFERENCE_KEY_SPACE[MapKind.DUFFING] > 2.0
    assert arnold < BRUTE_FORCE_FLOOR and duffing < BRUTE_FORCE_FLOOR


def test_key_space_is_multiplicative():
    dom = KeyDomain(MapKind.DUFFING, (0.0, 0.0), (0.01, 0.002), 1e-3)
    na, nb = dom.axis_counts()
    assert (na, nb) == (11, 3)
    assert key_space_size(dom, 1e-3) == 33


def test_key_space_rejects_bad_inputs():
    with pytest.raises(DomainError):
        KeyDomain(MapKind.ARNOLD, (1.0, 0.0), (0.0, 1.0))
    dom = KeyDomain(MapKind.ARNOLD, (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(DomainError):
        key_space_size(dom, 0.0)
    with pytest.raises(DomainError):
        key_space_size(dom, -1e-3)


def test_grid_counts_survive_decimal_increments():
    # 0.003 / 0.0001 lands just below 30 in binary floating point
    dom = KeyDomain(MapKind.ARNOLD, (0.0, 0.0), (0.003, 0.004), 1e-4)
    assert dom.axis_counts() == (31, 41)


def test_domain_snap_clamps_and_rounds():
    dom = KeyDomain(MapKind.ARNOLD, (0.0, 0.0), (0.005, 0.004), 1e-4)
    snapped = dom.snap(MapParams(0.00342, 0.00131, 1.0))
    assert snapped == dom.params_at(34, 13)
    below = dom.snap(MapParams(-1.0, 99.0, 1.0))
    assert below == dom.params_at(0, 40)


@pytest.mark.parametrize("a", [-1e308, 1e308])
@pytest.mark.parametrize("b", [-1e308, 1e308])
def test_domain_snap_clamps_keys_whose_index_overflows(a, b):
    # (a - lower) / increment is infinite for these keys; the corner of the
    # box on their side is the nearest grid key
    dom = KeyDomain(MapKind.ARNOLD, (-4.001, 0.499), (-3.999, 0.501), 1e-4)
    na, nb = dom.axis_counts()
    assert dom.snap(MapParams(a, b, 1.0)) == dom.params_at(0 if a < 0 else na - 1,
                                                           0 if b < 0 else nb - 1)


# Values that no number argument takes: an int beyond the float range,
# where math.isfinite raises OverflowError, a string and None, where it
# raises TypeError, and a bool, which it reads as 0 or 1.
HUGE = 10 ** 400
NOT_NUMBERS = (HUGE, -HUGE, "x", None, True)
ARNOLD_BOX = ((-4.0, 0.5), (-3.9, 0.6))


@pytest.mark.parametrize("build, message, values", [
    (lambda v: MapParams(v, 0.5), "a must be finite, got {!r}", NOT_NUMBERS),
    (lambda v: MapParams(-4.0, v), "b must be finite, got {!r}", NOT_NUMBERS),
    (lambda v: MapParams(-4.0, 0.5, v), "n_modulus must be finite and > 0, got {!r}",
     NOT_NUMBERS),
    (lambda v: State(v, 0.0), "x must be finite, got {!r}", NOT_NUMBERS),
    (lambda v: State(0.0, v), "y must be finite, got {!r}", NOT_NUMBERS),
    (lambda v: replace(default_config(MapKind.ARNOLD), quant_scale=v),
     "config field 'quant_scale' must be finite and > 0, got {!r}", NOT_NUMBERS),
    (lambda v: replace(default_config(MapKind.ARNOLD), reinject_gain=v),
     "config field 'reinject_gain' must be finite, got {!r}", NOT_NUMBERS),
    (lambda v: KeyDomain(MapKind.ARNOLD, (v, 0.5), ARNOLD_BOX[1]),
     "degenerate axis [{}, -3.9]", NOT_NUMBERS),
    (lambda v: KeyDomain(MapKind.ARNOLD, ARNOLD_BOX[0], (-3.9, v)),
     "degenerate axis [0.5, {}]", NOT_NUMBERS),
    (lambda v: KeyDomain(MapKind.ARNOLD, *ARNOLD_BOX, v),
     "axis step must be finite and > 0, got {!r}", NOT_NUMBERS),
    (lambda v: key_space_size(KeyDomain(MapKind.ARNOLD, *ARNOLD_BOX), v),
     "axis step must be finite and > 0, got {!r}", NOT_NUMBERS),
    (lambda v: key_sensitivity("hello", ARNOLD_KEY, delta=v), "delta must be finite, got {!r}",
     NOT_NUMBERS),
    (lambda v: signed_mod(v, 3.0), "dividend must be finite, got {!r}", NOT_NUMBERS),
    (lambda v: signed_mod(5.0, v), "divisor must be finite and > 0, got {!r}", NOT_NUMBERS),
    (lambda v: divergence_measure(MapKind.ARNOLD, State(0.5, 0.06), v, ARNOLD_KEY.params, 5),
     "delta must be finite and > 0, got {!r}", NOT_NUMBERS),
    # two bounds a float holds, whose difference it does not
    (lambda _: KeyDomain(MapKind.ARNOLD, (-10 ** 308, 0.0), (10 ** 308, 1.0)),
     "has too many steps of 0.0001", (None,)),
    # refused before the first row; None is the report's default, each
    # row's increment
    (lambda v: analysis_report([("hello", ARNOLD_KEY, KeyDomain(MapKind.ARNOLD, *ARNOLD_BOX))],
                               key_delta=v),
     "key_delta must be finite, got {!r}", (HUGE, -HUGE, "x", True)),
], ids=["a", "b", "n_modulus", "x", "y", "quant_scale", "reinject_gain", "domain lower",
        "domain upper", "increment", "resolution", "key delta", "dividend", "divisor",
        "divergence delta", "int span", "report key delta"])
def test_ints_beyond_the_float_range_are_domain_errors(build, message, values):
    # each is one DomainError naming the argument and the value, as inf is
    for value in values:
        with pytest.raises(DomainError, match=re.escape(message.format(value))):
            build(value)


# --- sensitivities ---------------------------------------------------------

def test_plaintext_sensitivity_range_and_self_zero():
    pct = plaintext_sensitivity(b"Sita is singing very well.", ARNOLD_KEY)
    assert 0.0 <= pct <= 100.0
    c1 = encrypt_bytes(b"hello", ARNOLD_KEY)
    assert hamming_bits(c1, c1) == 0
    assert hamming_bits(b"\x00\xff", b"\x0f\xf0") == 8
    with pytest.raises(DomainError, match="equal-length"):
        hamming_bits(b"a", b"ab")


def _scan(**kwargs):
    return identifiability_scan(b"ab", ARNOLD_KEY, KeyDomain(MapKind.ARNOLD, *ARNOLD_BOX),
                                **kwargs)


@pytest.mark.parametrize("count", [2.5, True, "x"])
@pytest.mark.parametrize("call, name", [
    (lambda n: plaintext_sensitivity(b"ab", ARNOLD_KEY, None, n), "flip_bit"),
    (lambda n: _scan(compare_len=n), "compare_len"),
    (lambda n: analysis_report([], flip_bit=n), "flip_bit"),
    (lambda n: analysis_report([], compare_len=n), "compare_len"),
    (lambda n: analysis_report([], kpa_prefix_len=n), "kpa_prefix_len"),
    (lambda n: iterate(MapKind.ARNOLD, State(0.5, 0.06), ARNOLD_KEY.params, n), "n"),
    (lambda n: trajectory(MapKind.ARNOLD, State(0.5, 0.06), ARNOLD_KEY.params, n), "n"),
    (lambda n: divergence_measure(MapKind.ARNOLD, State(0.5, 0.06), 1e-9, ARNOLD_KEY.params, n),
     "n"),
    (lambda n: _scan(workers=n), "workers"),
    (lambda n: _scan(iteration_value=n), "iteration_value"),
    (lambda n: analysis_report([], workers=n), "workers"),
    (lambda n: analysis_report([], iteration_values=(2, n)), "iteration_value"),
], ids=["plaintext_sensitivity", "identifiability_scan", "report_flip_bit",
        "report_compare_len", "report_kpa_prefix_len", "iterate", "trajectory",
        "divergence_measure", "identifiability_scan_workers",
        "identifiability_scan_iteration_value", "report_workers", "report_iteration_values"])
def test_count_arguments_are_ints(call, name, count):
    # a bool is no count, and a float or a string no index: each is one
    # DomainError, the report's before its first row
    with pytest.raises(DomainError, match=f"^{name} must be .*an integer >= ., got {count!r}$"):
        call(count)


def test_plaintext_sensitivity_single_byte_matches_manual_count():
    cfg = default_config(MapKind.DUFFING)
    base = encrypt_bytes(b"A", DUFFING_KEY, cfg)
    flipped = encrypt_bytes(bytes([ord("A") ^ 1]), DUFFING_KEY, cfg)
    expected = 100.0 * bin(base[0] ^ flipped[0]).count("1") / 8
    assert plaintext_sensitivity(b"A", DUFFING_KEY, cfg, flip_bit=0) == expected


def test_plaintext_sensitivity_flip_addressing():
    msg = b"ab"
    cfg = default_config(MapKind.ARNOLD)
    # flipping bit 9 must equal flipping bit 1 of byte 1
    mutated = bytes([msg[0], msg[1] ^ 2])
    expected = 100.0 * hamming_bits(encrypt_bytes(msg, ARNOLD_KEY, cfg),
                                    encrypt_bytes(mutated, ARNOLD_KEY, cfg)) / 16
    assert plaintext_sensitivity(msg, ARNOLD_KEY, cfg, flip_bit=9) == expected
    with pytest.raises(DomainError):
        plaintext_sensitivity(msg, ARNOLD_KEY, cfg, flip_bit=16)
    with pytest.raises(DomainError):
        plaintext_sensitivity(b"", ARNOLD_KEY, cfg)


def test_key_sensitivity_zero_delta_is_zero():
    assert key_sensitivity(b"any text", ARNOLD_KEY, delta=0.0) == 0.0


def test_key_sensitivity_refuses_a_perturbation_that_leaves_the_key_unchanged():
    # -4.0 + 1e-320 rounds back to -4.0: scoring it would read 0% as if
    # the cipher ignored the key
    with pytest.raises(DomainError, match=r"delta 1e-320 leaves a = -4.0 unchanged"):
        key_sensitivity(b"any text", ARNOLD_KEY, delta=1e-320)
    # a delta that moves a is scored
    assert 0.0 <= key_sensitivity(b"any text", ARNOLD_KEY, delta=1e-15) <= 100.0


def test_key_sensitivity_increment_matches_two_encryption_oracle():
    msg = b"Meet me after 5p.m."
    c1 = encrypt_bytes(msg, ARNOLD_KEY)
    c2 = encrypt_bytes(msg, Key(MapKind.ARNOLD, MapParams(-4.0 + 1e-4, 0.5, 1.0)))
    expected = 100.0 * hamming_bits(c1, c2) / (8 * len(msg))
    got = key_sensitivity(msg, ARNOLD_KEY, delta=1e-4)
    assert got == expected
    assert got == pytest.approx(55.921052631578945, rel=1e-12)


def test_key_sensitivity_needs_a_non_empty_plaintext():
    with pytest.raises(DomainError, match="key sensitivity needs a non-empty plaintext"):
        key_sensitivity(b"", DUFFING_KEY)


def test_every_symbol_entry_refuses_another_type_before_encrypting(monkeypatch):
    # bytes and a bytearray are the one symbol form, and the analyses also
    # take a str as its UTF-8; anything else is one DomainError naming its
    # type, raised before any kernel is built or run
    box = KeyDomain(MapKind.ARNOLD, *ARNOLD_BOX, 0.05)
    ciphertext = encrypt_bytes(b"hello", ARNOLD_KEY)
    refusing_str = [
        lambda s: cipher.encrypt(s, ARNOLD_KEY),
        lambda s: cipher.encrypt_bytes(s, ARNOLD_KEY),
        lambda s: cipher.decrypt(s, ARNOLD_KEY),
        lambda s: known_plaintext_attack(s, b"he", box),
        lambda s: hamming_bits(s, s),
    ]
    taking_str = [
        lambda s: plaintext_sensitivity(s, ARNOLD_KEY),
        lambda s: key_sensitivity(s, ARNOLD_KEY),
        lambda s: identifiability_scan(s, ARNOLD_KEY, box),
        lambda s: known_plaintext_attack(ciphertext, s, box),
    ]

    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel was asked for")

    with monkeypatch.context() as patch:
        patch.setattr(cipher, "_kernel", no_kernel)
        for entry, refused in [(entry, (5, [65, 66], "hello")) for entry in refusing_str] + [
                (entry, (5, [65, 66])) for entry in taking_str]:
            for symbols in refused:
                with pytest.raises(DomainError, match=f"^symbols must be bytes or a bytearray, "
                                                      f"not {type(symbols).__name__}$"):
                    entry(symbols)
    for entry in refusing_str + taking_str:
        want = entry(b"hello")
        assert entry(bytearray(b"hello")) == want
        if entry in taking_str:
            assert entry("hello") == want


# --- identifiability --------------------------------------------------------

def test_singleton_domain_is_identifiable():
    dom = KeyDomain(MapKind.ARNOLD, (-4.0, 0.5), (-4.0, 0.5))
    res = identifiability_scan(b"What is your name?", ARNOLD_KEY, dom)
    assert res.identifiable
    assert res.verdict == "I"
    assert res.matching_keys == [res.true_key]
    assert res.grid_size == 1


def test_report_records_an_overflowing_orbit_as_a_row_error():
    # 2x + y overflows in the first step of every key from this start
    cfg = replace(default_config(MapKind.ARNOLD), initial_state=State(1e308, 0.0))
    dom = KeyDomain(MapKind.ARNOLD, (-4.001, 0.499), (-3.999, 0.501), 1e-3)
    (row,) = analysis_report([("overflow", ARNOLD_KEY, dom)], cfg)
    assert row.error.startswith("encrypt: orbit diverged while processing symbol 0")
    assert "identifiability: orbit diverged" in row.error
    # no phase that gives a verdict ran to its end
    assert (row.identifiable, row.robust_kpa, row.brute_force_secret) == ("", "", "")


def test_report_row_at_a_tiny_increment_is_an_error_on_one_short_log_line():
    # at increment 1e-300 the key delta rounds away and the grid has a
    # 598-digit number of keys: both are row errors, and the log line
    # names the grid size in a few characters
    dom = KeyDomain(MapKind.ARNOLD, (-4.0, 0.5), (-3.9, 0.6), 1e-300)
    lines = []
    (row,) = analysis_report([("hello world", ARNOLD_KEY, dom)], log=lines.append)
    assert row.error.startswith("key_sensitivity: delta 1e-300 leaves a = -4.0 unchanged; ")
    assert "; identifiability: grid of over 10^598 keys exceeds the scan cap" in row.error
    assert "; attack: grid of over 10^598 keys exceeds the scan cap" in row.error
    (line,) = lines
    assert " grid=over 10^598 " in line
    assert "identifiability, attack: grid of over 10^598 keys" in line
    assert len(line) < 300


def test_report_leaves_the_verdicts_of_phases_that_did_not_run_empty():
    # neither scan runs on a grid over the cap: the row claims no verdict,
    # its CSV cells stay empty, and compare counts it as neither
    # identifiable nor robust
    dom = KeyDomain(MapKind.ARNOLD, (-4.0, 0.5), (-3.9, 0.6), 1e-300)
    (row,) = analysis_report([("hello world", ARNOLD_KEY, dom)])
    assert (row.identifiable, row.robust_kpa, row.brute_force_secret) == ("", "", "")
    buf = io.StringIO()
    write_report_csv([row], buf)
    assert buf.getvalue().splitlines()[1].endswith(",1e-300,,,")
    buf.seek(0)
    (parsed,) = read_report_csv(buf, MapKind.ARNOLD)
    assert (parsed.identifiable, parsed.robust_kpa, parsed.brute_force_secret) == ("", "", "")
    summary, _ = compare_ciphers([parsed], [parsed])
    assert (summary.identifiable_keys, summary.robust_keys) == (0, 0)
    assert not (summary.any_identifiable or summary.any_robust)


def test_failed_attack_leaves_the_identifiability_verdicts():
    # the scan at prefix length 0 is refused; identifiability still ran
    dom = KeyDomain(MapKind.ARNOLD, (-4.001, 0.499), (-3.999, 0.501), 1e-3)
    (row,) = analysis_report([("hello", ARNOLD_KEY, dom)], kpa_prefix_len=0)
    assert row.error.startswith("attack: ")
    assert row.robust_kpa == ""
    assert row.identifiable in ("I", "NI")
    assert row.brute_force_secret == ("YES" if row.identifiable == "I" else "NO")


def spy_report_passes(monkeypatch):
    """The (n1, n2) of each query of each grid pass that analysis_report
    makes, one list per pass in the order the jobs were given."""
    passes, matching_keys = [], analysis._matching_keys

    def spy(domain, scan_cfg, jobs, *args):
        passes.append([(n1, n2) for (_, _, n1, n2), _ in jobs])
        return matching_keys(domain, scan_cfg, jobs, *args)

    monkeypatch.setattr(analysis, "_matching_keys", spy)
    return passes


def box_around(key, cells, increment):
    """The cells x cells grid at increment whose middle key is key."""
    a, b = key.params.a, key.params.b
    half = (cells - 1) // 2 * increment
    return KeyDomain(key.kind, (a - half, b - half), (a + half, b + half), increment)


@pytest.mark.parametrize("key, text", [(ARNOLD_KEY, "ab"), (DUFFING_KEY, "hello")],
                         ids=["arnold", "duffing"])
def test_report_scans_a_later_iteration_value_alone(monkeypatch, key, text):
    # at iteration value 2 other keys of this 25-key box match the true
    # key's output (NI), at 3 none does: the row reads I, as any() of the
    # separate scans does, after the fused pass and one scan at 3 alone
    dom = box_around(key, 5, 1e-11)
    scans = [identifiability_scan(text, key, dom, iteration_value=iv) for iv in (2, 3)]
    assert [scan.verdict for scan in scans] == ["NI", "I"]
    assert len(scans[0].matching_keys) > 1
    passes = spy_report_passes(monkeypatch)
    (row,) = analysis_report([(text, key, dom)])
    assert passes == [[(2, 2), (3, 3)], [(3, 3)]]
    assert (row.identifiable, row.brute_force_secret, row.error) == ("I", "YES", None)
    assert row.robust_kpa in ("R", "NR")


def test_report_scans_every_iteration_value_of_a_row_that_stays_unidentifiable(monkeypatch):
    # a constant quantizer: every key emits the same symbols at any value
    dom = KeyDomain(MapKind.ARNOLD, (-4.001, 0.499), (-3.999, 0.501), 1e-3)
    cfg = replace(default_config(MapKind.ARNOLD), quant_scale=1e-300)
    passes = spy_report_passes(monkeypatch)
    (row,) = analysis_report([("abcdefgh", ARNOLD_KEY, dom)], cfg)
    assert passes == [[(2, 2), (3, 3)], [(3, 3)]]
    assert (row.identifiable, row.robust_kpa, row.brute_force_secret) == ("NI", "R", "NO")
    assert row.error is None


@pytest.mark.parametrize("kpa_prefix_len", [2, 0])
def test_report_failing_later_iteration_value_leaves_identifiability_empty(
        monkeypatch, kpa_prefix_len):
    # NI at value 2, and the job at value 3 raises: the row claims no
    # identifiability verdict, and the attack's stands. With the attack
    # refused too, the row's error still names the phases in phase order.
    key, text = ARNOLD_KEY, "ab"
    dom = box_around(key, 5, 1e-11)
    identification = analysis._identification

    def failing_at_3(plaintext, true_key, domain, cfg, iteration_value, compare_len):
        if iteration_value == 3:
            raise DivergenceError("orbit diverged at value 3")
        return identification(plaintext, true_key, domain, cfg, iteration_value, compare_len)

    monkeypatch.setattr(analysis, "_identification", failing_at_3)
    (row,) = analysis_report([(text, key, dom)], kpa_prefix_len=kpa_prefix_len)
    assert (row.identifiable, row.brute_force_secret) == ("", "")
    if kpa_prefix_len:
        assert row.robust_kpa in ("R", "NR")
        assert row.error == "identifiability: orbit diverged at value 3"
    else:
        assert row.robust_kpa == ""
        assert row.error == ("identifiability: orbit diverged at value 3; "
                             "attack: known-plaintext attack needs a non-empty prefix")


def test_report_without_iteration_values_leaves_identifiability_empty(monkeypatch):
    # no identifiability scan ran, so the row claims no verdict; the
    # attack scans alone
    dom = KeyDomain(MapKind.ARNOLD, (-4.001, 0.499), (-3.999, 0.501), 1e-3)
    passes = spy_report_passes(monkeypatch)
    (row,) = analysis_report([("hello", ARNOLD_KEY, dom)], iteration_values=())
    assert passes == [[(3, 3)]]
    assert (row.identifiable, row.brute_force_secret) == ("", "")
    assert row.robust_kpa in ("R", "NR")
    assert row.error is None


def test_constant_quantizer_defeats_identifiability():
    # a quant_scale so small that floor(|x| * scale) is 0 for every state
    # in the box makes every grid key emit the same symbols
    dom = KeyDomain(MapKind.ARNOLD, (-4.001, 0.499), (-3.999, 0.501), 1e-3)
    cfg = replace(default_config(MapKind.ARNOLD), quant_scale=1e-300)
    res = identifiability_scan(b"abcdefgh", ARNOLD_KEY, dom, cfg)
    assert not res.identifiable
    assert res.verdict == "NI"
    assert len(res.matching_keys) == dom.size() == 9


def test_snapped_key_always_in_matching_set():
    rng = random.Random(77)
    for _ in range(10):
        a0 = rng.uniform(-4.5, -1.1)
        b0 = rng.uniform(0.45, 1.4)
        dom = KeyDomain(MapKind.ARNOLD, (a0, b0), (a0 + 0.003, b0 + 0.003), 1e-3)
        key = Key(MapKind.ARNOLD, MapParams(a0 + rng.uniform(0, 0.003),
                                            b0 + rng.uniform(0, 0.003), 1.0))
        res = identifiability_scan(b"reflexivity", key, dom)
        assert res.true_key in res.matching_keys


def test_longer_comparison_never_enlarges_matching_set():
    # a tiny quantizer forces collisions at short comparison lengths
    dom = KeyDomain(MapKind.ARNOLD, (-4.002, 0.498), (-3.998, 0.502), 1e-3)
    cfg = replace(default_config(MapKind.ARNOLD), quant_scale=3.0)
    text = b"monotone matching"
    previous = None
    for n in (1, 2, 4, 8):
        res = identifiability_scan(text, ARNOLD_KEY, dom, cfg, compare_len=n)
        current = {(k.params.a, k.params.b) for k in res.matching_keys}
        if previous is not None:
            assert current <= previous
        previous = current


def usable_cpus(monkeypatch, count):
    """Make scans see count usable CPUs, so that a test that must start a
    pool starts one on any runner."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_scan_result_is_worker_invariant(monkeypatch, method):
    # 441 keys: short pool chunks, so that workers=3 runs the pool, under
    # each start method the platform offers (Python 3.14 makes forkserver
    # the Linux default, where earlier versions fork)
    started, pool = [], concurrent.futures.ProcessPoolExecutor

    def pool_of(max_workers):
        started.append(max_workers)
        return pool(max_workers=max_workers, mp_context=multiprocessing.get_context(method))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool_of)
    monkeypatch.setattr(analysis, "_MAX_POOL_CHUNK", 64)
    usable_cpus(monkeypatch, 3)
    dom = KeyDomain(MapKind.ARNOLD, (-4.001, 0.499), (-3.999, 0.501), 1e-4)
    serial = identifiability_scan(b"parallel check", ARNOLD_KEY, dom, workers=1)
    parallel = identifiability_scan(b"parallel check", ARNOLD_KEY, dom, workers=3)
    assert started == [3]
    assert serial == parallel


def test_pool_size_is_capped_by_cpus_and_tiles(monkeypatch):
    # 441 keys in 64-key pool chunks on 4 CPUs: workers=3 asks for a pool
    # of 3, and no request asks for more processes than there are CPUs, or
    # than the two pool chunks of a 100-key grid. The spy records each
    # pool's size and starts no process.
    asked = []

    def spy_pool(max_workers):
        asked.append(max_workers)
        raise RuntimeError("a pool was asked for")

    monkeypatch.setattr(analysis, "_MAX_POOL_CHUNK", 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy_pool)
    usable_cpus(monkeypatch, 4)
    dom = KeyDomain(MapKind.ARNOLD, (-4.001, 0.499), (-3.999, 0.501), 1e-4)
    small = KeyDomain(MapKind.ARNOLD, (-4.0, 0.5), (-3.9991, 0.5009), 1e-4)
    assert small.size() == 100
    for domain, workers in ((dom, 3), (dom, 10 ** 5), (FULL_KEY_DOMAIN[MapKind.ARNOLD], 10 ** 5),
                            (small, 3)):
        with pytest.raises(RuntimeError, match="a pool was asked for"):
            identifiability_scan(b"capped", ARNOLD_KEY, domain, workers=workers)
    assert asked == [3, 4, 4, 2]


def test_small_grid_scans_without_a_pool(monkeypatch):
    # a grid of at most _MAX_POOL_CHUNK keys is one pool chunk: no pool,
    # though there are CPUs for two workers
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    usable_cpus(monkeypatch, 2)
    side = 256
    span = (side - 1) * 1e-4
    dom = KeyDomain(MapKind.ARNOLD, (-4.0, 0.5), (-4.0 + span, 0.5 + span), 1e-4)
    assert dom.size() == analysis._MAX_POOL_CHUNK
    serial = identifiability_scan(b"no pool", ARNOLD_KEY, dom, workers=1)
    assert identifiability_scan(b"no pool", ARNOLD_KEY, dom, workers=2) == serial


def test_serial_scan_of_up_to_the_tile_cap_is_one_scanner_call(monkeypatch):
    # the key census's Arnold box: 456 rows of 123 keys, one tile serially
    dom = replace(FULL_KEY_DOMAIN[MapKind.ARNOLD], increment=0.009)
    assert dom.size() == 56088 <= analysis._MAX_POOL_CHUNK
    calls, real_scan = [], analysis._scan_grid

    def scan(*args):
        calls.append(args)
        return real_scan(*args)

    monkeypatch.setattr(analysis, "_scan_grid", scan)
    done = []
    identifiability_scan(b"census", ARNOLD_KEY, dom, on_progress=lambda *n: done.append(n))
    known_plaintext_attack(encrypt_bytes(b"census", ARNOLD_KEY), b"ce", dom,
                           on_progress=lambda *n: done.append(n))
    assert len(calls) == 2
    assert done == [(dom.size(), dom.size())] * 2


def test_scans_refuse_grids_over_the_cap(monkeypatch):
    # 3 x 4 keys: scanned at a cap of 12, refused before any work at 11
    dom = KeyDomain(MapKind.ARNOLD, (-4.0, 0.5), (-3.998, 0.503), 1e-3)
    assert dom.size() == 12
    monkeypatch.setattr(analysis, "_MAX_SCAN_KEYS", 12)
    assert identifiability_scan(b"cap", ARNOLD_KEY, dom).grid_size == 12
    monkeypatch.setattr(analysis, "_MAX_SCAN_KEYS", 11)
    monkeypatch.setattr(analysis, "_scan_grid", None)
    with pytest.raises(DomainError, match="grid of 12 keys exceeds the scan cap of 11"):
        identifiability_scan(b"cap", ARNOLD_KEY, dom)
    with pytest.raises(DomainError, match="grid of 12 keys exceeds the scan cap of 11"):
        known_plaintext_attack(b"cap", b"c", dom)


def test_scan_validates_inputs():
    dom = KeyDomain(MapKind.ARNOLD, (-4.0, 0.5), (-4.0, 0.5))
    with pytest.raises(DomainError):
        identifiability_scan(b"", ARNOLD_KEY, dom)
    with pytest.raises(DomainError):
        identifiability_scan(b"ok", DUFFING_KEY, dom)
    with pytest.raises(DomainError):
        identifiability_scan(b"ok", ARNOLD_KEY, dom, iteration_value=0)
    with pytest.raises(DomainError):
        identifiability_scan(b"ok", ARNOLD_KEY, dom, compare_len=3)
    # counts out of range, each named: a scan's, and the report's before
    # its first row
    for name, value in (("workers", 0), ("iteration_value", 1001)):
        with pytest.raises(DomainError, match=f"^{name} must be .*, got {value}$"):
            identifiability_scan(b"ok", ARNOLD_KEY, dom, **{name: value})
    for name, kwargs in (("workers", {"workers": 0}), ("workers", {"workers": -1}),
                         ("iteration_value", {"iteration_values": (0,)}),
                         ("iteration_value", {"iteration_values": (2, 1001)})):
        with pytest.raises(DomainError, match=f"^{name} must be "):
            analysis_report([("ok", ARNOLD_KEY, dom)], **kwargs)


def random_box(rng, kind):
    """A small random box inside the kind's full key domain, with a coarse
    increment at times, so that many Duffing boxes are mostly divergent."""
    full = FULL_KEY_DOMAIN[kind]
    inc = rng.choice((1e-4, 1e-3, 5e-3))
    na, nb = rng.randint(1, 13), rng.randint(1, 13)
    lo = (rng.uniform(full.lower[0], full.upper[0] - na * inc),
          rng.uniform(full.lower[1], full.upper[1] - nb * inc))
    return lo, (lo[0] + (na - 1) * inc, lo[1] + (nb - 1) * inc), inc


# two fixed 12x12 Duffing boxes on top of the random ones: on the test
# text, 38-96% and 97-100% of their keys diverge at iteration values 1-3
DIVERGENT_DUFFING_BOXES = [((2.845, 0.145), (2.9, 0.2), 5e-3),
                           ((2.645, -0.5), (2.7, -0.445), 5e-3)]


@pytest.mark.parametrize("iters", [1, 2, 3])
@pytest.mark.parametrize("kind", list(MapKind))
def test_scans_match_flat_oracles_on_random_grids(kind, iters):
    rng = random.Random(f"scanner-{kind.value}-{iters}")
    text = b"Scanner check!"
    boxes = [random_box(rng, kind) for _ in range(4)]
    if kind is MapKind.DUFFING:
        boxes += DIVERGENT_DUFFING_BOXES
    diverged = 0
    for lo, hi, inc in boxes:
        dom = KeyDomain(kind, lo, hi, inc)
        true_ab = (rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1]))
        key = Key(kind, MapParams(*true_ab))
        try:
            snapped, hits = oracle_matching_set(kind, lo, hi, inc, 1.0, true_ab,
                                                text[:8], iters)
        except OverflowError:
            with pytest.raises(DivergenceError):
                identifiability_scan(text, key, dom, iteration_value=iters)
        else:
            res = identifiability_scan(text, key, dom, iteration_value=iters)
            assert (res.true_key.params.a, res.true_key.params.b) == snapped
            assert [(k.params.a, k.params.b) for k in res.matching_keys] == hits
            assert res.identifiable == (hits == [snapped])

        # a coarse quantizer makes many keys collide on the known prefix, and
        # one that is 0 on the whole box makes every key match until its
        # orbit diverges
        quant = rng.choice((1e6, 7.0, 1e-300))
        cfg = replace(default_config(kind), n1=iters, n2=iters, quant_scale=quant)
        prefix = text if quant == 1e-300 else text[:rng.randint(1, 3)]
        # observed output of a random non-divergent grid key, if one is found
        ciphertext = bytes(rng.randrange(256) for _ in text)
        grid = [(p.a, p.b) for p in dom.grid_params()]
        for ab in rng.sample(grid, min(len(grid), 5)):
            try:
                ciphertext = bytes(oracle_symbols(text, kind, *ab, 1.0, iters, quant))
                break
            except OverflowError:
                diverged += 1
        expected = oracle_matches(kind, lo, hi, inc, 1.0, prefix, ciphertext[:len(prefix)],
                                  *START[kind], iters, iters, quant)
        res = known_plaintext_attack(ciphertext, prefix, dom, cfg)
        assert [(k.params.a, k.params.b) for k in res.candidates] == expected
    if kind is MapKind.DUFFING:
        assert diverged > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_scans_match_oracles_when_chunks_start_mid_row(monkeypatch, workers):
    # 3 rows of 5000 keys: wider than the 2048-key tile cap, so each row is
    # cut into column ranges, serially at columns 2048 and 4096. Short pool
    # chunks, so that workers=2 runs the pool, in tiles of 1875 columns.
    monkeypatch.setattr(analysis, "_MAX_POOL_CHUNK", 2048)
    usable_cpus(monkeypatch, 2)
    lo, hi, inc = (-4.0002, 0.5), (-4.0, 0.9999), 1e-4
    dom = KeyDomain(MapKind.ARNOLD, lo, hi, inc)
    assert dom.axis_counts() == (3, 5000)
    text = b"Meet me after 5p.m."
    true_ab = (-4.0001, 0.5031)
    key = Key(MapKind.ARNOLD, MapParams(*true_ab))
    snapped, hits = oracle_matching_set(MapKind.ARNOLD, lo, hi, inc, 1.0, true_ab,
                                        text[:8], 3)
    res = identifiability_scan(text, key, dom, workers=workers)
    assert [(k.params.a, k.params.b) for k in res.matching_keys] == hits
    # one known symbol: about one key in 256 matches, on both sides of each cut
    ciphertext = encrypt_bytes(text, key)
    expected = oracle_matches(MapKind.ARNOLD, lo, hi, inc, 1.0, text[:1], ciphertext[:1],
                              *START[MapKind.ARNOLD])
    res = known_plaintext_attack(ciphertext, text[:1], dom, workers=workers)
    candidates = [(k.params.a, k.params.b) for k in res.candidates]
    assert candidates == expected
    columns = [round((b - lo[1]) / inc) for _, b in candidates]
    assert min(columns) < 1875 and max(columns) >= 4096


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pooled_scans_in_short_chunks_match_oracles(monkeypatch, workers):
    # 97-key pool chunks cut the 70 rows of 61 keys into one-row tiles
    monkeypatch.setattr(analysis, "_MAX_POOL_CHUNK", 97)
    usable_cpus(monkeypatch, 3)
    lo, hi, inc = (-4.0069, 0.5), (-4.0, 0.506), 1e-4
    dom = KeyDomain(MapKind.ARNOLD, lo, hi, inc)
    text = b"Meet me after 5p.m."
    key = Key(MapKind.ARNOLD, MapParams(-4.0012, 0.5031))
    ciphertext = encrypt_bytes(text, key)
    expected = oracle_matches(MapKind.ARNOLD, lo, hi, inc, 1.0, text[:1], ciphertext[:1],
                              *START[MapKind.ARNOLD])
    done = []
    res = known_plaintext_attack(ciphertext, text[:1], dom, workers=workers,
                                 on_progress=lambda n, total: done.append(n))
    assert [(k.params.a, k.params.b) for k in res.candidates] == expected
    # progress counts whole tiles: one row each, serially as in the pool
    assert done == list(range(61, dom.size() + 1, 61))


def test_interrupted_pooled_scan_stops_early(monkeypatch):
    # 4.2e6 keys in 64 pool chunks of 65536: after the first chunk comes
    # back, only the chunks already running may finish
    usable_cpus(monkeypatch, 2)
    side = 2048
    span = (side - 1) * 1e-4
    dom = KeyDomain(MapKind.ARNOLD, (-5.0, 0.4), (-5.0 + span, 0.4 + span), 1e-4)
    assert dom.size() == side * side == 64 * analysis._MAX_POOL_CHUNK
    chunk_dom = KeyDomain(MapKind.ARNOLD, (-5.0, 0.4), (-5.0 + 255e-4, 0.4 + 255e-4), 1e-4)
    assert chunk_dom.size() == analysis._MAX_POOL_CHUNK
    start = time.perf_counter()
    identifiability_scan(b"abcdefgh", ARNOLD_KEY, chunk_dom)
    chunk_s = time.perf_counter() - start

    def interrupt(done, total):
        raise KeyboardInterrupt

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        identifiability_scan(b"abcdefgh", ARNOLD_KEY, dom, workers=2, on_progress=interrupt)
    # two workers need at least 32 chunk times for the whole grid
    elapsed = time.perf_counter() - start
    assert elapsed < 16 * chunk_s, (f"took {elapsed:.3f} s; the bound is 16 chunk times of "
                                    f"{chunk_s:.3f} s, {16 * chunk_s:.3f} s")


# Rows whose report pass scans identifiability at the first iteration
# value and the attack together: (key, box, config fields, iteration
# values, the (main, side) schedules of the pass, and the share of keys
# each query sees diverge, as a (low, high) range).
ROW_PASS_CASES = {
    "arnold default": (ARNOLD_KEY, ((-4.0007, 0.4993), (-3.9993, 0.5007), 1e-4), {},
                       (2, 3), ((3, 3), (2, 2)), (0.0, 0.0)),
    "duffing default": (DUFFING_KEY, ((2.7493, 0.0993), (2.7507, 0.1007), 1e-4), {},
                        (2, 3), ((3, 3), (2, 2)), (0.0, 0.0)),
    # identifiability's 2 + 2 steps outnumber the attack's 1 + 1
    "arnold identify main": (ARNOLD_KEY, ((-4.0007, 0.4993), (-3.9993, 0.5007), 1e-4),
                             {"n1": 1, "n2": 1}, (2, 3), ((2, 2), (1, 1)), (0.0, 0.0)),
    "duffing identify main": (DUFFING_KEY, ((2.7493, 0.0993), (2.7507, 0.1007), 1e-4),
                              {"n1": 1, "n2": 1}, (2, 3), ((2, 2), (1, 1)), (0.0, 0.0)),
    # equal step totals with different snapshots: the first query is main
    "arnold equal steps": (ARNOLD_KEY, ((-4.0007, 0.4993), (-3.9993, 0.5007), 1e-4),
                           {"n1": 2, "n2": 4}, (3,), ((3, 3), (2, 4)), (0.0, 0.0)),
    "duffing equal steps": (DUFFING_KEY, ((2.7493, 0.0993), (2.7507, 0.1007), 1e-4),
                            {"n1": 2, "n2": 4}, (3,), ((3, 3), (2, 4)), (0.0, 0.0)),
    # from y = 1e308, the columns from b = 3.0 overflow x + (1 - b) y in
    # their first step: 3 of 15 columns have an empty lifted entry
    "arnold overflowing columns": (ARNOLD_KEY, ((-4.5, 0.0), (-3.5, 3.5), 0.25),
                                   {"initial_state": State(0.5, 1e308)}, (2, 3),
                                   ((3, 3), (2, 2)), (0.2, 0.2)),
    # from y = 1.92 about a sixth of the box diverges within 4 steps and
    # about half within 6, many keys between the side check and the end
    # of symbol 0
    "duffing divergent": (Key(MapKind.DUFFING, MapParams(2.675, 0.1)),
                          ((2.5, -0.3), (2.9, 0.2), 0.025),
                          {"initial_state": State(-0.04, 1.92)}, (2, 3),
                          ((3, 3), (2, 2)), (0.1, 0.6)),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", list(ROW_PASS_CASES))
def test_report_row_pass_matches_separate_scans(monkeypatch, case, workers):
    # the report's one grid pass gives each query what its own scan gives:
    # hits in grid order and the diverged count, at any worker count
    key, (lo, hi, inc), fields, iteration_values, schedules, shares = ROW_PASS_CASES[case]
    dom = KeyDomain(key.kind, lo, hi, inc)
    cfg = replace(default_config(key.kind), **fields)
    text = "Meet me after 5p.m."
    # short pool chunks, so that workers=2 runs the pool
    monkeypatch.setattr(analysis, "_MAX_POOL_CHUNK", 64)
    usable_cpus(monkeypatch, 2)
    passes, scanners = [], []
    matching_keys, kernel = analysis._matching_keys, cipher._kernel

    def spy_matching_keys(domain, scan_cfg, jobs, *args):
        passes.append(matching_keys(domain, scan_cfg, jobs, *args))
        return passes[-1]

    def spy_kernel(kind, template, n1=0, n2=0, side=None, **fill):
        if template is cipher._SCAN:
            scanners.append(((n1, n2), side))
        return kernel(kind, template, n1, n2, side, **fill)

    monkeypatch.setattr(analysis, "_matching_keys", spy_matching_keys)
    monkeypatch.setattr(cipher, "_kernel", spy_kernel)
    (row,) = analysis_report([(text, key, dom)], cfg, iteration_values=iteration_values,
                             workers=workers)
    assert row.error is None
    fused = passes[0]
    if workers == 1:
        assert scanners[0] == schedules
    passes.clear()
    ciphertext = bytes.fromhex(row.ciphertext_hex)
    ident = identifiability_scan(text, key, dom, cfg, iteration_value=iteration_values[0],
                                 workers=workers)
    attack = known_plaintext_attack(ciphertext, text[:2], dom, cfg, workers=workers)
    assert all(len(found) == 1 for found in passes)
    # every field: the hits in grid order, the diverged counts and the verdicts
    assert fused == [ident, attack]
    assert row.robust_kpa == attack.verdict
    for diverged in (ident.diverged, attack.diverged):
        assert shares[0] * dom.size() <= diverged <= shares[1] * dom.size()


def test_report_reproduces_the_packaged_tables():
    # the CSVs the bench checks, byte for byte
    expected = Path(__file__).resolve().parent.parent / "bench" / "expected"
    for table in ("table1_arnold", "table2_duffing"):
        out = io.StringIO(newline="")
        write_report_csv(analysis_report(load_report_spec(builtin_spec_path(table))), out)
        assert out.getvalue().encode("utf-8") == (expected / f"{table}.csv").read_bytes()


def test_scan_honours_every_config_field():
    # n1 != n2, and quantizer, feedback gain, start state and modulus all
    # off their defaults, against the straight-line oracle
    lo, hi, inc, n_mod = (-3.003, 0.7), (-3.0, 0.703), 1e-3, 1.3
    dom = KeyDomain(MapKind.ARNOLD, lo, hi, inc, n_modulus=n_mod)
    cfg = replace(default_config(MapKind.ARNOLD), initial_state=State(0.31, -0.2),
                  n1=2, n2=4, quant_scale=5e4, reinject_gain=0.75)
    text = b"config fields"
    key = Key(MapKind.ARNOLD, dom.params_at(1, 2))
    ciphertext = encrypt_bytes(text, key, cfg)
    for n in (1, 2, len(text)):
        expected = oracle_matches(MapKind.ARNOLD, lo, hi, inc, n_mod, text[:n], ciphertext[:n],
                                  0.31, -0.2, 2, 4, 5e4, 0.75)
        res = known_plaintext_attack(ciphertext, text[:n], dom, cfg)
        assert [(k.params.a, k.params.b) for k in res.candidates] == expected
    # the key's ciphertext is the oracle's: the key matches it in full
    assert (key.params.a, key.params.b) in expected


def test_attack_checks_config_and_prefix_before_scanning():
    dom = KeyDomain(MapKind.ARNOLD, (-4.001, 0.499), (-3.999, 0.501), 1e-3)
    cfg = default_config(MapKind.ARNOLD)
    ciphertext = encrypt_bytes(b"xyz", ARNOLD_KEY)
    with pytest.raises(DomainError, match="n1 and n2"):
        known_plaintext_attack(ciphertext, b"xyz", dom, replace(cfg, n1=0))
    with pytest.raises(DomainError, match="n1 and n2"):
        known_plaintext_attack(ciphertext, b"xyz", dom, replace(cfg, n2=0))


# --- known-plaintext attack --------------------------------------------------

def test_attack_full_prefix_contains_true_key():
    dom = KeyDomain(MapKind.ARNOLD, (-4.0005, 0.4995), (-3.9995, 0.5005), 1e-4)
    assert dom.size() == 121
    msg = b"Meet me after 5p.m."
    ciphertext = encrypt_bytes(msg, ARNOLD_KEY)
    res = known_plaintext_attack(ciphertext, msg, dom)
    # grid values are reconstructed as lo + i * inc, so membership is
    # checked against the snapped key rather than the caller's floats
    assert dom.snap(ARNOLD_KEY.params) in [k.params for k in res.candidates]


def test_attack_candidates_shrink_with_prefix_length():
    dom = KeyDomain(MapKind.ARNOLD, (-4.0005, 0.4995), (-3.9995, 0.5005), 1e-4)
    msg = b"Meet me after 5p.m."
    ciphertext = encrypt_bytes(msg, ARNOLD_KEY)
    previous = None
    for n in (1, 2, 4, 8):
        res = known_plaintext_attack(ciphertext, msg[:n], dom)
        current = {(k.params.a, k.params.b) for k in res.candidates}
        if previous is not None:
            assert current <= previous
        previous = current


def test_attack_unique_candidate_breaks_robustness():
    dom = KeyDomain(MapKind.ARNOLD, (-4.0005, 0.4995), (-3.9995, 0.5005), 1e-4)
    msg = b"Meet me after 5p.m."
    ciphertext = encrypt_bytes(msg, ARNOLD_KEY)
    res = known_plaintext_attack(ciphertext, msg[:2], dom)
    if len(res.candidates) == 1:
        assert res.recovered is not None
        assert not res.robust
        assert res.verdict == "NR"
        from chaoscrypt.cipher import decrypt
        assert decrypt(ciphertext, res.recovered).startswith(msg[:2])
    else:
        assert res.recovered is None and res.robust


def test_attack_with_no_candidates_is_robust():
    # singleton grid that does not contain the true key
    dom = KeyDomain(MapKind.ARNOLD, (-1.0, 1.0), (-1.0, 1.0))
    msg = b"Meet me after 5p.m."
    ciphertext = encrypt_bytes(msg, ARNOLD_KEY)
    res = known_plaintext_attack(ciphertext, msg[:2], dom)
    assert res.candidates == []
    assert res.recovered is None
    assert res.robust
    assert res.verdict == "R"


def test_attack_validates_inputs():
    dom = KeyDomain(MapKind.ARNOLD, (-4.0, 0.5), (-4.0, 0.5))
    ciphertext = encrypt_bytes(b"xy", ARNOLD_KEY)
    with pytest.raises(DomainError):
        known_plaintext_attack(ciphertext, b"", dom)
    with pytest.raises(DomainError):
        known_plaintext_attack(b"", b"xy", dom)


def test_attack_survives_divergent_grid_keys():
    # wide Duffing box full of escaping orbits
    dom = KeyDomain(MapKind.DUFFING, (1.8, -0.59), (1.81, -0.58), 1e-3)
    msg = b"Hello!"
    ciphertext = encrypt_bytes(msg, DUFFING_KEY)
    res = known_plaintext_attack(ciphertext, msg[:2], dom)
    assert res.robust in (True, False)
    # a lone candidate whose full decryption diverges (at symbol 4) is no
    # recovered key: the cipher reads robust
    dom = KeyDomain(MapKind.DUFFING, (2.84, 0.14), (2.844, 0.144), 1e-3)
    res = known_plaintext_attack(bytes(range(64)), b"\x00", dom)
    [candidate] = res.candidates
    assert (candidate.params.a, candidate.params.b) == pytest.approx((2.844, 0.141))
    with pytest.raises(DivergenceError) as diverged:
        decrypt(bytes(range(64)), candidate)
    assert diverged.value.symbol == 4
    assert res.robust and res.verdict == "R"


# --- report and comparison ---------------------------------------------------

def test_report_header_is_pinned():
    assert ",".join(REPORT_HEADER) == (
        "index,plaintext,key_a,key_b,ciphertext_hex,pt_sensitivity_pct,"
        "key_sensitivity_pct,domain_lo_a,domain_lo_b,domain_hi_a,domain_hi_b,"
        "increment,identifiable,robust_kpa,brute_force_secret")


def test_empty_report_spec():
    rows = analysis_report([])
    assert rows == []
    buf = io.StringIO()
    write_report_csv(rows, buf)
    assert buf.getvalue().splitlines() == [",".join(REPORT_HEADER)]


def test_single_row_report_csv_has_two_lines():
    dom = KeyDomain(MapKind.ARNOLD, (-4.0005, 0.4995), (-3.9995, 0.5005), 1e-4)
    rows = analysis_report([("Meet me after 5p.m.", ARNOLD_KEY, dom)])
    assert len(rows) == 1
    row = rows[0]
    assert row.error is None
    assert row.identifiable in ("I", "NI")
    assert row.robust_kpa in ("R", "NR")
    assert row.brute_force_secret == ("YES" if row.identifiable == "I" else "NO")
    assert 0.0 <= row.plaintext_sensitivity_pct <= 100.0
    assert 0.0 <= row.key_sensitivity_pct <= 100.0
    buf = io.StringIO()
    write_report_csv(rows, buf)
    assert len(buf.getvalue().splitlines()) == 2


def test_report_csv_round_trips_through_reader():
    dom = KeyDomain(MapKind.ARNOLD, (-4.0005, 0.4995), (-3.9995, 0.5005), 1e-4)
    rows = analysis_report([("Thank you,sir", ARNOLD_KEY, dom)])
    buf = io.StringIO()
    write_report_csv(rows, buf)
    buf.seek(0)
    parsed = read_report_csv(buf, MapKind.ARNOLD)
    assert len(parsed) == 1
    got, want = parsed[0], rows[0]
    assert got.index == want.index
    assert got.plaintext == want.plaintext  # comma survives quoting
    assert got.key.params.a == want.key.params.a
    assert got.key.params.b == want.key.params.b
    assert got.ciphertext_hex == want.ciphertext_hex
    assert got.plaintext_sensitivity_pct == want.plaintext_sensitivity_pct
    assert got.key_sensitivity_pct == want.key_sensitivity_pct
    assert got.domain == want.domain
    assert (got.identifiable, got.robust_kpa, got.brute_force_secret) == \
        (want.identifiable, want.robust_kpa, want.brute_force_secret)


def test_report_csv_round_trips_a_field_over_csvs_default_limit():
    # a 70 000-byte plaintext has a 140 000-digit ciphertext_hex, over the
    # 131 072 characters csv reads by default; the reader puts its limit back
    dom = KeyDomain(MapKind.ARNOLD, (-4.0005, 0.4995), (-3.9995, 0.5005), 1e-4)
    row = AnalysisRow(1, "x" * 70000, ARNOLD_KEY, dom, "ab" * 70000, 1.25, 48.5, "I", "R", "YES")
    buf = io.StringIO()
    write_report_csv([row], buf)
    limit = csv.field_size_limit()
    assert read_report_csv(io.StringIO(buf.getvalue()), MapKind.ARNOLD) == [row]
    assert csv.field_size_limit() == limit
    # csv's own errors, here a bare carriage return, are ValueErrors too
    with pytest.raises(ValueError, match="malformed report CSV: new-line character"):
        read_report_csv(io.StringIO("index\rplaintext\n"), MapKind.ARNOLD)
    assert csv.field_size_limit() == limit


def test_read_report_csv_rejects_bad_input():
    with pytest.raises(ValueError):
        read_report_csv(io.StringIO(""), MapKind.ARNOLD)
    with pytest.raises(ValueError):
        read_report_csv(io.StringIO("a,b,c\n1,2,3\n"), MapKind.ARNOLD)
    row = "1,hi,-4.0,0.5,00,12.5,48.9,-4.0,0.5,-3.9,0.6,0.0001,X,R,YES"
    with pytest.raises(ValueError, match="unexpected verdicts in report row 1"):
        read_report_csv(io.StringIO(",".join(REPORT_HEADER) + "\n" + row + "\n"),
                        MapKind.ARNOLD)


def test_builtin_specs_load_and_keys_sit_on_their_grids():
    for name, kind in [("table1_arnold", MapKind.ARNOLD),
                       ("table2_duffing", MapKind.DUFFING)]:
        triples = load_report_spec(builtin_spec_path(name))
        assert len(triples) == 20
        for text, key, domain in triples:
            assert key.kind is kind
            assert domain.kind is kind
            assert domain.contains(key.params)
            snapped = domain.snap(key.params)
            assert abs(snapped.a - key.params.a) < 1e-9
            assert abs(snapped.b - key.params.b) < 1e-9
    with pytest.raises(ValueError):
        builtin_spec_path("table9_nowhere")


def test_compare_synthetic_ranges_match_hand_aggregation():
    dom = KeyDomain(MapKind.ARNOLD, (0.0, 0.0), (0.001, 0.001))
    key = Key(MapKind.ARNOLD, MapParams(0.0, 0.0, 1.0))

    def row(i, pt, ks, ident, robust):
        return AnalysisRow(index=i, plaintext="t", key=key, domain=dom,
                           plaintext_sensitivity_pct=pt, key_sensitivity_pct=ks,
                           identifiable=ident, robust_kpa=robust,
                           brute_force_secret="YES" if ident == "I" else "NO")

    rows = [row(1, 12.5, 30.0, "I", "NR"),
            row(2, 50.0, 10.0, "NI", "R"),
            row(3, 37.5, 20.0, "NI", "NR")]
    first, second = compare_ciphers(rows, rows)
    assert first == second
    assert (first.pt_sensitivity_min, first.pt_sensitivity_max) == (12.5, 50.0)
    assert (first.key_sensitivity_min, first.key_sensitivity_max) == (10.0, 30.0)
    assert first.identifiable_keys == 1 and first.any_identifiable
    assert first.robust_keys == 1 and first.any_robust
    assert not first.exceeds_2pow100
    assert not first.key_space_flagged

    buf = io.StringIO()
    write_comparison_csv([first, second], buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("cipher,rows,key_space,")
    assert lines[1].endswith(",no")  # key space below the 2^100 floor


def test_compare_rejects_empty_report():
    with pytest.raises(DomainError):
        compare_ciphers([], [])


def test_duffing_key_space_flagged_in_summary():
    dom = KeyDomain(MapKind.DUFFING, (1.9, 0.1), (1.9, 0.1))
    key = Key(MapKind.DUFFING, MapParams(1.9, 0.1, 1.0))
    rows = [AnalysisRow(index=1, plaintext="t", key=key, domain=dom,
                        plaintext_sensitivity_pct=1.0, key_sensitivity_pct=1.0)]
    summary = compare_ciphers(rows, rows)[0]
    assert summary.key_space_flagged
    assert summary.key_space_reference == 9e14
    assert not summary.exceeds_2pow100
