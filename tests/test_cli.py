"""In-process tests of the command-line front end."""

import argparse
import csv
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chaoscrypt import analysis, cipher, cli, maps
from chaoscrypt.cipher import Key, encrypt_bytes, save_key
from chaoscrypt.cli import main
from chaoscrypt.maps import DivergenceError, MapKind, MapParams

from oracles import oracle_axis

ARNOLD_KEY = Key(MapKind.ARNOLD, MapParams(-4.0, 0.5, 1.0))
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def arnold_key_file(tmp_path):
    path = tmp_path / "key.json"
    save_key(ARNOLD_KEY, path)
    return str(path)


def test_keygen_is_reproducible_and_on_grid(tmp_path, capsys):
    argv = ["keygen", "--kind", "duffing", "--domain", "1.8,-0.59,2.9,0.2",
            "--seed", "11"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["kind"] == "duffing"
    assert 1.8 <= first["a"] <= 2.9
    assert -0.59 <= first["b"] <= 0.2

    out = tmp_path / "key.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text()) == first


def test_keygen_rejects_degenerate_domain(capsys):
    for domain in (["--domain", "1,0,0,1"],
                   # more grid steps than a float can count
                   ["--domain=0,0,1e308,1", "--increment", "1e-300"]):
        rc = main(["keygen", "--kind", "arnold", *domain])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


def test_trajectory_writes_csv(tmp_path):
    out = tmp_path / "pts.csv"
    rc = main(["trajectory", "--kind", "duffing", "--params", "2.75,0.1",
               "--init=-0.04,0.2", "--n", "100", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,x,y"
    assert len(lines) == 102


def test_encrypt_decrypt_roundtrip(tmp_path, arnold_key_file):
    plain = tmp_path / "p.bin"
    plain.write_bytes(bytes(range(256)) * 8)
    ct = tmp_path / "c.hex"
    back = tmp_path / "b.bin"
    assert main(["encrypt", "--in", str(plain), "--out", str(ct),
                 "--key", arnold_key_file]) == 0
    assert main(["decrypt", "--in", str(ct), "--out", str(back),
                 "--key", arnold_key_file]) == 0
    assert back.read_bytes() == plain.read_bytes()


def test_encrypt_rejects_out_of_domain_key(tmp_path, arnold_key_file, capsys):
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"data")
    rc = main(["encrypt", "--in", str(plain), "--out", str(tmp_path / "c.hex"),
               "--key", arnold_key_file, "--domain", "0,0,0.1,0.1"])
    assert rc == 3
    assert "outside domain" in capsys.readouterr().err
    # and passes when the domain contains the key
    rc = main(["encrypt", "--in", str(plain), "--out", str(tmp_path / "c.hex"),
               "--key", arnold_key_file, "--domain=-4.1,0.4,-3.9,0.6"])
    assert rc == 0


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_domain_guard_takes_no_increment(tmp_path, arnold_key_file, capsys, command):
    # the guard tests containment, which no grid increment changes
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--increment" not in capsys.readouterr().out
    (tmp_path / "in").write_bytes(b"00ff")
    argv = [command, "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--key", arnold_key_file, "--domain=-4.1,0.4,-3.9,0.6"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--increment", "1e-4"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert main(argv) == 0
    assert main(argv[:-1] + ["--domain=0,0,0.1,0.1"]) == 3
    assert "outside domain" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_domain_guard_tests_the_box_alone(tmp_path, arnold_key_file, capsys, command):
    # the guard tests the four bounds, so no grid step count refuses a box
    # that holds the key, however wide
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"a box holds a key without a grid")
    reference = tmp_path / "ref.hex"
    assert main(["encrypt", "--in", str(plain), "--out", str(reference),
                 "--key", arnold_key_file]) == 0
    source, expected = (plain, reference) if command == "encrypt" else (reference, plain)
    out = tmp_path / "out"

    def guarded(domain):
        out.unlink(missing_ok=True)
        code = main([command, "--in", str(source), "--out", str(out),
                     "--key", arnold_key_file, f"--domain={domain}"])
        return code, capsys.readouterr().err

    for domain in ("-1e305,0,1e305,1", "-1e308,0,1e308,1",
                   "-1.7e308,-1.7e308,1.7e308,1.7e308"):
        assert guarded(domain) == (0, "")
        assert out.read_bytes() == expected.read_bytes()
    for domain, axis in (("1,0,0,1", "[1.0, 0.0]"), ("nan,0,1,1", "[nan, 1.0]"),
                         ("-inf,0,0,1", "[-inf, 0.0]")):
        assert guarded(domain) == (1, f"error: degenerate axis {axis}\n")
        assert not out.exists()
    assert guarded("0,0,0.1,0.1") == (
        3, "error: key (-4.0, 0.5) outside domain [0.0, 0.0]..[0.1, 0.1]\n")
    assert not out.exists()


def test_decrypt_rejects_malformed_hex(tmp_path, arnold_key_file, capsys):
    bad = tmp_path / "bad.hex"
    bad.write_text("zz00")
    rc = main(["decrypt", "--in", str(bad), "--out", str(tmp_path / "o.bin"),
               "--key", arnold_key_file])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_failed_encrypt_or_decrypt_leaves_no_output(tmp_path, capsys, command, existing):
    rng = random.Random(4)
    key = tmp_path / "key.json"
    if command == "encrypt":
        # this key's orbit leaves the divergence bound within a few symbols
        key.write_text('{"kind": "duffing", "a": 2.9, "b": 0.2}')
        src = tmp_path / "p.bin"
        src.write_bytes(rng.randbytes(5000))
    else:
        save_key(ARNOLD_KEY, key)
        src = tmp_path / "c.hex"
        src.write_text(rng.randbytes(40000).hex() + "zz00\n")  # bad digit past 64 KiB
    out = tmp_path / "out"
    if existing:
        out.write_bytes(b"earlier output")
    before = sorted(p.name for p in tmp_path.iterdir())
    rc = main([command, "--in", str(src), "--out", str(out), "--key", str(key)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert ("divergence" if command == "encrypt" else "malformed hex") in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # no temp file left
    if existing:
        assert out.read_bytes() == b"earlier output"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_encrypt_writes_through_to_a_pipe(tmp_path, arnold_key_file):
    # a pipe cannot be replaced by a renamed temp file, so it is written in place
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"to a pipe")
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
    reader.start()
    assert main(["encrypt", "--in", str(plain), "--out", str(pipe),
                 "--key", arnold_key_file]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [encrypt_bytes(b"to a pipe", ARNOLD_KEY).hex() + "\n"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["key.json", "p.bin", "pipe"]


def test_encrypt_through_a_symlinked_out_keeps_the_link(tmp_path, arnold_key_file):
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"via a link")
    real = tmp_path / "real.hex"
    real.write_text("earlier output\n")
    link = tmp_path / "link.hex"
    link.symlink_to(real)
    assert main(["encrypt", "--in", str(plain), "--out", str(link),
                 "--key", arnold_key_file]) == 0
    assert link.is_symlink()
    assert real.read_text() == encrypt_bytes(b"via a link", ARNOLD_KEY).hex() + "\n"


@pytest.mark.parametrize("command, payload, named", [
    ("report", [{"plaintext": "Hi", "key": {"kind": "arnold", "a": -4.0, "b": 0.5}}],
     "'domain'"),
    ("report", [[1, 2]], "item 1"),
    ("report", [{"plaintext": "Hi", "key": {"kind": "arnold", "a": -4.0, "b": 0.5},
                 "domain": {"lower": [-4.0, 0.5], "upper": -3.9}}], "'upper'"),
    ("encrypt", {"initial_state": {"x": 0.1}}, "'y'"),
    ("encrypt", {"n1": True, "n2": 2}, "'n1'"),
    ("encrypt", {"n1": 2, "n2": 2.7}, "'n2'"),
    ("encrypt", {"n1": 1000000000}, "'n1'"),
    ("encrypt", {"n1": 2, "n2": 1001}, "'n2'"),
    ("report", [{"plaintext": None, "key": {"kind": "arnold", "a": -4.0, "b": 0.5},
                 "domain": {"lower": [-4.0, 0.5], "upper": [-4.0, 0.5]}}],
     "report spec item 1 field 'plaintext' must be a string, got None"),
    ("report", [{"plaintext": 12, "key": {"kind": "arnold", "a": -4.0, "b": 0.5},
                 "domain": {"lower": [-4.0, 0.5], "upper": [-4.0, 0.5]}}],
     "report spec item 1 field 'plaintext' must be a string, got 12"),
    ("report", {"plaintext": "Hi"}, "report spec must be a JSON list"),
])
def test_malformed_json_shape_is_one_error_line(tmp_path, arnold_key_file, capsys,
                                                command, payload, named):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    if command == "report":
        argv = ["report", "--spec", str(path), "--out", str(out)]
    else:
        plain = tmp_path / "p.bin"
        plain.write_bytes(b"data")
        argv = ["encrypt", "--in", str(plain), "--out", str(out),
                "--key", arnold_key_file, "--config", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert named in err
    assert not out.exists()


# 100 000 nested lists: deeper than the JSON parser's recursion limit
DEEP_JSON = "[" * 100000


@pytest.mark.parametrize("flag, what", [("--key", "key"), ("--config", "config"),
                                        ("--spec", "report spec")])
def test_deeply_nested_json_is_one_error_line(tmp_path, arnold_key_file, capsys, flag, what):
    deep, out = tmp_path / "deep.json", tmp_path / "out"
    deep.write_text(DEEP_JSON)
    if flag == "--spec":
        argv = ["report", "--spec", str(deep), "--out", str(out)]
    else:
        plain = tmp_path / "p.bin"
        plain.write_bytes(b"data")
        argv = ["encrypt", "--in", str(plain), "--out", str(out),
                "--key", str(deep) if flag == "--key" else arnold_key_file,
                *(["--config", str(deep)] if flag == "--config" else [])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed {what} JSON: maximum recursion depth exceeded")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["identify", "--text", "Hi", "--domain=-4,0.5,-4,0.5", "--iters", "1001"], "--iters"),
    (["trajectory", "--kind", "arnold", "--params=-4,0.5", "--n", "1000001"], "--n"),
    (["identify", "--text", "Hi", "--domain=-4,0.5,-4,0.5", "--iters", "0"], "--iters"),
])
def test_step_counts_are_bounded(tmp_path, arnold_key_file, capsys, argv, named):
    out = tmp_path / "out"
    argv = argv + (["--key", arnold_key_file] if argv[0] == "identify" else ["--out", str(out)])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} must be at most") and len(err.splitlines()) == 1
    assert not out.exists()


def test_interrupt_is_one_error_line(tmp_path, arnold_key_file, capsys, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cipher, "encrypt_file", interrupted)
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"data")
    out = tmp_path / "c.hex"
    assert main(["encrypt", "--in", str(plain), "--out", str(out),
                 "--key", arnold_key_file]) == 1
    err = capsys.readouterr().err
    assert err == "error: interrupted\n"
    assert not out.exists()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


# a one-row spec at increment 1e-300, where neither scan nor the key
# sensitivity can run, and the report CSV it writes
TINY_STEP_SPEC = ('[{"plaintext": "hello world", "key": {"kind": "arnold", "a": -4.0, '
                  '"b": 0.5}, "domain": {"lower": [-4.0, 0.5], "upper": [-3.9, 0.6], '
                  '"increment": 1e-300}}]')
TINY_STEP_CSV = (",".join(analysis.REPORT_HEADER) + "\r\n1,hello world,-4.0,0.5,"
                 "2c0f9196203a5116f08d33,48.86363636363637,nan,-4.0,0.5,-3.9,0.6,1e-300,,,\r\n")


SMALL_ARNOLD_SPEC = [{"plaintext": "Meet me", "key": {"kind": "arnold", "a": -4.0, "b": 0.5},
                      "domain": {"lower": [-4.0, 0.5], "upper": [-4.0, 0.5]}}]


@pytest.mark.parametrize("command, writer", [
    ("report", (analysis, "write_report_csv")),
    ("trajectory", (maps, "write_trajectory_csv")),
    ("compare", (analysis, "write_comparison_csv")),
])
def test_interrupted_writer_leaves_prior_output(tmp_path, capsys, monkeypatch, command, writer):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SMALL_ARNOLD_SPEC))
    report = tmp_path / "report.csv"
    assert main(["report", "--spec", str(spec), "--out", str(report)]) == 0
    out = tmp_path / "out.csv"
    out.write_text("earlier output\n")
    argv = {"report": ["report", "--spec", str(spec)],
            "trajectory": ["trajectory", "--kind", "duffing", "--params", "2.75,0.1",
                           "--n", "10"],
            "compare": ["compare", "--arnold", str(report), "--duffing", str(report)],
            }[command] + ["--out", str(out)]
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()

    def interrupted(items, f):
        f.write("index,partial\n")
        raise KeyboardInterrupt

    monkeypatch.setattr(*writer, interrupted)
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: interrupted"
    assert out.read_text() == "earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.skipif(not hasattr(signal, "SIGTERM") or os.name != "posix",
                    reason="needs POSIX signals")
def test_sigterm_leaves_no_temp_file(tmp_path, arnold_key_file):
    plain = tmp_path / "p.bin"
    plain.write_bytes(random.Random(5).randbytes(8 << 20))  # many seconds of work
    out = tmp_path / "c.hex"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "chaoscrypt", "encrypt", "--in", str(plain), "--out", str(out),
         "--key", arnold_key_file], env=env, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 30
        while not list(tmp_path.glob(".c.hex.*.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1
    assert err == "error: interrupted\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["key.json", "p.bin"]


def test_import_compiles_no_kernel():
    # importing the CLI compiles no kernel, and loads no process pool: only
    # a scan that pools imports it
    code = ("import linecache, sys, chaoscrypt.cli\n"
            "assert not [f for f in linecache.cache if f.startswith('<chaoscrypt')]\n"
            "assert 'multiprocessing' not in sys.modules\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
            "from chaoscrypt import maps\n"
            "assert maps._kernel.cache_info().currsize == 0\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # the parser and its nine subparsers are built on the first call only
    built, init = [], argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli.build_parser.cache_clear()
    try:
        for seed in ("1", "2"):
            assert main(["keygen", "--kind", "arnold", "--domain=-4,0.5,-3.9,0.6",
                         "--seed", seed]) == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 10 and built[0] == "chaoscrypt"
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_sensitivity_prints_percentage(arnold_key_file, capsys):
    assert main(["sensitivity", "--text", "Meet me after 5p.m.",
                 "--key", arnold_key_file, "--mode", "key",
                 "--delta", "0.0001"]) == 0
    pct = float(capsys.readouterr().out)
    assert 0.0 <= pct <= 100.0
    assert main(["sensitivity", "--text", "Meet me after 5p.m.",
                 "--key", arnold_key_file, "--mode", "pt"]) == 0
    pct = float(capsys.readouterr().out)
    assert 0.0 <= pct <= 100.0


def test_identify_singleton_domain(arnold_key_file, capsys):
    rc = main(["identify", "--text", "What is your name?",
               "--key", arnold_key_file, "--domain=-4,0.5,-4,0.5", "--json"])
    assert rc == 0
    captured = capsys.readouterr()
    result = json.loads(captured.out)
    assert result["verdict"] == "I"
    assert result["matching"] == 1
    assert result["grid"] == 1


# plaintext bytes that are not UTF-8: a --plaintext-file is read raw
RAW_PLAINTEXT = b"\xff\xfe caf\xe9 \x80 ok"


@pytest.mark.parametrize("mode", ["pt", "key"])
def test_sensitivity_reads_a_plaintext_file_as_raw_bytes(tmp_path, arnold_key_file, capsys,
                                                         mode):
    with pytest.raises(UnicodeDecodeError):
        RAW_PLAINTEXT.decode("utf-8")
    path = tmp_path / "p.bin"
    path.write_bytes(RAW_PLAINTEXT)
    assert main(["sensitivity", "--plaintext-file", str(path), "--key", arnold_key_file,
                 "--mode", mode]) == 0
    if mode == "pt":
        pct = analysis.plaintext_sensitivity(RAW_PLAINTEXT, ARNOLD_KEY)
    else:
        pct = analysis.key_sensitivity(RAW_PLAINTEXT, ARNOLD_KEY, delta=1e-4)
    assert capsys.readouterr().out == f"{pct:.4f}\n"


def test_identify_reads_a_plaintext_file_as_raw_bytes(tmp_path, arnold_key_file, capsys):
    path = tmp_path / "p.bin"
    path.write_bytes(RAW_PLAINTEXT)
    assert main(["identify", "--plaintext-file", str(path), "--key", arnold_key_file,
                 "--domain=-4.0005,0.4995,-3.9995,0.5005", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    domain = analysis.KeyDomain(MapKind.ARNOLD, (-4.0005, 0.4995), (-3.9995, 0.5005))
    expected = analysis.identifiability_scan(RAW_PLAINTEXT, ARNOLD_KEY, domain)
    assert (result["verdict"], result["matching"], result["grid"], result["diverged"]) == (
        expected.verdict, len(expected.matching_keys), expected.grid_size, expected.diverged)


def test_scan_json_counts_diverged_keys(tmp_path, capsys):
    # from the default start, Duffing keys with a above about 3.55 leave
    # the box in symbol 0, so this box straddles where keys diverge
    key = Key(MapKind.DUFFING, MapParams(2.8, -0.12))
    key_file, ct_file = tmp_path / "key.json", tmp_path / "c.hex"
    save_key(key, key_file)
    text = b"Duffing!"
    ct_file.write_text(encrypt_bytes(text, key).hex() + "\n")
    domain = analysis.KeyDomain(MapKind.DUFFING, (2.8, -0.2), (3.64, 0.0), 0.04)
    box = ["--domain=2.8,-0.2,3.64,0.0", "--increment", "0.04"]

    def diverged(prefix):
        """Keys whose orbit diverges before their first symbol that differs
        from the true key's, by per-key encrypt_bytes."""
        reference = encrypt_bytes(prefix, key)
        count = 0
        for params in domain.grid_params():
            try:
                encrypt_bytes(prefix, Key(MapKind.DUFFING, params))
            except DivergenceError as exc:
                k = exc.symbol
                count += encrypt_bytes(prefix[:k], Key(MapKind.DUFFING, params)) == reference[:k]
        return count

    for argv, prefix in ((["identify", "--text", text.decode(), "--key", str(key_file)], text),
                         (["attack", "--cipher", str(ct_file), "--known-prefix", "Du",
                           "--kind", "duffing"], b"Du")):
        assert main(argv + box + ["--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert 0 < result["diverged"] < domain.size()
        assert result["diverged"] == diverged(prefix)


@pytest.mark.parametrize("argv, config, what", [
    (["trajectory", "--kind", "arnold", "--params=-3.5,0.9", "--init", "1e308,0", "--n", "3"],
     None, "orbit diverged at step 0"),
    (["encrypt"], {"initial_state": {"x": 1e308, "y": 0}},
     "orbit diverged while processing symbol 0"),
    (["encrypt"], {"reinject_gain": 1e308}, "orbit diverged while processing symbol 0"),
])
def test_overflow_is_one_divergence_error_line(tmp_path, arnold_key_file, capsys,
                                               argv, config, what):
    # 2x + y, or the feedback x + g z / m, overflows to infinity
    out = tmp_path / "out"
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        (tmp_path / "p.bin").write_bytes(b"overflow")
        argv = argv + ["--in", str(tmp_path / "p.bin"), "--key", arnold_key_file,
                       "--config", str(tmp_path / "cfg.json")]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: divergence: " + what) and len(err.splitlines()) == 1
    assert not out.exists()


def test_huge_quant_scale_is_one_error_line(tmp_path, arnold_key_file, capsys):
    # floor(|x| * 1e308) overflowed in the kernel; the config is now refused
    (tmp_path / "cfg.json").write_text('{"quant_scale": 1e308}')
    (tmp_path / "p.bin").write_bytes(b"hello")
    out = tmp_path / "o.hex"
    assert main(["encrypt", "--in", str(tmp_path / "p.bin"), "--out", str(out),
                 "--key", arnold_key_file, "--config", str(tmp_path / "cfg.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'quant_scale'") and len(err.splitlines()) == 1
    assert not out.exists()


def test_sensitivity_refuses_a_delta_that_leaves_the_key_unchanged(arnold_key_file, capsys):
    rc = main(["sensitivity", "--text", "hello", "--key", arnold_key_file, "--mode", "key",
               "--delta", "1e-320"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: delta 1e-320 leaves a = -4.0 unchanged\n"


def test_identify_refuses_a_grid_over_the_scan_cap(arnold_key_file, capsys, monkeypatch):
    # 1e-300 steps make a grid of a 596-digit number of keys, which the
    # scan used to start and never finish
    def scan(*args, **kwargs):
        raise AssertionError("a scan started")

    monkeypatch.setattr(analysis, "_scan_grid", scan)
    rc = main(["identify", "--text", "hello", "--key", arnold_key_file,
               "--domain=-4.0,0.5,-3.99,0.51", "--increment", "1e-300"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid of over 10^595 keys exceeds the scan cap of 1000000000")
    assert len(err.splitlines()) == 1


def test_identify_warns_on_out_of_domain_key(arnold_key_file, capsys):
    rc = main(["identify", "--text", "What is your name?",
               "--key", arnold_key_file, "--domain", "0,0,0.001,0.001"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert "verdict=" in captured.out


# a key so far outside the box that its grid index is infinite
FAR_KEY = '{"kind": "arnold", "a": 1e308, "b": 0.5}'
FAR_BOX = ((-4.001, 0.499), (-3.999, 0.501))


def test_identify_and_report_snap_a_key_far_outside_the_box(tmp_path, capsys):
    key = tmp_path / "far.json"
    key.write_text(FAR_KEY)
    (lo_a, lo_b), (hi_a, hi_b) = FAR_BOX
    assert main(["identify", "--text", "hello", "--key", str(key),
                 f"--domain={lo_a},{lo_b},{hi_a},{hi_b}"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: key (1e+308, 0.5) outside the scan domain")
    assert "verdict=" in captured.out
    spec, out = tmp_path / "spec.json", tmp_path / "report.csv"
    spec.write_text(f'[{{"plaintext": "hello", "key": {FAR_KEY}, "domain": '
                    f'{{"lower": [{lo_a}, {lo_b}], "upper": [{hi_a}, {hi_b}]}}}}]')
    assert main(["report", "--spec", str(spec), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 1
    (row,) = list(csv.DictReader(out.open(newline="")))
    assert (row["key_a"], row["identifiable"]) == ("1e+308", "I")


def test_attack_json_output(tmp_path, arnold_key_file, capsys):
    msg = b"Meet me after 5p.m."
    ct = tmp_path / "c.hex"
    ct.write_text(encrypt_bytes(msg, ARNOLD_KEY).hex() + "\n")
    rc = main(["attack", "--cipher", str(ct), "--known-prefix", "Me",
               "--kind", "arnold", "--domain=-4.0005,0.4995,-3.9995,0.5005",
               "--json"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["grid"] == 121
    assert result["candidates"] >= 1
    assert result["verdict"] in ("R", "NR")
    if result["candidates"] == 1:
        assert result["recovered"] is not None
        assert result["verdict"] == "NR"


def test_attack_without_json_prints_one_summary_line(tmp_path, capsys):
    msg = b"Meet me after 5p.m."
    ciphertext = encrypt_bytes(msg, ARNOLD_KEY)
    ct = tmp_path / "c.hex"
    ct.write_text(ciphertext.hex() + "\n")
    assert main(["attack", "--cipher", str(ct), "--known-prefix", "Me", "--kind", "arnold",
                 "--domain=-4.0005,0.4995,-3.9995,0.5005"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    domain = analysis.KeyDomain(MapKind.ARNOLD, (-4.0005, 0.4995), (-3.9995, 0.5005))
    result = analysis.known_plaintext_attack(ciphertext, b"Me", domain)
    recovered = (f"({result.recovered.params.a}, {result.recovered.params.b})"
                 if result.recovered else "none")
    assert line.startswith(f"candidates={len(result.candidates)} recovered={recovered} "
                           f"verdict={result.verdict} grid=121 elapsed=")
    assert re.fullmatch(r".* elapsed=\d+\.\d\ds", line)


def test_python_dash_m_runs_the_cli():
    # the package's __main__, in a process of its own
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "chaoscrypt", *argv],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)

    drawn = run("keygen", "--kind", "arnold", "--domain=-5,0.4,-0.9,1.5", "--seed", "7")
    assert (drawn.returncode, drawn.stderr) == (0, "")
    key = cipher.key_from_json(drawn.stdout)
    assert key.kind is MapKind.ARNOLD
    assert analysis.FULL_KEY_DOMAIN[MapKind.ARNOLD].contains(key.params)
    missing = run("keygen", "--kind", "arnold")
    assert (missing.returncode, missing.stdout) == (2, "")
    errors = [line for line in missing.stderr.splitlines() if "error:" in line]
    assert errors == ["chaoscrypt keygen: error: the following arguments are required: --domain"]
    assert "Traceback" not in missing.stderr


def readme_block(heading, language):
    """The body of the first ```language block after the README line heading."""
    text = (SRC.parent / "README.md").read_text()
    after, opening = text[text.index(f"\n{heading}\n"):], f"```{language}\n"
    start = after.index(opening) + len(opening)
    return after[start:after.index("```", start)]


def test_readme_examples_run_as_written(tmp_path, capsys, monkeypatch):
    # each chaoscrypt line of the command-line block, in one directory, so
    # that later lines read what earlier ones wrote; the identify and
    # attack boxes hold the key that keygen draws
    monkeypatch.chdir(tmp_path)
    (tmp_path / "letter.txt").write_text("Meet me after 5p.m. at the old mill.\n")
    lines = readme_block("## Command line", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("chaoscrypt ")]
    assert [argv[1] for argv in commands] == [
        "keygen", "encrypt", "decrypt", "encrypt", "trajectory", "sensitivity", "sensitivity",
        "identify", "attack", "report", "report", "compare"]
    outputs = {}
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        captured = capsys.readouterr()
        assert "outside the scan domain" not in captured.err, argv
        outputs[argv[1]] = captured.out
    assert (tmp_path / "letter.out").read_bytes() == (tmp_path / "letter.txt").read_bytes()
    key = cipher.load_key(tmp_path / "key.json")
    assert json.loads(outputs["identify"])["verdict"] == "I"
    recovered = json.loads(outputs["attack"])["recovered"]
    assert cipher.key_from_json(json.dumps(recovered)) == key
    exec(readme_block("## Library", "python"), {})


@pytest.mark.parametrize("n_modulus", ["0", "nan", "-1"])
def test_attack_rejects_bad_n_modulus_before_scanning(tmp_path, capsys, n_modulus):
    ct = tmp_path / "c.hex"
    ct.write_text(encrypt_bytes(b"Meet", ARNOLD_KEY).hex() + "\n")
    rc = main(["attack", "--cipher", str(ct), "--known-prefix", "Me", "--kind", "arnold",
               f"--n-modulus={n_modulus}", "--domain=-4.0005,0.4995,-3.9995,0.5005"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_modulus must be finite and > 0\n"


def test_report_and_compare_small_specs(tmp_path, capsys):
    spec_a = [{"plaintext": "Meet me after 5p.m.",
               "key": {"kind": "arnold", "a": -4.0, "b": 0.5, "n_modulus": 1.0},
               "domain": {"lower": [-4.0005, 0.4995], "upper": [-3.9995, 0.5005],
                          "increment": 0.0001}},
              {"plaintext": "How are you?",
               "key": {"kind": "arnold", "a": -5.0, "b": 0.4},
               "domain": {"lower": [-5.0, 0.4], "upper": [-4.9995, 0.4005],
                          "increment": 0.0001}}]
    spec_d = [{"plaintext": "I am going to market.",
               "key": {"kind": "duffing", "a": 1.8995, "b": 0.0068},
               "domain": {"lower": [1.8995, 0.0068], "upper": [1.8995, 0.0068],
                          "increment": 0.0001}}]
    spec_a_path = tmp_path / "a.json"
    spec_a_path.write_text(json.dumps(spec_a))
    spec_d_path = tmp_path / "d.json"
    spec_d_path.write_text(json.dumps(spec_d))

    out_a = tmp_path / "a.csv"
    out_d = tmp_path / "d.csv"
    assert main(["report", "--spec", str(spec_a_path), "--out", str(out_a)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rows"] == 2
    assert summary["errors"] == 0
    assert main(["report", "--spec", str(spec_d_path), "--out", str(out_d)]) == 0
    capsys.readouterr()

    lines = out_a.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("index,plaintext,key_a,")

    cmp_path = tmp_path / "cmp.csv"
    assert main(["compare", "--arnold", str(out_a), "--duffing", str(out_d),
                 "--out", str(cmp_path)]) == 0
    cmp_lines = cmp_path.read_text().splitlines()
    assert len(cmp_lines) == 3
    assert cmp_lines[0].startswith("cipher,")
    assert cmp_lines[1].startswith("arnold,")
    assert cmp_lines[2].startswith("duffing,")


def test_report_prints_strict_json_when_no_row_has_a_sensitivity(tmp_path, capsys):
    # at increment 1e-300 the key delta rounds away, so no row has a key
    # sensitivity, and neither scan runs
    spec, out = tmp_path / "spec.json", tmp_path / "report.csv"
    spec.write_text(TINY_STEP_SPEC)
    assert main(["report", "--spec", str(spec), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert summary["key_sensitivity_range_pct"] is None
    assert summary["errors"] == 1
    assert out.read_text().splitlines()[1].endswith(",1e-300,,,")


@pytest.mark.parametrize("plaintext", ["x" * 70000, "a\0b"], ids=["long", "nul"])
def test_compare_reads_every_plaintext_report_writes(tmp_path, capsys, plaintext):
    # a 140 000-digit ciphertext_hex is over csv's default field limit; a
    # NUL is read from Python 3.11 on, and is one error line before
    dom = analysis.KeyDomain(MapKind.ARNOLD, *FAR_BOX)
    row = analysis.AnalysisRow(1, plaintext, ARNOLD_KEY, dom, "ab" * len(plaintext),
                               1.25, 48.5, "I", "R", "YES")
    report = tmp_path / "report.csv"
    with report.open("w", newline="") as f:
        analysis.write_report_csv([row], f)
    rc = main(["compare", "--arnold", str(report), "--duffing", str(report)])
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    if "\0" in plaintext and sys.version_info < (3, 11):
        assert rc == 1
        assert errors == ["error: malformed report CSV: line contains NUL"]
    else:
        assert (rc, errors) == (0, [])
        assert captured.out.splitlines()[1].startswith("arnold,1,")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("column, value, message", [
    ("index", "x", "invalid literal for int() with base 10: 'x'"),
    ("key_a", "abc", "could not convert string to float: 'abc'"),
    ("increment", "0", "axis step must be finite and > 0, got 0.0"),
], ids=["index", "key_a", "increment"])
def test_compare_names_the_report_row_of_a_bad_cell(tmp_path, capsys, column, value, message):
    dom = analysis.KeyDomain(MapKind.ARNOLD, *FAR_BOX)
    rows = [analysis.AnalysisRow(n, "hi", ARNOLD_KEY, dom, "abcd", 1.25, 48.5, "I", "R", "YES")
            for n in (1, 2, 3)]
    report = tmp_path / "report.csv"
    with report.open("w", newline="") as f:
        analysis.write_report_csv(rows, f)
    lines = list(csv.reader(report.read_text().splitlines()))
    lines[2][analysis.REPORT_HEADER.index(column)] = value
    with report.open("w", newline="") as f:
        csv.writer(f).writerows(lines)
    rc = main(["compare", "--arnold", str(report), "--duffing", str(report)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: report row 2: {message}\n"


def test_builtin_spec_names_resolve(tmp_path, capsys):
    # resolution only; the full 20-row runs live in the acceptance suite
    from chaoscrypt.cli import _resolve_spec
    path = _resolve_spec("table1_arnold")
    assert str(path).endswith("table1_arnold.json")
    with pytest.raises(ValueError):
        _resolve_spec("table9_nowhere")


def test_every_command_has_help(capsys):
    for cmd in ("encrypt", "decrypt", "keygen", "trajectory", "sensitivity",
                "identify", "attack", "report", "compare"):
        with pytest.raises(SystemExit) as exit_info:
            main([cmd, "--help"])
        assert exit_info.value.code == 0
        assert "--" in capsys.readouterr().out
    # the help formatter prints a default only for an option with help text
    commands, = (action.choices for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    bare = [f"{name} {action.option_strings[0]}" for name, parser in commands.items()
            for action in parser._actions
            if action.option_strings and not action.required and not action.help]
    assert bare == []
    with pytest.raises(SystemExit):
        main(["keygen", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "(default: 0.0001)" in text and "(default: 1.0)" in text


def test_unknown_flags_exit_2(capsys):
    # a flag value refused by its type= function keeps the refusal's
    # message, not argparse's "invalid <function name> value"
    orbit = ["trajectory", "--kind", "arnold", "--n", "2", "--out", "orbit.csv"]
    for argv, message in (
            (["encrypt", "--in", "x", "--out", "y", "--key", "k", "--nonsense"],
             "unrecognized arguments: --nonsense"),
            (["keygen", "--kind", "arnold", "--domain", "1,2"],
             "argument --domain: --domain expects 4 comma-separated numbers, got '1,2'"),
            (orbit + ["--params=1,nan"], "argument --params: map parameters must be finite"),
            (orbit + ["--params=1,x"],
             "argument --params: could not convert string to float: 'x'"),
            (orbit + ["--params=1,2", "--init", "0,inf"],
             "argument --init: state coordinates must be finite")):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert message in last
        assert not re.search(r"_\w+_arg", last)


def test_missing_key_file_is_runtime_error(tmp_path, capsys):
    rc = main(["encrypt", "--in", "x", "--out", "y",
               "--key", str(tmp_path / "missing.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# The CLI contract under hostile input: any float in any numeric flag,
# configs the cipher must refuse, empty texts and malformed JSON or hex.
# A call is argv with "@name" for the file name in a fresh directory, and
# the files to write there first.
def mostly(usable, hostile):
    """A strategy that draws from hostile when integers(0, 3) draws 3, else
    from usable."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(hostile if k == 3 else usable))


FLOATS = mostly(["0.5", "-4.0", "-3.9", "2.75", "0.1"],
                ["nan", "inf", "-inf", "1.7976931348623157e308", "-1e308", "5e-324", "0",
                 "-0.0", "1e6"])
INCREMENTS = st.sampled_from(["1e-4", "0.1", "1", "1e308", "1e-300", "0", "-1", "nan", "inf"])
KEYS = mostly(['{"kind": "arnold", "a": -4.0, "b": 0.5}',
               '{"kind": "duffing", "a": 2.75, "b": 0.1}'],
              ['{"kind": "arnold", "a": -4.0, "b": 0.5, "n_modulus": 1e308}',
               '{"kind": "duffing", "a": 1e308, "b": -1e308}',
               '{"kind": "arnold", "a": NaN, "b": 0.5}', '{"kind": "arnold"}', "[]",
               "{not json", ""])
CONFIGS = mostly(['{}', '{"n2": 2}', '{"quant_scale": 7.0}'],
                 ['{"quant_scale": 1e308}', '{"quant_scale": 5e-324}',
                  '{"reinject_gain": NaN}', '{"reinject_gain": 1e308}', '{"n1": 0}',
                  '{"n1": 1001}', '{"n1": 2.5}', '{"initial_state": {"x": 1e308, "y": 0}}',
                  '{"initial_state": {"x": 0.1}}', '{"quant_scale": "big"}', "[1, 2]",
                  "{not json"])
TEXTS = mostly(["hello", "Meet me after 5p.m.", "\u00e9t\u00e9"], [""])
DELTAS = mostly(["1e-4", "0.01", "0", "-1e-4"],
                ["1e-320", "5e-324", "-0.0", "1e308", "-1e308", "nan", "inf", "x"])
FLIP_BITS = mostly(["0", "7", "39"], ["-1", "40", "1000000000000", "0.5"])
_MAX_FUZZ_GRID = 10 ** 4


@st.composite
def boxes(draw):
    """A grid's corners and increment, as four strings and one: a small
    box around a key of either kind, the same box in steps of 1e-300, or
    any corners and increment. A grid is either small enough to scan at
    once or over the scan cap."""
    shape = draw(mostly(["small", "small", "fine"], ["any"]))
    if shape == "any":
        box, increment = [draw(FLOATS) for _ in range(4)], draw(INCREMENTS)
        try:
            size = prod(max(0, oracle_axis(float(lo), float(hi), float(increment)))
                        for lo, hi in ((box[0], box[2]), (box[1], box[3])))
        except (ValueError, OverflowError, ZeroDivisionError):
            size = 0
        assume(size <= _MAX_FUZZ_GRID or size > analysis._MAX_SCAN_KEYS)
    else:
        a, b = draw(st.sampled_from([(-4.0, 0.5), (2.75, 0.1), (-3.9, 1.4), (3.5, -0.2)]))
        step = draw(st.sampled_from([1e-3, 0.01]))
        na, nb = draw(st.integers(0, 60)), draw(st.integers(0, 60))
        box = [repr(v) for v in (a, b, a + na * step, b + nb * step)]
        increment = "1e-300" if shape == "fine" else repr(step)
    return box, increment


def grids():
    """--domain and --increment of a grid drawn by boxes."""
    return boxes().map(lambda grid: [f"--domain={','.join(grid[0])}",
                                     f"--increment={grid[1]}"])


@st.composite
def report_specs(draw):
    """A report spec of one or two rows, each a drawn key, text and grid
    (its numbers as JSON writes the floats they spell, NaN included), or
    a spec of the wrong shape."""
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        box, increment = draw(boxes())
        lo_a, lo_b, hi_a, hi_b, inc = (json.dumps(float(v)) for v in (*box, increment))
        rows.append(f'{{"plaintext": {json.dumps(draw(TEXTS))}, "key": {draw(KEYS)}, '
                    f'"domain": {{"lower": [{lo_a}, {lo_b}], "upper": [{hi_a}, {hi_b}], '
                    f'"increment": {inc}}}}}')
    return draw(mostly([f"[{', '.join(rows)}]"],
                       ["[]", "{}", "[1]", '[{"plaintext": "x"}]', "{not json"]))


@st.composite
def report_csvs(draw):
    """A report CSV for compare, and its counts of I and R verdicts, or
    None for a CSV with a flaw: rows of any verdicts, empty ones included,
    or a wrong header, a short row, a value that is not a number, an
    unknown verdict, no rows, or bytes that are not UTF-8."""
    rows = []
    for index in range(1, draw(st.integers(1, 3)) + 1):
        ident, brute = draw(st.sampled_from([("I", "YES"), ("NI", "NO"), ("", "")]))
        rows.append([str(index), draw(TEXTS), "-4.0", "0.5", "00ff",
                     *(draw(st.sampled_from(["12.5", "48.9", "nan"])) for _ in range(2)),
                     "-4.0", "0.5", "-3.9", "0.6", draw(st.sampled_from(["0.0001", "1e-300"])),
                     ident, draw(st.sampled_from(["R", "NR", ""])), brute])
    header = list(analysis.REPORT_HEADER)
    flaw = draw(mostly([None], ["header", "short", "number", "verdict", "no rows", "utf-8"]))
    if flaw == "header":
        header[0] = "idx"
    elif flaw == "short":
        rows[-1].pop()
    elif flaw == "number":
        rows[-1][draw(st.sampled_from([0, 2, 5, 11]))] = draw(st.sampled_from(["x", "", "0"]))
    elif flaw == "verdict":
        rows[-1][draw(st.integers(12, 14))] = draw(st.sampled_from(["X", "i", " I"]))
    elif flaw == "no rows":
        rows = []
    buf = StringIO()
    csv.writer(buf).writerows([header, *rows])
    content = (b"\xff" if flaw == "utf-8" else b"") + buf.getvalue().encode()
    counts = None if flaw else (sum(r[12] == "I" for r in rows), sum(r[13] == "R" for r in rows))
    return content, counts


@st.composite
def cli_calls(draw):
    """argv, the files to write, and for compare the (I, R) verdict counts
    of each input CSV (None for one with a flaw)."""
    command = draw(st.sampled_from(["encrypt", "decrypt", "keygen", "trajectory",
                                    "sensitivity", "identify", "attack", "report",
                                    "compare"]))
    files = {"k.json": draw(KEYS), "c.json": draw(CONFIGS)}
    kind = ["--kind", draw(st.sampled_from(["arnold", "duffing"]))]
    domain = draw(grids())
    config = ["--config", "@c.json"] if draw(st.booleans()) else []
    n_modulus = [f"--n-modulus={draw(FLOATS)}"] if draw(st.booleans()) else []
    text = draw(TEXTS)
    if command in ("encrypt", "decrypt"):
        files["in"] = (text.encode() if command == "encrypt"
                       else draw(mostly(["00ff10", "00 11\n", ""], ["0g", "abc"])))
        argv = ["--in", "@in", "--out", "@out", "--key", "@k.json", *config]
        if draw(st.booleans()):
            argv.append(domain[0])  # the guard's --domain; it takes no --increment
    elif command == "keygen":
        argv = [*kind, *domain, *n_modulus, "--seed", "1"]
    elif command == "trajectory":
        params = ",".join(draw(FLOATS) for _ in range(draw(mostly([2, 3], [1, 4]))))
        argv = [*kind, f"--params={params}", "--n", draw(mostly(["1", "50"], ["0"])),
                "--out", "@out"]
        if draw(st.booleans()):
            argv.append(f"--init={draw(FLOATS)},{draw(FLOATS)}")
    elif command == "sensitivity":
        # the CLI perturbs a by --delta (key mode) or flips --flip-bit of
        # the text (pt mode); it has no bit-flip key mode
        argv = ["--text", text, "--key", "@k.json", *config,
                "--mode", draw(mostly(["pt", "key"], ["bitflip", ""]))]
        if draw(st.booleans()):
            argv.append(f"--delta={draw(DELTAS)}")
        if draw(st.booleans()):
            argv.append(f"--flip-bit={draw(FLIP_BITS)}")
    elif command == "identify":
        argv = ["--text", text, "--key", "@k.json", *domain, *config,
                "--iters", draw(mostly(["1", "3"], ["0", "1001"]))]
    elif command == "attack":
        files["ct.hex"] = draw(mostly(["a1b2c3d4e5f60718293a4b5c6d7e8f90"], ["", "zz"]))
        argv = ["--cipher", "@ct.hex", "--known-prefix", text, *kind, *domain,
                *n_modulus, *config, "--json"]
    elif command == "report":
        files["spec.json"] = draw(report_specs())
        argv = ["--spec", "@spec.json", "--out", "@out"]
    else:
        (files["a.csv"], counts_a), (files["d.csv"], counts_d) = draw(report_csvs()), \
            draw(report_csvs())
        argv = ["--arnold", "@a.csv", "--duffing", "@d.csv"]
        if draw(st.booleans()):
            argv += ["--out", "@out"]
        return [command, *argv], files, {"arnold": counts_a, "duffing": counts_d}
    return [command, *argv], files, None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cli_calls())
# the two ways a command used to escape the contract: a quant_scale whose
# product with a boxed coordinate overflows (a traceback), and a grid of
# 1e-300 steps (a scan that never ends)
@example((["encrypt", "--in", "@in", "--out", "@out", "--key", "@k.json",
           "--config", "@c.json"],
          {"in": b"hello", "k.json": '{"kind": "arnold", "a": -4.0, "b": 0.5}',
           "c.json": '{"quant_scale": 1e308}'}, None))
@example((["identify", "--text", "hello", "--key", "@k.json",
           "--domain=-4.0,0.5,-3.99,0.51", "--increment", "1e-300"],
          {"k.json": '{"kind": "arnold", "a": -4.0, "b": 0.5}'}, None))
# a key delta below the resolution of a, which printed 0.0000 and exit 0
@example((["sensitivity", "--text", "hello", "--key", "@k.json", "--mode", "key",
           "--delta", "1e-320"],
          {"k.json": '{"kind": "arnold", "a": -4.0, "b": 0.5}'}, None))
# a report whose scans never ran wrote the verdicts NI, R, NO, and printed
# a NaN key-sensitivity range; compare refused the empty verdicts it
# writes now
@example((["report", "--spec", "@spec.json", "--out", "@out"],
          {"spec.json": TINY_STEP_SPEC}, None))
@example((["compare", "--arnold", "@a.csv", "--duffing", "@d.csv"],
          {"a.csv": TINY_STEP_CSV, "d.csv": TINY_STEP_CSV},
          {"arnold": (0, 0), "duffing": (0, 0)}))
# JSON nested past the parser's recursion limit, and a key whose grid
# index overflows, ended in tracebacks
@example((["report", "--spec", "@spec.json", "--out", "@out"],
          {"spec.json": DEEP_JSON}, None))
@example((["identify", "--text", "hello", "--key", "@k.json",
           "--domain=-4.001,0.499,-3.999,0.501"], {"k.json": FAR_KEY}, None))
def test_cli_contract_holds_for_hostile_input(call):
    argv, files, counts = call
    scanned = []

    def matching_keys(*args, **kwargs):
        scanned.clear()  # report runs up to three scans a row: bound each
        return real_matching_keys(*args, **kwargs)

    def scan(*args):
        result = real_scan(*args)
        scanned.append(result[0])
        assert sum(scanned) <= _MAX_FUZZ_GRID, "a scan started on a grid over the cap"
        return result

    def report(*args, **kwargs):
        reported.extend(real_report(*args, **kwargs))
        return reported

    real_matching_keys, real_scan = analysis._matching_keys, analysis._scan_grid
    real_report, reported = analysis.analysis_report, []
    out, err = StringIO(), StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_matching_keys", matching_keys)
        mp.setattr(analysis, "_scan_grid", scan)
        mp.setattr(analysis, "analysis_report", report)
        for name, content in files.items():
            Path(tmp, name).write_bytes(content if isinstance(content, bytes)
                                        else content.encode())
        argv = [os.path.join(tmp, a[1:]) if a.startswith("@") else a for a in argv]
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
        out_csv = Path(tmp, "out")
        written = out_csv.read_text() if argv[0] in ("report", "compare") \
            and out_csv.exists() else None
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert rc in (0, 1, 2, 3)
    assert len(errors) == (rc != 0)
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        assert not re.search(r"\b(NaN|-?Infinity)\b", out.getvalue())
    if argv[0] == "report" and rc == 0:
        json.loads(out.getvalue(), parse_constant=_no_constant)
        # a verdict cell is empty exactly when its phase did not run
        for row, rec in zip(reported, list(csv.reader(StringIO(written)))[1:], strict=True):
            failed = {part.split(":")[0] for part in (row.error or "").split("; ")}
            assert (rec[12] == "") == ("identifiability" in failed)
            assert (rec[13] == "") == ("attack" in failed)
            assert rec[14] == {"I": "YES", "NI": "NO", "": ""}[rec[12]]
    if argv[0] == "compare" and None not in counts.values():
        assert rc == 0
        table = csv.DictReader(StringIO(written if written is not None else out.getvalue()))
        assert {r["cipher"]: (int(r["identifiable_keys"]), int(r["robust_keys"]))
                for r in table} == counts
