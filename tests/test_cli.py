"""In-process tests of the command-line front end."""

import json
import os
import random
import threading

import pytest

from chaoscrypt.cipher import Key, encrypt_bytes, save_key
from chaoscrypt.cli import main
from chaoscrypt.maps import MapKind, MapParams

ARNOLD_KEY = Key(MapKind.ARNOLD, MapParams(-4.0, 0.5, 1.0))


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
    rc = main(["keygen", "--kind", "arnold", "--domain", "1,0,0,1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


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


def test_identify_warns_on_out_of_domain_key(arnold_key_file, capsys):
    rc = main(["identify", "--text", "What is your name?",
               "--key", arnold_key_file, "--domain", "0,0,0.001,0.001"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert "verdict=" in captured.out


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


def test_unknown_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["encrypt", "--nonsense"])
    assert exit_info.value.code == 2


def test_missing_key_file_is_runtime_error(tmp_path, capsys):
    rc = main(["encrypt", "--in", "x", "--out", "y",
               "--key", str(tmp_path / "missing.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
