"""The repository's tools, each loaded from tools/ as the script it is."""

import importlib
import importlib.util
import json
import shutil
import sys
from pathlib import Path

from chaoscrypt import cipher

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_skips_a_cell_with_no_run_yet(tmp_path, capsys):
    # a record still being written holds every label of the cell it is in
    # from that cell's first run on, each label that has not run yet with
    # no run and no metrics; comparing skips such a cell in either record
    tool = load_tool("bench_record")
    run = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"report_s": 0.08}}
    done = {"runs": [run], "metrics": tool.summary([run])}
    record = {"checkouts": {"parent": {}, "change": {}}, "workloads": {
        "report_tables": {"0": {"parent": done, "change": done}},
        "key_census": {"0": {"parent": done, "change": {"runs": []}}},
    }}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(record))
    for base, new in (("parent", "change"), ("change", "parent")):
        assert tool.main(["--compare", f"{path}:{base}", f"{path}:{new}"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        rows = [line.split() for line in out.out.splitlines()[1:]]
        assert rows == [["report_tables", "0", "report_s", "0.08", "0.08", "1.000", "0/1"]]


def test_recorded_runs_read_the_standard_librarys_bytecode_and_no_other(tmp_path,
                                                                         monkeypatch):
    # the recorder's bytecode prefix links each standard-library module's
    # own bytecode where a run looks for it, and holds nothing else, so a
    # run reads no checkout's __pycache__ and compiles the package from source
    tool = load_tool("bench_record")
    tool.link_stdlib_bytecode(str(tmp_path))
    own = Path(importlib.util.cache_from_source(json.__file__))
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    linked = Path(importlib.util.cache_from_source(json.__file__))
    assert linked.is_relative_to(tmp_path)
    assert linked.is_symlink() and linked.resolve() == own.resolve()
    assert not Path(importlib.util.cache_from_source(cipher.__file__)).exists()
    files = [path for path in tmp_path.rglob("*") if not path.is_dir()]
    assert files and all(path.is_symlink() and path.suffix == ".pyc" for path in files)


def test_adding_to_a_record_refuses_another_setting_or_commit(tmp_path, monkeypatch):
    # a record's python, cores, seconds and each label's commit describe
    # every cell in it, so a call that would change one for the cells
    # already there is refused before any run, and the file is left as it was
    tool = load_tool("bench_record")

    def run_once(*args):
        raise AssertionError("a refused call runs nothing")

    monkeypatch.setattr(tool, "run_once", run_once)
    root = str(TOOLS.parent)
    sha = tool.git(TOOLS.parent, "rev-parse", "HEAD")
    setting = {"python": tool.platform.python_version(), "cores": tool.os.cpu_count(),
               "seconds": 30.0}
    cell = {"0": {"parent": {"runs": []}}}
    path = tmp_path / "record.json"
    for clash, argv in (
            ({}, ["--seconds", "1"]),
            ({"python": "2.7.18"}, []),
            ({"checkouts": {"parent": {"sha": "0" * 40, "dirty": False}}}, []),
    ):
        record = {**setting, "checkouts": {"parent": {"sha": sha, "dirty": False}},
                  "workloads": {"report_tables": cell}, **clash}
        text = json.dumps(record)
        path.write_text(text)
        assert tool.main(["--out", str(path), "--checkout", f"parent={root}",
                          "--workloads", "report_tables", "--runs", "1", *argv]) == 2
        assert path.read_text() == text


def test_interleave_of_a_checkout_with_itself_agrees(monkeypatch, capsys):
    # both copies of the package run the bench's own op groups in this
    # process, each with its own modules, and print a row per timed
    # end-to-end metric, in the bench's order; the caller's modules, path
    # and bytecode switch are put back at the end
    tool = load_tool("bench_record")
    monkeypatch.chdir(TOOLS.parent)
    monkeypatch.setattr(sys, "dont_write_bytecode", False)

    def tracked():
        return {name: module for name, module in sys.modules.items()
                if name.startswith("chaoscrypt") or name in ("oracles", "spans", "bench_run")}

    importlib.import_module("oracles")  # as the other test modules do, before this one
    path, modules = sys.path[:], tracked()
    assert tool.main(["--interleave", ".", ".", "--pairs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[2:-1]] == [
        "encrypt_mib_s", "decrypt_mib_s", "report_s", "identify_keys_per_s", "attack_keys_per_s"]
    assert lines[-1] == "checks pass"
    assert sys.path == path
    assert sys.dont_write_bytecode is False
    assert tracked() == modules


def test_interleave_tells_apart_a_package_with_other_outputs(tmp_path, capsys):
    # a copy of the package whose default Arnold start state differs fails
    # the bench's ciphertext and report checks, and is told apart before
    # any pair is timed; it decrypts its own output. A directory with no
    # package cannot be loaded.
    tool = load_tool("bench_record")
    shutil.copytree(TOOLS.parent / "src", tmp_path / "other" / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "other" / "src" / "chaoscrypt" / "cipher.py"
    text = source.read_text()
    assert "MapKind.ARNOLD: State(0.5, 0.06)" in text
    source.write_text(text.replace("MapKind.ARNOLD: State(0.5, 0.06)",
                                   "MapKind.ARNOLD: State(0.5, 0.07)"))
    assert tool.main(["--interleave", str(TOOLS.parent), str(tmp_path / "other"),
                      "--pairs", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("check failed: ") for line in lines)
    failed = "\n".join(lines)
    assert "check failed: new encrypt " in failed and "check failed: new report " in failed
    assert "decrypt" not in failed
    assert not list((tmp_path / "other").rglob("__pycache__"))
    assert tool.main(["--interleave", str(TOOLS.parent), str(tmp_path / "none")]) == 2


# Hand-built parity collections: each kernel's file name maps to the
# sources compiled under it, as parity._collect gathers them.
FINISH = "def finish(keys, x0, y0):\n    x, y = x0, y0\n    return keys\n"
SCANNER = ("def scan(a_values, columns):\n    passed = []\n    for a in a_values:\n"
           "        for column in columns:\n            b = column\n"
           "            passed.append((a, b))\n    return passed\n")


def parity_collection(**changes):
    kernels = {"<chaoscrypt arnold finish 1/1>": [FINISH],
               "<chaoscrypt arnold finish 2/2>": [FINISH],
               "<chaoscrypt arnold scan 1/1>": [SCANNER],
               "<chaoscrypt duffing scan 2/2+1/1>": [SCANNER]}
    return {"kernels": {**kernels, **changes}, "outputs": {"cipher 0 encrypt": "00ff"}}


def test_parity_of_a_collection_with_itself_is_empty():
    assert load_tool("parity").compare(parity_collection(), parity_collection()) == []


def test_parity_groups_identical_kernel_changes_by_family():
    # one line changed in both Arnold finish kernels, and one in the key
    # loop of one scanner: a group each, naming its kernels' family
    finish, scanner = FINISH.replace("x0, y0\n", "y0, x0\n"), SCANNER.replace("(a, b)", "(b, a)")
    new = parity_collection(**{"<chaoscrypt arnold finish 1/1>": [finish],
                               "<chaoscrypt arnold finish 2/2>": [finish],
                               "<chaoscrypt arnold scan 1/1>": [scanner]})
    assert load_tool("parity").compare(parity_collection(), new) == [
        "outside the key loop differs in 2 kernels (2 <chaoscrypt arnold finish #/#>):",
        "    -x, y = x0, y0",
        "    +x, y = y0, x0",
        "key loop differs in 1 kernels (1 <chaoscrypt arnold scan #/#>):",
        "    -passed.append((a, b))",
        "    +passed.append((b, a))",
    ]


def test_parity_counts_the_kernels_one_checkout_compiles_by_family():
    tool = load_tool("parity")
    new = parity_collection(**{"<chaoscrypt duffing finish 3/4>": [FINISH],
                               "<chaoscrypt arnold finish 1000/1000>": [FINISH]})
    assert tool.compare(parity_collection(), new) == [
        "kernels only in the change: 1 <chaoscrypt arnold finish #/#>, "
        "1 <chaoscrypt duffing finish #/#>"]
    assert tool.compare(new, parity_collection()) == [
        "kernels only in the parent: 1 <chaoscrypt arnold finish #/#>, "
        "1 <chaoscrypt duffing finish #/#>"]


def test_parity_reports_a_file_name_with_two_sources_against_itself():
    # linecache holds one source per file name, so a traceback through
    # either kernel would show the lines of the one compiled last
    clash = parity_collection(**{"<chaoscrypt arnold block 1/1>": [FINISH, SCANNER]})
    assert load_tool("parity").compare(clash, clash) == [
        "kernel <chaoscrypt arnold block 1/1> has 2 sources in the parent",
        "kernel <chaoscrypt arnold block 1/1> has 2 sources in the change"]


def test_parity_folds_a_run_of_repeated_steps_into_one_item():
    # each line a kernel loses or gains is shown once, however many
    # copies of it change
    old = "def orbit(x, y):\n" + "    x, y = y, x + y\n" * 1000 + "    return x, y\n"
    new = old.replace("x + y\n", "x - y\n")
    name = "<chaoscrypt arnold orbit 0/0>"
    assert load_tool("parity").compare(parity_collection(**{name: [old]}),
                                       parity_collection(**{name: [new]})) == [
        "outside the key loop differs in 1 kernels (1 <chaoscrypt arnold orbit #/#>):",
        "    -x, y = y, x + y",
        "    +x, y = y, x - y",
    ]


def test_parity_shows_one_more_copy_of_a_repeated_step():
    # a kernel that gains one copy of a step it repeats shows that line;
    # nothing else moved, so no marker follows
    old = "def orbit(x, y):\n" + "    x, y = y, x + y\n" * 3 + "    return x, y\n"
    new = old.replace("    return", "    x, y = y, x + y\n    return")
    name = "<chaoscrypt arnold orbit 0/0>"
    assert load_tool("parity").compare(parity_collection(**{name: [old]}),
                                       parity_collection(**{name: [new]})) == [
        "outside the key loop differs in 1 kernels (1 <chaoscrypt arnold orbit #/#>):",
        "    +x, y = y, x + y",
    ]


def test_parity_groups_one_snippet_change_across_step_counts():
    # one snippet spliced into every step of two schedules with different
    # step counts, and changed, is one group of two lines
    def scanner(steps, snippet):
        step = f"            x = fmod(x + b, 1.0)\n            if x > 1e6:\n                {snippet}\n"
        return SCANNER.replace("            b = column\n", "            b = column\n" + step * steps)

    names = {"<chaoscrypt arnold scan 3/3>": 6, "<chaoscrypt duffing scan 1000/1000>": 2000}
    old = parity_collection(**{name: [scanner(steps, "diverged += 1")]
                               for name, steps in names.items()})
    new = parity_collection(**{name: [scanner(steps, "passed.append((a, b))")]
                               for name, steps in names.items()})
    assert load_tool("parity").compare(old, new) == [
        "key loop differs in 2 kernels (1 <chaoscrypt arnold scan #/#>, "
        "1 <chaoscrypt duffing scan #/#>):",
        "    -diverged += 1",
        "    +passed.append((a, b))",
    ]


def test_parity_shows_a_re_indented_key_loop_by_the_lines_it_loses():
    # a key loop that loses its try/except and moves up one level shows
    # those lines and one constant marker for the rest, so two scanners
    # with different bodies fall into one group
    tool = load_tool("parity")
    guarded = ("def scan(a_values, columns):\n    passed = []\n    for a in a_values:\n"
               "        for column in columns:\n            try:\n                b = column\n"
               "                $body\n            except ValueError:\n"
               "                passed.append(None)\n    return passed\n")
    bare = ("def scan(a_values, columns):\n    passed = []\n    for a in a_values:\n"
            "        for column in columns:\n            b = column\n            $body\n"
            "    return passed\n")
    old, new = {}, {}
    for name, body in (("<chaoscrypt arnold scan 1/1>", "passed.append((a, b))"),
                       ("<chaoscrypt duffing scan 2/2+1/1>", "passed.append((b, a))")):
        old[name], new[name] = ([source.replace("$body", body)] for source in (guarded, bare))
    assert tool.compare(parity_collection(**old), parity_collection(**new)) == [
        "key loop differs in 2 kernels (1 <chaoscrypt arnold scan #/#>, "
        "1 <chaoscrypt duffing scan #/#+#/#>):",
        "    -try:",
        "    -except ValueError:",
        "    -passed.append(None)",
        "    ~ moved, repeated or re-indented lines not shown",
    ]


def test_parity_reports_a_change_of_indentation_alone():
    # lines are matched without their indentation, but a change of it is
    # still a difference
    finish = FINISH.replace("    x, y", "        x, y")
    new = parity_collection(**{"<chaoscrypt arnold finish 1/1>": [finish]})
    assert load_tool("parity").compare(parity_collection(), new) == [
        "outside the key loop differs in 1 kernels (1 <chaoscrypt arnold finish #/#>):",
        "    ~ moved, repeated or re-indented lines not shown",
    ]


def test_parity_names_the_map_kinds_a_group_holds():
    # an Arnold and a Duffing finish kernel with the same change fall into
    # one group, which names each kind's family
    finish = FINISH.replace("x0, y0\n", "y0, x0\n")
    old = parity_collection(**{"<chaoscrypt duffing finish 1/1>": [FINISH]})
    new = parity_collection(**{"<chaoscrypt arnold finish 1/1>": [finish],
                               "<chaoscrypt duffing finish 1/1>": [finish]})
    assert load_tool("parity").compare(old, new) == [
        "outside the key loop differs in 2 kernels (1 <chaoscrypt arnold finish #/#>, "
        "1 <chaoscrypt duffing finish #/#>):",
        "    -x, y = x0, y0",
        "    +x, y = y0, x0",
    ]
