"""The repository's tools, each loaded from tools/ as the script it is."""

import ast
import importlib.util
import inspect
import json
import re
import shutil
from pathlib import Path

import oracles

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
        assert rows == [["report_tables", "0", "report_s", "s", "0.08", "0.08", "1.000",
                         "[1.000,", "1.000]", "0/1"]]


def test_recorded_runs_use_a_copy_without_bytecode(tmp_path, monkeypatch):
    # each label runs in its own copy of its checkout, made without
    # __pycache__ or .git, so a run compiles the package from source and
    # writes nothing inside the checkout
    tool = load_tool("bench_record")
    checkout = tmp_path / "checkout"
    shutil.copytree(TOOLS.parent / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (checkout / "bench").mkdir()
    (checkout / "bench" / "run.py").write_text("")
    for stale in ("src/chaoscrypt/__pycache__/cipher.cpython-311.pyc", ".git/HEAD"):
        (checkout / stale).parent.mkdir(parents=True)
        (checkout / stale).write_bytes(b"stale")

    def tree(root):
        return {str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}

    before = tree(checkout)
    source = {name: data for name, data in before.items()
              if "__pycache__" not in name and not name.startswith(".git")}
    ran = []

    def run_once(copy, workload, seed, seconds):
        assert copy != checkout and tree(copy) == source
        ran.append(copy)
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"setup_s": 0.04}}

    monkeypatch.setattr(tool, "run_once", run_once)
    out = tmp_path / "record.json"
    assert tool.main(["--out", str(out), "--checkout", f"a={checkout}", "--checkout",
                      f"b={checkout}", "--workloads", "file_roundtrip", "--runs", "2"]) == 0
    assert len(ran) == 4 and len(set(ran)) == 2 and not any(copy.exists() for copy in ran)
    cell = json.loads(out.read_text())["workloads"]["file_roundtrip"]["0"]
    assert [len(cell[label]["runs"]) for label in "ab"] == [2, 2]
    assert tree(checkout) == before


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


def test_record_refuses_a_repeated_label_and_runs_below_one(tmp_path, monkeypatch, capsys):
    # a second checkout under one label would drop the first one's runs,
    # and no run at all records nothing: both are refused before any run,
    # and no file is written
    tool = load_tool("bench_record")

    def run_once(*args):
        raise AssertionError("a refused call runs nothing")

    monkeypatch.setattr(tool, "run_once", run_once)
    out, root = tmp_path / "record.json", str(TOOLS.parent)
    for argv, error in ((["--checkout", f"a={root}", "--checkout", f"a={root}"], "given twice"),
                        (["--checkout", f"a={root}", "--runs", "0"], "below 1")):
        assert tool.main(["--out", str(out), "--workloads", "report_tables", *argv]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()


def test_record_alternates_which_label_goes_first(tmp_path, monkeypatch):
    # the runs of two labels pair up because they take turns to go first
    tool = load_tool("bench_record")
    order = []

    def run_once(copy, workload, seed, seconds):
        order.append("ab"[int(copy.name)])
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"report_s": 0.08}}

    monkeypatch.setattr(tool, "run_once", run_once)
    root = str(TOOLS.parent)
    assert tool.main(["--out", str(tmp_path / "record.json"), "--checkout", f"a={root}",
                      "--checkout", f"b={root}", "--workloads", "report_tables",
                      "--runs", "3"]) == 0
    assert order == ["a", "b", "b", "a", "a", "b"]


def test_record_of_a_failed_run_exits_1_and_shows_its_error(tmp_path, monkeypatch, capsys):
    # a run that is not correct is still written to the record, the call
    # exits 1, and comparing shows the last line of that run's stderr
    tool = load_tool("bench_record")
    runs = iter([{"correct": True, "attempted": 1, "failed": 0, "metrics": {"report_s": 0.08}},
                 {"correct": False, "attempted": 0, "failed": None, "metrics": {},
                  "error": "Traceback (most recent call last):\nValueError: no tables"}])
    monkeypatch.setattr(tool, "run_once", lambda *args: next(runs))
    out, root = tmp_path / "record.json", str(TOOLS.parent)
    assert tool.main(["--out", str(out), "--checkout", f"a={root}", "--checkout", f"b={root}",
                      "--workloads", "report_tables", "--runs", "1"]) == 1
    assert "b: correct=False failed=None error: ValueError: no tables" in capsys.readouterr().err
    cell = json.loads(out.read_text())["workloads"]["report_tables"]["0"]
    assert [len(cell[label]["runs"]) for label in "ab"] == [1, 1]
    assert tool.main(["--compare", f"{out}:a", f"{out}:b"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == [
        "report_tables", "0", "new", "run:", "correct=False", "failed=None", "error:",
        "ValueError:", "no", "tables"]


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


def lifted_scanner(grid, row, column_1, column_2, read):
    """A scanner whose lift pass named its grid value grid, its row value
    row and its two column values column_1 and column_2, and whose key
    line reads the column value read."""
    return (f"def scan(a_values, b_values, x0):\n    passed, columns = [], []\n"
            f"    {grid} = x0 * x0\n    for b in b_values:\n        {column_1} = 1.0 - b\n"
            f"        {column_2} = b * b\n        columns.append((b, {column_1}, {column_2}))\n"
            f"    for a in a_values:\n        {row} = a - 1.0\n        for column in columns:\n"
            f"            b, {column_1}, {column_2} = column\n"
            f"            passed.append(({row} * {grid}, {read}))\n    return passed\n")


def test_parity_reads_no_difference_in_how_lifted_names_are_numbered():
    # the lift pass numbers its names by how many it has made, so one
    # change elsewhere renumbers them all; each level is numbered afresh in
    # order of first appearance before the kernels are compared
    name = "<chaoscrypt arnold scan 1/1>"
    old = parity_collection(**{name: [lifted_scanner("_g3", "_r9", "_c5", "_c6", "_c5")]})
    new = parity_collection(**{name: [lifted_scanner("_g2", "_r12", "_c7", "_c11", "_c7")]})
    assert load_tool("parity").compare(old, new) == []


def test_parity_shows_a_key_line_that_reads_another_lifted_value():
    name = "<chaoscrypt duffing scan 2/2+1/1>"
    old = parity_collection(**{name: [lifted_scanner("_g3", "_r9", "_c5", "_c6", "_c5")]})
    new = parity_collection(**{name: [lifted_scanner("_g3", "_r9", "_c5", "_c6", "_c6")]})
    assert load_tool("parity").compare(old, new) == [
        "key loop differs in 1 kernels (1 <chaoscrypt duffing scan #/#+#/#>):",
        "    -passed.append((_r1 * _g1, _c1))",
        "    +passed.append((_r1 * _g1, _c2))",
    ]


def test_bench_calls_only_oracles_that_exist():
    # bench/run.py checks the package against tests/oracles.py, calling
    # its functions as pkg.oracles.<name>, and reads the package as
    # pkg.<module>.<name> or through a name bound to pkg.<module> (A, C,
    # M): a renamed oracle or package name breaks every bench run. Its
    # report replay reads analysis_report's defaults by parameter name.
    tree = ast.parse((TOOLS.parent / "bench" / "run.py").read_text())
    bound = set()  # (alias, module)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(value, ast.Tuple) else [(target, value)])
            for name, module in pairs:
                match = re.fullmatch(r"pkg\.(\w+)", ast.unparse(module))
                if isinstance(name, ast.Name) and match:
                    bound.add((name.id, match[1]))
    aliases = dict(bound)
    assert len(aliases) == len(bound) and {"A", "C", "M"} <= set(aliases), sorted(bound)
    reads = set()  # (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            value = ast.unparse(node.value)
            match = re.fullmatch(r"(?:self\.)?pkg\.(\w+)", value)
            if match or value in aliases:
                reads.add((match[1] if match else aliases[value], node.attr))
    modules = {"oracles": oracles, **{name: importlib.import_module(f"chaoscrypt.{name}")
                                      for name in ("maps", "cipher", "analysis", "cli")}}
    assert {module for module, _ in reads} == set(modules)
    missing = sorted(f"{module}.{name}" for module, name in reads
                     if not hasattr(modules[module], name))
    assert not missing, f"bench/run.py reads names that do not exist: {missing}"
    assert all(callable(getattr(oracles, name)) for module, name in reads if module == "oracles")
    replay, = (node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "replay_report")
    read = {node.slice.value for node in ast.walk(replay)
            if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "defaults"}
    parameters = set(inspect.signature(modules["analysis"].analysis_report).parameters)
    assert read and not read - parameters, f"analysis_report has no parameter {read - parameters}"
