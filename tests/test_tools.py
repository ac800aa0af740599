"""The repository's tools, each loaded from tools/ as the script it is."""

import importlib.util
import json
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
