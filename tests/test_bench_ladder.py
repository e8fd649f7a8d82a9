"""scripts/bench_ladder.py's loader: two module trees of arl in one interpreter."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def arl_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items() if name == "arl" or name.startswith("arl.")}


@pytest.fixture
def script():
    """The script imported by path with no arl in sys.modules; this process's
    own arl modules and sys.path are put back in place afterwards, so later
    tests see one copy of arl."""
    saved, path = arl_modules(), list(sys.path)
    try:
        for name in saved:
            del sys.modules[name]
        spec = importlib.util.spec_from_file_location("bench_ladder", ROOT / "scripts" / "bench_ladder.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in arl_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        sys.path[:] = path


def test_importing_the_script_imports_no_arl(script):
    assert arl_modules() == {}


def test_two_trees_of_one_src(script):
    a, b = script.load(SRC), script.load(SRC)
    assert "arl.search" in a and a.keys() == b.keys()
    assert not {id(m) for m in a.values()} & {id(m) for m in b.values()}
    for mod in [*a.values(), *b.values()]:
        assert Path(mod.__file__).resolve().is_relative_to(SRC)
    script.bind(a)
    assert importlib.import_module("arl.coloring") is a["arl.coloring"]
    assert arl_modules() == a


def test_rows_find_the_same_on_both_trees(script):
    picked = ("ex(8,K3)", "has_copy(expansion(K5,3), empty K_15^3)")
    found = []
    for tree in (script.load(SRC), script.load(SRC)):
        rows = {name: (op, findings) for name, op, findings in script.rows(tree)}
        assert len(rows) == 25
        script.bind(tree)
        found.append([findings(op()) for op, findings in map(rows.get, picked)])
    assert found[0] == found[1]
    assert (found[0][0]["value"], found[0][0]["status"]) == (16, "exact")
    assert found[0][1]["result"] is False


def test_a_src_without_arl_is_refused(script, tmp_path):
    # this process's sys.path still leads to an arl; load must not take it
    sys.path.append(str(SRC))
    with pytest.raises(SystemExit, match="no arl package"):
        script.load(tmp_path)


def test_paired_ratio_compares_runs_within_a_run(script):
    # a slow spell that doubles three runs of the parent and two of this tree
    # halves the ratio of the trees' medians, 1 over 2, but moves only one
    # run's own ratio
    this, parent = [1.0, 1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0, 2.0]
    assert script.paired_ratio(this, parent) == 1.0
    assert script.paired_ratio([3.0, 1.0, 1.0], [1.0, 2.0, 1.0]) == 1.0
