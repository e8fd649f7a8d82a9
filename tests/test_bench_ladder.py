"""scripts/bench_ladder.py's loader: two module trees of arl in one interpreter."""

import importlib
import importlib.util
import sys
from math import comb
from pathlib import Path
from types import SimpleNamespace

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


def test_run_ratios_give_the_spread(script):
    # SPREAD prints the least and largest of these, around RATIO's median
    ratios = script.run_ratios([1.0, 3.0, 1.0], [2.0, 2.0, 1.0])
    assert ratios == [0.5, 1.5, 1.0]
    assert script.paired_ratio([1.0, 3.0, 1.0], [2.0, 2.0, 1.0]) == 1.0


def test_unresolved_needs_runs_on_both_sides_of_ten_percent(script):
    # UNRESOLVED follows SPREAD when the runs disagree on a 10% change
    assert script.unresolved([0.85, 1.0, 1.15])
    assert not script.unresolved([0.85, 0.95, 1.05])
    assert not script.unresolved([1.0, 1.15, 1.3])
    assert not script.unresolved([0.9, 1.1])  # the bounds themselves are resolved


def test_final_table_from_either_yield_shape(script):
    # a checkout's _copy_tables yields the host (table, masks, most) per
    # rung, an older one the bare table
    table = [[], [], [(0, 1)]]
    assert script.final_table(iter([([], [], []), (table, [3, 5, 6], [1, 2, 2])])) is table
    assert script.final_table(iter([[], table])) is table


def test_copy_table_rows_from_either_yield_shape(script):
    # C5 has 12 copies on its own five vertices, so C(16, 5) * 12 in K_16
    tree = script.load(SRC)
    search = tree["arl.search"]

    def bare(n, family, deadline=None):
        for host in search._copy_tables(n, family, deadline):
            yield None if host is None else host[0]

    old = dict(tree, **{"arl.search": SimpleNamespace(**{**vars(search), "_copy_tables": bare})})
    name = "copy table of C5 in K_16"
    for t in (tree, old):
        op, findings = next((op, findings) for row, op, findings in script.rows(t) if row == name)
        script.bind(tree)
        assert findings(op())["result"] == comb(16, 5) * 12
