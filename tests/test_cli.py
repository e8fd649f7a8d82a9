import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from arl.bounds import BoundRow
from arl.cli import run_command
from arl.constructions import special_blowup_graph
from arl.formats import (
    coloring_to_text,
    hypergraph_from_json,
    hypergraph_from_text,
    hypergraph_to_text,
)
from arl.coloring import layered_coloring
from arl.verify import CheckRow

CONSTRUCT_KINDS = [
    ["expansion", "--family", "K3", "--r", "3"],
    ["blowup", "--family", "P3", "--t", "2"],
    ["split", "--family", "P3", "--vertices", "0,2"],
    ["split-family", "--family", "C4"],
    ["minus", "--family", "K4"],
    ["pendant-minus", "--family", "P4", "--k", "1"],
    ["turan", "--n", "6", "--ell", "3"],
    ["special", "--kind", "alpha", "--ell", "3", "--t", "4"],
]


class TestConstruct:
    def test_turan_text(self, capsys):
        assert run_command(["construct", "turan", "--n", "8", "--ell", "3"]) == 0
        out = capsys.readouterr().out
        h = hypergraph_from_text(out)
        assert h.n == 8 and h.num_edges == 21

    def test_turan_triple_system(self, capsys):
        code = run_command(
            ["construct", "turan", "--n", "6", "--ell", "3", "--r", "3"]
        )
        assert code == 0
        h = hypergraph_from_text(capsys.readouterr().out)
        assert h.num_edges == 8

    def test_expansion_json(self, capsys):
        code = run_command(
            ["construct", "expansion", "--family", "K3", "--r", "3", "--format", "json"]
        )
        assert code == 0
        d = json.loads(capsys.readouterr().out)
        assert d["n"] == 6 and len(d["edges"]) == 3

    def test_minus_family_output(self, capsys):
        assert run_command(["construct", "minus", "--family", "K4"]) == 0
        out = capsys.readouterr().out
        assert out.count("# member") == 1  # K4 minus any edge is one class

    def test_split_family(self, capsys):
        assert run_command(["construct", "split-family", "--family", "K3"]) == 0
        out = capsys.readouterr().out
        assert out.count("# member") == 2

    def test_split_family_json(self, capsys):
        argv = ["construct", "split-family", "--family", "K3", "--format", "json"]
        assert run_command(argv) == 0
        assert json.loads(capsys.readouterr().out) == {
            "members": [
                {"n": 3, "r": 2, "edges": [[0, 1], [0, 2], [1, 2]]},
                {"n": 4, "r": 2, "edges": [[0, 1], [0, 2], [1, 3]]},
            ]
        }

    @pytest.mark.parametrize("kind", CONSTRUCT_KINDS, ids=lambda argv: argv[0])
    def test_every_kind_text_and_json_agree(self, kind, capsys):
        assert run_command(["construct", *kind]) == 0
        text = capsys.readouterr().out
        assert run_command(["construct", *kind, "--format", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        if "members" not in d:
            assert hypergraph_from_text(text) == hypergraph_from_json(d)
            return
        head, *blocks = text.split("# member ")
        assert head == f"{len(d['members'])} members\n"
        assert len(blocks) == len(d["members"]) > 0
        for i, (block, m) in enumerate(zip(blocks, d["members"])):
            index, body = block.split("\n", 1)
            assert int(index) == i
            assert hypergraph_from_text(body) == hypergraph_from_json(m)

    def test_special_requires_min_t(self, capsys):
        code = run_command(
            ["construct", "special", "--kind", "plus", "--ell", "3", "--t", "1"]
        )
        assert code == 2
        assert "t" in capsys.readouterr().err

    def test_library_warning_is_one_line(self, capsys):
        argv = ["construct", "special", "--kind", "gamma", "--ell", "2", "--t", "2"]
        assert run_command(argv) == 0
        out, err = capsys.readouterr()
        with pytest.warns(UserWarning) as record:
            h = special_blowup_graph("gamma", 2, 2)
        assert out == hypergraph_to_text(h)
        assert err == f"warning: {record[0].message}\n"
        assert "cli.py" not in err

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "h.txt"
        code = run_command(
            ["construct", "turan", "--n", "5", "--ell", "2", "--out", str(dest)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert hypergraph_from_text(dest.read_text()).num_edges == 6


class TestSolve:
    def test_ar_text(self, capsys):
        assert run_command(["solve", "ar", "--n", "4", "--family", "K3"]) == 0
        out = capsys.readouterr().out
        assert "value:   4" in out

    def test_ex_json(self, capsys):
        code = run_command(
            ["solve", "ex", "--n", "6", "--family", "K3", "--format", "json"]
        )
        assert code == 0
        d = json.loads(capsys.readouterr().out)
        assert d["value"] == 9 and d["status"] == "exact"
        assert d["witness"]["kind"] == "hypergraph"

    def test_family_descriptor_list(self, capsys):
        code = run_command(
            ["solve", "ex", "--n", "5", "--family", "K3,P3", "--format", "json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == 2

    def test_pattern_from_file(self, tmp_path, capsys):
        src = tmp_path / "f.txt"
        src.write_text("3 2\n0 1\n0 2\n1 2\n")
        code = run_command(
            ["solve", "ex", "--n", "5", "--in", str(src), "--format", "json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == 6

    def test_budget_exhaustion_exit_code(self, capsys):
        code = run_command(
            ["solve", "ar", "--n", "5", "--family", "K4", "--budget-nodes", "50"]
        )
        assert code == 3
        assert "budget_exhausted" in capsys.readouterr().out

    def test_missing_pattern_is_usage_error(self, capsys):
        assert run_command(["solve", "ex", "--n", "5"]) == 2
        assert "--family" in capsys.readouterr().err

    def test_unknown_descriptor(self, capsys):
        assert run_command(["solve", "ex", "--n", "5", "--family", "Q7"]) == 2
        assert "Q7" in capsys.readouterr().err

    def test_negative_n_is_usage_error(self, capsys):
        assert run_command(["solve", "ex", "--n", "-1", "--family", "K3"]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_command(["solve", "ex", "--n", "5", "--in", "/nope.txt"]) == 2

    def test_two_patterns_for_ar_is_usage_error(self, capsys):
        assert run_command(["solve", "ar", "--n", "4", "--family", "K3,K4"]) == 2
        assert "exactly one pattern expected here" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "rainbow-free", "--coloring", "{dir}", "--family", "K3"],
            ["solve", "ex", "--n", "5", "--in", "{dir}"],
            ["construct", "turan", "--n", "4", "--ell", "2", "--out", "{dir}"],
        ],
        ids=["coloring", "in", "out"],
    )
    def test_directory_path_is_usage_error(self, tmp_path, capsys, argv):
        # an OS error on a path exits 2, not 1, the code of a failing check
        assert run_command([a.format(dir=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"n": 3, "r": 2, "edges": [[1, 0], [2, 1]]}, "strictly increasing"),
            ({"n": 3, "edges": [[0, 1]]}, "'r'"),
        ],
    )
    def test_malformed_json_is_usage_error(self, tmp_path, capsys, payload, message):
        src = tmp_path / "f.json"
        src.write_text(json.dumps(payload))
        assert run_command(["solve", "ex", "--n", "4", "--in", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "flags", [["--budget-nodes", "-1"], ["--budget-secs", "-0.5"]]
    )
    def test_negative_budget_is_usage_error(self, capsys, flags):
        argv = ["solve", "ar", "--n", "4", "--family", "K3"] + flags
        assert run_command(argv) == 2
        assert "must be >= 0" in capsys.readouterr().err



class TestColorAndCheck:
    def test_layered_roundtrip(self, capsys):
        assert run_command(["color", "layered", "--n", "7", "--ell", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "7 3 15"

    def test_rainbow_free_yes(self, tmp_path, capsys):
        from arl.constructions import complete_graph, expansion
        from arl.formats import hypergraph_to_text

        chifile = tmp_path / "chi.txt"
        chifile.write_text(coloring_to_text(layered_coloring(6, 3)))
        patfile = tmp_path / "pat.txt"
        patfile.write_text(hypergraph_to_text(expansion(complete_graph(4), 3)))
        code = run_command(
            ["check", "rainbow-free", "--coloring", str(chifile), "--in", str(patfile)]
        )
        assert code == 0
        assert "rainbow-free: yes" in capsys.readouterr().out

    def test_rainbow_free_no_is_still_success(self, tmp_path, capsys):
        chifile = tmp_path / "chi.txt"
        chifile.write_text("3 2 3\n0 1 2\n")
        code = run_command(
            ["check", "rainbow-free", "--coloring", str(chifile), "--family", "K3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rainbow-free: no" in out and "member: 0" in out

    def test_rainbow_free_json(self, tmp_path, capsys):
        chifile = tmp_path / "chi.txt"
        chifile.write_text("3 2 3\n0 1 2\n")
        argv = ["check", "rainbow-free", "--coloring", str(chifile), "--format", "json"]
        # K4 cannot fit in K_3, so the witness is for member 1
        assert run_command(argv + ["--family", "K4,K3"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "free": False,
            "member_index": 1,
            "witness": {
                "images": [0, 1, 2],
                "edges": [
                    {"edge": [0, 1], "color": 0},
                    {"edge": [0, 2], "color": 1},
                    {"edge": [1, 2], "color": 2},
                ],
            },
        }
        assert run_command(argv + ["--family", "K4"]) == 0
        assert json.loads(capsys.readouterr().out) == {"free": True}
        assert run_command(argv + ["--family", "K3", "--budget-nodes", "1"]) == 3
        assert json.loads(capsys.readouterr().out) == {
            "free": None,
            "note": "search budget exhausted after 2 nodes",
        }

    def test_rainbow_free_budget_flag(self, tmp_path, capsys):
        chifile = tmp_path / "chi.txt"
        chifile.write_text("3 2 3\n0 1 2\n")
        argv = ["check", "rainbow-free", "--coloring", str(chifile), "--family", "K3"]
        assert run_command(argv + ["--budget-nodes", "1"]) == 3
        assert "undecided" in capsys.readouterr().out
        assert run_command(argv + ["--budget-nodes", "1000"]) == 0
        assert "rainbow-free: no" in capsys.readouterr().out


class TestBoundsCommand:
    def test_text(self, capsys):
        assert run_command(["bounds", "--n", "5", "--family", "K3"]) == 0
        out = capsys.readouterr().out
        assert "lower-minus" in out and "hard bounds ok: yes" in out

    def test_json(self, capsys):
        code = run_command(
            ["bounds", "--n", "5", "--family", "K3", "--format", "json"]
        )
        assert code == 0
        d = json.loads(capsys.readouterr().out)
        assert d["ar_value"] == 5 and d["hard_ok"] is True
        keys = {f.name for f in fields(BoundRow)}
        assert d["rows"] and all(set(row) == keys for row in d["rows"])

    def test_target_too_large_for_host(self, capsys):
        assert run_command(["bounds", "--n", "2", "--family", "K3"]) == 0
        out = capsys.readouterr().out
        assert "[indeterminate, soft]  # target does not fit: 3 vertices > n" in out
        assert "hard bounds ok: yes" in out

    def test_budget_exit(self, capsys):
        code = run_command(
            ["bounds", "--n", "6", "--family", "K4", "--budget-nodes", "3"]
        )
        assert code == 3

    def test_large_expansion_budget_exit(self, capsys):
        code = run_command(
            ["bounds", "--n", "7", "--family", "K6", "--r", "3", "--budget-nodes", "10"]
        )
        assert code == 3
        rows = capsys.readouterr().out.splitlines()[2:-1]
        assert rows and all(line.endswith("# budget") for line in rows)


class TestVerifyCommand:
    def test_only_k4_exact(self, capsys):
        assert run_command(["verify-paper", "--only", "k4-exact"]) == 0
        out = capsys.readouterr().out
        assert "5 passed, 0 failed" in out
        assert out.count("ok ") == 5

    def test_only_k4_exact_json(self, capsys):
        argv = ["verify-paper", "--only", "k4-exact", "--format", "json"]
        assert run_command(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 5
        keys = {f.name for f in fields(CheckRow)}
        assert all(set(row) == keys and row["verdict"] == "pass" for row in rows)

    # a removed group key is rejected like a typo; c07-c10 test those properties
    @pytest.mark.parametrize("key", ["zzz", "detector", "merge", "freeness", "witness"])
    def test_only_no_match(self, key, capsys):
        assert run_command(["verify-paper", "--only", key]) == 2
        assert key in capsys.readouterr().err

    def test_known_failing_group_returns_1(self, capsys):
        # layered coloring cannot reach the advertised color count at n=4,5;
        # the suite reports those rows honestly, so the exit code is 1
        assert run_command(["verify-paper", "--only", "layered"]) == 1
        assert "fail" in capsys.readouterr().out


class TestParser:
    def test_rejects_garbage(self):
        with pytest.raises(SystemExit):
            run_command(["frobnicate"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            run_command([])


def test_library_import_skips_cli_modules():
    # `import arl` stays cheap: the output and CLI modules, and the json and
    # argparse they pull in, load only when asked for
    probe = (
        "import sys, arl; "
        "print(sorted(m for m in ('arl.formats', 'arl.cli', 'json', 'argparse')"
        " if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
