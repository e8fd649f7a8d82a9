import json
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arl import formats
from arl.bounds import bound_report
from arl.coloring import make_coloring
from arl.constructions import complete_graph, single_edge, turan_hypergraph
from arl.hypergraph import kn_edges, make_hypergraph
from arl.search import SearchReport, exact_anti_ramsey, exact_turan, verify_feasibility


def random_hypergraph(rng):
    r = rng.choice([2, 3])
    n = rng.randint(r, 7)
    pool = kn_edges(n, r)
    edges = rng.sample(pool, rng.randint(0, len(pool)))
    return make_hypergraph(n, r, edges)


def random_coloring(rng):
    r = rng.choice([2, 3])
    n = rng.randint(r, 6)
    M = comb(n, r)
    m = rng.randint(1, M)
    raw = [rng.randrange(m) for _ in range(M)]
    remap = {}
    return make_coloring(n, r, [remap.setdefault(x, len(remap)) for x in raw])


class TestHypergraphRoundTrip:
    def test_text_exact(self):
        rng = random.Random(1)
        for _ in range(50):
            h = random_hypergraph(rng)
            text = formats.hypergraph_to_text(h)
            assert formats.hypergraph_from_text(text) == h
            assert formats.hypergraph_to_text(formats.hypergraph_from_text(text)) == text

    def test_json_exact(self):
        rng = random.Random(2)
        for _ in range(50):
            h = random_hypergraph(rng)
            blob = json.dumps(formats.hypergraph_to_json(h))
            assert formats.hypergraph_from_json(json.loads(blob)) == h

    def test_comments_and_blanks_ignored(self):
        text = "# host\n3 2\n\n0 1  # first\n# trailing\n1 2\n"
        h = formats.hypergraph_from_text(text)
        assert h.edges == ((0, 1), (1, 2))

    def test_bad_header(self):
        with pytest.raises(ValueError):
            formats.hypergraph_from_text("3\n0 1\n")
        with pytest.raises(ValueError):
            formats.hypergraph_from_text("")

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            formats.hypergraph_from_text("3 2\n1 0\n")  # unsorted
        with pytest.raises(ValueError):
            formats.hypergraph_from_text("3 2\n0 3\n")  # out of range
        with pytest.raises(ValueError):
            formats.hypergraph_from_text("3 2\n0 1 2\n")  # wrong arity

    def test_json_unsorted_edges_rejected(self):
        # the text reader refuses these edges too; neither reader repairs them
        with pytest.raises(ValueError, match="strictly increasing"):
            formats.hypergraph_from_json({"n": 3, "r": 2, "edges": [[1, 0], [2, 1]]})
        with pytest.raises(ValueError, match="colex order"):
            formats.hypergraph_from_json({"n": 3, "r": 2, "edges": [[1, 2], [0, 1]]})
        with pytest.raises(ValueError, match="colex order"):
            formats.hypergraph_from_text("3 2\n1 2\n0 1\n")
        with pytest.raises(ValueError, match="colex order"):
            formats.hypergraph_from_text("3 2\n0 1\n0 1\n")

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"n": 3, "edges": [[0, 1]]}, "'r'"),
            ({"r": 2, "edges": [[0, 1]]}, "'n'"),
            ({"n": 3, "r": 2}, "'edges'"),
            ({"n": "3", "r": 2, "edges": [[0, 1]]}, "'n'"),
            ({"n": 3, "r": 2.0, "edges": [[0, 1]]}, "'r'"),
            ({"n": 3, "r": 2, "edges": [[0, "1"]]}, "'edges'"),
            ({"n": 3, "r": 2, "edges": [0, 1]}, "'edges'"),
        ],
    )
    def test_json_bad_field_named(self, payload, field):
        with pytest.raises(ValueError, match=field):
            formats.hypergraph_from_json(payload)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), st.data())
    def test_text_property(self, r, data):
        n = data.draw(st.integers(r, 6))
        pool = kn_edges(n, r)
        picks = data.draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
        h = make_hypergraph(n, r, picks)
        assert formats.hypergraph_from_text(formats.hypergraph_to_text(h)) == h


class TestColoringRoundTrip:
    def test_text_exact(self):
        rng = random.Random(3)
        for _ in range(50):
            chi = random_coloring(rng)
            text = formats.coloring_to_text(chi)
            assert formats.coloring_from_text(text) == chi
            assert formats.coloring_to_text(formats.coloring_from_text(text)) == text

    def test_json_exact(self):
        rng = random.Random(4)
        for _ in range(50):
            chi = random_coloring(rng)
            blob = json.dumps(formats.coloring_to_json(chi))
            assert formats.coloring_from_json(json.loads(blob)) == chi

    def test_header_mismatch(self):
        with pytest.raises(ValueError):
            formats.coloring_from_text("3 2 2\n0 0 0\n")
        with pytest.raises(ValueError):
            formats.coloring_from_json({"n": 3, "r": 2, "num_colors": 1, "colors": [0, 1, 0]})

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"n": 3, "r": 2, "colors": [0, 0, 0]}, "'num_colors'"),
            ({"n": 3, "num_colors": 1, "colors": [0, 0, 0]}, "'r'"),
            ({"n": 3, "r": 2, "num_colors": 1}, "'colors'"),
            ({"n": 3, "r": 2, "num_colors": True, "colors": [0, 0, 0]}, "'num_colors'"),
            ({"n": 3, "r": 2, "num_colors": 1, "colors": [0, 0, None]}, "'colors'"),
        ],
    )
    def test_json_bad_field_named(self, payload, field):
        with pytest.raises(ValueError, match=field):
            formats.coloring_from_json(payload)

    @pytest.mark.parametrize(
        "n, r, colors, message",
        [
            (3, 0, [0], "uniformity must be >= 1, got 0"),
            (2, -1, [], "uniformity must be >= 1, got -1"),
            (-1, 2, [], "vertex count must be >= 0, got -1"),
        ],
    )
    def test_shape_rejected(self, n, r, colors, message):
        m = len(set(colors))
        text = f"{n} {r} {m}\n" + " ".join(map(str, colors)) + "\n"
        with pytest.raises(ValueError, match=message):
            formats.coloring_from_text(text)
        payload = {"n": n, "r": r, "num_colors": m, "colors": colors}
        with pytest.raises(ValueError, match=message):
            formats.coloring_from_json(payload)

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            formats.coloring_from_text("3 2 2\n0 2 0\n")

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            formats.coloring_from_text("3 2 1\n0 0\n")

    def test_ids_may_wrap_lines(self):
        chi = formats.coloring_from_text("4 2 2\n0 1 0\n1 0 1\n")
        assert chi.colors == (0, 1, 0, 1, 0, 1)


class TestReportRoundTrip:
    def test_turan_report(self):
        rep = exact_turan(5, [complete_graph(3)])
        blob = formats.dumps(formats.report_to_json(rep))
        back = formats.report_from_json(json.loads(blob))
        assert back.value == rep.value
        assert back.witness == rep.witness
        assert back.status == rep.status
        assert back.instance == rep.instance

    def test_anti_ramsey_report_with_and_without_witness(self):
        from arl.constructions import single_edge

        for rep in (
            exact_anti_ramsey(4, complete_graph(3)),
            exact_anti_ramsey(4, single_edge(2)),
        ):
            back = formats.report_from_json(formats.report_to_json(rep))
            assert back.witness == rep.witness and back.value == rep.value

    def test_report_with_retired_keys_loads(self):
        # reports once carried a top-level "leaves" and instance.prune_bound;
        # keys a reader does not know are ignored
        rep = exact_anti_ramsey(4, complete_graph(3))
        d = formats.report_to_json(rep)
        assert "leaves" not in d and "prune_bound" not in d["instance"]
        d["leaves"] = 5
        d["instance"]["prune_bound"] = False
        back = formats.report_from_json(d)
        assert back.value == rep.value and back.witness == rep.witness
        assert verify_feasibility(back)

    def test_text_rendering_mentions_value(self):
        rep = exact_turan(5, [complete_graph(3)])
        text = formats.report_to_text(rep)
        assert "value:   6" in text
        assert "witness hypergraph:" in text

    def test_unknown_witness_kind(self):
        rep = exact_turan(4, [complete_graph(3)])
        d = formats.report_to_json(rep)
        d["witness"]["kind"] = "mystery"
        with pytest.raises(ValueError):
            formats.report_from_json(d)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d.pop("elapsed_ms"), "'elapsed_ms'"),
            (lambda d: d.pop("nodes"), "'nodes'"),
            (lambda d: d.pop("status"), "'status'"),
            (lambda d: d.pop("value"), "'value'"),
            (lambda d: d.pop("instance"), "'instance'"),
            (lambda d: d.pop("witness"), "'witness'"),
            (lambda d: d["witness"].pop("kind"), "'kind'"),
            (lambda d: d.update(nodes="many"), "'nodes'"),
            (lambda d: d.update(nodes=True), "'nodes'"),
            (lambda d: d.update(value=6.0), "'value'"),
            (lambda d: d.update(elapsed_ms="1"), "'elapsed_ms'"),
            (lambda d: d.update(status="done"), "'status'"),
            (lambda d: d.update(instance=[]), "'instance'"),
            (lambda d: d.update(witness=[]), "'witness'"),
            (lambda d: d["witness"].pop("edges"), "'edges'"),
            (lambda d: d.update(instance={}), "'problem'"),
            (lambda d: d["instance"].update(problem="ramsey"), "'problem'"),
            (lambda d: d["instance"].pop("n"), "'n'"),
            (lambda d: d["instance"].update(r="2"), "'r'"),
            (lambda d: d["instance"].update(patterns="K3"), "'patterns'"),
            (lambda d: d["instance"].update(patterns=[[0, 1]]), "'patterns'"),
            (lambda d: d["instance"].update(below="x"), "'below'"),
        ],
        ids=[
            "no-elapsed", "no-nodes", "no-status", "no-value", "no-instance",
            "no-witness", "no-kind", "nodes-str", "nodes-bool", "value-float",
            "elapsed-str", "status-unknown", "instance-list", "witness-list",
            "witness-no-edges", "instance-empty", "problem-unknown", "no-n",
            "r-str", "patterns-str", "patterns-flat", "below-str",
        ],
    )
    def test_json_bad_field_named(self, edit, field):
        d = formats.report_to_json(exact_turan(4, [complete_graph(3)]))
        edit(d)
        with pytest.raises(ValueError, match=field):
            formats.report_from_json(d)

    def test_optional_fields(self):
        # the witness, value and below may be null, and reports written
        # before the ladder have no below
        rep = exact_turan(4, [complete_graph(3)])
        d = formats.report_to_json(rep)
        d.update(value=None, witness=None, status="budget_exhausted", elapsed_ms=3)
        d["instance"]["below"] = None
        back = formats.report_from_json(d)
        assert back.value is None and back.witness is None
        assert back.elapsed == 0.003 and back.instance["below"] is None
        del d["instance"]["below"]
        assert "below" not in formats.report_from_json(d).instance


class TestBounds:
    def test_json_shape(self):
        table = bound_report(5, complete_graph(3))
        d = formats.bounds_to_json(table)
        assert set(d) == {
            "n", "r", "base", "target", "ar_value", "ar_status", "hard_ok", "rows",
        }
        assert d["hard_ok"] is True
        assert {row["name"] for row in d["rows"]} == {"lower-minus", "upper-pendant-k1"}
        json.dumps(d)  # serializable

    def test_text_contains_verdicts(self):
        table = bound_report(5, complete_graph(3))
        text = formats.bounds_to_text(table)
        assert "lower-minus" in text and "[satisfied, hard]" in text
        assert text.endswith("hard bounds ok: yes\n")


class TestDumps:
    def test_deterministic(self):
        h = turan_hypergraph(5, 2, 2)
        a = formats.dumps(formats.hypergraph_to_json(h))
        b = formats.dumps(formats.hypergraph_to_json(h))
        assert a == b and a.endswith("\n")
        assert list(json.loads(a)) == sorted(json.loads(a))


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda: formats.coloring_from_text("# no content\n"), ValueError,
         "empty coloring text"),
        (lambda: formats.coloring_from_text("3 2\n0 1 2\n"), ValueError,
         "header must be 'n r num_colors', got '3 2'"),
        (lambda: formats.report_to_json(SearchReport(1, object(), 0, 0.0, "exact", {})),
         TypeError, "unserializable witness object"),
    ],
    ids=["empty_coloring_text", "short_coloring_header", "unserializable_witness"],
)
def test_input_checks(call, kind, message):
    with pytest.raises(kind) as err:
        call()
    assert str(err.value) == message


def test_report_text_without_witness():
    # a single edge is rainbow in every coloring: ar = 1 and there is no witness
    text = formats.report_to_text(exact_anti_ramsey(3, single_edge(2)))
    assert "witness: none" in text.splitlines()
