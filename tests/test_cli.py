import json
import time

import pytest

from magiclab import search
from magiclab.cli import main
from magiclab.families import wreath, wreath_natural_labeling, wreath_non_sr_labeling
from magiclab.graphs import graph_from_json, graph_to_json, are_isomorphic
from magiclab.labelings import is_distance_magic, labeling_to_json, labeling_from_json


@pytest.fixture
def w3_files(tmp_path):
    g = tmp_path / "w3.json"
    l = tmp_path / "l3.json"
    g.write_text(graph_to_json(wreath(3)))
    l.write_text(labeling_to_json(wreath_natural_labeling(3)))
    return str(g), str(l)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_wreath(self, capsys):
        code, out, _ = run(capsys, "gen", "wreath", "5")
        assert code == 0
        g = graph_from_json(out)
        assert g.n == 10 and g.is_regular(4)

    def test_circulant(self, capsys):
        code, out, _ = run(capsys, "gen", "circulant", "24", "1,5,-1,-5")
        assert code == 0
        assert graph_from_json(out).is_regular(4)

    def test_cartesian_and_direct(self, capsys):
        code, out, _ = run(capsys, "gen", "cartesian", "3", "6")
        assert code == 0 and graph_from_json(out).n == 18
        code, out, _ = run(capsys, "gen", "direct", "4", "4")
        assert code == 0 and not graph_from_json(out).is_connected()

    def test_bad_family_usage_error(self, capsys):
        assert run(capsys, "gen", "moebius", "5")[0] == 1


class TestLabel:
    def test_natural(self, capsys):
        code, out, _ = run(capsys, "label", "natural", "3")
        assert code == 0
        assert labeling_from_json(out).labels == (1, 3, 5, -1, -3, -5)

    def test_nonsr_requires_m8(self, capsys):
        assert run(capsys, "label", "nonsr", "4")[0] == 1


class TestVerify:
    def test_natural_sr_passes(self, capsys, w3_files):
        g, l = w3_files
        code, out, _ = run(capsys, "verify", "--graph", g, "--labeling", l, "--sr")
        assert code == 0
        report = json.loads(out)
        assert report["distance_magic"] and report["self_reverse"]
        assert report["degenerate"] and report["connected"] and report["regular4"]

    def test_tweak_sr_fails(self, capsys, tmp_path):
        g = tmp_path / "w8.json"
        l = tmp_path / "t8.json"
        g.write_text(graph_to_json(wreath(8)))
        l.write_text(labeling_to_json(wreath_non_sr_labeling(8)))
        code, out, _ = run(capsys, "verify", "--graph", str(g), "--labeling", str(l), "--sr")
        assert code == 2
        assert json.loads(out)["distance_magic"] is True

    def test_malformed_json(self, capsys, tmp_path, w3_files):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "verify", "--graph", str(bad), "--labeling", w3_files[1])
        assert code == 1
        assert err

    @pytest.mark.parametrize("text", ['{"edges": []}', "[1,2]"])
    @pytest.mark.parametrize("which", ["graph", "labeling"])
    def test_wrong_shape_json(self, capsys, tmp_path, w3_files, text, which):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        files = {"graph": w3_files[0], "labeling": w3_files[1], which: str(bad)}
        code, _, err = run(capsys, "verify", "--graph", files["graph"],
                           "--labeling", files["labeling"])
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("which,text", [
        ("labeling", '{"order": 6, "labels": [1.5, 3, 5, -1, -3, -5]}'),
        ("labeling", '{"order": 6, "labels": [1, "3", 5, -1, -3, -5]}'),
        ("graph", '{"order": 6.9, "edges": []}'),
        ("graph", '{"order": 6, "edges": [[0, 1, 2]]}'),
    ])
    def test_non_integer_json(self, capsys, tmp_path, w3_files, which, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        files = {"graph": w3_files[0], "labeling": w3_files[1], which: str(bad)}
        code, _, err = run(capsys, "verify", "--graph", files["graph"],
                           "--labeling", files["labeling"])
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_missing_file(self, capsys, w3_files):
        code, _, _ = run(capsys, "verify", "--graph", "/nonexistent.json", "--labeling", w3_files[1])
        assert code == 1

    def test_library_agreement(self, capsys, w3_files):
        # the CLI verdict must equal the library predicate on the same input
        g, l = w3_files
        _, out, _ = run(capsys, "verify", "--graph", g, "--labeling", l)
        assert json.loads(out)["distance_magic"] == is_distance_magic(
            wreath(3), wreath_natural_labeling(3)
        )


class TestQuotientLift:
    def test_quotient_json_and_dot(self, capsys, tmp_path):
        from magiclab.families import wreath_nondegenerate_labeling
        g = tmp_path / "w4.json"
        l = tmp_path / "l4.json"
        g.write_text(graph_to_json(wreath(4)))
        l.write_text(labeling_to_json(wreath_nondegenerate_labeling(4)))
        code, out, _ = run(capsys, "quotient", "--graph", str(g), "--labeling", str(l))
        assert code == 0
        data = json.loads(out)
        assert data["vertices"] == [1, 3, 5, 7]
        code, out, _ = run(capsys, "quotient", "--graph", str(g), "--labeling", str(l),
                           "--format", "dot")
        assert code == 0 and out.startswith("graph quotient {")

    def test_degenerate_input_exit_2(self, capsys, w3_files):
        g, l = w3_files
        code, _, err = run(capsys, "quotient", "--graph", g, "--labeling", l)
        assert code == 2
        assert "degenerate" in err

    def test_lift_round_trip(self, capsys, tmp_path):
        from magiclab.families import wreath_nondegenerate_labeling
        g = tmp_path / "w4.json"
        l = tmp_path / "l4.json"
        g.write_text(graph_to_json(wreath(4)))
        l.write_text(labeling_to_json(wreath_nondegenerate_labeling(4)))
        _, out, _ = run(capsys, "quotient", "--graph", str(g), "--labeling", str(l))
        q = tmp_path / "q.json"
        q.write_text(out)
        code, out, _ = run(capsys, "lift", "--quotient", str(q))
        assert code == 0
        lifted = graph_from_json(json.dumps(json.loads(out)["graph"]))
        assert are_isomorphic(lifted, wreath(4))

    @pytest.mark.parametrize("text", [
        '{"n": 8, "edges": [[0, "a"]]}',
        '{"n": 8.0, "edges": [[1, 3, "solid"]]}',
        '{"n": 8, "edges": [], "central": "no"}',
        '{"n": 8, "edges": [], "central": 0}',
        '{"n": 8, "edges": [[1, 3, 0]]}',
    ])
    def test_lift_non_integer_json(self, capsys, tmp_path, text):
        q = tmp_path / "q.json"
        q.write_text(text)
        code, _, err = run(capsys, "lift", "--quotient", str(q))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_lift_disconnected_cover_noted(self, capsys, tmp_path):
        # one order-8 quotient block lifts to a connected cover; two disjoint
        # blocks lift to a 16-vertex cover in two pieces: the pair is still
        # printed, and stderr says so
        block = [[1, 3, "solid"], [1, 5, "solid"], [3, 7, "solid"], [5, 7, "solid"],
                 [1, 7, "dashed"], [3, 5, "dashed"]]
        q = tmp_path / "q.json"
        for n, edges, err_text in (
            (8, block, ""),
            (16, block + [[a + 8, b + 8, c] for a, b, c in block],
             "note: the cover is disconnected, 2 components\n"),
        ):
            q.write_text(json.dumps({"n": n, "edges": edges, "semiedges": list(range(1, n, 2)),
                                     "central": False}))
            code, out, err = run(capsys, "lift", "--quotient", str(q))
            assert code == 0 and err == err_text
            assert graph_from_json(json.dumps(json.loads(out)["graph"])).n == n

    def test_lift_invalid_quotient_exit_2(self, capsys, tmp_path):
        q = tmp_path / "q.json"
        q.write_text('{"n": 8, "edges": [[1, 3, "solid"], [1, 3, "dashed"]]}')
        code, out, err = run(capsys, "lift", "--quotient", str(q))
        assert (code, out) == (2, "")
        assert err == "parallel quotient edges between 1 and 3\n"


class TestMergeExtendWitness:
    def test_merge_emits_graph_and_conditions(self, capsys, tmp_path):
        from magiclab.families import wreath_nondegenerate_labeling
        g = tmp_path / "w4.json"
        l = tmp_path / "l4.json"
        g.write_text(graph_to_json(wreath(4)))
        l.write_text(labeling_to_json(wreath_nondegenerate_labeling(4)))
        code, out, _ = run(
            capsys, "merge",
            "--left", str(g), "--left-cyclet", "0,1,2,3",
            "--right", str(g), "--right-cyclet", "0,1,2,3",
            "--left-labeling", str(l), "--right-labeling", str(l),
        )
        assert code == 0
        data = json.loads(out)
        assert data["graph"]["order"] == 16
        assert data["conditions"]["sums_match"]
        assert "labeling" in data

    def test_extend(self, capsys, tmp_path):
        from magiclab.families import wreath_nondegenerate_labeling
        g = tmp_path / "w4.json"
        l = tmp_path / "l4.json"
        g.write_text(graph_to_json(wreath(4)))
        l.write_text(labeling_to_json(wreath_nondegenerate_labeling(4)))
        code, out, _ = run(capsys, "extend", "--graph", str(g), "--labeling", str(l),
                           "--edge", "3,7", "--times", "1")
        assert code == 0
        assert json.loads(out)["graph"]["order"] == 16

    @pytest.mark.parametrize("times", ["0", "-1"])
    def test_extend_needs_one_step(self, capsys, tmp_path, times):
        # printed the input pair, unverified, with exit 0
        from magiclab.families import wreath_nondegenerate_labeling
        g = tmp_path / "w4.json"
        l = tmp_path / "l4.json"
        g.write_text(graph_to_json(wreath(4)))
        l.write_text(labeling_to_json(wreath_nondegenerate_labeling(4)))
        code, out, err = run(capsys, "extend", "--graph", str(g), "--labeling", str(l),
                             "--edge", "3,7", "--times", times)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "--times" in err

    def test_witness_absent(self, capsys):
        code, out, _ = run(capsys, "witness", "19")
        assert code == 0
        assert json.loads(out) == {"present": False}

    def test_witness_present(self, capsys):
        code, out, _ = run(capsys, "witness", "12")
        assert code == 0
        data = json.loads(out)
        assert data["present"] and data["graph"]["order"] == 12

    def test_non_wreath_witness_beyond_canonical_limit(self, capsys):
        code, out, _ = run(capsys, "witness", "66", "--non-wreath")
        assert code == 0
        data = json.loads(out)
        assert data["present"] and data["graph"]["order"] == 66


class TestEnumerate:
    def test_emit_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "emit"
        code, out, _ = run(capsys, "enumerate", "--order", "12", "--emit-dir", str(out_dir))
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        finds = sorted(out_dir.glob("find_*.json"))
        assert report["sr_count"] == len(finds) == 60
        sample = json.loads(finds[0].read_text())
        assert sample["graph"]["order"] == 12 and len(sample["labeling"]["labels"]) == 12

    def test_time_limit_exit_3(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "22", "--nondegenerate",
                           "--time-limit", "0.05")
        assert code == 3
        assert json.loads(out)["complete"] is False

    def test_nan_time_limit_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--order", "17", "--time-limit", "nan")
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_degenerate_cap_exits_before_search(self, capsys):
        start = time.monotonic()
        code, out, err = run(capsys, "enumerate", "--order", "22")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "require_nondegenerate" in err
        assert "--nondegenerate" in err
        assert time.monotonic() - start < 1.0

    def test_all_dm(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "10", "--all-dm")
        assert code == 0
        assert json.loads(out)["sr_count"] == 12


class TestTable1Cli:
    def test_pass_16(self, capsys):
        code, out, _ = run(capsys, "table1", "16..17")
        assert code == 0
        assert "n=16: PASS" in out and "n=17: PASS" in out

    def test_long_guard(self, capsys):
        code, _, err = run(capsys, "table1", "25..25")
        assert code == 1
        assert "--allow-long" in err

    def test_order_24_graded(self, capsys, monkeypatch):
        # the published row stands in for the 25 s search
        table = search.Table1Report(rows=[(24, 11156, 9, 3)], complete=True, elapsed=0.0)
        monkeypatch.setattr(search, "table1_report", lambda *args: table)
        code, out, _ = run(capsys, "table1", "24..24")
        assert code == 0
        assert "n=24: PASS" in out

    def test_range_validation(self, capsys):
        assert run(capsys, "table1", "2..6")[0] == 1

    def test_seed_accepted(self, capsys):
        code, out, _ = run(capsys, "--seed", "7", "table1", "16..16")
        assert code == 0

    def test_timed_out_row_is_not_graded(self, capsys):
        code, out, _ = run(capsys, "table1", "19..19", "--time-limit", "0.05")
        assert code == 3
        assert "n=19: PASS" not in out and "n=19: FAIL" not in out
        assert "n=19: PARTIAL" in out
