import json

import pytest

from toricfans import build, canonical_key, fanio, projectivity
from toricfans.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_catalog_fan(tmp_path, fid, params=()):
    path = tmp_path / f"{fid.lower()}.fan"
    fanio.save_fan(build(fid, params), path)
    return path


class TestCheck:
    def test_w75_report(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "W7_5")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] and doc["simplicial"] and doc["smooth"] and doc["complete"]
        assert doc["projective"] is False
        assert doc["picard_number"] == 4
        assert doc["wall_count"] == 15
        assert "0-based" in doc["indexing"]

    def test_expectation_exit_codes(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "W7_5")
        assert run(capsys, "check", str(path), "--expect-projective", "false")[0] == 0
        code, _, err = run(capsys, "check", str(path), "--expect-projective", "true")
        assert code == 1
        assert "expected projective" in err

    def test_certificate_included(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "Z10")
        _, out, _ = run(capsys, "check", str(path), "--certificate")
        doc = json.loads(out)
        assert "feasible_d" in doc["certificate"]
        path = write_catalog_fan(tmp_path, "W7_5")
        _, out, _ = run(capsys, "check", str(path), "--certificate")
        doc = json.loads(out)
        assert "farkas" in doc["certificate"]
        assert doc["effective_ample_obstruction"] is not None

    def test_nef_flag(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "Z12")
        _, out, _ = run(capsys, "check", str(path), "--nef")
        assert json.loads(out)["nontrivial_nef_exists"] is False

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.fan"
        path.write_text('{"dim": 3, "rays": [[2,0,0],[0,1,0],[0,0,1]], "max_cones": [[0,1,2]]}')
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert json.loads(out)["valid"] is False
        assert "primitive" in err

    def test_not_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "junk.fan"
        path.write_text("not json at all")
        assert run(capsys, "check", str(path))[0] == 2

    def test_missing_file_exits_two_with_one_line(self, tmp_path, capsys):
        code, out, err = run(capsys, "check", str(tmp_path / "absent.fan"))
        assert code == 2
        assert json.loads(out)["valid"] is False
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "absent.fan" in err

    def test_undecodable_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "binary.fan"
        path.write_bytes(b"\xff\xfe\x00")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err.count("\n") == 1

    def test_dimension_other_than_three_exits_two(self, tmp_path, capsys):
        for dim in ('"3"', "2"):
            path = tmp_path / "dim.fan"
            path.write_text(
                f'{{"dim": {dim}, "rays": [[1,0,0],[0,1,0],[0,0,1]], "max_cones": [[0,1,2]]}}'
            )
            code, out, err = run(capsys, "check", str(path))
            assert code == 2
            assert json.loads(out)["valid"] is False
            assert err.count("\n") == 1
            assert "dimension must be 3" in err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"dim": 3, "rays": 5, "max_cones": [[0, 1, 2]]}',
            '{"dim": 3, "rays": [[1,0,0],[0,1,0],[0,0,1]], "max_cones": null}',
            '{"dim": 3, "rays": [[1,0,0],[0,1,0],[0,0,1]], "max_cones": [5]}',
            '{"dim": 3, "rays": [[true,0,0],[0,1,0],[0,0,1]], "max_cones": [[0,1,2]]}',
            '{"dim": 3, "rays": [[1,0,0],[0,1,0],[0,0,1]], "max_cones": [[0,1,"2"]]}',
            '{"dim": 3, "rays": [[1,0,0],[0,1,0],[0,0,1]], "max_cones": [[0,1,2.0]]}',
            '{"dim": 3, "rays": [[1,0,0],[0,1,0],[0,0,1]], "max_cones": [[0,1,2.5]]}',
            "[1, 2]",
        ],
    )
    def test_mistyped_document_exits_two_with_one_line(self, tmp_path, capsys, doc):
        path = tmp_path / "typed.fan"
        path.write_text(doc)
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert json.loads(out)["valid"] is False
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "missing field" not in err


    def test_failed_reverification_exits_three_with_one_line(
        self, tmp_path, capsys, monkeypatch
    ):
        path = write_catalog_fan(tmp_path, "W7_5")
        monkeypatch.setattr(projectivity, "_certificate_holds", lambda ineqs, n, cert: False)
        code, out, err = run(capsys, "check", str(path))
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "does not re-verify" in err and "Traceback" not in err


class TestRoundTrip:
    def test_written_fans_reserialize_byte_identically(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "Z13pp", (2, 7, 4, 2))
        original = path.read_bytes()
        again = tmp_path / "again.fan"
        fanio.save_fan(fanio.load_fan(path), again)
        assert again.read_bytes() == original

    def test_commands_are_deterministic(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "W7_5")
        _, out1, _ = run(capsys, "walls", str(path))
        _, out2, _ = run(capsys, "walls", str(path))
        assert out1 == out2


class TestSurgeryCommands:
    def test_flop_by_one_based_labels(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "W7_5")
        out_path = tmp_path / "flopped.fan"
        code, out, _ = run(
            capsys, "surgery", str(path), "--wall", "1,7", "--output", str(out_path)
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["step"]["kind"] == "flop"
        assert doc["step"]["wall"] == [0, 6]
        code, out, _ = run(capsys, "check", str(out_path), "--expect-projective", "true")
        assert code == 0
        assert json.loads(out)["projective"] is True

    def test_missing_wall_exits_two(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "W7_5")
        code, _, err = run(capsys, "surgery", str(path), "--wall", "1,4")
        assert code == 2
        assert "not a wall" in err

    @pytest.mark.parametrize("ray", ["1,1", "1,1,1,1"])
    def test_subdivide_ray_of_wrong_length_exits_two(self, tmp_path, capsys, ray):
        path = write_catalog_fan(tmp_path, "W7_5")
        code, _, err = run(capsys, "subdivide", str(path), "--ray", ray)
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_subdivide_and_contract_are_inverse(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "W7_5")
        blown = tmp_path / "blown.fan"
        code, _, _ = run(
            capsys, "subdivide", str(path), "--ray", "1,1,1", "--output", str(blown)
        )
        assert code == 0
        back = tmp_path / "back.fan"
        code, _, _ = run(
            capsys, "contract", str(blown), "--ray", "8", "--output", str(back)
        )
        assert code == 0
        assert canonical_key(fanio.load_fan(back)) == canonical_key(fanio.load_fan(path))


class TestReports:
    def test_collections_and_relations(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "W7_5")
        _, out, _ = run(capsys, "collections", str(path))
        cols = json.loads(out)["collections"]
        assert {"rays": [1, 5], "label": "v2,v6"} in cols
        _, out, _ = run(capsys, "relations", str(path))
        rels = json.loads(out)["relations"]
        rel = next(r for r in rels if r["collection"] == [1, 5])
        assert rel["target_rays"] == [0, 6]
        assert rel["coefficients"] == [1, 1]

    def test_walls_output(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "W7_5")
        _, out, _ = run(capsys, "walls", str(path))
        doc = json.loads(out)
        assert len(doc["walls"]) == 15
        flops = [w for w in doc["walls"] if w["kind"] == "flop"]
        assert [w["rays"] for w in flops] == [[0, 6], [1, 4], [2, 5]]

    def test_search_and_graph(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "W7_5")
        code, out, _ = run(capsys, "search", str(path), "--max-depth", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] and len(doc["steps"]) == 1
        assert doc["final_smooth"] is True

        code, out, _ = run(capsys, "graph", str(path), "--max-depth", "1")
        doc = json.loads(out)
        assert len(doc["nodes"]) == 4 and len(doc["edges"]) == 3

        code, out, _ = run(capsys, "graph", str(path), "--max-depth", "1", "--dot")
        assert out.startswith("digraph")
        assert out.count("->") == 3

    def test_search_failure_exit_code(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "W7_5")
        code, out, _ = run(capsys, "search", str(path), "--max-depth", "0")
        assert code == 1
        assert json.loads(out)["found"] is False


class TestEnumerateAndCatalog:
    def test_catalog_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "--list")
        assert code == 0
        families = json.loads(out)["families"]
        assert {"id": "Z13pp", "params": ["a", "b", "c", "d"]} in families

    def test_catalog_emits_fan(self, capsys):
        code, out, _ = run(capsys, "catalog", "Z2", "--params", "a=0")
        assert code == 0
        doc = json.loads(out)
        assert [0, 1, 0] in doc["rays"]

    def test_catalog_errors(self, capsys):
        assert run(capsys, "catalog", "Z99")[0] == 2
        assert run(capsys, "catalog", "Z2", "--params", "b=1")[0] == 2

    def test_enumerate_expect_count(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--catalog", "Z13pp",
            "--params", "a=2,b=7,c=4,d=2", "--expect-count", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["fan_count"] == 1
        assert doc["candidate_cone_count"] >= 12

        code, _, err = run(
            capsys, "enumerate", "--catalog", "W7_5", "--expect-count", "1"
        )
        assert code == 1
        assert "expected 1" in err

    def test_enumerate_inline_rays(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--rays", "1,0,0;0,1,0;0,0,1;-1,-1,-1",
            "--expect-count", "1",
        )
        assert code == 0

    def test_enumerate_from_fan_file(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "Z13pp", (2, 3, 5, 7))
        code, out, _ = run(
            capsys, "enumerate", "--rays", str(path), "--expect-count", "1"
        )
        assert code == 0
