import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toricfans
from conftest import CATALOG_INSTANCES, P3_CONES, P3_RAYS, blowup_chain
from toricfans import (
    build,
    canonical_key,
    cli,
    contract_ray,
    effective_ample_obstruction,
    fanio,
    is_complete,
    is_projective,
    is_smooth,
    nontrivial_nef_exists,
    picard_number,
    projectivity,
    star_subdivide,
    surgery,
    validate_fan,
    walls,
)
from toricfans.cli import main
from toricfans.lp import FarkasCertificate, FeasiblePoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_rejection(code, out, err):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert "usage:" not in err and "Traceback" not in err


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

    def test_nef_flag_skips_the_lp_on_projective_fans(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "nontrivial_nef_exists", calls.append)
        _, out, _ = run(capsys, "check", str(write_catalog_fan(tmp_path, "Z10")), "--nef")
        assert json.loads(out)["nontrivial_nef_exists"] is True
        assert calls == []

    def test_certificate_skips_the_obstruction_lp_on_projective_fans(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        real = cli.effective_ample_obstruction
        monkeypatch.setattr(
            cli, "effective_ample_obstruction", lambda fan: calls.append(fan) or real(fan)
        )
        _, out, _ = run(capsys, "check", str(write_catalog_fan(tmp_path, "Z10")), "--certificate")
        assert json.loads(out)["effective_ample_obstruction"] is None
        assert calls == []
        _, out, _ = run(capsys, "check", str(write_catalog_fan(tmp_path, "W7_5")), "--certificate")
        assert json.loads(out)["effective_ample_obstruction"] is not None
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "make",
        [lambda: build("Z10"), lambda: blowup_chain("Z2", (1,), 12), lambda: build("W7_5")],
        ids=["Z10", "Z2(1) rung 12", "W7_5"],
    )
    def test_certificate_nef_output_matches_library_calls(self, tmp_path, capsys, make):
        # the reference solves every LP, the effective-ample one included
        path = tmp_path / "fan.fan"
        fanio.save_fan(make(), path)
        fan = fanio.load_fan(path)
        projective, cert = is_projective(fan)
        witness = effective_ample_obstruction(fan)
        expected = {
            "indexing": fanio.INDEXING_NOTE,
            "valid": True,
            "simplicial": True,
            "smooth": is_smooth(fan),
            "complete": is_complete(fan),
            "projective": projective,
            "picard_number": picard_number(fan),
            "wall_count": len(walls(fan)),
            "certificate": fanio.certificate_to_doc(cert),
            "effective_ample_obstruction": (
                fanio.obstruction_to_doc(witness) if witness else None
            ),
            "nontrivial_nef_exists": nontrivial_nef_exists(fan),
        }
        code, out, _ = run(capsys, "check", str(path), "--certificate", "--nef")
        assert code == 0
        assert out == fanio.dumps(expected)

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
        monkeypatch.setattr(projectivity, "_certificate_holds", lambda rows, rhs, cert: False)
        code, out, err = run(capsys, "check", str(path))
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "does not re-verify" in err and "Traceback" not in err

    @pytest.mark.parametrize("fid,exists", [("W7_5", True), ("Z12", False)])
    def test_failed_nef_reverification_exits_three_with_one_line(
        self, tmp_path, capsys, monkeypatch, fid, exists
    ):
        # zero every entry of the nef LP's point or multipliers, so neither
        # the sum row nor the Farkas total holds; the ample LP is untouched
        real = projectivity._solve_distinct

        def zeroed(rows, rhs):
            outcome = real(rows, rhs)
            if min(rhs) > 0:
                return outcome
            if exists:
                return FeasiblePoint(tuple(0 * x for x in outcome.x))
            return FarkasCertificate(tuple(0 * m for m in outcome.multipliers))

        path = write_catalog_fan(tmp_path, fid)
        _, out, _ = run(capsys, "check", str(path), "--nef")
        assert json.loads(out)["nontrivial_nef_exists"] is exists
        monkeypatch.setattr(projectivity, "_solve_distinct", zeroed)
        with pytest.raises(AssertionError, match="does not re-verify"):
            nontrivial_nef_exists(build(fid))
        code, out, err = run(capsys, "check", str(path), "--nef")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "does not re-verify" in err and "Traceback" not in err


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        z = write_catalog_fan(tmp_path, "Z13pp", (2, 7, 4, 2))
        _, out, _ = run(capsys, "check", str(z), "--nef")
        assert "nontrivial_nef_exists" in json.loads(out)
        _, out, _ = run(capsys, "check", str(z))
        assert "nontrivial_nef_exists" not in json.loads(out)

        w = write_catalog_fan(tmp_path, "W7_5")
        env = {**os.environ, "PYTHONPATH": str(Path(toricfans.__file__).parents[1])}
        for argv in (["search", str(w), "--flops-only"], ["search", str(w)]):
            fresh = subprocess.run(
                [sys.executable, "-m", "toricfans.cli", *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


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

    @pytest.mark.parametrize("argv", [("surgery", "--wall", "1,7"), ("search",)])
    def test_invalid_wall_exchange_exits_three(self, tmp_path, capsys, monkeypatch, argv):
        path = write_catalog_fan(tmp_path, "W7_5")
        # the exchange's local check finds a degenerate new cone
        monkeypatch.setattr(surgery, "determinant", lambda columns: 0)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("internal error:")

    @pytest.mark.parametrize("ray", ["1,1", "1,1,1,1"])
    def test_subdivide_ray_of_wrong_length_exits_two(self, tmp_path, capsys, ray):
        path = write_catalog_fan(tmp_path, "W7_5")
        code, _, err = run(capsys, "subdivide", str(path), "--ray", ray)
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("contract", "--ray", "0"),
            ("contract", "--ray=-2"),
            ("contract", "--ray", "1,x"),
            ("surgery", "--wall", "x"),
            ("surgery", "--wall", "0,7"),
            ("subdivide", "--ray", "1,a,1"),
            ("check", "--expect-projective", "maybe"),
            ("search", "--max-depth", "x"),
            ("graph", "--max-depth", "1.5"),
        ],
    )
    def test_rejected_argument_value_exits_two_with_one_line(self, tmp_path, capsys, argv):
        path = write_catalog_fan(tmp_path, "W7_5")
        assert_one_line_rejection(*run(capsys, argv[0], str(path), *argv[1:]))

    def test_negative_vector_after_a_space_is_a_value(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "W7_5")
        spaced = run(capsys, "subdivide", str(path), "--ray", "-1,-2,-2")
        assert spaced[0] == 0
        assert spaced == run(capsys, "subdivide", str(path), "--ray=-1,-2,-2")

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


class TestRejectedInput:
    """Every input argparse or a command rejects returns 2 from `main` with one
    stderr line; `FanError` is the only path there."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["enumerate"],
            ["search"],
            ["frobnicate"],
            ["check", "{fan}", "--bogus"],
            ["enumerate", "--rays", "{fan}", "--catalog", "W7_5"],
            ["enumerate", "--catalog", ""],
            ["catalog", "Z2", "--params", "a=1", "--output", "{tmp}/missing/x.fan"],
            ["subdivide", "{fan}", "--ray=1,1,1", "--output", "{tmp}"],
            ["enumerate", "--rays", "{fan}", "--params", "a=1"],
            ["enumerate", "--rays=1,0,0;0,1,0;0,0,1;-1,-1,-1", "--params="],
            ["catalog", "--list", "--params", "a=1"],
            ["catalog", "--list", "--output", "{tmp}/x.fan"],
            ["catalog", "--list", "Z2"],
            ["catalog", "Z2", "--list", "--params", "a=0"],
            ["search", "{fan}", "--max-depth", "-1"],
            ["graph", "{fan}", "--max-depth=-1"],
            ["enumerate", "--catalog", "W7_5", "--expect-count", "-1"],
            # a NUL byte in a path, which only an in-process caller can pass
            ["walls", "{tmp}/a{nul}b"],
            ["search", "{tmp}/a{nul}b"],
            ["catalog", "W7_5", "--output", "{tmp}/a{nul}b"],
            ["surgery", "{fan}", "--wall", "1,7", "--output", "{tmp}/a{nul}b"],
            ["subdivide", "{fan}", "--ray=1,1,1", "--output", "{tmp}/a{nul}b"],
            ["contract", "{fan}", "--ray", "4", "--output", "{tmp}/a{nul}b"],
            # a line break in a path, which a shell passes as $'a\nb'
            ["walls", "{tmp}/a{nl}b"],
            ["search", "{tmp}/a{cr}b"],
            ["catalog", "W7_5", "--output", "{tmp}/nodir/a{nl}b"],
            ["subdivide", "{fan}", "--ray=1,1,1", "--output", "{tmp}/nodir/a{ls}b"],
        ],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_exits_two_with_one_line(self, tmp_path, capsys, argv):
        fan = write_catalog_fan(tmp_path, "W7_5")
        chars = {"nul": "\0", "nl": "\n", "cr": "\r", "ls": "\u2028"}
        argv = [a.format(fan=fan, tmp=tmp_path, **chars) for a in argv]
        assert_one_line_rejection(*run(capsys, *argv))

    def test_nul_byte_in_the_fan_path_is_reported_as_invalid(self, tmp_path, capsys):
        code, out, err = run(capsys, "check", f"{tmp_path}/a\0b")
        assert code == 2
        assert json.loads(out)["valid"] is False
        assert len(err.splitlines()) == 1 and err.startswith("cannot read fan file ")

    @pytest.mark.parametrize("char", ["\n", "\r", "\x85", "\u2028"])
    def test_line_break_in_the_fan_path_is_escaped(self, tmp_path, capsys, char):
        # check still reports the rejection on stdout, as {"valid": false, ...}
        code, out, err = run(capsys, "check", f"{tmp_path}/a{char}b")
        assert code == 2
        assert json.loads(out)["valid"] is False
        assert len(err.splitlines()) == 1
        assert err.startswith(f"cannot read fan file {tmp_path}/a{repr(char)[1:-1]}b: ")

    def test_ordinary_missing_paths_keep_their_messages(self, tmp_path, capsys):
        path = tmp_path / "missing.fan"
        assert run(capsys, "walls", str(path)) == (
            2,
            "",
            f"cannot read fan file {path}: [Errno 2] No such file or directory: '{path}'\n",
        )
        path = tmp_path / "nodir" / "x.fan"
        assert run(capsys, "catalog", "W7_5", "--output", str(path)) == (
            2,
            "",
            f"cannot write fan file {path}: [Errno 2] No such file or directory: '{path}'\n",
        )

    @pytest.mark.parametrize("argv", [["check"], ["subdivide", "--ray=1,1,1"]])
    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,
            '{"dim": 3, "rays": [[1' + "0" * 5000 + ', 0, 0]], "max_cones": []}',
        ],
        ids=["nested-past-the-recursion-limit", "integer-past-the-digit-limit"],
    )
    def test_unparsable_fan_file_exits_two(self, tmp_path, capsys, argv, text):
        path = tmp_path / "bad.fan"
        path.write_text(text)
        # check also reports the rejection on stdout, as {"valid": false, ...}
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("not a JSON fan file: ")

    def test_negative_wall_label_says_labels_are_one_based(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "W7_5")
        code, out, err = run(capsys, "surgery", str(path), "--wall", "-1,7")
        assert_one_line_rejection(code, out, err)
        assert "1-based" in err

    def test_help_still_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: toricfans check")

    def test_negative_number_pattern_is_the_one_argparse_reads(self):
        # argparse has no public hook for values that start with "-"; if a
        # Python release renames this attribute, the parser's override is dead
        assert "_negative_number_matcher" in inspect.getsource(
            argparse.ArgumentParser._parse_optional
        )
        assert cli.build_parser()._negative_number_matcher.match("-1,0,0;0,1,0")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{fan}", "--expect-projective", "true", "--expect-projective", "false"],
            ["search", "{fan}", "--max-depth", "1", "--max-depth=2"],
            ["graph", "{fan}", "--max-depth", "0", "--max-depth", "1"],
            ["surgery", "{fan}", "--wall", "1,7", "--wall", "1,7"],
            ["subdivide", "{fan}", "--ray=1,1,1", "--ray", "-1,-1,0"],
            ["contract", "{fan}", "--ray", "4", "--ray", "4"],
            ["enumerate", "--catalog", "Z2", "--catalog", "W7_5"],
            ["enumerate", "--rays", "{fan}", "--rays", "{fan}"],
            ["enumerate", "--catalog", "Z2", "--params", "a=1", "--params", "a=2"],
            ["catalog", "Z2", "--params", "a=1", "--params", "a=2"],
            ["catalog", "W7_5", "--output", "{tmp}/a.fan", "--output", "{tmp}/b.fan"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_an_option_given_twice_is_rejected(self, tmp_path, capsys, argv):
        fan = write_catalog_fan(tmp_path, "W7_5")
        argv = [a.format(fan=fan, tmp=tmp_path) for a in argv]
        code, out, err = run(capsys, *argv)
        assert_one_line_rejection(code, out, err)
        option = next(a for a in reversed(argv) if a.startswith("--")).partition("=")[0]
        assert err == f"toricfans {argv[0]}: argument {option}: may be given only once\n"
        assert not (tmp_path / "a.fan").exists()

    def test_a_repeated_flag_is_the_same_as_one(self, tmp_path, capsys):
        fan = str(write_catalog_fan(tmp_path, "W7_5"))
        once = run(capsys, "check", fan, "--nef", "--certificate")
        assert once[0] == 0
        assert run(capsys, "check", fan, "--nef", "--nef", "--certificate", "--certificate") == once
        assert run(capsys, "graph", fan, "--dot", "--dot") == run(capsys, "graph", fan, "--dot")


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

    def test_relations_on_fans_that_are_not_smooth(self, tmp_path, capsys):
        # smoothness is asked for only when there is a collection to relate
        path = tmp_path / "y1.fan"
        fanio.save_fan(contract_ray(build("Z2", (0,)), 1), path)
        code, out, err = run(capsys, "relations", str(path))
        assert_one_line_rejection(code, out, err)
        assert err == "primitive relations need integer coefficients, so a smooth fan\n"
        fanio.save_fan(validate_fan(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)], [(0, 1, 2)]), path)
        code, out, err = run(capsys, "relations", str(path))
        assert (code, err) == (0, "") and json.loads(out)["relations"] == []

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

    def test_params_for_a_family_without_parameters(self, capsys):
        code, out, err = run(capsys, "enumerate", "--catalog", "W7_5", "--params", "a=1")
        assert_one_line_rejection(code, out, err)
        assert err == "W7_5 takes no --params\n"

    def test_options_a_command_would_ignore_are_rejected(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "W7_5")
        code, out, err = run(capsys, "enumerate", "--rays", str(path), "--params", "a=9")
        assert_one_line_rejection(code, out, err)
        assert err == "enumerate takes --params only with --catalog, not with --rays\n"
        output = tmp_path / "x.fan"
        code, out, err = run(capsys, "catalog", "--list", "--output", str(output))
        assert_one_line_rejection(code, out, err)
        assert err == "catalog --list takes no family id, --params or --output\n"
        assert not output.exists()

    def test_repeated_param_is_rejected(self, capsys):
        code, out, err = run(capsys, "catalog", "Z2", "--params", "a=1,a=2")
        assert_one_line_rejection(code, out, err)
        assert err == "Z2 takes --params a=<int>\n"

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

    def test_enumerate_rejects_non_integer_expect_count(self, capsys):
        assert_one_line_rejection(*run(
            capsys, "enumerate", "--catalog", "W7_5", "--expect-count", "one"
        ))

    def test_enumerate_inline_rays(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--rays", "1,0,0;0,1,0;0,0,1;-1,-1,-1",
            "--expect-count", "1",
        )
        assert code == 0

    def test_enumerate_inline_rays_longer_than_a_file_name(self, tmp_path, capsys):
        # past 255 bytes, asking whether the list names a file raises OSError
        fan = blowup_chain("W7_5", (), 15)
        path = tmp_path / "w75-15.fan"
        fanio.save_fan(fan, path)
        inline = "; ".join(", ".join(f"{c:>4}" for c in v) for v in fan.rays)
        assert len(inline.encode()) > 255
        code, out, err = run(capsys, "enumerate", "--rays", inline)
        assert (code, err) == (0, "")
        assert out == run(capsys, "enumerate", "--rays", str(path))[1]

    @pytest.mark.parametrize("rays", ["", ";", "{tmp}", "{tmp}/absent.fan"])
    def test_enumerate_rays_that_are_no_file_parse_inline(self, tmp_path, capsys, rays):
        # only a file is read as a fan file: "" used to read "." as one
        code, out, err = run(capsys, "enumerate", "--rays", rays.format(tmp=tmp_path))
        assert_one_line_rejection(code, out, err)
        assert err.startswith("--rays ")

    def test_enumerate_from_fan_file(self, tmp_path, capsys):
        path = write_catalog_fan(tmp_path, "Z13pp", (2, 3, 5, 7))
        code, out, _ = run(
            capsys, "enumerate", "--rays", str(path), "--expect-count", "1"
        )
        assert code == 0


@pytest.fixture(scope="module")
def fuzz_fan_files(tmp_path_factory):
    """Catalog fans, point and curve blow-ups, a non-smooth blow-down and two
    incomplete fans, written as fan files with their ray counts."""
    w = build("W7_5")
    fans = [build(fid, params) for fid, params in CATALOG_INSTANCES[::4]]
    fans += [
        star_subdivide(w, [sum(w.rays[i][k] for i in c) for k in range(3)])
        for c in (w.max_cones[0], walls(w)[0].rays)
    ]
    fans += [
        contract_ray(build("Z2", (0,)), 1),
        validate_fan(3, w.rays, w.max_cones[1:]),
        validate_fan(3, P3_RAYS, [(0, 1, 2), (1, 2, 3)]),
    ]
    folder = tmp_path_factory.mktemp("fuzz")
    files = []
    for n, fan in enumerate(fans):
        path = folder / f"fan{n}.fan"
        fanio.save_fan(fan, path)
        files.append((str(path), len(fan.rays)))
    return files


def _option(name, values):
    """``name v`` or ``name=v``; the spaced form carries values that start with "-"."""
    return st.tuples(st.booleans(), values).map(
        lambda sv: [name, sv[1]] if sv[0] else [f"{name}={sv[1]}"]
    )


def _maybe(strategy):
    return st.one_of(st.just([]), strategy)


def _flag(name):
    return st.sampled_from([[], [name]])


def _argv_strategy(path, n):
    """One argv per subcommand, with options in both forms and values that are
    valid, out of range or not numbers at all."""
    folder = Path(path).parent
    labels = st.lists(st.integers(-2, n + 3), min_size=1, max_size=2).map(
        lambda ks: ",".join(map(str, ks))
    )
    vector = st.lists(st.integers(-2, 2), min_size=2, max_size=4).map(
        lambda xs: ",".join(map(str, xs))
    )
    depth = st.one_of(st.integers(-1, 1).map(str), st.just("x"))
    output = _maybe(_option("--output", st.sampled_from(
        [str(folder / "out.fan"), str(folder / "missing" / "out.fan"), str(folder)]
    )))
    params = _maybe(_option("--params", st.sampled_from(["a=0", "a=1,a=2", "a=x", "b=1"])))

    def command(name, *parts):
        return st.tuples(*parts).map(lambda ps: [name, *sum(ps, [])])

    fan = st.just([path])
    return st.one_of(
        command("check", fan, _flag("--certificate"), _flag("--nef"), _maybe(
            _option("--expect-projective", st.sampled_from(["true", "false", "maybe"]))
        )),
        command("collections", fan),
        command("relations", fan),
        command("walls", fan),
        command("surgery", fan, _option("--wall", labels), output),
        command("subdivide", fan, _option("--ray", vector), output),
        command("contract", fan, _option("--ray", labels), output),
        command("search", fan, _maybe(_option("--max-depth", depth)), _flag("--flops-only")),
        command("graph", fan, _maybe(_option("--max-depth", depth)), _flag("--dot")),
        command(
            "enumerate",
            st.one_of(
                _option("--rays", st.sampled_from([path, "-1,-1,-1;1,0,0;0,1,0;0,0,1"])),
                _option("--catalog", st.sampled_from(["W7_5", "Z2", "Z99", ""])),
            ),
            params,
            _maybe(_option("--expect-count", st.one_of(st.integers(-1, 2).map(str),
                                                       st.just("one")))),
        ),
        command("catalog",
                st.sampled_from([["W7_5"], ["Z2"], ["Z99"], ["--list"], ["--list", "Z2"]]),
                params, output),
    )


def _gives_minus_one(argv):
    """Whether `argv` gives -1 for ``--max-depth`` or ``--expect-count``."""
    tokens = [part for a in argv for part in a.split("=", 1)]
    return any(
        name in ("--max-depth", "--expect-count") and value == "-1"
        for name, value in zip(tokens, tokens[1:])
    )


def _ignores_an_option(argv):
    """Whether `argv` gives an option its command would ignore: ``--params``
    with ``enumerate --rays``, or an id, ``--params`` or ``--output`` with
    ``catalog --list``."""
    names = {a.partition("=")[0] for a in argv if a.startswith("--")}
    if argv[0] == "enumerate":
        return {"--rays", "--params"} <= names
    return argv[0] == "catalog" and "--list" in names and (
        bool(names & {"--params", "--output"}) or any(a in ("W7_5", "Z2", "Z99") for a in argv)
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fan_reports_exit_cleanly(fuzz_fan_files, data):
    path, n = data.draw(st.sampled_from(fuzz_fan_files))
    argv = data.draw(_argv_strategy(path, n))
    mutation = data.draw(st.sampled_from(["none", "drop-positional", "unknown-option"]))
    if mutation == "drop-positional":
        argv = [argv[0], *argv[2:]]
    elif mutation == "unknown-option":
        argv = [*argv, data.draw(st.sampled_from(["--bogus", "--bogus=1", "-q"]))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            pytest.fail(f"main({argv}) raised SystemExit({exc.code})")
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    if _ignores_an_option(argv) or _gives_minus_one(argv):
        assert code == 2, argv
    if code == 2:
        assert_one_line_rejection(code, out, err)
    elif "--dot" in argv:
        assert out.startswith("digraph") and err == ""
    else:
        json.loads(out)
        assert code == 1 or err == ""


_MUTATIONS = (
    "drop-cone", "change-index", "nudge-ray", "negate-ray", "add-ray", "add-cone", "swap-rays"
)


def _mutate(doc, data):
    """One edit of a fan document in place, as a hand-edited file might carry."""
    rays, cones = doc["rays"], doc["max_cones"]
    ray = st.integers(0, len(rays) - 1)
    kind = data.draw(st.sampled_from(_MUTATIONS))
    if kind == "drop-cone" and cones:
        cones.pop(data.draw(st.integers(0, len(cones) - 1)))
    elif kind == "change-index" and cones:
        cone = data.draw(st.sampled_from(cones))
        cone[data.draw(st.integers(0, 2))] = data.draw(st.integers(-1, len(rays)))
    elif kind == "nudge-ray":
        rays[data.draw(ray)][data.draw(st.integers(0, 2))] += data.draw(st.sampled_from([-1, 1]))
    elif kind == "negate-ray":
        i = data.draw(ray)
        rays[i] = [-x for x in rays[i]]
    elif kind == "add-ray":
        rays.append(data.draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3)))
    elif kind == "add-cone":
        cones.append(sorted(data.draw(st.lists(ray, min_size=3, max_size=3, unique=True))))
    elif kind == "swap-rays":
        i, j = data.draw(ray), data.draw(ray)
        rays[i], rays[j] = rays[j], rays[i]


@pytest.fixture(scope="module")
def mutation_folder(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


_MUTATION_BASES = [
    fanio.fan_to_doc(build(fid, params)) for fid, params in CATALOG_INSTANCES[::5]
] + [fanio.fan_to_doc(validate_fan(3, P3_RAYS, P3_CONES))]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_fan_documents_exit_cleanly(mutation_folder, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(_MUTATION_BASES))))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    path = str(mutation_folder / "mutated.fan")
    Path(path).write_text(json.dumps(doc))
    n = len(doc["rays"])
    labels = st.lists(st.integers(1, n), min_size=1, max_size=2).map(
        lambda ks: ",".join(map(str, ks))
    )
    vector = st.lists(st.integers(-1, 2), min_size=3, max_size=3).map(
        lambda xs: ",".join(map(str, xs))
    )
    for argv in (
        ["check", path, "--certificate", "--nef"],
        ["walls", path],
        ["relations", path],
        ["collections", path],
        ["search", path, "--max-depth", "1"],
        ["graph", path, "--max-depth", "1"],
        ["enumerate", "--rays", path],
        ["contract", path, "--ray", data.draw(labels)],
        ["subdivide", path, "--ray", data.draw(vector)],
        ["surgery", path, "--wall", data.draw(labels)],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2), (argv, doc, code, err)
        assert "Traceback" not in err, (argv, doc, err)
        if code == 2:
            assert len(err.splitlines()) == 1, (argv, doc, err)
