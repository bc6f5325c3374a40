"""The README's examples run as written and give the values its comments state."""

import re
import shlex
from pathlib import Path

from toricfans import cli, is_projective, is_smooth

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    """The first fenced ``language`` block after the line ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_gives_the_commented_values():
    scope = {}
    exec(_block("## Library quick tour", "python"), scope)
    assert scope["ok"] is False and scope["cert"].farkas
    rel = scope["rel"]
    assert (rel.collection, rel.target_rays, rel.coefficients) == ((0, 3), (5,), (1,))
    assert [wall.rays for wall in scope["flopping_walls"](scope["w"])] == [(0, 6), (1, 4), (2, 5)]
    assert is_projective(scope["flopped"])[0] is True
    assert len(scope["report"].fans) == 1
    result = scope["result"]
    assert result.found and not result.final_smooth
    assert is_projective(result.final_fan)[0] and not is_smooth(result.final_fan)


def test_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    # in order, in one directory: later lines read the files earlier ones write
    lines = _block("## CLI", "sh").splitlines()
    assert len(lines) == 15
    monkeypatch.chdir(tmp_path)
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "toricfans"
        assert cli.main(argv) == 0, (line, capsys.readouterr().err)
