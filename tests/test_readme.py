"""The README's Library example and CLI examples run as written, and its
CLI usage block and config-file key list name exactly the settings the CLI
has.

The Library block is executed verbatim, so a name it imports that leaves
the package's top level, or a return value it unpacks that changes shape,
fails here. Each CLI example line goes through ``cli.main``, the function
behind the ``crn-jamgame`` console script.
"""

import re
import shlex
from pathlib import Path

import pytest

from crn_jamgame import cli

README = Path(__file__).resolve().parent.parent / "README.md"
FLAG = re.compile(r"--[a-z][a-z-]*")


def library_block():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README Library section has no python block"
    return match.group(1)


def test_library_example_runs_verbatim():
    namespace = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    p_star, q_star = namespace["trace"].final_frequencies()
    assert abs(p_star - 0.948) <= 0.03 and abs(q_star - 0.84) <= 0.03  # as its comment says
    p_star, q_star = namespace["result"].final_frequencies(namespace["A"])
    assert abs(p_star - 0.948) <= 0.05 and abs(q_star - 0.84) <= 0.05


def test_cli_examples_run_as_written(tmp_path, monkeypatch):
    block = re.search(r"\nExamples:\n\n```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert block, "README CLI section has no Examples sh block"
    monkeypatch.chdir(tmp_path)
    for line in block.group(1).replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        assert argv[0] == "crn-jamgame", line
        assert cli.main(argv[1:]) == 0, line


def test_config_file_keys_are_the_settings_table():
    keys = re.search(r"\nKeys: `([^`]*)`", README.read_text(encoding="utf-8")).group(1)
    assert sorted(re.split(r",\s*", keys)) == sorted(row.key for row in cli.SETTINGS)


def test_usage_block_names_every_flag_of_every_command(capsys):
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    usage = set(FLAG.findall(re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)))
    table = {f"--{row.key.replace('_', '-')}" for row in cli.SETTINGS}
    assert usage == table | {"--config", "--sweep"}
    for command in cli._COMMANDS:
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        own = usage if command == "sweep" else usage - {"--sweep"}  # --sweep is sweep's only
        assert set(FLAG.findall(capsys.readouterr().out)) == own | {"--help"}
