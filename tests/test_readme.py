"""The README's examples against the code: its experiment config parses, its
mode list is the harness's, every ``topicxfer`` command line it shows is
accepted by the CLI parser, and its tokenizer example gives the tokens it
states."""

import re
import shlex
from pathlib import Path

from topicxfer.cli import build_parser
from topicxfer.corpus import tokenize
from topicxfer.harness import MODE_VIEWS, MODES, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks():
    return re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def command_lines():
    """Each ``topicxfer ...`` line of the README, continuation lines joined."""
    commands = []
    for block in code_blocks():
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("topicxfer "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_example_experiment_config_parses(tmp_path):
    (block,) = [b for b in code_blocks() if re.search(r"^mode = ", b, flags=re.MULTILINE)]
    path = tmp_path / "experiment.cfg"
    path.write_text(block, encoding="utf-8")
    config = parse_config(path)
    assert config.mode == "mvt"
    assert config.train.n_topics == 3
    assert [s.source_id for s in config.sources] == ["news"]


def test_modes_match_the_code():
    (listed,) = re.findall(r"^# mode: (.*)$", README.read_text(encoding="utf-8"),
                           flags=re.MULTILINE)
    assert tuple(listed.split(" | ")) == MODES
    (transfer_train,) = [action.choices["transfer-train"] for action in build_parser()._actions
                         if action.dest == "command"]
    (mode,) = [action for action in transfer_train._actions if action.dest == "mode"]
    assert tuple(mode.choices) == tuple(MODE_VIEWS)


def test_command_lines_parse():
    commands = command_lines()
    assert {argv[0] for argv in commands} == {
        "synth", "train", "build-kb", "import-embeddings", "transfer-train", "eval",
        "topics", "nn", "experiment"}
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_tokenizer_example():
    text = " ".join(README.read_text(encoding="utf-8").split())
    line, tokens = re.search(r"the line `(.+?)` gives the tokens `(.+?)`", text).groups()
    assert tokenize(line) == tokens.split()
