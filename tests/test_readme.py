"""The README's examples against the code: its experiment config parses, its
mode list is the harness's, every ``topicxfer`` command line it shows is
accepted by the CLI parser, the commands it says take --config, --seed and
--out are the parser's, its tokenizer example gives the tokens it states, its
library example runs, and its bundle meta.txt keys are the ones written."""

import re
import shlex
from pathlib import Path

from conftest import command_flags, make_vocab
from topicxfer.cli import build_parser
from topicxfer.corpus import tokenize
from topicxfer.fileio import read_kv
from topicxfer.harness import MODE_VIEWS, MODES, parse_config
from topicxfer.model import init_params, save_model
from topicxfer.transfer import build_kb, save_kb

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


def test_commands_taking_config_seed_and_out_match_the_parser():
    text = " ".join(README.read_text(encoding="utf-8").split())
    config, seed, not_out = (re.findall(r"`([a-z-]+)`", part) for part in re.search(
        r"`--config FILE` is taken by (.*?); `--seed` by (.*?); `--out` by every "
        r"subcommand but (.*?)\.", text).groups())
    flags = command_flags()
    assert set(config) == {name for name, f in flags.items() if "--config" in f}
    assert set(seed) == {name for name, f in flags.items() if "--seed" in f}
    assert set(not_out) == {name for name, f in flags.items() if "--out" not in f}


def test_tokenizer_example():
    text = " ".join(README.read_text(encoding="utf-8").split())
    line, tokens = re.search(r"the line `(.+?)` gives the tokens `(.+?)`", text).groups()
    assert tokenize(line) == tokens.split()


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = [b for b in code_blocks() if b.startswith("from topicxfer import")]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    trained_ppl, _, saved_ppl = capsys.readouterr().out.splitlines()
    # the context rebuilt from the saved bundle gives the trained context's number
    assert saved_ppl == trained_ppl
    assert (tmp_path / "model.mvt" / "lvt.mat").exists()


def test_bundle_meta_keys_match_the_writers(tmp_path):
    text = " ".join(README.read_text(encoding="utf-8").split())
    model_keys, kb_keys = (
        re.search(rf"\*\*{what}\*\*: [^(]*`meta.txt` \(([^)]*)\)", text).group(1).split(", ")
        for what in ("Model bundle", "KB bundle"))
    params = init_params(2, 3, seed=0)
    save_model(params, make_vocab(3), tmp_path / "model")
    save_kb(build_kb(params, make_vocab(3), "s"), tmp_path / "kb")
    assert model_keys == list(read_kv(tmp_path / "model" / "meta.txt"))
    assert kb_keys == list(read_kv(tmp_path / "kb" / "meta.txt"))
