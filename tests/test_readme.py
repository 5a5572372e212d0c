"""The README's demo runs as written, its config block is complete, and the
package exports what it lists."""

import json
import re
import shlex
from pathlib import Path

import tmsnav
from tmsnav.cli import EXIT_OK, main
from tmsnav.config import ProjectConfig
from tmsnav.fileio import dump

README = Path(__file__).parent.parent / "README.md"


def demo_blocks() -> tuple[str, str]:
    """The python and sh code blocks of the "Demo fixtures" section."""
    section = README.read_text().split("## Demo fixtures", 1)[1].split("\n## ", 1)[0]
    (python,) = re.findall(r"```python\n(.*?)```", section, re.S)
    (sh,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    return python, sh


def test_demo_fixtures_drive_the_plan_command(tmp_path, monkeypatch):
    python, sh = demo_blocks()
    monkeypatch.chdir(tmp_path)
    exec(compile(python, "README.md:demo", "exec"), {})
    argv = shlex.split(sh)
    assert argv[0] == "tmsnav" and "plan" in argv
    assert main(argv[1:]) == EXIT_OK
    assert (tmp_path / "out" / "plan.json").is_file()


def test_config_block_lists_every_key_with_its_default():
    section = README.read_text().split("### Project configuration", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    documented = json.loads(block.replace("[16 floats]", '"16 floats"'))
    defaults = dump(ProjectConfig())
    assert documented.keys() == defaults.keys()
    for key, fields in defaults.items():
        if not isinstance(fields, dict):  # a path: the block shows an example
            continue
        assert documented[key].keys() == fields.keys(), key
        for name, value in fields.items():
            if documented[key][name] == "16 floats":  # a matrix, absent or the identity
                assert value is None or len(value) == 16, f"{key}.{name}"
            else:
                assert documented[key][name] == value, f"{key}.{name}"


def test_every_public_name_resolves():
    # `import tmsnav` succeeds with a stale __all__ entry; `from tmsnav import *` does not
    assert [name for name in tmsnav.__all__ if not hasattr(tmsnav, name)] == []
