"""The README's demo runs as written, its config block is complete, the package
exports what it lists, and a fresh process imports only the modules it uses."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import tmsnav
from tmsnav.cli import EXIT_OK, main
from tmsnav.config import ProjectConfig
from tmsnav.fileio import dump

README = Path(__file__).parent.parent / "README.md"
SRC = Path(tmsnav.__file__).resolve().parents[1]


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


def test_interval_table_lists_every_bounded_key_with_its_interval():
    section = README.read_text().split("### Project configuration", 1)[1].split("\n### ", 1)[0]
    documented = dict(re.findall(r"^\| `(\w+\.\w+)` \| ([\[(][^|]*[\])]) \|$", section, re.M))
    config = ProjectConfig()
    declared = {f"{part.name}.{f.metadata.get('json', f.name)}": f.metadata["interval"]
                for part in dataclasses.fields(config)
                if dataclasses.is_dataclass(value := getattr(config, part.name))
                for f in dataclasses.fields(value) if "interval" in f.metadata}
    assert declared and documented == declared


def fresh_python(code: str) -> str:
    """Run `code` in a new interpreter that imports tmsnav from this checkout."""
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_every_public_name_resolves():
    # `import tmsnav` succeeds with a stale __all__ entry; `from tmsnav import *` does not
    assert [name for name in tmsnav.__all__ if not hasattr(tmsnav, name)] == []
    for name in tmsnav.__all__:
        if name == "__version__":
            continue
        value = getattr(tmsnav, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        # bound on the package itself, where a scan of vars(tmsnav) finds it
        assert vars(tmsnav)[name] is value, name
    with pytest.raises(AttributeError, match="'no_such_name'"):
        tmsnav.no_such_name
    # in a new process, where no name has been looked up yet
    assert fresh_python("import tmsnav\n"
                        "print(sorted(set(tmsnav.__all__) - set(dir(tmsnav))))\n"
                        "from tmsnav import *\n"
                        "print([n for n in tmsnav.__all__ if n not in globals()])") == "[]\n[]\n"


@pytest.mark.parametrize("module, absent", [
    ("tmsnav", ["tmsnav."]),  # a bare import loads no submodule
    # register, fieldsim and report run none of these
    ("tmsnav.cli", ["tmsnav.pose_plan", "tmsnav.kinematics", "tmsnav.session",
                    "tmsnav.meshgen"]),
])
def test_a_fresh_import_loads_only_what_it_runs(module, absent):
    loaded = fresh_python(f"import sys, {module}\nprint(*sys.modules, sep='\\n')").split()
    assert [m for m in loaded if m.startswith(tuple(absent))] == []
