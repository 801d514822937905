"""The Library section of README.md runs as written and prints and builds
the values its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks() -> list:
    """The python blocks of the Library section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_library_blocks_state_their_values(capsys):
    blocks = library_blocks()
    assert len(blocks) == 2
    ns: dict = {}
    for code in blocks:
        exec(compile(code, str(README), "exec"), ns)
    dims, verdict = capsys.readouterr().out.splitlines()
    assert dims.startswith("(1, 4, 10, 20, ")
    table = ns["table"]
    assert all(i == j for (i, j), n in table.entries.items() if n)
    assert [table.total(i) for i in range(6)] == [1, 4, 6, 4, 1, 0]
    assert (ns["gl"].value, ns["gl"].certified) == (4, True)
    assert verdict.startswith("fails(")
    assert ns["verdict"].status == "fails"
