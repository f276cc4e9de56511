"""The README's library quick start runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comments(capsys):
    # each print is followed by the line it prints, or by "same" for the
    # previous one; a parenthesized note after two spaces is not printed
    source = quick_start()
    exec(compile(source, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    expected = []
    for line in source.splitlines():
        if line.startswith("print("):
            comment = line.split("# ", 1)[1].split("  (")[0]
            expected.append(expected[-1] if comment == "same" else comment)
    assert printed == expected
