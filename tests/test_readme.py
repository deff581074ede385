"""The README's ``>>>`` examples, run as doctests, and its ``nckit`` command
lines, run through ``cli.main``.

Each fenced Python block is its own doctest, so the closing fence is never
read as expected output.
"""

import doctest
import re
import shlex
from pathlib import Path

from nckit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    report = []
    for i, block in enumerate(blocks, start=1):
        test = parser.get_doctest(block, {}, f"README block {i}", str(README), 0)
        runner.run(test, out=report.append)
    assert (runner.failures, runner.tries) == (0, 13), "".join(report)


def test_readme_command_lines_run(capsys):
    """Every ``nckit`` line of the ```sh fences exits 0; a line ending in
    ``# -> out`` prints exactly ``out``, and any other comment is ignored."""
    fences = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line for fence in fences for line in fence.splitlines() if line.startswith("nckit ")]
    assert len(lines) == 8
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.main(argv) == 0, line
        out = capsys.readouterr().out
        _, arrow, expected = line.partition("# -> ")
        if arrow:
            assert out == expected.strip() + "\n", line
