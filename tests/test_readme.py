"""The README's ``>>>`` examples, run as doctests.

Each fenced Python block is its own doctest, so the closing fence is never
read as expected output.
"""

import doctest
import re
from pathlib import Path

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
