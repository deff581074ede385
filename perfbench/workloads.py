"""The four benchmark workloads: their inputs, one op each, and output checks.

``tables``, ``lagrange`` and ``verify`` run ``nckit`` commands in-process
through ``cli.main`` and compare the exit code and a digest of stdout with
``goldens.json``.  Their inputs are fixed commands; the seed does not change
them.  ``numeric`` draws a fresh exact rational sequence and fresh weights
from the seed for every op and requires the round trip to return its input.

Users run cold paths (every ``nckit`` call is a fresh process), so every op
of a ``cold`` workload starts from ``cumulants.clear_caches()``.  Only
``numeric`` is warm: its set-up builds the tables its ops evaluate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

# "full" is what the benchmark measures; "tiny" (n <= 4) is for the smoke test.
SIZES = {
    "full": {"tables": (7, 9), "lagrange": 12, "numeric": 8, "verify": 6},
    "tiny": {"tables": (4, 4), "lagrange": 4, "numeric": 4, "verify": 4},
}


def cli_commands(workload: str, size: str) -> list[list[str]]:
    """The ``nckit`` argument lists one op of a command workload runs."""
    n = SIZES[size][workload]
    if workload == "tables":
        return [
            ["table", "delta", "--direction", "cumulants", "--n", str(n[0])],
            ["table", "delta", "--direction", "moments", "--n", str(n[1])],
        ]
    if workload == "lagrange":
        return [["table", "delta", "--direction", "cumulants", "--method", "lagrange",
                 "--n", str(n)]]
    if workload == "verify":
        return [["verify"]] if n == 6 else [["verify", "--max-n", str(n)]]
    raise ValueError(f"{workload} is not a command workload")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stdout of one in-process ``nckit`` call."""
    from nckit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def digest(code: int, stdout: str) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}


class CommandWorkload:
    """Runs fixed ``nckit`` commands; correct means every digest matches its golden."""

    cold = True

    def __init__(self, workload: str, size: str, goldens: dict):
        self.commands = cli_commands(workload, size)
        self.expected = [goldens[" ".join(argv)] for argv in self.commands]

    def setup(self) -> None:
        pass

    def make_input(self, rng):
        return None

    def op(self, _input):
        return [run_cli(argv) for argv in self.commands]

    def check(self, _input, outputs) -> bool:
        return [digest(code, text) for code, text in outputs] == self.expected


def random_rational(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


class NumericWorkload:
    """Exact round trip moments -> cumulants -> moments of a seeded sequence."""

    cold = False

    def __init__(self, size: str):
        self.n = SIZES[size]["numeric"]

    def setup(self) -> None:
        from nckit import numeric_convert

        ones = [1] * self.n
        numeric_convert(ones, ones, "cumulants")
        numeric_convert(ones, ones, "moments")

    def make_input(self, rng):
        moments = [random_rational(rng) for _ in range(self.n)]
        deltas = [random_rational(rng) for _ in range(self.n)]
        return moments, deltas

    def op(self, inputs):
        from nckit import numeric_convert

        moments, deltas = inputs
        cumulants = numeric_convert(moments, deltas, "cumulants")
        return numeric_convert(cumulants, deltas, "moments")

    def check(self, inputs, output) -> bool:
        return output == inputs[0]


WORKLOADS = ("tables", "lagrange", "numeric", "verify")


def make_workload(name: str, size: str, goldens_path: Path = GOLDENS):
    if name == "numeric":
        return NumericWorkload(size)
    return CommandWorkload(name, size, json.loads(Path(goldens_path).read_text()))


def record_goldens(path: Path = GOLDENS) -> dict:
    """Run every command of every size from cold caches and store its digest."""
    from nckit.cumulants import clear_caches

    goldens = {}
    for size in SIZES:
        for workload in WORKLOADS:
            if workload == "numeric":
                continue
            for argv in cli_commands(workload, size):
                clear_caches()
                goldens[" ".join(argv)] = digest(*run_cli(argv))
    Path(path).write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    return goldens


if __name__ == "__main__":
    # python3 perfbench/workloads.py --record-goldens   (only at a commit known good)
    if sys.argv[1:] != ["--record-goldens"]:
        sys.exit("usage: workloads.py --record-goldens")
    sys.path.insert(0, str(HERE.parent / "src"))
    for command, value in record_goldens().items():
        print(f"{value['exit']} {value['sha256'][:16]}  nckit {command}")
