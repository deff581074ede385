"""End-to-end exercises of the command-line surface.

Each test drives ``nckit.cli.main`` in-process and asserts on exact bytes and
exit codes; one subprocess smoke test covers the ``python -m nckit`` path, and
one compares the output of two fresh processes.
"""

import hashlib
import inspect
import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from nckit import cli
from nckit import cumulants as cm
from nckit.cli import main
from nckit.poly import Polynomial, delta, moment

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- enumerate ---------------------------------------------------------------

def test_enumerate_nc_text(capsys):
    rc, out, err = run_cli(capsys, "enumerate", "nc", "--n", "3")
    assert rc == 0
    assert err == ""
    assert out == "1|2|3\n1|23\n12|3\n123\n13|2\ncount: 5\n"


def test_enumerate_interval_text(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "interval", "--n", "3")
    assert rc == 0
    assert out == "1|2|3\n1|23\n12|3\n123\ncount: 4\n"


def test_enumerate_schroder_text(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "schroder", "--n", "2")
    assert rc == 0
    assert out == "[0,0,0]\n[0,[0,0]]\n[[0,0],0]\ncount: 3\n"


def test_enumerate_prime_count_line(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "prime", "--n", "3")
    assert rc == 0
    assert out.endswith("count: 6\n")


def test_enumerate_arrangement_text(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "arrangement", "--n", "3")
    assert rc == 0
    assert out == (
        "1|2|3 0 0 0\n"
        "1|23 0 [0,0]\n"
        "12|3 [0,0] 0\n"
        "123 [0,[0,0]]\n"
        "123 [[0,0],0]\n"
        "13|2 [0,0] 0\n"
        "count: 6\n"
    )


def test_enumerate_json_payload(capsys):
    rc, out, _ = run_cli(
        capsys, "enumerate", "schroder", "--n", "2", "--format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload == {
        "kind": "schroder",
        "n": 2,
        "count": 3,
        "items": [[0, 0, 0], [0, [0, 0]], [[0, 0], 0]],
    }


def test_enumerate_arrangement_json_items(capsys):
    rc, out, _ = run_cli(
        capsys, "enumerate", "arrangement", "--n", "2", "--format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["items"][0] == [
        {"positions": [1], "tree": 0},
        {"positions": [2], "tree": 0},
    ]
    assert payload["items"][1] == [{"positions": [1, 2], "tree": [0, 0]}]


def test_enumerate_cap_blocks_large_n(capsys):
    rc, out, err = run_cli(capsys, "enumerate", "nc", "--n", "11")
    assert rc == 2
    assert out == ""
    assert "cap 10" in err and "--unsafe-no-cap" in err
    rc, _, err = run_cli(capsys, "enumerate", "schroder", "--n", "9")
    assert rc == 2
    assert "cap 8" in err


def test_enumerate_unsafe_no_cap(capsys):
    rc, out, _ = run_cli(
        capsys, "enumerate", "schroder", "--n", "9", "--unsafe-no-cap"
    )
    assert rc == 0
    assert out.endswith("count: 103049\n")


def test_enumerate_env_override(capsys, monkeypatch):
    monkeypatch.setenv("NCKIT_MAX_N", "4")
    rc, _, err = run_cli(capsys, "enumerate", "nc", "--n", "5")
    assert rc == 2
    assert "cap 4" in err
    monkeypatch.setenv("NCKIT_MAX_N", "12")
    rc, out, _ = run_cli(capsys, "enumerate", "nc", "--n", "11")
    assert rc == 0
    assert out.endswith("count: 58786\n")


def test_enumerate_env_override_rejects_garbage(capsys, monkeypatch):
    for value in ("ten", "0", "-3"):
        monkeypatch.setenv("NCKIT_MAX_N", value)
        rc, _, err = run_cli(capsys, "enumerate", "nc", "--n", "1")
        assert rc == 2
        assert "NCKIT_MAX_N" in err
        assert "exceeds" not in err


def test_enumerate_rejects_bad_n(capsys):
    assert run_cli(capsys, "enumerate", "nc", "--n", "0")[0] == 2
    assert run_cli(capsys, "enumerate", "nc", "--n", "-2")[0] == 2
    assert run_cli(capsys, "enumerate", "nc", "--n", "two")[0] == 2


# -- table -------------------------------------------------------------------

def test_table_text_frozen(capsys):
    rc, out, _ = run_cli(
        capsys, "table", "delta", "--direction", "cumulants", "--n", "3"
    )
    assert rc == 0
    assert out == (
        "C1 = 1*M1\n"
        "C2 = -1*M1^2 + 1*M2\n"
        "C3 = 1*d1*M1^3 - 1*d1*M1*M2 + 1*M1^3 - 2*M1*M2 + 1*M3\n"
    )


def test_table_moments_direction_ignores_method(capsys):
    expected = "M1 = 1*C1\nM2 = 1*C1^2 + 1*C2\n"
    for method in ("mobius", "trees", "lagrange", "all"):
        rc, out, _ = run_cli(
            capsys,
            "table",
            "delta",
            "--direction",
            "moments",
            "--n",
            "2",
            "--method",
            method,
        )
        assert rc == 0
        assert out == expected


def test_table_methods_agree_on_stdout(capsys):
    outputs = set()
    for method in ("mobius", "trees", "lagrange"):
        rc, out, _ = run_cli(
            capsys,
            "table",
            "delta",
            "--direction",
            "cumulants",
            "--n",
            "4",
            "--method",
            method,
        )
        assert rc == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_table_all_reports_agreement(capsys):
    rc, out, _ = run_cli(
        capsys,
        "table",
        "delta",
        "--direction",
        "cumulants",
        "--n",
        "4",
        "--method",
        "all",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[-3:] == [
        "agreement mobius/trees: ok",
        "agreement mobius/lagrange: ok",
        "agreement trees/lagrange: ok",
    ]


def test_table_free_and_boolean(capsys):
    rc, out, _ = run_cli(
        capsys, "table", "free", "--direction", "cumulants", "--n", "3"
    )
    assert rc == 0
    assert out.splitlines()[-1] == "C3 = 2*M1^3 - 3*M1*M2 + 1*M3"
    rc, out, _ = run_cli(
        capsys, "table", "boolean", "--direction", "moments", "--n", "3"
    )
    assert rc == 0
    assert out.splitlines()[-1] == "M3 = 1*C1^3 + 2*C1*C2 + 1*C3"


def test_table_csv_format(capsys):
    rc, out, _ = run_cli(
        capsys,
        "table",
        "delta",
        "--direction",
        "cumulants",
        "--n",
        "2",
        "--format",
        "csv",
    )
    assert rc == 0
    assert out == "index,polynomial\n1,1*M1\n2,-1*M1^2 + 1*M2\n"


def test_table_json_format(capsys):
    rc, out, _ = run_cli(
        capsys,
        "table",
        "delta",
        "--direction",
        "cumulants",
        "--n",
        "2",
        "--format",
        "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["direction"] == "cumulants"
    assert payload["method"] == "mobius"
    assert payload["flavor"] == "delta"
    assert payload["entries"][1] == {"index": 2, "polynomial": "-1*M1^2 + 1*M2"}


def test_table_json_all_embeds_agreement(capsys):
    rc, out, _ = run_cli(
        capsys,
        "table",
        "delta",
        "--direction",
        "cumulants",
        "--n",
        "3",
        "--method",
        "all",
        "--format",
        "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"table", "agreement"}
    assert payload["table"]["method"] == "mobius"  # the default route's table
    assert payload["agreement"] == {
        "mobius/trees": True,
        "mobius/lagrange": True,
        "trees/lagrange": True,
    }


# -- convert -----------------------------------------------------------------

def test_convert_documented_example(capsys):
    rc, out, _ = run_cli(
        capsys,
        "convert",
        "--moments",
        "1,1,1",
        "--deltas",
        "1,1,1",
        "--direction",
        "cumulants",
    )
    assert rc == 0
    assert out == "1,0,0\n"


def test_convert_back_to_moments(capsys):
    rc, out, _ = run_cli(
        capsys,
        "convert",
        "--cumulants",
        "1,0,0",
        "--deltas",
        "1,1,1",
        "--direction",
        "moments",
    )
    assert rc == 0
    assert out == "1,1,1\n"


def test_convert_keeps_exact_fractions(capsys):
    rc, out, _ = run_cli(
        capsys,
        "convert",
        "--moments",
        "1/2,1/3",
        "--deltas",
        "7,9",
        "--direction",
        "cumulants",
    )
    assert rc == 0
    assert out == "1/2,1/12\n"


def test_convert_zero_sequence(capsys):
    rc, out, _ = run_cli(
        capsys,
        "convert",
        "--moments",
        "0,0,0",
        "--deltas",
        "5,-3,1/2",
        "--direction",
        "cumulants",
    )
    assert rc == 0
    assert out == "0,0,0\n"


def test_convert_random_round_trip_through_cli(capsys):
    import random

    rng = random.Random(7)
    for _ in range(5):
        n = rng.randint(1, 6)
        seq = ",".join(
            f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(n)
        )
        dels = ",".join(str(rng.randint(-4, 4)) for _ in range(n))
        # values can start with "-", so use the self-delimiting flag form
        rc, out, _ = run_cli(
            capsys, "convert", f"--moments={seq}", f"--deltas={dels}",
            "--direction", "cumulants",
        )
        assert rc == 0
        rc, back, _ = run_cli(
            capsys, "convert", f"--cumulants={out.strip()}", f"--deltas={dels}",
            "--direction", "moments",
        )
        assert rc == 0
        from fractions import Fraction

        assert [Fraction(t) for t in back.strip().split(",")] == [
            Fraction(t) for t in seq.split(",")
        ]


def test_convert_long_sequence_round_trip(capsys):
    # 40 entries: far past any size a symbolic table could be built for
    import random
    from fractions import Fraction

    rng = random.Random(40)

    def rationals():
        return ",".join(
            str(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(40)
        )

    seq, dels = rationals(), rationals()
    rc, out, err = run_cli(
        capsys, "convert", f"--moments={seq}", f"--deltas={dels}",
        "--direction", "cumulants",
    )
    assert (rc, err) == (0, "")
    rc, back, err = run_cli(
        capsys, "convert", f"--cumulants={out.strip()}", f"--deltas={dels}",
        "--direction", "moments",
    )
    assert (rc, back, err) == (0, seq + "\n", "")


def test_convert_usage_errors(capsys):
    # M1 fits the int-to-string digit limit, C2 = M2 - M1^2 does not
    long_m1 = "1" + "0" * (sys.get_int_max_str_digits() // 2 + 1)
    bad = [
        # unparsable rational
        ["convert", "--moments", "1,x", "--deltas", "1,1", "--direction", "cumulants"],
        # wrong input flag for the direction
        ["convert", "--cumulants", "1,2", "--deltas", "1,1", "--direction", "cumulants"],
        # both sequences at once
        [
            "convert",
            "--moments",
            "1",
            "--cumulants",
            "1",
            "--deltas",
            "1",
            "--direction",
            "cumulants",
        ],
        # length mismatch
        ["convert", "--moments", "1,2", "--deltas", "1", "--direction", "cumulants"],
        # division by zero in a rational
        ["convert", "--moments", "1/0", "--deltas", "1", "--direction", "cumulants"],
        # exponent notation, refused since Fraction("1e100000000") takes minutes
        ["convert", "--moments=1e5", "--deltas=1", "--direction", "cumulants"],
        # a result too long to print
        ["convert", f"--moments={long_m1},0", "--deltas=1,1", "--direction", "cumulants"],
    ]
    for argv in bad:
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2, argv
        assert out == ""
        assert err != ""


def test_convert_does_not_echo_an_overlong_token(capsys):
    ones = "1" * 5000  # past the default int-to-string limit of 4300 digits
    argv = ["convert", f"--moments={ones}", "--deltas=1", "--direction", "cumulants"]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert "digits" in err


_CAP_HINT = "(raise NCKIT_MAX_N or pass --unsafe-no-cap)"


@pytest.mark.parametrize(
    "env, argv, message",
    [
        (None, "enumerate nc --n 11", f"n=11 exceeds the cap 10 for 'nc' {_CAP_HINT}"),
        (None, "enumerate prime --n 9", f"n=9 exceeds the cap 8 for 'prime' {_CAP_HINT}"),
        ("4", "enumerate nc --n 5", f"n=5 exceeds the cap 4 for 'nc' {_CAP_HINT}"),
        ("ten", "enumerate nc --n 1", "NCKIT_MAX_N is not an integer: 'ten'"),
        pytest.param(
            "9" * 5000,  # past the default int-to-string limit: not echoed
            "enumerate nc --n 1",
            f"NCKIT_MAX_N: a value has more than {sys.get_int_max_str_digits()} digits",
            id="overlong-NCKIT_MAX_N",
        ),
        ("0", "enumerate schroder --n 1", "NCKIT_MAX_N must be >= 1"),
        (
            None,
            "convert --cumulants 1,2 --deltas 1,1 --direction cumulants",
            "--direction cumulants needs the input sequence via --moments",
        ),
        (
            None,
            "convert --moments 1 --deltas 1 --direction moments",
            "--direction moments needs the input sequence via --cumulants",
        ),
        (
            None,
            "convert --moments 1 --cumulants 1 --deltas 1 --direction cumulants",
            "--direction cumulants takes only --moments, not both sequences",
        ),
        (
            None,
            "convert --moments 1,x --deltas 1,1 --direction cumulants",
            "--moments: not an exact rational: 'x'",
        ),
        (
            None,
            "convert --cumulants 1 --deltas 1/0 --direction moments",
            "--deltas: not an exact rational: '1/0'",
        ),
        (
            None,
            "convert --moments 1,2 --deltas 1 --direction cumulants",
            "2 sequence values but 1 weight values",
        ),
    ],
)
def test_usage_error_stderr_is_exact(capsys, monkeypatch, env, argv, message):
    if env is None:
        monkeypatch.delenv("NCKIT_MAX_N", raising=False)
    else:
        monkeypatch.setenv("NCKIT_MAX_N", env)
    assert run_cli(capsys, *argv.split()) == (2, "", f"nckit: error: {message}\n")


# -- verify ------------------------------------------------------------------

def test_verify_passes(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--max-n", "4")
    assert rc == 0
    assert out == (
        "ok counting: 12 cases\n"
        "ok zeta forms: 452 cases\n"
        "ok structural maps: 115 cases\n"
        "ok triple agreement: 8 cases\n"
        "ok round trip: 20 cases\n"
        "ok specializations: 8 cases\n"
        "ok cancellation: 102 cases\n"
        "ok sign pattern: 11 cases\n"
        "all checks passed (max n = 4)\n"
    )


def test_verify_passes_at_the_benchmarked_size(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--max-n", "6")
    assert rc == 0
    assert out == (
        "ok counting: 18 cases\n"
        "ok zeta forms: 3980 cases\n"
        "ok structural maps: 1741 cases\n"
        "ok triple agreement: 12 cases\n"
        "ok round trip: 42 cases\n"
        "ok specializations: 12 cases\n"
        "ok cancellation: 524 cases\n"
        "ok sign pattern: 29 cases\n"
        "all checks passed (max n = 6)\n"
    )


def test_benchmark_goldens_match_from_cold_caches(capsys):
    """Every command of the benchmark's goldens file, read and never written,
    gives its recorded exit code and stdout digest from cold caches."""
    goldens = json.loads(GOLDENS.read_text())
    assert goldens
    for command, expected in goldens.items():
        cm.clear_caches()
        rc, out, _ = run_cli(capsys, *command.split())
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert {"exit": rc, "sha256": digest} == expected, command


def test_verify_rejects_bad_max_n(capsys):
    assert run_cli(capsys, "verify", "--max-n", "0")[0] == 2


@pytest.mark.parametrize(
    "command, flag", [("verify", "--max-n"), ("table delta --direction moments", "--n")]
)
def test_an_overlong_size_is_not_echoed(capsys, command, flag):
    nines = "9" * 5000  # an integer past the default int-to-string limit of 4300 digits
    argv = command.split()
    rc, out, err = run_cli(capsys, *argv, flag, nines)
    limit = sys.get_int_max_str_digits()
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"nckit {argv[0]}: error: argument {flag}: a value has more than {limit} digits"
    )


@pytest.fixture
def wrong_trees_route(monkeypatch):
    """A simulated bug in the trees route: entry k >= 2 gains d1*M1^k."""
    right = cm._CUMULANT_ENTRIES[cm.METHOD_TREES]
    d1 = Polynomial.from_variable(delta(1))
    m1 = Polynomial.from_variable(moment(1))

    def wrong(n):
        return tuple(
            entry + (d1 * m1**k if k >= 2 else Polynomial.zero())
            for k, entry in enumerate(right(n), start=1)
        )

    monkeypatch.setitem(cm._CUMULANT_ENTRIES, cm.METHOD_TREES, wrong)


def test_verify_fault_injection_names_triple_agreement(capsys, wrong_trees_route):
    rc, out, _ = run_cli(capsys, "verify", "--max-n", "4")
    assert rc == 1
    assert out.splitlines()[-1] == "FAIL triple agreement: mobius vs trees at n=2"


def test_table_all_fault_injection_exits_3(capsys, wrong_trees_route):
    rc, out, _ = run_cli(
        capsys,
        "table",
        "delta",
        "--direction",
        "cumulants",
        "--n",
        "3",
        "--method",
        "all",
    )
    assert rc == 3
    assert "agreement mobius/trees: MISMATCH" in out
    assert "agreement mobius/lagrange: ok" in out
    argv = ("table", "delta", "--direction", "cumulants", "--n", "3", "--method", "all")
    rc, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 3
    assert json.loads(out)["agreement"]["mobius/trees"] is False
    rc, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert rc == 3
    assert out == cm.cumulants_from_moments(3).to_csv()
    assert err == (
        "agreement mobius/trees: MISMATCH\n"
        "agreement trees/lagrange: MISMATCH\n"
    )


# -- shared plumbing ---------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["enumerate", "nc"]) == 2  # --n is required
    capsys.readouterr()
    assert main(["enumerate", "lattice", "--n", "3"]) == 2
    capsys.readouterr()
    assert main(["table", "delta", "--direction", "up", "--n", "2"]) == 2
    capsys.readouterr()
    assert main(["enumerate", "nc", "--n", "3", "--bogus"]) == 2
    capsys.readouterr()


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "enumerate", "arrangement", "--n", "4")
    second = run_cli(capsys, "enumerate", "arrangement", "--n", "4")
    assert first == second
    first = run_cli(
        capsys, "table", "delta", "--direction", "cumulants", "--n", "5"
    )
    second = run_cli(
        capsys, "table", "delta", "--direction", "cumulants", "--n", "5"
    )
    assert first == second


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "nckit",
            "convert",
            "--moments",
            "1,1,1",
            "--deltas",
            "1,1,1",
            "--direction",
            "cumulants",
        ],
        # run from the directory holding the imported package, so that
        # ``-m nckit`` finds the same copy the in-process tests use
        cwd=Path(cli.__file__).resolve().parents[1],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,0,0\n"
    assert proc.stderr == ""


def test_output_does_not_depend_on_variable_slot_order():
    # one process gives C40..C1, d40..d1 and M40..M1 their packed-key slots,
    # in that order, before any table is built; the other starts fresh
    script = (
        "import sys\n"
        "from nckit.cli import main\n"
        "from nckit.poly import Polynomial, cumulant, delta, moment\n"
        "if sys.argv[1] == 'reversed':\n"
        "    for family in (cumulant, delta, moment):\n"
        "        for i in range(40, 0, -1):\n"
        "            Polynomial.from_variable(family(i))\n"
        "for argv in (\n"
        "    'table delta --direction cumulants --n 6 --method all',\n"
        "    'table delta --direction moments --n 7',\n"
        "):\n"
        "    assert main(argv.split()) == 0\n"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script, order],
            cwd=Path(cli.__file__).resolve().parents[1],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for order in ("fresh", "reversed")
    ]
    assert outputs[0] == outputs[1]
    assert "C6 = " in outputs[0] and "M7 = " in outputs[0]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_pipe_ends_the_command_quietly():
    # about 260 KB of output, more than a pipe buffer holds
    with subprocess.Popen(
        [sys.executable, "-m", "nckit", "enumerate", "nc", "--n", "10"],
        cwd=Path(cli.__file__).resolve().parents[1],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"1|2|3|4|5|6|7|8|9|A\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert err == b""
    assert proc.returncode == -signal.SIGPIPE


def test_parser_exposes_all_verbs(capsys):
    parser = cli.build_parser()
    help_text = parser.format_help()
    for verb in ("enumerate", "table", "convert", "verify"):
        assert verb in help_text
    # there is no fault-injection option; tests patch the route table instead
    fault = ["--inject-fault", "tree-weight"]
    assert run_cli(capsys, "verify", *fault)[0] == 2
    table = ["table", "delta", "--direction", "cumulants", "--n", "3"]
    assert run_cli(capsys, *table, *fault)[0] == 2


def test_table_default_method_is_the_library_default():
    parser = cli.build_parser()
    args = parser.parse_args(["table", "delta", "--direction", "cumulants", "--n", "2"])
    signature = inspect.signature(cm.cumulants_from_moments)
    assert args.method == signature.parameters["method"].default
