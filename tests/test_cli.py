"""End-to-end exercises of the command-line surface.

Each test drives ``nckit.cli.main`` in-process and asserts on exact bytes and
exit codes; one subprocess smoke test covers the ``python -m nckit`` path.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from nckit import cli
from nckit import cumulants as cm
from nckit.cli import main
from nckit.poly import Polynomial, delta, moment


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


def test_verify_rejects_bad_max_n(capsys):
    assert run_cli(capsys, "verify", "--max-n", "0")[0] == 2


@pytest.fixture
def wrong_trees_route(monkeypatch):
    """A simulated bug in the trees route: entry k >= 2 gains d1*M1^k."""
    right = cm._CUMULANT_ENTRIES[cm.METHOD_TREES]
    d1 = Polynomial.from_variable(delta(1))
    m1 = Polynomial.from_variable(moment(1))

    def wrong(k):
        bump = d1 * m1**k if k >= 2 else Polynomial.zero()
        return right(k) + bump

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
