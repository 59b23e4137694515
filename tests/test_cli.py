import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from orthofix.cli import main
from orthofix.corpus import five_point_example
from orthofix.spacefile import space_to_dict


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def five_point_file(tmp_path):
    space, mapping = five_point_example()
    path = tmp_path / "five_point.json"
    path.write_text(json.dumps(space_to_dict(space, mapping)), encoding="utf-8")
    return str(path)


def test_version(runner):
    # Must work from a source checkout, without installed package metadata.
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert "0.1.0" in result.output


def test_verify_reports_and_exit_zero(runner, five_point_file):
    result = runner.invoke(main, ["verify", five_point_file])
    assert result.exit_code == 0, result.output
    assert "O_w-set-only" in result.output
    assert "preserving: true" in result.output
    assert "generalized k = 1/2" in result.output
    assert "banach_perp k = 2 (inadmissible" in result.output


def test_verify_byte_identical_reruns(runner, five_point_file):
    first = runner.invoke(main, ["verify", five_point_file, "--json"])
    second = runner.invoke(main, ["verify", five_point_file, "--json"])
    assert first.output == second.output


def test_verify_failing_hypotheses_exit_one(runner, tmp_path):
    space, _ = five_point_example()
    data = space_to_dict(space)
    data["map"] = [2, 0, 1, 0, 4]  # breaks preservation at (0,0), (0,2), (4,0)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 1
    assert "preserving: false" in result.output
    assert "preservation violated at (4, 0)" in result.output


def test_verify_json_schema(runner, five_point_file):
    result = runner.invoke(main, ["verify", five_point_file, "--json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["schema"] == 1
    assert data["classification"]["verdict"] == "O_w-set-only"
    assert data["contractions"]["generalized_perp"]["minimal_k"] == "1/2"
    assert data["hypotheses"]["all_hold"] is True


def test_classify(runner, five_point_file):
    result = runner.invoke(main, ["classify", five_point_file])
    assert result.exit_code == 0
    assert "O_w-set-only" in result.output
    assert "weak orthogonal elements: {0}" in result.output


def test_classify_sequence(runner, five_point_file):
    good = runner.invoke(main, ["classify", five_point_file, "--seq", "3,4,0"])
    assert good.exit_code == 0 and "weak orthogonal sequence" in good.output
    bad = runner.invoke(main, ["classify", five_point_file, "--seq", "1,2"])
    assert bad.exit_code == 1 and "position 0" in bad.output


def test_classify_orbit(runner, five_point_file):
    result = runner.invoke(main, ["classify", five_point_file, "--orbit", "4"])
    assert result.exit_code == 0
    assert "prefix [4 2 1] cycle [0]" in result.output


def test_estimate_k_inadmissible_exit_one(runner, five_point_file):
    result = runner.invoke(main, ["estimate-k", five_point_file, "--kind", "banach_perp"])
    assert result.exit_code == 1
    assert "inadmissible, minimal k = 2" in result.output
    assert "witness (3, 4)" in result.output


def test_estimate_k_admissible_exit_zero(runner, five_point_file):
    result = runner.invoke(main, ["estimate-k", five_point_file, "--kind", "generalized_perp"])
    assert result.exit_code == 0
    assert "minimal k = 1/2" in result.output
    symmetric = runner.invoke(
        main, ["estimate-k", five_point_file, "--kind", "generalized_perp", "--symmetric"]
    )
    assert "minimal k = 2/3" in symmetric.output


def test_estimate_k_unknown_kind(runner, five_point_file):
    result = runner.invoke(main, ["estimate-k", five_point_file, "--kind", "nope"])
    assert result.exit_code == 2


def test_solve_from_weak_element(runner, five_point_file):
    result = runner.invoke(main, ["solve", five_point_file, "--start", "0", "--eps", "1/1000"])
    assert result.exit_code == 0, result.output
    assert "fixed point 0" in result.output


def test_solve_from_other_start_needs_flag(runner, five_point_file):
    refused = runner.invoke(main, ["solve", five_point_file, "--start", "4"])
    assert refused.exit_code == 2
    result = runner.invoke(main, ["solve", five_point_file, "--start", "4", "--allow-any-start"])
    assert result.exit_code == 0
    assert "4 -> 2 -> 1 -> 0" in result.output
    assert "uncertified" in result.output


def test_solve_json_trace(runner, five_point_file):
    result = runner.invoke(
        main,
        ["solve", five_point_file, "--start", "4", "--allow-any-start", "--k", "1/2", "--json"],
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["schema"] == 1
    trace = data["trace"]
    assert trace["iterates"] == ["4", "2", "1", "0"]
    assert trace["fixed_point"] == "0"
    assert trace["k"] == "1/2"
    assert trace["converged"] is True
    assert trace["applications"] == 3
    assert trace["certified"] is False


def test_solve_k_below_certificate_constant_is_uncertified(runner, five_point_file):
    # 1/2 passes the oriented precondition but is below the both-orientation constant 2/3.
    result = runner.invoke(main, ["solve", five_point_file, "--start", "0", "--k", "1/2"])
    assert result.exit_code == 0, result.output
    assert "k = 1/2 (uncertified trace)" in result.output
    certified = runner.invoke(main, ["solve", five_point_file, "--start", "0", "--k", "2/3", "--json"])
    trace = json.loads(certified.output)["trace"]
    assert trace["certified"] is True and trace["apriori_bounds"] == ["0"]


def test_solve_rejects_decimal_k(runner, five_point_file):
    result = runner.invoke(main, ["solve", five_point_file, "--start", "0", "--k", "0.5"])
    assert result.exit_code == 2


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="the interpreter has no digit limit")
def test_numerals_over_the_digit_limit_exit_two(runner, five_point_file, tmp_path):
    # Each of these printed a traceback and exited 1, the code of a certificate failure.
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    data = space_to_dict(*five_point_example())
    as_string, as_number = tmp_path / "string.json", tmp_path / "number.json"
    data["metric"][0][1] = data["metric"][1][0] = digits
    as_string.write_text(json.dumps(data), encoding="utf-8")
    as_number.write_text(json.dumps(data).replace(f'"{digits}"', digits), encoding="utf-8")
    for args in (["verify", str(as_string)], ["verify", str(as_number)], ["solve", five_point_file, "--start", "0", "--k", f"1/{digits}"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert "input error:" in result.output and "limit of" in result.output, args


def test_solve_unknown_label(runner, five_point_file):
    result = runner.invoke(main, ["solve", five_point_file, "--start", "9"])
    assert result.exit_code == 2


def test_malformed_file_exit_two(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "points": ["a", "b"],
                "metric": [[0, "1/0"], ["1/0", 0]],
                "relation": [],
            }
        ),
        encoding="utf-8",
    )
    result = runner.invoke(main, ["classify", str(path)])
    assert result.exit_code == 2
    assert "zero denominator" in result.output


def test_unknown_flag_exit_two(runner, five_point_file):
    result = runner.invoke(main, ["verify", five_point_file, "--frobnicate"])
    assert result.exit_code == 2


def test_corpus_all_cases(runner):
    result = runner.invoke(main, ["corpus"])
    assert result.exit_code == 0, result.output
    for name in ("five-point", "rational-product", "r2-counterexample", "leq-relation", "orbit-space"):
        assert name in result.output
    assert "FAIL" not in result.output
    assert "analytic-only" in result.output


def test_corpus_single_case_json(runner):
    result = runner.invoke(main, ["corpus", "--case", "five-point", "--json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["ok"] is True
    assert data["cases"][0]["name"] == "five-point"


def test_corpus_list(runner):
    result = runner.invoke(main, ["corpus", "--list"])
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 5


def test_audit_json_deterministic(runner):
    args = ["audit", "--trials", "30", "--seed", "42", "--json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    data = json.loads(first.output)
    assert data["schema"] == 1
    assert data["conclusion_verified"] == 30
    assert data["failures"] == []


def test_audit_text_output(runner):
    result = runner.invoke(main, ["audit", "--trials", "10", "--seed", "3"])
    assert result.exit_code == 0
    assert "all conclusions verified" in result.output


def test_audit_rejects_bad_density(runner):
    result = runner.invoke(main, ["audit", "--trials", "1", "--density", "0.3"])
    assert result.exit_code == 2


def test_audit_at_the_largest_size(runner):
    result = runner.invoke(main, ["audit", "--trials", "10", "--max-points", "32", "--seed", "0", "--json"])
    assert result.exit_code == 0, result.output
    data = json.loads(result.output)
    assert data["ok"] is True
    assert data["params"]["max_points"] == 32
    assert data["conclusion_verified"] == 10
    assert runner.invoke(main, ["audit", "--trials", "1", "--max-points", "33"]).exit_code == 2


_IMPORTED_AT_START = """
import json, sys
before = set(sys.modules)
import orthofix.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_start_up_imports_only_stdlib_and_click():
    # Start-up time is part of every command; a heavy import would show in all of them.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORTED_AT_START], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    loaded = json.loads(out)
    assert "orthofix.cli" in loaded
    allowed = set(sys.stdlib_module_names) | {"click", "orthofix"}
    outside = sorted(name for name in loaded if name.split(".")[0] not in allowed)
    assert outside == []
    assert not any(name == "numpy" or name.startswith("numpy.") for name in loaded)

    def imported_by(*args):
        # `-X importtime` writes one stderr line per module the command imports, the name last.
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "orthofix.cli", *args],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}

    # A command imports only the code it runs: no case code and no audit outside their commands.
    verify = imported_by("verify", "data/five_point.json")
    assert "orthofix.spacefile" in verify
    assert not verify & {"orthofix.corpus", "orthofix.oracle"}
    assert "orthofix.quadext" not in verify  # a space's metric is rational; only the corpus samples use QuadExt
    listed = imported_by("corpus", "--list")
    assert "orthofix.cases" in listed
    assert not listed & {"orthofix.corpus", "orthofix.oracle"}
    # The option choices come from `kinds`: listing, like --version and --help, loads none of the analysis code.
    assert not listed & {
        "orthofix.contraction", "orthofix.solver", "orthofix.relational", "orthofix.space", "orthofix.spacefile"
    }
