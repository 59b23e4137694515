import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orthofix import GenParams, InputError, oracle
from orthofix.cli import _parser, main
from orthofix.contraction import ContractionKind, check_contraction
from orthofix.corpus import five_point_example
from orthofix.kinds import list_cases
from orthofix.oracle import _shortest_path_metric
from orthofix.rational import parse_rational
from orthofix.space import SelfMap
from orthofix.spacefile import load_space_file, space_to_dict
from cli_runner import CliRunner


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


def test_verify_reads_a_shuffled_relation_and_string_entries_alike(runner, tmp_path, monkeypatch):
    # A generated file has int entries and a sorted relation; the same space with its relation shuffled
    # and every entry written "p/1" loads Fractions and a separate integer form.  The reports must not
    # differ, and on the Fraction load the two contraction engines run different arithmetic and agree.
    rng = random.Random(64)
    n = 64
    metric = _shortest_path_metric(n, rng, 1, 50)
    relation = [[i, j] for i in range(n) for j in range(n) if rng.random() < 0.6]
    data = {"points": [str(i) for i in range(n)], "metric": metric, "relation": relation, "map": [rng.randrange(n) for _ in range(n)]}
    strings = dict(data, metric=[[f"{v}/1" for v in row] for row in metric], relation=rng.sample(relation, len(relation)))
    outputs = []
    for name, form in [("ints", data), ("strings", strings)]:
        (tmp_path / name).mkdir()
        (tmp_path / name / "dense.json").write_text(json.dumps(form), encoding="utf-8")
        monkeypatch.chdir(tmp_path / name)
        space, _ = load_space_file("dense.json")
        assert (space.int_metric is space.metric) == (name == "ints")
        for kind in ContractionKind:
            for symmetric in (False, True):
                engines = {check_contraction(kind, space, SelfMap(form["map"], n), symmetric=symmetric, engine=e) for e in ("scaled", "generic")}
                assert len(engines) == 1, (kind, symmetric)
        outputs.append(runner.invoke(main, ["verify", "--json", "dense.json"]))
    assert json.loads(outputs[0].stdout)["command"] == "verify" and not outputs[0].stderr
    assert outputs[0][:4] == outputs[1][:4]  # the exit code and every byte written


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
    assert data["schema"] == 2
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
    as_json = runner.invoke(main, ["classify", five_point_file, "--orbit", "4", "--json"])
    assert json.loads(as_json.stdout)["orbit"] == {"start": "4", "prefix": ["4", "2", "1"], "cycle": ["0"], "enters_fixed_point": True}


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
    assert data["schema"] == 2
    trace = data["trace"]
    assert trace["iterates"] == ["4", "2", "1", "0"]
    assert trace["fixed_point"] == "0"
    assert trace["k"] == "1/2"
    assert trace["converged"] is True
    assert trace["applications"] == 3
    assert trace["certified"] is False


def test_solve_stops_an_uncertified_cycle_and_exits_one(runner, tmp_path):
    space, _ = five_point_example()
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(space_to_dict(space, SelfMap([1, 0, 1, 0, 2], 5))), encoding="utf-8")
    args = ["solve", str(path), "--start", "4", "--allow-any-start", "--k", "1/2", "--allow-inadmissible-k"]
    result = runner.invoke(main, [*args, "--max-iter", "100000"])
    assert result.exit_code == 1, result.output
    assert "trace: 4 -> 2 -> 1 -> 0 -> 1\n" in result.output
    assert result.output.endswith("did not converge (cycle)\n")


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


@pytest.fixture
def line_file(tmp_path):
    """Four points on a line at 0, 1, 3 and 7, every pair related; the map moves each point one step left."""
    path = tmp_path / "line.json"
    metric = [[abs(a - b) for b in (0, 1, 3, 7)] for a in (0, 1, 3, 7)]
    relation = [[i, j] for i in range(4) for j in range(4)]
    path.write_text(json.dumps({"points": list("0123"), "metric": metric, "relation": relation, "map": [0, 0, 1, 2]}), encoding="utf-8")
    return str(path)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="the interpreter has no digit limit")
@pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
def test_solve_bound_over_the_digit_limit_exits_two(runner, line_file, as_json):
    # Each --k numeral is within the limit, but the bound k^2/(1-k) * d(x0, x1) at n = 2 is not:
    # writing it printed a traceback and exited 1, the code of a certificate failure.
    digits = sys.get_int_max_str_digits() // 2 + 50
    k = "9" * digits + "/1" + "0" * digits
    result = runner.invoke(main, ["solve", line_file, "--start", "3", "--k", k, *as_json])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == (
        "input error: --k: the a-priori bound at n=2 has more digits than the interpreter's limit of "
        f"{sys.get_int_max_str_digits()} for integer string conversion\n"
    )
    # A --k with fewer digits gives the certified trace 3 -> 2 -> 1 -> 0.
    assert runner.invoke(main, ["solve", line_file, "--start", "3", "--k", "99/100", *as_json]).exit_code == 0


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="the interpreter has no digit limit")
def test_constants_over_the_digit_limit_exit_two(runner, tmp_path):
    # Every entry is within the limit, but d(x, y) = |x - y| + 1/(10^m + c_xy) with distinct c_xy
    # gives constants whose numerators and denominators have about 2m digits.
    base = 10 ** (sys.get_int_max_str_digits() * 3 // 5)
    space, mapping = five_point_example()
    data = space_to_dict(space, mapping)
    data["metric"] = [
        [0 if i == j else str(Fraction(abs(i - j)) + Fraction(1, base + 7 * min(i, j) + 13 * max(i, j) + 1)) for j in range(5)]
        for i in range(5)
    ]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for args in (["verify"], ["verify", "--json"], ["estimate-k", "--kind", "kannan"], ["solve", "--start", "0"]):
        result = runner.invoke(main, [*args, str(path)])
        assert result.exit_code == 2, args
        assert result.stdout == "", args
        assert result.stderr.startswith("input error:") and "more digits than the interpreter's limit" in result.stderr, args


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="the interpreter has no digit limit")
@pytest.mark.parametrize("k", [[], ["--k", "1/2"]], ids=["scanned k", "explicit k"])
def test_solve_refusal_names_the_digit_limit(runner, tmp_path, k):
    # The same long-entry metric with a map whose generalized constant is not admissible: building the
    # refusal's message wrote the scanned constant with `str()`, printed a traceback and exited 1.
    base = 10 ** (sys.get_int_max_str_digits() * 3 // 5)
    data = space_to_dict(*five_point_example())
    data["metric"] = [
        [0 if i == j else str(Fraction(abs(i - j)) + Fraction(1, base + 7 * min(i, j) + 13 * max(i, j) + 1)) for j in range(5)]
        for i in range(5)
    ]
    data["map"] = [0, 0, 0, 4, 1]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    result = runner.invoke(main, ["solve", "--start", "0", *k, str(path)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    limit = f"<a rational past the interpreter's limit of {sys.get_int_max_str_digits()} digits>"
    assert result.stderr.startswith("input error: ") and limit in result.stderr and len(result.stderr.splitlines()) == 1


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


def test_corpus_list_json(runner):
    result = runner.invoke(main, ["corpus", "--list", "--json"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "schema": 2, "command": "corpus", "cases": [{"name": name, "summary": summary} for name, summary in list_cases()]
    }


def test_verify_needs_a_map(runner, tmp_path):
    path = tmp_path / "no_map.json"
    path.write_text(json.dumps({"points": ["a", "b"], "metric": [[0, 1], [1, 0]], "relation": [[0, 1]]}), encoding="utf-8")
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"input error: {path} has no 'map' entry, required by this command\n"


def test_audit_json_deterministic(runner):
    args = ["audit", "--trials", "30", "--seed", "42", "--json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    data = json.loads(first.output)
    assert data["schema"] == 2
    assert data["conclusion_verified"] == 30
    assert data["failures"] == []


def test_audit_text_output(runner):
    result = runner.invoke(main, ["audit", "--trials", "10", "--seed", "3"])
    assert result.exit_code == 0
    assert "all conclusions verified" in result.output


def test_audit_text_output_names_each_failure(runner, monkeypatch):
    # One discrepancy planted on the second accepted trial's space, keyed by its JSON form.
    params = GenParams(seed=4, trials=5)
    master = random.Random(params.seed)
    accepted = [seed for seed in (master.getrandbits(64) for _ in range(10)) if oracle._trial(params, seed).accepted]
    key = lambda space: json.dumps(space_to_dict(space), sort_keys=True)  # noqa: E731
    planted_space = key(oracle.generate_space(params, random.Random(accepted[1])))
    audit_instance = oracle._audit_instance

    def planted(space, mapping):
        problems, traces = audit_instance(space, mapping)
        return problems + ["planted discrepancy"] * (key(space) == planted_space), traces

    monkeypatch.setattr(oracle, "_audit_instance", planted)
    result = runner.invoke(main, ["audit", "--trials", "5", "--seed", "4"])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert [line for line in lines if line.startswith("FAILURE")] == [f"FAILURE seed={accepted[1]}: planted discrepancy"]
    assert lines[-1] == "audit: DISCREPANCIES FOUND"


def test_audit_defaults_are_the_library_defaults(runner):
    parsed = _parser().parse_args(["audit"])
    given = (parsed.seed, parsed.trials, parsed.max_points, parse_rational(parsed.density), parsed.map_attempts)
    assert given == tuple(GenParams())
    # The help text's range of --max-points is the one GenParams accepts.
    shown = re.search(r"largest generated space, (\d+) to (\d+) points", runner.invoke(main, ["audit", "--help"]).stdout)
    low, high = map(int, shown.groups())
    assert GenParams(max_points=low).max_points == low and GenParams(max_points=high).max_points == high
    for outside in (low - 1, high + 1):
        with pytest.raises(InputError, match=rf"^max_points must lie in \[{low}, {high}\]$"):
            GenParams(max_points=outside)


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


def test_cli_start_up_imports_only_stdlib():
    # Start-up time is part of every command; a heavy import would show in all of them.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORTED_AT_START], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    loaded = json.loads(out)
    assert "orthofix.cli" in loaded
    assert "orthofix.oracle" not in loaded  # the audit's defaults come from `kinds`
    allowed = set(sys.stdlib_module_names) | {"orthofix"}
    outside = sorted(name for name in loaded if name.split(".")[0] not in allowed)
    assert outside == []

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
    assert "click" not in verify
    assert "orthofix.spacefile" in verify
    assert not verify & {"orthofix.corpus", "orthofix.oracle"}
    assert "orthofix.quadext" not in verify  # a space's metric is rational; only the corpus samples use QuadExt
    listed = imported_by("corpus", "--list")
    assert "click" not in listed
    assert "orthofix.kinds" in listed
    assert not listed & {"orthofix.corpus", "orthofix.oracle"}
    # The option choices come from `kinds`: listing, like --version and --help, loads none of the analysis code.
    assert not listed & {
        "orthofix.contraction", "orthofix.solver", "orthofix.relational", "orthofix.space", "orthofix.spacefile"
    }
    # The audit imports `spacefile` only for a failed trial, `mmap` only for a forked phase and `signal` only to
    # kill a child, and never `pickle`.
    audited = imported_by("audit", "--trials", "5", "--json")
    assert "orthofix.oracle" in audited
    assert not audited & {"orthofix.spacefile", "mmap", "signal", "pickle"}


# Every command and option as the click command line defined them: option -> (parameter, default, choices,
# required).  The four commands that read a space take it as their one argument, FILE.
_KINDS = ("banach_perp", "ciric", "kannan", "chatterjea", "generalized_perp", "unrestricted_lipschitz")
_CASES = ("five-point", "rational-product", "r2-counterexample", "leq-relation", "orbit-space")
SURFACE = {
    "verify": {
        "--json": ("as_json", False, None, False),
    },
    "classify": {
        "--seq": ("seq", None, None, False),
        "--orbit": ("orbit_start", None, None, False),
        "--json": ("as_json", False, None, False),
    },
    "estimate-k": {
        "--kind": ("kind", None, _KINDS, True),
        "--symmetric": ("symmetric", False, None, False),
        "--json": ("as_json", False, None, False),
    },
    "solve": {
        "--start": ("start", None, None, True),
        "--eps": ("eps", None, None, False),
        "--max-iter": ("max_iter", 1000, None, False),
        "--k": ("k_raw", None, None, False),
        "--allow-any-start": ("allow_any_start", False, None, False),
        "--allow-inadmissible-k": ("allow_inadmissible_k", False, None, False),
        "--json": ("as_json", False, None, False),
    },
    "corpus": {
        "--case": ("case_name", None, _CASES, False),
        "--list": ("list_only", False, None, False),
        "--json": ("as_json", False, None, False),
    },
    "audit": {
        "--trials": ("trials", 500, None, False),
        "--seed": ("seed", 0, None, False),
        "--max-points": ("max_points", 8, None, False),
        "--density": ("density", "1/4", None, False),
        "--map-attempts": ("map_attempts", 64, None, False),
        "--dump-dir": ("dump_dir", None, None, False),
        "--json": ("as_json", False, None, False),
    },
}
_READS_FILE = {"verify", "classify", "estimate-k", "solve"}


def _given(option, default, choices):
    """Arguments that set `option` to a value other than its default, and that value."""
    if default is False:
        return [option], True
    if choices is not None:
        return [option, choices[-1]], choices[-1]
    if isinstance(default, int):
        return [option, str(default + 7)], default + 7
    return [option, "x1"], "x1"


def _least(command):
    """The shortest command line of `command`: its FILE and its required options."""
    args = [command] + (["space.json"] if command in _READS_FILE else [])
    for option, (_, default, choices, required) in SURFACE[command].items():
        if required:
            args += _given(option, default, choices)[0]
    return args


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_every_option_parses_with_its_default(command):
    least = vars(_parser().parse_args(_least(command)))
    for option, (name, default, choices, required) in SURFACE[command].items():
        if not required:
            assert least[name] == default, option
        args, value = _given(option, default, choices)
        assert getattr(_parser().parse_args(_least(command) + args), name) == value, option
        if choices is not None:
            for choice in choices:
                assert getattr(_parser().parse_args(_least(command) + [option, choice]), name) == choice


@pytest.mark.parametrize("command", [None, *sorted(SURFACE)])
def test_help_names_every_option(runner, command):
    result = runner.invoke(main, ["--help"] if command is None else [command, "--help"])
    assert result.exit_code == 0 and result.stderr == ""
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", result.stdout))
    if command is None:
        assert named == {"--help", "--version"}
        assert all(name in result.stdout for name in SURFACE)
    else:
        assert named == set(SURFACE[command]) | {"--help"}
        assert ("FILE" in result.stdout) == (command in _READS_FILE)


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "data/five_point.json", "--frobnicate"],
        ["estimate-k", "data/five_point.json", "--kind", "nope"],
        ["solve", "data/five_point.json"],
        ["audit", "--trials", "ten"],
        ["audit", "--trials", "٣"],
        ["audit", "--seed", "1_0"],
        ["solve", "data/five_point.json", "--start", "0", "--max-iter", " 5"],
        ["verify", "data/five_point.json", "--js"],  # no option may be abbreviated
        [],
    ],
    ids=[
        "unknown option", "bad kind", "missing start", "non-integer trials", "non-ASCII digit", "underscore", "blank",
        "abbreviation", "no command",
    ],
)
def test_usage_errors_exit_two(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: orthofix") and "orthofix" in result.stderr.splitlines()[-1]
    assert ": error: " in result.stderr.splitlines()[-1]


def test_version_is_byte_identical(runner):
    result = runner.invoke(main, ["--version"])
    assert (result.exit_code, result.stdout, result.stderr) == (0, "orthofix, version 0.1.0\n", "")


@pytest.mark.parametrize(
    "args, code", [(["corpus", "--list"], 0), (["verify", "data/preservation_violations.json"], 1), (["corpus", "--case", "x"], 2)]
)
def test_the_benchmark_harness_spelling_exits_with_the_code(monkeypatch, args, code):
    # The harness calls `cli.main.main(...)` with click's keywords and reads the code from SystemExit.
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as done:
        main.main(args=args, prog_name="orthofix", standalone_mode=False)
    assert done.value.code == code
    assert out.getvalue().startswith({0: "five-point: ", 1: "metric: valid ", 2: ""}[code])
    assert bool(out.getvalue()) == (code != 2)
