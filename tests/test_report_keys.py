"""Each key of a JSON report must be able to vary, and must not repeat another key.

The test walks every JSON golden and a seeded sample of `verify`, `solve`,
`estimate-k` and `audit` reports.  A key path joins a report's object keys
with "." and writes a list of objects as "[]"; its value in a report is the
list of its elements' values (`hierarchy[].holds` is the five verdicts'
`holds`).  Values compare as JSON text, so that 0 is not false.  A path
fails if it has the same value in every report that holds it, or if it
equals another path in every report that holds both, unless `ALLOWED` names
it with its reason.  A pair that is equal only because of the sample is a
fault in the sample, not an allowed path.  Only the corpus's paths are held
by a single report: the corpus takes no input, so its report is the same on
every run, and its paths are walked but cannot be judged.

The sample holds the `data/` files, the oriented-gap instance of
`test_lemmas.py` (its oriented generalized constant is admissible, its
certified one is not), a map that contracts on related pairs only, the
first instance of a seeded search that only the generalized condition
certifies, and seeded generated instances, with random and accepted maps.
"""

import json
import random
from fractions import Fraction

import pytest

from cli_runner import CliRunner
from golden_cases import GOLDEN, ROOT
from orthofix import ContractionKind, GenParams, SelfMap, contraction, generate_map, generate_space
from orthofix.cli import main
from orthofix.space import FiniteSpace
from orthofix.spacefile import load_space_file, space_to_dict
from test_lemmas import ORIENTED_GAP_MAP, ORIENTED_GAP_METRIC, ORIENTED_GAP_RELATION

ALLOWED = {
    # labels
    "schema": "a label: the report's format, the same in every report of a schema",
    "command": "a label: the command that wrote the report",
    "hierarchy[].name": "labels: the name of each implication, in a fixed order",
    # verdicts, which are constant when the program is correct
    "hierarchy[].holds": "a verdict: each implication holds unless the scans are wrong",
    "hierarchy[].witness": "a verdict: each implication's witness is null unless it fails",
    "failures": "the audit's verdict: empty unless a trial fails",
    "hierarchy_failures": "the audit's verdict: 0 unless a hierarchy implication fails",
    "conclusion_verified": "the audit's verdict: every trial run unless a trial fails",
    # paths that a benchmark check reads; `ok` is the audit's verdict too
    "ok": "read by perfbench/run.py:236 (verify), :272 (solve's verify) and :309 (audit)",
    "hypotheses.preserving": "read by perfbench/run.py:242; equals preservation.preserving",
    "hypotheses.minimal_k": "read as a field by perfbench/run.py:335; equals certified_generalized.minimal_k",
    "trials_run": "read by perfbench/run.py:310; equals params.trials",
    # input echoes
    "params.*": "the audit's options, echoed",
}


def _allowed(path):
    return path in ALLOWED or path.split(".", 1)[0] + ".*" in ALLOWED


def flatten(node):
    """{path suffix: value} of a JSON value; a list of objects is "[]", valued by the list of its elements' values."""
    if isinstance(node, dict):
        return {f".{key}{sub}": v for key, value in node.items() for sub, v in flatten(value).items()}
    if isinstance(node, list) and node and all(isinstance(e, dict) for e in node):
        rows = [flatten(e) for e in node]
        return {f"[]{sub}": [row.get(sub) for row in rows] for sub in dict.fromkeys(s for row in rows for s in row)}
    return {"": node}


def key_faults(reports):
    """The paths that have one value in every report that holds them, or equal another path in all the reports of both."""
    values = {}  # path -> {report index: value as JSON text}
    for i, report in enumerate(reports):
        for suffix, value in flatten(report).items():
            values.setdefault(suffix.lstrip("."), {})[i] = json.dumps(value, sort_keys=True)
    single = sorted(path for path, held in values.items() if len(held) < 2)
    assert all(path.startswith("cases[]") for path in single), single  # the corpus's, and only the corpus's
    judged = sorted(path for path, held in values.items() if len(held) >= 2 and not _allowed(path))
    faults = [f"{path}: {values[path][min(values[path])]} in all {len(values[path])} reports"
              for path in judged if len(set(values[path].values())) == 1]
    for path in judged:
        for other in values:
            both = values[path].keys() & values[other].keys()
            if other != path and len(both) >= 2 and all(values[path][i] == values[other][i] for i in both):
                if other < path or _allowed(other):
                    continue  # a pair is named once, and not at all when the other path is allowed
                faults.append(f"{path}: equals {other} in all {len(both)} reports of both")
    return faults


def _search_generalized_only():
    """The first seeded instance whose certified generalized constant is admissible and whose Ciric one is not.

    Then no other kind is admissible either: the Banach constant is at least the Ciric one, and a Kannan or
    Chatterjea constant below 1/2 bounds the Ciric one below 1.
    """
    keys = [(ContractionKind.CIRIC, False), (ContractionKind.GENERALIZED_PERP, True)]
    for seed in range(2000):
        rng = random.Random(seed)
        space = generate_space(GenParams(seed=seed, max_points=3 + seed % 6, relation_density=Fraction(1 + seed % 3, 4)), rng)
        mapping = SelfMap([rng.randrange(space.n) for _ in range(space.n)])
        ciric, certified = contraction.reports(space, mapping, keys)
        if certified.admissible and not ciric.admissible:
            return space, mapping
    raise AssertionError("no generalized-only instance in 2000 seeds")


def _instances():
    """(name, space, map) of the sample, less the `data/` files."""
    yield "oriented-gap", FiniteSpace(list("0123"), ORIENTED_GAP_METRIC, ORIENTED_GAP_RELATION), SelfMap(ORIENTED_GAP_MAP)
    # banach_perp over the relation is 0; unrestricted_lipschitz over every ordered pair is 2, at (1, 2)
    yield "related-pairs-only", FiniteSpace(list("abc"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [(0, 1)]), SelfMap([0, 0, 2])
    yield ("generalized-only", *_search_generalized_only())
    for seed in range(12):
        params = GenParams(seed=seed, max_points=3 + seed % 4, relation_density=Fraction(1 + seed % 3, 4))
        rng = random.Random(f"report keys {seed}")
        space = generate_space(params, rng)
        mapping = generate_map(params, space, rng) if seed % 2 else None
        yield f"generated-{seed}", space, mapping or SelfMap([rng.randrange(space.n) for _ in range(space.n)])


def _run(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1), (args, result.output)
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    rng = random.Random("report keys")
    folder = tmp_path_factory.mktemp("report-keys")
    files = [(str(path), *load_space_file(path)) for path in sorted((ROOT / "data").glob("*.json"))]
    for name, space, mapping in _instances():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(space_to_dict(space, mapping)), encoding="utf-8")
        files.append((str(path), space, mapping))
    sample = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(GOLDEN.glob("*.json"))]
    for path, space, _ in files:
        sample.append(_run(["verify", "--json", path]))
        kind = rng.choice(list(ContractionKind)).value
        sample.append(_run(["estimate-k", "--kind", kind, *["--symmetric"] * rng.randrange(2), "--json", path]))
        weak = sorted(space.weak_elements)
        start = space.points[rng.choice(weak) if weak else rng.randrange(space.n)]
        options = rng.choice([[], ["--eps", "1/100"], ["--max-iter", "1"], ["--k", "1/2", "--allow-inadmissible-k"]])
        result = CliRunner().invoke(main, ["solve", "--start", start, *options, "--allow-any-start", "--json", path])
        if result.stdout:  # none without --k and an admissible constant (exit 2), or on a certificate failure (1)
            sample.append(json.loads(result.stdout))
    for seed, options in ((3, ["--max-points", "5", "--density", "1/2", "--map-attempts", "16"]), (11, ["--max-points", "12"])):
        sample.append(_run(["audit", "--trials", "12", "--seed", str(seed), *options, "--json"]))
    return sample


def test_no_key_is_constant_or_a_copy_of_another(reports):
    assert {report["command"] for report in reports} == {"verify", "solve", "estimate-k", "audit", "corpus"}
    faults = key_faults(reports)
    assert not faults, "\n".join(faults)
