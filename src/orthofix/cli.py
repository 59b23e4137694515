"""Command-line front end.

Exit codes: 0 all checks passed / solve converged; 1 a verification failed
or the iteration did not converge; 2 input error (bad file, bad flag, bad
index).  Reports are deterministic: identical invocations on identical
files produce byte-identical output, and JSON reports carry "schema": 1.
Rationals are written and read as integers or "p/q" only.  The choices the
options offer come from `kinds` and `cases`; every other module is imported
by the commands that run it, so `--help`, `--version` and `corpus --list`
compile none of them, and no command compiles code it does not run.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .cases import list_cases
from .errors import CertificateError, InputError, OrthofixError
from .kinds import MODE_O1, MODE_ORBITAL_CONTINUITY, ContractionKind
from .rational import parse_rational

SCHEMA = 1


def _emit_json(payload: dict) -> None:
    click.echo(json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=True))


def _fmt_k(value) -> str:
    return "none" if value is None else str(value)


def _labels(space, pair) -> str:
    return "(" + ", ".join(space.points[i] for i in pair) + ")"


def _element_lines(space, cls) -> list[str]:
    """The weak and strong orthogonal elements of a classification, by label."""
    return [
        f"{kind} orthogonal elements: {{" + ", ".join(space.points[i] for i in sorted(elements)) + "}"
        for kind, elements in (("weak", cls.weak_elements), ("strong", cls.strong_elements))
    ]


def _load(path: str, need_map: bool):
    from .spacefile import load_space_file

    space, mapping = load_space_file(path)
    if need_map and mapping is None:
        raise InputError(f"{path} has no 'map' entry, required by this command")
    return space, mapping


def _rat_option(value: str | None, name: str) -> Fraction | None:
    if value is None:
        return None
    try:
        return parse_rational(value)
    except InputError as exc:
        raise InputError(f"--{name}: {exc}") from None


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InputError as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(2)
        except CertificateError as exc:
            click.echo(f"certificate failure: {exc}", err=True)
            sys.exit(1)
        except OrthofixError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="orthofix")
def main():
    """Exact verification and certified fixed point iteration for
    metric spaces carrying an orthogonality relation."""


_KINDS = [k.value for k in ContractionKind]


@main.command()
@click.argument("file", type=click.Path())
@click.option("--mode", type=click.Choice([MODE_ORBITAL_CONTINUITY, MODE_O1]), default=MODE_ORBITAL_CONTINUITY, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="emit a JSON report")
def verify(file, mode, as_json):
    """Run every check on a space file: classification, preservation,
    contraction constants, hierarchy implications and theorem hypotheses."""
    from .contraction import hierarchy_check, preservation, reports
    from .relational import classify_orthogonality
    from .solver import hypothesis_check

    space, mapping = _load(file, need_map=True)
    cls = classify_orthogonality(space)
    pres = preservation(space, mapping)
    # every report verify prints, in one pass; the checks below read them from the map
    *oriented, certified = reports(
        space, mapping, [(kind, False) for kind in ContractionKind] + [(ContractionKind.GENERALIZED_PERP, True)]
    )
    contractions = dict(zip(ContractionKind, oriented))
    verdicts = hierarchy_check(space, mapping)
    hyp = hypothesis_check(space, mapping, mode)
    ok = hyp.all_hold and all(v.holds for v in verdicts)

    if as_json:
        _emit_json(
            {
                "command": "verify",
                "file": str(file),
                "classification": cls.to_dict(),
                "preservation": pres.to_dict(),
                "contractions": {k.value: r.to_dict() for k, r in contractions.items()},
                "certified_generalized": certified.to_dict(),
                "hierarchy": [v.to_dict() for v in verdicts],
                "hypotheses": hyp.to_dict(),
                "ok": ok,
            }
        )
    else:
        click.echo(f"metric: valid ({space.n} points, {len(space.relation)} relation pairs)")
        click.echo(f"classification: {cls.verdict}")
        for line in _element_lines(space, cls):
            click.echo(line)
        click.echo(f"preserving: {str(pres.preserving).lower()}")
        for (i, j) in pres.violations:
            click.echo(f"  preservation violated at {_labels(space, (i, j))}")
        for kind, rep in contractions.items():
            name = "generalized" if kind is ContractionKind.GENERALIZED_PERP else kind.value
            if not rep.feasible:
                click.echo(f"{name}: infeasible, witness {_labels(space, rep.infeasible_witness)}")
                continue
            status = "admissible" if rep.admissible else "inadmissible"
            witness = f", witness {_labels(space, rep.witness_max)}" if rep.witness_max else ""
            click.echo(f"{name} k = {_fmt_k(rep.minimal_k)} ({status}{witness})")
        click.echo(f"certified generalized k (both orientations) = {_fmt_k(certified.minimal_k)}")
        for v in verdicts:
            mark = "holds" if v.holds else f"FAILS at {v.witness}"
            click.echo(f"hierarchy {v.name}: {mark}")
        for note in hyp.notes:
            click.echo(note)
        click.echo(f"hypotheses ({mode}): {'all hold' if hyp.all_hold else 'NOT satisfied'}")
    sys.exit(0 if ok else 1)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--seq", default=None, help="comma-separated point labels to check as a weak orthogonal sequence")
@click.option("--orbit", "orbit_start", default=None, help="point label whose orbit to print (needs a map)")
@click.option("--json", "as_json", is_flag=True)
def classify(file, seq, orbit_start, as_json):
    """Classify a space file (orthogonal set / weak orthogonal set / neither)."""
    from .relational import classify_orthogonality, is_ow_sequence, orbit

    space, mapping = _load(file, need_map=orbit_start is not None)
    cls = classify_orthogonality(space)
    payload: dict = {"command": "classify", "file": str(file), "classification": cls.to_dict()}
    lines = [f"classification: {cls.verdict}", *_element_lines(space, cls)]
    ok = True
    if seq is not None:
        indices = [space.index_of(lbl.strip()) for lbl in seq.split(",")]
        check = is_ow_sequence(space, indices)
        payload["sequence"] = {"indices": indices, "ok": check.ok, "first_violation": check.first_violation}
        if check.ok:
            lines.append("sequence: weak orthogonal sequence")
        else:
            ok = False
            lines.append(f"sequence: adjacent pair at position {check.first_violation} is not orthogonally related")
    if orbit_start is not None:
        info = orbit(space, mapping, space.index_of(orbit_start))
        payload["orbit"] = {
            "start": orbit_start,
            "prefix": [space.points[i] for i in info.prefix],
            "cycle": [space.points[i] for i in info.cycle],
            "enters_fixed_point": info.enters_fixed_point,
        }
        pre = " ".join(space.points[i] for i in info.prefix)
        cyc = " ".join(space.points[i] for i in info.cycle)
        lines.append(f"orbit from {orbit_start}: prefix [{pre}] cycle [{cyc}]")
    if as_json:
        _emit_json(payload)
    else:
        for line in lines:
            click.echo(line)
    sys.exit(0 if ok else 1)


@main.command("estimate-k")
@click.argument("file", type=click.Path())
@click.option("--kind", type=click.Choice(_KINDS), required=True)
@click.option("--symmetric", is_flag=True, help="scan both orientations of every related pair")
@click.option("--json", "as_json", is_flag=True)
def estimate_k(file, kind, symmetric, as_json):
    """Estimate the minimal feasible contraction constant for one kind."""
    from .contraction import check_contraction

    space, mapping = _load(file, need_map=True)
    rep = check_contraction(kind, space, mapping, symmetric=symmetric)
    if as_json:
        _emit_json({"command": "estimate-k", "file": str(file), "symmetric": symmetric, "report": rep.to_dict()})
    else:
        if not rep.feasible:
            click.echo(f"{kind}: infeasible, witness {_labels(space, rep.infeasible_witness)} has zero denominator but moves")
        else:
            status = "admissible" if rep.admissible else "inadmissible"
            witness = f", witness {_labels(space, rep.witness_max)}" if rep.witness_max else ""
            click.echo(f"{kind}: {status}, minimal k = {_fmt_k(rep.minimal_k)}{witness} ({rep.pairs_scanned} pairs scanned)")
    sys.exit(0 if rep.admissible else 1)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--start", required=True, help="point label to start from (must be a weak orthogonal element)")
@click.option("--eps", default=None, help="stop once the certified tail bound drops to this rational")
@click.option("--max-iter", default=1000, show_default=True, type=int)
@click.option("--k", "k_raw", default=None, help="explicit contraction constant in [0, 1)")
@click.option("--allow-any-start", is_flag=True, help="iterate from a non weak-orthogonal start (uncertified trace)")
@click.option("--allow-inadmissible-k", is_flag=True, help="skip the minimal-k precondition on an explicit --k")
@click.option("--json", "as_json", is_flag=True)
def solve(file, start, eps, max_iter, k_raw, allow_any_start, allow_inadmissible_k, as_json):
    """Run certified Picard iteration on a space file."""
    from .solver import picard_solve

    space, mapping = _load(file, need_map=True)
    trace = picard_solve(
        space,
        mapping,
        space.index_of(start),
        k=_rat_option(k_raw, "k"),
        eps=_rat_option(eps, "eps"),
        max_iter=max_iter,
        allow_any_start=allow_any_start,
        allow_inadmissible_k=allow_inadmissible_k,
    )
    if as_json:
        _emit_json({"command": "solve", "file": str(file), "trace": trace.to_dict(space)})
    else:
        click.echo(f"k = {_fmt_k(trace.k)} ({'certified' if trace.certified else 'uncertified'} trace)")
        click.echo("trace: " + " -> ".join(space.points[i] for i in trace.iterates))
        for n, d in enumerate(trace.step_distances):
            bound = f", bound {_fmt_k(trace.apriori_bounds[n])}" if trace.apriori_bounds else ""
            click.echo(f"  step {n}: d = {_fmt_k(d)}{bound}")
        if trace.converged:
            click.echo(f"converged: fixed point {space.points[trace.fixed_point]} after {trace.applications} applications")
        else:
            click.echo(f"did not converge ({trace.stop_reason})")
    sys.exit(0 if trace.converged else 1)


@main.command()
@click.option("--case", "case_name", default=None, type=click.Choice([name for name, _ in list_cases()]))
@click.option("--list", "list_only", is_flag=True, help="list registered cases")
@click.option("--json", "as_json", is_flag=True)
def corpus(case_name, list_only, as_json):
    """Run the registered desk-checkable cases and report every assertion."""
    if list_only:
        if as_json:
            _emit_json({"command": "corpus", "cases": [{"name": n, "summary": s} for n, s in list_cases()]})
        else:
            for name, summary in list_cases():
                click.echo(f"{name}: {summary}")
        sys.exit(0)
    from . import corpus as corpus_mod

    reports = [corpus_mod.run_case(case_name)] if case_name else corpus_mod.run_all()
    ok = all(r.ok for r in reports)
    if as_json:
        _emit_json({"command": "corpus", "ok": ok, "cases": [r.to_dict() for r in reports]})
    else:
        for rep in reports:
            click.echo(f"== {rep.name}: {rep.title}")
            for a in rep.assertions:
                mark = "pass" if a.passed else "FAIL"
                click.echo(f"  [{mark}] {a.name}: expected {a.expected}, actual {a.actual} [{a.provenance}]")
            for note in rep.annotations:
                click.echo(f"  [analytic-only] {note.name}: {note.note}")
            click.echo(f"  {sum(a.passed for a in rep.assertions)}/{len(rep.assertions)} assertions pass")
    sys.exit(0 if ok else 1)


@main.command()
@click.option("--trials", default=500, show_default=True, type=int, help="number of accepted instances to audit")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--max-points", default=8, show_default=True, type=int, help="largest generated space, 2 to 32 points")
@click.option("--density", default="1/4", show_default=True, help="relation density as a rational in [0, 1]")
@click.option("--map-attempts", default=64, show_default=True, type=int)
@click.option("--dump-dir", default=None, type=click.Path(), help="write failure reproduction files here")
@click.option("--json", "as_json", is_flag=True)
def audit(trials, seed, max_points, density, map_attempts, dump_dir, as_json):
    """Randomized theorem audit against the brute-force oracle."""
    from .oracle import GenParams, theorem_audit

    params = GenParams(
        seed=seed,
        trials=trials,
        max_points=max_points,
        relation_density=_rat_option(density, "density"),
        map_attempts=map_attempts,
    )
    summary = theorem_audit(params)
    if dump_dir is not None and summary.failures:
        out = Path(dump_dir)
        out.mkdir(parents=True, exist_ok=True)
        for failure in summary.failures:
            payload = dict(failure.space)
            payload["map"] = failure.map
            (out / f"failure_{failure.seed}.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")
    if as_json:
        _emit_json({"command": "audit", **summary.to_dict()})
    else:
        d = summary.to_dict()
        for key in (
            "trials_run",
            "hypotheses_satisfied",
            "conclusion_verified",
            "spaces_generated",
            "maps_tried",
            "acceptance_rate",
            "spaces_without_accepted_map",
            "traces_checked",
            "hierarchy_failures",
        ):
            click.echo(f"{key.replace('_', ' ')}: {d[key]}")
        if summary.failures:
            for failure in summary.failures:
                click.echo(f"FAILURE seed={failure.seed}: {failure.discrepancy}")
        click.echo("audit: " + ("all conclusions verified" if summary.ok else "DISCREPANCIES FOUND"))
    sys.exit(0 if summary.ok else 1)


if __name__ == "__main__":
    main()
