"""Command-line front end, on the standard library's argparse.

Exit codes: 0 all checks passed / solve converged; 1 a verification failed,
the iteration did not converge or a write failed (one `error:` line, none
for a closed pipe); 2 input error (bad file, bad flag, bad index).  A
process (`process_main`) ends with `os._exit` once stdout and stderr are
flushed, so no teardown or `atexit` hook runs; `main` raises SystemExit.
Reports are deterministic: identical invocations on identical files
produce byte-identical output, and JSON reports carry "schema": 2.
Rationals are written and read as integers or "p/q" only; a report with a
rational past the interpreter's digit limit (`rational._past_digit_limit`)
is an input error, and nothing of it is written.  An integer option takes
ASCII digits after an optional "-" only.  The choices the options offer
come from `kinds`; every other module is imported by the commands that
run it, so `--help`, `--version` and `corpus --list` compile none of them.
A command compiles every module it imports whole, code it does not run
included, and the contraction scans compile their kernels as they run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .errors import CertificateError, InputError, OrthofixError
from .kinds import _AUDIT_DEFAULTS, _MAX_POINTS, ContractionKind, list_cases
from .rational import _past_digit_limit, parse_rational

SCHEMA = 2


def _emit_json(payload: dict) -> None:
    print(json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=True))


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


def _int_option(text: str) -> int:
    """An integer option: ASCII digits after an optional "-" (`int()` also takes other digits, "_", blanks, "+")."""
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r} (use ASCII digits 0-9, with an optional leading '-')")
    if 0 < sys.get_int_max_str_digits() < len(text.lstrip("-")):
        raise argparse.ArgumentTypeError(f"integer exceeds the interpreter's limit of {sys.get_int_max_str_digits()} digits")
    return int(text)


def _writable(named_values) -> None:
    """Refuse a report before any of it is written if `str()` cannot write one of its (name, rational) pairs."""
    for what, value in named_values:
        if _past_digit_limit(value):
            limit = sys.get_int_max_str_digits()
            raise InputError(f"{what} has more digits than the interpreter's limit of {limit} for integer string conversion")


def verify(file, as_json):
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
    hyp = hypothesis_check(space, mapping)
    ok = hyp.all_hold and all(v.holds for v in verdicts)
    _writable([*((f"{kind.value} k", rep.minimal_k) for kind, rep in contractions.items()), ("certified k", certified.minimal_k)])

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
        print(f"metric: valid ({space.n} points, {len(space.sorted_relation)} relation pairs)")
        print(f"classification: {cls.verdict}")
        for line in _element_lines(space, cls):
            print(line)
        print(f"preserving: {str(pres.preserving).lower()}")
        for (i, j) in pres.violations:
            print(f"  preservation violated at {_labels(space, (i, j))}")
        for kind, rep in contractions.items():
            name = "generalized" if kind is ContractionKind.GENERALIZED_PERP else kind.value
            if not rep.feasible:
                print(f"{name}: infeasible, witness {_labels(space, rep.infeasible_witness)}")
                continue
            status = "admissible" if rep.admissible else "inadmissible"
            witness = f", witness {_labels(space, rep.witness_max)}" if rep.witness_max else ""
            print(f"{name} k = {_fmt_k(rep.minimal_k)} ({status}{witness})")
        print(f"certified generalized k (both orientations) = {_fmt_k(certified.minimal_k)}")
        for v in verdicts:
            mark = "holds" if v.holds else f"FAILS at {v.witness}"
            print(f"hierarchy {v.name}: {mark}")
        for note in hyp.notes:
            print(note)
        print(f"hypotheses: {'all hold' if hyp.all_hold else 'NOT satisfied'}")
    return 0 if ok else 1


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
        labelled = info._replace(prefix=[space.points[i] for i in info.prefix], cycle=[space.points[i] for i in info.cycle])
        payload["orbit"] = {"start": orbit_start, **labelled.to_dict()}
        lines.append(f"orbit from {orbit_start}: prefix [{' '.join(labelled.prefix)}] cycle [{' '.join(labelled.cycle)}]")
    if as_json:
        _emit_json(payload)
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


def estimate_k(file, kind, symmetric, as_json):
    """Estimate the minimal feasible contraction constant for one kind."""
    from .contraction import check_contraction

    space, mapping = _load(file, need_map=True)
    rep = check_contraction(kind, space, mapping, symmetric=symmetric)
    _writable([(f"{kind} k", rep.minimal_k)])
    if as_json:
        _emit_json({"command": "estimate-k", "file": str(file), "symmetric": symmetric, "report": rep.to_dict()})
    else:
        if not rep.feasible:
            print(f"{kind}: infeasible, witness {_labels(space, rep.infeasible_witness)} has zero denominator but moves")
        else:
            status = "admissible" if rep.admissible else "inadmissible"
            witness = f", witness {_labels(space, rep.witness_max)}" if rep.witness_max else ""
            print(f"{kind}: {status}, minimal k = {_fmt_k(rep.minimal_k)}{witness} ({rep.pairs_scanned} pairs scanned)")
    return 0 if rep.admissible else 1


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
    # k^n grows by k's digits at every step, so a --k within the limit can still give unwritable bounds
    _writable([("k", trace.k)] + [(f"--k: the a-priori bound at n={n}", b) for n, b in enumerate(trace.apriori_bounds or ())])
    if as_json:
        _emit_json({"command": "solve", "file": str(file), "trace": trace.to_dict(space)})
    else:
        print(f"k = {_fmt_k(trace.k)} ({'certified' if trace.certified else 'uncertified'} trace)")
        print("trace: " + " -> ".join(space.points[i] for i in trace.iterates))
        for n, d in enumerate(trace.step_distances):
            bound = f", bound {_fmt_k(trace.apriori_bounds[n])}" if trace.apriori_bounds else ""
            print(f"  step {n}: d = {_fmt_k(d)}{bound}")
        if trace.converged:
            print(f"converged: fixed point {space.points[trace.fixed_point]} after {trace.applications} applications")
        else:
            print(f"did not converge ({trace.stop_reason})")
    return 0 if trace.converged else 1


def corpus(case_name, list_only, as_json):
    """Run the registered desk-checkable cases and report every assertion."""
    if list_only:
        if as_json:
            _emit_json({"command": "corpus", "cases": [{"name": n, "summary": s} for n, s in list_cases()]})
        else:
            for name, summary in list_cases():
                print(f"{name}: {summary}")
        return 0
    from . import corpus as corpus_mod

    reports = [corpus_mod.run_case(case_name)] if case_name else corpus_mod.run_all()
    ok = all(r.ok for r in reports)
    if as_json:
        _emit_json({"command": "corpus", "ok": ok, "cases": [r.to_dict() for r in reports]})
    else:
        for rep in reports:
            print(f"== {rep.name}: {rep.title}")
            for a in rep.assertions:
                mark = "pass" if a.passed else "FAIL"
                print(f"  [{mark}] {a.name}: expected {a.expected}, actual {a.actual} [{a.provenance}]")
            for note in rep.annotations:
                print(f"  [analytic-only] {note.name}: {note.note}")
            print(f"  {sum(a.passed for a in rep.assertions)}/{len(rep.assertions)} assertions pass")
    return 0 if ok else 1


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
        from pathlib import Path

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
        for key in ("trials_run", "conclusion_verified", "spaces_generated", "maps_tried", "acceptance_rate",
                    "spaces_without_accepted_map", "traces_checked", "hierarchy_failures"):
            print(f"{key.replace('_', ' ')}: {d[key]}")
        for failure in summary.failures:
            print(f"FAILURE seed={failure.seed}: {failure.discrepancy}")
        print("audit: " + ("all conclusions verified" if summary.ok else "DISCREPANCIES FOUND"))
    return 0 if summary.ok else 1


_COMMANDS = (  # (the function that runs it, its name, whether it reads a space FILE, its options but --json and --help)
    (verify, "verify", True, {}),
    (classify, "classify", True, {
        "--seq": dict(metavar="LABELS", help="comma-separated point labels to check as a weak orthogonal sequence"),
        "--orbit": dict(dest="orbit_start", metavar="LABEL", help="point label whose orbit to print (needs a map)"),
    }),
    (estimate_k, "estimate-k", True, {
        "--kind": dict(choices=[kind.value for kind in ContractionKind], required=True, help="the contraction kind to scan"),
        "--symmetric": dict(action="store_true", help="scan both orientations of every related pair"),
    }),
    (solve, "solve", True, {
        "--start": dict(required=True, metavar="LABEL", help="point label to start from (must be a weak orthogonal element)"),
        "--eps": dict(metavar="RATIONAL", help="stop once the certified tail bound drops to this rational"),
        "--max-iter": dict(type=_int_option, default=1000, metavar="N", help="most map applications (default: %(default)s)"),
        "--k": dict(dest="k_raw", metavar="RATIONAL", help="explicit contraction constant in [0, 1)"),
        "--allow-any-start": dict(action="store_true", help="iterate from a non weak-orthogonal start (uncertified trace)"),
        "--allow-inadmissible-k": dict(action="store_true", help="skip the minimal-k precondition on an explicit --k"),
    }),
    (corpus, "corpus", False, {
        "--case": dict(dest="case_name", choices=[name for name, _ in list_cases()], help="run only this case"),
        "--list": dict(dest="list_only", action="store_true", help="list registered cases"),
    }),
    (audit, "audit", False, {
        "--trials": dict(type=_int_option, default=_AUDIT_DEFAULTS["trials"], metavar="N", help="number of accepted instances to audit (default: %(default)s)"),
        "--seed": dict(type=_int_option, default=_AUDIT_DEFAULTS["seed"], metavar="N", help="seed of the audit's random stream (default: %(default)s)"),
        "--max-points": dict(type=_int_option, default=_AUDIT_DEFAULTS["max_points"], metavar="N",
                             help="largest generated space, %d to %d points (default: %%(default)s)" % _MAX_POINTS),
        "--density": dict(default=str(_AUDIT_DEFAULTS["relation_density"]), metavar="RATIONAL", help="relation density as a rational in [0, 1] (default: %(default)s)"),
        "--map-attempts": dict(type=_int_option, default=_AUDIT_DEFAULTS["map_attempts"], metavar="N", help="candidate maps drawn per generated space (default: %(default)s)"),
        "--dump-dir": dict(metavar="PATH", help="write failure reproduction files here"),
    }),
)


def _parser() -> argparse.ArgumentParser:
    """The command line of `_COMMANDS`; `--help` is the only help option, and no option may be abbreviated."""
    about = "Exact verification and certified fixed point iteration for metric spaces carrying an orthogonality relation."
    parser = argparse.ArgumentParser(prog="orthofix", description=about, add_help=False, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"orthofix, version {__version__}")
    parser.add_argument("--help", action="help", help="show this message and exit")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for run, name, reads_file, options in _COMMANDS:
        doc = " ".join(run.__doc__.split())
        sub = commands.add_parser(name, help=doc, description=doc, add_help=False, allow_abbrev=False)
        sub.set_defaults(run=run)
        if reads_file:
            sub.add_argument("file", metavar="FILE", help="space file (JSON)")
        for flag, keywords in options.items():
            sub.add_argument(flag, **keywords)
        sub.add_argument("--json", dest="as_json", action="store_true", help="emit a JSON report")
        sub.add_argument("--help", action="help", help="show this message and exit")
    return parser


_ERRORS = {InputError: ("input error", 2), CertificateError: ("certificate failure", 1), OrthofixError: ("error", 1)}


def _write_failed(exc: OSError) -> int:
    """Exit code 1 for a failed write: quiet for a closed pipe, else an `error:` line; stdout's rest goes to /dev/null."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if not isinstance(exc, BrokenPipeError):
        print(f"error: {exc}", file=sys.stderr)
    return 1


def main(args: list[str] | None = None, prog_name: str = "orthofix", standalone_mode: bool = True):
    """Run one command line (`sys.argv[1:]` by default) and raise SystemExit with its code; `process_main` ends
    the process.  The other two parameters are ignored; they are there for the `main.main` alias below."""
    options = vars(_parser().parse_args(args))
    run = options.pop("run")
    try:
        code = run(**options)
        sys.stdout.flush()  # a closed or full stdout shows here, inside the handlers, not at exit
    except OrthofixError as exc:
        prefix, code = next(entry for cls, entry in _ERRORS.items() if isinstance(exc, cls))  # the most specific first
        print(f"{prefix}: {exc}", file=sys.stderr)
    except OSError as exc:
        code = _write_failed(exc)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        code = 1
    sys.exit(code)


def process_main() -> None:
    """The process entry point (`python -m orthofix.cli`, the `orthofix` script): run `main`, flush both streams and
    end with `os._exit`, skipping the teardown.  Another exception or a non-int exit code ends the process as usual."""
    try:
        main()
    except SystemExit as exc:
        if not isinstance(exc.code, (int, type(None))):
            raise
        code = exc.code or 0
        try:  # stdout may still hold argparse's --help or --version; a stream is None if its descriptor was closed
            sys.stdout and sys.stdout.flush()
        except OSError as error:
            code = _write_failed(error)
        sys.stderr and sys.stderr.flush()
        os._exit(code)


# The benchmark harness still calls click's spelling, `cli.main.main(args=..., prog_name="orthofix",
# standalone_mode=False)`, and reads the exit code from SystemExit.  Delete this alias once it calls `cli.main(args)`.
main.main = main


if __name__ == "__main__":
    process_main()
