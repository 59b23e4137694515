"""`orthofix solve`: a certified Picard trace."""

from ..solver import picard_solve
from . import _emit_json, _fmt_k, _load, _rat_option, _writable


def run(file, start, eps, max_iter, k_raw, allow_any_start, allow_inadmissible_k, as_json):
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
    # both forms write points by label and every step distance, an int too, as text; a fixed point ends the trace
    labels, steps = [space.points[i] for i in trace.iterates], [str(d) for d in trace.step_distances]
    labelled = trace._replace(iterates=labels, step_distances=steps, fixed_point=labels[-1] if trace.converged else None)
    if as_json:
        _emit_json({"command": "solve", "file": str(file), "trace": labelled.to_dict()})
    else:
        print(f"k = {_fmt_k(trace.k)} ({'certified' if trace.certified else 'uncertified'} trace)")
        print("trace: " + " -> ".join(labelled.iterates))
        for n, d in enumerate(labelled.step_distances):
            bound = f", bound {_fmt_k(trace.apriori_bounds[n])}" if trace.apriori_bounds else ""
            print(f"  step {n}: d = {d}{bound}")
        if trace.converged:
            print(f"converged: fixed point {labelled.fixed_point} after {trace.applications} applications")
        else:
            print(f"did not converge ({trace.stop_reason})")
    return 0 if trace.converged else 1
