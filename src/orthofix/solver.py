"""Certified Picard iteration.

The fixed point scheme iterates x_{n+1} = T(x_n).  When the start is a weak
orthogonal element and the map preserves orthogonal relatedness, consecutive
iterates are always orthogonally related, and a contraction constant k that
covers *both orientations* of every related pair guarantees

    d(x_{n+1}, x_{n+2}) <= k * d(x_n, x_{n+1})          (step inequality)
    d(x_n, x_m)        <= k^n / (1 - k) * d(x_0, x_1)   (tail bound, n < m)

Such traces are *certified*: both inequalities are enforced at runtime in
exact arithmetic, and a violation aborts with CertificateError because it
falsifies the supplied k.  The bounds k^n / (1 - k) * d(x_0, T x_0) are one
list, grown by a factor k per step, which the eps stop, the tail audit and
`apriori_bounds` all read: bound(0) is there whatever stops the trace.  A
trace started elsewhere (allow_any_start), or run with a k below the
both-orientation constant, still records iterates and step distances but
carries no bounds; the inequalities simply are not theorems there.

On finite spaces the orbit enters a cycle within n steps.  A trace that is
not enforced ends with its first repeated iterate (stop_reason "cycle").  An
enforced trace needs no such stop: on a cycle of L >= 2 points the step
distances repeat with period L, so the step inequality (k < 1) fails within
one lap plus one step, and under a valid certificate the cycle is a single
fixed point.

Preservation and the certificate-grade constant are read through
`contraction.preservation` and `contraction.report`, which keep them on the
map: an instance filter, the hypothesis check and every Picard trace of
one map on one space share a single symmetric scan.  The hypothesis check
(`hypothesis_check`, `HypothesisReport`) lives in `contraction`, beside the
facts it reads, so `verify` compiles no Picard iteration; both are
re-exported here.  Messages write rationals with `rational._shown`, safe
past the interpreter's digit limit.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .contraction import HypothesisReport, hypothesis_check, preservation, report  # the first two re-exported
from .errors import CertificateError, InputError
from .kinds import ContractionKind
from .rational import _is_index, _shown, as_rational
from .records import to_dict
from .space import FiniteSpace, SelfMap, _check_point


class PicardTrace(
    namedtuple("PicardTrace", "iterates step_distances k apriori_bounds converged fixed_point certified stop_reason")
):
    # apriori_bounds: k^n/(1-k) * d(x0, T x0), one per iterate, only on certified traces;
    # stop_reason: "fixed_point" | "bound_below_eps" | "max_iter" | "cycle" (unenforced only)
    __slots__ = ()
    _json_extra = ("applications",)
    to_dict = to_dict

    @property
    def applications(self) -> int:
        return len(self.iterates) - 1


def picard_solve(
    space: FiniteSpace,
    mapping: SelfMap,
    start: int,
    *,
    k: Fraction | None = None,
    eps: Fraction | None = None,
    max_iter: int = 1000,
    allow_any_start: bool = False,
    allow_inadmissible_k: bool = False,
) -> PicardTrace:
    """Run Picard iteration from `start` with runtime certificates.

    Preconditions (each overridable by the matching flag):
      * `start` must be a weak orthogonal element (`allow_any_start`);
      * an explicit `k` must be at least the scanned minimal generalized
        constant (`allow_inadmissible_k`).  `k` must always lie in [0, 1).

    The certificate-grade constant is computed by scanning both orientations
    of every related pair.  Without an explicit `k` that constant is used;
    if it is not below 1 there is nothing to certify and the call refuses to
    run.  An explicit `k` below it yields an uncertified trace, and is
    checked against the oriented scan instead.  A `k` forced past that check
    with `allow_inadmissible_k` is still enforced along the orbit (a
    violation raises CertificateError), but the trace is not certified.

    Stops on the first of: exact zero step distance (converged at a fixed
    point), certified tail bound <= eps, max_iter, or, on a trace that is
    not enforced, an iterate seen before in the trace ("cycle").  `k` and
    `eps` are ints or Fractions (a float would be a binary approximation);
    `max_iter` is a true int.  Preservation and the scans are those kept on the map
    (see `contraction.report`).
    """
    _check_point(space, start, "start index")
    if not _is_index(max_iter) or max_iter < 0:
        raise InputError(f"max_iter must be an int >= 0, got {max_iter!r}")
    weak = space.weak_elements
    if start not in weak and not allow_any_start:
        raise InputError(
            f"start {space.points[start]!r} is not a weak orthogonal element; "
            "pass allow_any_start to iterate anyway (the trace will be uncertified)"
        )
    if k is not None:
        k = as_rational(k, "k")
        if not (0 <= k < 1):
            raise InputError(f"k must lie in [0, 1), got {_shown(k)}")
    cert = report(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True)
    if k is None:
        if not cert.admissible:
            raise InputError(
                "no admissible generalized contraction constant exists for this map; "
                f"supply k explicitly (scan reported minimal_k={_shown(cert.minimal_k)})"
            )
        k = cert.minimal_k
    certificate_grade = cert.minimal_k is not None and k >= cert.minimal_k
    if not (certificate_grade or allow_inadmissible_k):
        rep = report(ContractionKind.GENERALIZED_PERP, space, mapping)
        if rep.minimal_k is None or k < rep.minimal_k:
            raise InputError(
                f"k={_shown(k)} is below the scanned minimal generalized constant "
                f"{_shown(rep.minimal_k)}; pass allow_inadmissible_k to try anyway"
            )
    if eps is not None:
        eps = as_rational(eps, "eps")
        if eps <= 0:
            raise InputError("eps must be positive")

    hypotheses = start in weak and preservation(space, mapping).preserving
    certified = hypotheses and certificate_grade
    enforced = hypotheses and (certificate_grade or allow_inadmissible_k)

    iterates = [start]
    seen = {start}
    steps: list = []
    # bound(n) = k**n / (1 - k) * d(x_0, T x_0): one per iterate, each k times the one before; enforced traces only
    bounds = [space.d(start, mapping(start)) / (1 - k)] if enforced else None
    stop_reason = "max_iter"

    while True:
        x = iterates[-1]
        nxt = mapping(x)
        if nxt == x:
            stop_reason = "fixed_point"
            break
        if len(iterates) > max_iter:
            break
        step = space.d(x, nxt)
        if enforced and steps and not (step <= k * steps[-1]):
            raise CertificateError(
                f"step inequality violated at n={len(steps) - 1}: "
                f"d({space.points[x]}, {space.points[nxt]}) = {_shown(step)} > k * {_shown(steps[-1])}; "
                f"k = {_shown(k)} is not a valid contraction constant for this orbit"
            )
        iterates.append(nxt)
        steps.append(step)
        if enforced:
            bounds.append(bounds[-1] * k)
            if eps is not None and certified and bounds[-1] <= eps:
                stop_reason = "bound_below_eps"
                break
        elif nxt in seen:
            stop_reason = "cycle"
            break
        seen.add(nxt)

    if enforced:
        # Tail bound audited over every recorded pair: d(x_n, x_m) <= bound(n).
        for n in range(len(iterates)):
            for m in range(n + 1, len(iterates)):
                if not (space.d(iterates[n], iterates[m]) <= bounds[n]):
                    raise CertificateError(
                        f"tail bound violated: d(x_{n}, x_{m}) = "
                        f"{_shown(space.d(iterates[n], iterates[m]))} > {_shown(bounds[n])} with k = {_shown(k)}"
                    )

    converged = stop_reason == "fixed_point"
    return PicardTrace(
        iterates=tuple(iterates),
        step_distances=tuple(steps),
        k=k,
        apriori_bounds=tuple(bounds) if certified else None,
        converged=converged,
        fixed_point=iterates[-1] if converged else None,
        certified=certified,
        stop_reason=stop_reason,
    )
