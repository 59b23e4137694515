"""Certified Picard iteration and hypothesis checking.

The fixed point scheme iterates x_{n+1} = T(x_n).  When the start is a weak
orthogonal element and the map preserves orthogonal relatedness, consecutive
iterates are always orthogonally related, and a contraction constant k that
covers *both orientations* of every related pair guarantees

    d(x_{n+1}, x_{n+2}) <= k * d(x_n, x_{n+1})          (step inequality)
    d(x_n, x_m)        <= k^n / (1 - k) * d(x_0, x_1)   (tail bound, n < m)

Such traces are *certified*: both inequalities are enforced at runtime in
exact arithmetic, and a violation aborts with CertificateError because it
falsifies the supplied k.  A trace started elsewhere (allow_any_start), or
run with a k below the both-orientation constant, still records iterates
and step distances but carries no bounds; the inequalities simply are not
theorems there.

On finite spaces the orbit enters a cycle within n steps.  A trace that is
not enforced ends with its first repeated iterate (stop_reason "cycle").  An
enforced trace needs no such stop: on a cycle of L >= 2 points the step
distances repeat with period L, so the step inequality (k < 1) fails within
one lap plus one step, and under a valid certificate the cycle is a single
fixed point.

Preservation and the certificate-grade constant are read through
`contraction.preservation` and `contraction.report`, which keep them on the
map: an instance filter, the hypothesis check and every Picard trace of
one map on one space share a single symmetric scan.  Messages write
rationals with `rational._shown`, safe past the interpreter's digit limit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple

from .contraction import preservation, report
from .errors import CertificateError, InputError
from .kinds import ContractionKind
from .rational import _is_index, _shown, as_rational
from .records import to_dict
from .space import FiniteSpace, SelfMap, _check_point


class PicardTrace(NamedTuple):
    start: int
    iterates: tuple[int, ...]
    step_distances: tuple
    k: Fraction
    apriori_bounds: tuple | None   # k^n/(1-k) * d(x0, x1); only on certified traces
    converged: bool
    fixed_point: int | None
    certified: bool
    stop_reason: str               # "fixed_point" | "bound_below_eps" | "max_iter" | "cycle" (unenforced only)

    _json_extra = ("applications",)

    @property
    def applications(self) -> int:
        return len(self.iterates) - 1

    def to_dict(self, space: FiniteSpace | None = None) -> dict:
        """`records.to_dict`, with the points labelled in `space` and every step distance, an int too, as a string."""
        label = (lambda i: space.points[i]) if space is not None else (lambda i: i)
        return {
            **to_dict(self),
            "start": label(self.start),
            "iterates": [label(i) for i in self.iterates],
            "step_distances": [str(d) for d in self.step_distances],
            "fixed_point": label(self.fixed_point) if self.fixed_point is not None else None,
        }


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
    certificate_grade = cert.feasible and k >= cert.minimal_k
    if not (certificate_grade or allow_inadmissible_k):
        rep = report(ContractionKind.GENERALIZED_PERP, space, mapping)
        if not rep.feasible or k < rep.minimal_k:
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
    converged = False
    fixed_point: int | None = None
    stop_reason = "max_iter"
    d0 = None
    one_minus_k = 1 - k
    tail = None  # the tail bound k**len(steps) / (1 - k) * d0 of the eps stop, kept as a running product

    while True:
        x = iterates[-1]
        nxt = mapping(x)
        if nxt == x:
            converged = True
            fixed_point = x
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
        if not enforced and nxt in seen:
            stop_reason = "cycle"
            break
        seen.add(nxt)
        if d0 is None:
            d0 = step
            tail = d0 / one_minus_k
        if eps is not None and certified:
            tail *= k
            if tail <= eps:
                stop_reason = "bound_below_eps"
                break

    bounds = None
    if enforced:
        base = d0 if d0 is not None else Fraction(0)
        # bound(n) = k**n / (1 - k) * d0, each one k times the one before
        bounds = tuple(accumulate(repeat(k, len(iterates) - 1), mul, initial=base / one_minus_k))
        # Tail bound audited over every recorded pair: d(x_n, x_m) <= bound(n).
        for n in range(len(iterates)):
            for m in range(n + 1, len(iterates)):
                if not (space.d(iterates[n], iterates[m]) <= bounds[n]):
                    raise CertificateError(
                        f"tail bound violated: d(x_{n}, x_{m}) = "
                        f"{_shown(space.d(iterates[n], iterates[m]))} > {_shown(bounds[n])} with k = {_shown(k)}"
                    )

    return PicardTrace(
        start=start,
        iterates=tuple(iterates),
        step_distances=tuple(steps),
        k=k,
        apriori_bounds=bounds if certified else None,
        converged=converged,
        fixed_point=fixed_point,
        certified=certified,
        stop_reason=stop_reason,
    )


class HypothesisReport(NamedTuple):
    has_weak_element: bool
    preserving: bool
    contraction_feasible: bool     # an admissible constant k in [0, 1) exists
    minimal_k: Fraction | None     # certificate-grade constant (both orientations)
    all_hold: bool
    notes: tuple[str, ...] = ()

    to_dict = to_dict


def hypothesis_check(space: FiniteSpace, mapping: SelfMap) -> HypothesisReport:
    """Evaluate the fixed point theorem's hypotheses on a finite instance.

    Checked: a weak orthogonal element exists; the map preserves orthogonal
    relatedness; an admissible generalized contraction constant k in [0, 1)
    exists (scanned over both orientations of every related pair, which is
    what the convergence certificates require).

    Orbital completeness and orbital continuity hold automatically on finite
    spaces (every Cauchy sequence is eventually constant) and are recorded as
    such in `notes`.  (O1), the subsequence condition's finite reading,
    holds on every preserving map (README proves it), so it needs no check
    of its own.  Preservation and the scan are those kept on the map (see
    `contraction.report`).
    """
    has_weak = bool(space.weak_elements)
    preserving = preservation(space, mapping).preserving
    rep = report(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True)
    return HypothesisReport(
        has_weak_element=has_weak,
        preserving=preserving,
        contraction_feasible=rep.admissible,
        minimal_k=rep.minimal_k if rep.feasible else None,
        all_hold=has_weak and preserving and rep.admissible,
        notes=("orbital O_w-completeness: holds (finite space)", "orbital O_w-continuity: holds (finite space)"),
    )
