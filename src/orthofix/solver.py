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

On finite spaces the iteration always terminates: the orbit enters a cycle
within n steps, and under a valid certificate the cycle must be a single
fixed point (a longer cycle would keep step distances bounded away from
zero while the geometric bound forces them to zero).

Preservation and the certificate-grade constant are read through
`contraction.preservation` and `contraction.report`, which keep them on the
map: an instance filter, the hypothesis check and every Picard trace of
one map on one space share a single symmetric scan.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .contraction import preservation, report
from .errors import CertificateError, InputError
from .kinds import MODE_O1, MODE_ORBITAL_CONTINUITY, ContractionKind  # the mode names are re-exported
from .rational import _is_index, as_rational
from .relational import orbit
from .space import FiniteSpace, SelfMap, _check_map, _check_point


def certify_fixed_point(space: FiniteSpace, mapping: SelfMap, z: int) -> bool:
    """True iff z maps to itself (equivalently d(z, Tz) = 0)."""
    _check_map(space, mapping)
    _check_point(space, z)
    return mapping(z) == z


class PicardTrace(NamedTuple):
    start: int
    iterates: tuple[int, ...]
    step_distances: tuple
    k: Fraction
    apriori_bounds: tuple | None   # k^n/(1-k) * d(x0, x1); only on certified traces
    converged: bool
    fixed_point: int | None
    certified: bool
    stop_reason: str               # "fixed_point" | "bound_below_eps" | "max_iter"

    @property
    def applications(self) -> int:
        return len(self.iterates) - 1

    def to_dict(self, space: FiniteSpace | None = None) -> dict:
        label = (lambda i: space.points[i]) if space is not None else (lambda i: i)
        return {
            "start": label(self.start),
            "iterates": [label(i) for i in self.iterates],
            "step_distances": [str(d) for d in self.step_distances],
            "k": str(self.k),
            "apriori_bounds": [str(b) for b in self.apriori_bounds] if self.apriori_bounds is not None else None,
            "converged": self.converged,
            "fixed_point": label(self.fixed_point) if self.fixed_point is not None else None,
            "certified": self.certified,
            "stop_reason": self.stop_reason,
            "applications": self.applications,
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
    point), certified tail bound <= eps, or max_iter.  `k` and `eps` are
    ints or Fractions (a float would be a binary approximation); `max_iter`
    is a true int.  Preservation and the scans are those kept on the map
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
            raise InputError(f"k must lie in [0, 1), got {k}")
    cert = report(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True)
    if k is None:
        if not cert.admissible:
            raise InputError(
                "no admissible generalized contraction constant exists for this map; "
                f"supply k explicitly (scan reported minimal_k={cert.minimal_k})"
            )
        k = cert.minimal_k
    certificate_grade = cert.feasible and k >= cert.minimal_k
    if not (certificate_grade or allow_inadmissible_k):
        rep = report(ContractionKind.GENERALIZED_PERP, space, mapping)
        if not rep.feasible or k < rep.minimal_k:
            raise InputError(
                f"k={k} is below the scanned minimal generalized constant "
                f"{rep.minimal_k}; pass allow_inadmissible_k to try anyway"
            )
    if eps is not None:
        eps = as_rational(eps, "eps")
        if eps <= 0:
            raise InputError("eps must be positive")

    hypotheses = start in weak and preservation(space, mapping).preserving
    certified = hypotheses and certificate_grade
    enforced = hypotheses and (certificate_grade or allow_inadmissible_k)

    iterates = [start]
    steps: list = []
    converged = False
    fixed_point: int | None = None
    stop_reason = "max_iter"
    d0 = None
    one_minus_k = 1 - k

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
                f"d({space.points[x]}, {space.points[nxt]}) = {step} > k * {steps[-1]}; "
                f"k = {k} is not a valid contraction constant for this orbit"
            )
        iterates.append(nxt)
        steps.append(step)
        if d0 is None:
            d0 = step
        if eps is not None and certified:
            n = len(steps)
            if k**n / one_minus_k * d0 <= eps:
                stop_reason = "bound_below_eps"
                break

    bounds = None
    if enforced:
        base = d0 if d0 is not None else Fraction(0)
        bounds = tuple(k**n / one_minus_k * base for n in range(len(iterates)))
        # Tail bound audited over every recorded pair: d(x_n, x_m) <= bound(n).
        for n in range(len(iterates)):
            for m in range(n + 1, len(iterates)):
                if not (space.d(iterates[n], iterates[m]) <= bounds[n]):
                    raise CertificateError(
                        f"tail bound violated: d(x_{n}, x_{m}) = "
                        f"{space.d(iterates[n], iterates[m])} > {bounds[n]} with k = {k}"
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
    mode: str
    has_weak_element: bool
    preserving: bool
    contraction_feasible: bool     # an admissible constant k in [0, 1) exists
    minimal_k: Fraction | None     # certificate-grade constant (both orientations)
    o1_mode_holds: bool
    all_hold: bool
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "has_weak_element": self.has_weak_element,
            "preserving": self.preserving,
            "contraction_feasible": self.contraction_feasible,
            "minimal_k": None if self.minimal_k is None else str(self.minimal_k),
            "o1_mode_holds": self.o1_mode_holds,
            "all_hold": self.all_hold,
            "notes": list(self.notes),
        }


def hypothesis_check(
    space: FiniteSpace,
    mapping: SelfMap,
    mode: str = MODE_ORBITAL_CONTINUITY,
) -> HypothesisReport:
    """Evaluate the fixed point theorem's hypotheses on a finite instance.

    Checked: a weak orthogonal element exists; the map preserves orthogonal
    relatedness; an admissible generalized contraction constant k in [0, 1)
    exists (scanned over both orientations of every related pair, which is
    what the convergence certificates require).

    Orbital completeness and, in mode "orbital-continuity", orbital
    continuity hold automatically on finite spaces (every Cauchy sequence is
    eventually constant) and are recorded as such.  Mode "O1" instead checks
    the finite reading of the subsequence condition: whenever the orbit of a
    weak element settles at a fixed point z, the constant tail must be
    orthogonally related to its limit, i.e. z related to z; orbits that do
    not settle impose nothing.  Preservation and the scan are those kept on
    the map (see `contraction.report`).
    """
    if mode not in (MODE_ORBITAL_CONTINUITY, MODE_O1):
        raise InputError(f"unknown mode {mode!r}")
    weak = space.weak_elements
    preserving = preservation(space, mapping).preserving
    rep = report(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True)
    contraction_ok = rep.admissible
    notes = ["orbital O_w-completeness: holds (finite space)"]
    if mode == MODE_ORBITAL_CONTINUITY:
        o1 = True
        notes.append("orbital O_w-continuity: holds (finite space)")
    else:
        o1 = True
        for w in sorted(weak):
            info = orbit(space, mapping, w)
            if info.enters_fixed_point:
                z = info.cycle[0]
                if not space.related(z, z):
                    o1 = False
                    notes.append(
                        f"(O1) fails from weak element {space.points[w]}: limit "
                        f"{space.points[z]} is not orthogonally related to itself"
                    )
        if o1:
            notes.append("(O1): orbit tails from weak elements are related to their limits")
    all_hold = bool(weak) and preserving and contraction_ok and o1
    return HypothesisReport(
        mode=mode,
        has_weak_element=bool(weak),
        preserving=preserving,
        contraction_feasible=contraction_ok,
        minimal_k=rep.minimal_k if rep.feasible else None,
        o1_mode_holds=o1,
        all_hold=all_hold,
        notes=tuple(notes),
    )
