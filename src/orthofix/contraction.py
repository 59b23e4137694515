"""Contraction conditions over orthogonally related pairs.

For a self map T the comparison functional per kind is

  banach_perp             d(x, y)
  kannan                  d(x, Tx) + d(y, Ty)
  chatterjea              d(x, Ty) + d(y, Tx)
  ciric                   max{d(x,y), d(x,Tx), d(y,Ty), [d(x,Ty)+d(Tx,y)]/2}
  generalized_perp        max of the ciric terms and
                          [d(T2x,x)+d(T2x,Ty)]/2, d(T2x,Tx), d(T2x,y), d(T2x,Ty)
  unrestricted_lipschitz  d(x, y), quantified over ALL ordered pairs

Every kind except unrestricted_lipschitz quantifies only over orthogonally
related pairs.  The scan computes the exact supremum of
d(Tx,Ty) / functional over pairs with a positive denominator (the minimal
feasible constant), plus the pair attaining it; a pair with zero
denominator but d(Tx,Ty) > 0 makes the kind infeasible.

By default each stored relation pair is scanned once, oriented exactly as
stored (x the first component) -- this is how the worked examples evaluate
the condition.  `symmetric=True` scans both orientations of every related
pair, which is the stronger reading the convergence certificates in the
solver rely on; it can only raise the constant.

Two engines produce identical reports:

* a scan over a common-denominator integer rescaling of the metric, used
  for every rational metric (arbitrary-precision ints, so no size limit);
* a generic scan over exact scalars, used for QuadExt metrics and for
  value-domain samples, and the reference the scaled scan is checked
  against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .errors import InputError
from .space import FiniteSpace, Scalar, SelfMap


class ContractionKind(str, Enum):
    BANACH_PERP = "banach_perp"
    CIRIC = "ciric"
    KANNAN = "kannan"
    CHATTERJEA = "chatterjea"
    GENERALIZED_PERP = "generalized_perp"
    UNRESTRICTED_LIPSCHITZ = "unrestricted_lipschitz"

    @property
    def k_bound(self) -> Fraction:
        """Upper end of the admissible constant range for this kind."""
        if self in (ContractionKind.KANNAN, ContractionKind.CHATTERJEA):
            return Fraction(1, 2)
        return Fraction(1)

    @classmethod
    def from_name(cls, name: str) -> "ContractionKind":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise InputError(f"unknown contraction kind {name!r} (expected one of: {valid})") from None


# functional ids: 0 = d(x,y) denominator, 1 = ciric, 2 = kannan, 3 = chatterjea, 4 = generalized
_KIND_ID = {
    ContractionKind.BANACH_PERP: 0,
    ContractionKind.UNRESTRICTED_LIPSCHITZ: 0,
    ContractionKind.CIRIC: 1,
    ContractionKind.KANNAN: 2,
    ContractionKind.CHATTERJEA: 3,
    ContractionKind.GENERALIZED_PERP: 4,
}


@dataclass(frozen=True)
class ContractionReport:
    kind: ContractionKind
    feasible: bool
    minimal_k: Scalar | None
    witness_max: tuple | None
    infeasible_witness: tuple | None
    admissible: bool
    pairs_scanned: int

    def to_dict(self) -> dict:
        from .rational import format_rational

        if self.minimal_k is None:
            k = None
        elif isinstance(self.minimal_k, Fraction):
            k = format_rational(self.minimal_k)
        else:
            k = str(self.minimal_k)
        return {
            "kind": self.kind.value,
            "feasible": self.feasible,
            "minimal_k": k,
            "witness_max": list(self.witness_max) if self.witness_max else None,
            "infeasible_witness": list(self.infeasible_witness) if self.infeasible_witness else None,
            "admissible": self.admissible,
            "pairs_scanned": self.pairs_scanned,
        }


# ---------------------------------------------------------------------------
# comparison functionals (generic exact scalars)
# ---------------------------------------------------------------------------

def _functional(kind_id: int, d: Callable, t: Callable, x, y):
    tx, ty = t(x), t(y)
    if kind_id == 0:
        return d(x, y)
    if kind_id == 2:
        return d(x, tx) + d(y, ty)
    if kind_id == 3:
        return d(x, ty) + d(y, tx)
    m = d(x, y)
    for term in (d(x, tx), d(y, ty), (d(x, ty) + d(tx, y)) / 2):
        if term > m:
            m = term
    if kind_id == 4:
        ttx = t(tx)
        for term in (
            (d(ttx, x) + d(ttx, ty)) / 2,
            d(ttx, tx),
            d(ttx, y),
            d(ttx, ty),
        ):
            if term > m:
                m = term
    return m


def m_value(kind: ContractionKind, space: FiniteSpace, mapping: SelfMap, x: int, y: int) -> Scalar:
    """Evaluate the kind's comparison functional at the ordered pair (x, y)."""
    if kind is ContractionKind.UNRESTRICTED_LIPSCHITZ:
        raise InputError("unrestricted_lipschitz has no separate functional; its denominator is d(x, y)")
    if not (0 <= x < space.n and 0 <= y < space.n):
        raise InputError(f"index pair ({x}, {y}) out of range for {space.n} points")
    return _functional(_KIND_ID[kind], space.d, mapping, x, y)


# ---------------------------------------------------------------------------
# scan engines
# ---------------------------------------------------------------------------

def _scan_generic(kind_id: int, pairs: Sequence[tuple], d: Callable, t: Callable):
    """Reference scan over exact scalars.  Returns (num, den, best_pos, inf_pos)."""
    best_num = best_den = None
    best_pos = inf_pos = -1
    for pos, (x, y) in enumerate(pairs):
        num = d(t(x), t(y))
        den = _functional(kind_id, d, t, x, y)
        if den == 0:
            if num > 0 and inf_pos < 0:
                inf_pos = pos
            continue
        if best_pos < 0 or num * best_den > best_num * den:
            best_num, best_den, best_pos = num, den, pos
    return best_num, best_den, best_pos, inf_pos


def _scan_scaled(dist: list[int], n: int, images: Sequence[int], pairs, kind_id: int):
    """Rescaled-integer scan, semantics identical to the generic scan."""
    best_num = best_den = 0
    best_pos = inf_pos = -1
    for pos, (x, y) in enumerate(pairs):
        tx = images[x]
        ty = images[y]
        num = dist[tx * n + ty]
        if kind_id == 0:
            den = dist[x * n + y]
        elif kind_id == 2:
            den = dist[x * n + tx] + dist[y * n + ty]
        elif kind_id == 3:
            den = dist[x * n + ty] + dist[y * n + tx]
        else:
            den = dist[x * n + y]
            term = dist[x * n + tx]
            if term > den:
                den = term
            term = dist[y * n + ty]
            if term > den:
                den = term
            term = (dist[x * n + ty] + dist[tx * n + y]) // 2
            if term > den:
                den = term
            if kind_id == 4:
                ttx = images[tx]
                term = (dist[ttx * n + x] + dist[ttx * n + ty]) // 2
                if term > den:
                    den = term
                term = dist[ttx * n + tx]
                if term > den:
                    den = term
                term = dist[ttx * n + y]
                if term > den:
                    den = term
                term = dist[ttx * n + ty]
                if term > den:
                    den = term
        if den == 0:
            if num > 0 and inf_pos < 0:
                inf_pos = pos
            continue
        if best_pos < 0 or num * best_den > best_num * den:
            best_num, best_den, best_pos = num, den, pos
    return best_num, best_den, best_pos, inf_pos


def _rescaled_metric(space: FiniteSpace) -> list[int] | None:
    """Flatten the metric to integers scaled by twice the common denominator.

    Doubling makes every half-sum term in the functionals an exact integer.
    Returns None when the metric is not purely rational.  Memoized on the
    space (immutable), since the scans run many times per instance.
    """
    cached = space._rescale_cache
    if cached is not None:
        return cached or None
    entries = []
    denoms = set()
    for row in space.metric:
        for e in row:
            if not isinstance(e, Fraction):
                space._rescale_cache = False
                return None
            entries.append(e)
            denoms.add(e.denominator)
    scale = 2 * lcm(*denoms)
    out = [e.numerator * (scale // e.denominator) for e in entries]
    space._rescale_cache = out
    return out


def _pair_list(space: FiniteSpace, kind: ContractionKind, symmetric: bool) -> list[tuple[int, int]]:
    if kind is ContractionKind.UNRESTRICTED_LIPSCHITZ:
        return [(i, j) for i in range(space.n) for j in range(space.n)]
    if symmetric:
        closure = set(space.relation) | {(j, i) for (i, j) in space.relation}
        return sorted(closure)
    return sorted(space.relation)


def _report(kind: ContractionKind, pairs: Sequence[tuple], sup, best_pos: int, inf_pos: int) -> ContractionReport:
    """Build the report from a scan result; `sup` is None when no pair has a positive denominator."""
    feasible = inf_pos < 0
    minimal_k = (Fraction(0) if sup is None else sup) if feasible else None
    return ContractionReport(
        kind=kind,
        feasible=feasible,
        minimal_k=minimal_k,
        witness_max=tuple(pairs[best_pos]) if best_pos >= 0 else None,
        infeasible_witness=tuple(pairs[inf_pos]) if inf_pos >= 0 else None,
        admissible=feasible and minimal_k < kind.k_bound,
        pairs_scanned=len(pairs),
    )


def check_contraction(
    kind: ContractionKind,
    space: FiniteSpace,
    mapping: SelfMap,
    *,
    symmetric: bool = False,
    engine: str | None = None,
) -> ContractionReport:
    """Scan the pair set of `kind` and report feasibility and the minimal constant.

    `engine` forces "scaled" or "generic" (used to cross-check the engines);
    by default the scaled engine runs whenever the metric is rational.
    """
    kind = ContractionKind(kind)
    if engine not in (None, "scaled", "generic"):
        raise InputError(f"unknown engine {engine!r} (expected 'scaled' or 'generic')")
    if len(mapping) != space.n:
        raise InputError("map size does not match the space")
    pairs = _pair_list(space, kind, symmetric)
    kind_id = _KIND_ID[kind]

    dist = _rescaled_metric(space) if engine != "generic" else None
    if engine == "scaled" and dist is None:
        raise InputError("scaled engine requires a rational metric")

    if dist is not None:
        num, den, best_pos, inf_pos = _scan_scaled(dist, space.n, mapping.images, pairs, kind_id)
        sup = Fraction(num, den) if best_pos >= 0 else None
    else:
        num, den, best_pos, inf_pos = _scan_generic(kind_id, pairs, space.d, mapping)
        sup = num / den if best_pos >= 0 else None
    return _report(kind, pairs, sup, best_pos, inf_pos)


def scan_value_pairs(
    kind: ContractionKind,
    pairs: Sequence[tuple],
    dist: Callable,
    apply_map: Callable,
) -> ContractionReport:
    """Value-domain scan for analytic sample spaces.

    `pairs` are ordered pairs of point values, `dist` an exact metric on
    values and `apply_map` the map evaluator; images need not belong to the
    scanned sample.  Same report semantics as check_contraction.
    """
    kind = ContractionKind(kind)
    num, den, best_pos, inf_pos = _scan_generic(_KIND_ID[kind], pairs, dist, apply_map)
    return _report(kind, pairs, num / den if best_pos >= 0 else None, best_pos, inf_pos)


# ---------------------------------------------------------------------------
# hierarchy checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HierarchyVerdict:
    name: str
    holds: bool
    witness: tuple | None
    detail: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "witness": list(self.witness) if self.witness else None,
            "detail": self.detail,
        }


def hierarchy_check(space: FiniteSpace, mapping: SelfMap) -> tuple[HierarchyVerdict, ...]:
    """Audit the implications between contraction kinds on this instance.

    Pairwise, the ciric terms are a subset of the generalized terms, so the
    chain banach -> ciric -> generalized can only lower the minimal constant;
    kannan and chatterjea constants below 1/2 bound the ciric constant by
    doubling.  Any failure here falsifies the scan implementation, so each
    verdict carries a witness.
    """
    pairs = _pair_list(space, ContractionKind.CIRIC, symmetric=False)
    verdicts: list[HierarchyVerdict] = []

    witness = None
    for (x, y) in pairs:
        mc = _functional(1, space.d, mapping, x, y)
        mg = _functional(4, space.d, mapping, x, y)
        if mc > mg:
            witness = (x, y)
            break
    verdicts.append(
        HierarchyVerdict(
            "ciric-term-subset",
            witness is None,
            witness,
            "M_ciric(x, y) <= M_generalized(x, y) on every scanned pair",
        )
    )

    reports = {
        kind: check_contraction(kind, space, mapping)
        for kind in (
            ContractionKind.BANACH_PERP,
            ContractionKind.CIRIC,
            ContractionKind.KANNAN,
            ContractionKind.CHATTERJEA,
            ContractionKind.GENERALIZED_PERP,
        )
    }

    def implication(name: str, premise: ContractionReport, conclusion: ContractionReport, factor: int) -> HierarchyVerdict:
        if not premise.admissible:
            return HierarchyVerdict(name, True, None, "premise not admissible; implication vacuous")
        ok = (
            conclusion.feasible
            and conclusion.minimal_k is not None
            and conclusion.minimal_k <= factor * premise.minimal_k
        )
        return HierarchyVerdict(
            name,
            ok,
            None if ok else (premise.witness_max or conclusion.witness_max),
            f"admissible at k implies the conclusion admissible at {factor}k" if factor != 1 else "admissible at k implies the conclusion admissible at k",
        )

    verdicts.append(implication("banach-implies-ciric", reports[ContractionKind.BANACH_PERP], reports[ContractionKind.CIRIC], 1))
    verdicts.append(implication("ciric-implies-generalized", reports[ContractionKind.CIRIC], reports[ContractionKind.GENERALIZED_PERP], 1))
    verdicts.append(implication("kannan-implies-ciric", reports[ContractionKind.KANNAN], reports[ContractionKind.CIRIC], 2))
    verdicts.append(implication("chatterjea-implies-ciric", reports[ContractionKind.CHATTERJEA], reports[ContractionKind.CIRIC], 2))
    return tuple(verdicts)
