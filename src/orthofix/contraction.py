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

One functional and one scan loop serve every caller.  The functional is
evaluated doubled, 2 * M(x, y), so the half-sum terms stay exact in each
value domain it reads:

* the space's integer form (the metric scaled by the lcm of its
  denominators) -- plain arbitrary-precision ints, so no size limit;
* exact scalars, for value-domain samples (indexed into a small distance
  matrix, possibly of QuadExt numbers) and, forced by `engine="generic"`,
  the space's Fraction metric itself.

The pair sets are the space's sorted stored relation and sorted closure,
built once per space.  The facts of one map on a space -- preservation and
every report scanned so far -- are kept on the map (`preservation`,
`report`), so that `verify`, the hypothesis check, Picard iteration, the
hierarchy check, the audit and the corpus scan each pair set once per
instance, whoever calls them.  `check_contraction` itself always scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import InputError
from .kinds import ContractionKind  # re-exported: its home is `kinds`
from .relational import PreservationReport, is_ow_preserving
from .space import FiniteSpace, SelfMap, _check_map, _check_point, _integer_form_mismatch

if TYPE_CHECKING:
    from .quadext import QuadExt

    Scalar = Fraction | QuadExt


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
        return {
            "kind": self.kind.value,
            "feasible": self.feasible,
            "minimal_k": None if self.minimal_k is None else str(self.minimal_k),
            "witness_max": list(self.witness_max) if self.witness_max else None,
            "infeasible_witness": list(self.infeasible_witness) if self.infeasible_witness else None,
            "admissible": self.admissible,
            "pairs_scanned": self.pairs_scanned,
        }


# ---------------------------------------------------------------------------
# the comparison functionals and the scan
# ---------------------------------------------------------------------------

def _functional(kind_id: int, m, t, x: int, y: int):
    """Twice the comparison functional at (x, y), read from matrix `m` and image table `t`.

    Doubling keeps the half-sum terms exact on ints, Fractions and QuadExt.
    """
    tx, ty = t[x], t[y]
    mx, my = m[x], m[y]
    if kind_id == 0:
        return 2 * mx[y]
    if kind_id == 2:
        return 2 * (mx[tx] + my[ty])
    if kind_id == 3:
        return 2 * (mx[ty] + my[tx])
    best = 2 * max(mx[y], mx[tx], my[ty])
    term = mx[ty] + m[tx][y]
    if term > best:
        best = term
    if kind_id == 4:
        mt = m[t[tx]]
        term = mt[x] + mt[ty]
        if term > best:
            best = term
        term = 2 * max(mt[tx], mt[y], mt[ty])
        if term > best:
            best = term
    return best


def m_value(kind: ContractionKind, space: FiniteSpace, mapping: SelfMap, x: int, y: int) -> Fraction:
    """Evaluate the kind's comparison functional at the ordered pair (x, y)."""
    kind = ContractionKind(kind)
    if kind is ContractionKind.UNRESTRICTED_LIPSCHITZ:
        raise InputError("unrestricted_lipschitz has no separate functional; its denominator is d(x, y)")
    _check_map(space, mapping)
    _check_point(space, x)
    _check_point(space, y)
    return _ratio(_functional(_KIND_ID[kind], space.metric, mapping.images, x, y), 2)


def _ratio(num, den) -> Scalar:
    """Exact num / den, also when both are ints."""
    return Fraction(num, den) if isinstance(num, int) else num / den


def _scan(kind_id: int, pairs: Sequence[tuple[int, int]], m, t):
    """Exact supremum of d(Tx,Ty) / functional over `pairs`.

    Returns (num, den, best_pos, inf_pos): the attaining ratio as two
    doubled values, the position of its pair (-1 when no pair has a positive
    denominator) and the first pair with zero denominator that moves (-1 if
    none).
    """
    best_num = best_den = None
    best_pos = inf_pos = -1
    for pos, (x, y) in enumerate(pairs):
        num = 2 * m[t[x]][t[y]]
        den = _functional(kind_id, m, t, x, y)
        if den == 0:
            if num > 0 and inf_pos < 0:
                inf_pos = pos
            continue
        if best_pos < 0 or num * best_den > best_num * den:
            best_num, best_den, best_pos = num, den, pos
    return best_num, best_den, best_pos, inf_pos


def _pair_list(space: FiniteSpace, kind: ContractionKind, symmetric: bool) -> Sequence[tuple[int, int]]:
    if kind is ContractionKind.UNRESTRICTED_LIPSCHITZ:
        return [(i, j) for i in range(space.n) for j in range(space.n)]
    return space.sorted_closure if symmetric else space.sorted_relation


def _report(kind: ContractionKind, pairs: Sequence[tuple], scan) -> ContractionReport:
    """Build the report from a `_scan` result over `pairs`."""
    num, den, best_pos, inf_pos = scan
    feasible = inf_pos < 0
    if not feasible:
        minimal_k = None
    elif best_pos < 0:
        minimal_k = Fraction(0)
    else:
        minimal_k = _ratio(num, den)
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

    The scan reads the space's integer form.  `engine` forces the value
    domain: "scaled" (the integer form, the default) or "generic" (the exact
    Fraction metric), which lets the two be cross-checked.
    """
    kind = ContractionKind(kind)
    if engine not in (None, "scaled", "generic"):
        raise InputError(f"unknown engine {engine!r} (expected 'scaled' or 'generic')")
    _check_map(space, mapping)
    m = space.metric if engine == "generic" else space.int_metric
    pairs = _pair_list(space, kind, symmetric)
    return _report(kind, pairs, _scan(_KIND_ID[kind], pairs, m, mapping.images))


def scan_value_pairs(
    kind: ContractionKind,
    pairs: Sequence[tuple],
    dist: Callable,
    apply_map: Callable,
) -> ContractionReport:
    """Value-domain scan for analytic sample spaces.

    `pairs` are ordered pairs of hashable point values, `dist` an exact
    metric on values and `apply_map` the map evaluator; images need not
    belong to the scanned sample.  The values, their images and their
    images' images are indexed, and the same scan runs on their distance
    matrix.  Same report semantics as check_contraction.
    """
    kind = ContractionKind(kind)
    values: list = []
    index: dict = {}
    images: dict[int, int] = {}

    def idx(v) -> int:
        if v not in index:
            index[v] = len(values)
            values.append(v)
        return index[v]

    def image(i: int) -> int:
        if i not in images:
            images[i] = idx(apply_map(values[i]))
        return images[i]

    index_pairs = [(idx(x), idx(y)) for x, y in pairs]
    for x, y in index_pairs:
        image(image(x))
        image(y)
    m = [[dist(a, b) for b in values] for a in values]
    return _report(kind, pairs, _scan(_KIND_ID[kind], index_pairs, m, images))


# ---------------------------------------------------------------------------
# the facts of one map on a space, computed once
# ---------------------------------------------------------------------------

def preservation(space: FiniteSpace, mapping: SelfMap) -> PreservationReport:
    """`is_ow_preserving(space, mapping)`, computed once per (space, map) and kept on the map."""
    memo = mapping._memo(space)
    rep = memo.get("preservation")
    if rep is None:
        rep = memo["preservation"] = is_ow_preserving(space, mapping)
    return rep


def report(
    kind: ContractionKind, space: FiniteSpace, mapping: SelfMap, *, symmetric: bool = False
) -> ContractionReport:
    """`check_contraction(kind, space, mapping, symmetric=...)`, scanned once per (space, map) and kept on the map."""
    key = (ContractionKind(kind), symmetric)
    memo = mapping._memo(space)
    rep = memo.get(key)
    if rep is None:
        rep = memo[key] = check_contraction(kind, space, mapping, symmetric=symmetric)
    return rep


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

    The chain banach -> ciric -> generalized can only lower the minimal
    constant; kannan and chatterjea constants below 1/2 bound the ciric
    constant by doubling.  The first verdict checks the integer form entry
    by entry: when it is s * metric for one s > 0, every functional value
    and every d(Tx, Ty) scales by s, so every scan on it agrees with the
    exact metric; its witness is the first bad entry (i, j).  Any failure
    falsifies the scan implementation, so each verdict carries a witness.
    The oriented reports are those kept on the map (see `report`).
    """
    reports = {
        kind: report(kind, space, mapping)
        for kind in (
            ContractionKind.BANACH_PERP,
            ContractionKind.CIRIC,
            ContractionKind.KANNAN,
            ContractionKind.CHATTERJEA,
            ContractionKind.GENERALIZED_PERP,
        )
    }

    bad = _integer_form_mismatch(space.metric, space.int_metric)
    detail = "every integer-form entry is the exact entry times the lcm of the denominators"
    verdicts = [HierarchyVerdict("integer-form-exact", bad is None, bad, detail)]

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
