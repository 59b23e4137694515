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
d(Tx,Ty) / functional over pairs with a nonzero denominator (the minimal
feasible constant), plus the first pair attaining it; a pair with zero
denominator but d(Tx,Ty) > 0 makes the kind infeasible.

By default each stored relation pair is scanned once, oriented exactly as
stored (x the first component) -- this is how the worked examples evaluate
the condition.  `symmetric=True` scans both orientations of every related
pair, which is the stronger reading the convergence certificates in the
solver rely on; it can only raise the constant.

One loop (`_walk`) serves every caller, in one pass per request.  It walks
one ordered pair sequence and, for each pair, writes the term table once --
d(Tx,Ty), d(x,y), d(x,Tx), d(y,Ty), d(x,Ty), d(Tx,y), d(y,Tx) and the T2x
terms -- and from it every functional.  Ciric and generalized are held
doubled (2 * M(x, y)), so that their half-sum terms stay exact in each value
domain the loop reads:

* the space's integer form (the metric scaled by the lcm of its
  denominators) -- plain arbitrary-precision ints, so no size limit;
* exact scalars, for value-domain samples (indexed into a small distance
  matrix, possibly of QuadExt numbers) and, forced by `engine="generic"`,
  the space's Fraction metric itself.

Each requested report is a *slot* of the pass; the reports come back in
the order requested.  The pair sets are nested: the stored relation
(sorted) is a subsequence of the sorted closure, which is a subsequence of
every ordered pair in lexicographic order.  A pass walks the largest set
its slots need -- every ordered pair (generated, never a list of n^2
pairs), the closure, or the relation -- and when its slots need more than
one set it tests each pair's membership in the smaller ones with the
space's bit rows (`closure_rows`, `relation_rows`).  A slot keeps the walk
position of its best pair and of its first infeasible pair, and the report
reads the pair back at that position (`divmod(pos, n)` on every pair).  The
walk order restricted to a slot's set is that set's own sorted order, so
the first pair, each witness and the count are those of a scan of the set
alone.  Ratios are compared by cross-multiplication with the denominator
made positive, so a negative entry of an out-of-contract matrix is ranked
by its true ratio.

The facts of one map on a space -- preservation and every report scanned so
far -- are kept on the map, so that `verify`, the hypothesis check, Picard
iteration, the hierarchy check, the audit and the corpus fill each report
once per instance, whoever calls them.  `preservation` keeps the
preservation report, and `reports` is the only code that fills contraction
reports: those not kept yet, in one pass (`verify` fills its seven reports
in one pass, the hierarchy check its five oriented kinds in one).  `report`
is its one-key form.  `check_contraction` is the public scan that keeps
nothing: it always scans.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .errors import InputError
from .kinds import ContractionKind  # re-exported: its home is `kinds`
from .records import to_dict
from .relational import PreservationReport, is_ow_preserving
from .space import FiniteSpace, SelfMap, _check_map, _check_point, _integer_form_mismatch

if TYPE_CHECKING:
    from .quadext import QuadExt

    Scalar = Fraction | QuadExt


# functional ids, the index of a kind's functional in the term table:
# 0 = d(x,y), 1 = ciric, 2 = kannan, 3 = chatterjea, 4 = generalized
_KIND_ID = {
    ContractionKind.BANACH_PERP: 0,
    ContractionKind.UNRESTRICTED_LIPSCHITZ: 0,
    ContractionKind.CIRIC: 1,
    ContractionKind.KANNAN: 2,
    ContractionKind.CHATTERJEA: 3,
    ContractionKind.GENERALIZED_PERP: 4,
}

# the kinds that quantify over related pairs, in hierarchy order
_ORIENTED = (
    ContractionKind.BANACH_PERP,
    ContractionKind.CIRIC,
    ContractionKind.KANNAN,
    ContractionKind.CHATTERJEA,
    ContractionKind.GENERALIZED_PERP,
)

# the factor each functional is held at in the term table: ciric and generalized
# are doubled, so that their half-sum terms stay exact
_SCALE = (1, 2, 1, 1, 2)

# the pair sets, largest first: every ordered pair, the symmetric closure, the stored relation
_EVERY, _CLOSURE, _RELATION = 0, 1, 2

# (kind, symmetric) -> the initial slot of its report (see `_walk`), with the kind at the end
_SLOT = {
    (kind, symmetric): (
        _KIND_ID[kind],
        _EVERY if kind is ContractionKind.UNRESTRICTED_LIPSCHITZ else _CLOSURE if symmetric else _RELATION,
        0, 0, -1, -1,
        kind,
    )
    for kind in ContractionKind
    for symmetric in (False, True)
}


class ContractionReport(NamedTuple):
    kind: ContractionKind
    feasible: bool
    minimal_k: Scalar | None
    witness_max: tuple | None
    infeasible_witness: tuple | None
    admissible: bool
    pairs_scanned: int

    to_dict = to_dict


# ---------------------------------------------------------------------------
# the scan loop
# ---------------------------------------------------------------------------

def _walk(pairs: Iterable[tuple[int, int]], m, t, slots: list[list], closure_rows=None, relation_rows=None) -> tuple:
    """One pass over `pairs`, read from matrix `m` and image table `t`, filling every slot.

    A slot is [functional id, pair set, num, den, best_pos, inf_pos, kind]
    (see `_SLOT`): the best ratio num / den so far (den > 0, the functional
    at its `_SCALE`), the walk position of its pair (-1 while no pair has a
    nonzero denominator) and of the first pair with zero denominator that
    moves (-1 if none).  Without bit rows every slot takes every walked
    pair; with them a slot takes the pairs of its own set.  Returns the last
    pair's functionals, at their `_SCALE`, indexed by functional id.
    """
    active, full = slots, any([s[0] for s in slots])
    if closure_rows is not None:
        on_every = [s for s in slots if s[1] == _EVERY]
        on_closure = [s for s in slots if s[1] <= _CLOSURE]
        wide = [any(s[0] for s in group) for group in (on_every, on_closure, slots)]
    dens: tuple = ()
    for pos, (x, y) in enumerate(pairs):
        if closure_rows is not None:
            if not closure_rows[x] >> y & 1:
                active, full = on_every, wide[0]
            elif relation_rows[x] >> y & 1:  # the relation lies inside the closure: every slot
                active, full = slots, wide[2]
            else:
                active, full = on_closure, wide[1]
        tx, ty = t[x], t[y]
        mx, mtx = m[x], m[tx]
        num = mtx[ty]
        dxy = mx[y]
        if full:
            my = m[y]
            dxtx, dyty, dxty, dytx = mx[tx], my[ty], mx[ty], my[tx]
            ciric = dxy
            if dxtx > ciric:
                ciric = dxtx
            if dyty > ciric:
                ciric = dyty
            ciric *= 2
            half = dxty + mtx[y]
            if half > ciric:
                ciric = half
            mt = m[t[tx]]
            gen = mt[tx]
            if mt[y] > gen:
                gen = mt[y]
            if mt[ty] > gen:
                gen = mt[ty]
            gen *= 2
            if ciric > gen:
                gen = ciric
            half = mt[x] + mt[ty]
            if half > gen:
                gen = half
            dens = (dxy, ciric, dxtx + dyty, dxty + dytx, gen)
        else:
            dens = (dxy,)
        for s in active:
            den = dens[s[0]]
            if den > 0:
                if num * s[3] > s[2] * den or s[4] < 0:
                    s[2], s[3], s[4] = num, den, pos
            elif den == 0:
                if num > 0 and s[5] < 0:
                    s[5] = pos
            elif s[3] * num < s[2] * den or s[4] < 0:  # -num / -den, with -den > 0
                s[2], s[3], s[4] = -num, -den, pos
    return dens


def _ratio(num, den) -> Scalar:
    """Exact num / den, also when both are ints."""
    return Fraction(num, den) if isinstance(num, int) else num / den


def _report(slot: list, pair_at: Callable[[int], tuple], count: int) -> ContractionReport:
    """Build the report from a slot filled by `_walk`; `pair_at` maps a walk position to its pair."""
    _, _, num, den, best_pos, inf_pos, kind = slot
    feasible = inf_pos < 0
    if not feasible:
        minimal_k = None
    elif best_pos < 0:
        minimal_k = Fraction(0)
    else:
        minimal_k = _ratio(_SCALE[slot[0]] * num, den)
    return ContractionReport(
        kind=kind,
        feasible=feasible,
        minimal_k=minimal_k,
        witness_max=tuple(pair_at(best_pos)) if best_pos >= 0 else None,
        infeasible_witness=tuple(pair_at(inf_pos)) if inf_pos >= 0 else None,
        admissible=feasible and minimal_k < kind.k_bound,
        pairs_scanned=count,
    )


def _pass(space: FiniteSpace, m, images, keys: Sequence[tuple[ContractionKind, bool]]) -> list[ContractionReport]:
    """The reports of `keys` ((kind, symmetric) pairs) from one `_walk` over the smallest set holding them all."""
    slots = [list(_SLOT[key]) for key in keys]
    sets = [slot[1] for slot in slots]
    n, walked = space.n, min(sets)
    if walked == _EVERY:
        pairs: Iterable = product(range(n), repeat=2)
        pair_at = lambda pos: divmod(pos, n)  # noqa: E731
    else:
        pairs = space.sorted_closure if walked == _CLOSURE else space.sorted_relation
        pair_at = pairs.__getitem__
    if max(sets) == walked:
        _walk(pairs, m, images, slots)
    else:
        _walk(pairs, m, images, slots, space.closure_rows, space.relation_rows)
    sizes = (n * n, sum(map(int.bit_count, space.closure_rows)), len(space.sorted_relation))
    return [_report(slot, pair_at, sizes[slot[1]]) for slot in slots]


def m_value(kind: ContractionKind, space: FiniteSpace, mapping: SelfMap, x: int, y: int) -> Fraction:
    """Evaluate the kind's comparison functional at the ordered pair (x, y)."""
    kind = ContractionKind(kind)
    if kind is ContractionKind.UNRESTRICTED_LIPSCHITZ:
        raise InputError("unrestricted_lipschitz has no separate functional; its denominator is d(x, y)")
    _check_map(space, mapping)
    _check_point(space, x)
    _check_point(space, y)
    fid = _KIND_ID[kind]
    return _ratio(_walk([(x, y)], space.metric, mapping.images, [list(_SLOT[kind, False])])[fid], _SCALE[fid])


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
    Fraction metric), which lets the two be cross-checked on a metric with a
    Fraction entry (an all-int metric is its own integer form: one object).
    """
    kind = ContractionKind(kind)
    if engine not in (None, "scaled", "generic"):
        raise InputError(f"unknown engine {engine!r} (expected 'scaled' or 'generic')")
    _check_map(space, mapping)
    m = space.metric if engine == "generic" else space.int_metric
    return _pass(space, m, mapping.images, [(kind, bool(symmetric))])[0]


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
    images' images are indexed, and the same loop walks their distance
    matrix, in the order of `pairs`.  Same report semantics as
    check_contraction.
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
    slot = list(_SLOT[kind, False])
    _walk(index_pairs, m, images, [slot])
    return _report(slot, pairs.__getitem__, len(pairs))


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
    """`reports(space, mapping, [(kind, symmetric)])[0]`: one report, kept on the map."""
    return reports(space, mapping, [(kind, symmetric)])[0]


def reports(
    space: FiniteSpace, mapping: SelfMap, keys: Sequence[tuple[ContractionKind, bool]]
) -> tuple[ContractionReport, ...]:
    """`check_contraction(kind, space, mapping, symmetric=symmetric)` for each (kind, symmetric) of `keys`, in order.

    The reports not yet kept on the map are filled together, in one pass over
    the smallest pair set that holds them all, and kept on the map; this is
    the one place the memo is filled.
    """
    keys = [(ContractionKind(kind), bool(symmetric)) for kind, symmetric in keys]
    memo = mapping._memo(space)
    missing = [key for key in dict.fromkeys(keys) if key not in memo]
    if missing:
        _check_map(space, mapping)
        memo.update(zip(missing, _pass(space, space.int_metric, mapping.images, missing)))
    return tuple(memo[key] for key in keys)


# ---------------------------------------------------------------------------
# hierarchy checks
# ---------------------------------------------------------------------------

class HierarchyVerdict(NamedTuple):
    name: str
    holds: bool
    witness: tuple | None
    detail: str

    to_dict = to_dict


def hierarchy_check(space: FiniteSpace, mapping: SelfMap) -> tuple[HierarchyVerdict, ...]:
    """Audit the implications between contraction kinds on this instance.

    The chain banach -> ciric -> generalized can only lower the minimal
    constant; kannan and chatterjea constants below 1/2 bound the ciric
    constant by doubling.  The first verdict checks the integer form entry
    by entry: when it is s * metric for one s > 0, every functional value
    and every d(Tx, Ty) scales by s, so every scan on it agrees with the
    exact metric; its witness is the first bad entry (i, j).  Any failure
    falsifies the scan implementation, so each verdict carries a witness.
    The reports are those kept on the map: the five oriented kinds the
    implications read, filled together in one pass over the stored relation
    when none is kept yet (see `reports`).
    """
    ban, cir, kan, cha, gen = reports(space, mapping, [(kind, False) for kind in _ORIENTED])

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

    verdicts.append(implication("banach-implies-ciric", ban, cir, 1))
    verdicts.append(implication("ciric-implies-generalized", cir, gen, 1))
    verdicts.append(implication("kannan-implies-ciric", kan, cir, 2))
    verdicts.append(implication("chatterjea-implies-ciric", cha, cir, 2))
    return tuple(verdicts)
