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
denominator but d(Tx,Ty) > 0 makes the kind infeasible, and the first such
pair is then the report's one witness.

By default each stored relation pair is scanned once, oriented exactly as
stored (x the first component) -- this is how the worked examples evaluate
the condition.  `symmetric=True` scans both orientations of every related
pair, which is the stronger reading the convergence certificates in the
solver rely on; it can only raise the constant.

Every caller goes through `_walk`, one pass per request, which runs the
scan kernel of the request's slots: generated from one template and
compiled once per process (`_kernel`).  For each pair a kernel writes only
the terms its functionals read -- d(Tx,Ty), d(x,y), d(x,Tx), d(y,Ty),
d(x,Ty), d(Tx,y), d(y,Tx) and the T2x terms -- those of x once per x.
Ciric and generalized are held doubled (2 * M(x, y)), so that their
half-sum terms stay exact in each value domain the template reads:

* the space's integer form (the metric scaled by the lcm of its
  denominators) -- plain arbitrary-precision ints, so no size limit;
* exact scalars, for value-domain samples (indexed into a small distance
  matrix, possibly of QuadExt numbers) and, forced by `engine="generic"`,
  the space's Fraction metric itself.

Each requested report is a *slot* of the pass; the reports come back in
the order requested.  The pair sets are nested: the stored relation
(sorted) is a subsequence of the sorted closure, which is a subsequence of
every ordered pair in lexicographic order.  A pass walks the largest set
its slots need -- every ordered pair (nested ranges, never a list of n^2
pairs), the closure, or the relation -- and enters each smaller set, nested
in the larger, through the space's bit rows (`closure_rows`,
`relation_rows`).  A slot keeps the walk position of its best pair and of
its first infeasible pair, and the report reads its witness back at one of
them.  The walk order restricted to a slot's set is that set's own sorted
order, so the first pair and each witness are those of a scan of the set
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
nothing: it always scans.  `hypothesis_check` reads the theorem's
hypotheses off the kept facts and the space's weak elements; it lives here,
not in `solver`, so that `verify` compiles no Picard iteration.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

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

# each functional's admissible bound k < p / q as (p, q): 1/2 for kannan and chatterjea, 1 for the others
_BOUND = ((1, 1), (1, 1), (1, 2), (1, 2), (1, 1))

# the pair sets, largest first: every ordered pair, the symmetric closure, the stored relation
_EVERY, _CLOSURE, _RELATION = 0, 1, 2

# (kind, symmetric) -> the initial slot of its report (see `_walk`)
_SLOT = {
    (kind, sym): (_KIND_ID[kind], _EVERY if kind is ContractionKind.UNRESTRICTED_LIPSCHITZ else _CLOSURE if sym else _RELATION,
                  -1, 0, -1, -1)
    for kind in ContractionKind for sym in (False, True)
}


class ContractionReport(namedtuple("ContractionReport", "minimal_k witness admissible")):
    # minimal_k None: infeasible, and witness is the first moving pair with a zero denominator; otherwise witness
    # is the first pair attaining minimal_k, None when no pair has a nonzero denominator (minimal_k 0)
    __slots__ = ()
    to_dict = to_dict


# ---------------------------------------------------------------------------
# the scan kernels
# ---------------------------------------------------------------------------

# The kernels' term table, each term after those it reads: name -> (read once per x, the names it reads,
# its code).  k0 .. k4 are the functionals by id, at their `_SCALE`; row1, row2 x's closure, relation bits.
_TERMS = {
    "tx": (True, (), "tx = t[x]"),
    "mx": (True, (), "mx = m[x]"),
    "mtx": (True, ("tx",), "mtx = m[tx]"),
    "dxtx": (True, ("mx", "tx"), "dxtx = mx[tx]"),
    "mt": (True, ("tx",), "mt = m[t[tx]]"),
    "gtx": (True, ("mt", "tx"), "gtx = mt[tx]"),
    "gx": (True, ("mt",), "gx = mt[x]"),
    "row1": (True, (), "row1 = rows[0][x]"),
    "row2": (True, (), "row2 = rows[1][x]"),
    "ty": (False, (), "ty = t[y]"),
    "num": (False, ("mtx", "ty"), "num = mtx[ty]"),
    "my": (False, (), "my = m[y]"),
    "dyty": (False, ("my", "ty"), "dyty = my[ty]"),
    "dxty": (False, ("mx", "ty"), "dxty = mx[ty]"),
    "k0": (False, ("mx",), "k0 = mx[y]"),
    "k1": (False, ("k0", "dxtx", "dyty", "dxty", "mtx"),
           "k1 = k0\nif dxtx > k1: k1 = dxtx\nif dyty > k1: k1 = dyty\nk1 *= 2\nh = dxty + mtx[y]\nif h > k1: k1 = h"),
    "k2": (False, ("dxtx", "dyty"), "k2 = dxtx + dyty"),
    "k3": (False, ("dxty", "my", "tx"), "k3 = dxty + my[tx]"),
    "k4": (False, ("k1", "gtx", "gx", "mt", "ty"),
           "k4 = gtx\ng = mt[y]\nif g > k4: k4 = g\ng = mt[ty]\nif g > k4: k4 = g\n"
           "k4 *= 2\nif k1 > k4: k4 = k1\nh = gx + g\nif h > k4: k4 = h"),
}
# slot i's update by functional f at walk position pos: ratios cross-multiplied, a negative denominator made positive
_UPDATE = ("if k{f} > 0:\n    if num * den{i} > num{i} * k{f}: num{i}, den{i}, best{i} = num, k{f}, {pos}\n"
           "elif k{f} == 0:\n    if num > 0 and bad{i} < 0: bad{i} = {pos}\n"
           "elif den{i} * num < num{i} * k{f}: num{i}, den{i}, best{i} = -num, -k{f}, {pos}")
# the walk of a list of pairs (the terms of x read when x changes) and of every ordered pair (nested ranges)
_HEAD = ("px = None\nfor pos, (x, y) in enumerate(pairs):\n    if x != px:\n        px = x",
         "n = len(m)\nfor x in range(n):\n    base = x * n")
_KERNELS: dict = {}  # (every pair?, ((functional id, set), ...) per slot) -> its compiled kernel


def _kernel(every: bool, config: tuple[tuple[int, int], ...]) -> Callable:
    """Generate and compile the scan kernel of one slot configuration, kept in `_KERNELS` for the process.

    `kernel(pairs, m, t, rows, slots)` walks every ordered pair of `m`'s points when `every`, else `pairs`,
    and writes each slot's result into it.  Slot i lives in locals from (num, den, best, bad) = (-1, 0, -1,
    -1): the first positive denominator beats -1/0, as does the first negative one in the flipped test.  A
    set above the walked one is entered through x's bit row, nested in the larger set, and each term is
    written in the outermost block that reads it.  The source holds only functional ids and set levels.
    """
    levels = sorted({level for _, level in config})
    wanted = [{"num", "mx", *(f"k{f}" for f, level in config if level == lv)} for lv in levels]
    for needed in wanted:
        for name in reversed(_TERMS):
            if name in needed:
                needed.update(_TERMS[name][1])
    hoisted = set().union(*wanted, (f"row{lv}" for lv in levels[1:]))
    done = {"ty", "k0"} if every else set()  # the every-pair walk reads them off its zip
    pos = "base + y" if every else "pos"
    lines = [(1, f"num{i}, den{i}, best{i}, bad{i} = -1, 0, -1, -1") for i in range(len(config))]
    lines.append((1, "k0 = k1 = k2 = k3 = k4 = None\n" + _HEAD[every]))
    lines += [(3 - every, code) for name, (per_x, _, code) in _TERMS.items() if per_x and name in hoisted]
    lines += [(2, "for y, ty, k0 in zip(range(n), t, mx):")] * every
    for depth, (lv, needed) in enumerate(zip(levels, wanted), start=2 + every):
        if depth > 2 + every:
            lines.append((depth - 1, f"if row{lv} >> y & 1:"))
        lines += [(depth, code) for name, (per_x, _, code) in _TERMS.items() if not per_x and name in needed - done]
        done |= needed
        lines += [(depth, _UPDATE.format(f=f, i=i, pos=pos)) for i, (f, level) in enumerate(config) if level == lv]
    lines += [(1, f"slots[{i}][2:6] = num{i}, den{i}, best{i}, bad{i}") for i in range(len(config))]
    lines.append((1, "return k0, k1, k2, k3, k4"))
    body = "".join("    " * depth + row + "\n" for depth, code in lines for row in code.split("\n"))
    source = "def kernel(pairs, m, t, rows, slots):\n" + body
    name = f"<orthofix scan kernel {'every' if every else 'list'} {' '.join(f'{f}@{lv}' for f, lv in config)}>"
    exec(compile(source, name, "exec"), namespace := {})
    kernel = _KERNELS[every, config] = namespace["kernel"]
    kernel.lines = (len(source), None, source.splitlines(True), name)  # its `linecache` entry, see `_walk`
    return kernel


def _walk(pairs: Iterable[tuple[int, int]] | None, m, t, slots: list[list], *rows) -> tuple:
    """One pass over `pairs` (every ordered pair of `m`'s points when None), read from matrix `m` and
    image table `t`, filling every slot through the kernel of the slots' configuration.

    A slot is [functional id, pair set, num, den, best_pos, inf_pos] (see `_SLOT`): the best
    ratio num / den (den > 0, the functional at its `_SCALE`) and the walk position of its pair (-1 / 0
    at -1 if no pair has a nonzero denominator), and that of the first pair with zero denominator that
    moves (-1 if none).  Without bit rows (`closure_rows`, `relation_rows`) every slot takes every
    walked pair, and the result is the last pair's functionals by id, at their `_SCALE` (None for those
    no slot reads).
    """
    key = (pairs is None, tuple((s[0], s[1] if rows else 0) for s in slots))
    kernel = _KERNELS.get(key) or _kernel(*key)
    try:
        return kernel(pairs, m, t, rows, slots)
    except BaseException:  # show the generated lines in the traceback; linecache would cost every start ~1 ms
        import linecache

        linecache.cache[kernel.__code__.co_filename] = kernel.lines
        raise


def _ratio(num, den) -> Scalar:
    """Exact num / den, also when both are ints."""
    return Fraction(num, den) if isinstance(num, int) else num / den


def _report(slot: list, pair_at: Callable[[int], tuple]) -> ContractionReport:
    """Build the report from a slot filled by `_walk`; `pair_at` maps a walk position to its pair."""
    fid, _, num, den, best_pos, inf_pos = slot
    if inf_pos >= 0:
        return ContractionReport(None, tuple(pair_at(inf_pos)), False)
    if best_pos < 0:
        return ContractionReport(Fraction(0), None, True)
    num *= _SCALE[fid]
    p, q = _BOUND[fid]
    # admissible: num / den < p / q, exact in every value domain as den > 0
    return ContractionReport(_ratio(num, den), tuple(pair_at(best_pos)), num * q < p * den)


def _pass(space: FiniteSpace, m, images, keys: Sequence[tuple[ContractionKind, bool]]) -> list[ContractionReport]:
    """The reports of `keys` ((kind, symmetric) pairs) from one `_walk` over the smallest set holding them all."""
    slots = [list(_SLOT[key]) for key in keys]
    sets = [slot[1] for slot in slots]
    n, walked = space.n, min(sets)
    if walked == _EVERY:
        pairs, pair_at = None, lambda pos: divmod(pos, n)
    else:
        pairs = space.sorted_closure if walked == _CLOSURE else space.sorted_relation
        pair_at = pairs.__getitem__
    rows = (space.closure_rows, space.relation_rows) if max(sets) > walked else ()
    _walk(pairs, m, images, slots, *rows)
    return [_report(slot, pair_at) for slot in slots]


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
    pairs: Iterable[tuple],
    dist: Callable,
    apply_map: Callable,
) -> ContractionReport:
    """Value-domain scan for analytic sample spaces.

    `pairs` are ordered pairs of hashable point values (any iterable, read
    once), `dist` an exact metric on values and `apply_map` the map
    evaluator; images need not belong to the scanned sample.  The values,
    their images and their images' images are indexed, and a kernel of the
    same template walks their distance matrix, in the order of `pairs`.
    Same report semantics as check_contraction.
    """
    kind, pairs = ContractionKind(kind), list(pairs)
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
    return _report(slot, pairs.__getitem__)


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


class HypothesisReport(
    namedtuple("HypothesisReport", "has_weak_element preserving minimal_k all_hold")
):
    # minimal_k: the certificate-grade constant (both orientations); all_hold needs it admissible, in [0, 1)
    __slots__ = ()
    to_dict = to_dict


def hypothesis_check(space: FiniteSpace, mapping: SelfMap) -> HypothesisReport:
    """Evaluate the fixed point theorem's hypotheses on a finite instance.

    Checked: a weak orthogonal element exists; the map preserves orthogonal
    relatedness; an admissible generalized contraction constant k in [0, 1)
    exists (scanned over both orientations of every related pair, which is
    what the convergence certificates require).

    Orbital completeness and orbital continuity hold automatically on finite
    spaces (every Cauchy sequence is eventually constant), so the report
    states neither.  (O1), the subsequence condition's finite reading,
    holds on every preserving map (README proves it), so it needs no check
    of its own.  Preservation and the scan are those kept on the map (see
    `report`).
    """
    has_weak = bool(space.weak_elements)
    preserving = preservation(space, mapping).preserving
    rep = report(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True)
    return HypothesisReport(
        has_weak_element=has_weak,
        preserving=preserving,
        minimal_k=rep.minimal_k,
        all_hold=has_weak and preserving and rep.admissible,
    )


# ---------------------------------------------------------------------------
# hierarchy checks
# ---------------------------------------------------------------------------

class HierarchyVerdict(namedtuple("HierarchyVerdict", "name holds witness")):
    __slots__ = ()
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
    verdicts = [HierarchyVerdict("integer-form-exact", bad is None, bad)]

    def implication(name: str, premise: ContractionReport, conclusion: ContractionReport, factor: int) -> HierarchyVerdict:
        if not premise.admissible:
            return HierarchyVerdict(name, True, None)  # the implication holds vacuously
        k, kp = conclusion.minimal_k, premise.minimal_k  # Fractions on feasible reports, as every kept report reads ints
        ok = k is not None and k.numerator * kp.denominator <= factor * kp.numerator * k.denominator
        return HierarchyVerdict(name, ok, None if ok else (premise.witness or conclusion.witness))

    verdicts.append(implication("banach-implies-ciric", ban, cir, 1))
    verdicts.append(implication("ciric-implies-generalized", cir, gen, 1))
    verdicts.append(implication("kannan-implies-ciric", kan, cir, 2))
    verdicts.append(implication("chatterjea-implies-ciric", cha, cir, 2))
    return tuple(verdicts)
