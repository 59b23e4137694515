"""An independent reference for the contraction scans, shared by the tests.

Every functional is recomputed from its definition with plain Fraction
arithmetic, max() and division, and the scan is a plain loop over the pairs
in sorted order.  It shares no code with `orthofix.contraction`, whose scan
reads the integer form, doubled functionals and cross-multiplied
comparisons, so agreement is a real two-implementation check.
"""

from fractions import Fraction

from orthofix import ContractionKind


def oracle_functional(kind, d, t, x, y):
    tx, ty = t(x), t(y)
    ttx = t(tx)
    terms = {
        ContractionKind.BANACH_PERP: [d(x, y)],
        ContractionKind.KANNAN: None,
        ContractionKind.CHATTERJEA: None,
        ContractionKind.CIRIC: [d(x, y), d(x, tx), d(y, ty), (d(x, ty) + d(tx, y)) / 2],
        ContractionKind.GENERALIZED_PERP: [
            d(x, y),
            d(x, tx),
            d(y, ty),
            (d(x, ty) + d(tx, y)) / 2,
            (d(ttx, x) + d(ttx, ty)) / 2,
            d(ttx, tx),
            d(ttx, y),
            d(ttx, ty),
        ],
    }
    if kind is ContractionKind.KANNAN:
        return d(x, tx) + d(y, ty)
    if kind is ContractionKind.CHATTERJEA:
        return d(x, ty) + d(y, tx)
    if kind is ContractionKind.UNRESTRICTED_LIPSCHITZ:
        return d(x, y)
    return max(terms[kind])


def oracle_report(kind, space, mapping, symmetric=False):
    """(feasible, minimal_k, witness, infeasible_witness) by definition.

    Distances are read as Fractions, so an int metric divides exactly too.
    """
    if kind is ContractionKind.UNRESTRICTED_LIPSCHITZ:
        pairs = [(i, j) for i in range(space.n) for j in range(space.n)]
    elif symmetric:
        pairs = sorted(set(space.relation) | {(j, i) for (i, j) in space.relation})
    else:
        pairs = sorted(space.relation)
    exact = [[Fraction(v) for v in row] for row in space.metric]

    def d(i, j):
        return exact[i][j]

    best = None
    witness = None
    infeasible = None
    for (x, y) in pairs:
        num = d(mapping(x), mapping(y))
        den = oracle_functional(kind, d, mapping, x, y)
        if den == 0:
            if num > 0 and infeasible is None:
                infeasible = (x, y)
            continue
        ratio = num / den
        if best is None or ratio > best:
            best, witness = ratio, (x, y)
    feasible = infeasible is None
    minimal = (best if best is not None else Fraction(0)) if feasible else None
    return feasible, minimal, witness, infeasible
