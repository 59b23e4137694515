"""Independent references for the contraction scans and the triangle screen, shared by the tests.

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
    return scan_pairs(kind, pairs, lambda i, j: exact[i][j], mapping)


def scan_pairs(kind, pairs, d, t):
    """(feasible, minimal_k, witness, infeasible_witness) of `kind` over `pairs`, in their order, by definition."""
    best = None
    witness = None
    infeasible = None
    for (x, y) in pairs:
        num = d(t(x), t(y))
        den = oracle_functional(kind, d, t, x, y)
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


def full_lane_screen(m):
    """The triangle screen over every lane: the sorted pairs (i, j), i != j, whose lane loses its guard bit.

    Row k of the integer form `m` is packed into one int, entry j in lane j raised by an offset, and for
    each i the AND over k of P_k + (G - P_i) + m[i][k] * ONES keeps lane j's guard bit exactly when
    m[i][k] + m[k][j] >= m[i][j] for every k (the lane argument is in `validate_metric`'s docstring).
    `orthofix.space._triangle_screen` tests only the lanes j > i and mirrors or transposes for the
    rest, so it must flag exactly these pairs.
    """
    n, low = len(m), min(map(min, m))
    bits = max(-low, max(map(max, m))).bit_length()
    byte_lanes = low >= 0 and bits <= 5
    width, offset = (8 if byte_lanes else bits + 3), 1 << bits
    ones = ((1 << width * n) - 1) // ((1 << width) - 1)
    if byte_lanes:
        packed = [int.from_bytes(bytes(row), "little") + offset * ones for row in m]
    else:
        packed = []
        for row in m:
            lanes = 0
            for entry in reversed(row):
                lanes = lanes << width | entry + offset
            packed.append(lanes)
    guards = ones << (width - 1)
    flagged = []
    for i, row in enumerate(m):
        lower = guards - packed[i]
        kept = guards
        for lanes, entry in zip(packed, row):
            kept &= lanes + lower + entry * ones
        lost = guards & ~kept & ~(1 << (width * i + width - 1))
        while lost:
            bit = lost & -lost
            flagged.append((i, (bit.bit_length() - 1) // width))
            lost ^= bit
    return flagged
