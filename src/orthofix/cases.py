"""The corpus's case names and one-line summaries, in stable order.

Kept apart from the case code (`corpus`), so that listing the cases, or
checking a `--case` choice, imports none of it.
"""

CASES = {
    "five-point": "five-point weak orthogonal space with a generalized contraction",
    "rational-product": "real line with rationality-of-products orthogonality",
    "r2-counterexample": "orthogonally continuous but discontinuous plane map",
    "leq-relation": "total order sample under <=",
    "orbit-space": "positive-reals sample with a two-cycle orbit",
}


def list_cases() -> list[tuple[str, str]]:
    """Registered case names with one-line summaries, in stable order."""
    return list(CASES.items())
