"""The scan kernels: one generated per slot configuration, each checked against the reference.

`contraction._kernel` writes a kernel from the term table for each slot
configuration (the functional id and pair set of each slot, and whether every
ordered pair is walked) and compiles it once per process.  Here each single
key, each batch the command line fills and seeded random slot lists go
through `contraction._pass` on generated instances, on their Fraction copies
(every distance divided by 3) and on the off-contract matrices, and random
slot lists go through `contraction._walk` on the corpus's QuadExt sample;
every report must equal the reference's.  The tests also check that a
configuration is compiled once, what a kernel's source may hold, and that a
traceback raised inside a kernel shows the generated line.
"""

import ast
import random
import traceback
from fractions import Fraction

import pytest

from orthofix import ContractionKind, FiniteSpace, SelfMap, contraction, scan_value_pairs
from orthofix.corpus import rational_product_sample
from reference import oracle_report, scan_pairs
from test_backends import BATCHES, KEYS, OFF_CONTRACT, _off_contract_space

# what `verify`, the hierarchy check and `solve` fill in one pass, and every key at once
CLI_BATCHES = {**BATCHES, "solve": [(ContractionKind.GENERALIZED_PERP, True)]}


def _random_list(rng):
    return rng.choices(KEYS, k=rng.randrange(1, 10))


RANDOM_LISTS = [_random_list(random.Random(seed)) for seed in range(50)]
SLOT_LISTS = [[key] for key in KEYS] + list(CLI_BATCHES.values()) + RANDOM_LISTS


def _assert_lists_match(space, mapping, where, lists=SLOT_LISTS):
    """Every slot list, on the integer form and on the exact metric, gives the reference's reports."""
    expected = {key: oracle_report(key[0], space, mapping, key[1]) for key in KEYS}
    for m in dict.fromkeys((space.int_metric, space.metric), None):  # one object when the metric is all ints
        for keys in lists:
            reports = contraction._pass(space, m, mapping.images, keys)
            got = [(r.kind, r.feasible, r.minimal_k, r.witness_max, r.infeasible_witness) for r in reports]
            assert got == [(key[0], *expected[key]) for key in keys], (where, keys)


def test_slot_lists_match_the_reference_on_generated_instances(accepted_instances):
    for number, (space, mapping) in enumerate(accepted_instances):
        thirds = FiniteSpace(space.points, [[Fraction(v, 3) for v in row] for row in space.metric], space.sorted_relation)
        _assert_lists_match(space, mapping, number)
        _assert_lists_match(thirds, mapping, (number, "thirds"))


@pytest.mark.parametrize("matrix", OFF_CONTRACT)
def test_slot_lists_match_the_reference_off_contract(matrix):
    rng = random.Random(f"kernels {matrix}")
    for trial in range(40):
        space, mapping = _off_contract_space(rng, OFF_CONTRACT[matrix])
        _assert_lists_match(space, mapping, (matrix, trial), [[key] for key in KEYS] + RANDOM_LISTS[trial::40])


def _value_scan(pairs, dist, apply_map, keys):
    """`scan_value_pairs`'s indexing, then one `_walk` filling a slot per key over `pairs`."""
    index: dict = {}
    idx = lambda v: index.setdefault(v, len(index))  # noqa: E731
    index_pairs = [(idx(x), idx(y)) for x, y in pairs]
    images = {}
    for x, y in pairs:
        for v in (x, apply_map(x), y):
            images[idx(v)] = idx(apply_map(v))
    values = list(index)
    m = [[dist(a, b) for b in values] for a in values]
    slots = [list(contraction._SLOT[key]) for key in keys]
    contraction._walk(index_pairs, m, images, slots)
    return [contraction._report(slot, pairs.__getitem__, len(pairs)) for slot in slots]


def test_slot_lists_match_the_reference_on_the_quadext_sample():
    _, values, dist, rel, apply_map = rational_product_sample()
    related = [(x, y) for x in values for y in values if rel(x, y)]
    every = [(x, y) for x in values for y in values]
    for pairs in (related, every):
        expected = {kind: scan_pairs(kind, pairs, dist, apply_map) for kind in ContractionKind}
        for keys in SLOT_LISTS:
            got = [(r.feasible, r.minimal_k, r.witness_max, r.infeasible_witness) for r in _value_scan(pairs, dist, apply_map, keys)]
            assert got == [expected[kind] for kind, _ in keys], keys
        for kind in ContractionKind:
            rep = scan_value_pairs(kind, pairs, dist, apply_map)
            assert (rep.feasible, rep.minimal_k, rep.witness_max, rep.infeasible_witness) == expected[kind], kind


def test_a_configuration_is_compiled_once(accepted_instances, monkeypatch):
    monkeypatch.setattr(contraction, "_KERNELS", {})
    built = []
    kernel = contraction._kernel
    monkeypatch.setattr(contraction, "_kernel", lambda *key: built.append(key) or kernel(*key))
    for space, mapping in accepted_instances[:5]:
        for keys in CLI_BATCHES.values():
            contraction._pass(space, space.int_metric, mapping.images, keys)
    assert len(built) == len(set(built)) == len(contraction._KERNELS) >= len(CLI_BATCHES)


def test_kernel_sources_hold_no_value_or_label(monkeypatch):
    # Distinctive labels and distances; a kernel's source may hold only functional ids, set levels and
    # slot numbers, so every literal in it is None or a small int, and no label or distance appears.
    monkeypatch.setattr(contraction, "_KERNELS", {})
    n = 5
    labels = [f"label-{7919 * (i + 1)}" for i in range(n)]
    metric = [[0 if i == j else 982451653 + 104729 * (i + j) for j in range(n)] for i in range(n)]
    space = FiniteSpace(labels, metric, [(i, j) for i in range(n) for j in range(n) if (i + 2 * j) % 3])
    mapping = SelfMap([(3 * i + 1) % n for i in range(n)])
    for keys in SLOT_LISTS:
        contraction._pass(space, space.int_metric, mapping.images, keys)
    scan_value_pairs(ContractionKind.KANNAN, [(1, 2), (2, 1)], lambda a, b: abs(a - b) * 982451653, lambda v: v // 2)
    assert contraction._KERNELS
    for kernel in contraction._KERNELS.values():
        name = kernel.__code__.co_filename
        assert name.startswith("<orthofix scan kernel ") and name.endswith(">"), name
        source = "".join(kernel.lines[2])
        tree = ast.parse(source, feature_version=(3, 10))  # requires-python is >=3.10
        literals = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        assert literals <= {None, *range(max(7, *map(len, SLOT_LISTS)))}, (name, literals)
        assert not any(text in source + name for text in ("label", "982451653", "104729", "7919")), name


class _Refusing(int):
    """A distance that refuses to be compared."""

    def __gt__(self, other):
        raise ArithmeticError("this distance cannot be compared")


def test_a_traceback_inside_a_kernel_shows_the_generated_line():
    with pytest.raises(ArithmeticError) as info:
        scan_value_pairs(ContractionKind.BANACH_PERP, [(0, 1)], lambda a, b: _Refusing(abs(a - b)), lambda v: v)
    frame = traceback.extract_tb(info.value.__traceback__)[-2]
    assert frame.filename.startswith("<orthofix scan kernel list 0@0")
    assert frame.line == "if k0 > 0:"
    assert "    if k0 > 0:" in "".join(traceback.format_exception(info.value))
