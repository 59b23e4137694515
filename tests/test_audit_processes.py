"""The audit's phases split across forked processes and fold back in seed order.

A trial is a pure function of its seed, so the summary must not depend on
how many processes walked the seed list or on how early the shared board
stopped them: the tests compare a split run with the one-process run
(`_usable_cpus` patched to 1) and with a loop, written here, that runs one
seed at a time.  Three processes give an uneven stride.  Failures must
cross the pipe in order (a certificate failure of the solver is a failure
of its trial, not an abort), the exception raised must be the first in seed
order, as the one-at-a-time loop raises it, and no child may outlive the
call.
"""

import json
import mmap
import os
import random
import threading
import time
from fractions import Fraction

import pytest

from orthofix import CertificateError, GenParams, InputError, OrthofixError, oracle, theorem_audit
from orthofix.cli import main
from orthofix.spacefile import space_to_dict
from cli_runner import CliRunner


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children the audit forks (a child's own calls are not seen)."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _cpus(monkeypatch, n):
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: n)


def _first_seeds(params, count=None):
    """The master stream's first `count` seeds, by default `params.trials` of them."""
    master = random.Random(params.seed)
    return [master.getrandbits(64) for _ in range(params.trials if count is None else count)]


def _one_at_a_time(params):
    """The audit's summary from a loop that runs one seed at a time until the target is met."""
    master = random.Random(params.seed)
    trials = []
    accepted = 0
    while accepted < params.trials:
        trials.append(oracle._trial(params, master.getrandbits(64)))
        accepted += trials[-1].accepted
    failures = tuple(trial.failure for trial in trials if trial.failure is not None)
    return oracle.AuditSummary(
        params=params,
        trials_run=accepted,
        conclusion_verified=accepted - len(failures),
        failures=failures,
        spaces_generated=len(trials),
        maps_tried=sum(trial.maps_tried for trial in trials),
        spaces_without_accepted_map=len(trials) - accepted,
        hierarchy_failures=sum(trial.hierarchy_failures for trial in trials),
        traces_checked=sum(trial.traces_checked for trial in trials),
    ).to_dict()


def _key(space):
    return json.dumps(space_to_dict(space), sort_keys=True)


def _assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize(
    "params",
    [
        GenParams(seed=0, trials=40),
        GenParams(seed=1, trials=40, relation_density=1),
        GenParams(seed=2, trials=40, max_points=3),
        GenParams(seed=0, trials=20, max_points=32),  # most spaces run out of map attempts
    ],
    ids=lambda p: f"seed{p.seed}-n{p.max_points}",
)
def test_split_run_equals_in_process_run(params, monkeypatch, forks):
    # Every phase that misses two or more trials splits, down to the last few missing trials.
    monkeypatch.setattr(oracle, "_SEEDS_PER_PROCESS", 1)
    _cpus(monkeypatch, 1)
    serial = theorem_audit(params).to_dict()
    assert forks == []
    for cpus in (2, 3):
        _cpus(monkeypatch, cpus)
        forks.clear()
        assert theorem_audit(params).to_dict() == serial
        assert len(forks) >= cpus - 1
        _assert_reaped(forks)


def test_default_split_needs_enough_seeds_per_process(monkeypatch, forks):
    _cpus(monkeypatch, 8)
    theorem_audit(GenParams(seed=0, trials=31))
    assert forks == []  # 31 seeds: one process
    theorem_audit(GenParams(seed=0, trials=100))
    assert len(forks) == 2  # one phase of 216 seeds for 100 trials: three processes, and no second phase


def _failing_audit_at_1_and_2_cpus(monkeypatch, tmp_path):
    """`audit --trials 64 --seed 4 --json --dump-dir` at 1 and 2 CPUs: {cpus: (stdout, dump files)}; each exits 1."""
    outputs = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        dump = tmp_path / f"cpus{cpus}"
        result = CliRunner().invoke(main, ["audit", "--trials", "64", "--seed", "4", "--dump-dir", str(dump), "--json"])
        assert result.exit_code == 1, result.output
        files = {path.name: path.read_bytes() for path in sorted(dump.iterdir())}
        outputs[cpus] = (result.output, files)
    return outputs


def test_planted_failures_cross_the_pipe_in_seed_order(monkeypatch, tmp_path, forks):
    params = GenParams(seed=4, trials=64)
    odd = [s for s in _first_seeds(params)[1::2] if oracle._trial(params, s).accepted]
    chosen = odd[:3:2]  # two accepted trials at odd positions, in the second process's share
    planted_spaces = {_key(oracle.generate_space(params, random.Random(seed))) for seed in chosen}
    audit_instance = oracle._audit_instance

    def planted(space, mapping):
        problems, traces = audit_instance(space, mapping)
        if _key(space) in planted_spaces:
            problems.append("planted discrepancy")
        return problems, traces

    monkeypatch.setattr(oracle, "_audit_instance", planted)
    outputs = _failing_audit_at_1_and_2_cpus(monkeypatch, tmp_path)
    assert len(forks) == 1
    assert outputs[1] == outputs[2]
    report = json.loads(outputs[2][0])
    assert [f["seed"] for f in report["failures"]] == chosen
    assert sorted(outputs[2][1]) == sorted(f"failure_{seed}.json" for seed in chosen)


def test_certificate_failure_is_recorded_with_its_seed(monkeypatch, tmp_path, forks):
    # A trace the solver refuses is a discrepancy of its trial, not an abort of the audit.
    params = GenParams(seed=4, trials=64)
    odd = [s for s in _first_seeds(params)[1::2] if oracle._trial(params, s).accepted]
    chosen = odd[0]  # an accepted trial in the second process's share
    planted_space = _key(oracle.generate_space(params, random.Random(chosen)))
    solve = oracle.picard_solve

    def refusing(space, mapping, start, **options):
        if _key(space) == planted_space:
            raise CertificateError("planted certificate failure")
        return solve(space, mapping, start, **options)

    monkeypatch.setattr(oracle, "picard_solve", refusing)
    outputs = _failing_audit_at_1_and_2_cpus(monkeypatch, tmp_path)
    assert len(forks) == 1
    assert outputs[1] == outputs[2]
    report = json.loads(outputs[2][0])
    (failure,) = report["failures"]
    assert failure["seed"] == chosen
    assert failure["discrepancy"].startswith("Picard from ")
    assert "planted certificate failure" in failure["discrepancy"]
    assert sorted(outputs[2][1]) == [f"failure_{chosen}.json"]


def _failing_trial(monkeypatch, positions, params, fail):
    seeds = _first_seeds(params)
    targets = {seeds[position] for position in positions}
    trial = oracle._trial

    def failing(params, seed):
        if seed in targets:
            fail(seed)
        return trial(params, seed)

    monkeypatch.setattr(oracle, "_trial", failing)


def _raise_input_error(seed):
    raise InputError(f"planted failure at seed {seed}")


def test_child_exception_is_raised_in_the_parent(monkeypatch, forks):
    params = GenParams(seed=3, trials=96)
    _failing_trial(monkeypatch, (5,), params, _raise_input_error)  # position 5: the share 2::3 of the second child
    _cpus(monkeypatch, 3)
    with pytest.raises(InputError, match=r"^planted failure at seed \d+$") as caught:
        theorem_audit(params)
    assert "raised in audit process" in str(caught.value.__cause__)
    assert len(forks) == 2
    _assert_reaped(forks)


def test_parent_exception_kills_and_reaps_every_child(monkeypatch, forks):
    params = GenParams(seed=3, trials=96)
    _failing_trial(monkeypatch, (0,), params, _raise_input_error)  # the parent's first seed
    _cpus(monkeypatch, 3)
    with pytest.raises(InputError, match="planted failure"):
        theorem_audit(params)
    assert len(forks) == 2
    _assert_reaped(forks)


def test_first_exception_in_seed_order_is_raised_at_every_cpu_count(monkeypatch, forks):
    # Positions 1 and 2 raise: at 2 CPUs the parent runs position 2 and a child position 1, at 3 two children do.
    params = GenParams(seed=3, trials=96)
    first = _first_seeds(params)[1]
    _failing_trial(monkeypatch, (1, 2), params, _raise_input_error)
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        with pytest.raises(InputError, match=rf"^planted failure at seed {first}$") as caught:
            theorem_audit(params)
        assert ("raised in audit process" in str(caught.value.__cause__)) == (cpus > 1)
    assert len(forks) == 3
    _assert_reaped(forks)


@pytest.mark.parametrize("seeds_per_process", [1, oracle._SEEDS_PER_PROCESS])
@pytest.mark.parametrize(
    "params",
    [
        GenParams(seed=11, trials=1),
        GenParams(seed=12, trials=31),
        GenParams(seed=13, trials=32),
        GenParams(seed=14, trials=33),
        GenParams(seed=15, trials=64),
        GenParams(seed=16, trials=40, max_points=32),  # acceptance below a half: a second phase
        GenParams(seed=17, trials=64, relation_density=Fraction(1, 10)),
    ],
    ids=lambda p: f"trials{p.trials}-n{p.max_points}-d{p.relation_density}",
)
def test_summary_equals_a_one_at_a_time_loop(params, seeds_per_process, monkeypatch, forks):
    monkeypatch.setattr(oracle, "_SEEDS_PER_PROCESS", seeds_per_process)
    expected = _one_at_a_time(params)
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        assert theorem_audit(params).to_dict() == expected
    if forks:
        _assert_reaped(forks)


@pytest.mark.parametrize("raise_past", [False, True], ids=["run-past", "raise-past"])
def test_workers_that_never_read_the_stop_byte_give_the_same_summary(raise_past, monkeypatch, forks):
    # Every worker walks its whole stride past the target.  With `raise_past` each raises at its first seed past
    # the target instead: dropped, as the one-at-a-time loop never runs those seeds.
    params = GenParams(seed=8, trials=64)
    expected = _one_at_a_time(params)
    past = set(_first_seeds(params, 2 * params.trials + 16)[expected["spaces_generated"]:])
    parent, ran_past = os.getpid(), []
    trial = oracle._trial

    def watched(params, seed):
        if seed in past:
            if os.getpid() == parent:
                ran_past.append(seed)
            if raise_past:
                raise InputError(f"planted failure past the target at seed {seed}")
        return trial(params, seed)

    class BlindBoard(mmap.mmap):
        def __getitem__(self, index):
            return 0 if index == len(self) - 1 else super().__getitem__(index)

    monkeypatch.setattr(oracle, "_trial", watched)
    monkeypatch.setattr(mmap, "mmap", BlindBoard)
    monkeypatch.setattr(oracle, "_SEEDS_PER_PROCESS", 1)
    for cpus in (2, 3):
        _cpus(monkeypatch, cpus)
        ran_past.clear()
        assert theorem_audit(params).to_dict() == expected
        # The parent ran every seed of its stride past the target, or up to the first, which raised.
        stride = range(0, 2 * params.trials + 16, cpus)
        assert len(ran_past) == (1 if raise_past else sum(p >= expected["spaces_generated"] for p in stride))
    assert len(forks) == 3
    _assert_reaped(forks)


@pytest.mark.parametrize("stop", ["target", "raise"])
def test_workers_stop_at_the_first_position_past_the_stop(stop, monkeypatch, forks):
    # The stop is the position that completes the target, or a raise at position 0 in the parent.  At its first
    # position past the stop each worker waits until the board shows that stop, which must come without any
    # position past it, and then runs that position; a worker that runs a second one fails the test.
    params = GenParams(seed=8, trials=64)
    seeds = _first_seeds(params, 2 * params.trials + 16)
    expected = _one_at_a_time(params)
    past = set(seeds[1:] if stop == "raise" else seeds[expected["spaces_generated"]:])
    boards, parent, ran_past = [], os.getpid(), []  # a forked worker appends to its own copy of `ran_past`

    class WatchedBoard(mmap.mmap):
        def __init__(self, *args):
            boards.append(self)

    def fail(message):
        if os.getpid() == parent:
            pytest.fail(message)  # a BaseException, so the walk does not return it as the trial's exception
        os._exit(3)  # the parent reports a child that ends without results

    trial = oracle._trial

    def planted(params, seed):
        if stop == "raise" and seed == seeds[0]:
            raise InputError("planted failure at position 0")
        if seed in past:
            if ran_past:
                fail("a worker ran a second position past the stop")
            ran_past.append(seed)
            deadline = time.monotonic() + 10
            while not boards[-1][-1 if stop == "target" else 0]:
                if time.monotonic() > deadline:
                    fail("the board never showed the stop")
                time.sleep(0.001)
        return trial(params, seed)

    monkeypatch.setattr(oracle, "_trial", planted)
    monkeypatch.setattr(mmap, "mmap", WatchedBoard)
    monkeypatch.setattr(oracle, "_SEEDS_PER_PROCESS", 1)
    _cpus(monkeypatch, 3)
    if stop == "raise":
        with pytest.raises(InputError, match="planted failure at position 0"):
            theorem_audit(params)
    else:
        assert theorem_audit(params).to_dict() == expected
    assert len(forks) == 2
    _assert_reaped(forks)


def test_one_fork_per_phase(monkeypatch, forks):
    phases = []
    run_phase = oracle._run_phase

    def counted(params, seeds, missing):
        phases.append(missing)
        return run_phase(params, seeds, missing)

    monkeypatch.setattr(oracle, "_run_phase", counted)
    _cpus(monkeypatch, 2)
    theorem_audit(GenParams(seed=7, trials=500))
    assert phases == [500]  # 2 x 500 + 16 seeds, enough at this acceptance, and no phase stops short
    assert len(forks) == 1
    forks.clear()
    theorem_audit(GenParams(seed=5, trials=200, max_points=32))  # acceptance near a half: two phases at most
    assert 1 <= len(forks) <= 2
    _assert_reaped(forks)


def test_child_that_dies_without_results_is_reported(monkeypatch, forks):
    params = GenParams(seed=3, trials=64)
    parent = os.getpid()

    def die(seed):
        if os.getpid() != parent:
            os._exit(3)

    _failing_trial(monkeypatch, (1,), params, die)
    _cpus(monkeypatch, 2)
    with pytest.raises(OrthofixError, match="ended without results"):
        theorem_audit(params)
    _assert_reaped(forks)


def test_no_fork_while_another_thread_runs(monkeypatch):
    params = GenParams(seed=5, trials=64)
    _cpus(monkeypatch, 1)
    expected = theorem_audit(params).to_dict()

    def refuse():
        raise AssertionError("forked with a second thread alive")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert theorem_audit(params).to_dict() == expected
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
