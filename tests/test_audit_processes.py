"""The audit's phases split across forked processes and fold back in seed order.

A trial is a pure function of its seed, so the summary must not depend on
how many processes walked the seed list or on how early the shared board
stopped them: the tests compare a split run with the one-process run
(`_usable_cpus` patched to 1) and with a loop, written here, that runs one
seed at a time.  The workers claim pending positions as they go, so which
process runs a seed is left to timing, unless a planted wait fixes it; three
processes share a phase unevenly.  Each worker pins itself to a CPU of its
own, and the caller gets its own set back on every path.  Failures must
come back in seed order (a certificate failure of the solver is a failure
of its trial, not an abort), the exception raised must be the first in seed
order, as the one-at-a-time loop raises it, with its own type at every CPU
count, and no child may outlive the call.
"""

import errno
import gc
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


@pytest.fixture
def boards(monkeypatch):
    """The shared boards of the forked phases, the newest last; `_view` reads one as the workers do."""
    made = []

    class WatchedBoard(mmap.mmap):
        def __init__(self, *args):
            made.append(self)

    monkeypatch.setattr(mmap, "mmap", WatchedBoard)
    return made


def _view(board):
    return memoryview(board).cast("q")


def _wait_until(condition, fail=pytest.fail):
    """Poll `condition` until it holds; `fail` after 10 s."""
    deadline = time.monotonic() + 10
    while not condition():
        if time.monotonic() > deadline:
            fail(f"waited 10 s for {condition.__name__}")
        time.sleep(0.001)


def _first_child_ended(forks):
    def first_child_ended():  # without reaping it: WNOWAIT leaves its status for the audit to collect
        return os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None

    return first_child_ended


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
    chosen = odd[:3:2]  # two accepted trials at odd positions, whichever process claims them
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
    chosen = odd[0]  # an accepted trial at an odd position, whichever process claims it
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
    # Position 5 raises in whichever process claims it; the parent re-runs the seed a child marked.
    params = GenParams(seed=3, trials=96)
    seed = _first_seeds(params)[5]
    _failing_trial(monkeypatch, (5,), params, _raise_input_error)
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        with pytest.raises(InputError, match=rf"^planted failure at seed {seed}$") as caught:
            theorem_audit(params)
        assert caught.value.__cause__ is None
    assert len(forks) == 3
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
    # Positions 1 and 2 raise, in whichever processes claim them: the first in seed order is the one raised.
    params = GenParams(seed=3, trials=96)
    first = _first_seeds(params)[1]
    _failing_trial(monkeypatch, (1, 2), params, _raise_input_error)
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        with pytest.raises(InputError, match=rf"^planted failure at seed {first}$") as caught:
            theorem_audit(params)
        assert caught.value.__cause__ is None
    assert len(forks) == 3
    _assert_reaped(forks)


def test_an_exception_pickle_cannot_carry_keeps_its_type_at_every_cpu_count(monkeypatch, forks):
    class Local(Exception):  # defined here, so pickle cannot find it by name
        pass

    def raise_local(seed):
        raise Local("planted")

    params = GenParams(seed=3, trials=96)
    _failing_trial(monkeypatch, (1,), params, raise_local)  # position 1: a child's first, unless the parent claims it
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        with pytest.raises(Local, match="^planted$"):
            theorem_audit(params)
    assert len(forks) == 3
    _assert_reaped(forks)


def test_a_raise_the_parent_does_not_repeat_counts_as_its_trial(monkeypatch, forks, boards):
    # Position 1 raises in the child only: the child's walk ends there and the stop comes at position 1, so the
    # parent's re-run returns the trial, and the positions past the stop that no worker ran go to the next phase.
    # The parent's first trial waits until the child has raised, so the child, which starts there, claims position 1.
    params = GenParams(seed=3, trials=96)
    expected = _one_at_a_time(params)
    parent, seeds = os.getpid(), _first_seeds(params)

    def position_1_raised():
        return _view(boards[0])[4] == oracle._RAISED

    def in_a_child(seed):
        if os.getpid() != parent:
            raise InputError("planted failure in a child")
        if seed == seeds[0] and boards:
            _wait_until(position_1_raised)

    _failing_trial(monkeypatch, (0, 1), params, in_a_child)
    _cpus(monkeypatch, 2)
    assert theorem_audit(params).to_dict() == expected
    assert len(forks) >= 1
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
def test_workers_that_never_read_the_stop_byte_give_the_same_summary(raise_past, monkeypatch, forks, tmp_path):
    # No worker sees the stop, so between them the workers claim and run every seed of the phase past the target.
    # With `raise_past` each raises at its first seed past the target instead: dropped, as the one-at-a-time loop
    # never runs those seeds.  Every process appends the seeds past the target that it runs to one file.
    params = GenParams(seed=8, trials=64)
    expected = _one_at_a_time(params)
    past = set(_first_seeds(params, 2 * params.trials + 16)[expected["spaces_generated"]:])
    ran_past = tmp_path / "ran_past"
    trial = oracle._trial

    def watched(params, seed):
        if seed in past:
            with open(ran_past, "a") as log:
                log.write(f"{os.getpid()} {seed}\n")
            if raise_past:
                raise InputError(f"planted failure past the target at seed {seed}")
        return trial(params, seed)

    class BlindBoard:
        """The board as a worker sees it, but for the stop slot, its last, which always reads 0."""

        def __init__(self, board):
            self.board = board

        def __getitem__(self, index):
            return 0 if index == len(self.board) - 1 else self.board[index]

        def __setitem__(self, index, value):
            self.board[index] = value

    walk = oracle._walk

    def blind_walk(params, seeds, first, board, missing):
        return walk(params, seeds, first, BlindBoard(board), missing)

    monkeypatch.setattr(oracle, "_trial", watched)
    monkeypatch.setattr(oracle, "_walk", blind_walk)
    monkeypatch.setattr(oracle, "_SEEDS_PER_PROCESS", 1)
    for cpus in (2, 3):
        _cpus(monkeypatch, cpus)
        ran_past.write_text("")
        assert theorem_audit(params).to_dict() == expected
        runs = [line.split() for line in ran_past.read_text().splitlines()]
        if raise_past:  # each worker ran one seed past the target, which raised, and there are more such seeds
            assert len(runs) == len({pid for pid, _ in runs}) == cpus < len(past)
        else:  # every seed past the target, and only those, each claimed by some worker
            assert {int(seed) for _, seed in runs} == past
    assert len(forks) == 3
    _assert_reaped(forks)


@pytest.mark.parametrize("stop", ["target", "raise", "target-all-failed"])
def test_workers_stop_at_the_first_position_past_the_stop(stop, monkeypatch, forks, boards):
    # The stop is the position that completes the target, or a raise at position 0 in the parent.  At its first
    # position past the stop each worker waits until the board shows that stop, which must come without any
    # position past it, and then runs that position; a worker that runs a second one fails the test.  With
    # "target-all-failed" every accepted trial has a discrepancy, and still counts toward the target.
    params = GenParams(seed=8, trials=64)
    if stop == "target-all-failed":
        audit_instance = oracle._audit_instance

        def planted(space, mapping):
            problems, traces = audit_instance(space, mapping)
            return problems + ["planted discrepancy"], traces

        monkeypatch.setattr(oracle, "_audit_instance", planted)
    seeds = _first_seeds(params, 2 * params.trials + 16)
    expected = _one_at_a_time(params)
    past = set(seeds[1:] if stop == "raise" else seeds[expected["spaces_generated"]:])
    parent, ran_past = os.getpid(), []  # a forked worker appends to its own copy of `ran_past`

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
            _wait_until(board_shows_the_stop, fail)
        return trial(params, seed)

    def board_shows_the_stop():  # position 0 raised (not only claimed), or the stop slot set
        board = _view(boards[-1])
        return board[0] == oracle._RAISED if stop == "raise" else board[-1]

    monkeypatch.setattr(oracle, "_trial", planted)
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
    # Every trial a child runs ends the child.  The parent's first trial waits until the child has died, so the
    # child claims a position (it starts at position 1), and the parent then runs every other one.
    params = GenParams(seed=3, trials=64)
    parent = os.getpid()
    trial = oracle._trial

    def die(params, seed):
        if os.getpid() != parent:
            os._exit(3)
        _wait_until(_first_child_ended(forks))
        return trial(params, seed)

    monkeypatch.setattr(oracle, "_trial", die)
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


def _record_pins(monkeypatch, tmp_path, then):
    """Log every `os.sched_setaffinity(pid, cpus)` call of this process and of its forked children, then pass it on to
    `then`; returns the log's reader, a list of (the calling process, pid, sorted cpus) in call order."""
    log = tmp_path / "pins"
    log.write_text("")

    def recorded(pid, cpus):
        with open(log, "a") as out:
            out.write(json.dumps([os.getpid(), pid, sorted(cpus)]) + "\n")
        then(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", recorded)
    return lambda: [tuple(json.loads(line)) for line in log.read_text().splitlines()]


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_each_worker_asks_for_a_cpu_of_its_own_while_they_last(workers, monkeypatch, tmp_path, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {9, 3, 5})  # the set the audit reads; no pin is made
    requests = _record_pins(monkeypatch, tmp_path, lambda pid, cpus: None)
    monkeypatch.setattr(oracle, "_SEEDS_PER_PROCESS", 1)
    _cpus(monkeypatch, workers)
    params = GenParams(seed=7, trials=40)
    assert theorem_audit(params).to_dict() == _one_at_a_time(params)
    assert len(forks) == workers - 1  # one phase
    made, parent = requests(), os.getpid()
    assert {pid for _, pid, _ in made} == {0}  # each process pins itself and no other
    assert [cpus for by, _, cpus in made if by == parent] == [[3], [3, 5, 9]]  # its CPU, then its set back
    children = [(by, cpus) for by, _, cpus in made if by != parent]
    assert sorted(by for by, _ in children) == sorted(forks)  # one request each
    assert sorted(cpus for _, cpus in children) == sorted([[5], [9], [3]][: workers - 1])
    _assert_reaped(forks)


class _Planted(BaseException):
    """Raised out of a walk, past the `except Exception` that marks a trial's exception on the board."""


@pytest.mark.parametrize("path", ["normal end", "child raises", "child dies", "caller raises"])
def test_the_caller_gets_its_own_cpus_back_on_every_path(path, monkeypatch, tmp_path, forks):
    # The requests are made.  Before its first trial the caller waits until the child has ended, where the child
    # ends early, so the child has claimed a position by then.
    own = os.sched_getaffinity(0)
    requests = _record_pins(monkeypatch, tmp_path, os.sched_setaffinity)
    params = GenParams(seed=3, trials=64)
    expected = _one_at_a_time(params)
    parent, trial = os.getpid(), oracle._trial

    def planted(params, seed):
        if os.getpid() != parent:
            if path == "child raises":
                raise _Planted
            if path == "child dies":
                os._exit(3)
        elif path == "caller raises":
            raise _Planted
        elif path != "normal end":
            _wait_until(_first_child_ended(forks))
        return trial(params, seed)

    monkeypatch.setattr(oracle, "_trial", planted)
    _cpus(monkeypatch, 2)
    if path == "normal end":
        assert theorem_audit(params).to_dict() == expected
    else:
        raised, match = {"child raises": (OrthofixError, r"\(exit code 1\)$"), "child dies": (OrthofixError, r"\(exit code 3\)$"),
                         "caller raises": (_Planted, None)}[path]
        with pytest.raises(raised, match=match):
            theorem_audit(params)
    assert os.sched_getaffinity(0) == own
    assert [cpus for by, _, cpus in requests() if by == parent] == [[min(own)], sorted(own)]
    _assert_reaped(forks)


@pytest.mark.parametrize("failure", ["missing", "refused"])
def test_an_audit_that_cannot_pin_runs_unpinned(failure, monkeypatch, tmp_path, forks):
    # Without the call, or with every request refused, the workers run where they are and the summary stands.
    params = GenParams(seed=5, trials=64)
    expected = _one_at_a_time(params)
    if failure == "missing":
        monkeypatch.delattr(os, "sched_setaffinity")
    else:
        def refuse(pid, cpus):
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))

        requests = _record_pins(monkeypatch, tmp_path, refuse)
    monkeypatch.setattr(oracle, "_SEEDS_PER_PROCESS", 1)
    for cpus in (2, 3):
        _cpus(monkeypatch, cpus)
        assert theorem_audit(params).to_dict() == expected
    _assert_reaped(forks)
    if failure == "refused":  # every worker asked, and none ended for the refusal
        assert {by for by, _, _ in requests()} == {os.getpid(), *forks}


def test_a_one_process_phase_never_pins(monkeypatch, tmp_path, forks):
    requests = _record_pins(monkeypatch, tmp_path, os.sched_setaffinity)
    _cpus(monkeypatch, 1)
    theorem_audit(GenParams(seed=5, trials=64))
    _cpus(monkeypatch, 8)
    theorem_audit(GenParams(seed=0, trials=31))  # too few trials missing to split
    assert forks == []
    assert requests() == []


def test_a_slow_child_leaves_its_positions_to_the_parent(monkeypatch, forks):
    # Each trial in the child sleeps 0.1 s first.  With fixed strides the parent would run half the positions.
    params = GenParams(seed=8, trials=64)
    expected = _one_at_a_time(params)
    parent, ran, trial = os.getpid(), [], oracle._trial

    def slow_child(params, seed):
        if os.getpid() == parent:
            ran.append(seed)
        else:
            time.sleep(0.1)
        return trial(params, seed)

    monkeypatch.setattr(oracle, "_trial", slow_child)
    _cpus(monkeypatch, 2)
    assert theorem_audit(params).to_dict() == expected
    assert len(forks) == 1  # one phase
    kept = set(_first_seeds(params, expected["spaces_generated"]))
    assert 4 * len(kept.intersection(ran)) > 3 * len(kept)
    _assert_reaped(forks)


def test_a_worker_passes_over_a_position_another_has_done(monkeypatch, forks, boards, tmp_path):
    # The parent's first trial waits until the child has claimed position 1, and the child's trial there waits until
    # the parent has done position 2; the child then goes on from position 2, which it must not run again.
    params = GenParams(seed=8, trials=64)
    expected = _one_at_a_time(params)
    parent, seeds, trial = os.getpid(), _first_seeds(params), oracle._trial
    child_ran = tmp_path / "child_ran"
    child_ran.write_text("")

    def position_1_claimed():
        return _view(boards[0])[4] != 0

    def position_2_done():
        return _view(boards[0])[8] > oracle._CLAIMED

    def ordered(params, seed):
        if os.getpid() != parent:
            with open(child_ran, "a") as log:
                log.write(f"{seed}\n")
        if seed == seeds[0] and boards:
            _wait_until(position_1_claimed)
        if seed == seeds[1] and os.getpid() != parent:
            _wait_until(position_2_done, lambda message: os._exit(3))
        return trial(params, seed)

    monkeypatch.setattr(oracle, "_trial", ordered)
    _cpus(monkeypatch, 2)
    assert theorem_audit(params).to_dict() == expected
    ran = [int(line) for line in child_ran.read_text().splitlines()]
    assert ran[0] == seeds[1]
    assert seeds[2] not in ran
    _assert_reaped(forks)


def test_a_position_claimed_but_never_done_goes_to_the_next_phase(monkeypatch, forks):
    # The child claims position 1 and ends with exit code 0 without writing its trial; the parent waits for that
    # before its first trial.  The phase ends before position 1, and the next one runs that seed first.
    params = GenParams(seed=8, trials=64)
    expected = _one_at_a_time(params)
    parent, seeds, trial = os.getpid(), _first_seeds(params), oracle._trial

    def vanishing(params, seed):
        if os.getpid() != parent and seed == seeds[1]:
            os._exit(0)
        if seed == seeds[0] and len(forks) == 1:
            _wait_until(_first_child_ended(forks))
        return trial(params, seed)

    monkeypatch.setattr(oracle, "_trial", vanishing)
    _cpus(monkeypatch, 2)
    assert theorem_audit(params).to_dict() == expected
    assert len(forks) >= 2  # a second phase
    _assert_reaped(forks)


def test_an_audit_leaves_no_cycles_for_the_collector():
    # A process runs with the cyclic collector off (`cli.process_main`), so any cycle an audit made would stay.
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        theorem_audit(GenParams(seed=1, trials=3000))
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
