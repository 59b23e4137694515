"""The audit's batches split across forked processes and fold back in seed order.

A trial is a pure function of its seed, so the summary must not depend on
how many processes ran the batch: every test compares a split run with the
one-process run (`_usable_cpus` patched to 1).  Three processes give an
uneven stride.  Failures must cross the pipe in order (a certificate failure
of the solver is a failure of its trial, not an abort), a child's exception
must surface in the parent, and no child may outlive the call.
"""

import json
import os
import random
import threading

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


def _first_batch(params):
    master = random.Random(params.seed)
    return [master.getrandbits(64) for _ in range(params.trials)]


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
    # Every batch of two or more seeds splits, down to the last few missing trials.
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
    assert len(forks) == 2  # 100 seeds, then 20: three processes, then one


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
    odd = [s for s in _first_batch(params)[1::2] if oracle._trial(params, s).accepted]
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
    odd = [s for s in _first_batch(params)[1::2] if oracle._trial(params, s).accepted]
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


def _failing_trial(monkeypatch, position, params, fail):
    target = _first_batch(params)[position]
    trial = oracle._trial

    def failing(params, seed):
        if seed == target:
            fail(seed)
        return trial(params, seed)

    monkeypatch.setattr(oracle, "_trial", failing)


def _raise_input_error(seed):
    raise InputError(f"planted failure at seed {seed}")


def test_child_exception_is_raised_in_the_parent(monkeypatch, forks):
    params = GenParams(seed=3, trials=96)
    _failing_trial(monkeypatch, 5, params, _raise_input_error)  # position 5: the share 2::3 of the second child
    _cpus(monkeypatch, 3)
    with pytest.raises(InputError, match=r"^planted failure at seed \d+$") as caught:
        theorem_audit(params)
    assert "raised in audit process" in str(caught.value.__cause__)
    assert len(forks) == 2
    _assert_reaped(forks)


def test_parent_exception_kills_and_reaps_every_child(monkeypatch, forks):
    params = GenParams(seed=3, trials=96)
    _failing_trial(monkeypatch, 0, params, _raise_input_error)  # the parent's first seed
    _cpus(monkeypatch, 3)
    with pytest.raises(InputError, match="planted failure"):
        theorem_audit(params)
    assert len(forks) == 2
    _assert_reaped(forks)


def test_child_that_dies_without_results_is_reported(monkeypatch, forks):
    params = GenParams(seed=3, trials=64)
    parent = os.getpid()

    def die(seed):
        if os.getpid() != parent:
            os._exit(3)

    _failing_trial(monkeypatch, 1, params, die)
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
