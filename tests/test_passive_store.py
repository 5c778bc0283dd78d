"""The passive row store of windowed verifies: reused row storage never
changes a held report's rows, and every call gives the bits of a fresh
process, across failures and threads."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rdvsafe
from rdvsafe import (Box, default_scenario, partition_window, verifier, verify,
                     verify_windowed)
from rdvsafe.numsim import MODE_PASSIVE

# Abort-window widths that split the default [7200, 7500] s window into W =
# 1, 5 and 15 subwindows.
WIDTHS = {1: 300.0, 5: 60.0, 15: 20.0}
VARIANTS = ("lin_prox", "lin_prox_th_tracking")      # 4 and 6 dims


def _scenario(variant="lin_prox", shift=0.0, separation=None):
    """The default mission at h = 10 s, its start moved shift metres along x;
    a separation half-width (m) makes the passive pipes hit."""
    sc = default_scenario(h=10.0, variant=variant,
                          property_overrides=(None if separation is None
                                              else {"separation_halfwidth_m": separation}))
    return replace(sc, init=Box(lo=sc.init.lo + [shift, 0, 0, 0], hi=sc.init.hi + [shift, 0, 0, 0]))


def _digest(rep) -> tuple:
    """Everything a report says, segment and violation bytes included."""
    return (rep.verdict, rep.reason,
            [(s.mode, s.t_lo0, s.t_hi0, s.lo.tobytes(), s.hi.tobytes(), s.hits.tobytes())
             for s in rep.segments],
            [(v.property, v.mode, v.time_s, v.step, v.witness_lo.tobytes(),
              v.witness_hi.tobytes()) for v in rep.violations])


def _hash(rep) -> str:
    return hashlib.sha256(repr(_digest(rep)).encode()).hexdigest()


def _passive(rep):
    return [s for s in rep.segments if s.mode == MODE_PASSIVE]


def _fresh_process_hashes(cases) -> list[str]:
    """_hash of verify_windowed(_scenario(**kw), w) for each (kw, w) of cases,
    each computed as the first call of a new interpreter."""
    src = str(Path(rdvsafe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))}
    code = ("import json, sys, test_passive_store as t\n"
            "kw, w = json.loads(sys.argv[1])\n"
            "print(t._hash(t.verify_windowed(t._scenario(**kw), w)))\n")
    hashes = []
    for case in cases:
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(case)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.strip())
    return hashes


def _poison_kept_storage():
    """Fill the store's kept buffers with NaN and True, so a row a call does
    not write shows in its bytes."""
    for buf in verifier._PASSIVE_ROWS._kept.values():
        buf[...] = np.nan if buf.dtype.kind == "f" else True


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("W", sorted(WIDTHS))
def test_a_held_report_keeps_its_rows_across_later_calls(variant, W):
    sc = _scenario(variant, separation=50.0)
    held = verify_windowed(sc, WIDTHS[W])
    assert len(_passive(held)) == W and held.verdict == "unsafe"
    before = _digest(held)
    base = _passive(held)[0].lo.base
    # Later calls of every shape, whose rows would land on the held rows if
    # the store handed out their storage.
    for other in VARIANTS:
        for w in WIDTHS.values():
            later = verify_windowed(_scenario(other, shift=30.0), w)
            assert later.segments and _passive(later)[0].lo.base is not base
            del later
    assert verifier._PASSIVE_ROWS._kept[float] is not base
    _poison_kept_storage()
    verify_windowed(_scenario(variant, shift=-30.0), WIDTHS[W])
    assert _digest(held) == before


def test_a_dropped_report_gives_its_storage_to_the_next_call_with_fresh_bits():
    cases = [({"variant": v, "shift": 20.0, "separation": 50.0}, w)
             for v in VARIANTS for w in (WIDTHS[5], WIDTHS[15])]
    verify_windowed(_scenario("lin_prox_th_tracking", shift=-40.0), WIDTHS[15])  # the largest
    got = []
    for kw, w in cases:
        addrs = {dtype: buf.ctypes.data for dtype, buf in verifier._PASSIVE_ROWS._kept.items()}
        _poison_kept_storage()
        rep = verify_windowed(_scenario(**kw), w)
        # Nothing viewed the storage, so the call wrote the same buffers.
        assert {s.lo.base.ctypes.data for s in _passive(rep)} == {addrs[float]}
        assert {s.hits.base.ctypes.data for s in _passive(rep)} == {addrs[bool]}
        got.append(_hash(rep))
        del rep
    assert got == _fresh_process_hashes(cases)
    # One window takes fresh rows and leaves the kept storage alone.
    kept = list(verifier._PASSIVE_ROWS._kept.values())
    rep = verify(_scenario())
    assert all(a is b for a, b in zip(verifier._PASSIVE_ROWS._kept.values(), kept, strict=True))
    assert all(_passive(rep)[0].lo.base is not buf for buf in kept)


def _assert_next_call_is_correct(sc, w, ref):
    """The call after a failed one reuses the storage the failure left, rows
    of its pipes included, and gives the bits ref of an earlier call."""
    # The failure's exception, traceback and frames form a cycle that views
    # the storage until the collector frees it.
    gc.collect()
    addr = verifier._PASSIVE_ROWS._kept[float].ctypes.data
    rep = verify_windowed(sc, w)
    assert _passive(rep)[0].lo.base.ctypes.data == addr
    assert _digest(rep) == ref


def test_a_window_that_covers_no_sample_leaves_the_next_call_correct():
    sc, w = _scenario(separation=50.0), WIDTHS[5]
    ref = _digest(verify_windowed(sc, w))
    # The only samples by t2 = 7 s lie at 0 s: window [5, 6] holds none.
    with pytest.raises(ValueError, match=r"window \[5.0, 6.0\] covers no reachable sample"):
        verify_windowed(replace(_scenario(), t1=5.0, t2=7.0), 1.0)
    _assert_next_call_is_correct(sc, w, ref)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_an_overflow_leaves_the_next_call_correct():
    sc, w = _scenario(separation=50.0), WIDTHS[15]
    ref = _digest(verify_windowed(sc, w))
    model = verifier._model_of(sc)
    segments = verifier._rendezvous_pipes(model, verifier._initial(model, sc.init), t_end=sc.t2)
    # Passive sets grow 4-fold a step: every pipe overflows inside its first
    # blocks, after the earlier pipes have written their rows.
    grows = replace(model, phis={**model.phis, MODE_PASSIVE: 4.0 * np.eye(model.aut.dim)})
    with pytest.raises(verifier.InconclusiveError, match="numerical overflow"):
        verifier._passive_segment(grows, segments, partition_window(sc.t1, sc.t2, w),
                                  sc.horizon)
    _assert_next_call_is_correct(sc, w, ref)


def test_held_reports_keep_at_most_one_buffer_beyond_their_rows():
    reports, bases = [], []
    for shift in (0.0, 10.0, 20.0, 30.0):
        reports.append(verify_windowed(_scenario(shift=shift), WIDTHS[15]))
        bases.append(weakref.ref(_passive(reports[-1])[0].lo.base))
    # Each held report has its own storage; the store keeps the newest.
    assert len({id(ref()) for ref in bases}) == len(reports)
    assert verifier._PASSIVE_ROWS._kept[float] is bases[-1]()
    reports.clear()
    assert [ref() is None for ref in bases] == [True, True, True, False]


def test_threads_get_the_bits_of_sequential_calls():
    cases = [(_scenario(v, shift=s, separation=50.0), w)
             for v in VARIANTS for s in (0.0, 25.0) for w in (WIDTHS[5], WIDTHS[15])]
    want = [_digest(verify_windowed(sc, w)) for sc, w in cases]
    threads_n, rounds = (os.cpu_count() or 1) + 3, 3
    errors: list[str] = []

    def work(i):
        held = []
        try:
            for r in range(rounds):
                for j in range(len(cases)):
                    k = (i + j + r) % len(cases)
                    rep = verify_windowed(*cases[k])
                    if _digest(rep) != want[k]:
                        errors.append(f"thread {i}, case {k}: bits differ")
                    if j % 2:
                        held.append((k, rep))      # held, so later calls must not reuse it
            errors.extend(f"thread {i}, held case {k}: bits changed"
                          for k, rep in held if _digest(rep) != want[k])
        except Exception as exc:                   # reported by the main thread
            errors.append(f"thread {i}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
            assert not t.is_alive(), "a verify thread did not finish in time"
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
