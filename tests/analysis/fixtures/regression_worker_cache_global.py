"""The worker-side global cache ROP013 caught in ``placement.failure``.

This mirrors the failure sweep as it stood when the effect rules were
introduced: the submitted worker looks pure, but the helper it calls
memoises per-payload state in a module-global dict. Serially that is
harmless; under a process pool a forked worker inherits a warm cache, a
spawned one starts cold, and a reused worker carries state from one
payload into the next. The fixed shape (see
``regression_worker_cache_fixed.py``) hangs the scratch off the payload
instance instead.
"""

_SWEEP_SCRATCH: dict = {}


def _build_scratch(payload):
    return {"translations": {}, "evaluators": {}, "payload": payload}


def _scratch_for(payload):
    key = id(payload)
    if key not in _SWEEP_SCRATCH:
        _SWEEP_SCRATCH.clear()
        _SWEEP_SCRATCH[key] = _build_scratch(payload)
    return _SWEEP_SCRATCH[key]


def _failure_case_worker(payload, case):
    scratch = _scratch_for(payload)
    return len(scratch["translations"]) + case


def sweep(executor, payload, cases):
    with executor.session(payload) as session:
        return list(session.map(_failure_case_worker, cases))
