"""The post-fix sweep worker: the scratch travels with the payload.

Identical to ``regression_worker_cache_global.py`` except the memo is
attached lazily to the payload instance — each worker process holds its
own unpickled payload copy, so the cache stays process-local with no
module-level state, and ``__getstate__`` keeps it out of pickles.
"""


class SweepPayload:
    def __init__(self, demands):
        self.demands = demands

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_scratch", None)
        return state


def _build_scratch(payload):
    return {"translations": {}, "evaluators": {}, "payload": payload}


def _scratch_for(payload):
    scratch = getattr(payload, "_scratch", None)
    if scratch is None:
        scratch = _build_scratch(payload)
        payload._scratch = scratch
    return scratch


def _failure_case_worker(payload, case):
    scratch = _scratch_for(payload)
    return len(scratch["translations"]) + case


def sweep(executor, payload, cases):
    with executor.session(payload) as session:
        return list(session.map(_failure_case_worker, cases))
