"""One grid run in a fresh process: ``python3 child.py <job.json>``.

The job names the experiment configuration, whether to trace, and where to
write the result.  Everything before the ``run_suite`` call (interpreter
start, ``import fedtab``, config validation) is set-up; the parent measures
it from the spawn to the ``entry`` timestamp written here.  CPU time covers
this process and any children it waited for, over the ``run_suite`` call.
"""

import json
import resource
import sys
import time


def _cpu_seconds() -> float:
    """User plus system CPU of this process and the children it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> int:
    job = json.loads(open(sys.argv[1], encoding="utf-8").read())
    import fedtab.experiment
    from fedtab.config import config_from_dict

    cfg = config_from_dict(job["config"], where="bench")
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run_suite = fedtab.experiment.run_suite

    entry = time.monotonic()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    run_suite(cfg)
    wall = time.perf_counter() - t0
    result = {"entry": entry, "wall_s": wall, "cpu_s": _cpu_seconds() - cpu0}
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
