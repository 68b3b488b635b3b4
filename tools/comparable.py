"""The CI smokes' definition of "the same report".

comparable(report) mirrors runner::comparable(): it drops the volatile
fields (timings, rss, metadata, worker_events, counters) and the plan
options that only say how a run was distributed, and returns the rest as
canonical JSON text, so two reports of one plan compare with ==.

Usage from a CI step that runs in build/:

    import sys; sys.path.insert(0, "../tools")
    from comparable import comparable
"""

import json


def comparable(r):
    r = json.loads(json.dumps(r))  # deep copy
    for k in ("total_wall_s", "total_cpu_s", "peak_rss_bytes",
              "queue_wait_s", "metadata", "worker_events", "counters"):
        r.pop(k, None)
    for s in r["stages"]:
        s.pop("wall_s", None)
        s.pop("cpu_s", None)
    for a in r["analyses"]:
        a.pop("wall_s", None)
    for k in ("workers", "shard_timeout", "max_retries", "fault"):
        r["plan"]["options"].pop(k, None)
    return json.dumps(r, sort_keys=True)
