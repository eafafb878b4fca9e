"""One set-up sample, run in a fresh interpreter by run.py.

With numpy already imported, times `import structexp` plus a first
`expm_auto` on one member of each of the 24 families. The frozen series is
timed on the same members before and after, as the clock that set-up time is
calibrated against. Prints, in seconds of process CPU time: the set-up, the
frozen-series time per call, and the set-up in wall-clock time.

    python3 bench/setup_probe.py <src dir> <seed>
"""

import sys
import time

import numpy as np

import frozen
from inputs import FAMILY_TAGS, family_member

CALIB_PASSES = 4


def frozen_call_seconds(members):
    c0 = time.process_time()
    for _ in range(CALIB_PASSES):
        for a in members:
            frozen.expm_series(a)
    return (time.process_time() - c0) / (CALIB_PASSES * len(members))


def main() -> None:
    src, seed = sys.argv[1], int(sys.argv[2])
    rng = np.random.default_rng(seed)
    members = [family_member(tag, rng) for tag in FAMILY_TAGS]
    before = frozen_call_seconds(members)
    sys.path.insert(0, src)
    w0, c0 = time.perf_counter(), time.process_time()
    import structexp
    for a in members:
        structexp.expm_auto(a)
    cpu, wall = time.process_time() - c0, time.perf_counter() - w0
    after = frozen_call_seconds(members)
    print(repr(cpu), repr((before + after) / 2), repr(wall))


if __name__ == "__main__":
    main()
