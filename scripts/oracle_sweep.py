"""Worst finite-difference chain errors over a fixed sweep of oracle starts.

    PYTHONPATH=src python scripts/oracle_sweep.py

For 100 and then 500 states per chain, and each start index (seed) of a
fixed list spread over [0, 2^62], prints every chain's worst relative
errors (lower derivatives, then the top derivative) from check_all_chains,
and the wall time of that call in seconds. The starts are spread because
consecutive starts share all but one Kronecker point. It reports only: it
has no pass or fail and no options.
"""

import time

from quadsafe.barriers import BarrierDomain
from quadsafe.oracle import check_all_chains

STARTS = (0, 12345, 10**6, 10**9, 2**32, 2**40, 2**52, 2**62)
STATES = (100, 500)


def main() -> int:
    print(f"states {'start':>19}  "
          + "  ".join(f"{d.value + ' lower/top':>30}" for d in BarrierDomain) + "  wall_s")
    for n_states in STATES:
        for start in STARTS:
            t0 = time.perf_counter()
            checks = check_all_chains(n_states, start)
            wall = time.perf_counter() - t0
            errors = "  ".join(f"{c.max_rel_lower:>20.2e} {c.max_rel_top:9.2e}" for c in checks)
            print(f"{n_states:6d} {start:19d}  {errors}  {wall:6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
