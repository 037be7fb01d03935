"""Worst finite-difference chain errors over a fixed sweep of oracle seeds.

    PYTHONPATH=src python scripts/oracle_sweep.py

For 100 and then 500 states per chain, and each seed 12345-12356, prints
every chain's worst relative errors (lower derivatives, then the top
derivative) from check_all_chains, and the wall time of that call in
seconds. It reports only: it has no pass or fail and no options.
"""

import time

from quadsafe.barriers import BarrierDomain
from quadsafe.oracle import check_all_chains

SEEDS = range(12345, 12357)
STATES = (100, 500)


def main() -> int:
    print("states   seed  " + "  ".join(f"{d.value + ' lower/top':>30}" for d in BarrierDomain)
          + "  wall_s")
    for n_states in STATES:
        for seed in SEEDS:
            t0 = time.perf_counter()
            checks = check_all_chains(n_states, seed)
            wall = time.perf_counter() - t0
            errors = "  ".join(f"{c.max_rel_lower:>20.2e} {c.max_rel_top:9.2e}" for c in checks)
            print(f"{n_states:6d} {seed:6d}  {errors}  {wall:6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
