"""Run a command and fail if its peak resident set size exceeds LIMIT_MB.

    python scripts/peak_rss.py quadsafe run presets:fig7-unified --out out/fig7

Prints the command's peak RSS (``ru_maxrss`` of the waited-for children,
in MB). Exits with the command's own code if it failed, 1 if its peak is
above LIMIT_MB, and 0 otherwise.
"""

import resource
import subprocess
import sys

LIMIT_MB = 100.0


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 1
    code = subprocess.call(argv)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"peak_rss_mb: {peak_mb:.1f} (limit {LIMIT_MB:.0f}): {' '.join(argv)}")
    if code != 0:
        return code
    return 1 if peak_mb > LIMIT_MB else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
