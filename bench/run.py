"""Run one benchmark workload and print its result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the benchmark measures the ``xattn`` under the ``src``
directory of the checkout it sits in. Inputs are cached under
``.bench_cache`` at the checkout root. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones). The
line before it holds details: sample counts, error rate, P@k and any
failed checks.
"""

from __future__ import annotations

import argparse
import json
import sys

import checkout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout.pin_blas_threads()
    checkout.use_checkout_xattn()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    result = workloads.run(
        workloads.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        checkout.ROOT / ".bench_cache",
    )
    print(json.dumps(result.pop("detail")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
