"""Write one workload's inputs for a seed: the set-up that ``setup_s`` times.

    python3 perfbench/make_inputs.py --workload study --seed 1 --out DIR

Runs as its own process so the timing includes interpreter start-up and the
package import a user pays before the first command.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import latent_brrr.cli  # noqa: F401  (the import a CLI user pays)
    from workloads import WORKLOADS

    args.out.mkdir(parents=True, exist_ok=True)
    WORKLOADS[args.workload].make_inputs(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
