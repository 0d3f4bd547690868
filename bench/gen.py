"""Write one workload's inputs into a directory.

    python3 bench/gen.py OUT_DIR SPEC_JSON VARIANT

SPEC_JSON holds the fields of ``xattn.dataio.SyntheticSpec``. The dataset
goes to ``OUT_DIR/data``. Unless VARIANT is ``none``, a checkpoint of that
variant at seeded initialization goes to ``OUT_DIR/model.xatn``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checkout

DATA_DIR = "data"
CHECKPOINT_NAME = "model.xatn"


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    checkout.pin_blas_threads()
    checkout.use_checkout_xattn()
    from xattn.dataio import SyntheticSpec, generate_synthetic
    from xattn.model import Checkpoint, ModelConfig, Variant, init_params, save_checkpoint

    out, spec_json, variant_name = Path(argv[1]), argv[2], argv[3]
    spec = SyntheticSpec(**json.loads(spec_json))
    generate_synthetic(spec, out / DATA_DIR)
    if variant_name != "none":
        variant = Variant.parse(variant_name)
        config = ModelConfig(
            spec.locations, spec.channels, spec.tag_count, spec.raw_dim, variant
        )
        params = init_params(config, spec.seed)
        save_checkpoint(
            out / CHECKPOINT_NAME,
            Checkpoint(config, params, epoch=0, seed=spec.seed, stage=variant.name.lower()),
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
