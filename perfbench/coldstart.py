"""Time one cold start of `safeshift` in a fresh interpreter.

    python3 perfbench/coldstart.py SRC_DIR CONFIG_JSON SEED [MODEL]

Times `import safeshift`, `config_from_dict`, `config.pool()` and
`make_learner` as the CLI would run them, and prints one JSON object with
`import_s`, `config_s`, `pool_s`, `learner_s` and their sum `setup_s`.
The caller pins the BLAS thread variables in the environment.
"""

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    src, config_path, seed = argv[0], Path(argv[1]), int(argv[2])
    model = argv[3] if len(argv) > 3 else None
    raw = json.loads(config_path.read_text())
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import safeshift  # noqa: F401

    t1 = time.perf_counter()
    import numpy as np

    from safeshift.cli import config_from_dict
    from safeshift.explore import make_learner

    raw["seed"] = seed
    if model is not None:
        raw["model_kind"] = model
    config = config_from_dict(raw)
    t2 = time.perf_counter()
    config.pool()
    t3 = time.perf_counter()
    make_learner(config, np.random.default_rng(config.seed))
    t4 = time.perf_counter()

    origin = Path(safeshift.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        print(f"imported safeshift from {origin}, not from {src}", file=sys.stderr)
        return 1
    print(json.dumps({
        "import_s": t1 - t0,
        "config_s": t2 - t1,
        "pool_s": t3 - t2,
        "learner_s": t4 - t3,
        "setup_s": t4 - t0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
