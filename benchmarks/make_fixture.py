"""Train the distilled level-k policy that the distilled workloads load.

    python3 benchmarks/make_fixture.py

Runs ``imitation.dagger_train`` with the fixed configuration below (the
``train-policy`` defaults at seed 0) and writes
``benchmarks/fixtures/levelk_policy.json`` plus a manifest holding the
seed, the configuration and the file's sha256. The runner refuses to start
when the committed fixture no longer matches the manifest. Takes several
minutes on one core.
"""

from __future__ import annotations

import hashlib
import json
import time

import common

SEED = 0
CONFIG = {
    "seed": SEED,
    "n_max": 200,
    "t_max": 100,
    "n_vehicles": 3,
    "k_max": 2,
    "scenes": ["fourway", "tshape", "roundabout"],
}


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    common.pin_blas()
    common.import_intersim()
    from intersim.imitation import DaggerConfig, dagger_train

    cfg = DaggerConfig(**{**CONFIG, "scenes": tuple(CONFIG["scenes"])})
    t0 = time.perf_counter()
    result = dagger_train(cfg)
    wall = time.perf_counter() - t0
    result.policy.save(str(common.FIXTURE))
    last = result.history[-1]
    manifest = {
        "fixture": common.FIXTURE.name,
        "sha256": sha256_file(common.FIXTURE),
        "generator": "benchmarks/make_fixture.py",
        "dagger_config": CONFIG,
        "other_fields": "DaggerConfig and TrainConfig defaults",
        "dataset_rows": len(result.dataset),
        "final_disagreement": last["disagreement"],
        "final_loss": last["loss"],
    }
    common.MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {common.FIXTURE} in {wall:.0f} s: {len(result.dataset)} rows, "
          f"final disagreement {last['disagreement']:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
