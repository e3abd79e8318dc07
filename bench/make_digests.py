"""Write ``bench/digests.json``: the sha256 of the zoom-none sink output per
size and input seed, as the deterministic engine produces it.

    python3 bench/make_digests.py

A digest is stored for each of the ``rep.INPUT_SEEDS`` input seeds, and only
when the output also equals the per-window reference averages.  Every
zoom-none and zoom-none-concurrent repetition must reproduce the digest of
its input seed.
"""

from __future__ import annotations

import json

import rep


def main() -> None:
    digests = {}
    for size in rep.SIZES:
        digests[size] = {}
        for seed in range(rep.INPUT_SEEDS):
            r = rep.Rep(seed, size, rep.tracing.NullTracer())
            rep.zoom(r, "none", rep.DeterministicEngine, check_digest=False)
            if r.failed:
                raise SystemExit(f"size {size} seed {seed}: {r.errors}")
            digests[size][str(seed)] = r.extra["digest"]
    rep.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
