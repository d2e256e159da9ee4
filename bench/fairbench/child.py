"""One benchmark job in a fresh process: ``python child.py SPEC.json``.

Imports fairrec first, so that the spawning process can time set-up up to
the moment the import returns, then runs the spec's ``fairrec run`` calls
through ``fairrec.cli.main`` and writes a JSON result next to the spec.
"""

import time

import fairrec  # set-up ends when this returns
import fairrec.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def snapshot(out_dir: Path) -> tuple[dict[str, str], dict[str, str]]:
    """SHA-256 of every output file, and the text of results.csv and .dat files."""
    hashes, texts = {}, {}
    for path in sorted(p for p in out_dir.iterdir() if p.is_file()):
        hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.name == "results.csv" or path.suffix == ".dat":
            texts[path.name] = path.read_text(encoding="ascii")
    return hashes, texts


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    result = {"imported": IMPORTED, "fairrec": str(Path(fairrec.__file__).resolve())}
    if not spec.get("calls"):
        Path(spec["result"]).write_text(json.dumps(result))
        return 0

    tracer = None
    if spec["trace"]:
        from fairbench import layers

        tracer = layers.install(spec["job"])

    from fairbench.spans import peak_rss_mb

    out_dir = Path(spec["out"])
    sweep_s, codes, hashes, texts = 0.0, [], [], []
    for argv in spec["calls"]:
        start = time.perf_counter()
        codes.append(fairrec.cli.main(argv))
        sweep_s += time.perf_counter() - start
        peak = peak_rss_mb()
        h, t = snapshot(out_dir)
        hashes.append(h)
        texts.append(t)
    result.update(sweep_s=sweep_s, peak_rss_mb=peak, codes=codes, hashes=hashes, texts=texts)
    if tracer is not None:
        result["trace"] = tracer.to_json()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
