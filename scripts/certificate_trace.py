#!/usr/bin/env python3
"""Trace lower-bound certificates for the sharp witnesses.

Builds the n-pair witness over Q with lambda = 2 for a range of n, certifies
each one, verifies the certificate independently, and prints the certificate
JSON for the smallest case so the grid-search choices of v and alpha are
visible.

Usage: python3 scripts/certificate_trace.py [--max-pairs 6]
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from commrep.certificate import (  # noqa: E402
    build_certificate,
    certificate_to_json,
    pairs_from_assignment,
    verify_certificate,
)
from commrep.exactla import QQ  # noqa: E402
from commrep.witness import sharp_witness  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-pairs", type=int, default=6)
    args = ap.parse_args()

    for n in range(1, args.max_pairs + 1):
        t0 = time.time()
        pairs = pairs_from_assignment(sharp_witness(n, 2, QQ))
        cert = build_certificate(pairs)
        result = verify_certificate(cert, pairs)
        print(
            f"n={n}: dimension {cert.r}, concluded bound {cert.concluded_bound}, "
            f"image rank {cert.image_rank}, verified={result.ok} "
            f"({time.time() - t0:.3f}s)"
        )
        assert result.ok and cert.concluded_bound == cert.r
        if n == 1:
            print("certificate for n=1:")
            print(json.dumps(certificate_to_json(cert), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
