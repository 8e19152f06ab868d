#!/usr/bin/env python3
"""Memory/time grid for the fused consistency loss vs the naive oracle.

Sweeps tile sizes at a fixed lattice shape and prints peak auxiliary bytes
(fused path scratch vs the naive path's materialized log-softmax buffers)
plus wall times.  Loss and gradients must agree between paths at every tile.
"""

import argparse
import sys

from unify_rnnt.mcr import DIRECTIONS, mcr_memory_probe


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--frames", type=int, default=64)
    parser.add_argument("--labels", type=int, default=32)
    parser.add_argument("--vocab", type=int, default=1024)
    parser.add_argument("--tiles", default="8,64,1024")
    parser.add_argument("--direction", default="symmetric", choices=DIRECTIONS)
    args = parser.parse_args()

    shape = (args.batch, args.frames, args.labels, args.vocab)
    print(f"shape B={args.batch} T={args.frames} U={args.labels} V={args.vocab} "
          f"direction={args.direction}")
    header = f"{'tile':>6s} {'aux_fused_B':>12s} {'aux_naive_B':>12s} {'ratio':>8s} " \
             f"{'ms_fused':>9s} {'ms_naive':>9s} {'grad_diff':>10s}"
    print(header)
    losses = set()
    for tile in (int(t) for t in args.tiles.split(",")):
        rep = mcr_memory_probe(shape, tile=tile, direction=args.direction)
        losses.add(round(rep["loss_fused"], 12))
        print(f"{tile:6d} {rep['aux_bytes_fused']:12d} {rep['aux_bytes_naive']:12d} "
              f"{rep['ratio']:8.4f} {rep['wall_ms_fused']:9.1f} "
              f"{rep['wall_ms_naive']:9.1f} {rep['max_grad_diff']:10.2e}")
    if len(losses) != 1:
        print("WARNING: loss varies across tiles", losses)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
