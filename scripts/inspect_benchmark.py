#!/usr/bin/env python3
"""Print summary statistics of a generated benchmark split."""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from stsg.config import EVENT_NAMES, PREDICATE_NAMES
from stsg.errors import ConfigError, DataFormatError
from stsg.io import load_split


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("data", help="dataset directory")
    ap.add_argument("--split", default="train", choices=("train", "val", "test"))
    args = ap.parse_args()

    try:
        header, seqs = load_split(args.data, args.split)
        text = (Path(args.data) / f"{args.split}.jsonl").read_bytes()
    except (ConfigError, DataFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    # the file as written: a detection that repeats its gt object's visual
    # vector names the object (`det_object`, -1 where it names none)
    body = text.partition(b"\n")[2]
    det_object = [i for line in body.splitlines() if line.strip()
                  for i in json.loads(line)["det_object"]]
    named = sum(i >= 0 for i in det_object)
    pred_counts = Counter()
    events = np.zeros(len(EVENT_NAMES))
    n_frames = 0
    n_objects = []
    n_detections = []
    for seq in seqs:
        events += seq.event_labels
        for frame in seq.frames:
            n_frames += 1
            n_objects.append(len(frame.objects))
            n_detections.append(len(frame.detections))
            for (_, _, p) in frame.triplets:
                pred_counts[p] += 1

    total = sum(pred_counts.values())
    print(f"{args.split}: {len(seqs)} sequences, {n_frames} frames, "
          f"{total} gt triplets")
    print(f"objects/frame mean {np.mean(n_objects):.2f}, "
          f"detections/frame mean {np.mean(n_detections):.2f}")
    print(f"format version {header['version']}, "
          f"{len(body) / max(len(seqs), 1):.0f} bytes/sequence, "
          f"{named / max(len(det_object), 1):.3f} of detections name their gt object")
    print("\npredicate distribution:")
    for p, name in enumerate(PREDICATE_NAMES):
        share = pred_counts[p] / total if total else 0.0
        print(f"  {name:12s} {pred_counts[p]:7d}  {share:.3f}")
    print("\nevent distribution:")
    for a, name in enumerate(EVENT_NAMES):
        print(f"  {name:10s} {int(events[a]):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
