"""Seeded inputs and fixed op cycles for the two benchmark workloads.

Every workload is a closed loop with one client: a fixed cycle of CLI ops
(the same argv on every seed) run one subprocess at a time, over and over.
The workload seed only changes the pixel content of the generated files,
so the op mix, sizes and slot order are identical across seeds and runs
stay comparable. Within an image the geometry that sets an op's cost (blob
layout, texture band, class boundaries) is fixed per slot by _layout(), and
the seed draws the pixel values on it (texture, noise, class samples,
patch levels), so different seeds ask for the same amount of work. The
program receives only files.

image-mix interleaves three op groups, each aimed at one layer: region
(region growing), windows (local-histogram classification) and cluster
(K-means and thresholding). retrieval-mix exercises the index. Each group
is bypassed by every other group and by the other workload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from segkit import retrieval
from segkit.raster import GrayImage

WORKLOADS = ("image-mix", "retrieval-mix")

# Rule base shared by every predict op; labels are checked against RULE_LABELS.
RULES = """\
# fixed rule base for predict ops
RULE dark   : mean IN (0,0,90,128)
RULE mid    : mean IN (90,128,128,166)
RULE bright : mean IN (128,166,255,255)
RULE busy   : region_count IN (4,8,1000,1000) AND boundary_fraction IN (0.05,0.2,1,1)
"""
RULE_LABELS = ("dark", "mid", "bright", "busy")


@dataclass
class Op:
    """One CLI invocation. argv paths are relative to the work directory."""

    kind: str  # threshold | segment | predict | ingest | query
    argv: list[str]
    output: str | None = None  # label PGM the op writes
    k: int | None = None  # label count fixed by the args (None: read from stdout)
    pixels: np.ndarray | None = None  # input pixels, for threshold re-checks
    state: int = 0  # retrieval: ingests applied earlier in the cycle
    group: str = ""  # region | windows | cluster | query | ingest
    slot: int = 0  # position in the cycle


@dataclass
class Setup:
    ops: list[Op]
    files: dict[str, bytes]
    index_path: str | None = None
    base_index: retrieval.Index | None = None
    # retrieval: per ingest op, (relative input path, description, pixels)
    ingests: list[tuple[str, str, np.ndarray]] = field(default_factory=list)


LAYOUT_SEED = 20260


def _layout(group: int, slot: int):
    """Generator for the fixed geometry of one image slot: the same on every
    seed, so that the work an op does does not depend on the seed."""
    return np.random.default_rng([LAYOUT_SEED, group, slot])


def pgm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return b"P5\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(pixels, dtype=np.uint8).tobytes()


def _u8(a: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(a), 0, 255).astype(np.uint8)


def _blob_field(rng, h: int, w: int, blobs: int = 6, amplitude: float = 70.0) -> np.ndarray:
    """Smooth background: a sum of wide Gaussian bumps around gray 128."""
    y = np.arange(h, dtype=np.float64)[:, None]
    x = np.arange(w, dtype=np.float64)[None, :]
    img = np.full((h, w), 128.0)
    for _ in range(blobs):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        r = rng.uniform(min(h, w) / 8, min(h, w) / 3)
        img += rng.uniform(-amplitude, amplitude) * np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2 * r * r))
    return img


def _block_texture(rng, h: int, w: int, block: int = 4) -> np.ndarray:
    t = rng.integers(0, 256, (-(-h // block), -(-w // block)))
    return np.repeat(np.repeat(t, block, axis=0), block, axis=1)[:h, :w]


def _voronoi_classes(rng, h: int, w: int, classes: int, sites: int = 7) -> np.ndarray:
    """Class map from a random Voronoi partition; every class gets a cell."""
    pts = rng.uniform(0, 1, (sites, 2)) * (h, w)
    cls = np.concatenate([np.arange(classes), rng.integers(0, classes, sites - classes)])
    y, x = np.mgrid[0:h, 0:w]
    d = (y[None] - pts[:, 0, None, None]) ** 2 + (x[None] - pts[:, 1, None, None]) ** 2
    return cls[np.argmin(d, axis=0)]


def _class_pixels(rng, cls: int, shape) -> np.ndarray:
    """Intensity distribution of one window-classify class."""
    if cls == 0:
        return rng.normal(70, 12, shape)
    if cls == 1:
        return rng.normal(170, 12, shape)
    return np.where(rng.random(shape) < 0.5, 50.0, 200.0) + rng.normal(0, 5, shape)


# ------------------------------------------------------ image-mix: region
# Gray images mixing smooth blobs (mostly covered by seeds) with a band of
# 4x4 block texture (mostly grown). grow_regions cost follows the unlabeled
# pixel count, so each slot fixes its texture share; the texture-heavy
# slots set the tail. Flat 8x8 patches in the band seed small regions, and
# --min-region-size 200 makes merge_small_regions absorb some of them.
# (size, texture share, subcommand)
REGION_SLOTS = (
    (128, 0.10, "segment"),
    (144, 0.12, "predict"),
    (192, 0.06, "segment"),
    (96, 0.30, "segment"),
    (176, 0.08, "predict"),
    (256, 0.03, "segment"),
    (112, 0.20, "segment"),
    (160, 0.14, "segment"),
)
REGION_ARGS = ["--min-region-size", "200"]


def _region_ops(rng, files: dict) -> list[Op]:
    ops = []
    for slot, (n, share, cmd) in enumerate(REGION_SLOTS):
        layout = _layout(0, slot)
        img = _blob_field(layout, n, n)
        rows = max(8, int(round(n * share / 4)) * 4)
        r0 = int(layout.integers(0, (n - rows) // 4 + 1)) * 4
        img[r0 : r0 + rows] = _block_texture(rng, rows, n)
        for _ in range(max(1, rows // 8)):
            y, x = r0 + int(layout.integers(0, rows - 7)), int(layout.integers(0, n - 7))
            img[y : y + 8, x : x + 8] = rng.uniform(90, 170)
        name = f"rg{slot}.pgm"
        files[name] = pgm_bytes(_u8(img))
        if cmd == "segment":
            out = f"rg{slot}.out.pgm"
            ops.append(Op("segment", ["segment", "--method", "region", *REGION_ARGS, name, out], output=out))
        else:
            ops.append(Op("predict", ["predict", "--rules", "rules.txt", *REGION_ARGS, name]))
    return ops


# ----------------------------------------------------- image-mix: windows
# Voronoi scenes of 2-3 texture classes, classified against exemplar patches
# of each class. The (H, W, 256) count tensor makes time and peak RSS grow
# with area, and refinement costs several classify passes, so refine ops use
# the smaller images. (size, window, refine passes, classes)
WINDOW_SLOTS = (
    (128, 9, 0, 2),
    (80, 9, 3, 2),
    (192, 15, 0, 3),
    (96, 15, 3, 3),
    (224, 9, 0, 3),
    (64, 9, 3, 3),
    (160, 15, 0, 2),
    (80, 15, 3, 2),
)


def _window_ops(rng, files: dict) -> list[Op]:
    for c in range(3):
        files[f"ex{c}.pgm"] = pgm_bytes(_u8(_class_pixels(rng, c, (24, 24))))
    ops = []
    for slot, (n, window, refine, classes) in enumerate(WINDOW_SLOTS):
        cls = _voronoi_classes(_layout(1, slot), n, n, classes)
        img = np.zeros((n, n))
        for c in range(classes):
            img[cls == c] = _class_pixels(rng, c, int((cls == c).sum()))
        name, out = f"wc{slot}.pgm", f"wc{slot}.out.pgm"
        files[name] = pgm_bytes(_u8(img))
        argv = ["segment", "--method", "windows", "--window", str(window), "--refine", str(refine)]
        for c in range(classes):
            argv += ["--exemplar", f"{c}:ex{c}.pgm"]
        ops.append(Op("segment", argv + [name, out], output=out, k=classes))
    return ops


# ----------------------------------------------------- image-mix: cluster
# K-means over HW points on the larger images, and threshold ops that sit
# near the interpreter/import floor as the control for per-pixel work.
# "scene" is a shaded blob field with noise; "bimodal" a two-class Voronoi
# scene whose histogram has two well separated peaks, so valley search
# always succeeds. (size, image kind, argv before the paths)
CLUSTER_SLOTS = (
    (512, "scene", ["segment", "--method", "kmeans", "--k", "4"]),
    (512, "bimodal", ["threshold", "--method", "otsu"]),
    (384, "scene", ["segment", "--method", "edge", "--k", "4"]),
    (640, "scene", ["segment", "--method", "kmeans", "--k", "3", "--init", "random", "--seed", "7"]),
    (384, "bimodal", ["threshold", "--method", "valley"]),
    (512, "scene", ["predict", "--rules", "rules.txt", "--segment-method", "kmeans", "--k", "3"]),
    (640, "scene", ["segment", "--method", "edge", "--k", "3"]),
    (256, "scene", ["threshold", "--method", "otsu"]),
    (320, "scene", ["segment", "--method", "kmeans", "--k", "5", "--init", "random", "--seed", "11"]),
    (640, "bimodal", ["threshold", "--method", "valley"]),
)


def _cluster_ops(rng, files: dict) -> list[Op]:
    ops = []
    for slot, (n, kind, head) in enumerate(CLUSTER_SLOTS):
        layout = _layout(2, slot)
        if kind == "scene":
            img = _blob_field(layout, n, n, blobs=8, amplitude=90.0) + rng.normal(0, 6, (n, n))
        else:
            cls = _voronoi_classes(layout, n, n, 2)
            img = np.where(cls == 0, 80.0, 175.0) + rng.normal(0, 14, (n, n))
        pixels = _u8(img)
        name = f"ct{slot}.pgm"
        files[name] = pgm_bytes(pixels)
        cmd = head[0]
        if cmd == "predict":
            ops.append(Op("predict", head + [name]))
            continue
        out = f"ct{slot}.out.pgm"
        if cmd == "threshold":
            ops.append(Op("threshold", head + [name, out], output=out, k=2, pixels=pixels))
        else:
            ops.append(Op("segment", head + [name, out], output=out, k=int(head[head.index("--k") + 1])))
    return ops


def _image_mix(rng) -> Setup:
    """The three groups' ops interleaved round-robin, so slow stretches of
    the machine hit every group alike."""
    files = {"rules.txt": RULES.encode()}
    groups = {"region": _region_ops(rng, files), "windows": _window_ops(rng, files),
              "cluster": _cluster_ops(rng, files)}
    for group, ops in groups.items():
        for op in ops:
            op.group = group
    ops = []
    for i in range(max(map(len, groups.values()))):
        ops += [g[i] for g in groups.values() if i < len(g)]
    return Setup(ops, files)


# -------------------------------------------------------------- retrieval-mix
# One index of gray 256-bin records built in-process with retrieval.ingest
# and encode_index. Records come from Gaussian intensity families whose
# widths span narrow to broad, so their pivot distances (L1 to the uniform
# histogram) spread out: family queries prune well on the single pivot,
# off-distribution (spiky) queries prune little. The index is reset to the
# base file at the start of every cycle, so a run never grows it and every
# (index state, input, args) triple repeats.
INDEX_RECORDS = 2000
FAMILY_SDS = (4, 7, 11, 16, 23, 32, 45, 64)
RECORD_SIDE = 64
QUERY_SIDE = 48
# (op, source): "fam" / "off" queries, "new" ingests of family images
RETRIEVAL_SLOTS = (
    ("query", "fam"),
    ("query", "fam"),
    ("ingest", "new"),
    ("query", "off"),
    ("query", "fam"),
    ("ingest", "new"),
    ("query", "fam"),
    ("ingest", "new"),
    ("query", "off"),
    ("ingest", "new"),
)


def _family_sampler(rng):
    """Returns sample(family, side): a side x side image from the family."""
    means = rng.uniform(40, 215, len(FAMILY_SDS))
    levels = np.arange(256)

    def sample(f: int, side: int) -> np.ndarray:
        p = np.exp(-0.5 * ((levels - means[f] - rng.normal(0, 2)) / FAMILY_SDS[f]) ** 2)
        counts = rng.multinomial(side * side, p / p.sum())
        # only the histogram matters to retrieval, so pixels stay in level order
        return np.repeat(levels, counts).astype(np.uint8).reshape(side, side)

    return sample


def _off_distribution(rng, side: int) -> np.ndarray:
    """Spiky histogram unlike any family: six random levels plus uniform."""
    n = side * side
    levels = rng.integers(0, 256, 6)
    v = np.where(rng.random(n) < 0.7, levels[rng.integers(0, 6, n)], rng.integers(0, 256, n))
    return v.astype(np.uint8).reshape(side, side)


def _retrieval_mix(rng) -> Setup:
    sample = _family_sampler(rng)
    index = retrieval.Index()
    for i in range(INDEX_RECORDS):
        f = i % len(FAMILY_SDS)
        desc = f"family {f}\trecord {i}" if i % 50 == 7 else f"family {f} record {i}"
        retrieval.ingest(index, GrayImage(sample(f, RECORD_SIDE)), desc, f"db/r{i:05d}.pgm")
    files = {"base.idx": retrieval.encode_index(index).encode("utf-8")}
    setup = Setup([], files, index_path="work.idx", base_index=index)
    ingested = 0
    for slot, (kind, source) in enumerate(RETRIEVAL_SLOTS):
        name = f"rq{slot}.pgm"
        if source == "off":
            pixels = _off_distribution(rng, QUERY_SIDE)
        else:
            pixels = sample(int(rng.integers(0, len(FAMILY_SDS))), QUERY_SIDE if kind == "query" else RECORD_SIDE)
        files[name] = pgm_bytes(pixels)
        if kind == "query":
            argv = ["query", "--index", "work.idx", "--top", "10", name]
        else:
            desc = f"new image {slot}"
            argv = ["ingest", "--index", "work.idx", "--desc", desc, name]
            setup.ingests.append((name, desc, pixels))
        setup.ops.append(Op(kind, argv, state=ingested, group=kind))
        ingested += kind == "ingest"
    return setup


_MAKE = {"image-mix": _image_mix, "retrieval-mix": _retrieval_mix}


def build(workload: str, seed: int, workdir: str) -> Setup:
    """Generate the workload's inputs from the seed and write them to workdir.

    This is what setup_s times: input generation, the retrieval index built
    with retrieval.ingest / encode_index, and writing every file.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    setup = _MAKE[workload](rng)
    for slot, op in enumerate(setup.ops):
        op.slot = slot
    for name, data in setup.files.items():
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(data)
    reset(setup, workdir)
    return setup


def clear_output(op: Op, workdir: str) -> None:
    """Remove the op's label file, so a stale one can never pass a check."""
    if op.output:
        try:
            os.remove(os.path.join(workdir, op.output))
        except FileNotFoundError:
            pass


def read_output(setup: Setup, op: Op, workdir: str) -> bytes | None:
    """Bytes the op wrote: its label file, or the index after an ingest."""
    path = op.output or (setup.index_path if op.kind == "ingest" else None)
    if path is None:
        return None
    try:
        with open(os.path.join(workdir, path), "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def reset(setup: Setup, workdir: str) -> None:
    """Restore the cycle's starting state: the base index file."""
    if setup.index_path is not None:
        with open(os.path.join(workdir, setup.index_path), "wb") as fh:
            fh.write(setup.files["base.idx"])
