"""Golden outputs: a fixed list of CLI ops, each run through cli.run in one
temporary directory, in order, and its outcome hashed.

An op's digest is a sha256 over its exit code, stdout, stderr and the bytes
of the files it names: the label map it writes, or the index it reads or
rewrites (never the lock file or any other file beside the index). The
committed file golden_outputs.txt holds one "name digest" line per op. A
mismatch names every op whose outcome moved. Every input is built from
fixture_builders' LCG helpers, which need no numpy random stream.

A change that moves an op on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and lists each changed line, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys

import numpy as np

from segkit.cli import run
from segkit.clustering import Lcg
from segkit.raster import GrayImage, RgbImage, encode_pnm

from fixture_builders import (lcg_bytes, noisy_half_image, random_blocky_image, ramp_edge_image,
                              speckled_ramp_image)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.txt")

# Two rules whose activations at size_fraction 0.7 both round to
# 0.5000000000000001; exactly, "wide" (listed second) is the larger.
TIE_RULES = ("RULE narrow : size_fraction IN (0.177,0.31,0.47,0.93)\n"
             "RULE wide : size_fraction IN (0.2,0.3,0.471,0.929)\n")
RULES = ("# dark, mid and bright by the largest region's mean; busy by structure\n"
         "RULE dark : mean IN (0,0,60,100)\n"
         "RULE mid : mean IN (60,100,140,180)\n"
         "RULE bright : mean IN (140,180,255,255)\n"
         "RULE busy : region_count IN (3,6,1000,1000) AND boundary_fraction IN (0.05,0.2,1,1)\n")


def _permuted(pixels: np.ndarray, seed: int) -> np.ndarray:
    """pixels through an LCG Fisher-Yates permutation of the 256 levels, so
    the histogram's counts are a permutation of the original's."""
    rng, perm = Lcg(seed), np.arange(256)
    for i in range(255, 0, -1):
        j = rng.next_u32() % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm[pixels].astype(np.uint8)


def _valley_tie() -> np.ndarray:
    # bins 100 and 150 both have the window-5 sum 10, whose float averages
    # are 2.0 and 1.9999999999999998
    counts = np.full(256, 5)
    counts[[20, 230]] = 100
    counts[98:103] = [2, 3, 3, 1, 1]
    counts[148:153] = [2, 3, 2, 2, 1]
    return np.repeat(np.arange(256), counts)[None, :].astype(np.uint8)


def _exact_half() -> np.ndarray:
    """Two pixels of an RGB triple whose gray value is an exact half, beside
    a black and a white one: 299 * 100 + 587 * 64 + 114 * 88 = 77500, so
    the triple is gray 78, where 0.299 R + 0.587 G + 0.114 B in floats gives
    77.49999999999999."""
    return np.array([[[100, 64, 88], [0, 0, 0]], [[255, 255, 255], [100, 64, 88]]], dtype=np.uint8)


def build_inputs(directory: str) -> None:
    """Every input file, named relative to directory."""
    half, _ = noisy_half_image(size=32)
    ramp, _ = ramp_edge_image(size=32, ramp_start=18, ramp_cols=8)
    speckled, _ = speckled_ramp_image(size=32)
    noise = lcg_bytes(5, 30 * 30).reshape(30, 30)
    original = lcg_bytes(3, 30 * 30).reshape(30, 30)
    two_class = np.full((10, 10), 50, dtype=np.uint8)
    two_class[:, 7:] = 200  # a 70/30 split: the largest region's size_fraction is 0.7
    grays = {
        "half": half, "left": half[:, :12], "right": half[:, 20:], "ramp": ramp, "speckled": speckled,
        "blocky": random_blocky_image(11, 24), "noise": noise,
        "original": original, "permuted": _permuted(original, 1003),
        "flat_query": np.arange(256, dtype=np.uint8).reshape(16, 16), "flat": np.full((8, 8), 100, np.uint8),
        "valley_tie": _valley_tie(), "two_class": two_class, "tiny": np.array([[0, 255]], dtype=np.uint8),
    }
    # gray levels 0, 60 and 120: at window 3, 92 of the 216 windows tie
    # exactly between the two exemplars, and the float L1 distances label 21
    # pixels otherwise than exact rationals with ties to the lower label do
    near_tie = {"near_tie": lcg_bytes(1, 216).reshape(6, 36), "near_tie_0": lcg_bytes(1001, 6).reshape(2, 3),
                "near_tie_1": lcg_bytes(2001, 6).reshape(2, 3)}
    grays.update({name: p // 86 * 60 for name, p in near_tie.items()})
    colors = {
        "color1": lcg_bytes(21, 12 * 12 * 3).reshape(12, 12, 3),
        "color2": lcg_bytes(22, 9 * 14 * 3).reshape(9, 14, 3) // 2,
        "exact_half": _exact_half(),
    }
    files = {f"{name}.pgm": encode_pnm(GrayImage(p)) for name, p in grays.items()}
    files.update({f"{name}.ppm": encode_pnm(RgbImage(p)) for name, p in colors.items()})
    files.update({
        "rules.txt": RULES.encode(), "tie_rules.txt": TIE_RULES.encode(),
        "missing_feature.txt": b"RULE odd : texture IN (0,1,2,3)\n", "bad_rules.txt": b"RULE broken\n",
        "latin1_rules.txt": b"# caf\xe9\nRULE dark : mean IN (0,0,60,100)\n",
        "garbage.pgm": b"P5\n4 4\n255\n\x00\x01", "empty.idx": b"SEGIDX\t1\t0\n",
        "not_utf8.idx": b"SEGIDX\t1\t256\n\xff\n",
    })
    for name, data in files.items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)


def _corrupt(directory: str, source: str, target: str) -> None:
    """target: source's index with its first record's total one too high."""
    with open(os.path.join(directory, source), "rb") as fh:
        lines = fh.read().split(b"\n")[:-1]
    fields = lines[1].split(b"\t")
    fields[1] = b"%d" % (int(fields[1]) + 1)
    lines[1] = b"\t".join(fields)
    with open(os.path.join(directory, target), "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")


def _crlf(directory: str, source: str, target: str) -> None:
    with open(os.path.join(directory, source), "rb") as fh:
        data = fh.read()
    with open(os.path.join(directory, target), "wb") as fh:
        fh.write(data.replace(b"\n", b"\r\n"))


WIN = ["--exemplar", "0:left.pgm", "--exemplar", "1:right.pgm"]
REGION_FLAGS = ["--smooth-radius", "1", "--variance-threshold", "60", "--min-seed-size", "4",
                "--min-region-size", "12", "--contrast-guard", "25"]

# (name, argv, the files the op names as outputs); a callable in place of
# argv prepares a file from earlier ops' outputs and is not an op
OPS = [
    # threshold
    ("threshold otsu half", ["threshold", "--method", "otsu", "half.pgm", "t1.pgm"], ["t1.pgm"]),
    ("threshold valley half", ["threshold", "--method", "valley", "half.pgm", "t2.pgm"], ["t2.pgm"]),
    ("threshold valley flags", ["threshold", "--method", "valley", "--window", "7", "--min-sep", "40",
                                "half.pgm", "t3.pgm"], ["t3.pgm"]),
    ("threshold otsu noise", ["threshold", "--method", "otsu", "noise.pgm", "t4.pgm"], ["t4.pgm"]),
    ("threshold otsu color exact half", ["threshold", "--method", "otsu", "exact_half.ppm", "t5.pgm"],
     ["t5.pgm"]),
    ("threshold otsu two levels", ["threshold", "--method", "otsu", "tiny.pgm", "t10.pgm"], ["t10.pgm"]),
    ("threshold valley tie", ["threshold", "--method", "valley", "valley_tie.pgm", "t6.pgm"], ["t6.pgm"]),
    ("threshold valley flat exits 3", ["threshold", "--method", "valley", "flat.pgm", "t7.pgm"], ["t7.pgm"]),
    ("threshold missing input exits 2", ["threshold", "--method", "otsu", "nope.pgm", "t8.pgm"], ["t8.pgm"]),
    ("threshold garbage input exits 2", ["threshold", "--method", "otsu", "garbage.pgm", "t9.pgm"],
     ["t9.pgm"]),
    ("threshold unwritable output exits 2", ["threshold", "--method", "otsu", "half.pgm", "nodir/t.pgm"], []),
    # segment
    ("segment kmeans k2", ["segment", "--method", "kmeans", "--k", "2", "half.pgm", "s1.pgm"], ["s1.pgm"]),
    ("segment kmeans k4 random", ["segment", "--method", "kmeans", "--k", "4", "--init", "random", "--seed", "7",
                                  "noise.pgm", "s2.pgm"], ["s2.pgm"]),
    ("segment kmeans k3 limits", ["segment", "--method", "kmeans", "--k", "3", "--max-iter", "2",
                                  "--epsilon", "0.5", "speckled.pgm", "s3.pgm"], ["s3.pgm"]),
    ("segment kmeans color", ["segment", "--method", "kmeans", "--k", "3", "color1.ppm", "s4.pgm"], ["s4.pgm"]),
    ("segment edge k2", ["segment", "--method", "edge", "--k", "2", "ramp.pgm", "s5.pgm"], ["s5.pgm"]),
    ("segment edge k3 beta", ["segment", "--method", "edge", "--k", "3", "--beta", "2.5", "speckled.pgm",
                              "s6.pgm"], ["s6.pgm"]),
    ("segment region half", ["segment", "--method", "region", "half.pgm", "s7.pgm"], ["s7.pgm"]),
    ("segment region flags", ["segment", "--method", "region", *REGION_FLAGS, "blocky.pgm", "s8.pgm"],
     ["s8.pgm"]),
    ("segment region ramp", ["segment", "--method", "region", "ramp.pgm", "s9.pgm"], ["s9.pgm"]),
    ("segment windows", ["segment", "--method", "windows", "--window", "5", *WIN, "half.pgm", "s10.pgm"],
     ["s10.pgm"]),
    ("segment windows refine", ["segment", "--method", "windows", "--window", "7", "--refine", "2", *WIN,
                                "half.pgm", "s11.pgm"], ["s11.pgm"]),
    ("segment windows three classes", ["segment", "--method", "windows", "--window", "3", *WIN,
                                       "--exemplar", "2:noise.pgm", "speckled.pgm", "s12.pgm"], ["s12.pgm"]),
    ("segment kmeans without k exits 1", ["segment", "--method", "kmeans", "half.pgm", "s13.pgm"], ["s13.pgm"]),
    ("segment windows without exemplar exits 1", ["segment", "--method", "windows", "half.pgm", "s14.pgm"],
     ["s14.pgm"]),
    ("segment bad exemplar spec exits 1", ["segment", "--method", "windows", "--exemplar", "left.pgm",
                                           "half.pgm", "s15.pgm"], ["s15.pgm"]),
    ("segment k past 8 bits exits 3", ["segment", "--method", "kmeans", "--k", "300", "half.pgm", "s16.pgm"],
     ["s16.pgm"]),
    ("segment k above pixels exits 3", ["segment", "--method", "edge", "--k", "3", "tiny.pgm", "s17.pgm"],
     ["s17.pgm"]),
    # predict
    ("predict region", ["predict", "--rules", "rules.txt", "half.pgm"], []),
    ("predict region flags", ["predict", "--rules", "rules.txt", *REGION_FLAGS, "blocky.pgm"], []),
    ("predict kmeans tie", ["predict", "--rules", "tie_rules.txt", "--segment-method", "kmeans",
                            "two_class.pgm"], []),
    ("predict edge", ["predict", "--rules", "rules.txt", "--segment-method", "edge", "--k", "3", "ramp.pgm"], []),
    ("predict missing feature exits 3", ["predict", "--rules", "missing_feature.txt", "half.pgm"], []),
    ("predict bad rules exits 2", ["predict", "--rules", "bad_rules.txt", "half.pgm"], []),
    ("predict non-utf8 rules exits 2", ["predict", "--rules", "latin1_rules.txt", "half.pgm"], []),
    # a gray index: ingest -> query -> ingest -> query
    ("ingest gray 0", ["ingest", "--index", "g.idx", "--desc", "half", "half.pgm"], ["g.idx"]),
    ("ingest gray 1", ["ingest", "--index", "g.idx", "--desc", "ramp", "ramp.pgm"], ["g.idx"]),
    ("ingest gray 2 escaped desc", ["ingest", "--index", "g.idx", "--desc", "tab\there back\\slash",
                                    "blocky.pgm"], ["g.idx"]),
    ("query gray after 3", ["query", "--index", "g.idx", "--top", "2", "half.pgm"], ["g.idx"]),
    ("ingest gray 3 carriage return", ["ingest", "--index", "g.idx", "--desc", "cr\rhere", "noise.pgm"],
     ["g.idx"]),
    ("query gray after 4", ["query", "--index", "g.idx", "--top", "10", "ramp.pgm"], ["g.idx"]),
    ("query gray exhaustive", ["query", "--index", "g.idx", "--top", "3", "--exhaustive", "noise.pgm"],
     ["g.idx"]),
    ("ingest gray 4", ["ingest", "--index", "g.idx", "--desc", "speckled", "speckled.pgm"], ["g.idx"]),
    ("query gray after 5", ["query", "--index", "g.idx", "--top", "1", "blocky.pgm"], ["g.idx"]),
    ("ingest gray 5 duplicate", ["ingest", "--index", "g.idx", "--desc", "half again", "half.pgm"], ["g.idx"]),
    ("query gray tie", ["query", "--index", "g.idx", "--top", "2", "half.pgm"], ["g.idx"]),
    ("query gray tie exhaustive", ["query", "--index", "g.idx", "--top", "2", "--exhaustive", "half.pgm"],
     ["g.idx"]),
    ("query gray with color exits 3", ["query", "--index", "g.idx", "--top", "2", "color1.ppm"], ["g.idx"]),
    ("ingest color into gray exits 3", ["ingest", "--index", "g.idx", "--desc", "c", "color1.ppm"], ["g.idx"]),
    ("query top 0 exits 3", ["query", "--index", "g.idx", "--top", "0", "half.pgm"], ["g.idx"]),
    ("ingest missing input exits 2", ["ingest", "--index", "g.idx", "--desc", "x", "nope.pgm"], ["g.idx"]),
    # a color index
    ("ingest color 0", ["ingest", "--index", "c.idx", "--desc", "first", "color1.ppm"], ["c.idx"]),
    ("ingest color 1", ["ingest", "--index", "c.idx", "--desc", "second", "color2.ppm"], ["c.idx"]),
    ("ingest color 2", ["ingest", "--index", "c.idx", "--desc", "exact half", "exact_half.ppm"], ["c.idx"]),
    ("query color", ["query", "--index", "c.idx", "--top", "3", "color1.ppm"], ["c.idx"]),
    ("query color exhaustive", ["query", "--index", "c.idx", "--top", "2", "--exhaustive", "color2.ppm"],
     ["c.idx"]),
    ("query color with gray exits 3", ["query", "--index", "c.idx", "--top", "2", "half.pgm"], ["c.idx"]),
    # records whose counts are permutations of each other, so their exact
    # scores under a flat query are equal; the float ones are not
    ("ingest permuted 0", ["ingest", "--index", "p.idx", "--desc", "original", "original.pgm"], ["p.idx"]),
    ("ingest permuted 1", ["ingest", "--index", "p.idx", "--desc", "permuted", "permuted.pgm"], ["p.idx"]),
    ("query permuted", ["query", "--index", "p.idx", "--top", "2", "flat_query.pgm"], ["p.idx"]),
    ("query permuted exhaustive", ["query", "--index", "p.idx", "--top", "2", "--exhaustive",
                                   "flat_query.pgm"], ["p.idx"]),
    # indexes that fail
    ("make bad.idx", lambda d: _corrupt(d, "g.idx", "bad.idx"), []),
    ("make crlf.idx", lambda d: _crlf(d, "g.idx", "crlf.idx"), []),
    ("query missing index exits 2", ["query", "--index", "missing.idx", "--top", "1", "half.pgm"],
     ["missing.idx"]),
    ("query bad total exits 2", ["query", "--index", "bad.idx", "--top", "1", "half.pgm"], ["bad.idx"]),
    ("ingest bad total exits 2", ["ingest", "--index", "bad.idx", "--desc", "x", "half.pgm"], ["bad.idx"]),
    ("query crlf exits 2", ["query", "--index", "crlf.idx", "--top", "1", "half.pgm"], ["crlf.idx"]),
    ("query not utf8 exits 2", ["query", "--index", "not_utf8.idx", "--top", "1", "half.pgm"], ["not_utf8.idx"]),
    ("ingest into missing directory exits 2", ["ingest", "--index", "nodir/x.idx", "--desc", "x", "half.pgm"],
     []),
    ("query empty index exits 3", ["query", "--index", "empty.idx", "--top", "1", "half.pgm"], ["empty.idx"]),
    ("ingest into empty index", ["ingest", "--index", "empty.idx", "--desc", "first", "ramp.pgm"],
     ["empty.idx"]),
    ("query once empty index", ["query", "--index", "empty.idx", "--top", "1", "ramp.pgm"], ["empty.idx"]),
    # float L1 breaks window ties, so exact labels would differ (ROADMAP item 6)
    ("segment windows float tie", ["segment", "--method", "windows", "--window", "3", "--exemplar",
                                   "0:near_tie_0.pgm", "--exemplar", "1:near_tie_1.pgm", "near_tie.pgm",
                                   "s18.pgm"], ["s18.pgm"]),
]


def _digest(code: int, stdout: str, stderr: str, outputs: list[bytes | None]) -> str:
    h = hashlib.sha256()
    for part in (str(code).encode(), stdout.encode(), stderr.encode(), *outputs):
        # length-prefixed, so no two outcomes hash the same bytes; -1 for no file
        h.update(b"%d:" % (-1 if part is None else len(part)))
        h.update(part or b"")
    return h.hexdigest()


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def outcomes(directory: str) -> list[tuple[str, str]]:
    """(name, digest) of each op, run in order from directory."""
    build_inputs(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        lines = []
        for name, argv, outputs in OPS:
            if callable(argv):
                argv(directory)
                continue
            out, err = io.StringIO(), io.StringIO()
            code = run(argv, out, err)
            lines.append((name, _digest(code, out.getvalue(), err.getvalue(), [_read(p) for p in outputs])))
        return lines
    finally:
        os.chdir(cwd)


def _committed() -> list[tuple[str, str]]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return [tuple(line.rsplit(" ", 1)) for line in fh.read().splitlines()]


def test_golden_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got, want = outcomes(str(tmp_path)), _committed()
    assert [name for name, _ in got] == [name for name, _ in want], "the op list differs from the golden file"
    moved = [name for (name, digest), (_, expected) in zip(got, want) if digest != expected]
    assert not moved, f"{len(moved)} ops moved: {moved}"


def test_every_subcommand_method_and_exit_code():
    argvs = [argv for _, argv, _ in OPS if not callable(argv)]
    assert {argv[0] for argv in argvs} == {"threshold", "segment", "ingest", "query", "predict"}
    methods = {(argv[0], argv[argv.index("--method") + 1]) for argv in argvs if "--method" in argv}
    assert methods == {("threshold", "otsu"), ("threshold", "valley"), *(
        ("segment", m) for m in ("kmeans", "edge", "region", "windows"))}
    assert {argv[argv.index("--segment-method") + 1] for argv in argvs if "--segment-method" in argv} == {
        "kmeans", "edge"}
    codes = {int(name.rsplit(" ", 1)[1]) for name, argv, _ in OPS if " exits " in name}
    assert codes == {1, 2, 3}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        os.environ["COLUMNS"] = "80"
        rows = outcomes(scratch)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.writelines(f"{name} {digest}\n" for name, digest in rows)
    print(f"wrote {len(rows)} lines to {GOLDEN}", file=sys.stderr)
