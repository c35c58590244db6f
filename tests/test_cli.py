import errno
import fcntl
import io
import multiprocessing
import os

import numpy as np
import pytest

from segkit.cli import run
from segkit.raster import GrayImage, RgbImage, decode_pnm, encode_pnm
from segkit.retrieval import decode_index

from fixture_builders import lcg_bytes, noisy_half_image


def write_pgm(path, pixels):
    path.write_bytes(encode_pnm(GrayImage(np.asarray(pixels, dtype=np.uint8))))


def write_ppm(path, pixels):
    path.write_bytes(encode_pnm(RgbImage(np.asarray(pixels, dtype=np.uint8))))


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def ingest_loop(worker, index, image, n, barrier, results):
    """Ingest image n times into index once both workers are ready; puts
    (worker, printed ids, failures) on results."""
    barrier.wait(timeout=60)
    ids, failures = [], []
    for i in range(n):
        code, stdout, err = invoke(["ingest", "--index", index, "--desc", f"{worker}-{i}", image])
        if code:
            failures.append(err)
        else:
            ids.append(int(stdout))
    results.put((worker, ids, failures))


@pytest.fixture
def half_image_file(tmp_path):
    pix, _ = noisy_half_image()
    path = tmp_path / "half.pgm"
    write_pgm(path, pix)
    return path


class TestUsageErrors:
    def test_no_subcommand(self):
        code, _, err = invoke([])
        assert code == 1 and err

    def test_unknown_flag(self, tmp_path):
        code, _, _ = invoke(["threshold", "--bogus", "in.pgm", "out.pgm"])
        assert code == 1

    def test_kmeans_without_k(self, tmp_path, half_image_file):
        out = tmp_path / "o.pgm"
        code, _, _ = invoke(["segment", "--method", "kmeans", str(half_image_file), str(out)])
        assert code == 1 and not out.exists()

    def test_exemplar_label_not_decimal(self, tmp_path, half_image_file):
        # "²".isdigit() holds, but int() rejects it
        out = tmp_path / "o.pgm"
        code, _, err = invoke(["segment", "--method", "windows", "--exemplar",
                               f"\u00b2:{half_image_file}", str(half_image_file), str(out)])
        assert code == 1 and err and not out.exists()


class TestThresholdCommand:
    def test_otsu_on_half_fixture(self, tmp_path, half_image_file):
        out = tmp_path / "bin.pgm"
        code, stdout, _ = invoke(
            ["threshold", "--method", "otsu", str(half_image_file), str(out)]
        )
        assert code == 0
        level = int(stdout.strip())
        assert 10 < level < 200
        img = decode_pnm(out.read_bytes())
        assert set(np.unique(img.pixels)) <= {0, 255}

    def test_valley_on_flat_image_exits_3_no_output(self, tmp_path):
        src = tmp_path / "flat.pgm"
        write_pgm(src, np.full((8, 8), 100))
        out = tmp_path / "never.pgm"
        code, _, err = invoke(["threshold", "--method", "valley", str(src), str(out)])
        assert code == 3
        assert not out.exists()
        assert err

    def test_missing_input_exits_2(self, tmp_path):
        out = tmp_path / "o.pgm"
        code, _, _ = invoke(["threshold", "--method", "otsu", str(tmp_path / "nope.pgm"), str(out)])
        assert code == 2 and not out.exists()

    def test_garbage_input_exits_2(self, tmp_path):
        src = tmp_path / "bad.pgm"
        src.write_bytes(b"not a pnm file")
        out = tmp_path / "o.pgm"
        code, _, _ = invoke(["threshold", "--method", "otsu", str(src), str(out)])
        assert code == 2 and not out.exists()

    def test_oversized_header_field_exits_2(self, tmp_path):
        # more digits than int() converts
        src = tmp_path / "long.pgm"
        src.write_bytes(b"P5\n" + b"1" * 5000 + b" 2\n255\n" + bytes(4))
        out = tmp_path / "o.pgm"
        code, _, err = invoke(["threshold", "--method", "otsu", str(src), str(out)])
        assert code == 2 and err and not out.exists()


class TestSegmentCommand:
    def test_kmeans_deterministic_bytes(self, tmp_path, half_image_file):
        out1, out2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        argv = ["segment", "--method", "kmeans", "--k", "4", "--seed", "7"]
        code1, sse1, _ = invoke(argv + [str(half_image_file), str(out1)])
        code2, sse2, _ = invoke(argv + [str(half_image_file), str(out2)])
        assert code1 == code2 == 0
        assert sse1 == sse2
        assert out1.read_bytes() == out2.read_bytes()

    def test_k2_exports_black_and_white(self, tmp_path, half_image_file):
        out = tmp_path / "seg.pgm"
        code, stdout, _ = invoke(
            ["segment", "--method", "kmeans", "--k", "2", str(half_image_file), str(out)]
        )
        assert code == 0 and stdout.startswith("sse\t")
        img = decode_pnm(out.read_bytes())
        assert set(np.unique(img.pixels)) == {0, 255}

    def test_k4_gray_levels(self, tmp_path):
        src = tmp_path / "four.pgm"
        pix = np.repeat(np.array([[10, 90, 170, 250]], dtype=np.uint8), 8, axis=0)
        write_pgm(src, np.tile(pix, (1, 2)))
        out = tmp_path / "seg.pgm"
        code, _, _ = invoke(["segment", "--method", "kmeans", "--k", "4", str(src), str(out)])
        assert code == 0
        img = decode_pnm(out.read_bytes())
        assert set(np.unique(img.pixels)) == {0, 85, 170, 255}

    def test_edge_method(self, tmp_path, half_image_file):
        out = tmp_path / "edge.pgm"
        code, stdout, _ = invoke(
            ["segment", "--method", "edge", "--k", "2", "--beta", "2.0",
             str(half_image_file), str(out)]
        )
        assert code == 0 and stdout.startswith("sse\t")

    def test_region_method(self, tmp_path, half_image_file):
        out = tmp_path / "reg.pgm"
        code, stdout, _ = invoke(["segment", "--method", "region", str(half_image_file), str(out)])
        assert code == 0
        assert stdout.strip() == "regions\t2"

    def test_windows_method_with_exemplars(self, tmp_path):
        pix, _ = noisy_half_image()
        src = tmp_path / "img.pgm"
        write_pgm(src, pix)
        left, right = tmp_path / "l.pgm", tmp_path / "r.pgm"
        write_pgm(left, pix[:, :32])
        write_pgm(right, pix[:, 32:])
        out = tmp_path / "win.pgm"
        code, stdout, _ = invoke(
            ["segment", "--method", "windows", "--window", "9", "--refine", "3",
             "--exemplar", f"0:{left}", "--exemplar", f"1:{right}", str(src), str(out)]
        )
        assert code == 0 and stdout.strip() == "regions\t2"
        img = decode_pnm(out.read_bytes())
        assert (img.pixels[:, :16] == 0).all()
        assert (img.pixels[:, 48:] == 255).all()

    def test_windows_without_exemplars_is_usage_error(self, tmp_path, half_image_file):
        out = tmp_path / "o.pgm"
        code, _, _ = invoke(["segment", "--method", "windows", str(half_image_file), str(out)])
        assert code == 1 and not out.exists()

    def test_k_too_large_exits_3(self, tmp_path):
        src = tmp_path / "tiny.pgm"
        write_pgm(src, [[1, 2], [3, 4]])
        out = tmp_path / "o.pgm"
        code, _, _ = invoke(["segment", "--method", "kmeans", "--k", "9", str(src), str(out)])
        assert code == 3 and not out.exists()


class TestIngestAndQuery:
    def make_images(self, tmp_path):
        paths = []
        for i, base in enumerate((20, 90, 200)):
            pix = np.full((6, 6), base, dtype=np.uint8) + lcg_bytes(i, 36).reshape(6, 6) % 11
            p = tmp_path / f"img{i}.pgm"
            write_pgm(p, pix)
            paths.append(p)
        return paths

    def test_ingest_prints_sequential_ids(self, tmp_path):
        idx = tmp_path / "idx.tsv"
        for i, p in enumerate(self.make_images(tmp_path)):
            code, stdout, _ = invoke(["ingest", "--index", str(idx), "--desc", f"image {i}", str(p)])
            assert code == 0
            assert stdout.strip() == str(i)
        assert idx.exists()

    def test_query_rows_sorted_and_formatted(self, tmp_path):
        idx = tmp_path / "idx.tsv"
        paths = self.make_images(tmp_path)
        for i, p in enumerate(paths):
            invoke(["ingest", "--index", str(idx), "--desc", f"image {i}", str(p)])
        code, stdout, _ = invoke(["query", "--index", str(idx), "--top", "5", str(paths[1])])
        assert code == 0
        rows = [line.split("\t") for line in stdout.strip().split("\n")]
        assert len(rows) == 3  # capped at record count
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert rows[0][1] == "1" and rows[0][2] == "1.000000"
        scores = [float(r[2]) for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_optimized_equals_exhaustive(self, tmp_path):
        idx = tmp_path / "idx.tsv"
        paths = self.make_images(tmp_path)
        for i, p in enumerate(paths):
            invoke(["ingest", "--index", str(idx), "--desc", f"image {i}", str(p)])
        _, fast, _ = invoke(["query", "--index", str(idx), "--top", "2", str(paths[0])])
        _, slow, _ = invoke(["query", "--index", str(idx), "--top", "2", "--exhaustive", str(paths[0])])
        assert fast == slow

    def test_gray_into_color_index_exits_3(self, tmp_path):
        idx = tmp_path / "idx.tsv"
        color = tmp_path / "c.ppm"
        write_ppm(color, np.zeros((2, 2, 3)))
        gray = tmp_path / "g.pgm"
        write_pgm(gray, [[1, 2], [3, 4]])
        assert invoke(["ingest", "--index", str(idx), "--desc", "c", str(color)])[0] == 0
        code, _, _ = invoke(["ingest", "--index", str(idx), "--desc", "g", str(gray)])
        assert code == 3

    def test_top_zero_exits_3(self, tmp_path):
        idx = tmp_path / "idx.tsv"
        img = tmp_path / "i.pgm"
        write_pgm(img, [[5]])
        invoke(["ingest", "--index", str(idx), "--desc", "x", str(img)])
        code, _, _ = invoke(["query", "--index", str(idx), "--top", "0", str(img)])
        assert code == 3

    def test_unwritable_output_exits_2(self, tmp_path, half_image_file):
        out = tmp_path / "no" / "such" / "dir" / "o.pgm"
        code, _, _ = invoke(["threshold", "--method", "otsu", str(half_image_file), str(out)])
        assert code == 2 and not out.exists()

    def test_corrupt_index_exits_2(self, tmp_path):
        idx = tmp_path / "idx.tsv"
        idx.write_text("garbage\n")
        img = tmp_path / "i.pgm"
        write_pgm(img, [[5]])
        code, _, _ = invoke(["ingest", "--index", str(idx), "--desc", "x", str(img)])
        assert code == 2
        assert idx.read_text() == "garbage\n"  # failed ingest leaves file alone

    @pytest.mark.parametrize("mode", ["ingest", "query", "query-exhaustive"])
    @pytest.mark.parametrize("text", [
        pytest.param(b"SEGIDX\t1\t256\n\xff\n", id="not-utf8"),
        # int64 pivot arithmetic would wrap: query found id 1 at 0.5, the scan id 0 at 1.0
        pytest.param(("SEGIDX\t1\t256\n0\t" + str(2**60) + "\t" + ",".join([str(2**60)] + ["0"] * 255)
                      + "\tp\td\n1\t2\t" + ",".join(["1", "1"] + ["0"] * 254) + "\tq\te\n").encode(),
                     id="total-times-dim-2**68"),
    ])
    def test_unreadable_index_exits_2(self, tmp_path, text, mode):
        idx = tmp_path / "idx.tsv"
        idx.write_bytes(text)
        img = tmp_path / "zero.pgm"
        write_pgm(img, np.zeros((4, 4)))
        argv = {"ingest": ["ingest", "--desc", "x"], "query": ["query", "--top", "1"],
                "query-exhaustive": ["query", "--top", "1", "--exhaustive"]}[mode]
        code, stdout, err = invoke(argv + ["--index", str(idx), str(img)])
        assert code == 2 and err and not stdout
        assert idx.read_bytes() == text

    def test_description_with_tab_round_trips_escaped(self, tmp_path):
        idx = tmp_path / "idx.tsv"
        img = tmp_path / "i.pgm"
        write_pgm(img, [[5, 6], [7, 8]])
        code, _, _ = invoke(["ingest", "--index", str(idx), "--desc", "tab\there", str(img)])
        assert code == 0
        _, stdout, _ = invoke(["query", "--index", str(idx), "--top", "1", str(img)])
        fields = stdout.strip().split("\t")
        assert fields[4] == "tab\\there"  # escaped in TSV output

    def test_carriage_return_in_description_round_trips_escaped(self, tmp_path):
        idx = tmp_path / "idx.tsv"
        img = tmp_path / "i.pgm"
        write_pgm(img, [[5, 6], [7, 8]])
        for desc in ("a\rb", "c"):
            code, _, err = invoke(["ingest", "--index", str(idx), "--desc", desc, str(img)])
            assert code == 0, err
        code, stdout, err = invoke(["query", "--index", str(idx), "--top", "2", str(img)])
        assert code == 0, err
        assert [row.split("\t")[4] for row in stdout.splitlines()] == ["a\\rb", "c"]

    def test_lock_failure_exits_2(self, tmp_path, monkeypatch):
        def no_locks(fd, operation):
            raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

        monkeypatch.setattr(fcntl, "flock", no_locks)
        idx, img = tmp_path / "idx.tsv", tmp_path / "i.pgm"
        write_pgm(img, [[5]])
        code, stdout, err = invoke(["ingest", "--index", str(idx), "--desc", "x", str(img)])
        assert code == 2 and "cannot lock" in err and not stdout
        assert not idx.exists()

    def test_concurrent_ingests_keep_every_record(self, tmp_path):
        idx, img, n = tmp_path / "idx.tsv", tmp_path / "i.pgm", 15
        write_pgm(img, [[5, 6], [7, 8]])
        ctx = multiprocessing.get_context("spawn")
        barrier, results = ctx.Barrier(2), ctx.Queue()
        workers = [
            ctx.Process(target=ingest_loop, args=(w, str(idx), str(img), n, barrier, results))
            for w in range(2)
        ]
        for p in workers:
            p.start()
        outcomes = [results.get(timeout=120) for _ in workers]
        for p in workers:
            p.join(timeout=30)
            assert not p.is_alive() and p.exitcode == 0
        assert [failures for _, _, failures in outcomes] == [[], []]
        ids = sorted(i for _, worker_ids, _ in outcomes for i in worker_ids)
        assert ids == list(range(2 * n))
        records = decode_index(idx.read_text()).records
        assert sorted(r.description for r in records) == sorted(
            f"{w}-{i}" for w in range(2) for i in range(n)
        )


class TestPredictCommand:
    def test_predict_bright_vs_dark(self, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text(
            "RULE dark : mean IN (0,0,60,100)\n"
            "RULE bright : mean IN (100,140,255,255)\n"
        )
        img = tmp_path / "bright.pgm"
        write_pgm(img, np.full((8, 8), 210))
        code, stdout, _ = invoke(["predict", "--rules", str(rules), str(img)])
        assert code == 0
        label, confidence = stdout.strip().split("\t")
        assert label == "bright" and confidence == "1.000000"

    def test_predict_uses_region_features(self, tmp_path, half_image_file):
        rules = tmp_path / "rules.txt"
        rules.write_text(
            "RULE split : region_count IN (2,2,2,2) AND size_fraction IN (0.4,0.45,0.55,0.6)\n"
            "RULE whole : region_count IN (1,1,1,1)\n"
        )
        code, stdout, _ = invoke(["predict", "--rules", str(rules), str(half_image_file)])
        assert code == 0
        assert stdout.startswith("split\t")

    def test_missing_feature_exits_3(self, tmp_path, half_image_file):
        rules = tmp_path / "rules.txt"
        rules.write_text("RULE x : no_such_feature IN (0,1,2,3)\n")
        code, _, _ = invoke(["predict", "--rules", str(rules), str(half_image_file)])
        assert code == 3

    def test_bad_rules_file_exits_2(self, tmp_path, half_image_file):
        rules = tmp_path / "rules.txt"
        rules.write_text("RULE broken\n")
        code, _, _ = invoke(["predict", "--rules", str(rules), str(half_image_file)])
        assert code == 2

    def test_non_utf8_rules_file_exits_2(self, tmp_path, half_image_file):
        rules = tmp_path / "rules.txt"
        rules.write_bytes(b"RULE x : mean IN (0,0,255,255) \xff\n")
        code, stdout, err = invoke(["predict", "--rules", str(rules), str(half_image_file)])
        assert code == 2 and err and not stdout

    def test_kmeans_segment_method(self, tmp_path, half_image_file):
        rules = tmp_path / "rules.txt"
        rules.write_text("RULE any : region_count IN (0,0,99,99)\n")
        code, stdout, _ = invoke(
            ["predict", "--rules", str(rules), "--segment-method", "kmeans", "--k", "2",
             str(half_image_file)]
        )
        assert code == 0 and stdout.startswith("any\t1.000000")


class TestDeterminism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        # identical argv + identical input files -> byte-identical outputs
        pix, _ = noisy_half_image()
        src = tmp_path / "in.pgm"
        write_pgm(src, pix)
        seg = tmp_path / "seg.pgm"
        thr = tmp_path / "thr.pgm"
        idx = tmp_path / "idx.tsv"
        runs = []
        for _ in range(2):
            invoke(["segment", "--method", "edge", "--k", "2", str(src), str(seg)])
            invoke(["threshold", "--method", "otsu", str(src), str(thr)])
            if idx.exists():
                idx.unlink()  # ingest appends, so reset between runs
            invoke(["ingest", "--index", str(idx), "--desc", "fixture", str(src)])
            _, q, _ = invoke(["query", "--index", str(idx), "--top", "1", str(src)])
            runs.append((seg.read_bytes(), thr.read_bytes(), idx.read_bytes(), q))
        assert runs[0] == runs[1]


class TestParameterErrors:
    @pytest.mark.parametrize("argv", [
        pytest.param(["segment", "--method", "region", "--smooth-radius", "-1"], id="smooth-radius"),
        pytest.param(["segment", "--method", "region", "--min-seed-size", "0"], id="min-seed-size"),
        pytest.param(["segment", "--method", "region", "--variance-threshold", "-1"],
                     id="variance-threshold"),
        pytest.param(["segment", "--method", "region", "--min-region-size", "-1"],
                     id="min-region-size"),
        pytest.param(["segment", "--method", "region", "--contrast-guard", "-1"], id="contrast-guard"),
        pytest.param(["segment", "--method", "kmeans", "--k", "0"], id="k"),
        pytest.param(["segment", "--method", "kmeans", "--k", "2", "--max-iter", "0"], id="max-iter"),
        pytest.param(["segment", "--method", "kmeans", "--k", "2", "--epsilon", "-1"], id="epsilon"),
        pytest.param(["segment", "--method", "kmeans", "--k", "2", "--epsilon", "nan"],
                     id="epsilon-nan"),
        pytest.param(["segment", "--method", "edge", "--k", "2", "--beta", "-1"], id="beta"),
        pytest.param(["segment", "--method", "edge", "--k", "3", "--beta", "nan"], id="beta-nan"),
        pytest.param(["segment", "--method", "edge", "--k", "3", "--beta", "inf"], id="beta-inf"),
        pytest.param(["segment", "--method", "windows", "--exemplar", "0:{image}", "--refine", "-1"],
                     id="refine"),
        pytest.param(["segment", "--method", "windows", "--exemplar", "0:{image}", "--window", "4"],
                     id="segment-window"),
        pytest.param(["threshold", "--method", "valley", "--window", "4"], id="threshold-window"),
        pytest.param(["threshold", "--method", "valley", "--window", str(2**60 + 1)],
                     id="threshold-window-too-large"),
        pytest.param(["segment", "--method", "windows", "--exemplar", "0:{image}",
                      "--window", str(2**32 + 1)], id="segment-window-too-large"),
        pytest.param(["segment", "--method", "region", "--smooth-radius", str(2**31)],
                     id="smooth-radius-too-large"),
        pytest.param(["segment", "--method", "windows", "--exemplar", "2147483648:{image}"],
                     id="exemplar-label"),
        pytest.param(["segment", "--method", "windows", "--exemplar", "1" * 5000 + ":{image}"],
                     id="exemplar-label-digits"),
        pytest.param(["predict", "--rules", "{rules}", "--smooth-radius", "-1"],
                     id="predict-smooth-radius"),
        pytest.param(["predict", "--rules", "{rules}", "--segment-method", "kmeans", "--k", "0"],
                     id="predict-k"),
        pytest.param(["predict", "--rules", "{rules}", "--segment-method", "edge", "--beta", "-1"],
                     id="predict-beta"),
        pytest.param(["predict", "--rules", "{rules}", "--segment-method", "edge", "--beta", "nan"],
                     id="predict-beta-nan"),
        pytest.param(["predict", "--rules", "{rules}", "--segment-method", "edge", "--beta", "inf"],
                     id="predict-beta-inf"),
        pytest.param(["segment", "--method", "region", "--variance-threshold", "inf"],
                     id="variance-threshold-inf"),
        pytest.param(["predict", "--rules", "{rules}", "--variance-threshold", "nan"],
                     id="predict-variance-threshold-nan"),
        pytest.param(["segment", "--method", "region", "--contrast-guard", "nan"],
                     id="contrast-guard-nan"),
        pytest.param(["ingest", "--index", "{out}", "--desc", "two\nlines"], id="desc-newline"),
        pytest.param(["ingest", "--index", "{out}", "--desc", "bad \udcff byte"], id="desc-not-utf8"),
    ])
    def test_out_of_range_flag_exits_3(self, tmp_path, half_image_file, argv):
        rules = tmp_path / "rules.txt"
        rules.write_text("RULE any : mean IN (0,0,255,255)\n")
        out = tmp_path / "o.pgm"
        argv = [a.format(image=half_image_file, rules=rules, out=out) for a in argv]
        argv.append(str(half_image_file))
        if argv[0] in ("segment", "threshold"):
            argv.append(str(out))
        code, stdout, err = invoke(argv)
        assert code == 3 and err and not stdout
        assert not out.exists()

    def test_valley_adjacent_peaks_exits_3(self, tmp_path):
        # the only two maxima are neighbors, with no bin between them
        src = tmp_path / "two-levels.pgm"
        write_pgm(src, np.repeat([[100, 101]], 4, axis=0))
        out = tmp_path / "o.pgm"
        code, stdout, err = invoke(["threshold", "--method", "valley", "--window", "1",
                                    "--min-sep", "1", str(src), str(out)])
        assert code == 3 and err and not stdout
        assert not out.exists()
