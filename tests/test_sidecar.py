"""The column sidecar: `segkit ingest` writes <index>.cols beside the index,
a `segkit query` that had to decode the index text fills it, and `segkit
query` and `segkit ingest` build the index from it when it was made for the
index's exact bytes. A sidecar never changes an outcome: every op gives the
exit code, stdout, stderr and index bytes of a run that never had one,
whatever state the sidecar is in."""

import _imp
import importlib.util
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segkit import cli, retrieval
from segkit.cli import run
from segkit.errors import EmptyIndex, FormatError
from segkit.raster import GrayImage, RgbImage, encode_pnm, global_feature
from segkit.retrieval import (ImageRecord, Index, decode_index, decode_sidecar, encode_index, encode_sidecar,
                              search_exhaustive, search_optimized)

from fixture_builders import lcg_bytes

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

GRAYS = [lcg_bytes(seed, 36).reshape(6, 6) // (seed + 1) for seed in range(4)]
COLORS = [lcg_bytes(10 + seed, 4 * 5 * 3).reshape(4, 5, 3) for seed in range(3)]
IMAGES = [f"g{i}.pgm" for i in range(len(GRAYS))] + [f"c{i}.ppm" for i in range(len(COLORS))]
DESCRIPTIONS = ["plain", "tab\there", "back\\slash", "café", "cr\rhere", ""]


def write_images(directory: str) -> None:
    for name, pixels in zip(IMAGES, GRAYS + COLORS):
        image = GrayImage(pixels) if pixels.ndim == 2 else RgbImage(pixels)
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(encode_pnm(image))


def invoke(directory: str, argv: list[str]) -> tuple[int, str, str]:
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        out, err = io.StringIO(), io.StringIO()
        return run(argv, out, err), out.getvalue(), err.getvalue()
    finally:
        os.chdir(cwd)


def read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (FileNotFoundError, IsADirectoryError):
        return None


def write(path: str, data: bytes) -> None:
    if os.path.isdir(path):
        os.rmdir(path)
    with open(path, "wb") as fh:
        fh.write(data)


def records(seed: int, n: int, dim: int, high: int) -> list[ImageRecord]:
    """n records of dim counts, the largest of them high."""
    rows = lcg_bytes(seed, n * dim).reshape(n, dim).astype(np.int64)
    rows[:, 0] = high
    return [ImageRecord(i, f"p{i}\té", DESCRIPTIONS[i % len(DESCRIPTIONS)], row, int(row.sum()))
            for i, row in enumerate(rows)]


def sidecar_of(text: str) -> tuple[bytes, bytes]:
    """The UTF-8 bytes of an index text and their sidecar."""
    data = text.encode()
    return data, b"".join(encode_sidecar(decode_index(text), data))


class CountingFile(io.BytesIO):
    """A sidecar file that records the size of each read."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.tally = []

    def read(self, size=-1):
        data = super().read(size)
        self.tally.append(len(data))
        return data


class TestCodec:
    @pytest.mark.parametrize("high, width", [(255, 1), (256, 2), (65535, 2), (65536, 4), (2**32, 8),
                                             (2**54, 8)])
    @pytest.mark.parametrize("dim", [64, 256])
    def test_decoded_like_decode_index(self, high, width, dim):
        text = encode_index(Index(dim, records(dim + width, 5, dim, high)))
        data, sidecar = sidecar_of(text)
        assert len(sidecar) == 48 + 5 * dim * width + 8 * 5 + 8 * 6 + 8
        hit, parsed = decode_sidecar(data, io.BytesIO(sidecar)), decode_index(text)
        assert hit.feature_dim == parsed.feature_dim == dim
        (columns, tail), (expected, _) = hit._parts, parsed._parts
        assert tail == [] and columns.counts.dtype.itemsize == width and not columns.counts.flags.writeable
        assert columns.ids.dtype == expected.ids.dtype
        for name in ("ids", "counts", "totals", "text", "bounds"):
            assert np.array_equal(getattr(columns, name), getattr(expected, name)), name
        assert encode_index(hit) == text
        query = global_feature(GrayImage(GRAYS[1])) if dim == 256 else global_feature(RgbImage(COLORS[0]))
        for top in (1, 3, 7):
            assert search_exhaustive(hit, query, top) == search_exhaustive(parsed, query, top)
            assert search_optimized(hit, query, top) == search_optimized(parsed, query, top)
        for got, want in zip(hit.records, parsed.records):
            assert [got.id, got.path, got.description, got.total, got._line] == [
                want.id, want.path, want.description, want.total, want._line]
            assert np.array_equal(got.counts, want.counts)
            assert type(got.total) is int and got.counts.dtype == np.int64 and not got.counts.flags.writeable

    def test_ingest_after_a_hit_encodes_the_old_text_and_the_new_line(self):
        text = encode_index(Index(256, records(1, 4, 256, 300)))
        index = decode_sidecar(text.encode(), io.BytesIO(sidecar_of(text)[1]))
        new_id = retrieval.ingest(index, GrayImage(GRAYS[2]), "new", "new.pgm")
        reference = decode_index(text)
        retrieval.ingest(reference, GrayImage(GRAYS[2]), "new", "new.pgm")
        assert new_id == 4
        assert encode_index(index) == encode_index(reference) == text + reference.records[4]._line + "\n"
        data = encode_index(index).encode()
        sidecars = [b"".join(encode_sidecar(i, data)) for i in (index, reference)]
        assert sidecars == [sidecar_of(data.decode())[1]] * 2
        # a search joins the columns with the new record's, and builds no record list
        query, fresh = global_feature(GrayImage(GRAYS[2])), decode_index(data.decode())
        for searched in (index, reference):
            assert search_optimized(searched, query, 3) == search_optimized(fresh, query, 3)
            assert search_exhaustive(searched, query, 5) == search_exhaustive(fresh, query, 5)
        assert index._parts[0] is not None and len(index._parts[1]) == 1

    def test_misses(self):
        data, sidecar = sidecar_of(encode_index(Index(64, records(2, 3, 64, 9))))
        edited = data.replace(b"\tp0", b"\tq0")  # the same length, edited in place
        assert len(edited) == len(data) and edited != data
        # the same columns keyed to the edited bytes: only the hash tells them apart
        other = b"".join(encode_sidecar(decode_index(data.decode()), edited))
        head = np.frombuffer(sidecar, "<u8", 4, 16).copy()
        misses = [b"", b"\0" * 48, other, sidecar + b"\0", sidecar[:-1], bytes(48) + sidecar[48:]]
        misses += [sidecar[:cut] for cut in range(0, len(sidecar), 7)]
        for field, value in [(0, len(data) + 1), (1, 2), (1, 4), (2, 256), (3, 2), (3, 3)]:
            changed = head.copy()
            changed[field] = value
            misses.append(sidecar[:16] + changed.tobytes() + sidecar[48:])
        # the key another Python version computes: source_hash is keyed by the bytecode magic
        version = int.from_bytes(importlib.util.MAGIC_NUMBER[:2], "little") + 1
        misses.append(sidecar[:8] + _imp.source_hash(version, data) + sidecar[16:])
        assert decode_sidecar(data, io.BytesIO(sidecar)) is not None
        for miss in misses:
            assert decode_sidecar(data, io.BytesIO(miss)) is None
        assert decode_sidecar(edited, io.BytesIO(sidecar)) is None

    def test_every_flipped_byte_is_a_miss(self):
        data, sidecar = sidecar_of(encode_index(Index(256, records(9, 3, 256, 300))))
        assert decode_sidecar(data, io.BytesIO(sidecar)) is not None
        for at in range(len(sidecar)):
            flipped = sidecar[:at] + bytes([sidecar[at] ^ 1]) + sidecar[at + 1 :]
            assert decode_sidecar(data, io.BytesIO(flipped)) is None, at

    def test_header_only_and_non_utf8_bytes_miss(self):
        data, sidecar = sidecar_of(encode_index(Index(64, records(4, 1, 64, 9))))
        header = b"SEGIDX\t1\t64\n"
        # an entry for no records, keyed to a header-only index
        empty = b"SEGCOLS2" + importlib.util.source_hash(header) + np.array([len(header), 0, 64, 1], "<u8").tobytes()
        assert decode_sidecar(header, io.BytesIO(empty + np.zeros(1, "<i8").tobytes())) is None
        bad = data[:-2] + b"\xff\n"
        keyed = sidecar[:8] + importlib.util.source_hash(bad) + sidecar[16:]
        assert decode_sidecar(bad, io.BytesIO(keyed)) is None

    def test_a_keyed_sidecar_of_no_records_builds_the_header_only_index(self):
        # segkit writes none, but one made with the key and the sum is read as it is
        header = b"SEGIDX\t1\t256\n"
        words = np.array([len(header), 0, 256, 1, 0], "<u8")  # the head's four, then the bound 0
        sidecar = b"SEGCOLS2" + importlib.util.source_hash(header) + words.tobytes()
        hit = decode_sidecar(header, io.BytesIO(sidecar + int(words.sum()).to_bytes(8, "little")))
        assert hit is not None and hit.feature_dim == 256
        parsed = decode_index(header.decode())
        for index in (hit, parsed):
            assert retrieval.ingest(index, GrayImage(GRAYS[0]), "d", "p.pgm") == 0
        data = encode_index(hit).encode()
        assert data == encode_index(parsed).encode()
        assert b"".join(encode_sidecar(hit, data)) == b"".join(encode_sidecar(parsed, data))

    @pytest.mark.parametrize("index", [Index(), Index(feature_dim=256), decode_index("SEGIDX\t1\t64\n")])
    def test_encode_refuses_an_index_with_no_records(self, index):
        with pytest.raises(EmptyIndex):
            encode_sidecar(index, encode_index(index).encode())

    def test_a_hit_reads_the_head_and_then_the_whole_file(self):
        data, sidecar = sidecar_of(encode_index(Index(256, records(6, 3, 256, 300))))
        file = CountingFile(sidecar)
        assert decode_sidecar(data, file) is not None
        assert file.tally == [retrieval.SIDECAR_HEAD, len(sidecar) - retrieval.SIDECAR_HEAD]

    @pytest.mark.parametrize("state", ["other length", "other hash", "other version", "garbage", "short"])
    def test_a_miss_is_read_no_further_than_its_head(self, state):
        data, sidecar = sidecar_of(encode_index(Index(256, records(7, 3, 256, 300))))
        if state == "other length":
            sidecar = sidecar_of(encode_index(Index(256, records(8, 2, 256, 9))))[1]
        elif state == "other hash":
            sidecar = sidecar[:8] + bytes(b ^ 1 for b in sidecar[8:16]) + sidecar[16:]
        elif state == "other version":
            version = int.from_bytes(importlib.util.MAGIC_NUMBER[:2], "little") + 1
            sidecar = sidecar[:8] + _imp.source_hash(version, data) + sidecar[16:]
        elif state == "garbage":
            sidecar = bytes(range(48)) + sidecar[48:]
        else:
            sidecar = sidecar[: retrieval.SIDECAR_HEAD - 1]
        file = CountingFile(sidecar)
        assert decode_sidecar(data, file) is None
        assert sum(file.tally) <= retrieval.SIDECAR_HEAD


# What happens to the sidecar before an op, in the cached directory only:
TREATMENTS = ["keep", "delete", "truncate", "flip", "garbage", "reshape", "directory", "rewrite", "edit"]


def treat(directory: str, plain: str, treatment: str, index: str, draw: bytes) -> None:
    """Apply treatment to <index>.cols in directory. "rewrite" and "edit"
    change the index itself, identically in plain, the directory that never
    has a sidecar: by encode_index after a library ingest, or in place."""
    cols = os.path.join(directory, index + ".cols")
    sidecar = read(cols)
    if treatment == "delete" and sidecar is not None:
        os.remove(cols)
    elif treatment == "truncate" and sidecar:
        write(cols, sidecar[: int.from_bytes(draw[:4] or b"\0", "little") % len(sidecar)])
    elif treatment == "flip" and sidecar:
        bit = int.from_bytes(draw[:4] or b"\0", "little") % (8 * len(sidecar))
        write(cols, sidecar[: bit // 8] + bytes([sidecar[bit // 8] ^ 1 << bit % 8]) + sidecar[bit // 8 + 1 :])
    elif treatment == "garbage":
        write(cols, b"SEGCOLS2"[: len(draw) % 9] + draw)
    elif treatment == "reshape" and sidecar and len(sidecar) >= 48:
        head = np.frombuffer(sidecar, "<u8", 4, 16).copy()
        head[1 + len(draw) % 3] += 1  # the record count, dimension or width
        write(cols, sidecar[:16] + head.tobytes() + sidecar[48:])
    elif treatment == "directory" and not os.path.isdir(cols):
        if sidecar is not None:
            os.remove(cols)
        os.mkdir(cols)
    elif treatment in ("rewrite", "edit"):
        data = read(os.path.join(plain, index))
        if data is None:
            return
        if treatment == "rewrite":
            try:  # an index an earlier edit broke stays as it is
                library = decode_index(data.decode())
            except (UnicodeDecodeError, FormatError):
                return
            retrieval.ingest(library, GrayImage(GRAYS[0]) if library.feature_dim != 64 else RgbImage(COLORS[0]),
                             "library", "lib.pgm")
            data = encode_index(library).encode()
        else:
            at = int.from_bytes(draw[:4] or b"\1", "little") * 7919 % (len(data) - 1)
            data = data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]
        for d in (directory, plain):
            write(os.path.join(d, index), data)


OP = st.one_of(
    st.tuples(st.just("ingest"), st.sampled_from(["g.idx", "c.idx"]), st.sampled_from(IMAGES),
              st.sampled_from(DESCRIPTIONS)),
    st.tuples(st.just("query"), st.sampled_from(["g.idx", "c.idx"]), st.sampled_from(IMAGES),
              st.integers(1, 4), st.booleans()),
)
# kept sidecars most often, so that most ops after an ingest take the hit path
STEP = st.tuples(OP, st.sampled_from(["keep"] * 6 + TREATMENTS), st.binary(max_size=40))


def argv_of(op) -> list[str]:
    if op[0] == "ingest":
        _, index, image, desc = op
        return ["ingest", "--index", index, "--desc", desc, image]
    _, index, image, top, exhaustive = op
    return ["query", "--index", index, "--top", str(top), *(["--exhaustive"] if exhaustive else []), image]


@PROPERTY
@given(st.lists(STEP, min_size=3, max_size=12))
# the random steps seldom flip a sidecar that segkit wrote, so one always runs: two
# 256-bin records, then bit 0 of record 0's total (byte 48 + 2 * 256) flipped before a query
@example([(("ingest", "g.idx", "g0.pgm", "plain"), "keep", b""), (("ingest", "g.idx", "g1.pgm", "plain"), "keep", b""),
          (("query", "g.idx", "g1.pgm", 2, False), "flip", (8 * 560).to_bytes(4, "little"))])
def test_a_sidecar_never_changes_an_outcome(steps):
    with tempfile.TemporaryDirectory() as cached, tempfile.TemporaryDirectory() as plain:
        for d in (cached, plain):
            write_images(d)
        for op, treatment, draw in steps:
            treat(cached, plain, treatment, op[1], draw)
            argv = argv_of(op)
            got, want = invoke(cached, argv), invoke(plain, argv)
            assert got == want, (argv, treatment)
            for name in ("g.idx", "c.idx"):
                assert read(os.path.join(cached, name)) == read(os.path.join(plain, name))
                cols = os.path.join(plain, name + ".cols")
                if os.path.exists(cols):
                    os.remove(cols)


QUERY = ["query", "--index", "g.idx", "--top", "2", "g1.pgm"]


def snapshot(directory) -> dict:
    """Each file in directory by name: its bytes (None for a directory) and
    modification time."""
    return {p.name: (read(str(p)), p.stat().st_mtime_ns) for p in directory.iterdir()}


def ingest_two(directory) -> None:
    write_images(str(directory))
    for image in ("g0.pgm", "g1.pgm"):
        assert invoke(str(directory), ["ingest", "--index", "g.idx", "--desc", image, image])[0] == 0


class TestCli:
    def test_ingest_writes_the_sidecar_of_the_bytes_it_wrote(self, tmp_path):
        ingest_two(tmp_path)
        data, sidecar = (tmp_path / "g.idx").read_bytes(), (tmp_path / "g.idx.cols").read_bytes()
        assert sidecar == sidecar_of(data.decode())[1]
        assert decode_sidecar(data, io.BytesIO(sidecar)) is not None

    @pytest.mark.parametrize("state", ["fresh", "other length", "other hash"])
    @pytest.mark.parametrize("argv", [["query", "--index", "g.idx", "--top", "2", "g1.pgm"],
                                      ["ingest", "--index", "g.idx", "--desc", "x", "g2.pgm"]])
    def test_a_stale_sidecar_is_read_no_further_than_its_head(self, tmp_path, monkeypatch, state, argv):
        ingest_two(tmp_path)
        cols = tmp_path / "g.idx.cols"
        if state == "other length":
            cols.write_bytes(sidecar_of(encode_index(Index(256, records(5, 2, 256, 9))))[1])
        elif state == "other hash":
            sidecar = cols.read_bytes()
            cols.write_bytes(sidecar[:8] + bytes(b ^ 1 for b in sidecar[8:16]) + sidecar[16:])
        size, tally = cols.stat().st_size, []

        class Counted(io.FileIO):
            def read(self, size=-1):
                data = super().read(size)
                tally.append(len(data))
                return data

        def counting_open(path, *args, **kwargs):
            return Counted(path) if str(path).endswith(".cols") else open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        got = invoke(str(tmp_path), argv), (tmp_path / "g.idx").read_bytes()
        assert sum(tally) >= size if state == "fresh" else sum(tally) <= retrieval.SIDECAR_HEAD
        monkeypatch.undo()
        (tmp_path / "plain").mkdir()
        ingest_two(tmp_path / "plain")
        (tmp_path / "plain" / "g.idx.cols").unlink()
        assert got == (invoke(str(tmp_path / "plain"), argv), (tmp_path / "plain" / "g.idx").read_bytes())

    @pytest.mark.parametrize("argv", [["query", "--index", "g.idx", "--top", "2", "g1.pgm"],
                                      ["ingest", "--index", "g.idx", "--desc", "x", "g2.pgm"]])
    def test_a_hit_parses_no_text(self, tmp_path, monkeypatch, argv):
        ingest_two(tmp_path)

        def refuse(text):
            raise AssertionError("decode_index called on a hit")

        monkeypatch.setattr(retrieval, "decode_index", refuse)
        code, stdout, err = invoke(str(tmp_path), argv)
        assert (code, err) == (0, "") and stdout

    def test_a_query_that_hits_hashes_the_index_once(self, tmp_path, monkeypatch):
        ingest_two(tmp_path)
        hashed = []

        def counting_hash(data):
            hashed.append(len(data))
            return source_hash(data)

        source_hash = importlib.util.source_hash
        monkeypatch.setattr(importlib.util, "source_hash", counting_hash)
        monkeypatch.setattr(retrieval, "decode_index", None)  # a miss would fail
        code, stdout, err = invoke(str(tmp_path), ["query", "--index", "g.idx", "--top", "2", "g1.pgm"])
        assert (code, err) == (0, "") and stdout
        assert hashed == [(tmp_path / "g.idx").stat().st_size]

    def test_a_query_that_hits_writes_nothing(self, tmp_path):
        ingest_two(tmp_path)
        before = snapshot(tmp_path)
        assert invoke(str(tmp_path), QUERY)[0] == 0
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("state", ["none", "other length", "other hash", "truncated"])
    def test_a_query_that_misses_fills_the_sidecar(self, tmp_path, state):
        ingest_two(tmp_path)
        cols = tmp_path / "g.idx.cols"
        hit = invoke(str(tmp_path), QUERY)
        if state == "none":
            cols.unlink()
        elif state == "other length":
            cols.write_bytes(sidecar_of(encode_index(Index(256, records(5, 2, 256, 9))))[1])
        elif state == "other hash":
            sidecar = cols.read_bytes()
            cols.write_bytes(sidecar[:8] + bytes(b ^ 1 for b in sidecar[8:16]) + sidecar[16:])
        else:
            cols.write_bytes(cols.read_bytes()[:40])
        before = snapshot(tmp_path)
        before.pop(cols.name, None)
        assert invoke(str(tmp_path), QUERY) == hit
        after = snapshot(tmp_path)
        assert after.pop(cols.name)[0] == sidecar_of((tmp_path / "g.idx").read_text())[1]
        assert after == before

    def test_a_flipped_bit_anywhere_in_the_sidecar_changes_no_outcome(self, tmp_path):
        ingest_two(tmp_path)
        cols, index = tmp_path / "g.idx.cols", tmp_path / "g.idx"
        sidecar, data = cols.read_bytes(), index.read_bytes()
        ops = [QUERY, ["ingest", "--index", "g.idx", "--desc", "x", "g2.pgm"]]

        def outcome(argv, sidecar):
            index.write_bytes(data)
            if sidecar is None:
                cols.unlink(missing_ok=True)
            else:
                cols.write_bytes(sidecar)
            return invoke(str(tmp_path), argv), index.read_bytes()

        plain = [outcome(argv, None) for argv in ops]
        # bit 0 of every 3rd byte, through the head, counts, totals and bounds,
        # and of the closing sum's first byte
        for at in [*range(0, len(sidecar), 3), len(sidecar) - 8]:
            flipped = sidecar[:at] + bytes([sidecar[at] ^ 1]) + sidecar[at + 1 :]
            for argv, want in zip(ops, plain):
                assert outcome(argv, flipped) == want, (at, argv[0])

    def test_a_sidecar_directory_stays_and_the_query_prints_as_before(self, tmp_path):
        ingest_two(tmp_path)
        hit = invoke(str(tmp_path), QUERY)
        (tmp_path / "g.idx.cols").unlink()
        (tmp_path / "g.idx.cols").mkdir()
        before = snapshot(tmp_path)
        assert invoke(str(tmp_path), QUERY) == hit
        assert snapshot(tmp_path) == before and not os.listdir(tmp_path / "g.idx.cols")

    def test_a_header_only_index_gets_no_fill(self, tmp_path):
        write_images(str(tmp_path))
        (tmp_path / "g.idx").write_bytes(b"SEGIDX\t1\t256\n")
        before = snapshot(tmp_path)
        assert invoke(str(tmp_path), QUERY) == (3, "", "segkit: index holds no records\n")
        assert snapshot(tmp_path) == before

    def test_a_fill_after_a_racing_ingest_is_a_miss_that_fills_again(self, tmp_path, monkeypatch):
        ingest_two(tmp_path)
        cols = tmp_path / "g.idx.cols"
        cols.unlink()
        old = (tmp_path / "g.idx").read_bytes()
        search = retrieval.search_optimized

        def racing(*args):
            # the ingest runs after the query read the index and before its fill
            monkeypatch.setattr(retrieval, "search_optimized", search)
            assert invoke(str(tmp_path), ["ingest", "--index", "g.idx", "--desc", "race", "g2.pgm"]) == (0, "2\n", "")
            return search(*args)

        monkeypatch.setattr(retrieval, "search_optimized", racing)
        assert invoke(str(tmp_path), QUERY)[0] == 0
        data = (tmp_path / "g.idx").read_bytes()
        assert data != old and cols.read_bytes() == sidecar_of(old.decode())[1]
        assert decode_sidecar(data, io.BytesIO(cols.read_bytes())) is None
        plain = tmp_path / "plain"
        plain.mkdir()
        write_images(str(plain))
        (plain / "g.idx").write_bytes(data)
        assert invoke(str(tmp_path), QUERY) == invoke(str(plain), QUERY)
        assert cols.read_bytes() == sidecar_of(data.decode())[1]

    @pytest.mark.parametrize("mode", ["ingest", "query"])
    def test_an_index_corrupted_in_place_beside_its_sidecar_names_the_line(self, tmp_path, mode):
        ingest_two(tmp_path)
        idx = tmp_path / "g.idx"
        lines = idx.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b",", b";", 1)  # one count separator, the same length
        idx.write_bytes(b"\n".join(lines))
        argv = {"ingest": ["ingest", "--desc", "x"], "query": ["query", "--top", "1"]}[mode]
        code, stdout, err = invoke(str(tmp_path), argv + ["--index", "g.idx", "g0.pgm"])
        assert (code, stdout) == (2, "") and err.startswith("segkit: line 3: ")
        assert idx.read_bytes() == b"\n".join(lines)

    def test_an_unwritable_sidecar_leaves_the_ingest_as_it_was(self, tmp_path):
        write_images(str(tmp_path))
        (tmp_path / "g.idx.cols").mkdir()
        for i, image in enumerate(("g0.pgm", "g1.pgm")):
            assert invoke(str(tmp_path), ["ingest", "--index", "g.idx", "--desc", "d", image]) == (0, f"{i}\n", "")
        assert (tmp_path / "g.idx.cols").is_dir()
        assert len(decode_index((tmp_path / "g.idx").read_text()).records) == 2
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".segkit-tmp")]

    def test_the_sidecar_of_a_symlinked_index_sits_beside_its_target(self, tmp_path, monkeypatch):
        write_images(str(tmp_path))
        (tmp_path / "data").mkdir()
        (tmp_path / "link.idx").symlink_to(os.path.join("data", "real.idx"))
        for image in ("g0.pgm", "g1.pgm"):
            assert invoke(str(tmp_path), ["ingest", "--index", "link.idx", "--desc", "d", image])[0] == 0
        assert (tmp_path / "data" / "real.idx.cols").is_file() and not (tmp_path / "link.idx.cols").exists()
        monkeypatch.setattr(retrieval, "decode_index", None)  # a query through the link hits
        code, stdout, _ = invoke(str(tmp_path), ["query", "--index", "link.idx", "--top", "1", "g1.pgm"])
        assert code == 0 and stdout.startswith("1\t1\t1.000000\t")

    def test_a_query_through_a_symlink_fills_beside_its_target(self, tmp_path):
        ingest_two(tmp_path)
        (tmp_path / "data").mkdir()
        os.rename(tmp_path / "g.idx", tmp_path / "data" / "real.idx")
        (tmp_path / "g.idx.cols").unlink()
        (tmp_path / "link.idx").symlink_to(os.path.join("data", "real.idx"))
        code, stdout, _ = invoke(str(tmp_path), ["query", "--index", "link.idx", "--top", "1", "g1.pgm"])
        assert code == 0 and stdout.startswith("1\t1\t1.000000\t")
        sidecar = sidecar_of((tmp_path / "data" / "real.idx").read_text())[1]
        assert (tmp_path / "data" / "real.idx.cols").read_bytes() == sidecar
        assert sorted(os.listdir(tmp_path / "data")) == ["real.idx", "real.idx.cols"]
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".cols") or p.name.startswith(".segkit")]
