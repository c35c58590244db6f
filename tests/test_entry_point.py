"""segkit.cli.main, the console script, run in a fresh interpreter: it gives
the exit code, stdout, stderr and files of run() in process, runs no
collection of the garbage collector, freezes the collector's objects before
the interpreter exits, and reports a failed stdout write, or a stdout closed
at start, as exit 2 with one diagnostic line. A diagnostic that cannot be
written is lost: it never reaches stdout and never changes the exit code.
Importing segkit.cli leaves the collector on or off as it found it, and no
other segkit module touches it."""

import errno
import functools
import gc
import io
import os
import pkgutil
import shutil
import subprocess
import sys

import pytest

import segkit
from segkit.cli import run
from segkit.raster import GrayImage, encode_pnm

from fixture_builders import noisy_half_image

MAIN = "from segkit.cli import main; main()"
RULES = "RULE dark : mean IN (0,0,60,100)\nRULE bright : mean IN (100,140,255,255)\n"
QUERY = ["query", "--index", "good.idx", "--top", "2", "half.pgm"]

# argv run from a directory that make_fixtures filled, and the exit code
CASES = [
    (["threshold", "--method", "otsu", "half.pgm", "out.pgm"], 0),
    (["segment", "--method", "kmeans", "--k", "2", "half.pgm", "out.pgm"], 0),
    (["segment", "--method", "edge", "--k", "2", "half.pgm", "out.pgm"], 0),
    (["segment", "--method", "region", "half.pgm", "out.pgm"], 0),
    (["segment", "--method", "windows", "--window", "5", "--refine", "1",
      "--exemplar", "0:left.pgm", "--exemplar", "1:right.pgm", "half.pgm", "out.pgm"], 0),
    (["ingest", "--index", "good.idx", "--desc", "third", "half.pgm"], 0),
    (QUERY, 0),
    (["query", "--index", "good.idx", "--top", "2", "--exhaustive", "half.pgm"], 0),
    (["predict", "--rules", "rules.txt", "half.pgm"], 0),
    (["--help"], 0),
    (["segment", "--help"], 0),
    (["segment", "--method", "kmeans", "half.pgm", "out.pgm"], 1),
    (["query", "--index", "bad.idx", "--top", "1", "half.pgm"], 2),
    (["query", "--index", "good.idx", "--top", "0", "half.pgm"], 3),
]


def make_fixtures(directory):
    """Images, a two-record index, a copy with one total corrupted, and a
    rule base, all named relative to directory."""
    pix, _ = noisy_half_image(size=16)
    for name, part in (("half", pix), ("left", pix[:, :8]), ("right", pix[:, 8:])):
        (directory / f"{name}.pgm").write_bytes(encode_pnm(GrayImage(part)))
    (directory / "rules.txt").write_text(RULES)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name in ("left", "right"):
            assert run(["ingest", "--index", "good.idx", "--desc", name, f"{name}.pgm"], io.StringIO()) == 0
    finally:
        os.chdir(cwd)
    lines = (directory / "good.idx").read_text().split("\n")
    fields = lines[1].split("\t")
    fields[1] = str(int(fields[1]) + 1)  # the first record's counts no longer sum to its total
    lines[1] = "\t".join(fields)
    (directory / "bad.idx").write_text("\n".join(lines))


def files(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def environment(unbuffered=True) -> dict:
    """This environment with this segkit importable, a fixed help width and
    PYTHONUNBUFFERED set or unset."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(segkit.__file__)), COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_main(argv, cwd, code=MAIN, unbuffered=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, closed=None,
             env=None):
    """main() on argv in a fresh interpreter (sys.executable, never a shim
    that could reopen a closed descriptor), with file descriptor closed, if
    given, shut before it starts, in env or environment(unbuffered)."""
    close = None if closed is None else functools.partial(os.close, closed)
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env or environment(unbuffered),
                          stdout=stdout, stderr=stderr, preexec_fn=close)


@pytest.mark.parametrize("argv, code", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_main_matches_run_in_process(tmp_path, monkeypatch, argv, code):
    inproc, sub = tmp_path / "inproc", tmp_path / "sub"
    for directory in (inproc, sub):
        directory.mkdir()
        make_fixtures(directory)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(inproc)
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == code
    proc = run_main(argv, sub)
    assert proc.returncode == code
    assert proc.stdout.decode() == out.getvalue()
    assert bool(out.getvalue()) == (code == 0)
    assert proc.stderr.decode() == err.getvalue()
    assert files(sub) == files(inproc)


# op sequences, one op per fresh interpreter: the ingests write the index's
# column sidecar, and the query after them builds the index from it
CHAINS = [
    [["ingest", "--index", "new.idx", "--desc", "left", "left.pgm"],
     ["ingest", "--index", "new.idx", "--desc", "right", "right.pgm"],
     ["query", "--index", "new.idx", "--top", "2", "half.pgm"]],
]


@pytest.mark.parametrize("chain", CHAINS, ids=[", ".join(argv[0] for argv in chain) for chain in CHAINS])
def test_main_matches_run_in_process_op_by_op(tmp_path, monkeypatch, chain):
    inproc, sub = tmp_path / "inproc", tmp_path / "sub"
    for directory in (inproc, sub):
        directory.mkdir()
        make_fixtures(directory)
    monkeypatch.chdir(inproc)
    for argv in chain:
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out, err)
        proc = run_main(argv, sub)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, out.getvalue(), err.getvalue())
        assert code == 0 and out.getvalue()
        assert files(sub) == files(inproc)
    assert (sub / "new.idx.cols").is_file()


def test_objects_are_frozen_when_the_interpreter_exits(tmp_path):
    make_fixtures(tmp_path)
    probe = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n" + MAIN)
    proc = run_main(QUERY, tmp_path, code=probe)
    assert proc.returncode == 0 and proc.stdout
    word, count = proc.stderr.decode().split()
    assert word == "frozen" and int(count) > 0


def test_run_leaves_the_collector_alone(tmp_path, monkeypatch):
    make_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = gc.get_freeze_count(), gc.isenabled()
    for argv, code in CASES:
        assert run(argv, io.StringIO(), io.StringIO()) == code
    assert (gc.get_freeze_count(), gc.isenabled()) == before


# main() after `import segkit`, counting the collections that start: all of
# them, and those after segkit.cli began to run (its first statement binds
# gc); the two counts are stderr's last line
COUNTED = ("import atexit, gc, sys, segkit\n"
           "runs = []\n"
           "gc.callbacks.append(lambda phase, info: phase == 'start'"
           " and runs.append(hasattr(sys.modules.get('segkit.cli'), 'gc')))\n"
           "atexit.register(lambda: print(len(runs), sum(runs), file=sys.stderr))\n" + MAIN)


def collections(proc) -> tuple[int, int]:
    total, in_cli = proc.stderr.decode().splitlines()[-1].split()
    return int(total), int(in_cli)


def copied_segkit(root, cached: bool) -> dict:
    """environment() for a copy of segkit under root, its bytecode cached
    there, as an installed segkit's is, or compiled from source each run."""
    shutil.copytree(os.path.dirname(segkit.__file__), root / "segkit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(environment(), PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    if cached:
        env.pop("PYTHONDONTWRITEBYTECODE")
        subprocess.run([sys.executable, "-c", "import segkit.cli"], env=env, check=True)
        assert (root / "segkit" / "__pycache__").is_dir()
    return env


@pytest.fixture(scope="module")
def cached_env(tmp_path_factory):
    return copied_segkit(tmp_path_factory.mktemp("cached"), cached=True)


@pytest.mark.parametrize("argv, code", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_an_op_runs_no_collection(tmp_path, cached_env, argv, code):
    make_fixtures(tmp_path)
    proc = run_main(argv, tmp_path, code=COUNTED, env=cached_env)
    assert proc.returncode == code
    assert collections(proc) == (0, 0)


def test_no_collection_once_cli_runs_from_source(tmp_path):
    # compiling cli.py allocates some 800 objects before its first statement
    # runs, which may set off a generation-0 collection (one on CPython
    # 3.11); none runs after that
    (tmp_path / "src").mkdir()
    env = copied_segkit(tmp_path / "src", cached=False)
    make_fixtures(tmp_path)
    proc = run_main(QUERY, tmp_path, code=COUNTED, env=env)
    assert proc.returncode == 0 and proc.stdout
    assert collections(proc)[1] == 0
    assert not (tmp_path / "src" / "segkit" / "__pycache__").exists()


@pytest.mark.parametrize("numpy", ["numpy", "no-numpy"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_importing_cli_restores_the_collector(enabled, numpy):
    probe = ("import gc, sys\n"
             f"gc.enable() if {enabled} else gc.disable()\n"
             # a None entry makes `import numpy` raise ImportError
             + ("sys.modules['numpy'] = None\n" if numpy == "no-numpy" else "")
             + "try:\n"
             "    import segkit.cli\n"
             "except ImportError:\n"
             "    pass\n"
             "print(gc.isenabled(), 'segkit.cli' in sys.modules, gc.get_freeze_count() > 0)")
    proc = subprocess.run([sys.executable, "-c", probe], env=environment(), capture_output=True, check=True)
    assert proc.stdout.decode().split() == [str(enabled), str(numpy == "numpy"), "True"]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_other_modules_leave_the_collector_alone(enabled):
    others = ["segkit"] + [f"segkit.{m.name}" for m in pkgutil.iter_modules(segkit.__path__) if m.name != "cli"]
    probe = ("import gc, importlib, sys\n"
             f"gc.enable() if {enabled} else gc.disable()\n"
             "for name in sys.argv[1:]:\n"
             "    before = gc.isenabled(), gc.get_freeze_count()\n"
             "    importlib.import_module(name)\n"
             "    assert (gc.isenabled(), gc.get_freeze_count()) == before, name\n"
             "print(gc.isenabled(), *sorted(m for m in sys.modules if m.startswith('segkit')))")
    proc = subprocess.run([sys.executable, "-c", probe, *others], env=environment(), capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == [str(enabled), *sorted(others)]


class FailingOut(io.StringIO):
    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_run_reports_a_failed_write(tmp_path, monkeypatch):
    make_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    err = io.StringIO()
    assert run(QUERY, FailingOut(), err) == 2
    assert err.getvalue() == f"segkit: cannot write output: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
def test_failed_stdout_write_exits_2(tmp_path, sink, unbuffered):
    make_fixtures(tmp_path)
    if sink == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout, error = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
        error = errno.EPIPE
    try:
        proc = run_main(QUERY, tmp_path, unbuffered=unbuffered, stdout=stdout)
    finally:
        os.close(stdout)
    assert proc.returncode == 2
    assert proc.stderr.decode() == f"segkit: cannot write output: {os.strerror(error)}\n"


def test_ingest_whose_id_is_lost_has_rewritten_the_index(tmp_path):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    make_fixtures(tmp_path)
    with open("/dev/full", "wb") as full:
        proc = run_main(["ingest", "--index", "good.idx", "--desc", "third", "half.pgm"], tmp_path,
                        unbuffered=False, stdout=full)
    assert proc.returncode == 2
    assert (tmp_path / "good.idx").read_text().count("\n") == 4  # header and three records


MISSING = ["query", "--index", "missing.idx", "--top", "2", "half.pgm"]
TOP_0 = ["query", "--index", "good.idx", "--top", "0", "half.pgm"]
BUFFERING = pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])


@BUFFERING
def test_closed_stdout_exits_2(tmp_path, unbuffered):
    make_fixtures(tmp_path)
    proc = run_main(QUERY, tmp_path, unbuffered=unbuffered, closed=1)
    assert proc.returncode == 2
    assert proc.stderr.decode() == f"segkit: cannot write output: {os.strerror(errno.EBADF)}\n"


@BUFFERING
def test_closed_stderr_keeps_the_diagnostic_off_stdout(tmp_path, unbuffered):
    make_fixtures(tmp_path)
    proc = run_main(MISSING, tmp_path, unbuffered=unbuffered, closed=2)
    assert (proc.returncode, proc.stdout) == (2, b"")
    proc = run_main(QUERY, tmp_path, unbuffered=unbuffered, closed=2)
    assert proc.returncode == 0 and proc.stdout.startswith(b"1\t")


@BUFFERING
@pytest.mark.parametrize("argv, code", [(TOP_0, 3), (MISSING, 2)], ids=["top-0", "missing-index"])
def test_failed_stderr_write_keeps_the_exit_code(tmp_path, unbuffered, argv, code):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    make_fixtures(tmp_path)
    with open("/dev/full", "wb") as full:
        proc = run_main(argv, tmp_path, unbuffered=unbuffered, stderr=full)
    assert (proc.returncode, proc.stdout) == (code, b"")


class FailingErr(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_run_keeps_the_exit_code_when_err_fails(tmp_path, monkeypatch):
    make_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    assert run(TOP_0, out, FailingErr()) == 3
    assert out.getvalue() == ""


def test_run_without_streams(tmp_path, monkeypatch):
    make_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(sys, "stderr", None)
    assert run(QUERY) == 2
    assert run(TOP_0) == 3
