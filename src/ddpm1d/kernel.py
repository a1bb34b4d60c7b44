"""Builds and loads ``_kernel.c``, the compiled network arithmetic behind
``mlp`` and the noise transforms behind ``prng`` and ``noise``.

The extension is compiled with ``gcc`` against the running Python's headers
the first time it is needed, not on import. It is cached in a private
per-user directory, ``ddpm1d-kernel-<uid>`` under the system temp directory.
``load`` reads the source once and gcc compiles those bytes from its stdin;
their sha256, the compiler's version, the flags and the extension suffix name
the cached file, so an edited source, another compiler or another Python gets a
build of its own. The flags name no vector ISA: the loaded module picks the
widest lanes that the host runs, and names their width ``lane_width``. A build
writes a temporary name and publishes it with ``os.replace``, so processes that
build at once do not race.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile
from functools import cache
from pathlib import Path
from types import ModuleType

SOURCE = Path(__file__).with_name("_kernel.c")
CC = "gcc"
# no fused multiply-add: the bits must not depend on -O level or -march; sqrt without an
# errno branch, so that Adam's loop runs in vector lanes (the kernel reads no errno, and sin,
# cos and sqrt round the same without it); functions and loops start on 64-byte lines, so
# an edit elsewhere in the file does not move their speed
FLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno", "-falign-functions=64",
         "-falign-loops=64")


def load(cache_dir: str | Path | None = None, flags: tuple[str, ...] = FLAGS) -> ModuleType:
    """The compiled kernel, built with ``CC`` and ``flags`` into ``cache_dir``
    (default: the cache described above) unless a build is already there. Its
    ``provenance`` holds the sha256 of the bytes built, the compiler, the flags
    and the lane width that loading picked.

    A missing compiler or ``Python.h`` raises FileNotFoundError naming it."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    source, compiler = SOURCE.read_bytes(), compiler_version(CC)
    parts = [source, str(compiler).encode(), *(f.encode() for f in flags), suffix.encode()]
    digest = hashlib.sha256(b"\0".join(parts)).hexdigest()
    directory = Path(cache_dir if cache_dir is not None
                     else Path(tempfile.gettempdir()) / f"ddpm1d-kernel-{os.getuid()}")
    if not _private_and_writable(directory):
        raise OSError(f"cannot build the network kernel: {directory} is not a private, "
                      "writable directory")
    path = directory / f"_kernel.{digest[:16]}{suffix}"
    if not path.is_file():
        _build(path, source, flags)
    spec = importlib.util.spec_from_file_location("ddpm1d._kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.provenance = {"source_sha256": hashlib.sha256(source).hexdigest(),
                         "compiler": compiler, "flags": list(flags),
                         "lane_width": module.lane_width}
    return module


# the default build, built or loaded on the first call, so that importing compiles nothing
default = cache(load)


@cache
def compiler_version(cc: str) -> str | None:
    """The first line of ``cc --version``, or None if that fails."""
    try:
        return subprocess.run([cc, "--version"], capture_output=True, text=True,
                              timeout=30).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        return None


def _private_and_writable(d: Path) -> bool:
    """Whether ``d`` is, or can be made, a directory that this user owns and
    may write and that its group and others may not: a build found there is loaded."""
    try:
        d.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = d.stat()
    except OSError:
        return False
    return st.st_uid == os.getuid() and not st.st_mode & 0o022 and os.access(d, os.W_OK)


def _build(path: Path, source: bytes, flags: tuple[str, ...]) -> None:
    if shutil.which(CC) is None:
        raise FileNotFoundError(f"cannot build the network kernel: C compiler {CC!r} not found")
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise FileNotFoundError(
            f"cannot build the network kernel: Python.h not found in {include} "
            "(install the Python development headers)"
        )
    fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [CC, *flags, "-shared", "-fPIC", "-I", include, "-x", "c", "-", "-o", tmp, "-lm"],
            input=source, capture_output=True,
        )
        if proc.returncode != 0:
            raise OSError(f"cannot build the network kernel: {CC} failed:\n{proc.stderr.decode()}")
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)

