"""Build, load and drive the native search kernel, `_kernel.c`.

`search` imports this module on its first call, so importing the package
compiles and runs none of it.  `load_kernel` compiles the C file with the
system C compiler on its first call and loads it through ctypes; `walker`,
the kernel's one caller, drives it below each root of a search, over that
root's masks.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from array import array
from functools import cache
from pathlib import Path

#: The largest g the kernel takes: a state is one uint64 mask (MAXG).
MAX_ORDER = 64

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
#: Compiler commands for the kernel, tried in order: tuned for the host CPU
#: (hardware popcount, tzcnt, BMI2 shifts), then portable, for a compiler
#: that rejects -march=native.
_CC_COMMANDS = (("cc", "-O2", "-march=native"), ("cc", "-O2"))
#: The most leaves one `fs_leaves` call returns to a walk that does not stop
#: at its first leaf.
_BATCH = 512


@cache
def load_kernel() -> ctypes.CDLL | None:
    """The native kernel, compiled on first use; None when it cannot be
    built (no C compiler, an unwritable cache directory).  Cached, so a
    process loads or fails to build it once.

    The library is cached next to the compiled bytecode under a name keyed
    by the source and the host CPU's feature flags, so a checkout shared
    between machines builds a library for each instead of loading one its
    CPU cannot run.  It is compiled to a temporary file and renamed into
    place, so processes that build it at once never see half a file.
    """
    try:
        return _build_kernel(_KERNEL_SOURCE)
    except OSError:  # _compile raises a failed build as one too
        return None


def walker(engine, stop_early: bool):
    """The kernel's walk of one search: returns `stepper(root, masks)`, which
    starts `fs_leaves` below one root over that root's (partners, classes,
    sums), `masks`, with the contract of `Engine._python_step`: each step
    returns the leaves since the last, one at most when the walk stops early
    and up to _BATCH otherwise, each leaf's codes lo | hi << 8, which
    `fs_leaves` writes in ascending order, mapped through the search's table
    of Pairs (`engine.pairs`).  The search's own arrays, `sum_bits` and the
    leaf buffer, are made here once; each root gets its state and a copy of
    its masks, with the one `fs_init`, and its node count starts at 0."""
    g = engine.g
    if g > MAX_ORDER:
        raise ValueError(f"the native kernel takes g <= {MAX_ORDER}")
    lib = load_kernel()
    if lib is None:
        raise RuntimeError("the native search kernel is not available")
    sum_bits = array("Q", engine.sum_bits)
    sum_bits_p = sum_bits.buffer_info()[0]
    cap = 1 if stop_early else _BATCH
    width = engine.full.bit_count() // 2  # the pairs of a leaf
    out = array("Q", [0]) * (3 + cap * width)
    out_p = out.buffer_info()[0]
    fs_leaves, pair = lib.fs_leaves, engine.pairs.__getitem__
    size = lib.fs_size()

    def stepper(root: tuple[int, int],
                masks: tuple[list[int], list[int], list[int]]):
        state = array("B", [0]) * size
        rows = [array("Q", m) for m in masks]
        state_p = state.buffer_info()[0]
        lib.fs_init(state_p, g, engine.full, sum_bits_p,
                    engine.class_mask, engine.sum_mask,
                    *(a.buffer_info()[0] for a in rows), bytes(root))

        def step(pause_at: int, _held=(state, rows, sum_bits, out)):
            status = fs_leaves(state_p, pause_at, cap, out_p)
            nodes, depth, k = out[:3]
            pairs = map(pair, out[3:3 + k * width])
            return status, nodes, depth, list(zip(*[pairs] * width))

        return step

    return stepper


def _host_cpu() -> bytes:
    """The CPU feature-flag line of /proc/cpuinfo where there is one (Linux
    x86 "flags", arm64 "Features"), else the machine name."""
    try:
        with open("/proc/cpuinfo", "rb") as f:
            for line in f:
                if line.startswith((b"flags", b"Features")):
                    return line
    except OSError:
        pass
    import platform  # rarely needed, and slow to import
    return platform.machine().encode()


def _build_kernel(source: Path) -> ctypes.CDLL:
    key = zlib.crc32(source.read_bytes() + _host_cpu())
    path = source.parent / "__pycache__" / f"{source.stem}-{key:08x}.so"
    if not path.exists():
        path.parent.mkdir(exist_ok=True)
        _compile(source, path)
    lib = ctypes.CDLL(str(path))
    p, u64, c_int = ctypes.c_void_p, ctypes.c_uint64, ctypes.c_int
    lib.fs_size.argtypes = []
    lib.fs_size.restype = ctypes.c_size_t
    lib.fs_init.argtypes = [p, c_int, u64, p, u64, u64, p, p, p, p]
    lib.fs_init.restype = None
    lib.fs_leaves.argtypes = [p, u64, c_int, p]
    lib.fs_leaves.restype = c_int
    return lib


def _compile(source: Path, path: Path) -> None:
    """Compile the source into the library at path with the first command
    the compiler accepts; raises OSError when every command fails or one
    times out.  Only a build imports subprocess and tempfile."""
    import subprocess
    import tempfile
    for cmd in _CC_COMMANDS:
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
        os.close(fd)
        try:
            subprocess.run([*cmd, "-shared", "-fPIC", "-o", tmp, str(source)],
                           check=True, capture_output=True, timeout=120)
            os.replace(tmp, path)
            return
        except subprocess.SubprocessError as e:
            if cmd is _CC_COMMANDS[-1] or isinstance(e, subprocess.TimeoutExpired):
                raise OSError(e) from e
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
