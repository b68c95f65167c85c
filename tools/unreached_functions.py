#!/usr/bin/env python3
"""Lists the library functions that no bench, example or perfbench binary
reaches, and checks them against a checked-in allowlist.

A function of the Tell library that every such binary's link drops is
reached only from tests. The check finds them with the linker:

1. Configures one tree under --build-dir (Unix Makefiles, -O0
   -ffunction-sections, so every out-of-line function sits in its own
   `.text.<mangled name>` section, and --gc-sections) and builds the
   executable targets of bench/ and examples/. bench/ also holds the
   `tell_perfbench` target, perfbench's harness.
2. Relinks each binary alone from its CMake `link.txt`, adding
   `--print-gc-sections` and `-t -t`, which report the sections the link
   dropped and the archive members it loaded.
3. Takes every function that `objdump -t` lists in a `.text.*` section of a
   `libtell_*.a` member, as a global or local symbol (`T`/`t` in `nm`
   terms; inline and template copies are weak and are skipped). A function
   is unreached when every binary that loaded its member dropped its
   section, or when no binary loaded that member at all.
4. Keeps the demangled names in `tell::`, which drops the libstdc++
   `__gthread_*` statics and the `std::` instantiations. A lambda counts as
   part of its enclosing function: the function is unreached only when its
   own section and those of its lambdas are.

The check fails on an unreached function that the allowlist does not name,
and on an allowlist entry that is no longer an unreached function (it was
given a caller, renamed or deleted), so the list cannot go stale.

Allowlist format (tools/unreached_allowlist.txt): one function per line,
its demangled signature as this script prints it, then ` # ` and the
reason it is kept. Blank lines and lines starting with `#` are comments.

    tell::sim::FaultPlan::Randomized(unsigned long, unsigned int, bool) # ...

Usage, from the repository root:

    python3 tools/unreached_functions.py --build-dir build/deadcode

ctest runs it as the `unreached_functions` entry (label `deadcode`;
`ctest --preset deadcode` runs only it). `--list` prints every unreached
function and exits 0, for editing the allowlist. Exit status: 0 when the
unreached set equals the allowlist, 1 when it does not, 2 when the build
or a link fails.
"""

import argparse
import concurrent.futures
import glob
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALLOWLIST = os.path.join(HERE, "unreached_allowlist.txt")
JOBS = max(1, min(4, os.cpu_count() or 1))
# Directories of the build tree whose executables count as callers.
BINARY_DIRS = ("bench", "examples")
CXX_FLAGS = "-O0 -g0 -ffunction-sections -fdata-sections"
TRACE_FLAGS = "-Wl,--print-gc-sections -Wl,-t -Wl,-t"

REMOVED_RE = re.compile(r"removing unused section '(\.text\.[^']+)' "
                        r"in file '([^']*\.a)\(([^)]+)\)'")
MEMBER_RE = re.compile(r"^\(([^)]*\.a)\)(\S+)$")
LAMBDA_RE = re.compile(r"::\{lambda\(")


def die(message):
    print(f"unreached_functions: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        die(f"`{' '.join(cmd)}` failed:\n{proc.stdout[-4000:]}")
    return proc.stdout


def build(build_dir):
    """Configures (once) and builds the bench and example executables.
    Returns {target: its CMakeFiles/<target>.dir directory}."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", ROOT, "-B", build_dir,
             "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=None",
             f"-DCMAKE_CXX_FLAGS={CXX_FLAGS}",
             "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"])
    targets = {}
    for sub in BINARY_DIRS:
        pattern = os.path.join(build_dir, sub, "CMakeFiles", "*.dir",
                               "link.txt")
        for link_txt in sorted(glob.glob(pattern)):
            target_dir = os.path.dirname(link_txt)
            targets[os.path.basename(target_dir)[:-len(".dir")]] = target_dir
    if not targets:
        die(f"no executable targets under {build_dir}/{{bench,examples}}")
    run(["cmake", "--build", build_dir, "-j", str(JOBS), "--target",
         *targets])
    return targets


def relink(target_dir):
    """Relinks one binary alone. Returns the archive members it loaded, as
    (archive file name, member), and the sections it dropped, as (archive
    file name, member, section)."""
    with open(os.path.join(target_dir, "link.txt"), encoding="utf-8") as f:
        commands = [line.strip() for line in f if line.strip()]
    # The directory the Makefile runs link.txt from: the target's
    # subdirectory of the build tree.
    cwd = os.path.dirname(os.path.dirname(target_dir))
    output = ""
    for command in commands:
        proc = subprocess.run(f"{command} {TRACE_FLAGS}", shell=True, cwd=cwd,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            die(f"relink in {cwd} failed:\n{proc.stdout[-4000:]}")
        output += proc.stdout
    loaded, dropped = set(), set()
    for line in output.splitlines():
        m = MEMBER_RE.match(line.strip())
        if m:
            loaded.add((os.path.basename(m.group(1)), m.group(2)))
            continue
        m = REMOVED_RE.search(line)
        if m:
            dropped.add((os.path.basename(m.group(2)), m.group(3),
                         m.group(1)))
    return loaded, dropped


def library_functions(build_dir):
    """(archive, member, section, mangled symbol) of every non-weak function
    of the libtell_*.a archives."""
    archives = sorted(glob.glob(os.path.join(build_dir, "src",
                                             "libtell_*.a")))
    if not archives:
        die(f"no libtell_*.a under {build_dir}/src")
    functions = []
    for archive in archives:
        member = None
        for line in run(["objdump", "-t", "-w", archive]).splitlines():
            if ":     file format " in line:
                member = line.split(":", 1)[0]
                continue
            # <16-digit value> <7 flag columns> <section> <size> <name>; the
            # first flag column is the binding ('l' local, 'g' global, ' '
            # for a weak symbol), the last the type ('F' function).
            flags, fields = line[17:24], line[24:].split()
            if len(flags) < 7 or flags[0] not in "lg" or flags[6] != "F" \
                    or len(fields) != 3 or not fields[0].startswith(".text."):
                continue
            functions.append((os.path.basename(archive), member, fields[0],
                              fields[2]))
    return functions


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names), text=True,
                         stdout=subprocess.PIPE, check=True).stdout
    return out.split("\n")[:len(names)]


def unreached(build_dir):
    targets = build(build_dir)
    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        links = list(pool.map(relink, targets.values()))
    functions = library_functions(build_dir)
    names = demangle([f[3] for f in functions])
    reached = {}  # enclosing function -> reached by some binary
    for (archive, member, section, _), name in zip(functions, names):
        if not name.startswith("tell::"):
            continue
        key = LAMBDA_RE.split(name, maxsplit=1)[0]
        hit = any((archive, member) in loaded and
                  (archive, member, section) not in dropped
                  for loaded, dropped in links)
        reached[key] = reached.get(key, False) or hit
    return sorted(name for name, hit in reached.items() if not hit)


def read_allowlist(path):
    allowed = {}
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            name, sep, reason = line.partition(" # ")
            if not sep or not reason.strip():
                die(f"{path}:{number}: expected `<function> # <reason>`")
            allowed[name.strip()] = reason.strip()
    return allowed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, "build", "deadcode"))
    parser.add_argument("--list", action="store_true",
                        help="print every unreached function and exit 0")
    args = parser.parse_args()

    found = unreached(os.path.abspath(args.build_dir))
    if args.list:
        print("\n".join(found))
        return 0
    allowed = read_allowlist(ALLOWLIST)
    new = [name for name in found if name not in allowed]
    stale = sorted(name for name in allowed if name not in found)
    for name in new:
        print(f"unreached, not in the allowlist: {name}")
    for name in stale:
        print(f"in the allowlist, but no longer unreached: {name}")
    print(f"{len(found)} unreached tell:: functions, {len(allowed)} "
          f"allowlisted, {len(new)} new, {len(stale)} stale")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
