#!/usr/bin/env python3
"""Compare the machine code of two binaries function by function.

Usage, from the repository root:

    python3 scripts/compare_functions.py <parent>/perfbench build-perfbench/perfbench \
        [--same REGEX ...]

Both binaries are disassembled with `objdump -d -C --no-show-raw-insn`. Each
function's instructions are normalised so that code which did not change
compares equal although the linker placed it elsewhere:

  - instruction addresses are dropped;
  - RIP-relative displacements become `X(%rip)`;
  - a branch or call target keeps only its symbol (`call <foo(int)>`), and a
    target inside the function itself only its offset (`jmp <+0x3c>`);
  - a referenced location that is an offset into some other symbol (an
    anonymous constant-pool entry, whose nearest symbol depends on the
    layout) becomes `<?>`; a reference to a symbol itself keeps its name;
  - alignment padding after the last instruction is dropped.

Opcodes, registers, immediates, stack offsets and named symbol references
are compared exactly.

The report gives each binary's .text size and function count, the functions
found in only one binary, and the common functions whose normalised
instructions differ. `--same REGEX` (repeatable) exits 1 when a common
function whose demangled name matches REGEX differs, or when REGEX matches
no common function.
"""
import argparse
import re
import subprocess
import sys
from collections import defaultdict

HEADER = re.compile(r"^([0-9a-f]+) <(.*)>:$")
INSN = re.compile(r"^\s*[0-9a-f]+:\s*(.*)$")
SECTION = re.compile(r"^Disassembly of section (\S+):$")
TARGET = re.compile(r"(#\s+)?\b[0-9a-f]+ <(.*)>$")
RIP = re.compile(r"-?0x[0-9a-f]+\(%rip\)")
OFFSET = re.compile(r"^(.*)\+(0x[0-9a-f]+)$")
PADDING = re.compile(r"^(data16 |cs )*(nop|xchg\s+%ax,%ax|int3)")


def normalise(insn, func):
    insn = re.sub(r"\s+", " ", insn.strip())
    insn = RIP.sub("X(%rip)", insn)
    m = TARGET.search(insn)
    if m:
        target = m.group(2)
        off = OFFSET.match(target)
        if off and off.group(1) == func:
            target = "+" + off.group(2)
        elif target == func:
            target = "+0x0"
        elif off:
            target = "?"
        insn = insn[:m.start()] + (m.group(1) or "") + "<" + target + ">"
    return insn


def disassemble(path):
    """{name: [normalised insns]} for .text (and an object file's .text.*
    sections), plus the .text size in bytes."""
    proc = subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn", path],
                          capture_output=True, text=True, check=True)
    funcs = {}
    seen = defaultdict(int)
    section = None
    name = None
    body = None

    def close():
        if body is None:
            return
        while body and PADDING.match(body[-1]):
            body.pop()
        funcs[name] = body

    for line in proc.stdout.splitlines():
        m = SECTION.match(line)
        if m:
            section = m.group(1)
            continue
        m = HEADER.match(line)
        if m:
            close()
            body = None
            if section != ".text" and not section.startswith(".text."):
                continue
            base = m.group(2)
            seen[base] += 1
            name = base if seen[base] == 1 else f"{base} #{seen[base]}"
            body = []
            continue
        if body is None:
            continue
        m = INSN.match(line)
        if m and m.group(1) and not m.group(1).startswith("(bad)"):
            body.append(normalise(m.group(1), name.split(" #")[0]))
    close()

    text_bytes = 0
    hdr = subprocess.run(["objdump", "-h", path], capture_output=True,
                         text=True, check=True)
    for line in hdr.stdout.splitlines():
        cols = line.split()
        if len(cols) >= 3 and cols[1] == ".text":
            text_bytes = int(cols[2], 16)
    return funcs, text_bytes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="first binary (e.g. the parent's)")
    ap.add_argument("b", help="second binary (e.g. the change's)")
    ap.add_argument("--same", action="append", default=[], metavar="REGEX",
                    help="fail unless every common function matching REGEX "
                         "is identical (repeatable)")
    args = ap.parse_args()

    fa, ta = disassemble(args.a)
    fb, tb = disassemble(args.b)
    print(f"A: {args.a}: .text {ta} bytes, {len(fa)} functions")
    print(f"B: {args.b}: .text {tb} bytes, {len(fb)} functions")

    only_a = sorted(set(fa) - set(fb))
    only_b = sorted(set(fb) - set(fa))
    common = sorted(set(fa) & set(fb))
    differ = [n for n in common if fa[n] != fb[n]]

    print(f"\nonly in A ({len(only_a)}):")
    for n in only_a:
        print(f"  {n}")
    print(f"\nonly in B ({len(only_b)}):")
    for n in only_b:
        print(f"  {n}")
    print(f"\ncommon {len(common)}, identical {len(common) - len(differ)}, "
          f"differ ({len(differ)}):")
    for n in differ:
        print(f"  {n}  ({len(fa[n])} -> {len(fb[n])} instructions)")

    failed = False
    for pattern in args.same:
        rx = re.compile(pattern)
        matched = [n for n in common if rx.search(n)]
        bad = [n for n in matched if fa[n] != fb[n]]
        if not matched:
            print(f"\n--same {pattern!r}: matches no common function")
            failed = True
        elif bad:
            print(f"\n--same {pattern!r}: {len(bad)} of {len(matched)} "
                  "matching functions differ:")
            for n in bad:
                print(f"  {n}")
            failed = True
        else:
            print(f"\n--same {pattern!r}: {len(matched)} matching functions "
                  "identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
