#!/usr/bin/env python3
"""Reports a tools/cpu_sampler.cc profile: CPU-time shares by function.

    python3 tools/cpu_profile.py prof.txt [--group NAME=REGEX ...]
        [--min-samples N]

Symbolizes every sampled frame with addr2line (-i, so code inlined into a
function is charged to the inlined function when the binary has debug
info; without it, to the enclosing symbol), keeps the samples whose stack
holds ServerRuntime::WorkerLoop (the serving runtime's worker threads), and
prints over them

  - self shares: each sample charged to the innermost function of its first
    frame in the executable, so time in a library leaf (a futex wait in
    libc, libm, libstdc++) counts for the application function that called
    into the library;
  - library leaves: the share whose leaf frame lies outside the executable,
    by module and the inline chain of the executable frame that called into
    it, innermost first, template arguments dropped (the system libraries
    carry no symbols for their internal functions, such as the futex
    waits);
  - inclusive shares: the samples with the function anywhere in the
    executable's part of the stack;
  - one line per --group: the summed self share of every function whose
    name matches REGEX, and the inclusive share of the samples with such a
    function anywhere on the stack, e.g.
    --group 'heap=std::_*(pop|push|make|adjust)_heap|AdmissionQueue::Later'.

Each of the three tables lists its 25 largest entries.

Symbolize before rebuilding: the profile holds addresses, which only the
binaries that were sampled can name.

Exit status: 1 when fewer than --min-samples samples fall under
WorkerLoop (the ctest smoke check), 2 on an unreadable profile; 0
otherwise.
"""

import argparse
import collections
import os
import re
import subprocess
import sys

# Samples are kept when a function on their stack matches this.
UNDER = re.compile(r"ServerRuntime::WorkerLoop")
# Rows printed per table.
TOP = 25


def read_profile(path):
    """Returns (exe path, mappings [(start, end, offset, module)], samples
    [(tid, [pc, ...])]) of a sampler output file."""
    exe = None
    maps = []
    samples = []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "E":
                exe = rest
            elif kind == "M":
                start, end, offset, module = rest.split(" ", 3)
                maps.append((int(start, 16), int(end, 16), int(offset, 16),
                             module))
            elif kind == "S":
                fields = rest.split()
                samples.append((int(fields[0]),
                                [int(pc, 16) for pc in fields[1:]]))
    return exe, maps, samples


def is_position_independent(module):
    """ET_DYN (a PIE or a shared library) is addressed by file offset;
    ET_EXEC by absolute address."""
    try:
        with open(module, "rb") as f:
            header = f.read(18)
        return header[16:18] != b"\x02\x00"
    except OSError:
        return True


def strip_parameters(name):
    """'ns::F<int>(int, char) const' -> 'ns::F<int>'."""
    if not name.endswith(")") and not name.endswith(") const"):
        return name
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                return name[:i]
    return name


def drop_template_arguments(name):
    """'std::promise<ams::X>::set_value' -> 'std::promise::set_value'."""
    out = []
    depth = 0
    for c in name:
        if c == "<":
            depth += 1
        elif c == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


def symbolize(module, addresses):
    """Maps each module address to its inline chain of function names,
    innermost first (addr2line -a -f -i -C)."""
    chains = {}
    if not addresses or not os.path.exists(module):
        return chains
    query = "\n".join("%x" % a for a in addresses) + "\n"
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", module],
                         input=query, capture_output=True, text=True,
                         check=False).stdout.splitlines()
    current = None
    i = 0
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            current = int(line, 16)
            chains[current] = []
            i += 1
            continue
        # A function line, then its file:line line.
        if current is not None and line != "??":
            chains[current].append(strip_parameters(line))
        i += 2
    return chains


class Symbolizer:
    def __init__(self, maps):
        self.maps = sorted(maps)
        self.pic = {m: is_position_independent(m) for _, _, _, m in maps}
        self.frames = {}

    def locate(self, pc):
        for start, end, offset, module in self.maps:
            if start <= pc < end:
                address = pc - start + offset if self.pic[module] else pc
                return module, address
        return None, pc

    def resolve(self, pcs):
        """Fills self.frames[(pc, is_leaf)] = (module, [names...])."""
        wanted = collections.defaultdict(set)
        keys = []
        for pc, leaf in pcs:
            module, address = self.locate(pc)
            # A return address points after its call; look up the call.
            lookup = address if leaf else address - 1
            keys.append((pc, leaf, module, lookup))
            if module is not None:
                wanted[module].add(lookup)
        chains = {m: symbolize(m, sorted(a)) for m, a in wanted.items()}
        for pc, leaf, module, lookup in keys:
            names = chains.get(module, {}).get(lookup) or []
            if not names:
                base = os.path.basename(module) if module else "?"
                names = ["%s+0x%x" % (base, lookup)]
            self.frames[(pc, leaf)] = (module, names)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--group", action="append", default=[],
                        metavar="NAME=REGEX")
    parser.add_argument("--min-samples", type=int, default=0)
    args = parser.parse_args()
    groups = []
    for spec in args.group:
        name, sep, pattern = spec.partition("=")
        if not sep:
            parser.error("--group takes NAME=REGEX")
        groups.append((name, re.compile(pattern)))

    try:
        exe, maps, samples = read_profile(args.profile)
    except (OSError, ValueError) as error:
        print("cannot read %s: %s" % (args.profile, error), file=sys.stderr)
        return 2
    symbolizer = Symbolizer(maps)
    symbolizer.resolve({(pc, i == 0) for _, stack in samples
                        for i, pc in enumerate(stack)})

    self_counts = collections.Counter()
    inclusive = collections.Counter()
    group_inclusive = collections.Counter()
    leaves = collections.Counter()
    threads = set()
    kept = 0
    for tid, stack in samples:
        frames = [symbolizer.frames[(pc, i == 0)]
                  for i, pc in enumerate(stack)]
        names = {name for module, chain in frames if module == exe
                 for name in chain}
        if not any(UNDER.search(name) for name in names):
            continue
        kept += 1
        threads.add(tid)
        inclusive.update(names)
        group_inclusive.update(
            name for name, pattern in groups
            if any(pattern.search(function) for function in names))
        caller = next(chain for module, chain in frames if module == exe)
        self_counts[caller[0]] += 1
        if frames[0][0] != exe:
            module = os.path.basename(frames[0][0] or "?")
            leaves["%s in %s" % (module, " < ".join(
                drop_template_arguments(name) for name in caller))] += 1

    print("%d of %d samples under /%s/, %d threads" %
          (kept, len(samples), UNDER.pattern, len(threads)))
    if kept == 0:
        return 1 if args.min_samples > 0 else 0

    def table(title, counts):
        print("\n%s" % title)
        for name, count in counts.most_common(TOP):
            print("  %6.2f%%  %s" % (100.0 * count / kept, name))

    table("self (library leaves charged to their first executable frame)",
          self_counts)
    library = sum(leaves.values())
    table("library leaves (%.2f%% in all)" % (100.0 * library / kept), leaves)
    table("inclusive", inclusive)
    if groups:
        print()
        for name, pattern in groups:
            count = sum(c for f, c in self_counts.items() if pattern.search(f))
            print("group %s: %.2f%% self, %.2f%% inclusive" %
                  (name, 100.0 * count / kept,
                   100.0 * group_inclusive[name] / kept))
    return 1 if kept < args.min_samples else 0


if __name__ == "__main__":
    sys.exit(main())
