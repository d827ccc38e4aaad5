#!/usr/bin/env python3
"""Inclusive, self and caller shares from sampler.c stack samples.

    python3 tools/sample_profile/report.py --run -- CMD [ARGS...]
        build sampler.so, run CMD with it preloaded (children inherit it),
        then report on every sample file the run wrote
    python3 tools/sample_profile/report.py sample_profile.1234.txt ...
        report on existing sample files

Options:
    --within F    keep only samples whose stack has a frame matching F
                  (a substring of the demangled name); shares are of those
    --callers F   also list the immediate callers of the innermost frame
                  matching F
    --top N       rows per table (default 30)
    --layers      instead of the function tables, print the inclusive share
                  of each engine layer (LAYERS below); frames inlined into
                  a sampled frame count as frames of the stack here
    --keep        with --run, keep the sample files

A function's inclusive share counts the samples with it anywhere on the
stack (once per sample, so recursion is not double-counted); its self share
counts the samples with it as the leaf. Symbols come from addr2line, so
the binaries need symbols (-g or RelWithDebInfo) for static functions.
Standard library and binutils only.
"""

import argparse
import collections
import glob
import os
import shutil
import struct
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# The engine's layers: a frame belongs to a layer when its demangled name
# contains one of the layer's patterns. A sample counts toward every layer
# with a frame on its stack, so the shares of nested layers (a VM step that
# merges a vector clock) overlap; a sample in no layer counts as "other".
# The calendar queue's names stay so older builds report the same layer.
LAYERS = (
    ("VM step", ("acfc::sim::Vm::",)),
    ("vector clocks", ("acfc::trace::VClock::",)),
    ("event queue", ("acfc::sim::EventQueue::", "acfc::sim::CalendarQueue::",
                     "acfc::sim::Engine::next_event",
                     "acfc::sim::Engine::push_event")),
    ("transport shim", ("acfc::sim::Engine::xport_",
                        "acfc::sim::Engine::wire_arrival",
                        "acfc::sim::Engine::handle_net_arrive",
                        "acfc::sim::Engine::send_xport_ack",
                        "acfc::sim::Engine::handle_ack",
                        "acfc::sim::Engine::handle_rto",
                        "acfc::sim::Engine::reset_transport_for_rollback",
                        "acfc::sim::SeqRing")),
    ("trace recording", ("acfc::sim::Engine::note", "acfc::trace::Trace::",
                         "acfc::trace::EventRec", "acfc::trace::MsgRec",
                         "acfc::trace::CkptRec")),
    ("checkpoint capture", ("acfc::sim::Engine::take_checkpoint",
                            "acfc::sim::Engine::force_checkpoint",
                            "acfc::sim::store_capture_fn",
                            "acfc::sim::async_store_capture_fn",
                            "acfc::sim::serialize_snapshot",
                            "acfc::sim::VmSnapshot", "acfc::store::")),
)


def parse_sample_file(path):
    """(mappings, stacks): mappings are (start, end, offset, object path);
    stacks are lists of addresses, leaf first."""
    maps, stacks = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("map "):
                parts = line[4:].split()
                if len(parts) < 6:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif line.startswith("stack "):
                stacks.append([int(x, 16) for x in line.split()[1:]])
    return maps, stacks


def elf_layout(path):
    """(is_fixed_address, [(p_offset, p_vaddr, p_filesz)] of PT_LOAD)."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return False, []
        e_type = struct.unpack_from("<H", head, 16)[0]
        e_phoff = struct.unpack_from("<Q", head, 32)[0]
        e_phentsize, e_phnum = struct.unpack_from("<HH", head, 54)
        f.seek(e_phoff)
        table = f.read(e_phentsize * e_phnum)
    loads = []
    for i in range(e_phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * e_phentsize)
        if p_type == 1:
            loads.append((p_offset, p_vaddr, p_filesz))
    return e_type == 2, loads


class Symbolizer:
    def __init__(self, maps):
        self.maps = sorted(maps)
        self.names = {}

    def _mapping(self, addr):
        for lo, hi, off, path in self.maps:
            if lo <= addr < hi:
                return lo, off, path
        return None

    def resolve(self, addrs):
        """Fills self.names for every address (object-relative lookup)."""
        by_object = collections.defaultdict(list)
        for addr in addrs:
            if addr in self.names:
                continue
            m = self._mapping(addr)
            if m is None or not os.path.exists(m[2]):
                self.names[addr] = ["0x%x" % addr]
                continue
            by_object[m[2]].append((addr, m))
        for path, items in by_object.items():
            fixed, loads = elf_layout(path)
            queries = []
            for addr, (lo, off, _) in items:
                if fixed:
                    queries.append(addr)
                    continue
                file_off = addr - lo + off
                vaddr = file_off
                for p_offset, p_vaddr, p_filesz in loads:
                    if p_offset <= file_off < p_offset + p_filesz:
                        vaddr = file_off - p_offset + p_vaddr
                        break
                queries.append(vaddr)
            out = subprocess.run(
                ["addr2line", "-a", "-i", "-f", "-C", "-e", path] +
                ["0x%x" % q for q in queries],
                capture_output=True, text=True, check=False).stdout.splitlines()
            chains = parse_addr2line(out)
            base = os.path.basename(path)
            for i, (addr, _) in enumerate(items):
                chain = chains[i] if i < len(chains) else ["??"]
                if chain[0] == "??":
                    chain = ["%s+0x%x" % (base, queries[i])]
                self.names[addr] = [short_name(name) for name in chain]


def parse_addr2line(lines):
    """Function chains, innermost (inlined) first, one per queried address,
    from the output of `addr2line -a -i -f`: an address line, then a
    function line and a location line per inlined scope."""
    chains = []
    for line in lines:
        if line.startswith("0x"):
            chains.append([])
            position = 0
        elif chains:
            if position % 2 == 0:
                chains[-1].append(line)
            position += 1
    return [chain or ["??"] for chain in chains]


def short_name(name):
    """Drops the parameter list (and a trailing const) of a demangled name."""
    name = name.strip()
    if name.endswith(" const"):
        name = name[:-len(" const")]
    if not name.endswith(")"):
        return name
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                return name[:i] if i > 0 else name
    return name


def symbolize(files, inlines=False):
    """Stacks of function names, leaf first, over every file. A frame is
    its innermost inlined function, or with `inlines` every function
    inlined at it, innermost first."""
    named = []
    for path in files:
        maps, stacks = parse_sample_file(path)
        sym = Symbolizer(maps)
        # Every frame but the leaf is a return address: look up the call.
        wanted = set()
        for stack in stacks:
            wanted.update([stack[0]] + [a - 1 for a in stack[1:]])
        sym.resolve(sorted(wanted))
        for stack in stacks:
            frames = [sym.names[stack[0]]] + [sym.names[a - 1] for a in stack[1:]]
            named.append([name for chain in frames
                          for name in (chain if inlines else chain[:1])])
    return named


def keep_within(stacks, within):
    return [s for s in stacks if any(within in f for f in s)] if within else stacks


def layer_shares(stacks, layers=LAYERS):
    """{layer: fraction of the stacks with a frame in it}, plus "other" for
    the stacks in no layer."""
    total = len(stacks)
    hits = collections.Counter()
    for s in stacks:
        found = [name for name, patterns in layers
                 if any(p in f for f in s for p in patterns)]
        hits.update(found or ["other"])
    names = [name for name, _ in layers] + ["other"]
    return {name: hits[name] / total if total else 0.0 for name in names}


def layer_report(stacks, within=None, out=sys.stdout):
    stacks = keep_within(stacks, within)
    print("samples: %d%s" % (len(stacks), " within '%s'" % within if within else ""),
          file=out)
    if not stacks:
        return
    print("\n%7s  %s" % ("incl%", "layer"), file=out)
    for name, share in layer_shares(stacks).items():
        print("%7.1f  %s" % (100.0 * share, name), file=out)


def report(stacks, within=None, callers=None, top=30, out=sys.stdout):
    stacks = keep_within(stacks, within)
    total = len(stacks)
    print("samples: %d%s" % (total, " within '%s'" % within if within else ""),
          file=out)
    if total == 0:
        return
    inclusive, self_ = collections.Counter(), collections.Counter()
    for s in stacks:
        self_[s[0]] += 1
        inclusive.update(set(s))
    print("\n%7s %7s  %s" % ("incl%", "self%", "function"), file=out)
    for name, n in inclusive.most_common(top):
        print("%7.1f %7.1f  %s" % (100.0 * n / total,
                                   100.0 * self_[name] / total, name),
              file=out)
    print("\n%7s  %s" % ("self%", "function (by self)"), file=out)
    for name, n in self_.most_common(top):
        print("%7.1f  %s" % (100.0 * n / total, name), file=out)
    if callers:
        calls, hits = collections.Counter(), 0
        for s in stacks:
            for i, f in enumerate(s):
                if callers in f:
                    hits += 1
                    calls[s[i + 1] if i + 1 < len(s) else "<root>"] += 1
                    break
        print("\ncallers of '%s' (%d samples, %.1f%%):" %
              (callers, hits, 100.0 * hits / total), file=out)
        for name, n in calls.most_common(top):
            print("%7.1f  %s" % (100.0 * n / max(hits, 1), name), file=out)


def run_sampled(command, workdir):
    """Builds sampler.so and runs `command` under it; returns new files."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        sys.exit("report.py: no C compiler to build sampler.so")
    lib = os.path.join(workdir, "sampler.so")
    subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", lib,
                    os.path.join(HERE, "sampler.c")], check=True)
    before = set(glob.glob("sample_profile.*.txt"))
    env = dict(os.environ)
    env["LD_PRELOAD"] = (lib + " " + env["LD_PRELOAD"]).strip() \
        if env.get("LD_PRELOAD") else lib
    code = subprocess.run(command, env=env, check=False).returncode
    if code != 0:
        print("report.py: command exited %d" % code, file=sys.stderr)
    return sorted(set(glob.glob("sample_profile.*.txt")) - before)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("files", nargs="*")
    parser.add_argument("--run", action="store_true")
    parser.add_argument("--within")
    parser.add_argument("--callers")
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--keep", action="store_true")
    args, command = parser.parse_known_args(argv)
    if command and command[0] == "--":
        command = command[1:]
    files = list(args.files)
    if args.run:
        command = files + command
        if not command:
            parser.error("--run needs a command after --")
        with tempfile.TemporaryDirectory() as workdir:
            files = run_sampled(command, workdir)
        if not files:
            sys.exit("report.py: the command wrote no sample file")
    elif not files:
        parser.error("give sample files or --run -- CMD")
    if args.layers:
        layer_report(symbolize(files, inlines=True), args.within)
    else:
        report(symbolize(files), args.within, args.callers, args.top)
    if args.run and not args.keep:
        for path in files:
            os.remove(path)


if __name__ == "__main__":
    main()
