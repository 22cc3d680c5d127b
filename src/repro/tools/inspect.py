"""Pool inspection: what is durably inside a pool file.

Usage::

    python -m repro.tools.inspect path/to/ht.pool

Prints the superblock (epoch, root kind/pointer), the undo log's durable
contents grouped by epoch (a non-empty log means the pool crashed inside
an epoch and will roll back on next open), and allocator occupancy. The
tool is read-only and works on any pool file regardless of how it was
produced.
"""

import os
import sys

from repro.errors import PoolError, ReproError
from repro.libpax.allocator import ALLOC_MAGIC, HEADER_OFFSET, SIZE_CLASSES, _LAYOUT
from repro.mem.accessor import OffsetAccessor, RawAccessor
from repro.mem.address_space import AddressSpace
from repro.pm.device import PmDevice
from repro.pm.log import UndoLogRegion
from repro.pm.pool import (
    Pool,
    ROOT_KIND_DIRECTORY,
    ROOT_KIND_NONE,
    ROOT_KIND_SINGLE,
)
from repro.util.constants import NULL_ADDR, PAGE_SIZE

_ROOT_KIND_LABELS = {
    ROOT_KIND_NONE: "none",
    ROOT_KIND_SINGLE: "single structure",
    ROOT_KIND_DIRECTORY: "named-root directory",
}


def _open_pool_file(path):
    """Open ``path`` read-only as a (device, pool) pair.

    Module-private on purpose: the raw device must not leave this
    module (``pm-escape``); the public surface is :func:`inspect_pool`.
    """
    size = os.path.getsize(path)
    if size < 2 * PAGE_SIZE:
        raise PoolError("%s is too small to be a pool file" % path)
    device = PmDevice("inspect", size, backing_path=path)
    return device, Pool.open(device)


def inspect_pool(path):
    """Return a dict describing the pool's durable state."""
    device, pool = _open_pool_file(path)
    info = {
        "path": path,
        "size_bytes": device.size,
        "committed_epoch": pool.committed_epoch,
        "root_kind": _ROOT_KIND_LABELS.get(pool.root_kind,
                                          "unknown(%d)" % pool.root_kind),
        "root_ptr": pool.root_ptr,
        "log_capacity_entries": pool.log_size // 96,
        "log_entries_by_epoch": {},
        "needs_recovery": False,
        "allocator": None,
    }
    region = UndoLogRegion(device, pool.log_base, pool.log_size)
    for entry in region.scan():
        bucket = info["log_entries_by_epoch"]
        bucket[entry.epoch] = bucket.get(entry.epoch, 0) + 1
        if entry.epoch > pool.committed_epoch:
            info["needs_recovery"] = True
    info["allocator"] = _inspect_allocator(device, pool)
    return info


def _inspect_allocator(device, pool):
    space = AddressSpace()
    # Map the device at a page-aligned base so structure-space offset 0
    # lands on the pool's data region.
    base = PAGE_SIZE
    space.map_device(base, device)
    mem = OffsetAccessor(RawAccessor(space), base + pool.data_base)
    view = _LAYOUT.view(mem, HEADER_OFFSET)
    if view.get("magic") != ALLOC_MAGIC:
        return None
    free_blocks = {}
    for index, block_size in enumerate(SIZE_CLASSES):
        count = 0
        head = view.get("heads", index=index)
        seen = set()
        while head != NULL_ADDR and head not in seen and count < 1_000_000:
            seen.add(head)
            count += 1
            head = mem.read_u64(head)
        if count:
            free_blocks[block_size] = count
    bump = view.get("bump")
    limit = view.get("limit")
    return {
        "heap_used_bytes": bump,
        "heap_limit_bytes": limit,
        "utilization": bump / limit if limit else 0.0,
        "free_blocks_by_class": free_blocks,
    }


def format_report(info):
    """Human-readable report."""
    lines = []
    lines.append("pool:            %s (%d bytes)" % (info["path"],
                                                     info["size_bytes"]))
    lines.append("committed epoch: %d" % info["committed_epoch"])
    lines.append("root:            %s @ 0x%x" % (info["root_kind"],
                                                 info["root_ptr"]))
    total_entries = sum(info["log_entries_by_epoch"].values())
    lines.append("undo log:        %d/%d durable records"
                 % (total_entries, info["log_capacity_entries"]))
    for epoch, count in sorted(info["log_entries_by_epoch"].items()):
        status = ("dead (committed)" if epoch <= info["committed_epoch"]
                  else "LIVE — will roll back on open")
        lines.append("  epoch %-6d %5d records  %s" % (epoch, count, status))
    if info["needs_recovery"]:
        lines.append("state:           crashed mid-epoch; recovery pending")
    else:
        lines.append("state:           clean")
    allocator = info["allocator"]
    if allocator is None:
        lines.append("allocator:       not initialized")
    else:
        lines.append("allocator:       %d / %d bytes used (%.1f%%)"
                     % (allocator["heap_used_bytes"],
                        allocator["heap_limit_bytes"],
                        100 * allocator["utilization"]))
        for block_size, count in sorted(
                allocator["free_blocks_by_class"].items()):
            lines.append("  free %4d B blocks: %d" % (block_size, count))
    return "\n".join(lines)


def format_machine(machine):
    """Live-machine report: the analysis dump plus sanitizer state.

    Combines :func:`repro.analysis.machine_report.machine_report` with
    the attached sanitizer's ``describe()`` output when ``machine`` has a
    tracer that knows how to describe itself (e.g.
    :class:`~repro.sanitizer.PaxSanitizer`). Unlike :func:`format_report`
    this needs a running machine, not a pool file.
    """
    from repro.analysis.machine_report import machine_report
    parts = [machine_report(machine)]
    tracer = getattr(machine, "tracer", None)
    if tracer is not None and hasattr(tracer, "describe"):
        parts.append(tracer.describe())
    return "\n\n".join(parts)


def main(argv=None):
    """CLI entry point."""
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 1:
        print("usage: python -m repro.tools.inspect <pool-file>",
              file=sys.stderr)
        return 2
    try:
        print(format_report(inspect_pool(argv[0])))
    except (OSError, ReproError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
