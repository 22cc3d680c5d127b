"""Rendering and persistence for sweep reports (:mod:`repro.sweep`).

Two views of the same report dict:

* :func:`write_report` — the canonical JSON form. Deterministic (sorted
  keys, no wall-clock content), so drift against an earlier report of
  the same spec is a byte comparison (``cmp``), which CI runs.
* :func:`to_markdown` — human-readable grid tables, one per workload,
  for PR comments and CI artifacts.
"""

import json


def write_report(report, path):
    """Write ``report`` as pretty JSON with a trailing newline.

    Sorted keys + deterministic content = byte-identical same-seed
    reruns, the property CI's ``sweep-smoke`` job checks with ``cmp``.
    """
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _verified_glyph(flag):
    if flag is None:
        return "-"
    return "yes" if flag else "**MISMATCH**"


def to_markdown(report):
    """Render ``report`` as GitHub-flavoured markdown tables."""
    spec = report["spec"]
    lines = [
        "# Sweep: %s" % spec["name"],
        "",
        "Spec: `%s` — ops=%d records=%d seed=%d llc_ways=%d"
        % (report.get("spec_source") or "(inline)", spec["ops"],
           spec["records"], spec["seed"], spec["llc_ways"]),
        "",
        "%d cells from %d recorded traces (record once, replay many)."
        % (len(report["cells"]), report["traces_recorded"]),
        "",
    ]
    workloads = []
    for cell in report["cells"]:
        if cell["workload"] not in workloads:
            workloads.append(cell["workload"])
    for workload in workloads:
        lines.append("## %s" % workload)
        lines.append("")
        lines.append("| backend | mechanisms | device mech | LLC | policy "
                     "| engine | sim_ns (timed) | host hits | dev hits "
                     "| verified |")
        lines.append("|---|---|---|---|---|---|---:|---:|---:|---|")
        for cell in report["cells"]:
            if cell["workload"] != workload:
                continue
            counters = cell["counters"]
            lines.append(
                "| %s | %s | %s | %dKiB | %s | %s | %d | %d | %s | %s |"
                % (cell["backend"], cell["mechanisms"],
                   cell["device_mechanisms"], cell["llc_kib"],
                   cell["policy"], cell["engine"], cell["sim_ns_timed"],
                   counters["host_mech_hits"],
                   counters.get("dev_mech_hits", "-"),
                   _verified_glyph(cell["verified"])))
        lines.append("")
    verification = report["verification"]
    lines.append("## Verification")
    lines.append("")
    lines.append("%d cells fingerprint-checked against the per-access "
                 "engine: %d passed, %d failed."
                 % (verification["checked"], verification["passed"],
                    verification["failed"]))
    for failure in verification["failures"]:
        lines.append("")
        lines.append("* **%s/%s %s** — %d mismatched fingerprint key(s), "
                     "first: `%s`"
                     % (failure["workload"], failure["backend"],
                        failure["variant"], failure["mismatch_count"],
                        failure["mismatches"][0]["key"]
                        if failure["mismatches"] else "?"))
    lines.append("")
    return "\n".join(lines)
