"""Sweep specification files (the declarative half of :mod:`repro.sweep`).

A spec is a TOML or JSON file with one ``[sweep]`` table describing an
experiment grid::

    [sweep]
    name = "full-grid"
    ops = 4000
    records = 2400
    seed = 42
    backends = ["pax", "pmdk", "pm_direct"]
    workloads = ["store_heavy", "mixed"]
    mechanisms = ["none", "victim:32", "stream:4x4"]
    llc_sizes_kib = [64, 256]
    llc_ways = 16
    hbm_lines = 64
    policies = ["lru"]
    device_mechanisms = ["none", "stream:4x4"]
    spot_check = "all"

Every list is a grid axis; the cell set is the cartesian product (with
``device_mechanisms`` entries other than ``"none"`` restricted to
PAX-family backends — other backends have no device to mechanize, so
those combinations are skipped rather than invented). ``spot_check`` is
``"all"``, ``"none"``, or an integer N: how many replayed cells are
re-run through the access engine and fingerprint-compared.
``hbm_lines`` (scalar, not an axis; 0 = the device default) shrinks the
PAX device's HBM cache so the device-mechanism axis sees PM traffic.

TOML parsing uses :mod:`tomllib` where available (Python >= 3.11); on
older interpreters a deterministic subset parser covers exactly the
grammar above (tables, strings, integers, floats, booleans, and
single-line arrays of scalars). JSON specs (a top-level ``{"sweep":
{...}}`` object) are always supported.
"""

from repro.errors import ConfigError

try:
    import tomllib as _tomllib
except ImportError:                      # Python <= 3.10
    _tomllib = None

#: Spec format identifier (embedded into reports for provenance).
SPEC_SCHEMA = "repro.sweep-spec/1"

#: Axis/knob defaults; also the authoritative key list — unknown keys in
#: a spec are a hard error, so typos fail loudly instead of silently
#: shrinking a grid.
DEFAULTS = {
    "name": "sweep",
    "ops": 4000,
    "records": 800,
    "seed": 42,
    "backends": ["pax", "pmdk", "pm_direct"],
    "workloads": ["store_heavy", "mixed"],
    "mechanisms": ["none", "victim:32"],
    "llc_sizes_kib": [256],
    "llc_ways": 16,
    "hbm_lines": 0,
    "policies": ["lru"],
    "device_mechanisms": ["none"],
    "spot_check": "all",
}

#: Backends that carry a PAX device (eligible for device_mechanisms).
PAX_BACKENDS = ("pax", "hybrid")


def _parse_scalar(text, where):
    """Parse one TOML scalar: string, bool, integer, or float."""
    text = text.strip()
    if not text:
        raise ConfigError("%s: empty value" % where)
    if text[0] == '"':
        if len(text) < 2 or text[-1] != '"':
            raise ConfigError("%s: unterminated string %s" % (where, text))
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError("%s: cannot parse value %r" % (where, text)) \
            from None


def _split_array_items(body, where):
    """Split a single-line TOML array body on commas outside strings."""
    items = []
    current = []
    in_string = False
    for char in body:
        if char == '"':
            in_string = not in_string
            current.append(char)
        elif char == "," and not in_string:
            items.append("".join(current))
            current = []
        else:
            current.append(char)
    if in_string:
        raise ConfigError("%s: unterminated string in array" % where)
    tail = "".join(current)
    if tail.strip():
        items.append(tail)
    return [item for item in items if item.strip()]


def _parse_toml_subset(text, path):
    """Parse the spec TOML subset; returns a dict of tables.

    Covers: ``[table]`` headers, ``key = scalar`` and ``key = [scalar,
    ...]`` (single line) entries, ``#`` comments, blank lines. This is
    everything a sweep spec needs, and it behaves identically on every
    interpreter the CI matrix runs.
    """
    root = {}
    table = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = "%s:%d" % (path, lineno)
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("%s: malformed table header %r"
                                  % (where, line))
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("%s: empty table name" % where)
            table = root.setdefault(name, {})
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError("%s: expected key = value, got %r"
                              % (where, line))
        key = key.strip()
        value = value.strip()
        # Trailing comments: cut at the first '#' outside a string.
        in_string = False
        for index, char in enumerate(value):
            if char == '"':
                in_string = not in_string
            elif char == "#" and not in_string:
                value = value[:index].rstrip()
                break
        if value.startswith("["):
            if not value.endswith("]"):
                raise ConfigError("%s: arrays must be single-line" % where)
            table[key] = [_parse_scalar(item, where)
                          for item in _split_array_items(value[1:-1], where)]
        else:
            table[key] = _parse_scalar(value, where)
    return root


def _load_raw(path):
    """Read ``path`` and parse it into a dict (TOML or JSON by suffix)."""
    import json
    with open(path, "rb") as handle:
        blob = handle.read()
    if path.endswith(".json"):
        try:
            return json.loads(blob.decode("utf-8"))
        except ValueError as exc:
            raise ConfigError("%s: bad JSON: %s" % (path, exc)) from None
    if _tomllib is not None:
        try:
            return _tomllib.loads(blob.decode("utf-8"))
        except _tomllib.TOMLDecodeError as exc:
            raise ConfigError("%s: bad TOML: %s" % (path, exc)) from None
    return _parse_toml_subset(blob.decode("utf-8"), path)


def _as_str_list(value, key):
    if isinstance(value, str):
        value = [value]
    if (not isinstance(value, list) or not value
            or not all(isinstance(item, str) for item in value)):
        raise ConfigError("spec key %r wants a non-empty list of strings"
                          % key)
    return list(value)


def _as_int_list(value, key):
    if isinstance(value, int) and not isinstance(value, bool):
        value = [value]
    if (not isinstance(value, list) or not value
            or not all(isinstance(item, int) and not isinstance(item, bool)
                       for item in value)):
        raise ConfigError("spec key %r wants a non-empty list of integers"
                          % key)
    return list(value)


def load_spec(path):
    """Load, default-fill, and validate a sweep spec; returns a dict.

    The returned dict has every :data:`DEFAULTS` key populated plus
    ``schema`` (:data:`SPEC_SCHEMA`) and ``source`` (the path), and its
    axis values are validated against the live registries (mechanism
    specs actually build, backends/workloads/policies exist), so a bad
    spec fails before any cell runs.
    """
    raw = _load_raw(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("sweep"), dict):
        raise ConfigError("%s: a sweep spec needs a [sweep] table" % path)
    body = raw["sweep"]
    unknown = sorted(set(body) - set(DEFAULTS))
    if unknown:
        raise ConfigError("%s: unknown spec key(s): %s (have %s)"
                          % (path, ", ".join(unknown),
                             ", ".join(sorted(DEFAULTS))))
    spec = dict(DEFAULTS)
    spec.update(body)
    spec["schema"] = SPEC_SCHEMA
    spec["source"] = path

    if not isinstance(spec["name"], str) or not spec["name"]:
        raise ConfigError("%s: name must be a non-empty string" % path)
    for key in ("ops", "records", "seed", "llc_ways"):
        value = spec[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError("%s: %s must be a positive integer"
                              % (path, key))
    hbm = spec["hbm_lines"]
    if not isinstance(hbm, int) or isinstance(hbm, bool) or hbm < 0:
        raise ConfigError("%s: hbm_lines must be a non-negative integer "
                          "(0 = the device default)" % path)
    spec["backends"] = _as_str_list(spec["backends"], "backends")
    spec["workloads"] = _as_str_list(spec["workloads"], "workloads")
    spec["mechanisms"] = _as_str_list(spec["mechanisms"], "mechanisms")
    spec["policies"] = _as_str_list(spec["policies"], "policies")
    spec["device_mechanisms"] = _as_str_list(spec["device_mechanisms"],
                                             "device_mechanisms")
    spec["llc_sizes_kib"] = _as_int_list(spec["llc_sizes_kib"],
                                         "llc_sizes_kib")

    from repro.baselines.pax import backend_classes
    from repro.cache.mechanisms import make_mechanisms
    from repro.cache.replacement import make_policy
    from repro.perfbench import WORKLOADS as KNOWN_WORKLOADS
    known_backends = backend_classes()
    for backend in spec["backends"]:
        if backend not in known_backends:
            raise ConfigError("%s: unknown backend %r (have %s)"
                              % (path, backend,
                                 ", ".join(sorted(known_backends))))
        if not getattr(known_backends[backend], "recordable", True):
            raise ConfigError("%s: backend %r cannot be recorded for "
                              "replay" % (path, backend))
    for workload in spec["workloads"]:
        if workload not in KNOWN_WORKLOADS:
            raise ConfigError("%s: unknown workload %r (have %s)"
                              % (path, workload, ", ".join(KNOWN_WORKLOADS)))
    for policy in spec["policies"]:
        make_policy(policy)              # raises ConfigError when unknown
    for mech_spec in spec["mechanisms"] + spec["device_mechanisms"]:
        for policy in spec["policies"]:
            make_mechanisms(mech_spec, policy)
    spot = spec["spot_check"]
    if not (spot in ("all", "none")
            or (isinstance(spot, int) and not isinstance(spot, bool)
                and spot >= 0)):
        raise ConfigError('%s: spot_check must be "all", "none", or a '
                          "non-negative integer" % path)
    return spec
