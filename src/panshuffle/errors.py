"""Shared exception types, and the one reader of the JSON objects a user writes.

Kind params, mechanism manifests and descriptors are read by :func:`_read_keys`
through a table of ``key -> (wanted type, default)``; a default of ``...``
marks a required key, and a tuple as the wanted type lists the allowed values.
"""


class GuardError(RuntimeError):
    """An operation would exceed a declared resource guard (size, paths, dims)."""


def _must(ok: bool, value):
    if not ok:
        raise TypeError(value)
    return value


# only the types json.loads gives: a numpy integer would break the manifest's json.dump
def _int(value) -> int:
    return _must(isinstance(value, int) and not isinstance(value, bool), value)


def _num(value) -> float:
    return float(_must(isinstance(value, (int, float)) and not isinstance(value, bool), value))


def _obj(value) -> dict:
    return _must(isinstance(value, dict), value)


def _seq(value) -> list:
    return list(_must(isinstance(value, (list, tuple)), value))


def _symbol(value):
    if not isinstance(value, str):
        _num(value)
    return value


# wanted type -> (how an error names it, reader that raises TypeError or ValueError)
_WANTS = {
    int: ("an integer", _int),
    float: ("a number", _num),
    str: ("a string", lambda v: _must(isinstance(v, str), v)),
    dict: ("a JSON object", _obj),
    list: ("a list", _seq),
    list[int]: ("a list of integers", lambda v: [_int(x) for x in _seq(v)]),
    list[float]: ("a list of numbers", lambda v: [_num(x) for x in _seq(v)]),
    # an alphabet: its numbers stay as given
    list[float | str]: ("a list of numbers or strings", lambda v: [_symbol(x) for x in _seq(v)]),
    # a law: numbers keyed by integers or their decimal strings
    dict[int, float]: ("a JSON object of numbers keyed by integers",
                       lambda v: {int(k): _num(x) for k, x in _obj(v).items()}),
}


def _read_keys(site: str, obj, keys: dict) -> dict:
    """Every key of the table ``keys`` read from the JSON object ``obj``, typed.

    JSON null counts as absent, so an absent or null key takes its default.
    Each ``ValueError`` opens with ``site`` (``"<kind> spec '<id>'"``,
    ``"<type> manifest"`` or ``"descriptor"``): one names the missing required
    and the unknown keys, with the accepted ones; one names the first value of
    the wrong type, with that value.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{site} must be a JSON object, got {obj!r}")
    missing = [key for key, (_, default) in keys.items() if default is ... and obj.get(key) is None]
    unknown = [key for key, value in obj.items() if key not in keys and value is not None]
    if missing or unknown:
        found = [f"{what} keys {names}" for what, names in (("missing", missing),
                                                             ("unknown", unknown)) if names]
        raise ValueError(f"{site}: {', '.join(found)}; accepted keys: {list(keys)}")
    values = {}
    for key, (want, default) in keys.items():
        value = obj.get(key)
        if value is None:
            values[key] = default
            continue
        text, read = ((f"one of {list(want)}", lambda v: _must(v in want, v))
                      if isinstance(want, tuple) else _WANTS[want])
        try:
            values[key] = read(value)
        except (TypeError, ValueError):
            raise ValueError(f"{site}: {key!r} must be {text}, got {value!r}") from None
    return values
