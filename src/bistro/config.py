"""The config and its one table of keys.

``DOCUMENTS`` has a row for every key of the config and of each document it
nests: the key's kind, default (``REQUIRED`` if it must be set) and range.
``check`` refuses a config that breaks a row, with one line naming the
document and key. Builders read a checked config: a required key by
subscript, any other through ``get``, which gives its row's default.
"""

from __future__ import annotations

import json
import math
import os
from functools import cache
from typing import NamedTuple

import numpy as np

ALGORITHMS = ("bistro", "bistro_relaxed", "bistro_regularized", "adversarial_reduction",
              "uniform", "egreedy")
MODES = ("iid_pool", "transductive")
ADAPTIVE_RULES = ("argmax_punish",)
REQUIRED = object()


class Key(NamedTuple):
    # kind: "count" (a non-negative integer), "number", "rate" ("auto" or a
    # number in (0, 1/d] for the document's d), "choice" (one of range),
    # "array" (nested lists NumPy holds as range; any name too, if the
    # default is one), "partition" (lists of round indices), "document" (the
    # document range, unless the default), or None: checked where it is read
    kind: str | None
    default: object = REQUIRED
    # an interval such as "[0, inf)" for a count or a number, the values of a
    # choice, the NumPy type of an array's entries, or a document's name
    range: object = None


@cache
def _interval(text: str) -> tuple[float, float, bool, bool]:
    low, high = text[1:-1].split(", ")
    return float(low), float(high), text[0] == "[", text[-1] == "]"


def _array(value, held) -> str | None:
    level = [value]
    while any(isinstance(entry, list) for entry in level):  # one depth at a time
        if len({len(entry) if isinstance(entry, list) else -1 for entry in level}) > 1:
            return "needs a rectangular array; its lists differ in length or depth"
        level = [entry for lists in level for entry in lists]
    kinds, kind = ((int,), "integer") if held is np.int64 else ((int, float), "numeric")
    for entry in level:
        if type(entry) not in kinds:  # a string, a boolean, null or a fraction
            return f"needs {kind} entries; got {entry!r}"
        try:
            held(entry)  # as NumPy will hold it
        except OverflowError:
            return f"needs entries that fit {held.__name__}; got {entry!r}"
    return None


def check_value(value, row: Key, doc: dict) -> str | None:
    """What is wrong with ``value``, set in ``doc``, by ``row``; None if
    nothing. A nested document raises its own errors."""
    kind = row.kind
    if kind is None or kind == "rate" and value == "auto":
        return None
    if kind == "document":
        if value != row.default:  # null or "uniform", where the default, sets none
            check_document(row.range, value)
        return None
    if kind == "choice":
        return None if value in row.range else f"must be one of {row.range}; got {value!r}"
    if kind == "array":  # a name, where the default is one, is left to its builder
        return None if isinstance(value, str) and isinstance(row.default, str) else (
            _array(value, row.range))
    if kind == "partition":
        if isinstance(value, list) and all(
                isinstance(block, list) and all(type(t) is int and 0 <= t < 2**63 for t in block)
                for block in value):
            return None
        return f"needs lists of integer round indices; got {value!r}"
    if kind == "count" and (type(value) is not int or value < 0):
        return f"needs a non-negative integer; got {value!r}"
    if kind in ("number", "rate") and (
            not isinstance(value, (int, float)) or isinstance(value, bool)):
        return f"needs a number; got {value!r}"
    if kind == "rate":
        if 0.0 < value <= 1.0 / doc["d"]:  # NaN fails too
            return None
        return f'must be "auto" or in (0, 1/d]; got {value!r}'
    if row.range is None:
        return None
    # in the interval; a closed lower end is checked before finiteness, so that NaN fails it
    low, high, closed_low, closed_high = _interval(row.range)
    above = value >= low if closed_low else value > low
    finite = -math.inf < value < math.inf
    if finite and above and (value <= high if closed_high else value < high):
        return None
    if finite or closed_low and not above:
        rule = (f"must lie in {row.range}" if high < math.inf else
                f"must be at least {row.range[1:-1].split(',')[0]}" if closed_low else
                "must be positive")
        return f"{rule}; got {value!r}"
    return f"must be finite; got {value!r}"


# Each document's rows by variant: the value of its tag key, and (value,
# "path") for that variant read from a file. Rows are checked in order, the
# required ones first, so that a missing key is named before any value that
# reads it (a rate reads d).
DOCUMENTS = {
    "config": (None, {None: {
        "d": Key("count", REQUIRED, "[1, inf)"),
        "n": Key("count", REQUIRED, "[1, inf)"),
        "policy_class": Key("document", REQUIRED, "policy_class"),
        "cost_process": Key("document", REQUIRED, "cost_process"),
        "context_dist": Key("document", "uniform", "context_dist"),
        "constraint": Key("document", None, "constraint"),
        "algorithm": Key("choice", "bistro", ALGORITHMS),
        "horizon_mode": Key("choice", "iid_pool", MODES),
        "gamma": Key("rate", "auto"),
        "playouts": Key("count", 1, "[1, inf)"),
        "pool_factor": Key("count", 10, "[1, inf)"),
        "tune_samples": Key("count", 200, "[1, inf)"),
        "tune_seed": Key("count", 0),
        "lambda": Key("number", 0.0, "[0, inf)"),
        "K": Key("number", None, "[0, inf)"),
        "delta": Key("number", None, "[0, inf)"),
        "eta": Key("number", None, "(0, inf)"),
        "epsilon": Key("number", 0.1, "(0, 1]"),
    }}),
    "context_dist": (None, {None: {
        "probs": Key("array", REQUIRED, float),
        "features": Key("array", None, float),
    }}),
    "policy_class": ("family", {
        (None, "path"): {"path": Key(None)},
        None: {"d": Key("count", REQUIRED, "[1, inf)"),
               "policies": Key("array", REQUIRED, np.int64), "universe": Key("count", None)},
        "all_labelings": {"family": Key(None), "d": Key("count", REQUIRED, "[1, inf)"),
                          "universe": Key("count")},
        "argmax_linear": {"family": Key(None), "weights": Key("array", REQUIRED, float)},
    }),
    "cost_process": ("type", {
        ("fixed_table", "path"): {"type": Key(None), "path": Key(None)},
        "fixed_table": {"type": Key(None), "values": Key("array", REQUIRED, float)},
        "iid_bernoulli": {"type": Key(None), "means": Key("array", REQUIRED, float)},
        "adaptive": {"type": Key(None), "rule": Key("choice", "argmax_punish", ADAPTIVE_RULES)},
    }),
    "constraint": ("type", {
        "pairwise": {"type": Key(None), "weights": Key("array", "uniform", float)},
        "coverage": {"type": Key(None), "partition": Key("partition"), "k": Key("count")},
    }),
}
CONFIG = DOCUMENTS["config"][1][None]  # the top-level rows
NUMBERS = frozenset(key for key, row in CONFIG.items() if row.kind in ("number", "rate"))


def _rows(name: str, doc: dict) -> dict | None:
    # None for a variant the table does not know, which its builder refuses
    tag, variants = DOCUMENTS[name]
    if tag is None:
        return variants[None]
    variant = doc.get(tag)
    if not isinstance(variant, (str, type(None))):
        return None
    return "path" in doc and variants.get((variant, "path")) or variants.get(variant)


def check_document(name: str, doc) -> dict:
    """``doc``, if it is a JSON object that keeps the rows of document
    ``name``: no key outside them, every required one, and values of their
    kinds and ranges."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a JSON object; got {doc!r}")
    rows = _rows(name, doc)
    if rows is None:
        return doc
    if not rows.keys() >= doc.keys():  # a typo or a removed key
        raise ValueError(f"unknown {name} keys {sorted(doc.keys() - rows.keys())}; "
                         f"known keys: {sorted(rows)}")
    for key, row in rows.items():
        if key in doc:
            problem = check_value(doc[key], row, doc)
            if problem:
                raise ValueError(f"{name} key {key!r} {problem}")
        elif row.default is REQUIRED:
            missing = sorted(k for k, r in rows.items() if r.default is REQUIRED and k not in doc)
            raise ValueError(f"missing required {name} keys {missing}")
    return doc


def check(config) -> dict:
    """``config``, if it and every document it nests keep the table."""
    return check_document("config", config)


def get(doc: dict, key: str, name: str = "config"):
    """``doc[key]`` of document ``name``, a number as a float, or its row's
    default when unset; an unset required key raises ``KeyError``."""
    if key in doc:
        value = doc[key]
        return float(value) if name == "config" and key in NUMBERS and value != "auto" else value
    default = (CONFIG if name == "config" else _rows(name, doc))[key].default
    if default is REQUIRED:
        raise KeyError(key)
    return default


def read(key: str, path, parse=json.load):
    """``parse`` of the open file at ``path``; a path that is not a string or
    names a file that cannot be opened or parsed is an error naming ``key``."""
    if not isinstance(path, str):
        raise ValueError(f"{key} needs a file name; got {path!r}")
    try:
        with open(path) as f:
            return parse(f)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{key} names {path!r}, which cannot be read: "
                         f"{getattr(exc, 'strerror', None) or exc}") from None


def load_config(path: str) -> dict:
    """Config file as a dict; the ``path`` of ``policy_class`` and
    ``cost_process`` is resolved against the file's directory."""
    config = read("--config", path)
    if not isinstance(config, dict):
        raise ValueError(f"config must be a JSON object; got {config!r}")
    base = os.path.dirname(os.path.abspath(path))
    for key in ("policy_class", "cost_process"):
        doc = config.get(key)
        if isinstance(doc, dict) and isinstance(doc.get("path"), str):
            config[key] = {**doc, "path": os.path.join(base, doc["path"])}
    return config
