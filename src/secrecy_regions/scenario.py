"""Scenario files: a YAML description of one computation (a Gaussian sweep,
a discrete-memoryless sweep, a simulator run, or a projection-equivalence
check) that the command line executes.

The parsed form is kept as plain nested dictionaries, and only their
structure is checked here: the runners in `cli` build the typed objects,
which check the values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import yaml

from .errors import ValidationError, check_choice

# The scenario kinds, their allowed keys ("kind" itself is implicit), and for
# each key that holds a mapping, that mapping's (required, optional) keys.  The
# values are checked by the types and runners that use them, not here.
_SCHEMAS = {
    "gaussian": {
        "required": ("scenario", "bound", "output"),
        "optional": ("resolution", "r0_rho_coeff", "summary"),
        "nested": {"scenario": (("p1", "p2", "sigma1_sq", "sigma2_sq"), ())},
    },
    "dm": {
        "required": ("channel", "bound", "output"),
        "optional": ("grid", "summary"),
        "nested": {"grid": ((), ("u_size", "v1_size", "v2_size", "resolution", "max_chains"))},
    },
    "simulate": {
        "required": ("channel", "aux", "code", "trials", "output"),
        "optional": ("blocklengths",),
        "nested": {
            "aux": (("p_u", "p_v1_given_u", "p_v2_given_u", "p_x1_given_v1", "p_x2_given_v2"), ()),
            "code": (("n",), ("r0", "r1", "r2", "r1p", "r2p", "typicality_eps", "seed")),
        },
    },
    "fm-check": {
        "required": ("channel", "chains", "output"),
        "optional": ("seed",),
        "nested": {},
    },
}
# Flow levels ([ and {) a scenario may nest: a channel table inside a flow
# mapping needs 5.
_MAX_FLOW_DEPTH = 8


def _fetch_checked(loader) -> None:
    """yaml.SafeLoader.fetch_more_tokens, refusing [ and { nested past
    _MAX_FLOW_DEPTH levels, or a YAML alias (nested ones expand a tiny file
    k**depth-fold), as the scanner reaches it: only brackets and aliases
    outside quoted scalars and comments count, and the refusal comes before
    the composer, which recurses once per level, goes any deeper."""
    yaml.SafeLoader.fetch_more_tokens(loader)
    if loader.flow_level > _MAX_FLOW_DEPTH:
        raise ValidationError(f"scenario file: nested too deeply (over {_MAX_FLOW_DEPTH} levels)")
    if isinstance(loader.tokens[-1], yaml.AliasToken):  # an alias is the last token its fetch adds
        raise ValidationError("scenario file: YAML aliases (*name) are not allowed")


def _unique_mapping(loader, node) -> None:
    """yaml.SafeLoader.flatten_mapping, which construct_mapping runs on every
    mapping and on each one merged in by <<, refusing two keys of node that
    construct to equal values; a key merged in may still be overridden, and
    a key that is no scalar is left to construct_mapping, which refuses it
    as unhashable."""
    keys = [key for key, _ in node.value
            if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge"]
    yaml.SafeLoader.flatten_mapping(loader, node)  # resolves << and = keys
    seen = set()
    for key in keys:
        value = loader.construct_object(key)
        if value in seen:
            line = key.start_mark.line + 1
            raise ValidationError(f"scenario file: duplicate key {value!r} (line {line})")
        seen.add(value)


class _Loader(yaml.SafeLoader):
    """yaml.SafeLoader with the scenario file's structural refusals."""

    fetch_more_tokens = _fetch_checked
    flatten_mapping = _unique_mapping


def _load(text: str):
    """yaml.safe_load(text), read by _Loader in one pass."""
    return yaml.load(text, Loader=_Loader)


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(data: dict, required, optional, where: str) -> None:
    unknown = sorted(set(data) - set(required) - set(optional), key=lambda k: (str(k), repr(k)))
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(data))
    if missing:
        raise ValidationError(f"{where}: missing keys {missing}")


@dataclass(frozen=True)
class ScenarioFile:
    """One scenario, its structure checked: a kind plus its plain-data payload."""

    kind: str
    data: dict = field(repr=False)

    def __post_init__(self):
        check_choice(self.kind, _SCHEMAS, "scenario kind")
        schema = _SCHEMAS[self.kind]
        _require_mapping(self.data, f"kind {self.kind}")
        _check_keys(self.data, schema["required"], schema["optional"], f"kind {self.kind}")
        for key in ("output", "summary"):
            if key in self.data and (not isinstance(self.data[key], str) or "\0" in self.data[key]):
                raise ValidationError(f"{key}: expected a file path, got {self.data[key]!r}")
        for key, (required, optional) in schema["nested"].items():
            if key in self.data:
                _check_keys(_require_mapping(self.data[key], key), required, optional, key)
        if self.kind == "gaussian":
            check_choice(self.data["bound"], ("inner", "outer", "cmac"), "gaussian bound")
        if "blocklengths" in self.data:
            lengths = self.data["blocklengths"]
            if not isinstance(lengths, list) or not lengths:
                raise ValidationError("blocklengths: expected a non-empty list")

    @classmethod
    def parse(cls, text: str) -> "ScenarioFile":
        """The scenario in YAML text (ValidationError unless text is a str
        holding one, for any YAML alias or duplicate key, and for nesting
        too deep to parse)."""
        if not isinstance(text, str):
            raise ValidationError(f"scenario text: expected a str, got {type(text).__name__}")
        try:
            raw = _load(text)
        except yaml.YAMLError as exc:
            raise ValidationError(f"scenario parse error: {exc}") from exc
        except RecursionError as exc:  # PyYAML recurses once per nesting level
            raise ValidationError("scenario file: nested too deeply to parse") from exc
        raw = _require_mapping(raw, "scenario file")
        if "kind" not in raw:
            raise ValidationError("scenario file: missing key 'kind'")
        data = {k: v for k, v in raw.items() if k != "kind"}
        return cls(raw["kind"], data)

    @classmethod
    def load(cls, path) -> "ScenarioFile":
        """The scenario in the UTF-8 YAML file at path, a str or os.PathLike
        (ValidationError otherwise, and for a file that cannot be read); the
        cli checks its output and summary paths."""
        if not isinstance(path, (str, os.PathLike)):
            raise ValidationError(f"scenario path: expected a str or path, got {type(path).__name__}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"scenario file {os.fspath(path)!r}: {exc}") from exc
        return cls.parse(text)
