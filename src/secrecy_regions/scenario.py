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


def _check_tokens(text: str) -> None:
    """Refuse text, before any parse, whose [ and { nest past _MAX_FLOW_DEPTH
    levels, or that holds a YAML alias (nested ones expand a tiny file
    k**depth-fold).  PyYAML's own scanner, fed one token at a time without
    the parser's lookahead, finds only the brackets and aliases outside
    quoted scalars and comments, and stops at the first fault; a parse
    rescans every open level per token and recurses once per level, so it
    is slow to reach any later refusal of a deep nest."""
    scanner = yaml.SafeLoader(text)
    try:
        while not scanner.done:
            scanner.fetch_more_tokens()  # an alias is the last token its fetch adds
            if scanner.flow_level > _MAX_FLOW_DEPTH:
                raise ValidationError(f"scenario file: nested too deeply (over {_MAX_FLOW_DEPTH} levels)")
            if isinstance(scanner.tokens[-1], yaml.AliasToken):
                raise ValidationError("scenario file: YAML aliases (*name) are not allowed")
    finally:
        scanner.dispose()


def _check_unique_keys(loader: yaml.SafeLoader, node) -> None:
    """Refuse a mapping, at node or below it, in which two keys construct to
    equal values.  The node graph is a tree, as aliases are refused first;
    a key merged in by << may still be overridden."""
    if isinstance(node, yaml.SequenceNode):
        for child in node.value:
            _check_unique_keys(loader, child)
    if not isinstance(node, yaml.MappingNode):
        return
    for pair in node.value:
        for child in pair:
            _check_unique_keys(loader, child)
    keys = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
    loader.flatten_mapping(node)  # as construct_mapping does: resolves << and = keys
    seen = set()
    for key in keys:
        value = loader.construct_object(key, deep=True)
        try:
            repeated = value in seen
        except TypeError:  # unhashable: construct_document refuses it
            continue
        if repeated:
            line = key.start_mark.line + 1
            raise ValidationError(f"scenario file: duplicate key {value!r} (line {line})")
        seen.add(value)


def _load(text: str):
    """yaml.safe_load(text), in its own steps, with _check_unique_keys run
    between the compose and the construct."""
    loader = yaml.SafeLoader(text)
    try:
        node = loader.get_single_node()
        if node is None:  # no document
            return None
        _check_unique_keys(loader, node)
        return loader.construct_document(node)
    finally:
        loader.dispose()


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
    """One validated scenario: a kind plus its plain-data payload."""

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
        summary = self.data.get("summary")
        if summary is not None and os.path.realpath(summary) == os.path.realpath(self.data["output"]):
            raise ValidationError(f"summary: {summary!r} is also the output file")
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
            _check_tokens(text)
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
        (ValidationError otherwise, for a file that cannot be read, and for
        an output or summary that is the file itself)."""
        if not isinstance(path, (str, os.PathLike)):
            raise ValidationError(f"scenario path: expected a str or path, got {type(path).__name__}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"scenario file {os.fspath(path)!r}: {exc}") from exc
        sf = cls.parse(text)
        for key in ("output", "summary"):
            if key in sf.data and os.path.realpath(sf.data[key]) == os.path.realpath(path):
                raise ValidationError(f"{key}: {sf.data[key]!r} is the scenario file itself")
        return sf
