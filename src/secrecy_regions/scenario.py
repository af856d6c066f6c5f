"""Scenario files: a YAML description of one computation (a Gaussian sweep,
a discrete-memoryless sweep, a simulator run, or a projection-equivalence
check) that the command line executes.

The parsed form is kept as plain nested dictionaries; typed objects are
constructed on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .binning import CodeConfig
from .dm import AuxiliaryChain, GridSpec
from .errors import ValidationError
from .gaussian import R0_RHO_COEFF_DERIVATION, GaussianScenario
from .info import DiscreteChannel, FiniteDistribution

KINDS = ("gaussian", "dm", "simulate", "fm-check")

# Allowed keys per scenario kind; "kind" itself is implicit.  The values are
# checked by the types and runners that use them, not here.
_SCHEMAS = {
    "gaussian": {
        "required": ("scenario", "bound", "output"),
        "optional": ("resolution", "r0_rho_coeff", "summary"),
    },
    "dm": {
        "required": ("channel", "bound", "output"),
        "optional": ("grid", "summary"),
    },
    "simulate": {
        "required": ("channel", "aux", "code", "trials", "output"),
        "optional": ("blocklengths",),
    },
    "fm-check": {
        "required": ("channel", "chains", "output"),
        "optional": ("seed",),
    },
}
_SCENARIO_KEYS = ("p1", "p2", "sigma1_sq", "sigma2_sq")
_GRID_KEYS = ("u_size", "v1_size", "v2_size", "resolution", "max_chains")
_AUX_KEYS = ("p_u", "p_v1_given_u", "p_v2_given_u", "p_x1_given_v1", "p_x2_given_v2")
_CODE_KEYS = ("n", "r0", "r1", "r2", "r1p", "r2p", "typicality_eps", "seed")


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(data: dict, required, optional, where: str) -> None:
    unknown = sorted(set(data) - set(required) - set(optional))
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
        if self.kind not in KINDS:
            raise ValidationError(f"scenario kind must be one of {KINDS}, got {self.kind!r}")
        schema = _SCHEMAS[self.kind]
        _check_keys(self.data, schema["required"], schema["optional"], f"kind {self.kind}")
        for key in ("output", "summary"):
            if key in self.data and not isinstance(self.data[key], str):
                raise ValidationError(f"{key}: expected a file path, got {self.data[key]!r}")
        if self.kind == "gaussian":
            sc = _require_mapping(self.data["scenario"], "scenario")
            _check_keys(sc, _SCENARIO_KEYS, (), "scenario")
            if self.data["bound"] not in ("inner", "outer", "cmac"):
                raise ValidationError("gaussian bound must be inner, outer, or cmac")
        elif self.kind == "dm":
            if "grid" in self.data:
                _check_keys(_require_mapping(self.data["grid"], "grid"), (), _GRID_KEYS, "grid")
        elif self.kind == "simulate":
            _check_keys(_require_mapping(self.data["aux"], "aux"), _AUX_KEYS, (), "aux")
            _check_keys(_require_mapping(self.data["code"], "code"), ("n",), _CODE_KEYS, "code")
            lengths = self.blocklengths()
            if not isinstance(lengths, list) or not lengths:
                raise ValidationError("blocklengths: expected a non-empty list")

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ScenarioFile":
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ValidationError(f"scenario parse error: {exc}") from exc
        raw = _require_mapping(raw, "scenario file")
        if "kind" not in raw:
            raise ValidationError("scenario file: missing key 'kind'")
        data = {k: v for k, v in raw.items() if k != "kind"}
        return cls(raw["kind"], data)

    @classmethod
    def load(cls, path) -> "ScenarioFile":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    # -- typed accessors ----------------------------------------------------

    def gaussian_scenario(self) -> GaussianScenario:
        return GaussianScenario(**self.data["scenario"])

    def resolution(self) -> int:
        return self.data.get("resolution", 101)

    def r0_rho_coeff(self) -> float:
        return self.data.get("r0_rho_coeff", R0_RHO_COEFF_DERIVATION)

    def discrete_channel(self) -> DiscreteChannel:
        return DiscreteChannel(self.data["channel"])

    def grid_spec(self) -> GridSpec:
        return GridSpec(**self.data.get("grid", {}))

    def auxiliary_chain(self) -> AuxiliaryChain:
        a = self.data["aux"]
        return AuxiliaryChain.inner(
            FiniteDistribution(a["p_u"]),
            a["p_v1_given_u"],
            a["p_v2_given_u"],
            a["p_x1_given_v1"],
            a["p_x2_given_v2"],
        )

    def code_config(self) -> CodeConfig:
        """The code at its own blocklength `code.n`."""
        defaults = {"r0": 0.0, "r1": 0.0, "r2": 0.0, "r1p": 0.0, "r2p": 0.0}
        return CodeConfig(
            aux=self.auxiliary_chain(),
            channel=self.discrete_channel(),
            **{**defaults, **self.data["code"]},
        )

    def blocklengths(self) -> list:
        return self.data.get("blocklengths", [self.data["code"]["n"]])
