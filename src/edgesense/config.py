"""Run configuration: schema validation, defaults, fingerprints, builders.

A run is described by one JSON document.  ``parse_config`` turns it into a
frozen ``RunConfig`` with every default materialized, so the sha256
fingerprint of two configs agrees exactly when the runs they describe do.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Any, Iterable

import jsonschema
import numpy as np

from .lattice import Lattice, build_rhombic, build_ssh
from .leads import CompositeSystem, RingLead, assemble_composite
from .master_eq import SolverConfig, SolverMethod

__all__ = [
    "CONFIG_SCHEMA",
    "ConfigError",
    "LatticeSettings",
    "LeadSettings",
    "SweepSettings",
    "OutputSettings",
    "RunConfig",
    "apply_overrides",
    "parse_config",
    "parse_config_dict",
]

_SWEEP_VARIANTS = [
    {
        "type": "object",
        "additionalProperties": False,
        "required": ["axis", "values"],
        "properties": {
            "axis": {"enum": ["delta", "kappa"]},
            "values": {"type": "array", "minItems": 1, "items": {"type": "number"}},
        },
    },
    {
        "type": "object",
        "additionalProperties": False,
        "required": ["axis", "range", "step"],
        "properties": {
            "axis": {"enum": ["delta", "kappa"]},
            "range": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "items": {"type": "number"},
            },
            "step": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    {
        "type": "object",
        "additionalProperties": False,
        "required": ["axis", "log_range", "points"],
        "properties": {
            "axis": {"enum": ["delta", "kappa"]},
            "log_range": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "items": {"type": "number", "exclusiveMinimum": 0},
            },
            "points": {"type": "integer", "minimum": 2},
        },
    },
]

CONFIG_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "edgesense run configuration",
    "type": "object",
    "additionalProperties": False,
    "required": ["lattice"],
    "properties": {
        "lattice": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["ssh", "rhombic"]},
                "L": {"type": "integer", "minimum": 2},
                "J": {"type": "number", "exclusiveMinimum": 0},
                "J_tilde": {"type": "number", "exclusiveMinimum": 0},
                "J_abs": {"type": "number", "exclusiveMinimum": 0},
                "phi": {"type": "number"},
                "delta": {"type": "number"},
                "termination": {"enum": ["hub", "arm"]},
            },
        },
        "leads": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "M": {"type": "integer", "minimum": 4},
                "J_lead": {"type": "number", "exclusiveMinimum": 0},
                "mu_L": {"type": "number"},
                "mu_R": {"type": "number"},
                "beta": {
                    "oneOf": [{"type": "number", "minimum": 0}, {"const": "inf"}]
                },
                "gamma": {"type": "number", "minimum": 0},
            },
        },
        "coupling": {"type": "number", "minimum": 0},
        "decoherence": {"type": "number", "minimum": 0},
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "method": {
                    "enum": ["SylvesterIteration", "TimeMarch", "FullLinearSolve"]
                },
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "residual_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_time": {"type": "number", "exclusiveMinimum": 0},
                "max_iters": {"type": "integer", "minimum": 1},
                "step_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "sweep": {"oneOf": _SWEEP_VARIANTS},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string", "minLength": 1},
                "format": {"const": "csv"},
            },
        },
    },
}

_SSH_ONLY = ("J", "J_tilde")
_RHOMBIC_ONLY = ("J_abs", "phi", "termination")


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field path."""


@dataclass(frozen=True)
class LatticeSettings:
    kind: str
    L: int
    J: float = 1.0
    J_tilde: float = 0.5
    J_abs: float = 1.0
    phi: float = math.pi
    delta: float = 0.0
    termination: str = "hub"

    def to_dict(self) -> dict[str, Any]:
        foreign = _RHOMBIC_ONLY if self.kind == "ssh" else _SSH_ONLY
        return {k: v for k, v in asdict(self).items() if k not in foreign}

    def build(self, gate: float | None = None) -> Lattice:
        gate = self.delta if gate is None else float(gate)
        if self.kind == "ssh":
            return build_ssh(self.L, self.J_tilde, self.J, gate=gate)
        return build_rhombic(
            self.L, self.J_abs, self.phi, gate=gate, termination=self.termination
        )


@dataclass(frozen=True)
class LeadSettings:
    M: int = 40
    J_lead: float = 1.0
    mu_L: float = 0.0
    mu_R: float = 0.0
    beta: float = math.inf
    gamma: float = 0.05

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "beta": "inf" if math.isinf(self.beta) else self.beta}

    def build(self) -> tuple[RingLead, RingLead]:
        left = RingLead(
            size=self.M, hop=self.J_lead, mu=self.mu_L, beta=self.beta, gamma=self.gamma
        )
        right = RingLead(
            size=self.M, hop=self.J_lead, mu=self.mu_R, beta=self.beta, gamma=self.gamma
        )
        return left, right


@dataclass(frozen=True)
class SweepSettings:
    axis: str
    values: tuple[float, ...] | None = None
    span: tuple[float, float] | None = None
    step: float | None = None
    log_span: tuple[float, float] | None = None
    points: int | None = None

    def materialize(self) -> np.ndarray:
        """Expand the sweep description into the axis grid, endpoints included."""
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        if self.span is not None:
            lo, hi = self.span
            n = int(round((hi - lo) / self.step)) + 1
            return np.linspace(lo, hi, n)
        lo, hi = self.log_span
        return np.logspace(math.log10(lo), math.log10(hi), self.points)

    def to_dict(self) -> dict[str, Any]:
        """The schema's spelling: unset fields dropped, spans as "range" lists."""
        keys = {"span": "range", "log_span": "log_range"}
        return {
            keys.get(k, k): list(v) if isinstance(v, tuple) else v
            for k, v in asdict(self).items()
            if v is not None
        }


@dataclass(frozen=True)
class OutputSettings:
    path: str = "."
    format: str = "csv"


@dataclass(frozen=True)
class RunConfig:
    lattice: LatticeSettings
    leads: LeadSettings = LeadSettings()
    coupling: float = 0.2
    decoherence: float = 0.0
    solver: SolverConfig = SolverConfig()
    sweep: SweepSettings | None = None
    output: OutputSettings = OutputSettings()

    def build_lattice(self, gate: float | None = None) -> Lattice:
        return self.lattice.build(gate)

    def build_system(self, gate: float | None = None) -> CompositeSystem:
        left, right = self.leads.build()
        return assemble_composite(self.build_lattice(gate), left, right, self.coupling)

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out.update(lattice=self.lattice.to_dict(), leads=self.leads.to_dict())
        out["solver"]["method"] = self.solver.method.value
        del out["sweep"]
        if self.sweep is not None:
            out["sweep"] = self.sweep.to_dict()
        return out

    def fingerprint(self) -> str:
        """sha256 of the canonical JSON form, defaults included."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _first_schema_error(raw: dict[str, Any]) -> str | None:
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    best = jsonschema.exceptions.best_match(validator.iter_errors(raw))
    if best is None:
        return None
    path = ".".join(str(p) for p in best.absolute_path) or "<root>"
    return f"{path}: {best.message}"


def parse_config_dict(raw: dict[str, Any], *, allow_reverse_bias: bool = False) -> RunConfig:
    """Validate a decoded config document and materialize all defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>: config must be a JSON object")
    problem = _first_schema_error(raw)
    if problem is not None:
        raise ConfigError(problem)

    lat_raw = dict(raw["lattice"])
    kind = lat_raw["kind"]
    foreign = _RHOMBIC_ONLY if kind == "ssh" else _SSH_ONLY
    for key in foreign:
        if key in lat_raw:
            raise ConfigError(f"lattice.{key}: not a parameter of kind '{kind}'")
    lat_raw.setdefault("L", 60 if kind == "ssh" else 15)
    if kind == "ssh" and lat_raw["L"] % 2:
        raise ConfigError("lattice.L: ssh chains need an even number of sites")
    lattice = LatticeSettings(**lat_raw)

    leads_raw = dict(raw.get("leads", {}))
    if leads_raw.get("beta") == "inf":
        leads_raw["beta"] = math.inf
    leads = LeadSettings(**leads_raw)
    if leads.mu_L < leads.mu_R and not allow_reverse_bias:
        raise ConfigError(
            "leads.mu_L < leads.mu_R: reverse bias requires --allow-reverse-bias"
        )

    solver_raw = dict(raw.get("solver", {}))
    if "method" in solver_raw:
        solver_raw["method"] = SolverMethod(solver_raw["method"])
    solver = SolverConfig(**solver_raw)

    sweep = None
    if "sweep" in raw:
        sw = raw["sweep"]
        sweep = SweepSettings(
            axis=sw["axis"],
            values=tuple(float(v) for v in sw["values"]) if "values" in sw else None,
            span=tuple(sw["range"]) if "range" in sw else None,
            step=sw.get("step"),
            log_span=tuple(sw["log_range"]) if "log_range" in sw else None,
            points=sw.get("points"),
        )
        if sweep.span is not None and sweep.span[1] < sweep.span[0]:
            raise ConfigError("sweep.range: upper bound below lower bound")

    return RunConfig(
        lattice=lattice,
        leads=leads,
        solver=solver,
        sweep=sweep,
        output=OutputSettings(**raw.get("output", {})),
        **{k: float(raw[k]) for k in ("coupling", "decoherence") if k in raw},
    )


def parse_config(text: str, *, allow_reverse_bias: bool = False) -> RunConfig:
    """Parse and validate a JSON config document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"not valid JSON: {err}") from err
    return parse_config_dict(raw, allow_reverse_bias=allow_reverse_bias)


def apply_overrides(raw: dict[str, Any], overrides: Iterable[str]) -> dict[str, Any]:
    """Apply ``dotted.path=value`` overrides to a decoded config document.

    Values parse as JSON when possible ("0.003" -> 0.003, '"arm"' or plain
    arm -> string); intermediate objects are created as needed.  Returns a
    new document, the input is not touched.
    """
    doc = copy.deepcopy(raw)
    for item in overrides:
        key, sep, text = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override '{item}': expected dotted.path=value")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override '{item}': {part} is not an object")
        node[parts[-1]] = value
    return doc
