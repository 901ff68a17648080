"""Run configuration: validation, defaults, fingerprints, builders.

A run is described by one JSON document.  ``parse_config`` checks it
against the settings dataclasses below: their fields name each section's
keys and their types, and ``_CHOICES``/``_LOWER_BOUNDS`` add what a type
does not say.  It returns a frozen ``RunConfig`` with every default
materialized, so the sha256 fingerprint of two configs agrees exactly when
the runs they describe do.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import Any, Iterable

import numpy as np

# The interpreter's own SHA-256 gives hashlib's digest, and importing it
# maps no OpenSSL: hashlib loads libcrypto, 3.3 MB resident, for this one
# fingerprint.  hashlib is the fallback where neither module is built.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .lattice import RHOMBIC_TERMINATIONS, Lattice, build_rhombic, build_ssh
from .leads import MIN_RING_SIZE, CompositeSystem, RingLead, assemble_composite
from .master_eq import SolverConfig, SolverMethod

__all__ = [
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

_SSH_ONLY = ("J", "J_tilde")
_RHOMBIC_ONLY = ("J_abs", "phi", "termination")

# What the field types do not say.  A lower bound is (bound, whether the
# bound itself is allowed); on a list field it applies to each item.
_CHOICES = {
    "lattice.kind": ("ssh", "rhombic"),
    "lattice.termination": RHOMBIC_TERMINATIONS,
    "solver.method": tuple(m.value for m in SolverMethod),
    "sweep.axis": ("delta", "kappa"),
    "output.format": ("csv",),
}
_LOWER_BOUNDS = {
    "lattice.L": (2, True),
    "lattice.J": (0, False),
    "lattice.J_tilde": (0, False),
    "lattice.J_abs": (0, False),
    "leads.M": (MIN_RING_SIZE, True),
    "leads.J_lead": (0, False),
    "leads.beta": (0, True),
    "leads.gamma": (0, False),
    "coupling": (0, True),
    "decoherence": (0, True),
    "solver.residual_tol": (0, False),
    "sweep.step": (0, False),
    "sweep.log_range": (0, False),
    "sweep.points": (2, True),
}
# the key each section must have; "" is the document itself
_REQUIRED = {"": "lattice", "lattice": "kind", "sweep": "axis"}
_SWEEP_SHAPES = (("values",), ("range", "step"), ("log_range", "points"))


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
    range: tuple[float, float] | None = None
    step: float | None = None
    log_range: tuple[float, float] | None = None
    points: int | None = None

    def __post_init__(self) -> None:
        # exactly one grid shape, however the settings are built
        given = [k for shape in _SWEEP_SHAPES for k in shape if getattr(self, k) is not None]
        shapes = [shape for shape in _SWEEP_SHAPES if set(shape) & set(given)]
        if len(shapes) != 1:
            raise ConfigError(
                f"sweep: {given or 'no grid'} given; use exactly one of 'values', "
                "'range' with 'step', or 'log_range' with 'points'"
            )
        missing = [k for k in shapes[0] if k not in given]
        if missing:
            raise ConfigError(f"sweep: {shapes[0][0]!r} needs {missing[0]!r}")
        # the parser's own checks and casts, before any division by the step
        # or log of an end
        for key, value in _section("sweep", SweepSettings, self.to_dict()).items():
            object.__setattr__(self, key, value)
        if self.range is not None:
            lo, hi = self.range
            if hi < lo:
                raise ConfigError("sweep.range: upper bound below lower bound")
            # the grid runs from lo to hi in steps of step, so step must divide the
            # span, however the settings are built: materialize rounds the count
            n = (hi - lo) / self.step
            if not (math.isfinite(n) and abs(n - round(n)) <= 1e-9 * max(1.0, n)):
                raise ConfigError(
                    f"sweep.step: {self.step!r} does not divide the range [{lo!r}, {hi!r}]"
                )

    def materialize(self) -> np.ndarray:
        """Expand the sweep description into the axis grid, endpoints included."""
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        if self.range is not None:
            lo, hi = self.range
            n = int(round((hi - lo) / self.step)) + 1
            return np.linspace(lo, hi, n)
        lo, hi = self.log_range
        return np.logspace(math.log10(lo), math.log10(hi), self.points)

    @property
    def log_span(self) -> tuple[float, float] | None:
        """``log_range`` under its former name, which ``perfbench/workloads.py`` still reads."""
        return self.log_range

    def to_dict(self) -> dict[str, Any]:
        """The JSON spelling: unset fields dropped, tuples as lists."""
        return {
            k: list(v) if isinstance(v, tuple) else v
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
        return sha256(canon.encode()).hexdigest()


_SECTIONS = {
    cls.__name__: cls
    for cls in (LatticeSettings, LeadSettings, SolverConfig, SweepSettings, OutputSettings)
}


def _section(path: str, cls: type, raw: Any) -> dict[str, Any]:
    """Check one JSON object against a settings dataclass; return its entries cast."""
    where = path or "<root>"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: {raw!r} is not an object")
    types = {f.name: f.type for f in fields(cls)}
    for key in raw:
        if key not in types:
            raise ConfigError(f"{where}: unknown key {key!r}")
    if path in _REQUIRED and _REQUIRED[path] not in raw:
        raise ConfigError(f"{where}: {_REQUIRED[path]!r} is required")
    return {
        key: _value(f"{path}.{key}".lstrip("."), types[key], value)
        for key, value in raw.items()
    }


def _value(path: str, annotation: str, value: Any, rule: str | None = None) -> Any:
    """Check one config value against its field type and rules; return it cast.

    Numbers are cast to the field's type, so 1 and 1.0 in a float field, or
    8 and 8.0 in an integer field, give one fingerprint.  ``rule`` is the
    table key when it differs from ``path`` (the items of a list).
    """
    rule = rule or path
    kind = annotation.removesuffix(" | None")
    if kind in _SECTIONS:
        return _section(path, _SECTIONS[kind], value)
    if kind.startswith("tuple["):
        size = None if kind.endswith("...]") else kind.count(",") + 1
        if not isinstance(value, list) or not value or len(value) != (size or len(value)):
            want = size or "one or more"
            raise ConfigError(f"{path}: {value!r} is not a list of {want} numbers")
        return tuple(_value(f"{path}.{i}", "float", v, path) for i, v in enumerate(value))
    if kind in ("str", "SolverMethod"):
        choices = _CHOICES.get(rule)
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{path}: {value!r} is not a non-empty string")
        if choices is not None and value not in choices:
            raise ConfigError(f"{path}: {value!r} is not one of {list(choices)}")
        return value
    if rule == "leads.beta" and value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        want = "an integer" if kind == "int" else "a number"
        raise ConfigError(f"{path}: {value!r} is not {want}")
    if kind == "int":
        if not (isinstance(value, int) or value.is_integer()):
            raise ConfigError(f"{path}: {value!r} is not an integer")
        value = int(value)
    elif abs(value) <= sys.float_info.max:  # false for NaN, infinities and huge ints
        value = float(value)
    else:
        raise ConfigError(f"{path}: {value!r} is not a finite number")
    _check_bound(path, value, rule)
    return value


def _check_bound(path: str, value: float, rule: str | None = None) -> None:
    """Refuse a number below its ``_LOWER_BOUNDS`` entry (NaN too), naming path."""
    bound, inclusive = _LOWER_BOUNDS.get(rule or path, (-math.inf, True))
    if not (value >= bound if inclusive else value > bound):
        raise ConfigError(f"{path}: {value!r} must be {'>=' if inclusive else '>'} {bound}")


def parse_config_dict(raw: dict[str, Any], *, allow_reverse_bias: bool = False) -> RunConfig:
    """Validate a decoded config document and materialize all defaults."""
    doc = _section("", RunConfig, raw)
    sw = doc.get("sweep")
    sweep = None if sw is None else SweepSettings(**sw)

    lat = doc["lattice"]
    kind = lat["kind"]
    foreign = _RHOMBIC_ONLY if kind == "ssh" else _SSH_ONLY
    for key in foreign:
        if key in lat:
            raise ConfigError(f"lattice.{key}: not a parameter of kind '{kind}'")
    lat.setdefault("L", 60 if kind == "ssh" else 15)
    if kind == "ssh" and lat["L"] % 2:
        raise ConfigError("lattice.L: ssh chains need an even number of sites")

    leads = LeadSettings(**doc.get("leads", {}))
    if leads.mu_L < leads.mu_R and not allow_reverse_bias:
        raise ConfigError(
            "leads.mu_L < leads.mu_R: reverse bias requires --allow-reverse-bias"
        )

    return RunConfig(
        lattice=LatticeSettings(**lat),
        leads=leads,
        solver=SolverConfig(**doc.get("solver", {})),
        sweep=sweep,
        output=OutputSettings(**doc.get("output", {})),
        **{k: doc[k] for k in ("coupling", "decoherence") if k in doc},
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
    if not isinstance(raw, dict):
        raise ConfigError(f"<root>: {raw!r} is not an object")
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
