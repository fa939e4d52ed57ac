"""Flat key-value run configuration.

Grammar: one ``key = value`` assignment per line; ``#`` starts a comment;
blank lines are ignored.  Scalars are typed per key.  Two keys have richer
values:

* ``initial_condition``: a preset name, optionally with arguments, e.g.
  ``taylor_green``, ``charged_shear``,
  ``random_smooth(seed=7, energy=1.0, peak_wavenumber=3)``,
  ``from_checkpoint(path=run/final.ehds)``.
* ``criterion`` (repeatable): a triple ``kind, p, threshold`` such as
  ``PS_u, 6, auto``; threshold ``auto`` defers to the 10x-at-10%-horizon
  heuristic, any other threshold is a positive number or ``inf``.

Parsing reports every violation, not just the first.
"""

from __future__ import annotations

import math
import os
import re
import typing
from dataclasses import asdict, dataclass, field

from .checkpoint import CheckpointError, checkpoint_grid_size
from .criteria import CriterionKind, jsonable, make_accumulator
from .initial_conditions import PRESETS
from .solver import StepControl


class ConfigError(ValueError):
    """One or more configuration violations; .violations lists them all."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class CriterionSpec:
    kind: str
    p: float
    threshold: float | None


@dataclass
class InitialConditionSpec:
    name: str
    params: dict = field(default_factory=dict)


def _default_criteria() -> list[CriterionSpec]:
    return [
        CriterionSpec("BKM", math.inf, None),
        CriterionSpec("PS_u", 6.0, None),
        CriterionSpec("PS_grad_u", 2.0, None),
        CriterionSpec("BESOV_ANISO", 2.0, None),
    ]


@dataclass
class RunConfig:
    t_end: float
    initial_condition: InitialConditionSpec
    grid_n: int = 32
    cfl: float = StepControl.cfl
    dt: float = StepControl.dt
    dt_min: float = StepControl.dt_min
    criteria: list[CriterionSpec] = field(default_factory=_default_criteria)
    output_dir: str = "."
    series_csv: str = "series.csv"
    audit_csv: str = "audit.csv"
    energy_csv: str = "energy.csv"
    report_json: str = "report.json"
    checkpoint_path: str = "final.ehds"
    checkpoint_every: int = 0  # extra checkpoints every k steps; 0 = final only

    def as_dict(self) -> dict:
        return jsonable(asdict(self))


# Every int, float and str field of RunConfig is a config key of that type.
_SCALAR_KEYS = {
    name: typ
    for name, typ in typing.get_type_hints(RunConfig).items()
    if typ in (int, float, str)
}

# Peak memory of `ehd run`, in states (a state is five n^3 float64 fields):
# the snapshot, the RK3 stage and work arrays, and the observers' fields.
# tracemalloc measured 14.7 states at 32^3 and 14.3 at 64^3.
RUN_PEAK_STATES = 15


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


_KIND_ALIASES = {k.value.lower(): k.value for k in CriterionKind}

_IC_CALL = re.compile(r"^(\w+)\s*(?:\((.*)\))?$")


def _parse_criterion(value: str, lineno: int, violations: list) -> CriterionSpec | None:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) not in (2, 3):
        violations.append(
            f"line {lineno}: criterion needs 'kind, p[, threshold]', got {value!r}"
        )
        return None
    kind = _KIND_ALIASES.get(parts[0].lower())
    if kind is None:
        violations.append(
            f"line {lineno}: unknown criterion kind {parts[0]!r} "
            f"(expected {', '.join(k.value for k in CriterionKind)})"
        )
        return None
    try:
        p = float(parts[1])  # accepts 'inf'
    except ValueError:
        violations.append(f"line {lineno}: criterion exponent {parts[1]!r} is not a number")
        return None
    threshold = None
    if len(parts) == 3 and parts[2].lower() not in ("auto", "none", ""):
        try:
            threshold = float(parts[2])
        except ValueError:
            threshold = math.nan
        if not threshold > 0:
            violations.append(
                f"line {lineno}: criterion threshold {parts[2]!r} is not 'auto', "
                f"a positive number or inf"
            )
            return None
    try:
        make_accumulator(kind, p, threshold)
    except ValueError as exc:
        violations.append(f"line {lineno}: {exc}")
        return None
    return CriterionSpec(kind, p, threshold)


def _parse_initial_condition(value: str, lineno: int, violations: list):
    m = _IC_CALL.match(value)
    if m is None:
        violations.append(f"line {lineno}: malformed initial_condition {value!r}")
        return None
    name, argtext = m.group(1), m.group(2)
    if name not in PRESETS:
        violations.append(
            f"line {lineno}: unknown preset {name!r} (expected one of {', '.join(PRESETS)})"
        )
        return None
    _, param_types, required = PRESETS[name]
    params = {}
    if argtext and argtext.strip():
        for item in argtext.split(","):
            if "=" not in item:
                violations.append(
                    f"line {lineno}: preset argument {item.strip()!r} must be name=value"
                )
                continue
            k, v = (s.strip() for s in item.split("=", 1))
            typ = param_types.get(k)
            if typ is None:
                violations.append(f"line {lineno}: preset {name} has no parameter {k!r}")
                continue
            try:
                params[k] = typ(v.strip("'\""))
            except ValueError:
                violations.append(f"line {lineno}: bad value {v!r} for {name}.{k}")
    for req in required:
        if req not in params:
            violations.append(f"line {lineno}: preset {name} requires parameter {req!r}")
            return None
    return InitialConditionSpec(name, params)


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError carrying every violation found.

    Named charge presets are neutral and nonnegative by construction;
    checkpoint-loaded states are validated when the run starts.  A restart
    runs on the checkpoint's grid: grid_n is the size in the checkpoint's
    header, and an explicit grid_n must match it.
    """
    violations: list[str] = []
    seen: dict[str, int] = {}
    values: dict = {}
    criteria: list[CriterionSpec] = []
    ic = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, value = (s.strip() for s in line.split("=", 1))
        if key == "criterion":
            spec = _parse_criterion(value, lineno, violations)
            if spec is not None:
                criteria.append(spec)
            continue
        if key in seen:
            violations.append(
                f"line {lineno}: duplicate key {key!r} (already set at line {seen[key]})"
            )
            continue
        seen[key] = lineno
        if key == "initial_condition":
            ic = _parse_initial_condition(value, lineno, violations)
        elif key in _SCALAR_KEYS:
            try:
                values[key] = _SCALAR_KEYS[key](value)
            except ValueError:
                violations.append(
                    f"line {lineno}: bad value {value!r} for {key} "
                    f"(expected {_SCALAR_KEYS[key].__name__})"
                )
        else:
            violations.append(f"line {lineno}: unknown key {key!r}")

    if "t_end" not in values:
        violations.append("missing required key 't_end'")
    if ic is None and "initial_condition" not in seen:
        violations.append("missing required key 'initial_condition'")

    config = RunConfig(
        # A missing t_end, reported above, stands in as the library default.
        **{"t_end": StepControl.t_end, **values},
        initial_condition=ic,
        criteria=criteria or _default_criteria(),
    )
    # Range checks on whatever parsed; a restart's grid is its checkpoint's.
    if ic is not None and ic.name == "from_checkpoint":
        path = ic.params["path"]
        try:
            stored = checkpoint_grid_size(path)
        except (OSError, CheckpointError) as exc:
            if "grid_n" in values:
                violations.append(f"cannot read the grid size of checkpoint {path}: {exc}")
        else:
            if "grid_n" in values and stored != config.grid_n:
                violations.append(
                    f"grid_n = {config.grid_n} does not match checkpoint {path}, "
                    f"which holds a {stored}^3 grid"
                )
            config.grid_n = stored
    n = config.grid_n
    memory = _physical_memory()
    need = RUN_PEAK_STATES * 5 * n**3 * 8
    if n < 8 or (n & (n - 1)) != 0:
        violations.append(f"grid_n must be a power of two >= 8, got {n}")
    elif memory is not None and need > memory:
        violations.append(
            f"grid_n = {n} needs about {need / 2**30:.3g} GiB ({RUN_PEAK_STATES} x 5 "
            f"fields of {n}^3 float64), more than the {memory / 2**30:.3g} GiB "
            f"of physical memory"
        )
    violations += StepControl.violations(config.dt, config.cfl, config.t_end, config.dt_min)
    if config.t_end == 0:  # a run needs a horizon; the library accepts t_end = 0
        violations.append(f"t_end must be positive, got {config.t_end}")
    if config.checkpoint_every < 0:
        violations.append("checkpoint_every must be >= 0")

    if violations:
        raise ConfigError(violations)
    return config
