"""Run configuration and machine-readable run records.

Configs are flat JSON documents with one nesting level for the noise lists:

    {
      "m": 3,
      "mode": "bitflip",
      "pol_noise": [{"kind": "bit-flip", "target_index": 1, "weight": 0.2}],
      "spatial_noise": [{"kind": "bit-flip", "target_index": 1, "weight": 0.3}],
      "target": "0+",
      "seed": 0
    }

`seed` is echoed but unused: every run here is exact. A record is written
as JSON, or as CSV that carries its flat scalar fields at 12 significant
digits for plotting.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from typing import Any

from .noise import NoiseSpec, ghz_weights
from .protocol import (
    COMPONENTS_MAX_PHOTONS,
    DISTINCT,
    EQUAL,
    MAX_MEMBERS,
    MAX_PHOTONS,
    MODES,
    PHASEFLIP_MAX_PHOTONS,
)

SCHEMA_VERSION = 1

_TARGET_RE = re.compile(r"([0-9]+)([+-])")


class ConfigError(ValueError):
    """Malformed or schema-invalid configuration input."""


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_target(label: str) -> tuple[int, int]:
    """Parse a GHZ target label like "0+" into (index, sign)."""
    match = _TARGET_RE.fullmatch(label)
    if not match:
        raise ConfigError(f"target must look like '0+' or '2-', got {label!r}")
    digits, sign = match.groups()
    try:
        index = int(digits)
    except ValueError as exc:  # more digits than int() converts
        raise ConfigError(f"target index has {len(digits)} digits, too many to convert") from exc
    return index, 1 if sign == "+" else -1


@dataclass(frozen=True)
class ProtocolConfig:
    m: int
    mode: str
    pol_noise: tuple[NoiseSpec, ...] = ()
    spatial_noise: tuple[NoiseSpec, ...] = ()
    target: str = "0+"
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        if self.m < 2:
            raise ConfigError(f"m must be >= 2, got {self.m!r}")
        if self.m > MAX_PHOTONS:
            raise ConfigError(f"m must be <= {MAX_PHOTONS}, got {self.m}")
        if MODES[self.mode].hadamard and self.m > PHASEFLIP_MAX_PHOTONS:
            raise ConfigError(
                f"mode {self.mode!r} writes 2^(m-1) pattern rows per record; "
                f"m must be <= {PHASEFLIP_MAX_PHOTONS}, got {self.m}"
            )
        if MODES[self.mode].lists_components and self.m > COMPONENTS_MAX_PHOTONS:
            raise ConfigError(
                f"mode {self.mode!r} lists all 2^(m-1) closed-form components; "
                f"m must be <= {COMPONENTS_MAX_PHOTONS}, got {self.m}"
            )
        members = (len(self.pol_noise) + 1) * (len(self.spatial_noise) + 1)
        if members > MAX_MEMBERS:
            raise ConfigError(f"noise lists give {members} product members, more than the cap of {MAX_MEMBERS}")
        index, _ = parse_target(self.target)
        limit = 2 ** (self.m - 1)
        if index >= limit:
            raise ConfigError(f"target index {index} out of range [0, {limit}) for m={self.m}")
        self._check_mode_compatibility()
        for name, specs in (("pol_noise", self.pol_noise), ("spatial_noise", self.spatial_noise)):
            try:
                ghz_weights(self.m, specs)
            except ValueError as exc:
                raise ConfigError(f"{name} {exc}") from exc

    def _check_mode_compatibility(self):
        mode, pol, spatial = MODES[self.mode], self.pol_noise, self.spatial_noise
        if any(s.kind != mode.noise_kind for s in pol + spatial):
            raise ConfigError(f"mode {self.mode!r} admits only {mode.noise_kind} noise")
        if mode.pairing is not None and (len(pol) > 1 or len(spatial) > 1):
            raise ConfigError(f"mode {self.mode!r} admits at most one error component per degree of freedom")
        if mode.pairing == EQUAL and pol and spatial and pol[0].target_index != spatial[0].target_index:
            raise ConfigError(
                f"{self.mode} mode pairs equal error indices on both degrees of freedom; "
                "use mode 'general' or 'deterministic-demo' for mismatched indices"
            )
        if mode.pairing == DISTINCT:
            if not (pol and spatial):
                raise ConfigError(f"{self.mode} needs one error component per degree of freedom")
            if pol[0].target_index == spatial[0].target_index:
                raise ConfigError(f"{self.mode} needs distinct error indices on the two degrees of freedom")

    def to_dict(self) -> dict[str, Any]:
        def spec_dict(s: NoiseSpec) -> dict[str, Any]:
            return {"kind": s.kind, "target_index": s.target_index, "weight": s.weight}

        return {
            "m": self.m,
            "mode": self.mode,
            "pol_noise": [spec_dict(s) for s in self.pol_noise],
            "spatial_noise": [spec_dict(s) for s in self.spatial_noise],
            "target": self.target,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ProtocolConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
        known = {"m", "mode", "pol_noise", "spatial_noise", "target", "seed"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for req in ("m", "mode"):
            if req not in raw:
                raise ConfigError(f"missing required config field {req!r}")
        if not _is_int(raw["m"]):
            raise ConfigError(f"field 'm' must be an integer, got {raw['m']!r}")
        for key in ("mode", "target"):
            if key in raw and not isinstance(raw[key], str):
                raise ConfigError(f"field {key!r} must be a string, got {raw[key]!r}")
        seed = raw.get("seed")
        if seed is not None and not _is_int(seed):
            raise ConfigError(f"field 'seed' must be an integer or null, got {seed!r}")

        def specs(key: str) -> tuple[NoiseSpec, ...]:
            entries = raw.get(key, [])
            if not isinstance(entries, list):
                raise ConfigError(f"field {key!r} must be a list of noise entries")
            out = []
            for pos, entry in enumerate(entries):
                if not isinstance(entry, dict):
                    raise ConfigError(f"{key}[{pos}] must be an object")
                extra = set(entry) - {"kind", "target_index", "weight"}
                if extra:
                    raise ConfigError(f"{key}[{pos}] has unknown fields: {sorted(extra)}")
                if "kind" not in entry or "weight" not in entry:
                    raise ConfigError(f"{key}[{pos}] needs 'kind' and 'weight'")
                index, weight = entry.get("target_index", 0), entry["weight"]
                if not _is_int(index):
                    raise ConfigError(f"{key}[{pos}] field 'target_index' must be an integer, got {index!r}")
                if not (_is_int(weight) or isinstance(weight, float)):
                    raise ConfigError(f"{key}[{pos}] field 'weight' must be a number, got {weight!r}")
                try:
                    out.append(NoiseSpec(kind=entry["kind"], weight=float(weight), target_index=index))
                except (ValueError, OverflowError) as exc:
                    raise ConfigError(f"{key}[{pos}]: {exc}") from exc
            return tuple(out)

        return cls(
            m=raw["m"],
            mode=raw["mode"],
            pol_noise=specs("pol_noise"),
            spatial_noise=specs("spatial_noise"),
            target=raw.get("target", "0+"),
            seed=seed,
        )


def load_config(path: str) -> ProtocolConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, a number too long for int(), nesting too deep to parse
        raise ConfigError(f"config {path!r} cannot be parsed: {exc}") from exc
    return ProtocolConfig.from_dict(raw)


@dataclass(frozen=True)
class RunRecord:
    """One simulate invocation: config echo, results, closed-form comparison."""

    config: dict[str, Any]
    result: dict[str, Any]
    closed_form: dict[str, Any]
    deviation: dict[str, float]
    tool_version: str
    timestamp: str | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "tool": "ghzpurify",
            "tool_version": self.tool_version,
        }
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
        out["config"] = self.config
        out["result"] = self.result
        out["closed_form"] = self.closed_form
        out["deviation"] = self.deviation
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def scalar_fields(self) -> dict[str, Any]:
        """Flat subset shared by the CSV encoding."""
        fields: dict[str, Any] = {
            "mode": self.config["mode"],
            "m": self.config["m"],
            "target": self.config["target"],
            "success_probability": self.result["success_probability"],
            "output_fidelity": self.result["output_fidelity"],
        }
        for key, value in self.closed_form.items():
            if isinstance(value, (int, float)):
                fields[f"closed_form_{key}"] = value
        for key, value in self.deviation.items():
            fields[f"deviation_{key}"] = value
        return fields

    def to_csv(self) -> str:
        fields = self.scalar_fields()
        return rows_to_csv(list(fields), [list(fields.values())])


def rows_to_csv(header: list[str], rows: list[list[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(format(v, ".12g") if isinstance(v, float) else v for v in row)
    return buf.getvalue()


def rows_to_json(header: list[str], rows: list[list[Any]]) -> str:
    records = [dict(zip(header, row)) for row in rows]
    return json.dumps(records, indent=2) + "\n"
