"""Run configuration: strict JSON schema, defaults, analytic field families."""

from __future__ import annotations

import copy
import hashlib
import json

import numpy as np

from .lattice import Lattice, PeriodicField, PlaneWaveBasis, SupercellField, delta_factor

__all__ = ["CONFIG_SCHEMA", "ConfigError", "parse_config", "validate_config",
           "build_potential", "build_macro_source", "config_hash", "serialize_config"]


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(self.errors))


_FIELD_SPEC = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "family": {"enum": ["cosine", "file"]},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "n": {"type": "array", "items": {"type": "integer"}},
                    "amplitude": {"type": "number"},
                },
            },
        },
        "path": {"type": "string"},
        "offset": {"type": "number"},
    },
    "required": ["family"],
}

_SOURCE_SPEC = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "family": {"enum": ["gaussian"]},
        "center": {"type": ["array", "null"], "items": {"type": "number"}},
        "width": {"type": "number", "exclusiveMinimum": 0},
        "amplitude": {"type": "number"},
        "mean_free": {"type": "boolean"},
    },
    "required": ["family", "width"],
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["lattice", "temperature"],
    "properties": {
        "lattice": {
            "type": "object",
            "additionalProperties": False,
            "required": ["basis"],
            "properties": {
                "basis": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                }
            },
        },
        "ecut": {"type": "number", "exclusiveMinimum": 0},
        "kgrid": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "temperature": {"type": "number", "exclusiveMinimum": 0},
        "crystal": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["designer", "scf"]},
                "potential": _FIELD_SPEC,
                "kappa": _FIELD_SPEC,
                "mu": {"anyOf": [{"type": "number"}, {"enum": ["mid-gap"]}]},
                "scf": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "alpha_mix": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                        "anderson_depth": {"type": "integer", "minimum": 0},
                        "tol_residual": {"type": "number", "exclusiveMinimum": 0},
                        "max_iter": {"type": "integer", "minimum": 1},
                        "mu_mode": {"enum": ["fixed-charge", "fixed-mu"]},
                    },
                },
            },
        },
        "response": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "delta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "a": {"type": "number", "exclusiveMinimum": 0},
                "kmax": {"type": "number", "exclusiveMinimum": 0},
                "ksamples": {"type": "integer", "minimum": 12},
            },
        },
        "macro": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "nu": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "eps": {
                    "type": ["array", "null"],
                    "items": {"type": "array", "items": {"type": "number"}},
                },
                "source": _SOURCE_SPEC,
                "box_lengths": {"type": "number", "exclusiveMinimum": 0},
                "grid": {"type": "integer", "minimum": 16},
            },
        },
        "multiscale": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "delta_list": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.5},
                    "minItems": 1,
                },
                "kappa_prime": _SOURCE_SPEC,
            },
        },
        "output_dir": {"type": "string"},
        "seed": {"type": "integer"},
        "threads": {"type": "integer", "minimum": 1},
    },
}

_DEFAULTS = {
    "ecut": 200.0,
    "kgrid": None,  # filled per dimension
    "crystal": {
        "mode": "designer",
        "potential": {"family": "cosine", "terms": [{"n": [1], "amplitude": 2.0}]},
        "mu": "mid-gap",
        "scf": {
            "alpha_mix": 0.6,
            "anderson_depth": 5,
            "tol_residual": 1e-10,
            "max_iter": 200,
            "mu_mode": "fixed-charge",
        },
    },
    "response": {"delta": 0.05, "a": 0.5, "kmax": 0.1, "ksamples": 16},
    "macro": {
        "nu": None,
        "eps": None,
        "source": {"family": "gaussian", "width": 0.05, "amplitude": 1.0, "mean_free": False},
        "box_lengths": 24.0,
        "grid": 4096,
    },
    "multiscale": {
        "delta_list": [0.125, 0.0625, 0.03125],
        "kappa_prime": {
            "family": "gaussian",
            "width": 0.35,
            "amplitude": 0.05,
            "mean_free": True,
        },
    },
    "output_dir": "out",
    "seed": 0,
    "threads": 1,
}


# field specs that a config gives replace the default spec whole, so that
# a `file` potential carries no stray default cosine `terms`
_WHOLE_SPECS = {("crystal", "potential"), ("crystal", "kappa")}


def _merge_defaults(cfg, defaults, path=()):
    out = copy.deepcopy(defaults)
    for key, val in cfg.items():
        where = path + (key,)
        if isinstance(val, dict) and isinstance(out.get(key), dict) and where not in _WHOLE_SPECS:
            out[key] = _merge_defaults(val, out[key], where)
        else:
            out[key] = copy.deepcopy(val)
    return out


def validate_config(raw):
    """Validate against the schema, reporting every violation at once."""
    import jsonschema

    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = [
        f"{'/'.join(str(p) for p in e.absolute_path) or '<root>'}: {e.message}"
        for e in sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    ]
    if errors:
        raise ConfigError(errors)


def parse_config(path_or_dict):
    """Load, validate and fill defaults; returns the effective config dict."""
    if isinstance(path_or_dict, dict):
        raw = copy.deepcopy(path_or_dict)
    else:
        with open(path_or_dict, encoding="utf-8") as fh:
            raw = json.load(fh)
    validate_config(raw)
    cfg = _merge_defaults(raw, _DEFAULTS)
    d = len(cfg["lattice"]["basis"])
    if cfg["kgrid"] is None:
        cfg["kgrid"] = [16] * d
    if "center" not in cfg["macro"]["source"]:
        cfg["macro"]["source"]["center"] = None
    if "center" not in cfg["multiscale"]["kappa_prime"]:
        cfg["multiscale"]["kappa_prime"]["center"] = None
    validate_effective(cfg)
    return cfg


def validate_effective(cfg):
    try:
        lattice = build_lattice(cfg)
        lattice.reciprocal  # refuses a degenerate basis
    except ValueError as exc:
        raise ConfigError([f"lattice/basis: {exc}"]) from None
    if len(cfg["kgrid"]) != lattice.d:
        raise ConfigError(["kgrid: length must match the lattice dimension"])
    ccfg = cfg["crystal"]
    mu, mu_mode = ccfg["mu"], ccfg["scf"]["mu_mode"]
    if ccfg["mode"] == "scf" and (mu_mode == "fixed-mu") == (mu == "mid-gap"):
        raise ConfigError([f"crystal/mu {mu!r} with crystal/scf/mu_mode {mu_mode!r}: scf mode "
                           "takes a numeric mu exactly when mu_mode is 'fixed-mu'"])
    for delta in cfg["multiscale"]["delta_list"]:
        try:
            delta_factor(delta)
        except ValueError as exc:
            raise ConfigError([f"multiscale/delta_list: {exc}"]) from None


def serialize_config(cfg):
    return json.dumps(cfg, sort_keys=True, indent=1) + "\n"


def config_hash(cfg):
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def build_lattice(cfg) -> Lattice:
    return Lattice(np.asarray(cfg["lattice"]["basis"], dtype=float))


def build_basis(cfg) -> PlaneWaveBasis:
    return PlaneWaveBasis(build_lattice(cfg), ecut=cfg["ecut"])


def build_potential(basis: PlaneWaveBasis, spec) -> PeriodicField:
    """Materialize a field family on a plane-wave basis. A `file` field must
    hold a real grid (DBYF kind 0) on the basis grid."""
    fam = spec["family"]
    if fam == "cosine":
        coeffs = np.zeros(basis.n_pw, dtype=complex)
        coeffs[0] = spec.get("offset", 0.0)
        for term in spec.get("terms", []):
            n = tuple(term.get("n", [1] * basis.d))
            amp = term.get("amplitude", 1.0)
            i = basis.index_of(n)
            j = basis.index_of([-x for x in n])
            if i < 0 or j < 0:
                raise ConfigError([f"potential term {n} outside the cutoff set"])
            coeffs[i] += 0.5 * amp
            coeffs[j] += 0.5 * amp
        return PeriodicField(basis, coeffs)
    if fam == "file":
        from .io import read_field

        path = spec["path"]
        try:
            vals = read_field(path)
            if vals.shape != basis.fft_shape:
                raise ValueError(f"grid {vals.shape}, the basis grid {basis.fft_shape}; "
                                 "write it at the config's lattice and ecut")
            return PeriodicField.from_grid(basis, vals)
        except (OSError, ValueError) as exc:
            raise ConfigError([f"field file {path}: {exc}"]) from None
    raise ConfigError([f"unknown field family {fam!r}"])


def build_macro_source(box: Lattice, shape, spec) -> SupercellField:
    from .macro import gaussian_source

    center = spec.get("center")
    if center is None:
        center = 0.5 * box.basis.sum(axis=0)
    return gaussian_source(
        box,
        shape,
        center=center,
        width=spec["width"],
        amplitude=spec.get("amplitude", 1.0),
        mean_free=spec.get("mean_free", False),
    )
