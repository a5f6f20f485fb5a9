"""Tornado tabulation hashing and its empirical verification harness."""

from . import bench, experiments, gf2, linprobe, rng, selectors
from .core import (
    ConfigError,
    FoldedTables,
    TornadoHash,
    TornadoSpec,
    Variant,
    derived_injectivity_check,
    dump_tables,
    fold_tables,
    parse_spec_string,
)
from .gf2 import GenKey, GF2Basis, diff_key, find_zero_subset, genkey_from_key, is_linearly_independent, is_zero_set, rank

__version__ = "0.1.0"

__all__ = [
    "bench",
    "experiments",
    "gf2",
    "linprobe",
    "rng",
    "selectors",
    "ConfigError",
    "FoldedTables",
    "TornadoHash",
    "TornadoSpec",
    "Variant",
    "derived_injectivity_check",
    "dump_tables",
    "fold_tables",
    "parse_spec_string",
    "GenKey",
    "GF2Basis",
    "diff_key",
    "find_zero_subset",
    "genkey_from_key",
    "is_linearly_independent",
    "is_zero_set",
    "rank",
    "__version__",
]
