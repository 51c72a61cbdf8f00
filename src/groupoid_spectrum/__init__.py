"""Exact checks for Hausdorff spectra of groupoid algebras.

Three layers: a decision procedure on finite directed graphs (cycle entries
and orbit separation), model groupoids (the dyadic discretization of a
planar flow, exact, and SO(3), in floating point), and a convergence engine
that certifies or refutes the separation condition for sequence families
given in closed form.

The exports below are loaded on first access (PEP 562), so importing the
package loads no submodule and each command starts with only what it runs.
The input error and the JSON key check that every command uses are defined
here, where no submodule has to be loaded for them.
"""

import importlib

__version__ = "0.1.0"


class InputError(ValueError):
    """Invalid input: the base of every input error, which the CLI maps to exit code 2."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The JSON inputs' ``object_pairs_hook``: a repeated key is a ValueError, not a silent overwrite."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        raise ValueError(f"repeated key {next(k for k, _ in pairs if k in seen or seen.add(k))!r}")
    return obj


# export name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "DEFAULT_TESTS",
            "CharSeqSpec",
            "ConditionCVerdict",
            "DyadicArrowFamily",
            "HypothesisFailure",
            "PointSeqSpec",
            "SElemSeqSpec",
            "char_seq_converges",
            "condition_c_check",
            "condition_c_on_S_check",
            "parse_family",
        ),
        "convergence",
    ),
    **dict.fromkeys(
        (
            "CycleRep",
            "DiGraph",
            "Edge",
            "InvalidGraphError",
            "entry_free_cycles",
            "parse_graph",
            "validate_graph",
        ),
        "digraph",
    ),
    **dict.fromkeys(
        (
            "DIVERGENT",
            "AffineSeq",
            "DyadicSeq",
            "pow2_scale",
            "scale_pow2_affine",
        ),
        "exact",
    ),
    **dict.fromkeys(
        (
            "LINE_BRANCH",
            "ArrowDyadic",
            "CharQ",
            "CharSO3",
            "GroupH",
            "PointY",
            "SElem",
            "dyadic_act_S",
            "dyadic_act_dual",
            "so3_conj_residual",
            "so3_rotation",
            "so3_spectrum_point",
            "so3_transport",
        ),
        "models",
    ),
    **dict.fromkeys(
        (
            "EventualPath",
            "FellLimit",
            "PeriodFamily",
            "SpectrumVerdict",
            "check_condition_a",
            "check_condition_b",
            "decide_hausdorff_spectrum",
            "fell_subgroup_limit",
            "orbits",
            "shift_equivalent",
            "stabilizer_of_path",
        ),
        "spectrum",
    ),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
