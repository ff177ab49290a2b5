"""Per-layer metrics derived from one traced run's spans.

`.calls` counts spans, `.self_s` is span time minus the time of its child
spans, and `.s` is inclusive span time.  A metric whose span was never
opened on a workload, or whose ratio has no base, reads 0 and is listed
with the reason in `absent`.
"""

from __future__ import annotations

# spans reported with .calls and .self_s
CALLS_SELF = (
    "gf.inv_mod",
    "linalg.Matrix",
    "linalg.Subspace",
    "linalg.Matrix.rank",
    "linalg.Matrix.rref_with_pivots",
    "linalg.Matrix.inverse",
    "linalg.Matrix.left_mul",
    "linalg.nullspace",
    "linalg.solve_left",
    "linalg.combine",
    "linalg.Subspace.contains",
    "linalg.Subspace.contains_subspace",
    "linalg.Subspace.sum",
    "linalg.Subspace.intersect",
    "linalg.Subspace.complement_in",
    "linalg.random_subspace",
    "regen.Code",
    "regen.check_recovery_subset",
    "regen.check_repair_pair",
    "regen.brute_force_repairable",
    "structure.compute_decomposition",
    "structure.Decomposition",
    "structure.Decomposition.express_in_complement_basis",
    "structure.verify_structure",
    "alignment.is_well_aligned",
    "alignment.sample_well_aligned",
    "extend.find_alignments",
    "extend.new_node_repair_witness",
    "extend.helper_repair_witness",
)
# spans reported with .self_s only
SELF_ONLY = ("regen.load_code", "regen.save_code", "cli.main")
# spans reported with .calls and inclusive .s
CALLS_INCL = ("extend.extend_code", "extend.synthesize_base_code")
# spans reported with inclusive .s only
INCL_ONLY = (
    "regen.verify_data_recovery",
    "regen.verify_repair_witnesses",
    "alignment.estimate_probability_monte_carlo",
)
DERIVED = (
    ("regen.save_code.bytes", "bytes"),
    ("alignment.is_well_aligned.accept_ratio", "ratio"),
    ("extend.attempts", "count"),
    ("extend.accept_ratio", "ratio"),
    ("extend.xscan_depth", "calls/subset"),
    ("extend.decomp_cache_hit_ratio", "ratio"),
    ("extend.reverify_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
_REVERIFY = ("regen.verify_data_recovery", "regen.verify_repair_witnesses")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in CALLS_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in CALLS_INCL:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for name in INCL_ONLY:
        units[f"{name}.s"] = "s"
    units.update(DERIVED)
    return units


def _ratio(num: float, den: float, name: str, why: str, absent: dict) -> float:
    if den == 0:
        absent[name] = why
        return 0.0
    return num / den


def layer_metrics(summary, overhead_ratio: float) -> tuple[dict[str, float], dict[str, str]]:
    """(metric -> value, metric -> reason it is absent) for one traced run."""
    values: dict[str, float] = {}
    absent: dict[str, str] = {}

    def spans(name: str, metrics: list[str]) -> None:
        if summary.calls[name] == 0:
            for metric in metrics:
                absent[metric] = f"no {name} spans on this workload"

    for name in CALLS_SELF:
        values[f"{name}.calls"] = summary.calls[name]
        values[f"{name}.self_s"] = summary.self_s[name]
        spans(name, [f"{name}.self_s"])
    for name in SELF_ONLY:
        values[f"{name}.self_s"] = summary.self_s[name]
        spans(name, [f"{name}.self_s"])
    for name in CALLS_INCL:
        values[f"{name}.calls"] = summary.calls[name]
        values[f"{name}.s"] = summary.incl_s[name]
        spans(name, [f"{name}.s"])
    for name in INCL_ONLY:
        values[f"{name}.s"] = summary.incl_s[name]
        spans(name, [f"{name}.s"])

    values["regen.save_code.bytes"] = summary.saved_bytes
    values["alignment.is_well_aligned.accept_ratio"] = _ratio(
        summary.flagged["alignment.is_well_aligned"],
        summary.calls["alignment.is_well_aligned"],
        "alignment.is_well_aligned.accept_ratio",
        "no is_well_aligned calls",
        absent,
    )
    # every attempt of extend_code runs find_alignments once on its draw
    attempts = summary.under_calls[("extend.find_alignments", "extend.extend_code")]
    values["extend.attempts"] = attempts
    values["extend.accept_ratio"] = _ratio(
        summary.flagged["extend.extend_code"], attempts,
        "extend.accept_ratio", "no extend_code attempts", absent,
    )
    checks = summary.under_calls[("alignment.is_well_aligned", "extend.find_alignments")]
    accepted = summary.under_flagged[("alignment.is_well_aligned", "extend.find_alignments")]
    rejected_draws = (
        summary.calls["extend.find_alignments"] - summary.flagged["extend.find_alignments"]
    )
    values["extend.xscan_depth"] = _ratio(
        checks, accepted + rejected_draws,
        "extend.xscan_depth", "no helper subsets scanned by find_alignments", absent,
    )
    decomps = summary.under_calls[("structure.compute_decomposition", "extend.find_alignments")]
    miss_ratio = _ratio(
        decomps, checks,
        "extend.decomp_cache_hit_ratio", "no is_well_aligned calls under find_alignments", absent,
    )
    values["extend.decomp_cache_hit_ratio"] = 0.0 if checks == 0 else 1.0 - miss_ratio
    values["extend.reverify_s"] = sum(
        summary.under_incl_s[(name, "extend.extend_code")] for name in _REVERIFY
    )
    if attempts == 0:
        absent["extend.reverify_s"] = "no extend_code steps"
    values["trace.overhead_ratio"] = overhead_ratio
    return values, absent
