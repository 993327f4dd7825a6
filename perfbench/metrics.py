"""Names and units of every metric the benchmark reports."""

# End-to-end metrics of an untraced run, as BENCHMARK.json lists them.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Verify suite functions and the names their results carry.
SUITES = {
    "verify_minimal_norms": "minimal_norms",
    "verify_group_laws": "coset_group_laws",
    "verify_pairing_forms": "pairing_forms",
    "verify_monodromy_laws": "monodromy_laws",
    "verify_lattice_discriminant": "lattice_discriminant",
    "verify_realization": "realization_duality",
    "verify_extension_monodromy": "extension_monodromy",
}

# Every metric the traced run reports, with its unit.
PER_LAYER = {
    "modules.orbits_s": "s",
    "modules.orbits_calls": "count",
    "modules.labels_scanned": "count",
    "modules.orbit_count": "count",
    "modules.orbit_members": "count",
    "modules.characters_s": "s",
    "modules.count_twisted_s": "s",
    "modules.count_twisted_calls": "count",
    "modules.induced_decomposition_s": "s",
    "modules.even_part_code_s": "s",
    "modules.caseB_modules_s": "s",
    "zkcodes.code_from_words_s": "s",
    "zkcodes.span_s": "s",
    "zkcodes.dual_code_s": "s",
    "zkcodes.dual_words": "count",
    "modules.cache.dual_words.hits": "count",
    "modules.cache.dual_words.misses": "count",
    "cosets.min_norm_data_s": "s",
    "cosets.min_norm_data_calls": "count",
    "cosets.build_code_lattice_s": "s",
    "cosets.cache.representative.hits": "count",
    "cosets.cache.representative.misses": "count",
    "cosets.cache.representative.currsize": "count",
    "cosets.cache.residue_table.currsize": "count",
    "parafermion.cache.pf_weight.hits": "count",
    "parafermion.cache.pf_weight.misses": "count",
    "parafermion.cache.pf_weight.currsize": "count",
    "branching.branch_s": "s",
    "branching.components": "count",
    "branching.cache.vir_h.currsize": "count",
    **{f"verify.{name}_s": "s" for name in SUITES.values()},
    "verify.suites_failed": "count",
    "report.run_s": "s",
    "report.to_text_s": "s",
    "report.to_json_s": "s",
    "report.output_bytes": "bytes",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.uncovered_s": "s",
    "bench.uncovered_share": "ratio",
    "bench.calib_s": "s",
}


def units(traced: bool) -> dict[str, str]:
    """The metrics the last output line carries, by name, with units."""
    return PER_LAYER if traced else END_TO_END
