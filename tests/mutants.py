"""Mutation checks of the simulator that anyone can re-run.

Each mutant names a module of `src/lstmgrid`, an exact source snippet, its
replacement, and the tests that must kill it: fail once the snippet is
replaced.  Run from anywhere:

    python tests/mutants.py [name ...]

The command copies `src/` to a temporary directory and first runs the
killers of the chosen mutants (default: all) on that unmutated copy; they
must pass.  Then, for each mutant, it applies the replacement to a fresh
copy, never in place, and runs the mutant's killers with `-x`.  It exits 1
if the unmutated copy fails, a snippet is missing, or a mutant survives,
and 0 when every mutant is killed.  A tier-1 test checks only that each
snippet occurs exactly once in `src/`, so a refactor that moves mutated
code must update this catalogue.

Mutation testing: DeMillo, Lipton and Sayward, "Hints on test data
selection", 1978; survey: Jia and Harman, TSE 2011.
"""

import argparse
import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIM = "tests/test_systolic_sim.py::"
REF = "tests/test_lstm_ref.py::"
QF = "tests/test_qformat.py::"
PE = "tests/test_perf_energy.py::"
CLI = "tests/test_cli.py::"
TAILS = (REF + "test_batched_tails_equal_the_unbatched_ones_in_every_format",
         REF + "test_batched_tails_equal_the_unbatched_ones")


@dataclasses.dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/lstmgrid
    snippet: str
    replacement: str
    killers: tuple  # pytest node ids, relative to the repository root
    why: str


MUTANTS = [
    Mutant(
        "reduce_words_after_the_fold", "systolic_sim.py",
        "    return incoming\n",
        "    return partials[hop]\n",
        (SIM + "test_outputs_and_link_toggles_match_the_recorded_digests",),
        "a reduction hop's words are the partials it leaves, folded, not "
        "the ones it receives"),
    Mutant(
        "words_cut_from_step_zero", "systolic_sim.py",
        "ts = slice(tpl.first, tpl.first + n)",
        "ts = slice(0, n)",
        (SIM + "test_outputs_and_link_toggles_match_the_recorded_digests",),
        "the later reload template's words are cut from the histories of "
        "steps 0 to T - 2, not 1 to T - 1"),
    Mutant(
        "word_groups_ignore_the_width", "systolic_sim.py",
        "events, parts = groups.setdefault(key, ([], []))",
        "events, parts = groups.setdefault(next(\n"
        "                (k for k in groups if k[1] == key[1]), key), ([], []))",
        (SIM + "test_outputs_and_link_toggles_match_the_recorded_digests",),
        "8- and 16-bit words of equal count share one word group, so one "
        "of them is counted at the other's width"),
    Mutant(
        "state_load_reads_this_step", "systolic_sim.py",
        "return lay.hc[ts].reshape(steps, 2 * n, nh)",
        "return lay.hc[after].reshape(steps, 2 * n, nh)",
        (SIM + "test_outputs_and_link_toggles_match_the_recorded_digests",),
        "a state restore carries the h and c its step leaves, not the "
        "ones the step before left"),
    Mutant(
        "feature_history_one_step_off", "systolic_sim.py",
        "feed = hist[-1].hc[1:, 0, :grid.n_hidden]",
        "feed = hist[-1].hc[:-1, 0, :grid.n_hidden]",
        (SIM + "test_every_mode_matches_the_scalar_oracle",),
        "layer k + 1 reads layer k's hidden codes of the step before"),
    Mutant(
        "template_step_offset", "systolic_sim.py",
        "cursor + k * length for k in range(count)",
        "cursor + k * (length + 1) for k in range(count)",
        (SIM + "test_run_schedule_is_built_before_any_value",
         SIM + "test_outputs_and_link_toggles_match_the_recorded_digests"),
        "every step after the first of a template starts one more cycle "
        "late"),
    Mutant(
        "die_activity_counts_configuration", "systolic_sim.py",
        "            if tpl.first is None:  # the configuration timeline\n"
        "                continue\n",
        "",
        (SIM + "test_active_plus_stall_covers_the_span",
         "tests/test_perf_energy.py::"
         "test_report_equals_the_record_loop_to_the_last_bit"),
        "die_activity counts the configuration timeline's parameter loads"),
    Mutant(
        "die_activity_sums_durations", "systolic_sim.py",
        "                    if end > reach:\n"
        "                        busy, reach = busy + end - max(start, reach),"
        " end\n",
        "                    busy += end - start\n",
        (SIM + "test_overlapping_records_count_once_per_die",
         PE + "test_report_equals_the_record_loop_to_the_last_bit"),
        "records that overlap on a die count twice, so a deeper grid's "
        "feature stream adds to its recurrent MAC loop's active cycles"),
    Mutant(
        "full_unit_loop_truncated", "systolic_sim.py",
        "h_loop = max(grid.nh_tile, plan.tile.nh_capacity)",
        "h_loop = grid.nh_tile",
        (SIM + "test_small_layer_keeps_the_full_unit_loop",),
        "the recurrent MAC loop sweeps only the mapped units of a tile, "
        "not every physical unit of the die"),
    Mutant(
        "section_passes_unread_key", "cli.py",
        "    unread = sorted(set(map(str, values)) - keys)\n",
        "    unread = sorted(set(map(str, values)) - keys) \\\n"
        "        if section is None else []\n",
        ("tests/test_cli.py::test_keys_nothing_reads_fail_at_config_load",),
        "a config section ignores a key it never reads; only the top "
        "level is still checked"),
    Mutant(
        "int_rule_admits_a_bool", "cli.py",
        "return value if type(value) is kind and value",
        "return value if isinstance(value, kind) and value",
        (CLI + "test_bad_network_shapes_fail_at_config_load",),
        "an integer key takes true for 1 and false for 0"),
    Mutant(
        "container_path_unchecked", "cli.py",
        "    return {key: rule[3] if key not in given else _value(\n",
        "    return {key: given.get(key) if key == \"container\" else\n"
        "            rule[3] if key not in given else _value(\n",
        (CLI + "test_a_container_path_is_a_non_empty_string",
         CLI + "test_no_config_document_ends_in_a_traceback"),
        "a container path is opened as the document gives it, so a list "
        "ends in a TypeError traceback and a number names a file "
        "descriptor"),
    Mutant(
        "network_meta_unchecked", "lstm_ref.py",
        "    _check_fields(meta, _META_FIELDS[\"network\"], \"network meta \")"
        "\n", "",
        (CLI + "test_network_meta_of_another_structure_is_refused",
         CLI + "test_no_container_manifest_ends_in_a_traceback"),
        "a network manifest's meta is read unchecked, so a layer count of 5 "
        "ends in a TypeError traceback and a frac_bits of true runs"),
    Mutant(
        "param_load_skips_link_check", "systolic_sim.py",
        "            for link in tpl.links:\n"
        "                self._check_transfer(link)\n",
        "            for rec, span in zip(tpl.records, tpl.spans):\n"
        "                for e in span if rec.kind != \"param_load\" else ():\n"
        "                    self._check_transfer(tpl.links[e])\n",
        (SIM + "test_every_reload_transfer_consults_the_plan",),
        "a parameter load skips the dropped-link check"),
    Mutant(
        "reduce_hop_plain_add", "systolic_sim.py",
        "partials[hop] = sat_add16(incoming, partials[hop])",
        "partials[hop] = incoming + partials[hop]",
        (SIM + "test_reduction_fold_clips_before_a_column_pulls_back",),
        "the reduction fold adds without saturating"),
    Mutant(
        "state_carried_across_runs", "systolic_sim.py",
        "    hc = np.zeros((len(x) + 1, 2, nhp), np.int8)\n",
        "    hc = np.zeros((len(x) + 1, 2, nhp), np.int8)\n"
        "    hc[0] = stack.__dict__.get(\"_hc\", hc)[-1]\n"
        "    stack._hc = hc\n",
        (SIM + "test_a_second_run_starts_from_zero_state",),
        "a run starts from the h and c the last run left"),
    Mutant(
        "block_stack_packs_short_tiles", "lstm_ref.py",
        "            pos += tile\n",
        "            pos += rest or tile\n",
        (SIM + "test_param_words_match_the_network_tensors",
         SIM + "test_every_mode_matches_the_scalar_oracle"),
        "a tile past its matrix's real width is packed short, so the next "
        "matrix's columns of the block sit under the wrong operand codes"),
    Mutant(
        "block_tile_floors_the_width", "lstm_ref.py",
        "    return -(-width // n_blocks)\n",
        "    return width // n_blocks\n",
        (REF + "test_block_stack_layout_and_row_norms",
         SIM + "test_every_mode_matches_the_scalar_oracle"),
        "a tile is width // n columns, so a ragged matrix loses its last "
        "columns and its padded operand no longer fits the layout"),
    Mutant(
        "operand_reads_codes_strided", "lstm_ref.py",
        "v.reshape(v.shape[:-1] + tiles)\n",
        "v.reshape(v.shape[:-1] + tiles[::-1]).swapaxes(-1, -2)\n",
        (REF + "test_block_stack_layout_and_row_norms",
         SIM + "test_every_mode_matches_the_scalar_oracle"),
        "block b's operand reads every n-th code from b on, not tile b of "
        "each vector"),
    Mutant(
        "padding_before_the_real_units", "lstm_ref.py",
        "codes[:, :params.n_hidden] = ",
        "codes[:, units - params.n_hidden:] = ",
        (SIM + "test_each_resident_layout_is_the_oracles_padded_to_the_grid",
         SIM + "test_param_words_match_the_network_tensors",
         SIM + "test_every_mode_matches_the_scalar_oracle"),
        "a layer's peephole and bias codes sit at the end of the padded "
        "rows, so the grid's real units read another unit's codes"),
    Mutant(
        "iu_alignment_off_by_one", "lstm_ref.py",
        "shift_round(g_i * g_u, gf - sf)",
        "shift_round(g_i * g_u, gf - sf + 1)",
        (REF + "test_tail_tables_equal_the_helpers_they_replace",) + TAILS
        + (REF + "test_cell_tail_matches_scalar_oracle_tail",),
        "the i*u table aligns the product one bit too far down"),
    Mutant(
        "output_peephole_reads_old_c", "lstm_ref.py",
        "o = k.o_peep * c_new\n",
        "o = k.o_peep * c\n",
        TAILS + (REF + "test_cell_tail_matches_scalar_oracle_tail",),
        "the output gate's peephole reads the old cell state"),
    Mutant(
        "fc_bias_extra_shift", "lstm_ref.py",
        "np.asarray(b_y, np.int64) << fmts.state.frac_bits",
        "np.asarray(b_y, np.int64) << fmts.state.frac_bits + 1",
        TAILS + (SIM + "test_every_mode_matches_the_scalar_oracle",),
        "the projection's bias enters one bit too far up"),
    Mutant(
        "clamp_bounds_sign_swapped", "lstm_ref.py",
        "    return (acc_bias + (base + _ZERO), np.maximum(acc_bias, 0) + base,\n"
        "            np.minimum(acc_bias, 0) + (base + INT16_CODES - 1))\n",
        "    return (acc_bias + (base + _ZERO), np.minimum(acc_bias, 0) + base,\n"
        "            np.maximum(acc_bias, 0) + (base + INT16_CODES - 1))\n",
        (REF + "test_gate_bounds_fold_the_saturating_bias_add",) + TAILS,
        "a gate's clamp bounds fold the bias in with the wrong sign, so a "
        "saturated pre-activation indexes past its table half"),
    Mutant(
        "c_table_without_clip", "lstm_ref.py",
        '+ t.iu.take(i_hi | u_lo, mode="wrap"), mode="clip")',
        '+ t.iu.take(i_hi | u_lo, mode="wrap"))',
        (REF + "test_cell_state_update_clips_at_the_int16_top",),
        "the cell-state lookup does not clip its index, so a c-update sum "
        "outside int16 raises instead of saturating"),
    Mutant(
        "h_table_index_off_by_one", "lstm_ref.py",
        't.h.take(o_hi | (c_new & _LOW_BYTE), mode="wrap")',
        't.h.take((o_hi | (c_new & _LOW_BYTE)) + 1, mode="wrap")',
        TAILS + (REF + "test_cell_tail_matches_scalar_oracle_tail",),
        "the h lookup reads the entry of the next (g_o, c_new) pair"),
    Mutant(
        "gate_table_at_state_frac_bits", "lstm_ref.py",
        "requantize(v, fmts.acc_frac_bits, fmts.state)",
        "requantize(v, fmts.state.frac_bits, fmts.state)",
        (REF + "test_tail_tables_equal_the_helpers_they_replace",) + TAILS,
        "the gate tables requantize from the state's frac bits, not the "
        "accumulator's"),
    Mutant(
        "tail_tables_rebuilt_per_call", "lstm_ref.py",
        "    if key not in memo:\n"
        "        memo[key] = build_tail_tables(luts, fmts)\n",
        "    memo[key] = build_tail_tables(luts, fmts)\n",
        ("tests/test_tooling.py::"
         "test_tail_tables_are_built_once_per_lut_pair_and_formats",),
        "the tail tables are rebuilt on every call, so every op pays for "
        "them"),
    Mutant(
        "round_half_up", "qformat.py",
        "(v + (v >> 63) + (1 << (shift - 1))) >> shift",
        "(v + (1 << (shift - 1))) >> shift",
        TAILS + (QF + "test_shift_round_matches_oracle",
                 QF + "test_requantize_matches_oracle"),
        "the rounding shift rounds negative ties up, not away from zero"),
    Mutant(
        "certificate_admits_room_plus_one", "qformat.py",
        "return room * room if room >= 0 else -1",
        "return (room + 1) ** 2 if room >= 0 else -1",
        (QF + "test_certificate_tier_is_exact_at_its_edge",
         SIM + "test_every_mode_matches_the_scalar_oracle"),
        "the certificate admits a chain one past its edge"),
    Mutant(
        "certificate_ignores_init", "qformat.py",
        "room = INT16_MAX - abs(init)",
        "room = INT16_MAX",
        (QF + "test_certificate_tier_is_exact_at_its_edge",),
        "the certificate leaves no room for the chain's initial value"),
    Mutant(
        "certificate_ignores_the_head", "qformat.py",
        "        v_sq = v_sq + head[3]\n",
        "        v_sq = v_sq + 0\n",
        (QF + "test_a_chain_with_a_head_is_the_whole_chain",),
        "the certificate's vector norm reads only the tail, so a chain "
        "whose head clips keeps its float32 sum"),
    Mutant(
        "fallback_drops_the_head", "qformat.py",
        "    acc[slow], saturated[slow] = _chain(products, init)\n",
        "    acc[slow], saturated[slow] = _chain(products[:, -n:], init)\n",
        (QF + "test_a_chain_with_a_head_is_the_whole_chain",
         SIM + "test_every_mode_matches_the_scalar_oracle",
         "tests/test_tooling.py::"
         "test_every_mac_call_flags_the_chains_the_scalar_mac_clips"),
        "the chains that fail the certificate run their tail terms "
        "alone, without the head's"),
    Mutant(
        "layer_bound_reads_the_least_row_norm", "lstm_ref.py",
        "return int(self.w_sq.max()) if self.w_sq.size else 0",
        "return int(self.w_sq.min()) if self.w_sq.size else 0",
        (QF + "test_the_layer_bound_keeps_every_chain_exact",
         SIM + "test_every_mode_matches_the_scalar_oracle"),
        "the layer bound takes the stack's smallest row norm for its "
        "largest, so a call whose other chains clip keeps their float32 "
        "sums"),
    Mutant(
        "layer_bound_ignores_init", "qformat.py",
        "or sq_max * max(v_sq.ravel().tolist()) > _limit(room):",
        "or sq_max * max(v_sq.ravel().tolist()) > _limit(INT16_MAX):",
        (QF + "test_the_layer_bound_keeps_every_chain_exact",),
        "the layer bound leaves no room for the chains' initial value"),
    Mutant(
        "head_norm_is_zero", "lstm_ref.py",
        "(v * v).sum(axis=-1, dtype=np.float64))\n",
        "np.zeros(len(v)))\n",
        (SIM + "test_a_run_over_several_head_chunks_matches_the_scalar_oracle",
         SIM + "test_every_mode_matches_the_scalar_oracle"),
        "the heads hand the certificate a zero norm for each step's input "
        "terms, so chains whose input half clips keep their float32 sums"),
    Mutant(
        "head_chunk_skips_a_step", "lstm_ref.py",
        "x[start:start + HEAD_CHUNK]",
        "x[start:start + HEAD_CHUNK - 1]",
        (SIM + "test_a_run_over_several_head_chunks_matches_the_scalar_oracle",
         ),
        "each head GEMM leaves out its chunk's last step, so every later "
        "step reads the inputs of a step further on"),
    Mutant(
        "scan_clamps_at_32766", "qformat.py",
        "lo, hi = np.int64(INT16_MIN), np.int64(INT16_MAX)",
        "lo, hi = np.int64(INT16_MIN), np.int64(INT16_MAX - 1)",
        (QF + "test_mac_run_saturating_rows",),
        "the saturating scan clamps one code below int16's top"),
    Mutant(
        "int8_check_trusts_one_byte_dtypes", "qformat.py",
        "if codes.dtype == np.int8:",
        "if codes.dtype.itemsize == 1:",
        (QF + "test_check_int8_refuses_other_dtypes_out_of_range",),
        "the int8 check passes uint8 and bool arrays unread, so a uint8 "
        "200 enters the MAC kernel as a code"),
    Mutant(
        "int8_check_trusts_integer_dtypes", "qformat.py",
        "if codes.dtype == np.int8:",
        "if codes.dtype.kind in \"iu\":",
        (SIM + "test_codes_outside_int8_are_rejected",
         QF + "test_check_int8_refuses_other_dtypes_out_of_range"),
        "the int8 check passes every integer array unread, so an int64 "
        "300 enters the MAC kernel as a code"),
    Mutant(
        "oracle_keeps_a_stepped_layer", "lstm_ref.py",
        "        del stack, layer, heads  # before the next layer is laid "
        "out\n",
        "        del stack\n",
        ("tests/test_memory.py::test_the_oracle_holds_one_layer_at_a_time",),
        "the oracle keeps layer k's float32 operand while it lays out "
        "layer k + 1, so two float32 stacks are held at once"),
    Mutant(
        "generator_draws_vectors_first", "lstm_ref.py",
        "        mats = [draw(n_h, n) for n in (n_i, n_h) * 4]\n"
        "        vecs = [draw(n_h) for _ in range(7)]\n",
        "        vecs = [draw(n_h) for _ in range(7)]\n"
        "        mats = [draw(n_h, n) for n in (n_i, n_h) * 4]\n",
        (REF + "test_random_network_is_the_uniform_import_of_its_draws",),
        "the generator draws a layer's seven vectors before its matrices, "
        "so every code after the first layer's first tensor changes"),
    Mutant(
        "grid_keeps_every_stepped_layer", "systolic_sim.py",
        "    stack = stack.stepping()\n",
        "    stack = stack.__dict__.setdefault(\"_twin\", stack.stepping())\n",
        ("tests/test_memory.py::"
         "test_simulate_holds_one_float32_layer_at_a_time",),
        "the grid keeps each layer's float32 operand resident after the "
        "layer has stepped, four bytes per code of every layer"),
    Mutant(
        "container_trusts_its_entries", "lstm_ref.py",
        "        _check_fields(e, _ENTRY_FIELDS,\n                      "
        "\"container entry %r: \" % (e.get(\"name\"),))\n",
        "",
        ("tests/test_cli.py::test_container_of_another_structure_is_refused",),
        "a manifest's tensor list is read unchecked, so a damaged one "
        "ends `lstmgrid run` in a TypeError traceback"),
    Mutant(
        "grid_steps_on_the_int8_layout", "systolic_sim.py",
        "    stack = stack.stepping()\n",
        "",
        ("tests/test_memory.py::"
         "test_no_step_hands_the_mac_kernel_int8_weights",),
        "the grid's gate MAC calls read the int8 layout, which the kernel "
        "converts to float32 on every step"),
    Mutant(
        "oracle_steps_on_the_int8_layout", "lstm_ref.py",
        "        layer = stack.stepping(), consts\n",
        "        layer = stack, consts\n",
        ("tests/test_memory.py::"
         "test_no_step_hands_the_mac_kernel_int8_weights",),
        "the oracle's gate MAC calls read the int8 layout, which the "
        "kernel converts to float32 on every step"),
    Mutant(
        "save_network_writes_default_formats", "lstm_ref.py",
        "        \"state_frac_bits\": formats.state.frac_bits,\n"
        "        \"gate_frac_bits\": formats.gate.frac_bits,\n",
        "        \"state_frac_bits\": DEFAULT_FORMATS.state.frac_bits,\n"
        "        \"gate_frac_bits\": DEFAULT_FORMATS.gate.frac_bits,\n",
        (REF + "test_network_container_round_trip",),
        "a saved network's state and gate formats are written as the "
        "defaults, so its codes load back re-labelled"),
    Mutant(
        "host_receive_charged", "perf_energy.py",
        "listeners = np.array([0 if link.receivers == (HOST,)",
        "listeners = np.array([1 if link.receivers == (HOST,)",
        (PE + "test_report_equals_the_record_loop_to_the_last_bit",),
        "a word the host receives is charged one receiver pad"),
    Mutant(
        "record_energy_keeps_one_event", "perf_energy.py",
        "np.add.at(per_record, (slice(None), owner), energy)",
        "per_record[:, owner] += energy",
        (PE + "test_report_equals_the_record_loop_to_the_last_bit",),
        "a buffered add keeps only one event per record, so a record's "
        "other events go unpriced"),
    Mutant(
        "host_drive_charged", "perf_energy.py",
        "drive = np.array([link.src != HOST for link in links])",
        "drive = np.ones(len(links), bool)",
        (PE + "test_host_side_pads_are_never_charged",),
        "a word the host drives is charged a driver pad"),
    Mutant(
        "pad_static_for_one_die", "perf_energy.py",
        "consts.p_pad_static_mw_per_die * 1e-3 * trace.meta[\"n_dies\"]",
        "consts.p_pad_static_mw_per_die * 1e-3 * 1",
        (PE + "test_energy_additivity_and_time",),
        "static pad power is charged for one die, not for every die"),
    Mutant(
        "toggle_tail_pad_flips", "systolic_sim.py",
        "raw[:, 8 + n_bytes:] = (raw[:, 7 + n_bytes, None] >> 4) * 0x11",
        "raw[:, 8 + n_bytes:] = 0",
        (SIM + "test_beat_stream_is_little_endian",),
        "the padding after a stream's last beat is zero, so it flips "
        "the bits the last beat set"),
    Mutant(
        "footprint_without_peepholes", "mapper.py",
        "total += (3 + 4) * n_h_tile",
        "total += 4 * n_h_tile",
        ("tests/test_mapper.py::test_footprint_full_die",),
        "a master's footprint leaves out its three peephole diagonals"),
]
BY_NAME = {m.name: m for m in MUTANTS}


def source(mutant, src=os.path.join(ROOT, "src")):
    with open(os.path.join(src, "lstmgrid", mutant.module),
              encoding="utf-8") as fh:
        return fh.read()


def pytest_run(src, killers):
    """Exit status of pytest over `killers`, importing lstmgrid from
    `src`: 0 all passed, 1 some failed, anything else an error."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import lstmgrid; print(lstmgrid.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not os.path.realpath(where.stdout.strip()).startswith(
            os.path.realpath(src)):
        raise RuntimeError("lstmgrid resolved to %s, not under %s"
                           % (where.stdout.strip(), src))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *killers], env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", metavar="name",
                        help="mutants to run (default: all): %s"
                        % ", ".join(BY_NAME))
    names = parser.parse_args(argv).names
    unknown = sorted(set(names) - set(BY_NAME))
    if unknown:
        parser.error("no mutant named %s" % ", ".join(unknown))
    mutants = [BY_NAME[n] for n in names] or MUTANTS
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        clean = os.path.join(tmp, "clean", "src")
        shutil.copytree(os.path.join(ROOT, "src"), clean)
        killers = sorted({k for m in mutants for k in m.killers})
        if pytest_run(clean, killers) != 0:
            print("unmutated copy: killers fail, no mutant can be judged")
            return 1
        for mutant in mutants:
            text = source(mutant, clean)
            if text.count(mutant.snippet) != 1:
                print("%s: snippet found %d times"
                      % (mutant.name, text.count(mutant.snippet)))
                failed = True
                continue
            src = os.path.join(tmp, mutant.name, "src")
            shutil.copytree(clean, src)
            with open(os.path.join(src, "lstmgrid", mutant.module), "w",
                      encoding="utf-8") as fh:
                fh.write(text.replace(mutant.snippet, mutant.replacement))
            status = pytest_run(src, mutant.killers)
            verdict = {0: "SURVIVED", 1: "killed"}.get(
                status, "ERROR (pytest exit %d)" % status)
            print("%-36s %s" % (mutant.name, verdict))
            failed |= status != 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
