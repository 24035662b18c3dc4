"""Pure arithmetic of the cryptarch benchmark: statistics, span self
times, per-layer metrics and the digest gate. run.py does the I/O;
tests/test_analysis.py covers this module."""

import hashlib
import json
import statistics

# Hex digits kept of each cell digest (32 bits): the committed
# references store one per cell per seed.
DIGEST_HEX = 8


def tail(values, beyond=10):
    """The highest percentile that still has at least `beyond` samples
    above it. Returns (value, percentile, sample count). With `beyond`
    or fewer samples no percentile qualifies; the minimum, the rank the
    rule reaches at `beyond` + 1 samples, stands in, so the value does
    not jump as the sample count crosses that threshold."""
    xs = sorted(values)
    n = len(xs)
    k = max(n - beyond - 1, 0)  # xs[k] has `beyond` samples after it
    return xs[k], 100.0 * (k + 1) / n, n


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover. Children may nest, overlap one
    another or stick out of the parent; only the covered part of the
    parent's own interval counts once.

    `spans` is a list of (name, start, end, parent, cell) with parent an
    index into the list or -1."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2])
                                     for c in children[i]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# Which metric each span's self time adds to. The roots are the
# benchmark re-issuing a sweep (or the ssl simulations) on one thread:
# their self time is the harness's own loop, time no layer claims. The
# driver residue is recordKernelTrace's own work outside its phases.
SPAN_METRIC = {
    "driver.runCells": "driver.unaccounted_s",
    "ssl.runServerSims": "driver.unaccounted_s",
    "driver.recordKernelTrace": "driver.residue_s",
    "kernels.build": "kernels.build_s",
    "driver.gate": "driver.gate_s",
    "isa.decode": "isa.decode_s",
    "isa.record": "isa.record_s",
    "verify.oracle": "verify.oracle_s",
    "isa.compress": "isa.compress_s",
    "sim.replay": "sim.replay_s",
    "ssl.server_sim": "ssl.server_sim_s",
}


SAMPLE_ROOTS = ("driver.runCells", "ssl.runServerSims")


def layer_seconds(spans):
    """Per sample, the self seconds of each metric in SPAN_METRIC. A
    sample is every driver.runCells or ssl.runServerSims root span with
    the same index (the roots' cell field); spans under other roots
    (the decode probes) are skipped. Returns {sample index: {metric:
    seconds}}."""
    selfs = self_times(spans)
    root_of = []
    for span in spans:
        parent = span[3]
        root_of.append(len(root_of) if parent < 0 else root_of[parent])
    per_sample = {}
    for i, span in enumerate(spans):
        root = spans[root_of[i]]
        if root[0] not in SAMPLE_ROOTS:
            continue
        sums = per_sample.setdefault(root[4], dict.fromkeys(
            set(SPAN_METRIC.values()), 0.0))
        sums[SPAN_METRIC[span[0]]] += selfs[i]
    return per_sample


def decode_seconds(spans):
    """{sample index: summed null-sink replay seconds of its probes}."""
    per_sample = {span[4]: 0.0 for span in spans if span[0] == "probe"}
    for name, start, end, parent, _ in spans:
        if name == "isa.trace_decode":
            per_sample[spans[parent][4]] += end - start
    return per_sample


def cell_digest(label, result):
    """Digest of one cell's simulated results (`result` is the list the
    harness reports), tied to the cell's label."""
    text = json.dumps([label, result], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def digest_failures(labels, samples, reference):
    """Count the cells whose digest differs from the reference. `samples`
    is a list of per-sample result lists, in `labels` order; `reference`
    a list of digests, or None when there is none (every cell fails)."""
    failed = 0
    for results in samples:
        if reference is None or len(results) != len(reference):
            failed += len(results)
            continue
        failed += sum(cell_digest(label, result) != ref
                      for label, result, ref in zip(labels, results,
                                                    reference))
    return failed


# Unit of every per-layer metric per_layer() reports.
PER_LAYER_UNITS = {
    "driver.idle_frac": "ratio",
    "driver.functional_runs": "count",
    "driver.gate_s": "s",
    "driver.gate_checks": "count",
    "driver.gate_fallbacks": "count",
    "driver.residue_s": "s",
    "driver.unaccounted_s": "s",
    "kernels.build_s": "s",
    "isa.record_s": "s",
    "isa.decode_s": "s",
    "isa.record_ns_per_inst": "ns/inst",
    "isa.compress_s": "s",
    "isa.trace_stored_bytes": "B",
    "isa.trace_bytes_per_inst": "B/inst",
    "isa.compress_accept_ratio": "ratio",
    "isa.trace_decode_ns_per_inst": "ns/inst",
    "verify.oracle_s": "s",
    "sim.replay_s": "s",
    "sim.schedule_ns_per_inst": "ns/inst",
    "sim.cycles": "count",
    "sim.stall_cycles": "count",
    "sim.l1_misses": "count",
    "sim.l2_misses": "count",
    "sim.mispredicts": "count",
    "sim.sbox_cache_misses": "count",
    "ssl.handshake_s": "s",
    "ssl.server_sim_s": "s",
    "ssl.ns_per_session": "ns/session",
    "util.pi_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def ratio(num, den):
    return num / den if den else 0.0


def overhead(rounds):
    """Tracing overhead: traced minus untraced single-thread wall. The
    harness swaps the two passes' order every round, and the pass that
    runs first is slower, so each pair of rounds contributes the mean
    of its two differences, cancelling the order. Pairs also keep host
    speed drift out. Median over pairs; an unpaired last round is
    dropped unless it is the only one."""
    diffs = [r["traced"]["wall_s"] - r["serial"]["wall_s"] for r in rounds]
    pairs = [(a + b) / 2 for a, b in zip(diffs[0::2], diffs[1::2])]
    return statistics.median(pairs or diffs)


def per_layer(rounds, spans, pi_s, handshake_s):
    """Per-layer metrics of a traced run: medians over its rounds."""
    layers = layer_seconds(spans)
    decodes = decode_seconds(spans)
    rows = []
    for i, rnd in enumerate(rounds):
        secs, decode_s = layers[i], decodes.get(i, 0.0)
        par, ser, tr = rnd["parallel"], rnd["serial"], rnd["traced"]
        insts = tr["recorded_insts"]
        replayed = tr["replayed_insts"]
        row = dict(secs)
        row.update({
            "driver.idle_frac": par["idle_frac"],
            "driver.functional_runs": par["functional_runs"],
            "driver.gate_checks": par["gate_checks"],
            "driver.gate_fallbacks": par["gate_fallbacks"],
            "isa.record_ns_per_inst": 1e9 * ratio(secs["isa.record_s"],
                                                  insts),
            "isa.trace_stored_bytes": tr["stored_bytes"],
            "isa.trace_bytes_per_inst": ratio(tr["stored_bytes"], insts),
            "isa.compress_accept_ratio": ratio(tr["compress_accepted"],
                                               tr["compress_attempted"]),
            "isa.trace_decode_ns_per_inst": 1e9 * ratio(decode_s, insts),
            "sim.schedule_ns_per_inst": 1e9 * ratio(
                secs["sim.replay_s"] - tr["decode_in_replay_s"], replayed),
            "sim.cycles": tr["cycles"],
            "sim.stall_cycles": tr["stall_cycles"],
            "sim.l1_misses": tr["l1_misses"],
            "sim.l2_misses": tr["l2_misses"],
            "sim.mispredicts": tr["mispredicts"],
            "sim.sbox_cache_misses": tr["sbox_cache_misses"],
            "ssl.ns_per_session": 1e9 * ratio(secs["ssl.server_sim_s"],
                                              tr["ssl_sessions"]),
            "trace.wall_s": tr["wall_s"],
            "trace.untraced_wall_s": ser["wall_s"],
        })
        rows.append(row)
    out = {name: statistics.median(row[name] for row in rows)
           for name in rows[0]}
    out["trace.overhead_s"] = overhead(rounds)
    out["util.pi_s"] = pi_s
    out["ssl.handshake_s"] = handshake_s
    return out
