// The three workloads. Each runs set-up, measures closed rounds for
// Options::seconds, checks its outputs, and fills a Result: the
// end-to-end metrics when tracing is off, the per-layer metrics when it
// is on.
#pragma once

#include <cstdint>
#include <vector>

#include "report.hpp"

namespace zbench {

Result run_sc_epochs(const Options& opt);
Result run_mc_catchup(const Options& opt);
Result run_gossip(const Options& opt);

/// Per-layer metrics (trace on), with units. Every workload reports the
/// full list; a layer the workload never enters reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
inline constexpr LayerMetric kPerLayer[] = {
    {"crypto.client_sign_s", "s/round"},
    {"latus.forge_s", "s/round"},
    {"latus.observe_s", "s/round"},
    {"latus.sc_blocks", "count/round"},
    {"latus.payments_confirmed", "count/round"},
    {"latus.utxo_count", "count"},
    {"snark.certificate_s", "s/round"},
    {"snark.base_proofs", "count/round"},
    {"snark.merge_proofs", "count/round"},
    {"snark.recursion_depth", "count"},
    {"mainchain.mine_s", "s/round"},
    {"mainchain.connect_block_s", "s/round"},
    {"mainchain.codec_decode_s", "s/round"},
    {"mainchain.reorgs", "count/round"},
    {"parallel.verify_sig_s", "s/round"},
    {"parallel.verify_snark_s", "s/round"},
    {"parallel.checks_executed", "count/round"},
    {"parallel.checks_per_block", "count/block"},
    {"parallel.cache_hits", "count/round"},
    {"parallel.batches", "count/round"},
    {"sim.events", "count/round"},
    {"sim.events_per_s", "1/s"},
    {"sim.bytes_queued", "bytes/round"},
    {"sim.catchup_ticks", "ticks"},
    {"sim.propagation_ticks_p50", "ticks"},
    {"sim.propagation_ticks_tail", "ticks"},
    {"net.msgs_delivered", "count/round"},
    {"net.msgs_per_block", "count/block"},
    {"net.duplicates", "count/round"},
    {"net.wire_dedup_hits", "count/round"},
    {"net.encode_cache_hits", "count/round"},
    {"net.stalled_rerequests", "count/round"},
    {"trace.overhead_pct", "%"},
};

/// Sets metric `name` from the per-layer table (throws on a name that is
/// not in it — one spelling per metric).
void set_layer(Result& r, const char* name, double value);
/// Adds every per-layer metric the workload did not set, as 0.
void fill_layers(Result& r);

/// Wall time of decoding every wire block once (`codec::decode_block`).
[[nodiscard]] double decode_seconds(const std::vector<std::vector<std::uint8_t>>& wire);

/// The end-to-end set (trace off). Every workload reports all of it;
/// README.md maps each metric to its meaning per workload.
void set_end_to_end(Result& r, double setup_s, double rss_mb,
                    double throughput_per_s, double latency_s);

}  // namespace zbench
